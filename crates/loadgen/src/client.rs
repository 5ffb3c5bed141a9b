//! A blocking line-protocol client for one server connection.

use roulette_core::sync;
use roulette_core::{Error, Result};
use roulette_server::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// What one `QUERY` request resolved to at the wire.
#[derive(Debug)]
pub struct QueryOutcome {
    /// `ROW` lines received before the terminal line.
    pub rows_streamed: u64,
    /// The terminal `OK` or `ERR`.
    pub terminal: Response,
}

/// One TCP connection speaking the server's line protocol.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> Result<Client> {
        sync::assert_no_locks_held();
        let writer = TcpStream::connect(addr)
            .map_err(|e| Error::Internal(format!("connect {addr}: {e}")))?;
        // A read timeout bounds how long a dead server can wedge a worker.
        let _ = writer.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| Error::Internal(format!("clone stream: {e}")))?,
        );
        Ok(Client { reader, writer })
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        sync::assert_no_locks_held();
        let mut line = req.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| Error::Internal(format!("send: {e}")))
    }

    fn recv(&mut self) -> Result<Response> {
        sync::assert_no_locks_held();
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(Error::Internal("server disconnected".into())),
            Ok(_) => Response::parse(&line),
            Err(e) => Err(Error::Internal(format!("recv: {e}"))),
        }
    }

    /// Sends `PING`, expecting `PONG`.
    pub fn ping(&mut self) -> Result<()> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(Error::ProtocolViolation(format!("expected PONG, got {other:?}"))),
        }
    }

    /// Arms the connection's chaos plan with `CHAOS <seed>`.
    pub fn arm_chaos(&mut self, seed: u64) -> Result<()> {
        self.send(&Request::Chaos { seed })?;
        match self.recv()? {
            Response::Ok { .. } => Ok(()),
            other => Err(Error::ProtocolViolation(format!("CHAOS refused: {other:?}"))),
        }
    }

    /// Asks the server to begin a graceful drain.
    pub fn drain(&mut self) -> Result<()> {
        self.send(&Request::Drain)?;
        match self.recv()? {
            Response::Ok { .. } => Ok(()),
            other => Err(Error::ProtocolViolation(format!("DRAIN refused: {other:?}"))),
        }
    }

    /// Runs one query to its terminal response, counting streamed rows.
    /// Transport failures (disconnects, timeouts) surface as
    /// [`Error::Internal`]; the server's typed failures arrive inside
    /// [`QueryOutcome::terminal`].
    pub fn query(
        &mut self,
        sql: &str,
        want_rows: bool,
        deadline_ms: Option<u64>,
    ) -> Result<QueryOutcome> {
        self.send(&Request::Query { sql: sql.to_string(), want_rows, deadline_ms })?;
        let mut rows_streamed = 0u64;
        loop {
            match self.recv()? {
                Response::Row(_) => rows_streamed += 1,
                terminal @ (Response::Ok { .. } | Response::Err(_)) => {
                    return Ok(QueryOutcome { rows_streamed, terminal })
                }
                other => {
                    return Err(Error::ProtocolViolation(format!(
                        "unexpected mid-query response {other:?}"
                    )))
                }
            }
        }
    }
}
