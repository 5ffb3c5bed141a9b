//! A deliberately tiny HTTP/1.0 endpoint serving the Prometheus dump.
//!
//! Observability must not depend on the health of the query path, so the
//! metrics endpoint is its own listener with its own thread and no shared
//! locks beyond the telemetry registry's wait-free cells. Only
//! `GET /metrics` is meaningful; every request gets the text-format dump
//! (scrapers do not send anything else here, and answering unconditionally
//! keeps the parser trivial and un-crashable).

use roulette_core::{Error, Result};
use roulette_telemetry::Telemetry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Spawns the metrics listener on `addr`; it serves until `stop` becomes
/// true. Returns the resolved address and the serving thread's handle.
pub fn spawn_metrics_http(
    addr: &str,
    telemetry: Arc<Telemetry>,
    stop: Arc<AtomicBool>,
) -> Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| Error::Internal(format!("bind metrics {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| Error::Internal(format!("metrics local_addr: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Error::Internal(format!("metrics nonblocking: {e}")))?;
    let handle = std::thread::Builder::new()
        .name("roulette-metrics-http".into())
        .spawn(move || loop {
            // ordering: Acquire pairs with the Release store in main's
            // shutdown path, ordering the stop flag before `join`.
            if stop.load(Ordering::Acquire) {
                return;
            }
            roulette_core::sync::assert_no_locks_held();
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = answer(stream, &telemetry);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
        .map_err(|e| Error::Internal(format!("spawn metrics thread: {e}")))?;
    Ok((local, handle))
}

fn answer(mut stream: TcpStream, telemetry: &Arc<Telemetry>) -> std::io::Result<()> {
    roulette_core::sync::assert_no_locks_held();
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    // Drain (a prefix of) the request; the reply never depends on it.
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let mut body = Vec::new();
    let _ = telemetry.registry().render_prometheus(&mut body);
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    #[test]
    fn serves_prometheus_dump_and_stops() {
        let telemetry = Telemetry::with_defaults();
        telemetry
            .registry()
            .counter("roulette_http_test_total", "test counter")
            .add(3);
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            spawn_metrics_http("127.0.0.1:0", telemetry, Arc::clone(&stop)).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.0 200"), "{status}");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        assert!(rest.contains("roulette_http_test_total 3"), "{rest}");
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}
