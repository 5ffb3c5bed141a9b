//! The RouLette benchmark: one command measures every end-to-end and
//! per-layer metric `BENCHMARK.json` names and checks the results.
//!
//! ```text
//! roulette-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! roulette-benchmark [--seed N] [--seconds S | --quick] [--repeat N] [--out FILE]   full sets
//! ```
//!
//! A run prints each metric by name with its unit and sample count, then one
//! JSON object on the last line. Without `--workload`, every workload runs in
//! a process of its own, untraced and traced, and the set is checked against
//! `BENCHMARK.json`.

mod batch;
mod json;
mod serve;
mod set;
mod spec;
mod stats;
mod stream;
mod trace;
mod workloads;

use json::Json;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Args, Res};

/// Seconds per run under `--quick`.
const QUICK_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_cli() -> Res<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse()?,
            "--seconds" => cli.seconds = Some(value()?.parse()?),
            "--trace" => cli.trace = value()?.parse::<u8>()? != 0,
            "--repeat" => cli.repeat = value()?.parse::<usize>()?.max(1),
            "--out" => cli.out = Some(value()?.into()),
            "--quick" => cli.seconds = Some(QUICK_SECONDS),
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if cli.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// Where run output that is not committed goes: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload in this process. Prints the metrics, then the result object.
fn run_one(spec: &Spec, name: &str, args: &Args) -> Res<bool> {
    let why = spec
        .workloads
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, why)| why.as_str())
        .ok_or_else(|| format!("workload {name:?} is not in BENCHMARK.json"))?;
    println!("# {name}: {why}");
    println!(
        "# seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# {}", workloads::describe(name));
    println!("# {}", set::stamp().render());

    let report = workloads::run(name, args)?;
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = report
        .names()
        .find(|n| !declared.iter().any(|m| m.name == *n))
    {
        return Err(
            format!("{name} measured {stray}, which BENCHMARK.json does not declare").into(),
        );
    }
    let mut metrics = Vec::new();
    for m in declared {
        let (value, samples) = match report.get(&m.name) {
            Some(v) => v,
            // A layer this workload never calls did no work.
            None if args.trace => (0.0, 0),
            None => return Err(format!("{name} did not measure {}", m.name).into()),
        };
        println!("{:<30} {value:>16.4} {:<6} n={samples}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
        ));
    }
    for line in &report.notes {
        println!("  {line}");
    }
    if let Some(tracer) = &report.tracer {
        let path = out_dir().join(format!("trace-{name}-seed{}.jsonl", args.seed));
        tracer.write_jsonl(&path)?;
        println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let correct = report.failed == 0;
    println!(
        "ops_attempted={} ops_failed={}",
        report.attempted, report.failed
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn real_main() -> Res<bool> {
    let cli = parse_cli()?;
    let spec = Spec::load()?;
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    match &cli.workload {
        Some(name) => run_one(
            &spec,
            name,
            &Args {
                seed: cli.seed,
                seconds,
                trace: cli.trace,
            },
        ),
        None => {
            let out = cli.out.unwrap_or_else(|| out_dir().join("latest.json"));
            set::run_sets(&spec, cli.seed, seconds, cli.repeat, &out)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("roulette-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
