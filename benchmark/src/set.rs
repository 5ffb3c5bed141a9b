//! Full sets: every workload in a process of its own (peak memory is per
//! process), untraced for the end-to-end metrics and traced for the per-layer
//! ones, checked against `BENCHMARK.json` and written as one JSON document.
//! `--repeat N` runs N sets and reports, per workload and metric, whether
//! they agree within the metric's bound.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::workloads::{describe, Res};
use std::path::Path;
use std::process::{Command, Stdio};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code: stamped on every output.
pub fn stamp() -> Json {
    // Ask git only in a checkout that is one: elsewhere it would search the
    // directories above, which are not the benchmark's to read.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Json::str(commit)),
    ])
}

/// Runs one workload in a child process and returns its result object.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Res<Json> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = Json::parse(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("{name}: no result line ({e}); exit {}", output.status))?;
    if !output.status.success() {
        return Err(format!("{name}: exit {}", output.status).into());
    }
    Ok(result)
}

/// Problems with a child's result: a metric `BENCHMARK.json` names that is
/// missing or has another unit, or a failed operation.
fn problems(name: &str, result: &Json, declared: &[MetricSpec]) -> Vec<String> {
    let mut found = Vec::new();
    let metrics = result.get("metrics");
    for m in declared {
        match metrics.and_then(|ms| ms.get(&m.name)) {
            None => found.push(format!("{name}: metric {} is missing", m.name)),
            Some(v) => {
                if v.get("unit").and_then(Json::as_str) != Some(&m.unit) {
                    found.push(format!("{name}: metric {} is not in {}", m.name, m.unit));
                }
                if v.get("value").and_then(Json::as_f64).is_none() {
                    found.push(format!("{name}: metric {} has no value", m.name));
                }
            }
        }
    }
    let failed = result
        .get("failed")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    if failed != 0.0 || result.get("correct").and_then(Json::as_bool) != Some(true) {
        found.push(format!("{name}: ops_failed = {failed}"));
    }
    found
}

fn value_of(set: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    set.get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// One row per workload × metric: the sets' values and whether the worst is
/// within the bound of the best. Exact counts must be identical instead.
fn agreement(spec: &Spec, sets: &[Json]) -> Vec<Json> {
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        let sections = [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ];
        for (section, metrics) in sections {
            for m in metrics {
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|s| value_of(s, workload, section, &m.name))
                    .collect();
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let (spread, verdict) = match m.bound {
                    Some(bound) => {
                        // How much worse the worst set is than the best.
                        let worse = if m.higher_is_better {
                            1.0 - lo / hi
                        } else {
                            hi / lo - 1.0
                        };
                        (
                            worse,
                            if worse <= bound {
                                "agree"
                            } else {
                                "unresolved"
                            },
                        )
                    }
                    None if matches!(m.unit.as_str(), "count" | "bytes") => {
                        (hi - lo, if hi == lo { "identical" } else { "differs" })
                    }
                    None => continue,
                };
                println!(
                    "{workload:<16} {:<30} {verdict:<10} spread={spread:.4} values={values:?}",
                    m.name
                );
                rows.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("metric", Json::str(&m.name)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                    ("spread", Json::Num(spread)),
                    ("bound", m.bound.map_or(Json::Null, Json::Num)),
                    ("verdict", Json::str(verdict)),
                ]));
            }
        }
    }
    rows
}

pub fn run_sets(spec: &Spec, seed: u64, seconds: f64, repeat: usize, out: &Path) -> Res<bool> {
    let mut sets = Vec::new();
    let mut found = Vec::new();
    for set in 1..=repeat {
        let mut workloads = Vec::new();
        for (name, _) in &spec.workloads {
            println!("== set {set}/{repeat}: {name}");
            let plain = child(name, seed, seconds, false)?;
            let traced = child(name, seed, seconds, true)?;
            found.extend(problems(name, &plain, &spec.end_to_end));
            found.extend(problems(name, &traced, &spec.per_layer));
            let count = |key: &str| {
                let sum = [&plain, &traced]
                    .iter()
                    .filter_map(|r| r.get(key)?.as_f64())
                    .sum();
                Json::Num(sum)
            };
            workloads.push((
                name.clone(),
                Json::obj([
                    ("ops_attempted", count("attempted")),
                    ("ops_failed", count("failed")),
                    (
                        "end_to_end",
                        plain.get("metrics").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "per_layer",
                        traced.get("metrics").cloned().unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
        sets.push(Json::Obj(workloads));
    }

    let mut doc = vec![
        ("stamp".to_string(), stamp()),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        (
            "config".to_string(),
            Json::obj(
                spec.workloads
                    .iter()
                    .map(|(n, _)| (n.clone(), Json::str(describe(n)))),
            ),
        ),
    ];
    if repeat > 1 {
        println!("== agreement of {repeat} sets");
        let rows = agreement(spec, &sets);
        let unresolved = rows
            .iter()
            .filter(|r| {
                matches!(
                    r.get("verdict").and_then(Json::as_str),
                    Some("unresolved" | "differs")
                )
            })
            .count();
        println!("{} rows, {unresolved} unresolved or differing", rows.len());
        doc.push(("agreement".to_string(), Json::Arr(rows)));
    }
    doc.push(("sets".to_string(), Json::Arr(sets)));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, Json::Obj(doc).render_pretty())?;
    println!("wrote {}", out.display());

    for p in &found {
        println!("FAIL {p}");
    }
    Ok(found.is_empty())
}
