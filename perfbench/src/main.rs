//! The repository benchmark: drives the Armada verifier in-process through
//! its public API, checks every verdict against hand-written known answers
//! and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_verify --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `cold_verify`, `warm_recheck`, `serve_warm`,
//! `explore_symmetric`. `--trace 0` measures the end-to-end metrics
//! untraced; `--trace 1` runs the traced variant and reports the
//! per-layer metrics. Each run also writes a report with per-input rows
//! and deterministic counts under `.perfbench-out/`; see `NOTES.md`.

mod corpus;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{rows_json, Json};
use workloads::{Ctx, Outcome};

const WORKLOADS: &[&str] = &[
    "cold_verify",
    "warm_recheck",
    "serve_warm",
    "explore_symmetric",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds wants a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("cold_verify", false) => workloads::cold_verify(ctx),
        ("warm_recheck", false) => workloads::warm_recheck(ctx),
        ("serve_warm", false) => workloads::serve_warm(ctx),
        ("explore_symmetric", false) => workloads::explore_symmetric(ctx),
        ("cold_verify", true) => workloads::traced_pipeline(ctx, false),
        ("warm_recheck", true) => workloads::traced_pipeline(ctx, true),
        ("serve_warm", true) => workloads::traced_serve(ctx),
        ("explore_symmetric", true) => workloads::traced_explore(ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload, writes its report and prints the result line;
/// `Ok(false)` when a verdict or count is wrong.
fn bench(args: &Args) -> Result<bool, String> {
    let root = corpus::repo_root();
    let out_dir = root.join(".perfbench-out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let work = WorkDir(
        root.join(".perfbench-work")
            .join(std::process::id().to_string()),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.0.clone(),
        expected: corpus::Expected::load()?,
    };
    let digest = report::source_digest();
    let outcome = run(args, &ctx)?;
    drop(work);

    let mut problems = outcome.mismatches.clone();
    problems.extend(outcome.counts.mismatches.iter().cloned());
    let mode = if args.trace { "trace" } else { "e2e" };
    let counts_repeat = match outcome.counts.compare_with_previous(
        &out_dir,
        &format!("{}-{mode}", args.workload),
        &digest,
    ) {
        Ok(compared) => Json::Bool(compared),
        Err(e) => {
            problems.push(e);
            Json::Bool(false)
        }
    };
    let correct = problems.is_empty();
    let tag = format!("{}-seed{}-{mode}", args.workload, args.seed);
    let mut spans_file = Json::Null;
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir.join(format!("spans-{tag}.jsonl"));
        tracer.write(&path)?;
        spans_file = Json::Str(
            path.strip_prefix(&root)
                .unwrap_or(&path)
                .display()
                .to_string(),
        );
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let full = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::Int(parallelism)),
        (
            "git_revision",
            report::git_revision().map_or(Json::Null, Json::Str),
        ),
        ("source_digest", Json::Str(digest)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "problems",
            Json::Arr(problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(&outcome.metrics)),
        ("inputs", rows_json(&outcome.latencies.rows())),
        ("deterministic_counts", outcome.counts.to_json()),
        ("counts_match_earlier_run", counts_repeat),
        (
            "cache_misses",
            Json::Arr(
                outcome
                    .misses
                    .iter()
                    .take(20)
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Obj(
                outcome
                    .notes
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        ("spans", spans_file),
    ]);
    let report_path = out_dir.join(format!("report-{tag}.json"));
    std::fs::write(&report_path, full.encode() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

    eprintln!("perfbench {tag}: available_parallelism {parallelism}");
    for row in outcome.latencies.rows() {
        let p90 = row.p90_ms.map_or("-".to_string(), |v| format!("{v:.3}"));
        eprintln!(
            "  {:<24} n={:<5} median {:>10.3} ms  p90 {:>10} ms",
            row.input, row.samples, row.median_ms, p90
        );
    }
    for &(name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<26} {value:>14.4} {unit}");
    }
    for problem in &problems {
        eprintln!("  MISMATCH: {problem}");
    }
    eprintln!("  report: {}", report_path.display());

    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", line.encode());
    Ok(correct)
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let metric = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.to_string(), metric)
            })
            .collect(),
    )
}
