//! The four workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use armada::proto::{Request, Response, VerifyRequest};
use armada::serve::{client_request, ServeConfig, Server};
use armada::sm::{explore, Bounds};
use armada::verify::store::{CertKey, CertStore};
use armada::verify::tier::{MemTier, TieredStore};
use armada::verify::SimConfig;
use armada::{CacheDisposition, Pipeline, PipelineReport};
use armada_runtime::SplitMix64;

use crate::corpus::{self, Expected, Input};
use crate::report::{Counts, Json};
use crate::stats::{self, median, Latencies, Meter, Work};
use crate::trace::{replay_pipeline, Tracer};

/// Client connections of `serve_warm`, each a closed loop.
const SERVE_CLIENTS: usize = 2;
/// How long the serve clients run between two measurements of the host's
/// speed.
const SEGMENT: Duration = Duration::from_millis(500);
/// Repetitions of the cold set-up, about 0.05 s each. Every set-up runs
/// several times and `setup_s` is the median.
const COLD_SETUP_REPEATS: usize = 21;
/// Repetitions of the exploration set-up, which includes a warm-up pass.
const EXPLORE_SETUP_REPEATS: usize = 7;
/// Repetitions of the warm set-ups, each a cold pass of 4–7 s that fills
/// a fresh store.
const WARM_SETUP_REPEATS: usize = 3;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for cert stores, removed when the run ends.
    pub work: PathBuf,
    pub expected: Expected,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Verdicts that differ from the known answers.
    pub mismatches: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub latencies: Latencies,
    pub counts: Counts,
    pub notes: Vec<(&'static str, Json)>,
    /// Warm requests that missed the cert cache.
    pub misses: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one request: a wrong verdict is a mismatch, a right one that
    /// missed a warm cache only a failure.
    fn tally(&mut self, verdict: Result<(), String>, warm_miss: Option<String>) {
        self.attempted += 1;
        match (verdict, warm_miss) {
            (Err(e), _) => {
                self.failed += 1;
                self.mismatches.push(e);
            }
            (Ok(()), Some(miss)) => {
                self.failed += 1;
                self.misses.push(miss);
            }
            (Ok(()), None) => {}
        }
    }

    /// Records the pass count and the quartiles of the pass times.
    fn note_passes(&mut self, passes: &[f64]) {
        let q = |p| stats::quantile(passes, p);
        let quartiles = Json::Arr(vec![
            Json::Num(q(0.25)),
            Json::Num(q(0.5)),
            Json::Num(q(0.75)),
        ]);
        self.notes.push(("passes", Json::Int(passes.len() as u64)));
        self.notes.push(("pass_s_quartiles", quartiles));
    }

    fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The end-to-end metrics every workload reports, all times in
    /// reference seconds (see [`Meter`]). `busy_s` is the time the
    /// `requests` took. `p90` is set only where every input is guaranteed
    /// enough samples for a p90 (`serve_warm`); elsewhere the tail metric
    /// is the median, the highest percentile the sample counts support.
    /// The choice is fixed per workload so the metric never changes
    /// meaning between runs.
    fn finish_e2e(
        &mut self,
        meter: &Meter,
        setup_s: f64,
        pass_s: f64,
        requests: usize,
        busy_s: f64,
        p90: bool,
    ) -> Result<(), String> {
        // How far the host's speed was from the reference speed.
        let scales = meter.scale_quartiles().map(Json::Num);
        self.notes
            .push(("reference_ms", Json::Num(stats::REFERENCE_MS)));
        self.notes
            .push(("time_scale_quartiles", Json::Arr(scales.into())));
        self.notes.push(("busy_s", Json::Num(busy_s)));
        let (tail, q) = if p90 {
            (self.latencies.geomean_p90(), 0.9)
        } else {
            (self.latencies.geomean_median(), 0.5)
        };
        self.notes
            .push(("lat_p90_geomean_ms_quantile", Json::Num(q)));
        self.notes.push((
            "min_samples_per_input",
            Json::Int(self.latencies.min_samples() as u64),
        ));
        self.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("pass_s", pass_s, "s"),
            ("lat_geomean_ms", self.latencies.geomean_median(), "ms"),
            ("lat_p90_geomean_ms", tail, "ms"),
            ("req_per_s", requests as f64 / busy_s, "1/s"),
            ("peak_rss_mib", stats::peak_rss_mib()?, "MiB"),
            ("ok_ratio", self.ok_ratio(), "ok/attempted"),
        ];
        Ok(())
    }
}

/// A seeded permutation of `0..n`.
fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// Runs `setup` `repeats` times, timed as one piece each; returns the
/// last result and each run's timing.
fn timed_setup<T>(
    meter: &mut Meter,
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Vec<Work>>), String> {
    let mut runs = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (value, work) = meter.time(&mut setup);
        last = Some(value?);
        runs.push(vec![work]);
    }
    Ok((last.expect("at least one set-up"), runs))
}

/// Total time of `work`, in reference seconds.
fn total_s(meter: &Meter, work: &[Work]) -> f64 {
    work.iter().map(|w| meter.ms(w)).sum::<f64>() / 1e3
}

/// The median over set-up runs of each run's total time; notes every
/// run's total.
fn median_setup_s(out: &mut Outcome, meter: &Meter, runs: &[Vec<Work>]) -> f64 {
    let totals: Vec<f64> = runs.iter().map(|run| total_s(meter, run)).collect();
    let noted = totals.iter().map(|&t| Json::Num(t)).collect();
    out.notes.push(("setup_s_runs", Json::Arr(noted)));
    median(&totals)
}

/// Runs whole passes until `seconds` of wall time have elapsed (at least
/// one pass); returns what each pass returned.
fn run_passes<T>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass(passes.len())?);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Bytes of the records a module's recipes keep in `store`.
fn record_bytes(store: &CertStore, input: &Input, report: &PipelineReport) -> u64 {
    let sim = SimConfig::default();
    report
        .outcomes
        .iter()
        .map(|o| {
            let key = CertKey::compute(&input.source, &o.low, &o.high, &sim);
            std::fs::metadata(store.path_for(&key)).map_or(0, |m| m.len())
        })
        .sum()
}

/// Records a report's deterministic counts for `input`; `rechecked` when
/// its warm hits were replayed.
fn count_report(
    counts: &mut Counts,
    input: &Input,
    report: &PipelineReport,
    store: &CertStore,
    rechecked: bool,
) {
    let certs: Vec<_> = report
        .refinements
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let strategies = &report.strategy_reports;
    let name = &input.name;
    let nodes = certs.iter().map(|c| c.product_nodes as u64).sum();
    let transitions = certs.iter().map(|c| c.low_transitions as u64).sum();
    let obligations = strategies.iter().map(|r| r.obligations.len() as u64).sum();
    let failed = strategies.iter().map(|r| r.failures().len() as u64).sum();
    counts.record(name, "verify.product_nodes", nodes);
    counts.record(name, "verify.low_transitions", transitions);
    counts.record(name, "strategies.obligations", obligations);
    counts.record(name, "strategies.failed", failed);
    counts.record(
        name,
        "store.record_bytes",
        record_bytes(store, input, report),
    );
    if rechecked {
        let replayed = certs
            .iter()
            .map(|c| c.witness.obligations.len() as u64)
            .sum();
        counts.record(name, "recheck.obligations", replayed);
    }
}

/// The recipes of a warm request that did not hit the cert cache.
fn warm_misses(input: &str, report: &PipelineReport) -> Option<String> {
    let missed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| o.cache != CacheDisposition::Hit)
        .map(|o| o.recipe.as_str())
        .collect();
    (!missed.is_empty()).then(|| format!("{input}: {}", missed.join(",")))
}

/// Fills a fresh disk store at `dir` with one cold run of every module,
/// checking each verdict; returns each module's timing.
fn fill_store(
    ctx: &Ctx,
    modules: &[Input],
    dir: &Path,
    counts: &mut Counts,
    meter: &mut Meter,
) -> Result<Vec<Work>, String> {
    remove_dir(dir)?;
    let mut fills = Vec::new();
    for input in modules {
        let (report, work) = meter.time(|| cold_request(input, dir));
        let report = report?;
        fills.push(work);
        ctx.expected.check_report(&input.name, &report)?;
        count_report(counts, input, &report, &CertStore::open(dir), false);
    }
    Ok(fills)
}

/// Per-pass timings of `(input index, request)`.
type Passes = Vec<Vec<(usize, Work)>>;

/// Fills the latencies from `passes` and finishes a closed-loop
/// workload's end-to-end metrics.
fn finish_passes(
    out: &mut Outcome,
    meter: &Meter,
    names: &[&str],
    passes: &Passes,
    setup_s: f64,
) -> Result<(), String> {
    let mut pass_s = Vec::new();
    for pass in passes {
        let mut total_ms = 0.0;
        for (input, work) in pass {
            let ms = meter.ms(work);
            out.latencies.add(names[*input], ms);
            total_ms += ms;
        }
        pass_s.push(total_ms / 1e3);
    }
    let requests = passes.iter().map(Vec::len).sum();
    out.note_passes(&pass_s);
    let busy_s = pass_s.iter().sum();
    out.finish_e2e(meter, setup_s, median(&pass_s), requests, busy_s, false)
}

// ---------------------------------------------------------------- cold ---

fn cold_inputs() -> Result<Vec<Input>, String> {
    let mut inputs = corpus::modules()?;
    inputs.extend(corpus::mutants()?);
    Ok(inputs)
}

/// Generates the inputs and runs each through the front end and the
/// strategies, without the semantic check, so the timed phase starts with
/// code and allocator warm.
fn cold_setup() -> Result<Vec<Input>, String> {
    let inputs = cold_inputs()?;
    for input in &inputs {
        let mut pipeline =
            Pipeline::from_source(&input.source).map_err(|e| format!("{}: {e}", input.name))?;
        pipeline.semantic_check = false;
        black_box(pipeline.run().map_err(|e| format!("{}: {e}", input.name))?);
    }
    Ok(inputs)
}

/// One cold request: fresh empty disk store, full pipeline.
fn cold_request(input: &Input, dir: &Path) -> Result<PipelineReport, String> {
    Pipeline::from_source(&input.source)
        .map_err(|e| format!("{}: {e}", input.name))?
        .with_cert_store(CertStore::open(dir))
        .run()
        .map_err(|e| format!("{}: {e}", input.name))
}

/// Runs `request` and renders its report, as a client would.
fn rendered(
    request: impl FnOnce() -> Result<PipelineReport, String>,
) -> Result<PipelineReport, String> {
    let report = request()?;
    black_box(report.to_string());
    Ok(report)
}

pub fn cold_verify(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Meter::new();
    let (inputs, setup) = timed_setup(&mut meter, COLD_SETUP_REPEATS, cold_setup)?;
    let mut rng = SplitMix64::new(ctx.seed);
    // One store per input and pass; the work directory goes at exit.
    let root = ctx.work.join("cold");
    stats::reset_peak_rss()?;
    let passes = run_passes(ctx.seconds, |pass| {
        let mut timed = Vec::new();
        for i in shuffled(&mut rng, inputs.len()) {
            let input = &inputs[i];
            let dir = root.join(format!("p{pass}-{}", input.name));
            let (report, work) = meter.time(|| rendered(|| cold_request(input, &dir)));
            let report = report?;
            timed.push((i, work));
            let verdict = ctx.expected.check_report(&input.name, &report);
            count_report(
                &mut out.counts,
                input,
                &report,
                &CertStore::open(&dir),
                false,
            );
            out.tally(verdict, None);
        }
        Ok(timed)
    })?;
    let setup_s = median_setup_s(&mut out, &meter, &setup);
    let names: Vec<&str> = inputs.iter().map(|i| i.name.as_str()).collect();
    finish_passes(&mut out, &meter, &names, &passes, setup_s)?;
    Ok(out)
}

// ---------------------------------------------------------------- warm ---

/// One warm request: the filled store, every hit's witness rechecked.
fn warm_request(input: &Input, dir: &Path) -> Result<PipelineReport, String> {
    Pipeline::from_source(&input.source)
        .map_err(|e| format!("{}: {e}", input.name))?
        .with_cert_store(CertStore::open(dir))
        .with_recheck(true)
        .run()
        .map_err(|e| format!("{}: {e}", input.name))
}

pub fn warm_recheck(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Meter::new();
    let modules = corpus::modules()?;
    let dir = ctx.work.join("warm-store");
    let mut setup = Vec::new();
    for _ in 0..WARM_SETUP_REPEATS {
        setup.push(fill_store(ctx, &modules, &dir, &mut out.counts, &mut meter)?);
    }
    let mut rng = SplitMix64::new(ctx.seed);
    stats::reset_peak_rss()?;
    let passes = run_passes(ctx.seconds, |_| {
        let mut timed = Vec::new();
        for i in shuffled(&mut rng, modules.len()) {
            let input = &modules[i];
            let (report, work) = meter.time_only(|| rendered(|| warm_request(input, &dir)));
            let report = report?;
            timed.push((i, work));
            let verdict = ctx.expected.check_report(&input.name, &report);
            count_report(
                &mut out.counts,
                input,
                &report,
                &CertStore::open(&dir),
                true,
            );
            out.tally(verdict, warm_misses(&input.name, &report));
        }
        // The requests take 0.4–100 ms, as long as the reference task or
        // less, so it runs once per pass rather than after each request.
        meter.reference();
        Ok(timed)
    })?;
    let setup_s = median_setup_s(&mut out, &meter, &setup);
    let names: Vec<&str> = modules.iter().map(|i| i.name.as_str()).collect();
    finish_passes(&mut out, &meter, &names, &passes, setup_s)?;
    Ok(out)
}

// --------------------------------------------------------------- serve ---

/// One served request's result, for [`Outcome::tally`].
struct Served {
    input: usize,
    timing: Work,
    verdict: Result<(), String>,
    miss: Option<String>,
}

/// Sends one verify request for `input` and checks the response; returns
/// the verdict check and the cache miss, if any.
fn serve_request(ctx: &Ctx, addr: &str, input: &Input) -> (Result<(), String>, Option<String>) {
    let request = Request::Verify(VerifyRequest {
        source: Some(input.source.clone()),
        name: Some(input.name.clone()),
        jobs: Some(1),
        ..VerifyRequest::default()
    });
    match client_request(addr, &request, Duration::from_secs(60)) {
        Ok(Response::Result {
            verified, render, ..
        }) => match ctx.expected.check_render(&input.name, verified, &render) {
            Ok(miss) => (Ok(()), miss),
            Err(e) => (Err(e), None),
        },
        Ok(other) => (Err(format!("{}: response {other:?}", input.name)), None),
        Err(e) => (Err(format!("{}: {e}", input.name)), None),
    }
}

/// What the serve clients did: every request, and the timing of each
/// segment in which they were busy.
struct ClientRun {
    served: Vec<Served>,
    segments: Vec<Work>,
}

/// Closed-loop clients over seeded uniform streams of `modules`, in
/// segments of [`SEGMENT`]: between segments the clients pause while the
/// reference task measures the host's speed. They run for `seconds` and
/// then on, up to three times as long, until every module has
/// [`stats::P90_MIN_SAMPLES`] samples.
fn serve_clients(
    ctx: &Ctx,
    addr: &str,
    modules: &[Input],
    seconds: f64,
    meter: &mut Meter,
) -> ClientRun {
    let per_input: Vec<AtomicU64> = modules.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let base = Instant::now();
    // End of the current segment, in ns since `base`.
    let segment_end = AtomicU64::new(0);
    let barrier = Barrier::new(SERVE_CLIENTS + 1);
    let (mut segments, mut wall_s) = (Vec::new(), 0.0);
    let requests = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let (per_input, stop, segment_end, barrier) =
                    (&per_input, &stop, &segment_end, &barrier);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(ctx.seed ^ (0x9e37_79b9 * (client as u64 + 1)));
                    let mut requests = Vec::new();
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let end = segment_end.load(Ordering::SeqCst);
                        while (base.elapsed().as_nanos() as u64) < end {
                            let input = rng.index(modules.len());
                            let start = Instant::now();
                            let (verdict, miss) = serve_request(ctx, addr, &modules[input]);
                            per_input[input].fetch_add(1, Ordering::SeqCst);
                            requests.push((input, start, Instant::now(), verdict, miss));
                        }
                        barrier.wait();
                    }
                    requests
                })
            })
            .collect();
        loop {
            let start = Instant::now();
            let end = base.elapsed() + SEGMENT;
            segment_end.store(end.as_nanos() as u64, Ordering::SeqCst);
            barrier.wait();
            barrier.wait();
            segments.push(meter.record(start, Instant::now()));
            meter.reference();
            wall_s += start.elapsed().as_secs_f64();
            let enough = per_input
                .iter()
                .all(|n| n.load(Ordering::SeqCst) >= stats::P90_MIN_SAMPLES as u64);
            if wall_s >= seconds && (enough || wall_s >= 3.0 * seconds) {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let served = requests
        .into_iter()
        .map(|(input, start, end, verdict, miss)| Served {
            input,
            timing: meter.record(start, end),
            verdict,
            miss,
        })
        .collect();
    ClientRun { served, segments }
}

/// A running daemon over a pre-filled disk tier, with every module served
/// once so the memory tier is warm.
struct Daemon {
    handle: armada::serve::ServerHandle,
    addr: String,
    mem: std::sync::Arc<MemTier>,
    store: TieredStore,
}

/// Fills the disk tier, starts the daemon and serves each module once;
/// returns the daemon and the timing of each of those steps.
fn start_daemon(
    ctx: &Ctx,
    modules: &[Input],
    counts: &mut Counts,
    meter: &mut Meter,
) -> Result<(Daemon, Vec<Work>), String> {
    let dir = ctx.work.join("serve-store");
    let mut setup = fill_store(ctx, modules, &dir, counts, meter)?;
    let mem = MemTier::with_capacity(64);
    let store = TieredStore::disk(CertStore::open(&dir)).with_mem(mem.clone());
    let (handle, start) = meter.time(|| Server::start(ServeConfig::new(store.clone())));
    let handle = handle.map_err(|e| format!("cannot start the daemon: {e}"))?;
    setup.push(start);
    let addr = handle.addr().to_string();
    for input in modules {
        let ((verdict, _), work) = meter.time(|| serve_request(ctx, &addr, input));
        setup.push(work);
        if let Err(e) = verdict {
            handle.shutdown()?;
            return Err(e);
        }
    }
    let daemon = Daemon {
        handle,
        addr,
        mem,
        store,
    };
    Ok((daemon, setup))
}

pub fn serve_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Meter::new();
    let modules = corpus::modules()?;
    // Each set-up fills a fresh store and starts a daemon; all but the
    // last daemon stop again.
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..WARM_SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            previous.handle.shutdown()?;
        }
        let (started, steps) = start_daemon(ctx, &modules, &mut out.counts, &mut meter)?;
        daemon = Some(started);
        setup.push(steps);
    }
    let daemon = daemon.expect("at least one set-up");
    stats::reset_peak_rss()?;
    let run = serve_clients(ctx, &daemon.addr, &modules, ctx.seconds, &mut meter);
    daemon.handle.shutdown()?;
    for s in &run.served {
        out.latencies
            .add(&modules[s.input].name, meter.ms(&s.timing));
        out.tally(s.verdict.clone(), s.miss.clone());
    }
    let requests = run.served.len();
    let busy_s = total_s(&meter, &run.segments);
    let pass_s = busy_s * modules.len() as f64 / requests as f64;
    out.notes.push(("clients", Json::Int(SERVE_CLIENTS as u64)));
    let setup_s = median_setup_s(&mut out, &meter, &setup);
    out.finish_e2e(&meter, setup_s, pass_s, requests, busy_s, true)?;
    Ok(out)
}

// ------------------------------------------------------------- explore ---

/// Lowers every subject and explores it once, so the timed phase starts
/// with code, arenas and allocator warm.
fn explore_setup(ctx: &Ctx) -> Result<Vec<(Input, armada::sm::Program)>, String> {
    let subjects = corpus::subjects()
        .into_iter()
        .map(|s| corpus::lower_subject(&s.source).map(|p| (s, p)))
        .collect::<Result<Vec<_>, _>>()?;
    for (subject, program) in &subjects {
        let run = explore(program, &Bounds::small());
        ctx.expected.check_exploration(&subject.name, &run)?;
    }
    Ok(subjects)
}

fn count_exploration(counts: &mut Counts, name: &str, run: &armada::sm::Exploration) {
    counts.record(name, "sm.states", run.visited_len() as u64);
    counts.record(name, "sm.transitions", run.transitions as u64);
    counts.record(name, "sm.micro_steps", run.micro_steps as u64);
}

pub fn explore_symmetric(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Meter::new();
    let (subjects, setup) = timed_setup(&mut meter, EXPLORE_SETUP_REPEATS, || explore_setup(ctx))?;
    let bounds = Bounds::small();
    let mut rng = SplitMix64::new(ctx.seed);
    stats::reset_peak_rss()?;
    let passes = run_passes(ctx.seconds, |_| {
        let mut timed = Vec::new();
        for i in shuffled(&mut rng, subjects.len()) {
            let (subject, program) = &subjects[i];
            let (run, work) = meter.time(|| explore(program, &bounds));
            timed.push((i, work));
            let verdict = ctx.expected.check_exploration(&subject.name, &run);
            count_exploration(&mut out.counts, &subject.name, &run);
            out.tally(verdict, None);
        }
        Ok(timed)
    })?;
    let setup_s = median_setup_s(&mut out, &meter, &setup);
    let names: Vec<&str> = subjects.iter().map(|(s, _)| s.name.as_str()).collect();
    finish_passes(&mut out, &meter, &names, &passes, setup_s)?;
    Ok(out)
}

// -------------------------------------------------------------- traced ---

/// Every per-layer metric, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.typeck_ms", "ms"),
    ("lang.source_kib", "KiB"),
    ("strategies.run_ms", "ms"),
    ("strategies.obligations", "count"),
    ("strategies.failed", "count"),
    ("sm.lower_ms", "ms"),
    ("sm.explore_ms", "ms"),
    ("sm.states", "count"),
    ("sm.transitions", "count"),
    ("sm.micro_steps", "count"),
    ("sm.states_per_s", "1/s"),
    ("sm.explore_j2_ms", "ms"),
    ("sm.parallel_speedup", "x"),
    ("verify.check_ms", "ms"),
    ("verify.product_nodes", "count"),
    ("verify.low_transitions", "count"),
    ("verify.nodes_per_s", "1/s"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.record_kib", "KiB"),
    ("tier.load_ms", "ms"),
    ("tier.mem_hits", "count"),
    ("tier.disk_hits", "count"),
    ("tier.misses", "count"),
    ("tier.corrupt_loads", "count"),
    ("recheck.validate_ms", "ms"),
    ("recheck.replay_ms", "ms"),
    ("recheck.obligations", "count"),
    ("core.pipeline_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.trace_overhead_pct", "%"),
    ("serve.client_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.verifications", "count"),
    ("serve.coalesced", "count"),
    ("serve.sheds", "count"),
    ("serve.retries", "count"),
    ("serve.deadline_timeouts", "count"),
    ("serve.protocol_errors", "count"),
];

/// Span names whose self time is a layer's time, and the metric it feeds.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("lang.parse", "lang.parse_ms"),
    ("lang.typeck", "lang.typeck_ms"),
    ("strategies.run", "strategies.run_ms"),
    ("sm.lower", "sm.lower_ms"),
    ("sm.explore", "sm.explore_ms"),
    ("sm.explore_j2", "sm.explore_j2_ms"),
    ("verify.check", "verify.check_ms"),
    ("store.save", "store.save_ms"),
    ("store.load", "store.load_ms"),
    ("tier.load", "tier.load_ms"),
    ("recheck.validate", "recheck.validate_ms"),
    ("recheck.replay", "recheck.replay_ms"),
];

/// Traced and untraced requests of a traced run, timed in reference ms
/// like the end-to-end times so that the host's speed changes between
/// the two runs of an input do not show as tracing cost.
struct LayerSamples {
    meter: Meter,
    /// Each traced request: its input, its timing and each span's self
    /// time in wall ms.
    traced: Vec<(String, Work, BTreeMap<&'static str, f64>)>,
    /// Each untraced request: its input and its timing.
    untraced: Vec<(String, Work)>,
}

impl LayerSamples {
    fn new() -> LayerSamples {
        LayerSamples {
            meter: Meter::new(),
            traced: Vec::new(),
            untraced: Vec::new(),
        }
    }

    fn untraced<T>(&mut self, input: &str, request: impl FnOnce() -> T) -> T {
        let (value, work) = self.meter.time_only(request);
        self.untraced.push((input.to_string(), work));
        value
    }

    /// Runs `request` as one traced request of `input`.
    fn traced<T>(
        &mut self,
        tracer: &mut Tracer,
        input: &str,
        request: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = tracer.next_request();
        let (value, work) = self.meter.time_only(|| request(tracer));
        self.traced
            .push((input.to_string(), work, tracer.self_ms(id)));
        value
    }

    fn traced_latencies(&self) -> Latencies {
        let mut latencies = Latencies::default();
        for (input, work, _) in &self.traced {
            latencies.add(input, self.meter.ms(work));
        }
        latencies
    }

    fn untraced_latencies(&self) -> Latencies {
        let mut latencies = Latencies::default();
        for (input, work) in &self.untraced {
            latencies.add(input, self.meter.ms(work));
        }
        latencies
    }

    /// Per pass: each layer's per-input median self time, summed over
    /// inputs; and the reconciliation against the untraced runs.
    fn fill(
        &self,
        metrics: &mut BTreeMap<&'static str, f64>,
        notes: &mut Vec<(&'static str, Json)>,
    ) {
        // `(input, span)` → self-time samples in reference ms.
        let mut spans: BTreeMap<(&str, &'static str), Vec<f64>> = BTreeMap::new();
        for (input, work, own) in &self.traced {
            let scale = self.meter.scale(work);
            for (name, _) in LAYER_SPANS {
                let ms = own.get(name).copied().unwrap_or(0.0) * scale;
                spans.entry((input, name)).or_default().push(ms);
            }
        }
        let mut by_input: BTreeMap<&str, Vec<(String, Json)>> = BTreeMap::new();
        for ((input, span), samples) in &spans {
            let own = median(samples);
            if own > 0.0 {
                by_input
                    .entry(input)
                    .or_default()
                    .push((span.to_string(), Json::Num(own)));
            }
        }
        let by_input = by_input
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Obj(v)));
        notes.push(("layer_self_ms_by_input", Json::Obj(by_input.collect())));
        let mut layers_ms = 0.0;
        for (span, metric) in LAYER_SPANS {
            let total: f64 = spans
                .iter()
                .filter(|((_, name), _)| name == span)
                .map(|(_, samples)| median(samples))
                .sum();
            layers_ms += total;
            metrics.insert(metric, total);
        }
        let sum_medians = |l: &Latencies| l.rows().iter().map(|r| r.median_ms).sum::<f64>();
        let traced_ms = sum_medians(&self.traced_latencies());
        if !self.untraced.is_empty() {
            let pipeline_ms = sum_medians(&self.untraced_latencies());
            metrics.insert("core.pipeline_ms", pipeline_ms);
            metrics.insert("core.unattributed_ms", pipeline_ms - layers_ms);
            metrics.insert(
                "core.trace_overhead_pct",
                (traced_ms / pipeline_ms - 1.0) * 100.0,
            );
            notes.push((
                "reconciliation",
                Json::obj(vec![
                    ("untraced_pipeline_ms", Json::Num(pipeline_ms)),
                    ("layer_self_ms", Json::Num(layers_ms)),
                    ("unattributed_ms", Json::Num(pipeline_ms - layers_ms)),
                    ("traced_wall_ms", Json::Num(traced_ms)),
                ]),
            ));
        }
    }
}

/// Replays `input` through the traced calls and checks the verdict.
fn traced_request(
    ctx: &Ctx,
    out: &mut Outcome,
    samples: &mut LayerSamples,
    input: &Input,
    store: &TieredStore,
    load_span: &'static str,
    warm: bool,
) -> Result<(), String> {
    let tracer = out.tracer.as_mut().expect("traced run");
    let replay = samples
        .traced(tracer, &input.name, |tracer| {
            replay_pipeline(tracer, &input.source, store, load_span, warm)
        })
        .map_err(|e| format!("{}: {e}", input.name))?;
    let want = ctx.expected.verdict(&input.name)?;
    let verdict = if replay.verified == want.verified && replay.recipes == want.recipes {
        Ok(())
    } else {
        Err(format!("{} (traced): {:?}", input.name, replay.recipes))
    };
    let miss = (warm && replay.misses > 0)
        .then(|| format!("{} (traced): {} misses", input.name, replay.misses));
    let c = &mut out.counts;
    c.record(&input.name, "verify.product_nodes", replay.product_nodes);
    c.record(
        &input.name,
        "verify.low_transitions",
        replay.low_transitions,
    );
    c.record(&input.name, "strategies.obligations", replay.obligations);
    if store.disk_store().is_some() {
        c.record(&input.name, "store.record_bytes", replay.record_bytes);
    }
    c.record(&input.name, "strategies.failed", replay.failed_obligations);
    if warm {
        c.record(
            &input.name,
            "recheck.obligations",
            replay.rechecked_obligations,
        );
    }
    out.tally(verdict, miss);
    Ok(())
}

fn new_metrics() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect()
}

fn source_kib(inputs: &[Input]) -> f64 {
    inputs.iter().map(|i| i.source.len()).sum::<usize>() as f64 / 1024.0
}

/// Fills the per-layer metrics derived from the counts.
fn count_metrics(metrics: &mut BTreeMap<&'static str, f64>, counts: &Counts) {
    for name in [
        "verify.product_nodes",
        "verify.low_transitions",
        "strategies.obligations",
        "strategies.failed",
        "recheck.obligations",
        "sm.states",
        "sm.transitions",
        "sm.micro_steps",
    ] {
        metrics.insert(name, counts.total(name) as f64);
    }
    metrics.insert(
        "store.record_kib",
        counts.total("store.record_bytes") as f64 / 1024.0,
    );
    let check_s = metrics["verify.check_ms"] / 1e3;
    if check_s > 0.0 {
        metrics.insert(
            "verify.nodes_per_s",
            metrics["verify.product_nodes"] / check_s,
        );
    }
    let explore_ms = metrics["sm.explore_ms"];
    if explore_ms > 0.0 {
        metrics.insert("sm.states_per_s", metrics["sm.states"] / (explore_ms / 1e3));
        metrics.insert(
            "sm.parallel_speedup",
            explore_ms / metrics["sm.explore_j2_ms"],
        );
    }
}

fn finish_traced(out: &mut Outcome, mut metrics: BTreeMap<&'static str, f64>) {
    count_metrics(&mut metrics, &out.counts);
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, metrics[name], unit))
        .collect();
}

/// `cold_verify` or `warm_recheck`, traced: per input, one untraced
/// `Pipeline::run` and one traced replay per pass.
pub fn traced_pipeline(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        tracer: Some(Tracer::new()),
        ..Outcome::default()
    };
    let inputs = if warm {
        corpus::modules()?
    } else {
        cold_inputs()?
    };
    let store_dir = ctx.work.join("warm-store");
    if warm {
        fill_store(ctx, &inputs, &store_dir, &mut out.counts, &mut Meter::new())?;
    }
    let mut samples = LayerSamples::new();
    let mut rng = SplitMix64::new(ctx.seed);
    let root = ctx.work.join("traced");
    run_passes(ctx.seconds, |pass| {
        for i in shuffled(&mut rng, inputs.len()) {
            let input = &inputs[i];
            let (untraced_dir, traced_dir) = if warm {
                (store_dir.clone(), store_dir.clone())
            } else {
                (
                    root.join(format!("u{pass}-{}", input.name)),
                    root.join(format!("t{pass}-{}", input.name)),
                )
            };
            let untraced = |samples: &mut LayerSamples| -> Result<(), String> {
                let report = samples.untraced(&input.name, || {
                    if warm {
                        warm_request(input, &untraced_dir)
                    } else {
                        cold_request(input, &untraced_dir)
                    }
                })?;
                ctx.expected.check_report(&input.name, &report)
            };
            let store = TieredStore::disk(CertStore::open(&traced_dir));
            // Alternate which runs first, so neither always finds caches warm.
            if pass % 2 == 0 {
                untraced(&mut samples)?;
                traced_request(
                    ctx,
                    &mut out,
                    &mut samples,
                    input,
                    &store,
                    "store.load",
                    warm,
                )?;
            } else {
                traced_request(
                    ctx,
                    &mut out,
                    &mut samples,
                    input,
                    &store,
                    "store.load",
                    warm,
                )?;
                untraced(&mut samples)?;
            }
            // As in the untraced workloads: after each cold request, once
            // per pass of the short warm ones.
            if !warm {
                samples.meter.reference();
            }
        }
        if warm {
            samples.meter.reference();
        }
        Ok(())
    })?;
    let mut metrics = new_metrics();
    samples.fill(&mut metrics, &mut out.notes);
    metrics.insert("lang.source_kib", source_kib(&inputs));
    out.latencies = samples.traced_latencies();
    finish_traced(&mut out, metrics);
    Ok(out)
}

/// `serve_warm`, traced: client latencies and daemon counters over half
/// the time, then in-process runs and traced replays of each module
/// against the warm memory tier alone.
pub fn traced_serve(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        tracer: Some(Tracer::new()),
        ..Outcome::default()
    };
    let modules = corpus::modules()?;
    let mut meter = Meter::new();
    let (daemon, _) = start_daemon(ctx, &modules, &mut out.counts, &mut meter)?;
    let run = serve_clients(ctx, &daemon.addr, &modules, ctx.seconds / 2.0, &mut meter);
    let mut client = Latencies::default();
    for s in &run.served {
        client.add(&modules[s.input].name, meter.ms(&s.timing));
        out.tally(s.verdict.clone(), s.miss.clone());
    }
    let mut metrics = new_metrics();
    let serve_counters = daemon.handle.counters();
    for (metric, counter) in [
        ("serve.requests", "serve.requests"),
        ("serve.verifications", "serve.verifications"),
        ("serve.coalesced", "serve.coalesced"),
        ("serve.sheds", "serve.sheds"),
        ("serve.retries", "serve.retries"),
        ("serve.deadline_timeouts", "serve.deadline_timeouts"),
        ("serve.protocol_errors", "serve.protocol_errors"),
        ("tier.mem_hits", "cache.mem_hits"),
        ("tier.disk_hits", "cache.disk_hits"),
        ("tier.misses", "cache.misses"),
    ] {
        metrics.insert(metric, serve_counters.get(counter) as f64);
    }
    metrics.insert("tier.corrupt_loads", daemon.store.corrupt_loads() as f64);
    daemon.handle.shutdown()?;

    let mem_only = TieredStore::mem_only(daemon.mem.clone());
    let mut samples = LayerSamples::new();
    let mut rng = SplitMix64::new(ctx.seed);
    run_passes(ctx.seconds / 2.0, |_| {
        for i in shuffled(&mut rng, modules.len()) {
            let input = &modules[i];
            let report = samples.untraced(&input.name, || {
                Pipeline::from_source(&input.source)
                    .map_err(|e| format!("{}: {e}", input.name))?
                    .with_tiered_store(mem_only.clone())
                    .run()
                    .map_err(|e| format!("{}: {e}", input.name))
            })?;
            let verdict = ctx.expected.check_report(&input.name, &report);
            out.tally(verdict, warm_misses(&input.name, &report));
            traced_request(
                ctx,
                &mut out,
                &mut samples,
                input,
                &mem_only,
                "tier.load",
                false,
            )?;
        }
        samples.meter.reference();
        Ok(())
    })?;
    samples.fill(&mut metrics, &mut out.notes);
    let client_rows = client.rows();
    let inproc_rows = samples.untraced_latencies().rows();
    metrics.insert(
        "serve.client_ms",
        client_rows.iter().map(|r| r.median_ms).sum(),
    );
    metrics.insert(
        "serve.overhead_ms",
        client_rows
            .iter()
            .zip(&inproc_rows)
            .map(|(c, p)| c.median_ms - p.median_ms)
            .sum(),
    );
    metrics.insert("lang.source_kib", source_kib(&modules));
    out.latencies = client;
    finish_traced(&mut out, metrics);
    Ok(out)
}

/// `explore_symmetric`, traced: front end, lowering, and exploration at
/// jobs 1 and 2 per subject.
pub fn traced_explore(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        tracer: Some(Tracer::new()),
        ..Outcome::default()
    };
    let subjects = corpus::subjects();
    let mut samples = LayerSamples::new();
    let mut rng = SplitMix64::new(ctx.seed);
    run_passes(ctx.seconds, |_| {
        for i in shuffled(&mut rng, subjects.len()) {
            let subject = &subjects[i];
            let tracer = out.tracer.as_mut().expect("traced run");
            let (serial, parallel) = samples.traced(tracer, &subject.name, |tracer| {
                let root = tracer.begin("request");
                let module = tracer
                    .time("lang.parse", || armada::lang::parse_module(&subject.source))
                    .map_err(|e| e.to_string())?;
                let typed = tracer
                    .time("lang.typeck", || armada::lang::check_module(&module))
                    .map_err(|e| e.to_string())?;
                let program = tracer
                    .time("sm.lower", || armada::sm::lower(&typed, "Implementation"))
                    .map_err(|e| e.to_string())?;
                let serial = tracer.time("sm.explore", || explore(&program, &Bounds::small()));
                let parallel = tracer.time("sm.explore_j2", || {
                    explore(&program, &Bounds::small().with_jobs(2))
                });
                tracer.end(root);
                Ok::<_, String>((serial, parallel))
            })?;
            samples.meter.reference();
            for run in [&serial, &parallel] {
                let verdict = ctx.expected.check_exploration(&subject.name, run);
                count_exploration(&mut out.counts, &subject.name, run);
                out.tally(verdict, None);
            }
        }
        Ok(())
    })?;
    let mut metrics = new_metrics();
    samples.fill(&mut metrics, &mut out.notes);
    metrics.insert("lang.source_kib", source_kib(&subjects));
    out.latencies = samples.traced_latencies();
    finish_traced(&mut out, metrics);
    Ok(out)
}
