//! Order statistics, per-input latency rows, peak-memory sampling and the
//! reference task that rescales times to a fixed machine speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolation quantile of `values` (sorted internally).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean of a non-positive value"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples a p90 needs: a percentile is reported only with at least ten
/// samples beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// The highest of p90 and p50 that `n` samples support.
pub fn supported_tail(n: usize) -> f64 {
    if n >= P90_MIN_SAMPLES {
        0.9
    } else {
        0.5
    }
}

/// Latency samples (ms) per input, in input-name order.
#[derive(Default)]
pub struct Latencies {
    by_input: BTreeMap<String, Vec<f64>>,
}

/// One input's row in the report.
pub struct Row {
    pub input: String,
    pub samples: usize,
    pub median_ms: f64,
    /// The p90 when the sample count supports it.
    pub p90_ms: Option<f64>,
}

impl Latencies {
    pub fn add(&mut self, input: &str, ms: f64) {
        self.by_input.entry(input.to_string()).or_default().push(ms);
    }

    pub fn rows(&self) -> Vec<Row> {
        self.by_input
            .iter()
            .map(|(input, samples)| Row {
                input: input.clone(),
                samples: samples.len(),
                median_ms: median(samples),
                p90_ms: (supported_tail(samples.len()) == 0.9).then(|| quantile(samples, 0.9)),
            })
            .collect()
    }

    /// Geomean over inputs of each input's median.
    pub fn geomean_median(&self) -> f64 {
        geomean(&self.rows().iter().map(|r| r.median_ms).collect::<Vec<_>>())
    }

    /// Geomean over inputs of each input's p90.
    pub fn geomean_p90(&self) -> f64 {
        let p90s: Vec<f64> = self.by_input.values().map(|s| quantile(s, 0.9)).collect();
        geomean(&p90s)
    }

    pub fn min_samples(&self) -> usize {
        self.by_input.values().map(Vec::len).min().unwrap_or(0)
    }
}

/// The reference task's time, in ms, on the 2-vCPU machine the benchmark
/// was tuned on while it ran at its fast speed. Reported times are scaled
/// to this speed; see [`Meter`].
pub const REFERENCE_MS: f64 = 8.0;

/// How strongly the verifier's work follows the reference task: a piece's
/// scale is `(REFERENCE_MS / reference)^SCALE_EXPONENT`. The verifier
/// slows by less than the reference task when the host slows (fitted over
/// 60 runs of three workloads: with the plain ratio their times grew as
/// the 0.29th to 0.44th power of the scale, 0.33 on average), so a plain
/// ratio let a set of runs on a slow host read up to a quarter lower than
/// a set on a fast one.
pub const SCALE_EXPONENT: f64 = 0.67;

/// A fixed task built from the standard library alone: it allocates small
/// vectors and hashes them into a set, as the explorer and the checker do
/// with states. Its speed follows the host's memory-bound speed, which
/// swings by a third within seconds on a shared machine.
fn reference_task() -> usize {
    let mut set: HashSet<Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    for _ in 0..40_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let state: Vec<u32> = (0..8).map(|k| (x >> (k * 4)) as u32 & 0xfff).collect();
        set.insert(state);
    }
    set.len()
}

/// An interval timed by a [`Meter`].
pub struct Work(usize);

/// Times work in reference milliseconds. The reference task runs between
/// pieces of work; a piece's wall time is multiplied by [`REFERENCE_MS`]
/// over the mean time of the reference runs around it, raised to
/// [`SCALE_EXPONENT`]. The runs around it are the last one
/// before it, the first one after it, and every one within the piece's
/// own duration before its start or after its end, so that a long piece
/// is compared with the host's speed over a span as long as itself.
/// Work that gets slower only because the host did is then reported at
/// the same time, while a change to the verifier's code moves it, since
/// the reference task never calls that code.
pub struct Meter {
    epoch: Instant,
    /// Start and end of each reference run, in seconds since `epoch`.
    references: Vec<(f64, f64)>,
    /// Start and end of each timed piece of work.
    work: Vec<(f64, f64)>,
}

impl Meter {
    pub fn new() -> Meter {
        let mut meter = Meter {
            epoch: Instant::now(),
            references: Vec::new(),
            work: Vec::new(),
        };
        meter.reference();
        meter
    }

    fn since(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64()
    }

    /// Runs the reference task once.
    pub fn reference(&mut self) {
        let start = Instant::now();
        black_box(reference_task());
        let run = (self.since(start), self.since(Instant::now()));
        self.references.push(run);
    }

    /// Records work timed elsewhere, from `start` to `end`.
    pub fn record(&mut self, start: Instant, end: Instant) -> Work {
        self.work.push((self.since(start), self.since(end)));
        Work(self.work.len() - 1)
    }

    /// Runs and times `work` without a reference run after it, for work
    /// much shorter than the reference task.
    pub fn time_only<T>(&mut self, work: impl FnOnce() -> T) -> (T, Work) {
        let start = Instant::now();
        let value = work();
        (value, self.record(start, Instant::now()))
    }

    /// Runs and times `work`, then runs the reference task.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Work) {
        let timed = self.time_only(work);
        self.reference();
        timed
    }

    /// `REFERENCE_MS` over the mean reference time around `work`, raised
    /// to `SCALE_EXPONENT`.
    pub fn scale(&self, work: &Work) -> f64 {
        let (start, end) = self.work[work.0];
        let span = end - start;
        let before = self.references.iter().rposition(|r| r.1 <= start);
        let after = self.references.iter().position(|r| r.0 >= end);
        let times: Vec<f64> = self
            .references
            .iter()
            .enumerate()
            .filter(|&(i, r)| {
                Some(i) == before
                    || Some(i) == after
                    || (r.0 >= start - span && r.1 <= start)
                    || (r.0 >= end && r.1 <= end + span)
            })
            .map(|(_, r)| (r.1 - r.0) * 1e3)
            .collect();
        (REFERENCE_MS * times.len() as f64 / times.iter().sum::<f64>()).powf(SCALE_EXPONENT)
    }

    /// The time of `work` in reference ms. Ask once the reference runs
    /// after it have been made.
    pub fn ms(&self, work: &Work) -> f64 {
        let (start, end) = self.work[work.0];
        (end - start) * 1e3 * self.scale(work)
    }

    /// Quartiles of the scales applied, for the report: below 1 the host
    /// ran slower than the reference speed.
    pub fn scale_quartiles(&self) -> [f64; 3] {
        let scales: Vec<f64> = (0..self.work.len()).map(|i| self.scale(&Work(i))).collect();
        [0.25, 0.5, 0.75].map(|q| quantile(&scales, q))
    }
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mib`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn work_is_scaled_by_the_reference_runs_around_it() {
        let meter = Meter {
            epoch: Instant::now(),
            // Reference runs of 8, 16, 8 and 4 ms.
            references: vec![(0.0, 0.008), (1.0, 1.016), (2.0, 2.008), (9.0, 9.004)],
            work: vec![(0.5, 0.6), (2.1, 4.1)],
        };
        let scaled = |ratio: f64| ratio.powf(SCALE_EXPONENT);
        // Short work: only the nearest run on either side (8 and 16 ms).
        assert!((meter.ms(&Work(0)) - 100.0 * scaled(8.0 / 12.0)).abs() < 1e-9);
        // Long work: every run within 2 s of it (16 and 8 ms before), and
        // the first one after it (4 ms).
        assert!((meter.ms(&Work(1)) - 2000.0 * scaled(8.0 / (28.0 / 3.0))).abs() < 1e-6);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(supported_tail(99), 0.5);
        assert_eq!(supported_tail(100), 0.9);
    }
}
