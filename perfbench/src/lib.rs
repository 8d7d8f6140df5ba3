//! The repository's end-to-end benchmark.
//!
//! Three closed-loop workloads run from one client thread:
//!
//! * `skip-hot` — a [`ColumnSession`](ads_engine::ColumnSession) and a
//!   [`TableSession`](ads_engine::TableSession) over a clustered `ts` and a
//!   uniform `v` column, shifting-hotspot narrow ranges: skipping does the
//!   work ([`inline`]);
//! * `scan-uniform` — the same sessions and query shapes over uniform
//!   columns with wide ranges: skipping cannot pay ([`inline`]);
//! * `serve-churn` — a [`QueryService`](ads_server::QueryService) with
//!   update/delete batches, flushes and compactions beside the hotspot
//!   queries ([`serve`]).
//!
//! Every answer is checked after the timed loop against a computation made
//! apart from the program ([`oracle`]). With tracing on, the benchmark
//! records spans around its calls into each layer ([`trace`]) and reports
//! per-layer metrics instead of the end-to-end ones.

pub mod gen;
pub mod inline;
pub mod oracle;
pub mod serve;
pub mod trace;

use ads_engine::QueryAnswer;
use std::time::Duration;

pub use gen::Workload;

/// How long the timed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this much time has passed.
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(u64),
}

impl Budget {
    /// True when another round should start after `done` rounds taking
    /// `elapsed`.
    pub fn more(&self, done: u64, elapsed: Duration) -> bool {
        match *self {
            Budget::Seconds(s) => elapsed.as_secs_f64() < s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Rows per column.
    pub rows: usize,
    /// Length of the timed loop.
    pub budget: Budget,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its spans (none: keep them in memory).
    pub trace_out: Option<std::path::PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Deterministic facts of a run: they repeat exactly for the same seed
/// and number of rounds on the inline workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Operations executed.
    pub ops: u64,
    /// Hash of every answer, in operation order.
    pub answers: u64,
    /// Rows the scans touched, over all queries.
    pub rows_scanned: u64,
    /// Zone entries probed, over all queries.
    pub zones_probed: u64,
    /// Zones skipped, over all queries.
    pub zones_skipped: u64,
    /// Adaptation events of the single-column index.
    pub adapt_events: u64,
    /// Skipping metadata resident at the end.
    pub metadata_bytes: u64,
}

impl Digest {
    /// Folds `x` into the answer hash (FNV-1a over 64-bit words).
    pub fn mix(&mut self, x: u64) {
        if self.answers == 0 {
            self.answers = 0xCBF2_9CE4_8422_2325;
        }
        self.answers = (self.answers ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds a query answer into the hash.
    pub fn mix_answer(&mut self, a: &QueryAnswer<i64>) {
        self.mix(a.count);
        self.mix(a.sum.map_or(1, f64::to_bits));
        self.mix(a.min.map_or(2, |x| x as u64));
        self.mix(a.max.map_or(3, |x| x as u64));
        if let Some(p) = &a.positions {
            self.mix(p.len() as u64);
            p.iter().for_each(|&r| self.mix(u64::from(r)));
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every checked output was right and every sanity property held.
    pub correct: bool,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Wrong answers, shed requests, missed deadlines and lost mutations.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Deterministic facts, for the benchmark's own tests.
    pub digest: Digest,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile `p` (0..=1) of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// One note line with the median µs of each operation shape, from
/// `(label, ns)` samples.
pub fn shape_medians(samples: &[(&'static str, u64)]) -> String {
    let mut by: std::collections::BTreeMap<&str, Vec<u64>> = std::collections::BTreeMap::new();
    for &(label, ns) in samples {
        by.entry(label).or_default().push(ns);
    }
    let parts: Vec<String> = by
        .iter_mut()
        .map(|(label, ns)| {
            format!(
                "{label} {:.1}us x{}",
                percentile(ns, 0.5) as f64 / 1e3,
                ns.len()
            )
        })
        .collect();
    format!("median by shape: {}", parts.join(", "))
}

/// One note line with the sample count and a ladder of percentiles (µs).
pub fn ladder(what: &str, samples: &mut [u64]) -> String {
    let parts: Vec<String> = [
        0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999,
    ]
    .iter()
    .map(|&p| format!("p{} {:.1}", p * 100.0, percentile(samples, p) as f64 / 1e3))
    .collect();
    format!("{what}: n={} {}", samples.len(), parts.join(" "))
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Ratio `a / b`, 0 when `b` is 0 (the layer did no such work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload {
        Workload::SkipHot | Workload::ScanUniform => inline::run(cfg),
        Workload::ServeChurn => serve::run(cfg),
    }
}
