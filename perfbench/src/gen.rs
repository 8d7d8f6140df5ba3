//! Input generation: the columns and the operation stream of every
//! workload, made from the `--seed` alone.
//!
//! The generator is the benchmark's own (a splitmix64 stream), so a change
//! to the repository's workload crate cannot silently change the inputs.
//! Every operation is produced in whole *rounds*: a fixed list of
//! operation kinds whose parameters are drawn from the seeded stream. A
//! run executes a whole number of rounds, so the mix of operations is the
//! same in every run whatever its length.

use ads_engine::AggKind;

/// Value domain of both columns: `[0, DOMAIN)`. With at most
/// [`MAX_ROWS`] rows every SUM (and every partial sum) stays below 2^53,
/// so sums are exact integers in `f64` and compare bit for bit.
pub const DOMAIN: i64 = 1 << 30;

/// Upper bound on the rows of a column, including rows an update appends
/// to the service's column; `MAX_ROWS * DOMAIN < 2^53`.
pub const MAX_ROWS: usize = 8_000_000;

/// Rows per column at full scale.
pub const FULL_ROWS: usize = 4_000_000;

/// Positional clusters of the clustered `ts` column.
pub const CLUSTERS: usize = 256;

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that independent
    /// parts of the input do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// Which workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Clustered `ts`, shifting-hotspot narrow ranges: skipping does the work.
    SkipHot,
    /// Uniform columns, wide ranges: skipping cannot pay.
    ScanUniform,
    /// The query service with update/delete batches beside the reads.
    ServeChurn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "skip-hot" => Some(Workload::SkipHot),
            "scan-uniform" => Some(Workload::ScanUniform),
            "serve-churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkipHot => "skip-hot",
            Workload::ScanUniform => "scan-uniform",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// True for the clustered-`ts` workloads.
    pub fn clustered(self) -> bool {
        self != Workload::ScanUniform
    }
}

/// The generated columns.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The filtered column: clustered or uniform.
    pub ts: Vec<i64>,
    /// The second filter (and SUM) column: always uniform.
    pub v: Vec<i64>,
    /// The value centre of each positional `ts` cluster (clustered
    /// workloads) or evenly spread centres (uniform workload); query
    /// hotspots are drawn from these.
    pub centers: Vec<i64>,
    /// Value spread of one `ts` cluster.
    pub cluster_width: i64,
}

/// Generates the columns of `workload` with `rows` rows.
pub fn inputs(workload: Workload, seed: u64, rows: usize) -> Inputs {
    assert!(rows > 0 && rows <= MAX_ROWS / 2, "rows out of range");
    let cluster_width = DOMAIN / 4096;
    let mut rng = Rng::new(seed, 1);
    let mut ts = Vec::with_capacity(rows);
    let mut centers = Vec::with_capacity(CLUSTERS);
    if workload.clustered() {
        let run = rows.div_ceil(CLUSTERS);
        while ts.len() < rows {
            let center = rng.range(cluster_width, DOMAIN - cluster_width);
            centers.push(center);
            for _ in 0..run.min(rows - ts.len()) {
                ts.push(center + rng.range(-cluster_width / 2, cluster_width / 2));
            }
        }
    } else {
        ts.extend((0..rows).map(|_| rng.range(0, DOMAIN)));
        centers
            .extend((0..CLUSTERS as i64).map(|c| (2 * c + 1) * (DOMAIN / (2 * CLUSTERS as i64))));
    }
    let mut rng = Rng::new(seed, 2);
    let v = (0..rows).map(|_| rng.range(0, DOMAIN)).collect();
    Inputs {
        ts,
        v,
        centers,
        cluster_width,
    }
}

/// One operation of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single-column query on `ts`.
    Query {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// The aggregate.
        agg: AggKind,
    },
    /// `ts ∈ [ts_lo, ts_hi] ∧ v ∈ [v_lo, v_hi]`: COUNT, or COUNT and SUM(v).
    Conj {
        /// `ts` lower bound.
        ts_lo: i64,
        /// `ts` upper bound.
        ts_hi: i64,
        /// `v` lower bound.
        v_lo: i64,
        /// `v` upper bound.
        v_hi: i64,
        /// True for `sum_conjunction`, false for `count_conjunction`.
        sum: bool,
    },
    /// Service workload: one mutation batch — updates then deletes, all on
    /// distinct rows that are live when the batch is sent.
    Mutate {
        /// `(row id, new value)` pairs.
        updates: Vec<(usize, i64)>,
        /// Row ids to tombstone.
        deletes: Vec<usize>,
    },
    /// Service workload: compact every tombstoned shard.
    Compact,
    /// Service workload: the maintenance barrier.
    Flush,
}

impl Op {
    /// True for the operations timed as queries.
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. } | Op::Conj { .. })
    }

    /// True for the operations timed as mutations.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Op::Mutate { .. })
    }

    /// A short name of the operation's shape, for per-shape summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Query { lo, hi, .. } if lo == hi => "point",
            Op::Query { agg, .. } => match agg {
                AggKind::Count => "count",
                AggKind::Sum => "sum",
                AggKind::Min => "min",
                AggKind::Max => "max",
                AggKind::Positions => "positions",
            },
            Op::Conj { sum: false, .. } => "conj-count",
            Op::Conj { sum: true, .. } => "conj-sum",
            Op::Mutate { .. } => "mutate",
            Op::Compact => "compact",
            Op::Flush => "flush",
        }
    }
}

/// Query shapes of a round; parameters are drawn per query.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Range(AggKind),
    Point,
    Conj(bool),
}

/// The 64 queries of an inline round: SUM, MIN and MAX 14 each, COUNT
/// and point probes 6 each, POSITIONS 2 and conjunctions 8. On uniform
/// data COUNT and point probes are a cheaper mode and conjunctions the
/// dearest, so the median falls inside the SUM/MIN/MAX mode and the 99th
/// percentile inside the conjunctions.
const INLINE_QUERIES: [Kind; 64] = {
    use AggKind::*;
    use Kind::*;
    [
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Min),
        Range(Max),
        Conj(false),
        Range(Sum),
        Range(Min),
        Range(Max),
        Point,
        Range(Sum),
        Range(Min),
        Range(Max),
        Conj(true),
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Min),
        Range(Max),
        Conj(false),
        Range(Sum),
        Range(Min),
        Range(Max),
        Point,
        Range(Positions),
        Range(Min),
        Range(Max),
        Conj(true),
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Min),
        Range(Max),
        Conj(false),
        Range(Sum),
        Range(Min),
        Range(Max),
        Point,
        Range(Sum),
        Range(Min),
        Range(Max),
        Conj(true),
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Count),
        Point,
        Conj(false),
        Range(Sum),
        Point,
        Range(Min),
        Range(Count),
        Range(Positions),
        Point,
        Range(Max),
        Conj(true),
    ]
};

/// The 64 queries of a service round, in groups of four; a mutation
/// batch follows each group. The first query after a batch reads freshly
/// republished shards and is the slow mode (a quarter of the queries); it
/// takes SUM (the dearest shape), COUNT, MIN, MAX and the POSITIONS query
/// in turn. The other three are MIN, MAX and COUNT or a point probe, so
/// the median falls among the fast three quarters.
const SERVE_QUERIES: [Kind; 64] = {
    use AggKind::*;
    use Kind::*;
    [
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Count),
        Range(Max),
        Range(Min),
        Point,
        Range(Max),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Max),
        Range(Min),
        Point,
        Range(Min),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Count),
        Range(Max),
        Range(Min),
        Point,
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Positions),
        Range(Max),
        Range(Min),
        Point,
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Max),
        Range(Max),
        Range(Min),
        Point,
        Range(Count),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Sum),
        Range(Max),
        Range(Min),
        Point,
        Range(Min),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Count),
        Range(Max),
        Range(Min),
        Point,
        Range(Sum),
        Range(Min),
        Range(Max),
        Range(Count),
        Range(Max),
        Range(Max),
        Range(Min),
        Point,
    ]
};

/// Service rounds send a mutation batch after every this-many queries.
pub const QUERIES_PER_BATCH: usize = 4;
/// Rounds the query hotspot stays on one cluster before it moves.
pub const HOTSPOT_ROUNDS: u64 = 4;
/// Clusters the `skip-hot` hotspot moves among: the workload's working
/// set, drawn per seed. A small working set lets the adaptive metadata
/// settle within the untimed warm-up, so the timed loop measures a steady
/// state. The `serve-churn` hotspot moves among all clusters instead: its
/// updates write near the hotspot, and a small working set would pile
/// every updated row into the ranges the queries read.
pub const HOT_SET: usize = 64;
/// Updates per service mutation batch.
pub const BATCH_UPDATES: usize = 12;
/// Deletes per service mutation batch.
pub const BATCH_DELETES: usize = 4;
/// Service rounds between two `compact()` calls.
pub const COMPACT_EVERY: u64 = 4;

/// Untimed rounds run before the timed loop, so lazily built metadata has
/// settled: one pass of the hotspot over its working set on `skip-hot`,
/// one compaction period on `serve-churn`. On `scan-uniform` the metadata
/// retires within the first few rounds of the timed loop.
pub fn warmup_rounds(w: Workload) -> u64 {
    match w {
        Workload::SkipHot => HOTSPOT_ROUNDS * HOT_SET as u64,
        Workload::ScanUniform => 0,
        Workload::ServeChurn => COMPACT_EVERY,
    }
}

/// The deterministic operation stream of one workload.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    /// Value centres of the hotspot's working set.
    hot_set: Vec<i64>,
    cluster_width: i64,
    hotspot: i64,
    round: u64,
    /// Service: rows in the column when the current compaction period
    /// began; mutation targets are drawn below it.
    period_rows: usize,
    /// Service: rows already targeted in the current compaction period.
    taken: std::collections::HashSet<usize>,
    /// Service: deletes sent in the current compaction period.
    period_deletes: usize,
}

impl OpStream {
    /// The stream of `workload` over `inputs` for `seed`.
    pub fn new(workload: Workload, seed: u64, inputs: &Inputs) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut centers = inputs.centers.clone();
        if workload == Workload::SkipHot {
            for i in 0..HOT_SET {
                let j = i + rng.below((centers.len() - i) as u64) as usize;
                centers.swap(i, j);
            }
            centers.truncate(HOT_SET);
        }
        OpStream {
            workload,
            rng,
            hotspot: centers[0],
            hot_set: centers,
            cluster_width: inputs.cluster_width,
            round: 0,
            period_rows: inputs.ts.len(),
            taken: std::collections::HashSet::new(),
            period_deletes: 0,
        }
    }

    /// The next round's operations.
    pub fn next_round(&mut self) -> Vec<Op> {
        if self.round.is_multiple_of(HOTSPOT_ROUNDS) {
            let c = self.rng.below(self.hot_set.len() as u64) as usize;
            self.hotspot = self.hot_set[c];
        }
        let serve = self.workload == Workload::ServeChurn;
        let queries = if serve {
            &SERVE_QUERIES
        } else {
            &INLINE_QUERIES
        };
        let mut ops = Vec::with_capacity(queries.len() * 5 / 4 + 2);
        for (i, kind) in queries.iter().enumerate() {
            ops.push(self.op(*kind));
            if serve && (i + 1) % QUERIES_PER_BATCH == 0 {
                ops.push(self.mutation());
            }
        }
        if self.workload == Workload::ServeChurn {
            ops.push(Op::Flush);
            if (self.round + 1).is_multiple_of(COMPACT_EVERY) {
                ops.push(Op::Compact);
                // Compaction repacks the live rows densely: every update
                // left one tombstone and one appended row, every delete one
                // tombstone, so the column shrinks by the deletes.
                self.period_rows -= self.period_deletes;
                self.period_deletes = 0;
                self.taken.clear();
            }
        }
        self.round += 1;
        ops
    }

    /// A `ts` range: narrow around the hotspot on clustered data, a few
    /// percent of the domain on uniform data.
    fn ts_range(&mut self) -> (i64, i64) {
        if self.workload.clustered() {
            let w = self.cluster_width;
            let width = self.rng.range(w / 64, w / 8);
            let lo = self.hotspot + self.rng.range(-w / 2, w / 2 - width);
            (lo, lo + width)
        } else {
            let width = self.rng.range(DOMAIN / 50, DOMAIN / 25);
            let lo = self.rng.range(0, DOMAIN - width);
            (lo, lo + width)
        }
    }

    fn op(&mut self, kind: Kind) -> Op {
        match kind {
            Kind::Range(agg) => {
                let (lo, hi) = self.ts_range();
                Op::Query { lo, hi, agg }
            }
            Kind::Point => {
                let x = if self.workload.clustered() {
                    self.hotspot
                        + self
                            .rng
                            .range(-self.cluster_width / 2, self.cluster_width / 2)
                } else {
                    self.rng.range(0, DOMAIN)
                };
                Op::Query {
                    lo: x,
                    hi: x,
                    agg: AggKind::Count,
                }
            }
            Kind::Conj(sum) => {
                let (ts_lo, ts_hi) = self.ts_range();
                let v_width = self.rng.range(DOMAIN / 4, DOMAIN / 2);
                let v_lo = self.rng.range(0, DOMAIN - v_width);
                Op::Conj {
                    ts_lo,
                    ts_hi,
                    v_lo,
                    v_hi: v_lo + v_width,
                    sum,
                }
            }
        }
    }

    /// One batch on rows not yet touched in this compaction period, all
    /// below the period's starting length: every target is live, so every
    /// mutation takes effect and row ids stay predictable.
    fn mutation(&mut self) -> Op {
        let pick = |s: &mut Self| loop {
            let row = s.rng.below(s.period_rows as u64) as usize;
            if s.taken.insert(row) {
                return row;
            }
        };
        let w = self.cluster_width;
        let updates = (0..BATCH_UPDATES)
            .map(|_| {
                let row = pick(self);
                // Recent writes land near the hot region.
                (row, self.hotspot + self.rng.range(-w / 2, w / 2))
            })
            .collect();
        let deletes = (0..BATCH_DELETES).map(|_| pick(self)).collect();
        self.period_deletes += BATCH_DELETES;
        Op::Mutate { updates, deletes }
    }
}
