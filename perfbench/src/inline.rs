//! The inline workloads, `skip-hot` and `scan-uniform`: single-column
//! queries through a `ColumnSession` and conjunctions through a
//! `TableSession`, all on the client thread.
//!
//! The traced run replaces `ColumnSession::query` with the calls
//! `execute_with_policy` makes — `prune`, `scan_pruned`, `observe`,
//! `maintain` — so a span can sit around each one. Answers and index
//! state are the same either way.

use crate::gen::{self, Inputs, Op, OpStream, Workload};
use crate::oracle::SortedOracle;
use crate::trace::{Tracer, NO_PARENT};
use crate::{
    ladder, median, percentile, ratio, shape_medians, Digest, Report, RunConfig, SETUP_REPS,
};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, TierMode};
use ads_core::{RangePredicate, SkippingIndex};
use ads_engine::{
    scan_pruned, AggKind, AnyPredicate, ColumnSession, ExecPolicy, QueryAnswer, QueryMetrics,
    Strategy, TableSession,
};
use ads_storage::{Column, ShardedColumn, Table};
use std::time::Instant;

/// Adaptive zonemaps with zone-local reorganization and adaptive tiers.
pub fn adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        enable_reorg: true,
        tier_mode: TierMode::Adaptive,
        ..AdaptiveConfig::default()
    }
}

/// The single-column side: a session, or (traced) its parts.
enum Single {
    Session(ColumnSession<i64>),
    Parts {
        data: Vec<i64>,
        index: Box<dyn SkippingIndex<i64>>,
    },
}

/// The program state a run builds from its inputs.
struct State {
    single: Single,
    table: TableSession,
}

impl State {
    /// Copies the inputs into program-owned columns and builds the
    /// sessions over them.
    fn build(inputs: &Inputs, strategy: &Strategy, traced: bool) -> State {
        let ts = inputs.ts.clone();
        let single = if traced {
            let index = strategy.build_index(&ts);
            Single::Parts { data: ts, index }
        } else {
            Single::Session(ColumnSession::new(ts, strategy))
        };
        let mut table = Table::new("t");
        table
            .add_column("ts", Column::from_values(inputs.ts.clone()))
            .expect("fresh table takes ts");
        table
            .add_column("v", Column::from_values(inputs.v.clone()))
            .expect("ts and v have equal lengths");
        let table = TableSession::new(table, strategy, &["ts", "v"])
            .expect("adaptive zonemaps are base-coordinate");
        State { single, table }
    }

    fn index(&self) -> &dyn SkippingIndex<i64> {
        match &self.single {
            Single::Session(s) => s.index(),
            Single::Parts { index, .. } => index.as_ref(),
        }
    }

    /// Skipping metadata of all three indexes.
    fn metadata_bytes(&self) -> u64 {
        let table: usize = ["ts", "v"]
            .iter()
            .map(|c| self.table.index_metadata_bytes(c).expect("indexed column"))
            .sum();
        (self.index().metadata_bytes() + table) as u64
    }

    /// Share of the single-column index's rows under retired (dead) zones.
    fn retired_share(&self) -> f64 {
        let zm = self
            .index()
            .as_any()
            .downcast_ref::<AdaptiveZonemap<i64>>()
            .expect("the strategy builds an adaptive zonemap");
        let (dead, all) = zm
            .zone_snapshot()
            .iter()
            .fold((0, 0), |(d, a), (r, label, _)| {
                (d + if *label == "dead" { r.len() } else { 0 }, a + r.len())
            });
        ratio(dead as f64, all as f64)
    }
}

/// What an operation returned.
enum Got {
    Answer(QueryAnswer<i64>),
    Conj(u64, Option<f64>),
    Error(String),
}

/// Work counted at the layer boundaries.
#[derive(Default)]
struct Counts {
    singles: u64,
    conjs: u64,
    rows_scanned: u64,
    zones_probed: u64,
    zones_skipped: u64,
    conjuncts_probed: u64,
    fallbacks: u64,
    /// Traced: rows scanned by the single-column queries alone.
    single_rows: u64,
    /// Traced: zones probed by the single-column queries alone.
    single_zones: u64,
}

impl Counts {
    fn absorb(&mut self, m: &QueryMetrics) {
        self.rows_scanned += m.rows_scanned as u64;
        self.zones_probed += m.zones_probed as u64;
        self.zones_skipped += m.zones_skipped as u64;
    }
}

/// Runs one single-column query; traced, with a span per layer call.
fn single_query(
    single: &mut Single,
    pred: RangePredicate<i64>,
    agg: AggKind,
    tracer: Option<&mut Tracer>,
    request: u64,
    counts: &mut Counts,
) -> QueryAnswer<i64> {
    match (single, tracer) {
        (Single::Session(s), _) => {
            let (answer, m) = s.query(pred, agg);
            counts.absorb(&m);
            answer
        }
        (Single::Parts { data, index }, Some(tr)) => {
            let root = tr.open("engine.query", NO_PARENT, request);
            let (outcome, _) = tr.span("core.prune", root, request, || index.prune(&pred));
            let ((answer, obs, phase), _) = tr.span("storage.scan", root, request, || {
                scan_pruned(data, &outcome, pred, agg, &ExecPolicy::sequential())
            });
            tr.span("core.observe", root, request, || index.observe(&obs));
            tr.span("core.maintain", root, request, || index.maintain(data));
            tr.close(root);
            counts.rows_scanned += phase.rows_scanned as u64;
            counts.zones_probed += outcome.zones_probed as u64;
            counts.zones_skipped += outcome.zones_skipped as u64;
            counts.single_rows += phase.rows_scanned as u64;
            counts.single_zones += outcome.zones_probed as u64;
            answer
        }
        (Single::Parts { .. }, None) => unreachable!("parts are built for traced runs only"),
    }
}

/// Executes one operation.
fn execute(
    state: &mut State,
    op: &Op,
    tracer: Option<&mut Tracer>,
    request: u64,
    counts: &mut Counts,
) -> Got {
    match op {
        Op::Query { lo, hi, agg } => {
            counts.singles += 1;
            let pred = RangePredicate::between(*lo, *hi);
            Got::Answer(single_query(
                &mut state.single,
                pred,
                *agg,
                tracer,
                request,
                counts,
            ))
        }
        Op::Conj {
            ts_lo,
            ts_hi,
            v_lo,
            v_hi,
            sum,
        } => {
            counts.conjs += 1;
            let conj = [
                (
                    "ts",
                    AnyPredicate::I64(RangePredicate::between(*ts_lo, *ts_hi)),
                ),
                (
                    "v",
                    AnyPredicate::I64(RangePredicate::between(*v_lo, *v_hi)),
                ),
            ];
            let table = &mut state.table;
            let mut run = || {
                if *sum {
                    table
                        .sum_conjunction(&conj, "v")
                        .map(|(c, s, m)| (c, Some(s), m))
                } else {
                    table.count_conjunction(&conj).map(|(c, m)| (c, None, m))
                }
            };
            let result = match tracer {
                Some(tr) => tr.span("engine.conjunction", NO_PARENT, request, run).0,
                None => run(),
            };
            match result {
                Ok((count, sum, m)) => {
                    counts.absorb(&m);
                    counts.conjuncts_probed += m.conjuncts_probed as u64;
                    counts.fallbacks += u64::from(m.plan_fallback);
                    Got::Conj(count, sum)
                }
                Err(e) => Got::Error(e.to_string()),
            }
        }
        Op::Mutate { .. } | Op::Compact | Op::Flush => {
            unreachable!("service operations are not generated for inline workloads")
        }
    }
}

/// Checks every logged answer against the sorted oracle; returns the
/// number of mismatches, printing each with its operation.
fn check(inputs: &Inputs, log: &[(Op, Got)]) -> u64 {
    let oracle = SortedOracle::new(&inputs.ts);
    let mut wrong = 0u64;
    for (i, (op, got)) in log.iter().enumerate() {
        let bad = match (op, got) {
            (_, Got::Error(_)) => None,
            (Op::Query { lo, hi, agg }, Got::Answer(a)) => {
                let want = oracle.query(*lo, *hi, *agg);
                (want != *a).then(|| format!("want {want:?}, got {a:?}"))
            }
            (
                Op::Conj {
                    ts_lo,
                    ts_hi,
                    v_lo,
                    v_hi,
                    ..
                },
                Got::Conj(count, sum),
            ) => {
                let (c, s) = oracle.conj(*ts_lo, *ts_hi, &inputs.v, *v_lo, *v_hi);
                let sum_ok = sum.is_none_or(|x| x.to_bits() == (s as f64).to_bits());
                (c != *count || !sum_ok).then(|| format!("want ({c}, {s}), got ({count}, {sum:?})"))
            }
            _ => Some("operation and outcome do not match".to_string()),
        };
        if let Some(msg) = bad {
            wrong += 1;
            eprintln!("MISMATCH op {i} {op:?}: {msg}");
        }
    }
    wrong
}

/// Median µs of `ShardedColumn::append` of one service-sized update batch
/// onto `column` cut into the service's 4 shards.
pub fn tail_append_us(column: &[i64], tracer: &mut Tracer) -> f64 {
    let sharded = ShardedColumn::new(column.to_vec(), crate::serve::SHARDS);
    let batch: Vec<i64> = column[..gen::BATCH_UPDATES].to_vec();
    let mut us = Vec::new();
    for rep in 0..64 {
        let (next, ns) = tracer.span("storage.tail_append", NO_PARENT, rep, || {
            sharded.append(&batch)
        });
        std::hint::black_box(&next);
        us.push(ns as f64 / 1e3);
    }
    median(&mut us)
}

/// Runs `skip-hot` or `scan-uniform`.
pub fn run(cfg: &RunConfig) -> Report {
    let inputs = gen::inputs(cfg.workload, cfg.seed, cfg.rows);
    let strategy = Strategy::Adaptive(adaptive_config());

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(State::build(&inputs, &strategy, cfg.trace));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");

    let mut stream = OpStream::new(cfg.workload, cfg.seed, &inputs);
    let mut log: Vec<(Op, Got)> = Vec::new();
    // Warm-up: the same operations, checked like the rest, but neither
    // timed nor counted.
    let mut warm_tracer = cfg.trace.then(Tracer::new);
    for _ in 0..gen::warmup_rounds(cfg.workload) {
        for op in stream.next_round() {
            let request = log.len() as u64;
            let got = execute(
                &mut state,
                &op,
                warm_tracer.as_mut(),
                request,
                &mut Counts::default(),
            );
            log.push((op, got));
        }
    }
    drop(warm_tracer);

    let mut tracer = cfg.trace.then(Tracer::new);
    let mut counts = Counts::default();
    let mut qlat = Vec::new();
    let mut shapes = Vec::new();
    // Retired share after each round: revival brings dead regions back
    // for a few queries now and then, so the property is judged over the
    // run rather than at its last instant. Only sampled where it is
    // checked, and cheap there (a uniform column retires to few zones).
    let mut retired_by_round = Vec::new();
    let mut rounds = 0u64;
    let t_loop = Instant::now();
    while cfg.budget.more(rounds, t_loop.elapsed()) {
        for op in stream.next_round() {
            let request = log.len() as u64;
            let t = Instant::now();
            let got = execute(&mut state, &op, tracer.as_mut(), request, &mut counts);
            let ns = t.elapsed().as_nanos() as u64;
            shapes.push((op.label(), ns));
            qlat.push(ns);
            log.push((op, got));
        }
        if cfg.workload == Workload::ScanUniform {
            retired_by_round.push(state.retired_share());
        }
        rounds += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();

    let metadata = state.metadata_bytes();
    let adapt_events = state.index().adapt_events();
    let retired = ratio(retired_by_round.iter().sum(), retired_by_round.len() as f64);
    let errors = log
        .iter()
        .filter(|(_, g)| matches!(g, Got::Error(_)))
        .count() as u64;
    for (op, g) in &log {
        if let Got::Error(e) = g {
            eprintln!("FAILED {op:?}: {e}");
        }
    }
    let wrong = check(&inputs, &log);

    let mut digest = Digest {
        ops: log.len() as u64,
        rows_scanned: counts.rows_scanned,
        zones_probed: counts.zones_probed,
        zones_skipped: counts.zones_skipped,
        adapt_events,
        metadata_bytes: metadata,
        ..Digest::default()
    };
    for (_, g) in &log {
        match g {
            Got::Answer(a) => digest.mix_answer(a),
            Got::Conj(c, s) => {
                digest.mix(*c);
                digest.mix(s.map_or(1, f64::to_bits));
            }
            Got::Error(_) => {}
        }
    }

    // Sanity properties of the method on each workload.
    let skip_ratio = ratio(counts.zones_skipped as f64, counts.zones_probed as f64);
    let fallback_ratio = ratio(counts.fallbacks as f64, counts.conjs as f64);
    let sane = match cfg.workload {
        Workload::SkipHot => skip_ratio > 0.5,
        _ => retired > 0.5 && fallback_ratio > 0.5,
    };
    let mut report = Report {
        correct: wrong == 0 && errors == 0 && sane,
        attempted: log.len() as u64,
        failed: wrong + errors,
        digest,
        ..Report::default()
    };
    let queries = qlat.len();
    report.notes.push(format!(
        "{} seed {}: {rounds} rounds, {queries} queries in {loop_s:.2} s; \
         zone skip ratio {skip_ratio:.4}, retired rows {retired:.4} (mean over rounds) and {:.4} at the end, plan fallbacks {}/{}",
        cfg.workload.name(),
        cfg.seed,
        state.retired_share(),
        counts.fallbacks,
        counts.conjs
    ));
    report.notes.push(shape_medians(&shapes));
    report.notes.push(ladder("query us", &mut qlat));
    if !sane {
        report
            .notes
            .push(format!("SANITY FAILED on {}", cfg.workload.name()));
    }

    match tracer {
        None => {
            report.metric("setup_s", median(&mut setup), "s");
            report.metric("query_qps", queries as f64 / loop_s, "1/s");
        }
        Some(mut tr) => {
            let tail = tail_append_us(&inputs.ts, &mut tr);
            let q = queries as f64;
            let singles = counts.singles as f64;
            let adapt_ns = tr.total_ns("core.observe") + tr.total_ns("core.maintain");
            report.metric(
                "storage.scan_ns_per_row",
                ratio(
                    tr.total_ns("storage.scan") as f64,
                    counts.single_rows as f64,
                ),
                "ns/row",
            );
            report.metric(
                "storage.rows_scanned_per_query",
                counts.rows_scanned as f64 / q,
                "rows",
            );
            report.metric("storage.tail_append_us", tail, "us");
            report.metric(
                "core.prune_ns_per_zone",
                ratio(tr.total_ns("core.prune") as f64, counts.single_zones as f64),
                "ns/zone",
            );
            report.metric(
                "core.zones_probed_per_query",
                counts.zones_probed as f64 / q,
                "zones",
            );
            report.metric("core.zone_skip_ratio", skip_ratio, "ratio");
            report.metric(
                "core.adapt_us_per_query",
                ratio(adapt_ns as f64 / 1e3, singles),
                "us",
            );
            report.metric("core.adapt_events", adapt_events as f64, "count");
            report.metric("core.metadata_bytes", metadata as f64, "B");
            report.metric(
                "engine.conj_us_per_query",
                ratio(
                    tr.total_ns("engine.conjunction") as f64 / 1e3,
                    counts.conjs as f64,
                ),
                "us",
            );
            report.metric(
                "engine.conjuncts_probed_ratio",
                ratio(counts.conjuncts_probed as f64, 2.0 * counts.conjs as f64),
                "ratio",
            );
            report.metric("engine.plan_fallback_ratio", fallback_ratio, "ratio");
            crate::serve::absent_server_metrics(&mut report);
            report.metric(
                "trace.query_p50_us",
                percentile(&mut qlat, 0.50) as f64 / 1e3,
                "us",
            );
            report.metric(
                "trace.query_p99_us",
                percentile(&mut qlat, 0.99) as f64 / 1e3,
                "us",
            );
            report.metric("trace.spans", tr.spans().len() as f64, "count");
            if let Some(path) = &cfg.trace_out {
                if let Err(e) = tr.write_tsv(path) {
                    eprintln!("could not write spans to {}: {e}", path.display());
                }
            }
        }
    }
    report
}
