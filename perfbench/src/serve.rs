//! The service workload, `serve-churn`: one client thread drives a
//! `QueryService` (async adaptation, one reader, four shards, automatic
//! compaction off) with hotspot queries, update/delete batches, a flush
//! barrier per round and a compaction every few rounds.
//!
//! The client waits for every reply before it sends the next operation,
//! so at most the reader (or the maintenance thread) and the client's
//! bookkeeping are runnable at once. The traced run replays each query's
//! `prune_shared` and `scan_pruned_with_deletes` on the published shard
//! snapshots the query ran against; the service's latency minus that
//! replay is the service's own overhead.

use crate::gen::{self, Op, OpStream};
use crate::inline::{adaptive_config, tail_append_us};
use crate::oracle::Mirror;
use crate::trace::{Tracer, NO_PARENT};
use crate::{
    ladder, median, percentile, ratio, shape_medians, Digest, Report, RunConfig, SETUP_REPS,
};
use ads_core::{RangePredicate, SkippingIndex};
use ads_engine::{scan_pruned_with_deletes, ExecPolicy, QueryAnswer};
use ads_server::{
    AdaptationMode, Mutation, MutationError, QueryService, Reply, ServerConfig, SubmitError,
};
use std::time::{Duration, Instant};

/// Shards of the service's column.
pub const SHARDS: usize = 4;

/// The service configuration under test.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        readers: 1,
        shards: SHARDS,
        adaptation: AdaptationMode::Async,
        adaptive: adaptive_config(),
        compact_tombstone_ratio: None,
        // A closed loop never queues, so any miss means a stalled reader.
        default_deadline: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    }
}

/// Reports the server metrics as zero on workloads without a service.
pub fn absent_server_metrics(report: &mut Report) {
    report.metric("server.overhead_us_p50", 0.0, "us");
    report.metric("server.flush_us", 0.0, "us");
    report.metric("server.compact_ms", 0.0, "ms");
    report.metric("server.republish_kb_per_round", 0.0, "KiB");
    report.metric("server.shards_per_round", 0.0, "shards");
    report.metric("server.feedback_applied_ratio", 0.0, "ratio");
    report.metric("server.mutation_p50_us", 0.0, "us");
    report.metric("server.mutation_p99_us", 0.0, "us");
}

/// What an operation returned.
enum Got {
    Answer(QueryAnswer<i64>),
    Applied(usize),
    Reclaimed(usize),
    Error(&'static str),
    Done,
}

/// Traced-run tallies of the replayed read path.
#[derive(Default)]
struct Replay {
    queries: u64,
    prune_ns: u64,
    scan_ns: u64,
    rows: u64,
    zones_probed: u64,
    zones_skipped: u64,
    overhead_us: Vec<f64>,
}

fn query(service: &QueryService<i64>, pred: RangePredicate<i64>, op: &Op) -> Got {
    let Op::Query { agg, .. } = op else {
        unreachable!("query() takes query operations")
    };
    match service.query(pred, *agg) {
        Ok(Reply::Answer { answer, .. }) => Got::Answer(answer),
        Ok(Reply::DeadlineMissed) => Got::Error("deadline missed"),
        Err(SubmitError::Shed(_)) => Got::Error("shed"),
        Err(SubmitError::ShuttingDown(_)) => Got::Error("shutting down"),
    }
}

/// Replays one query's read path on `snaps`, inside span `root`.
fn replay(
    snaps: &[std::sync::Arc<ads_server::ShardSnapshot<i64>>],
    pred: RangePredicate<i64>,
    op: &Op,
    tr: &mut Tracer,
    root: u32,
    request: u64,
    tally: &mut Replay,
) -> u64 {
    let Op::Query { agg, .. } = op else {
        unreachable!("replay() takes query operations")
    };
    let mut ns = 0;
    for snap in snaps {
        let (outcome, prune_ns) = tr.span("core.prune_shared", root, request, || {
            snap.zonemap.prune_shared(&pred)
        });
        let ((_, _, phase), scan_ns) = tr.span("storage.scan_with_deletes", root, request, || {
            scan_pruned_with_deletes(
                snap.data.as_slice(),
                &outcome,
                pred,
                *agg,
                &ExecPolicy::sequential(),
                Some(&snap.delete),
            )
        });
        ns += prune_ns + scan_ns;
        tally.prune_ns += prune_ns;
        tally.scan_ns += scan_ns;
        tally.rows += phase.rows_scanned as u64;
        tally.zones_probed += outcome.zones_probed as u64;
        tally.zones_skipped += outcome.zones_skipped as u64;
    }
    tally.queries += 1;
    ns
}

/// Executes one operation; returns the outcome and its client-side ns.
fn execute(
    service: &QueryService<i64>,
    op: &Op,
    tracer: Option<&mut Tracer>,
    request: u64,
    tally: &mut Replay,
) -> (Got, u64) {
    let timed = |f: &mut dyn FnMut() -> Got| {
        let t = Instant::now();
        let g = f();
        (g, t.elapsed().as_nanos() as u64)
    };
    match (op, tracer) {
        (Op::Query { lo, hi, .. }, tr) => {
            let pred = RangePredicate::between(*lo, *hi);
            let Some(tr) = tr else {
                return timed(&mut || query(service, pred, op));
            };
            let root = tr.open("client.request", NO_PARENT, request);
            let snaps = service
                .shard_snapshots()
                .expect("async mode publishes snapshots");
            let gens = service.shard_generations();
            let q = tr.open("server.query", root, request);
            let t = Instant::now();
            let got = query(service, pred, op);
            let ns = t.elapsed().as_nanos() as u64;
            tr.close(q);
            // Only a query whose lanes were not republished meanwhile ran
            // against exactly these snapshots.
            if matches!(got, Got::Answer(_)) && service.shard_generations() == gens {
                let replay_ns = replay(&snaps, pred, op, tr, root, request, tally);
                tally.overhead_us.push((ns as f64 - replay_ns as f64) / 1e3);
            }
            tr.close(root);
            (got, ns)
        }
        (Op::Mutate { updates, deletes }, tr) => {
            let batch: Vec<Mutation<i64>> = updates
                .iter()
                .map(|&(row, x)| Mutation::Update(row, x))
                .chain(deletes.iter().map(|&row| Mutation::Delete(row)))
                .collect();
            let id = tr.map(|t| (t.open("server.mutate", NO_PARENT, request), t));
            let (got, ns) = timed(&mut || match service.mutate(batch.clone()) {
                Ok(n) => Got::Applied(n),
                Err(MutationError::Lost) => Got::Error("mutation lost"),
            });
            if let Some((id, t)) = id {
                t.close(id);
            }
            (got, ns)
        }
        (Op::Compact, tr) => {
            let id = tr.map(|t| (t.open("server.compact", NO_PARENT, request), t));
            let (got, ns) = timed(&mut || match service.compact() {
                Ok(n) => Got::Reclaimed(n),
                Err(MutationError::Lost) => Got::Error("compaction lost"),
            });
            if let Some((id, t)) = id {
                t.close(id);
            }
            (got, ns)
        }
        (Op::Flush, tr) => {
            let id = tr.map(|t| (t.open("server.flush", NO_PARENT, request), t));
            let (got, ns) = timed(&mut || {
                service.flush();
                Got::Done
            });
            if let Some((id, t)) = id {
                t.close(id);
            }
            (got, ns)
        }
        (Op::Conj { .. }, _) => {
            unreachable!("inline operations are not generated for the service workload")
        }
    }
}

/// Replays the log through the tombstone mirror; returns the number of
/// mismatches, printing each with its operation.
fn check(column: &[i64], log: &[(Op, Got)]) -> u64 {
    let mut mirror = Mirror::new(column);
    let mut wrong = 0u64;
    for (i, (op, got)) in log.iter().enumerate() {
        let bad = match (op, got) {
            (_, Got::Error(_)) => None,
            (Op::Query { lo, hi, agg }, Got::Answer(a)) => {
                let want = mirror.query(*lo, *hi, *agg);
                (want != *a).then(|| format!("want {want:?}, got {a:?}"))
            }
            (Op::Mutate { updates, deletes }, Got::Applied(n)) => {
                let want = mirror.mutate(updates, deletes);
                (want != *n).then(|| format!("want {want} applied, got {n}"))
            }
            (Op::Compact, Got::Reclaimed(n)) => {
                let want = mirror.compact();
                (want != *n).then(|| format!("want {want} reclaimed, got {n}"))
            }
            (Op::Flush, Got::Done) => None,
            _ => Some("operation and outcome do not match".to_string()),
        };
        if let Some(msg) = bad {
            wrong += 1;
            eprintln!("MISMATCH op {i} {op:?}: {msg}");
        }
    }
    wrong
}

/// Runs `serve-churn`.
pub fn run(cfg: &RunConfig) -> Report {
    let inputs = gen::inputs(cfg.workload, cfg.seed, cfg.rows);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let t = Instant::now();
        service = Some(QueryService::start(inputs.ts.clone(), server_config()));
        setup.push(t.elapsed().as_secs_f64());
    }
    let service = service.expect("at least one set-up");

    let mut stream = OpStream::new(cfg.workload, cfg.seed, &inputs);
    let mut log: Vec<(Op, Got)> = Vec::new();
    // Warm-up: the same operations, checked like the rest, not timed.
    for _ in 0..gen::warmup_rounds(cfg.workload) {
        for op in stream.next_round() {
            let request = log.len() as u64;
            let (got, _) = execute(&service, &op, None, request, &mut Replay::default());
            log.push((op, got));
        }
    }

    let mut tracer = cfg.trace.then(Tracer::new);
    let mut tally = Replay::default();
    let (mut qlat, mut mlat) = (Vec::new(), Vec::new());
    let mut shapes = Vec::new();
    let mut rounds = 0u64;
    let t_loop = Instant::now();
    while cfg.budget.more(rounds, t_loop.elapsed()) {
        for op in stream.next_round() {
            let request = log.len() as u64;
            let (got, ns) = execute(&service, &op, tracer.as_mut(), request, &mut tally);
            shapes.push((op.label(), ns));
            if op.is_query() {
                qlat.push(ns);
            } else if op.is_mutation() {
                mlat.push(ns);
            }
            log.push((op, got));
        }
        rounds += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();

    service.flush();
    let lanes = service
        .shard_snapshots()
        .expect("async mode publishes snapshots");
    let metadata: u64 = lanes
        .iter()
        .map(|s| s.zonemap.metadata_bytes() as u64)
        .sum();
    let adapt_events: u64 = lanes.iter().map(|s| s.zonemap.adapt_events()).sum();
    drop(lanes);
    let stats = service.shutdown();

    for (op, g) in &log {
        if let Got::Error(e) = g {
            eprintln!("FAILED {op:?}: {e}");
        }
    }
    let errors = log
        .iter()
        .filter(|(_, g)| matches!(g, Got::Error(_)))
        .count() as u64;
    let wrong = check(&inputs.ts, &log);
    let mut digest = Digest {
        ops: log.len() as u64,
        metadata_bytes: metadata,
        adapt_events,
        ..Digest::default()
    };
    for (_, g) in &log {
        match g {
            Got::Answer(a) => digest.mix_answer(a),
            Got::Applied(n) | Got::Reclaimed(n) => digest.mix(*n as u64),
            Got::Error(_) | Got::Done => {}
        }
    }

    let sane = stats.shed == 0 && stats.deadline_missed == 0;
    let mut report = Report {
        correct: wrong == 0 && errors == 0 && sane,
        attempted: log.len() as u64,
        failed: wrong + errors,
        digest,
        ..Report::default()
    };
    let queries = qlat.len();
    report.notes.push(format!(
        "serve-churn seed {}: {rounds} rounds, {queries} queries, {} mutation batches in {loop_s:.2} s; \
         shed {}, deadline missed {}, feedback applied {}/{} (dropped {}), {} compactions",
        cfg.seed,
        mlat.len(),
        stats.shed,
        stats.deadline_missed,
        stats.feedback_applied,
        stats.queries,
        stats.feedback_dropped,
        stats.compactions_run
    ));
    report.notes.push(shape_medians(&shapes));
    report.notes.push(ladder("query us", &mut qlat));
    report.notes.push(ladder("mutation us", &mut mlat));

    match tracer {
        None => {
            report.metric("setup_s", median(&mut setup), "s");
            report.metric("query_qps", queries as f64 / loop_s, "1/s");
        }
        Some(mut tr) => {
            let tail = tail_append_us(&inputs.ts, &mut tr);
            let n = tally.queries as f64;
            let rounds_published = stats.snapshots_published as f64;
            report.metric(
                "storage.scan_ns_per_row",
                ratio(tally.scan_ns as f64, tally.rows as f64),
                "ns/row",
            );
            report.metric(
                "storage.rows_scanned_per_query",
                ratio(tally.rows as f64, n),
                "rows",
            );
            report.metric("storage.tail_append_us", tail, "us");
            report.metric(
                "core.prune_ns_per_zone",
                ratio(tally.prune_ns as f64, tally.zones_probed as f64),
                "ns/zone",
            );
            report.metric(
                "core.zones_probed_per_query",
                ratio(tally.zones_probed as f64, n),
                "zones",
            );
            report.metric(
                "core.zone_skip_ratio",
                ratio(tally.zones_skipped as f64, tally.zones_probed as f64),
                "ratio",
            );
            // Adaptation runs on the maintenance thread, off the client's path.
            report.metric("core.adapt_us_per_query", 0.0, "us");
            report.metric("core.adapt_events", adapt_events as f64, "count");
            report.metric("core.metadata_bytes", metadata as f64, "B");
            // No conjunctions go through the service.
            report.metric("engine.conj_us_per_query", 0.0, "us");
            report.metric("engine.conjuncts_probed_ratio", 0.0, "ratio");
            report.metric("engine.plan_fallback_ratio", 0.0, "ratio");
            report.metric(
                "server.overhead_us_p50",
                median(&mut tally.overhead_us),
                "us",
            );
            let mean_us = |name: &str| {
                let d = tr.durations(name);
                ratio(d.iter().sum::<u64>() as f64 / 1e3, d.len() as f64)
            };
            report.metric("server.flush_us", mean_us("server.flush"), "us");
            report.metric("server.compact_ms", mean_us("server.compact") / 1e3, "ms");
            report.metric(
                "server.republish_kb_per_round",
                ratio(stats.republish_bytes as f64 / 1024.0, rounds_published),
                "KiB",
            );
            report.metric(
                "server.shards_per_round",
                ratio(stats.shards_republished as f64, rounds_published),
                "shards",
            );
            report.metric(
                "server.feedback_applied_ratio",
                ratio(stats.feedback_applied as f64, stats.queries as f64),
                "ratio",
            );
            report.metric(
                "server.mutation_p50_us",
                percentile(&mut mlat, 0.50) as f64 / 1e3,
                "us",
            );
            report.metric(
                "server.mutation_p99_us",
                percentile(&mut mlat, 0.99) as f64 / 1e3,
                "us",
            );
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
            report.notes.push(format!(
                "replayed {} of {queries} queries on unchanged snapshots",
                tally.queries
            ));
            if let Some(path) = &cfg.trace_out {
                if let Err(e) = tr.write_tsv(path) {
                    eprintln!("could not write spans to {}: {e}", path.display());
                }
            }
        }
    }
    report
}
