//! The benchmark's own checks at a seconds-long scale: runs repeat, the
//! traced run agrees with the untraced one, and another seed passes too.

use perfbench::{run, Budget, Report, RunConfig, Workload};

const ROWS: usize = 1 << 18;

fn config(workload: Workload, seed: u64, rounds: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        rows: ROWS,
        budget: Budget::Rounds(rounds),
        trace,
        trace_out: None,
    }
}

fn assert_clean(r: &Report, what: &str) {
    assert!(r.correct, "{what}: not correct: {:?}", r.notes);
    assert_eq!(r.failed, 0, "{what}: failed operations");
    assert!(r.attempted > 0, "{what}: nothing attempted");
}

#[test]
fn inline_runs_repeat_exactly_for_a_seed() {
    for (workload, rounds) in [(Workload::SkipHot, 48), (Workload::ScanUniform, 24)] {
        let a = run(&config(workload, 7, rounds, false));
        let b = run(&config(workload, 7, rounds, false));
        assert_clean(&a, workload.name());
        assert_eq!(
            a.digest,
            b.digest,
            "{} differs between runs",
            workload.name()
        );
        assert!(a.digest.rows_scanned > 0 && a.digest.zones_probed > 0);
        assert!(a.digest.adapt_events > 0 && a.digest.metadata_bytes > 0);
    }
}

#[test]
fn traced_run_matches_untraced_run() {
    for (workload, rounds) in [(Workload::SkipHot, 48), (Workload::ScanUniform, 24)] {
        let plain = run(&config(workload, 3, rounds, false));
        let traced = run(&config(workload, 3, rounds, true));
        assert_clean(&traced, workload.name());
        assert_eq!(
            plain.digest,
            traced.digest,
            "{} traced run differs",
            workload.name()
        );
        for name in [
            "storage.rows_scanned_per_query",
            "core.zones_probed_per_query",
            "trace.spans",
        ] {
            assert!(traced.get(name).is_some_and(|v| v > 0.0), "{name} missing");
        }
    }
}

#[test]
fn another_seed_passes_every_check() {
    for (workload, rounds) in [
        (Workload::SkipHot, 48),
        (Workload::ScanUniform, 24),
        (Workload::ServeChurn, 9),
    ] {
        let r = run(&config(workload, 1234, rounds, false));
        assert_clean(&r, workload.name());
        for name in ["setup_s", "query_qps"] {
            assert!(
                r.get(name).is_some_and(|v| v > 0.0),
                "{}: {name} not positive",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_service_run_reports_server_layers() {
    let r = run(&config(Workload::ServeChurn, 5, 9, true));
    assert_clean(&r, "serve-churn traced");
    for name in [
        "server.flush_us",
        "server.compact_ms",
        "server.shards_per_round",
        "server.mutation_p50_us",
        "storage.tail_append_us",
    ] {
        assert!(r.get(name).is_some_and(|v| v > 0.0), "{name} not positive");
    }
    // Every workload reports the same per-layer metrics.
    let inline = run(&config(Workload::SkipHot, 5, 4, true));
    let names = |r: &Report| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
    let (mut a, mut b) = (names(&r), names(&inline));
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
