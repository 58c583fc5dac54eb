//! End-to-end observability: a real solve recorded through the facade
//! crate produces per-center spans, per-round game events, and work
//! counters; the JSONL trace and Prometheus snapshot round-trip; and a
//! solve *without* a recorder emits nothing at all.
//!
//! The `fta-obs` recorder is process-global, so every test in this
//! binary serialises on one mutex.

use fta::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn instance(n_centers: usize, seed: u64) -> Instance {
    generate_syn(
        &SynConfig {
            n_centers,
            n_workers: 6 * n_centers,
            n_tasks: 60 * n_centers,
            n_delivery_points: 10 * n_centers,
            extent: 2.0 * n_centers as f64,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}

fn solve_recorded(inst: &Instance, algorithm: Algorithm, parallel: bool) -> fta::obs::Snapshot {
    let recorder = Recorder::install();
    let outcome = solve(
        inst,
        &SolveConfig {
            vdps: VdpsConfig::default(),
            algorithm,
            parallel,
            ..SolveConfig::new(Algorithm::Gta)
        },
    );
    assert!(outcome.assignment.validate(inst).is_ok());
    recorder.finish()
}

#[test]
fn recorded_solve_covers_all_layers() {
    let _guard = lock();
    let inst = instance(2, 7);
    let snapshot = solve_recorded(&inst, Algorithm::Iegt(IegtConfig::default()), false);

    // One solve span; one center + assignment + generation span per center.
    assert_eq!(snapshot.span_count("solver.solve"), 1);
    assert_eq!(snapshot.span_count("solver.center"), 2);
    assert_eq!(snapshot.span_count("solver.assign"), 2);
    assert_eq!(snapshot.span_count("vdps.generate"), 2);
    assert!(snapshot.span_count("vdps.dp") >= 2);
    assert!(snapshot.span_count("vdps.layer") >= 2, "per-DP-layer spans");

    // Span attribution: every solver.center span names a distinct center.
    let mut centers: Vec<u32> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "solver.center")
        .map(|s| s.center.expect("center spans carry attribution"))
        .collect();
    centers.sort_unstable();
    assert_eq!(centers, vec![0, 1]);

    // The game loop reports at least one round per center, with
    // monotone round numbers within a center.
    assert!(!snapshot.rounds.is_empty(), "IEGT must emit round events");
    assert!(snapshot.rounds.iter().all(|r| r.algo == "IEGT"));
    for c in 0..2u32 {
        let rounds: Vec<u32> = snapshot
            .rounds
            .iter()
            .filter(|r| r.center == c)
            .map(|r| r.round)
            .collect();
        assert!(!rounds.is_empty(), "no rounds recorded for center {c}");
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
    }

    // Generation + best-response work counters are populated.
    for name in ["vdps.states", "vdps.count", "br.rounds", "br.switches"] {
        assert!(snapshot.counter(name) > 0, "counter {name} is zero");
    }
}

#[test]
fn trace_and_prometheus_round_trip() {
    let _guard = lock();
    let inst = instance(1, 11);
    let snapshot = solve_recorded(&inst, Algorithm::Fgt(FgtConfig::default()), false);

    let mut path = std::env::temp_dir();
    path.push(format!("fta-integration-obs-{}.jsonl", std::process::id()));
    fta::obs::trace::write_file(&snapshot, &path).unwrap();
    let parsed = fta::obs::trace::parse_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(parsed.version, fta::obs::trace::SCHEMA_VERSION);
    assert_eq!(parsed.epoch_unix_ms, snapshot.epoch_unix_ms);
    assert_eq!(parsed.spans.len(), snapshot.spans.len());
    assert_eq!(parsed.rounds.len(), snapshot.rounds.len());
    assert_eq!(parsed.rounds_for("FGT").count(), snapshot.rounds.len());
    for (name, value) in &snapshot.counters {
        assert_eq!(parsed.counters.get(*name), Some(value), "counter {name}");
    }

    // The Prometheus snapshot is well-formed and covers the three
    // instrumented subsystems.
    let prom = snapshot.to_prometheus();
    fta::obs::trace::validate_prometheus(&prom).unwrap();
    for needle in ["fta_vdps_states", "fta_br_rounds", "fta_span_solver_center"] {
        assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
    }
}

#[test]
fn parallel_solve_loses_no_events() {
    let _guard = lock();
    let inst = instance(4, 3);
    let seq = solve_recorded(&inst, Algorithm::Gta, false);
    let par = solve_recorded(&inst, Algorithm::Gta, true);

    // Work counters that are thread-count invariant must agree between
    // the sequential and pooled runs — nothing lost in TLS buffers.
    for name in ["vdps.states", "vdps.extensions_tried", "vdps.count"] {
        assert_eq!(seq.counter(name), par.counter(name), "counter {name}");
    }
    assert_eq!(par.span_count("solver.center"), 4);
    assert_eq!(par.span_count("vdps.generate"), 4);
}

#[test]
fn budgeted_and_panicking_solve_emits_robustness_counters() {
    let _guard = lock();
    let inst = instance(3, 13);

    // Exhausted budget + a poisoned center that panics on both attempts:
    // the solve must still complete, and the robustness counters must land
    // in the snapshot and the Prometheus rendering.
    let recorder = Recorder::install();
    let outcome = solve(
        &inst,
        &SolveConfig {
            budget: SolveBudget::wall_ms(0),
            inject_panic: Some(PanicInjection {
                center: 1,
                also_on_retry: true,
            }),
            ..SolveConfig::new(Algorithm::Iegt(IegtConfig::default()))
        },
    );
    let snapshot = recorder.finish();

    assert!(outcome.assignment.validate(&inst).is_ok());
    assert!(outcome.is_degraded());
    assert_eq!(outcome.degradation.panics_caught(), 2);

    assert!(
        snapshot.counter("solve.degraded") >= 2,
        "at least the two healthy centers degrade under a 0 ms budget"
    );
    assert_eq!(snapshot.counter("budget.exhausted"), 1);
    assert_eq!(snapshot.counter("pool.panics_caught"), 2);

    let prom = snapshot.to_prometheus();
    fta::obs::trace::validate_prometheus(&prom).unwrap();
    for needle in [
        "fta_solve_degraded",
        "fta_budget_exhausted",
        "fta_pool_panics_caught",
    ] {
        assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
    }

    // An unbudgeted, fault-free recorded solve emits none of them.
    let clean = solve_recorded(&inst, Algorithm::Iegt(IegtConfig::default()), false);
    assert_eq!(clean.counter("solve.degraded"), 0);
    assert_eq!(clean.counter("budget.exhausted"), 0);
    assert_eq!(clean.counter("pool.panics_caught"), 0);
}

#[test]
fn unrecorded_solve_emits_nothing() {
    let _guard = lock();
    let inst = instance(1, 5);
    assert!(!fta::obs::enabled());
    let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
    assert!(outcome.assignment.validate(&inst).is_ok());

    // A recorder installed *after* the solve sees none of its events.
    let recorder = Recorder::install();
    let snapshot = recorder.finish();
    assert!(snapshot.is_empty(), "stale events leaked: {snapshot:?}");
}

/// The `solve.centers_*` totals of an incremental simulated day, and the
/// same totals summed from the per-round resolve paths of its ledger.
fn recorded_day_ladder(config: &fta::sim::SimConfig) -> ([u64; 3], [u64; 3]) {
    use fta::sim::{run_with_ledger, Scenario, ScenarioConfig};
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_centers: 3,
            n_workers: 12,
            n_delivery_points: 30,
            extent: 3.0,
            arrival_rate: 60.0,
            ..ScenarioConfig::default()
        },
        2.0,
        31,
    );
    let recorder = Recorder::install();
    let mut records = Vec::new();
    let metrics = run_with_ledger(&scenario, config, &mut records);
    let snapshot = recorder.finish();
    assert!(metrics.is_conserved());
    assert!(records.len() > 2, "the day must run several rounds");
    let mut per_round = [0u64; 3];
    for center in records.iter().flat_map(|r| &r.centers) {
        let slot = ["clean", "warm", "cold"]
            .iter()
            .position(|p| *p == center.resolve)
            .expect("every center records a ladder path");
        per_round[slot] += 1;
    }
    let counters = [
        "solve.centers_clean",
        "solve.centers_warm",
        "solve.centers_cold",
    ]
    .map(|name| snapshot.counter(name));
    (counters, per_round)
}

#[test]
fn flat_and_sharded_days_count_every_center_once() {
    let _guard = lock();
    let config = fta::sim::SimConfig {
        horizon: 2.0,
        assignment_period: 0.25,
        vdps: VdpsConfig::pruned(1.5, 3),
        ..fta::sim::SimConfig::day(Algorithm::Gta)
    }
    .with_incremental();
    let (flat, flat_rounds) = recorded_day_ladder(&config);
    let (sharded, sharded_rounds) =
        recorded_day_ladder(&config.clone().with_shards(2, fta::core::ShardBy::Hash));
    // The priming round is counted on both shapes, so the counters match
    // the ledger's per-round paths and each other.
    assert_eq!(flat, flat_rounds, "flat counters miss rounds");
    assert_eq!(sharded, sharded_rounds, "sharded counters miss rounds");
    assert_eq!(flat, sharded, "flat and sharded days disagree");
    assert!(
        flat[2] > 0 && flat[1] > 0,
        "a churned day primes cold and then warms"
    );
}

#[test]
fn warm_resolve_emits_one_delta_span_per_warm_center() {
    use fta::algorithms::Solver;
    let _guard = lock();
    let inst = instance(3, 17);
    let mut solver = Solver::new(SolveConfig::new(Algorithm::Fgt(FgtConfig::default())));
    solver.solve(&inst);
    // Every other task leaves: every center is churned but keeps tasks.
    let mut next = inst.clone();
    next.tasks = next.tasks.into_iter().step_by(2).collect();
    for (i, t) in next.tasks.iter_mut().enumerate() {
        t.id = TaskId::from_index(i);
    }
    let recorder = Recorder::install();
    let outcome = solver.resolve(&next, &fta::core::ChurnSet::empty(next.workers.len()));
    let snapshot = recorder.finish();
    assert!(outcome.assignment.validate(&next).is_ok());
    let warm = solver.last_stats().centers_warm;
    assert!(warm > 0, "no warm centers: {:?}", solver.last_stats());
    assert_eq!(snapshot.span_count("vdps.delta"), warm);
    assert_eq!(snapshot.span_count("solver.center_warm"), warm);
}
