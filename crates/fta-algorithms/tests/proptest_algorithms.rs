//! Property-based tests of the assignment algorithms on randomly generated
//! instances: validity, determinism, and equilibrium conditions must hold
//! for every input, not just the crafted unit-test cases.

use fta_algorithms::{
    fgt, gta, iegt, mpta, pfgt, random_assignment, solve, Algorithm, BestResponseEngine, FgtConfig,
    GameContext, IegtConfig, MptaConfig, PfgtConfig, PrioritySpec, SolveConfig,
};
use fta_core::iau::IauEvaluator;
use fta_core::priority::PriorityIauEvaluator;
use fta_core::{Instance, SolveBudget};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{StrategySpace, VdpsConfig};
use proptest::prelude::*;

/// Everything one best-response engine produces that another engine must
/// reproduce: selections, payoff bits, per-round trace summaries
/// (moves, `P_dif` bits, average-payoff bits), and convergence.
type EngineRun = (Vec<Option<u32>>, Vec<u64>, Vec<(usize, u64, u64)>, bool);

/// Random small instances driven by a seed and size knobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u64..500, 2usize..12, 4usize..16, 1usize..4).prop_map(|(seed, n_workers, n_dps, max_dp)| {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers,
                n_tasks: n_dps * 6,
                n_delivery_points: n_dps,
                max_dp,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    })
}

fn space(instance: &Instance) -> StrategySpace {
    let views = instance.center_views();
    StrategySpace::build(instance, &views[0], &VdpsConfig::unpruned(4))
}

/// Priority 2 for even worker ids, 1 for odd ones.
fn tiered(worker: fta_core::WorkerId) -> f64 {
    if worker.0 % 2 == 0 {
        2.0
    } else {
        1.0
    }
}

/// Runs FGT (or PFGT under `priorities`) with `engine` and captures what
/// another engine must reproduce, the run's work counters, and the largest
/// utility gain any worker could still get by deviating, measured with the
/// `Rebuild` engine's evaluators.
fn run_engine(
    s: &StrategySpace,
    engine: BestResponseEngine,
    iau: fta_core::iau::IauParams,
    priorities: Option<PrioritySpec>,
) -> (EngineRun, fta_algorithms::BestResponseStats, f64) {
    let base = FgtConfig {
        iau,
        engine,
        ..FgtConfig::default()
    };
    let mut ctx = GameContext::new(s);
    let trace = match priorities {
        None => fgt(&mut ctx, &base),
        Some(priorities) => pfgt(&mut ctx, &PfgtConfig { base, priorities }),
    };
    let selections: Vec<Option<u32>> = (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect();
    let payoff_bits: Vec<u64> = (0..ctx.n_workers())
        .map(|l| ctx.payoff(l).to_bits())
        .collect();
    let summaries: Vec<(usize, u64, u64)> = trace
        .rounds
        .iter()
        .map(|r| {
            (
                r.moves,
                r.payoff_difference.to_bits(),
                r.average_payoff.to_bits(),
            )
        })
        .collect();
    let rho = |local: usize| priorities.map_or(1.0, |p| p.of(s.worker_id(local)));
    let mut nash_gap = f64::NEG_INFINITY;
    for local in 0..ctx.n_workers() {
        let others: Vec<(f64, f64)> = (0..ctx.n_workers())
            .filter(|&j| j != local)
            .map(|j| (ctx.payoff(j), rho(j)))
            .collect();
        let eval = PriorityIauEvaluator::new(rho(local), &others, iau);
        let current = eval.eval(ctx.payoff(local));
        let deviations = ctx.available_strategies(local).map(|(_, p)| p).chain([0.0]);
        for payoff in deviations {
            nash_gap = nash_gap.max(eval.eval(payoff) - current);
        }
    }
    (
        (selections, payoff_bits, summaries, trace.converged),
        trace.stats,
        nash_gap,
    )
}

/// The fast path's contract at any IAU weights: bit-identical to the
/// `Incremental` engine (selections, payoffs, round summaries,
/// convergence), every round on the fast path, and never more slots
/// probed than the exhaustive scan.
///
/// Against the `Rebuild` oracle: the same selections and payoffs when
/// `rebuild_identical`, else a Nash equilibrium under its evaluators.
/// Weights with a flat utility piece (an integral peak, or `β = 1`) tie
/// candidates in real arithmetic; `Rebuild` sums in another order than
/// the rival set, so float noise can break those ties differently between
/// the two exhaustive engines themselves.
fn assert_fastpath_matches_oracles(
    instance: &Instance,
    iau: fta_core::iau::IauParams,
    priorities: Option<PrioritySpec>,
    rebuild_identical: bool,
) {
    let s = space(instance);
    let (rebuild, _, _) = run_engine(&s, BestResponseEngine::Rebuild, iau, priorities);
    let (incremental, inc, _) = run_engine(&s, BestResponseEngine::Incremental, iau, priorities);
    let (fastpath, fast, nash_gap) = run_engine(&s, BestResponseEngine::FastPath, iau, priorities);
    prop_assert_eq!(
        &incremental,
        &fastpath,
        "fastpath diverged from incremental"
    );
    if rebuild_identical {
        prop_assert_eq!(
            &rebuild.0,
            &fastpath.0,
            "fastpath selections diverged from rebuild"
        );
        prop_assert_eq!(
            &rebuild.1,
            &fastpath.1,
            "fastpath payoffs diverged from rebuild"
        );
    } else if fastpath.3 {
        prop_assert!(nash_gap <= 1e-8, "profitable deviation of {nash_gap} left");
    }
    prop_assert_eq!(fast.fastpath_rounds, fast.rounds);
    prop_assert!(
        fast.candidates_scanned <= inc.candidates_scanned,
        "fastpath probed {} slots, incremental {}",
        fast.candidates_scanned,
        inc.candidates_scanned
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_produce_valid_disjoint_assignments(instance in arb_instance()) {
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
            Algorithm::Random { seed: 1 },
        ] {
            let outcome = solve(
                &instance,
                &SolveConfig {
                    vdps: VdpsConfig::unpruned(4),
                    algorithm,
                    parallel: false,
                    ..SolveConfig::new(Algorithm::Gta)
                },
            );
            prop_assert!(outcome.assignment.validate(&instance).is_ok());
        }
    }

    /// A budget-exhausted solve may degrade all the way down the ladder
    /// but must still return a *valid* partial assignment: deadline-feasible
    /// routes, disjoint delivery points, workers bound to their own center.
    #[test]
    fn budget_exhausted_solves_return_valid_partial_assignments(
        instance in arb_instance(),
        budget_kind in 0usize..4,
        cap in 1usize..16,
    ) {
        let budget = match budget_kind {
            0 => SolveBudget::wall_ms(0),
            1 => SolveBudget { max_states: Some(cap), ..SolveBudget::UNLIMITED },
            2 => SolveBudget { max_rounds: Some(cap % 3), ..SolveBudget::UNLIMITED },
            _ => SolveBudget {
                wall_ms: Some(0),
                max_states: Some(cap),
                max_rounds: Some(1),
            },
        };
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let cfg = SolveConfig {
                vdps: VdpsConfig::unpruned(4),
                algorithm,
                parallel: false,
                budget,
                ..SolveConfig::new(Algorithm::Gta)
            };
            let outcome = solve(&instance, &cfg);
            prop_assert!(
                outcome.assignment.validate(&instance).is_ok(),
                "budget {budget:?} broke assignment validity"
            );
            // State-cap and round-cap budgets are deterministic (wall-clock
            // budgets are not): identical runs give identical assignments.
            if budget.wall_ms.is_none() {
                let again = solve(&instance, &cfg);
                prop_assert_eq!(&outcome.assignment, &again.assignment);
                prop_assert_eq!(&outcome.degradation.events, &again.degradation.events);
            }
        }
    }

    #[test]
    fn gta_assigns_each_worker_their_best_remaining(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        gta(&mut ctx);
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            for (_, payoff) in ctx.available_strategies(local) {
                prop_assert!(payoff <= current + 1e-9);
            }
        }
    }

    #[test]
    fn mpta_total_payoff_dominates_gta(instance in arb_instance()) {
        let s = space(&instance);
        let mut g = GameContext::new(&s);
        gta(&mut g);
        let mut m = GameContext::new(&s);
        mpta(&mut m, &MptaConfig::default());
        prop_assert!(m.total_payoff() >= g.total_payoff() - 1e-9);
    }

    #[test]
    fn fgt_fixed_point_is_a_nash_equilibrium(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let cfg = FgtConfig::default();
        let trace = fgt(&mut ctx, &cfg);
        prop_assert!(trace.converged);
        let n = ctx.n_workers();
        for local in 0..n {
            let others: Vec<f64> = (0..n)
                .filter(|&j| j != local)
                .map(|j| ctx.payoff(j))
                .collect();
            let eval = IauEvaluator::new(&others, cfg.iau);
            let current = eval.eval(ctx.payoff(local));
            prop_assert!(eval.eval(0.0) <= current + 1e-6);
            for (_, p) in ctx.available_strategies(local) {
                prop_assert!(eval.eval(p) <= current + 1e-6);
            }
        }
    }

    #[test]
    fn iegt_fixed_point_is_a_replicator_rest_point(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let cfg = IegtConfig::default();
        let trace = iegt(&mut ctx, &cfg);
        prop_assert!(trace.converged);
        let n = ctx.n_workers() as f64;
        let average = ctx.total_payoff() / n;
        // Mirror the algorithm's scale-aware equality notions: a worker
        // strictly below the average (beyond the rest slack) must have no
        // available strategy that clears the improvement threshold.
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            if current < average - cfg.rest_slack(average) {
                let margin = cfg.improvement_threshold(current);
                prop_assert!(!ctx
                    .available_strategies(local)
                    .any(|(_, p)| p > current + margin));
            }
        }
    }

    #[test]
    fn iegt_average_payoff_is_monotone_over_rounds(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let trace = iegt(&mut ctx, &IegtConfig::default());
        for w in trace.rounds.windows(2) {
            prop_assert!(w[1].average_payoff >= w[0].average_payoff - 1e-9);
        }
    }

    #[test]
    fn solver_is_deterministic(instance in arb_instance()) {
        for algorithm in [
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let run = || {
                solve(
                    &instance,
                    &SolveConfig {
                        vdps: VdpsConfig::unpruned(4),
                        algorithm,
                        parallel: false,
                        ..SolveConfig::new(Algorithm::Gta)
                    },
                )
                .assignment
            };
            prop_assert_eq!(run(), run());
        }
    }

    #[test]
    fn random_assignment_is_valid_for_any_seed(
        instance in arb_instance(),
        seed in 0u64..1000,
    ) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        random_assignment(&mut ctx, seed);
        prop_assert!(ctx.to_assignment().validate(&instance).is_ok());
    }

    #[test]
    fn game_context_invariants_hold_under_random_strategy_sequences(
        instance in arb_instance(),
        ops in prop::collection::vec((0u16..u16::MAX, 0u16..u16::MAX, prop::bool::ANY), 1..40),
    ) {
        // After ANY sequence of set_strategy calls, the cached occupancy
        // mask must equal the OR of the selected strategies' masks, and the
        // cached payoffs must equal a fresh recomputation from the space.
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        for (w, pick, clear) in ops {
            let local = w as usize % ctx.n_workers();
            if clear {
                ctx.set_strategy(local, None);
            } else {
                let avail: Vec<(u32, f64)> = ctx.available_strategies(local).collect();
                if !avail.is_empty() {
                    let (idx, _) = avail[pick as usize % avail.len()];
                    ctx.set_strategy(local, Some(idx));
                }
            }
            let mut expect_taken = 0u128;
            let mut expect_total = 0.0;
            for l in 0..ctx.n_workers() {
                let expect_payoff = match ctx.selection(l) {
                    Some(idx) => {
                        expect_taken |= s.pool[idx as usize].mask;
                        s.payoff_of(l, idx).expect("selected strategy must stay valid")
                    }
                    None => 0.0,
                };
                prop_assert_eq!(ctx.payoff(l), expect_payoff, "worker {}", l);
                expect_total += expect_payoff;
            }
            prop_assert_eq!(ctx.taken_mask(), expect_taken);
            prop_assert!((ctx.total_payoff() - expect_total).abs() < 1e-9);
        }
    }

    /// Engine-equivalence property (the fast path's correctness contract):
    /// for any sound IAU weights (`α ≥ 0`, `β < 1`), the monotone fast
    /// path must reproduce the exhaustive engines *bit for bit* — same
    /// selections, same per-round trace summaries, same payoff vectors.
    #[test]
    fn fastpath_engine_is_bit_identical_for_sound_iau_weights(
        instance in arb_instance(),
        alpha in 0.0f64..4.0,
        beta in 0.0f64..1.0,
    ) {
        let iau = fta_core::iau::IauParams { alpha, beta };
        prop_assert!(fta_algorithms::fastpath_sound(iau));
        let s = space(&instance);
        let run = |engine| {
            let mut ctx = GameContext::new(&s);
            let trace = fgt(&mut ctx, &FgtConfig { iau, engine, ..FgtConfig::default() });
            let selections: Vec<Option<u32>> =
                (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect();
            let payoff_bits: Vec<u64> =
                (0..ctx.n_workers()).map(|l| ctx.payoff(l).to_bits()).collect();
            let summaries: Vec<(usize, u64, u64)> = trace
                .rounds
                .iter()
                .map(|r| (r.moves, r.payoff_difference.to_bits(), r.average_payoff.to_bits()))
                .collect();
            (selections, payoff_bits, summaries, trace.converged)
        };
        let rebuild = run(fta_algorithms::BestResponseEngine::Rebuild);
        let incremental = run(fta_algorithms::BestResponseEngine::Incremental);
        let fastpath = run(fta_algorithms::BestResponseEngine::FastPath);
        // The rebuild engine recomputes round summaries from scratch while
        // the incremental engines maintain them, so their summary *floats*
        // may differ by an ulp; selections, payoffs, move counts, and
        // convergence must still agree exactly.
        prop_assert_eq!(&rebuild.0, &incremental.0, "rebuild selections diverged");
        prop_assert_eq!(&rebuild.1, &incremental.1, "rebuild payoffs diverged");
        let moves =
            |r: &EngineRun| r.2.iter().map(|&(m, _, _)| m).collect::<Vec<usize>>();
        prop_assert_eq!(moves(&rebuild), moves(&incremental), "rebuild moves diverged");
        prop_assert_eq!(rebuild.3, incremental.3, "rebuild convergence diverged");
        // The fast path mirrors the incremental engine's rival structure
        // operation for operation, so it must be bit-identical to it —
        // trace summaries included.
        prop_assert_eq!(&incremental, &fastpath, "fastpath diverged");
    }

    /// Concave IAU weights (`β ≥ 1`, where a worker can prefer a *lower*
    /// payoff to shed guilt): the fast path evaluates only the candidates
    /// around the utility's peak, and must still reproduce the exhaustive
    /// engines — FGT and PFGT alike.
    #[test]
    fn fastpath_engine_is_bit_identical_for_concave_iau_weights(
        instance in arb_instance(),
        alpha in 0.0f64..3.0,
        beta in 1.0f64..3.0,
    ) {
        let iau = fta_core::iau::IauParams { alpha, beta };
        prop_assert!(!fta_algorithms::fastpath_sound(iau));
        assert_fastpath_matches_oracles(&instance, iau, None, true);
        assert_fastpath_matches_oracles(&instance, iau, Some(PrioritySpec::ByWorker(tiered)), true);
    }

    /// The weights where the bracket's slack matters: `(0.5, 1.5)` puts the
    /// peak on an integral order statistic whenever `n−1 ≡ 0 (mod 4)`
    /// (a flat rival gap), `(0.5, 1.0)` leaves the last piece flat, and
    /// `(1, 1)` does both.
    #[test]
    fn fastpath_engine_is_bit_identical_at_pinned_averse_weights(
        instance in arb_instance(),
        pinned in 0usize..3,
    ) {
        let (alpha, beta) = [(0.5, 1.5), (0.5, 1.0), (1.0, 1.0)][pinned];
        let iau = fta_core::iau::IauParams { alpha, beta };
        assert_fastpath_matches_oracles(&instance, iau, None, false);
        assert_fastpath_matches_oracles(&instance, iau, Some(PrioritySpec::ByWorker(tiered)), false);
    }

    /// `α + β ≤ 0`: the IAU is convex or linear in the own payoff, so the
    /// fast path evaluates only null and the two extreme payoffs (or runs
    /// the monotone scan when every slope is still positive).
    #[test]
    fn fastpath_engine_is_bit_identical_for_convex_iau_weights(
        instance in arb_instance(),
        beta in -3.0f64..3.0,
        slack in 0.0f64..3.0,
    ) {
        let iau = fta_core::iau::IauParams { alpha: -beta - slack, beta };
        assert_fastpath_matches_oracles(&instance, iau, None, true);
        assert_fastpath_matches_oracles(&instance, iau, Some(PrioritySpec::ByWorker(tiered)), true);
    }
}
