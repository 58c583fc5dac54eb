//! Geo-sharded scale-out: concurrent shard solves with cost-aware
//! scheduling.
//!
//! The paper's decomposition makes every distribution center an
//! independent subproblem; [`crate::solver::solve_with_pool`] already
//! exploits that with one pool job per center. At scale (hundreds of
//! centers, 10⁵+ workers) two things break down:
//!
//! * **Scheduling.** Center costs are heavy-tailed — one downtown
//!   "whale" center can cost more than fifty suburban ones. FIFO
//!   submission in center order lets such a whale start last and
//!   serialize the tail of the batch.
//! * **Memory.** Interleaving unrelated centers across threads churns
//!   the per-thread generation arenas (`fta_vdps::arena`): buffer sizes
//!   stop repeating, recycling misses, and 10⁵-worker instances thrash
//!   the allocator.
//!
//! This module groups centers into [`ShardPlan`] shards (hash or geo
//! k-means, see [`fta_core::shard`]) and submits **one job per shard**,
//! largest-estimated-cost first ([`TaskScope::map_prioritized`]). A
//! shard's centers solve consecutively on one pool thread — its arena
//! reuse stays coherent — while intra-center layer expansion still fans
//! out through the shared [`TaskScope`], so a whale center can use every
//! idle thread. Costs come from [`estimate_center_cost`]: the previous
//! round's measured [`CenterSolveSummary`] nanoseconds when available,
//! otherwise a closed-form estimate from DP and worker counts.
//!
//! **Determinism.** Shards only *group* work. Every center is solved by
//! the same `solve_center` call with the same center-id-salted seed, and
//! per-shard outcomes are merged back in global center order, so
//! [`solve_sharded`] is bit-identical to the sequential solve for every
//! algorithm and any shard count/partitioner (property-tested in
//! `tests/proptest_shard.rs`).
//!
//! [`ShardedSolver`] composes sharding with incremental re-solve: one
//! [`Solver`] cache per shard, resolved concurrently, so churn
//! warm-starts and the clean/warm/cold ladder fire per shard.

use crate::resolve::{CacheSeed, CenterSeed, ResolveStats, Solver};
use crate::solver::{
    install_exhaustion_hook, merge_outcomes, solve_center, CenterOutcome, CenterSolveSummary,
    SolveConfig, SolveOutcome,
};
use fta_core::instance::CenterView;
use fta_core::{CancelToken, CenterId, ChurnSet, Instance, ShardBy, ShardPlan};
use fta_vdps::{TaskScope, WorkerPool};
use std::collections::HashMap;

/// Estimated cost of solving one center, used to order shard jobs
/// largest-first. When `prior` carries the previous round's measured
/// work counters for this center (`vdps_nanos + assign_nanos > 0`),
/// those nanoseconds are the estimate; otherwise the cost is a
/// closed-form proxy — the number of candidate DP subsets up to the
/// effective length cap, times the workers that will validate them.
/// Only relative magnitudes matter: costs order work, they never change
/// results.
#[must_use]
pub fn estimate_center_cost(
    instance: &Instance,
    view: &CenterView,
    config: &SolveConfig,
    prior: Option<&CenterSolveSummary>,
) -> u64 {
    if let Some(p) = prior {
        let measured = p.vdps_nanos.saturating_add(p.assign_nanos);
        if measured > 0 {
            return measured;
        }
    }
    let d = view.dps.len() as u64;
    let w = view.workers.len() as u64;
    let center_max_dp = view
        .workers
        .iter()
        .map(|&x| instance.workers[x.index()].max_dp)
        .max()
        .unwrap_or(0);
    let len_cap = (config.vdps.max_len.min(center_max_dp) as u64).min(d);
    let mut subsets: u64 = 0;
    for l in 1..=len_cap {
        subsets = subsets.saturating_add(binomial_capped(d, l));
    }
    subsets.max(1).saturating_mul(w.max(1)).saturating_add(d)
}

/// C(n, k), saturating at 2⁴⁰ — beyond that the ordering is settled and
/// exact magnitudes stop mattering.
fn binomial_capped(n: u64, k: u64) -> u64 {
    const CAP: u64 = 1 << 40;
    let k = k.min(n - k);
    let mut c: u64 = 1;
    for i in 0..k {
        // Multiply-before-divide over consecutive integers stays exact.
        c = c.saturating_mul(n - i) / (i + 1);
        if c >= CAP {
            return CAP;
        }
    }
    c
}

/// One shard's slice of the instance: `(global view index, view, cost)`
/// per center, in ascending view order.
type ShardGroup = Vec<(usize, CenterView, u64)>;

/// Partitions the instance's center views into per-shard groups with
/// per-center cost estimates attached.
fn group_views(
    instance: &Instance,
    views: Vec<CenterView>,
    plan: &ShardPlan,
    config: &SolveConfig,
    prior: Option<&[CenterSolveSummary]>,
) -> Vec<ShardGroup> {
    let prior_by_center: HashMap<CenterId, &CenterSolveSummary> =
        prior.unwrap_or(&[]).iter().map(|s| (s.center, s)).collect();
    let mut groups: Vec<ShardGroup> = vec![Vec::new(); plan.shard_count()];
    for (gi, view) in views.into_iter().enumerate() {
        let cost = estimate_center_cost(
            instance,
            &view,
            config,
            prior_by_center.get(&view.center).copied(),
        );
        groups[plan.shard_of(view.center) as usize].push((gi, view, cost));
    }
    groups
}

/// Percentage by which the heaviest load exceeds the mean (0 when empty
/// or all-zero): the shard-balance figure of merit.
fn imbalance_pct(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 0.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    (max / mean - 1.0) * 100.0
}

/// Emits the shard telemetry: `shard.count` / `shard.centers` counters
/// and the `shard.imbalance_pct` gauge (max-aggregated across solves).
fn emit_shard_telemetry(plan: &ShardPlan, groups: &[ShardGroup]) {
    if !fta_obs::enabled() {
        return;
    }
    fta_obs::counter("shard.count", plan.shard_count() as u64);
    fta_obs::counter("shard.centers", groups.iter().map(|g| g.len() as u64).sum());
    let loads: Vec<u64> = groups
        .iter()
        .map(|g| g.iter().fold(0u64, |acc, e| acc.saturating_add(e.2)))
        .collect();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fta_obs::gauge_max("shard.imbalance_pct", imbalance_pct(&loads).round() as u64);
}

/// Like [`solve_sharded`], on a caller-provided pool, optionally seeded
/// with the previous round's per-center summaries as the cost model.
///
/// Shards are submitted heaviest-first and solved concurrently; within a
/// shard, centers run consecutively on one thread (heaviest first) and
/// their DP layer expansion shares `pool` via the nested [`TaskScope`].
/// Outcomes are merged in global center order, so the result is
/// bit-identical to [`crate::solver::solve_with_pool`] on the same
/// instance for any shard count, partitioner, or pool size.
#[must_use]
pub fn solve_sharded_with_pool(
    instance: &Instance,
    config: &SolveConfig,
    pool: &WorkerPool,
    shards: usize,
    by: ShardBy,
    prior: Option<&[CenterSolveSummary]>,
) -> SolveOutcome {
    let _solve_span = fta_obs::span("solver.solve_sharded");
    install_exhaustion_hook();
    let token = if config.budget.is_unlimited() {
        None
    } else {
        Some(config.budget.token())
    };
    let cancel = token.as_ref();
    let views = instance.center_views();
    let aggregates = instance.dp_aggregates();
    let plan = ShardPlan::build(&instance.centers, shards, by);
    let groups = group_views(instance, views, &plan, config, prior);
    emit_shard_telemetry(&plan, &groups);

    let per_shard: Vec<Vec<(usize, CenterOutcome)>> = pool.scope(|ts| {
        let aggregates = &aggregates;
        let jobs: Vec<(u64, _)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(si, mut group)| {
                // Whales first inside the shard too: their nested layer
                // parallelism overlaps the batch instead of trailing it.
                group.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
                let shard_cost = group.iter().fold(0u64, |acc, e| acc.saturating_add(e.2));
                let job = move |ts: &TaskScope<'_>| {
                    let _shard_span = fta_obs::span_center("solver.shard", si as u32);
                    group
                        .into_iter()
                        .map(|(gi, view, _)| {
                            let outcome = solve_center(
                                instance,
                                aggregates,
                                view,
                                config,
                                Some(ts),
                                cancel,
                                false,
                            )
                            .0;
                            (gi, outcome)
                        })
                        .collect::<Vec<_>>()
                };
                (shard_cost, job)
            })
            .collect();
        ts.map_prioritized(jobs)
    });

    let mut indexed: Vec<(usize, CenterOutcome)> = per_shard.into_iter().flatten().collect();
    indexed.sort_by_key(|&(gi, _)| gi);
    let budget_cancelled = token.as_ref().is_some_and(CancelToken::is_cancelled);
    let mut merged = merge_outcomes(
        indexed.into_iter().map(|(_, o)| o).collect(),
        budget_cancelled,
    );
    for summary in &mut merged.centers {
        summary.shard = Some(plan.shard_of(summary.center));
    }
    merged
}

/// Sharded multi-center solve: groups centers into `shards` shards with
/// partitioner `by` and solves them concurrently with cost-aware
/// scheduling. Bit-identical to [`crate::solver::solve`] on the same
/// instance and config. With `config.parallel` the pool is bounded by
/// `available_parallelism()`; otherwise everything runs inline (the
/// shard layer then only adds attribution).
#[must_use]
pub fn solve_sharded(
    instance: &Instance,
    config: &SolveConfig,
    shards: usize,
    by: ShardBy,
) -> SolveOutcome {
    let pool = if config.parallel {
        WorkerPool::new()
    } else {
        WorkerPool::sequential()
    };
    solve_sharded_with_pool(instance, config, &pool, shards, by, None)
}

/// Sharded incremental re-solve: one [`Solver`] cache per shard, so
/// churn warm-starts compose with sharding. Each round the shard
/// solvers run concurrently (cost-aware, heaviest shard first), each
/// walking its centers down the clean/warm/cold ladder exactly as a
/// single [`Solver`] would — the `solve.centers_{clean,warm,cold}`
/// counters fire once per round, summed over shards. Results are merged
/// in global center order: for deterministic algorithms the round is
/// bit-identical to an unsharded [`Solver`], for the iterative games it
/// reaches the same equilibria because each center's cache evolves
/// identically.
pub struct ShardedSolver {
    config: SolveConfig,
    shards: usize,
    by: ShardBy,
    solvers: Vec<Solver>,
    last: ResolveStats,
    /// Previous round's merged summaries: the cost model for the next
    /// round's scheduling.
    prior: Vec<CenterSolveSummary>,
}

impl ShardedSolver {
    /// A sharded solver with unprimed caches; the first
    /// [`ShardedSolver::resolve`] call primes them.
    #[must_use]
    pub fn new(config: SolveConfig, shards: usize, by: ShardBy) -> Self {
        Self {
            config,
            shards,
            by,
            solvers: Vec::new(),
            last: ResolveStats::default(),
            prior: Vec::new(),
        }
    }

    /// The configuration every round is solved under.
    #[must_use]
    pub fn config(&self) -> &SolveConfig {
        &self.config
    }

    /// Whether any shard currently holds cache entries.
    #[must_use]
    pub fn is_primed(&self) -> bool {
        self.solvers.iter().any(Solver::is_primed)
    }

    /// The clean/warm/cold distribution of the most recent call, summed
    /// over shards.
    #[must_use]
    pub fn last_stats(&self) -> ResolveStats {
        self.last
    }

    /// Drops every shard's cache, forcing the next round fully cold.
    pub fn invalidate(&mut self) {
        self.solvers.clear();
        self.prior.clear();
    }

    /// Exports the cached equilibria of every shard as one [`CacheSeed`]
    /// (sorted by center, so it is interchangeable with an unsharded
    /// [`Solver::cache_seed`] of the same round), or `None` when no
    /// shard is primed.
    #[must_use]
    pub fn cache_seed(&self) -> Option<CacheSeed> {
        let mut centers: Vec<CenterSeed> = self
            .solvers
            .iter()
            .filter_map(Solver::cache_seed)
            .flat_map(|s| s.centers)
            .collect();
        if centers.is_empty() {
            return None;
        }
        centers.sort_by_key(|c| c.center);
        Some(CacheSeed { centers })
    }

    /// Rebuilds every shard's cache from a journaled round (the sharded
    /// counterpart of [`Solver::rehydrate`]): the seed is partitioned by
    /// the shard plan of `instance` and each shard rehydrates its own
    /// slice. All-or-nothing: if any shard's slice fails to fit, every
    /// shard is left unprimed and `false` is returned (the next round
    /// solves cold, which is always safe).
    pub fn rehydrate(&mut self, instance: &Instance, keys: &[u64], seed: &CacheSeed) -> bool {
        let plan = ShardPlan::build(&instance.centers, self.shards, self.by);
        self.solvers = (0..plan.shard_count())
            .map(|_| Solver::new(self.config))
            .collect();
        self.prior.clear();
        let mut per_shard: Vec<Vec<CenterSeed>> = vec![Vec::new(); plan.shard_count()];
        for c in &seed.centers {
            let idx = c.center as usize;
            if idx >= instance.centers.len() {
                self.solvers.clear();
                return false;
            }
            per_shard[plan.shard_of(CenterId::from_index(idx)) as usize].push(c.clone());
        }
        for (solver, centers) in self.solvers.iter_mut().zip(per_shard) {
            if centers.is_empty() {
                continue;
            }
            if !solver.rehydrate(instance, keys, &CacheSeed { centers }) {
                self.solvers.clear();
                return false;
            }
        }
        self.is_primed()
    }

    /// Incremental sharded re-solve of `instance` given what changed
    /// since the cached round. See the type docs; the semantics per
    /// center are those of [`Solver::resolve`].
    pub fn resolve(&mut self, instance: &Instance, churn: &ChurnSet) -> SolveOutcome {
        // Configurations that can never cache (bounded budget, panic
        // injection) take the plain sharded solve — same fallback rule as
        // the unsharded Solver.
        if !self.config.budget.is_unlimited() || self.config.inject_panic.is_some() {
            self.solvers.clear();
            let pool = self.pool();
            let prior = std::mem::take(&mut self.prior);
            let out = solve_sharded_with_pool(
                instance,
                &self.config,
                &pool,
                self.shards,
                self.by,
                if prior.is_empty() { None } else { Some(&prior) },
            );
            self.last = ResolveStats {
                centers_cold: out.centers.len(),
                ..ResolveStats::default()
            };
            self.last.publish();
            self.prior = out.centers.clone();
            return out;
        }

        let _span = fta_obs::span("solver.resolve_sharded");
        let identity: Vec<u64>;
        let keys: &[u64] = if churn.worker_keys.len() == instance.workers.len() {
            &churn.worker_keys
        } else {
            identity = (0..instance.workers.len() as u64).collect();
            &identity
        };
        let views = instance.center_views();
        let n_views = views.len();
        let aggregates = instance.dp_aggregates();
        let plan = ShardPlan::build(&instance.centers, self.shards, self.by);
        if self.solvers.len() != plan.shard_count() {
            self.solvers = (0..plan.shard_count())
                .map(|_| Solver::new(self.config))
                .collect();
        }
        let groups = group_views(instance, views, &plan, &self.config, Some(&self.prior));
        emit_shard_telemetry(&plan, &groups);

        let pool = self.pool();
        let solvers = std::mem::take(&mut self.solvers);
        type ShardResult = (Solver, Vec<(usize, CenterOutcome)>, Vec<&'static str>);
        let results: Vec<ShardResult> = pool.scope(|ts| {
            let aggregates = &aggregates;
            let jobs: Vec<(u64, _)> = solvers
                .into_iter()
                .zip(groups)
                .enumerate()
                .map(|(si, (mut solver, group))| {
                    let shard_cost = group.iter().fold(0u64, |acc, e| acc.saturating_add(e.2));
                    let job = move |_ts: &TaskScope<'_>| {
                        let _shard_span = fta_obs::span_center("solver.shard", si as u32);
                        let mut gis = Vec::with_capacity(group.len());
                        let mut shard_views = Vec::with_capacity(group.len());
                        for (gi, view, _) in group {
                            gis.push(gi);
                            shard_views.push(view);
                        }
                        let (outcomes, paths) =
                            solver.resolve_views(instance, keys, shard_views, aggregates);
                        (solver, gis.into_iter().zip(outcomes).collect(), paths)
                    };
                    (shard_cost, job)
                })
                .collect();
            ts.map_prioritized(jobs)
        });

        let mut stats = ResolveStats::default();
        let mut paths_by_view: Vec<&'static str> = vec!["cold"; n_views];
        let mut indexed: Vec<(usize, CenterOutcome)> = Vec::with_capacity(n_views);
        for (solver, outcomes, paths) in results {
            let s = solver.last_stats();
            stats.centers_clean += s.centers_clean;
            stats.centers_warm += s.centers_warm;
            stats.centers_cold += s.centers_cold;
            stats.warm_adopted += s.warm_adopted;
            stats.warm_rejected += s.warm_rejected;
            self.solvers.push(solver);
            for ((gi, outcome), path) in outcomes.into_iter().zip(paths) {
                paths_by_view[gi] = path;
                indexed.push((gi, outcome));
            }
        }
        indexed.sort_by_key(|&(gi, _)| gi);
        let mut merged = merge_outcomes(indexed.into_iter().map(|(_, o)| o).collect(), false);
        for (summary, path) in merged.centers.iter_mut().zip(paths_by_view) {
            summary.resolve_path = path;
            summary.shard = Some(plan.shard_of(summary.center));
        }
        self.last = stats;
        stats.publish();
        self.prior = merged.centers.clone();
        merged
    }

    fn pool(&self) -> WorkerPool {
        if self.config.parallel {
            WorkerPool::new()
        } else {
            WorkerPool::sequential()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Algorithm};
    use crate::Solver;
    use fta_core::ChurnSet;
    use fta_data::{generate_syn, SynConfig};

    fn instance(n_centers: usize, seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers,
                n_workers: n_centers * 8,
                n_tasks: n_centers * 60,
                n_delivery_points: n_centers * 12,
                extent: 4.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    #[test]
    fn sharded_solve_is_bit_identical_to_sequential() {
        let inst = instance(6, 11);
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(crate::MptaConfig::default()),
            Algorithm::Random { seed: 5 },
            Algorithm::Fgt(crate::FgtConfig::default()),
        ] {
            let config = SolveConfig::new(algorithm);
            let baseline = solve(&inst, &config);
            for shards in [1, 2, 3, 6, 17] {
                for by in [ShardBy::Hash, ShardBy::Geo] {
                    let sharded = solve_sharded(&inst, &config, shards, by);
                    assert_eq!(
                        sharded.assignment,
                        baseline.assignment,
                        "{} diverged at {shards} shards ({by:?})",
                        algorithm.name()
                    );
                    assert_eq!(
                        sharded.gen_stats.work_counters(),
                        baseline.gen_stats.work_counters()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_summaries_carry_shard_attribution() {
        let inst = instance(5, 3);
        let config = SolveConfig::new(Algorithm::Gta);
        let plan = ShardPlan::build(&inst.centers, 2, ShardBy::Geo);
        let outcome = solve_sharded(&inst, &config, 2, ShardBy::Geo);
        assert!(!outcome.centers.is_empty());
        for summary in &outcome.centers {
            assert_eq!(summary.shard, Some(plan.shard_of(summary.center)));
        }
        let unsharded = solve(&inst, &config);
        assert!(unsharded.centers.iter().all(|s| s.shard.is_none()));
    }

    #[test]
    fn sharded_solver_composes_with_churn_warm_starts() {
        let inst = instance(6, 21);
        let config = SolveConfig::new(Algorithm::Gta);
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();

        let mut flat = Solver::new(config);
        let mut sharded = ShardedSolver::new(config, 3, ShardBy::Geo);

        // Round 1: cold prime on both.
        let churn = ChurnSet::empty(keys.len());
        let a = flat.resolve(&inst, &churn);
        let b = sharded.resolve(&inst, &churn);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(
            flat.last_stats().centers_cold,
            sharded.last_stats().centers_cold
        );
        assert!(sharded.is_primed());

        // Round 2, unchanged instance: every center must come back clean
        // from its shard's cache, matching the unsharded ladder.
        let a2 = flat.resolve(&inst, &churn);
        let b2 = sharded.resolve(&inst, &churn);
        assert_eq!(a2.assignment, b2.assignment);
        assert_eq!(flat.last_stats(), sharded.last_stats());
        assert_eq!(
            sharded.last_stats().centers_clean,
            a2.centers.len(),
            "unchanged round must be fully clean"
        );
        assert!(b2.centers.iter().all(|s| s.resolve_path == "clean"));

        // Round 3: perturb one worker; its center fails the bitwise
        // clean check and goes warm or cold, everything else stays
        // clean — identically on both.
        let mut moved = inst.clone();
        moved.workers[0].location.x += 0.25;
        let a3 = flat.resolve(&moved, &churn);
        let b3 = sharded.resolve(&moved, &churn);
        assert_eq!(a3.assignment, b3.assignment);
        assert_eq!(flat.last_stats(), sharded.last_stats());
        assert!(sharded.last_stats().centers_clean > 0);
        assert!(sharded.last_stats().centers_warm + sharded.last_stats().centers_cold > 0);
    }

    #[test]
    fn sharded_cache_seed_round_trips_through_rehydrate() {
        let inst = instance(4, 9);
        let config = SolveConfig::new(Algorithm::Fgt(crate::FgtConfig::default()));
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();
        let churn = ChurnSet::empty(keys.len());

        let mut live = ShardedSolver::new(config, 2, ShardBy::Hash);
        live.resolve(&inst, &churn);
        let seed = live.cache_seed().expect("primed solver exports a seed");

        let mut recovered = ShardedSolver::new(config, 2, ShardBy::Hash);
        assert!(recovered.rehydrate(&inst, &keys, &seed));
        let a = live.resolve(&inst, &churn);
        let b = recovered.resolve(&inst, &churn);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(live.last_stats(), recovered.last_stats());
    }

    #[test]
    fn cost_estimates_prefer_measured_nanos() {
        let inst = instance(2, 2);
        let views = inst.center_views();
        let config = SolveConfig::new(Algorithm::Gta);
        let blind = estimate_center_cost(&inst, &views[0], &config, None);
        assert!(blind > 0);
        let outcome = solve(&inst, &config);
        let with_prior = estimate_center_cost(&inst, &views[0], &config, Some(&outcome.centers[0]));
        assert_eq!(
            with_prior,
            outcome.centers[0].vdps_nanos + outcome.centers[0].assign_nanos
        );
    }

    #[test]
    fn binomials_saturate_instead_of_overflowing() {
        assert_eq!(binomial_capped(6, 2), 15);
        assert_eq!(binomial_capped(128, 64), 1 << 40);
        assert_eq!(binomial_capped(5, 0), 1);
    }
}
