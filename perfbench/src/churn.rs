//! `churn-table1`: the Table I city on a primed incremental
//! `ShardedSolver` (one `Solver` cache per shard, shards solved on the
//! pool), re-solved round after round under stationary, delivery-shaped
//! churn.
//!
//! Every center's delivery points are split into four slices by their
//! position within the center. At any time exactly one slice per center
//! is empty (delivered). Each round a rotating tenth of the centers is
//! active; an active center delivers its next slice (those delivery
//! points lose all their tasks) and the slice it delivered last time
//! receives its tasks again (arrivals). So each round about 2.5% of the
//! delivery points lose their tasks, the same number gain tasks, and the
//! number of tasks never drifts.

use crate::stats::{json_f64, median, peak_rss_mb};
use crate::table1::{self, Variant};
use crate::trace::Tracer;
use crate::{closed_loop, ms_since, recorder_ab, sub_seed, Ctx, Outcome, Quality, SHARDS};
use fta_algorithms::{
    solve_sharded_with_pool, ResolveStats, ShardedSolver, SolveConfig, SolveOutcome,
};
use fta_core::{ChurnSet, Instance, ShardBy, TaskId};
use fta_vdps::WorkerPool;
use std::time::Instant;

/// Slices per center; one of them is empty at any time.
const SLICES: usize = 4;
/// Rounds between two activations of the same center.
const ROTATION: usize = 10;
/// Rounds after which every center has cycled through all slices.
#[cfg(test)]
const CYCLE: usize = SLICES * ROTATION;

/// The churned round sequence of one city.
pub struct ChurnStream {
    base: Instance,
    /// Per delivery point: its slice within its center.
    slice_of: Vec<usize>,
    /// Per center: the slice that is currently empty.
    empty: Vec<usize>,
    round: usize,
}

impl ChurnStream {
    /// Starts in the steady state: every center has its last slice
    /// delivered.
    pub fn new(base: Instance) -> Self {
        let mut seen = vec![0usize; base.centers.len()];
        let slice_of = base
            .delivery_points
            .iter()
            .map(|dp| {
                let k = &mut seen[dp.center.index()];
                *k += 1;
                (*k - 1) % SLICES
            })
            .collect();
        let empty = vec![SLICES - 1; base.centers.len()];
        Self {
            base,
            slice_of,
            empty,
            round: 0,
        }
    }

    /// The instance of the current round: the city minus the tasks of
    /// every empty slice, task ids renumbered densely.
    pub fn current(&self) -> Instance {
        let base = &self.base;
        let mut next = Instance {
            centers: base.centers.clone(),
            workers: base.workers.clone(),
            delivery_points: base.delivery_points.clone(),
            tasks: Vec::with_capacity(base.tasks.len()),
            speed: base.speed,
        };
        for task in &self.base.tasks {
            let dp = task.delivery_point.index();
            let center = self.base.delivery_points[dp].center.index();
            if self.slice_of[dp] != self.empty[center] {
                let id = TaskId(next.tasks.len() as u32);
                next.tasks.push(fta_core::SpatialTask { id, ..*task });
            }
        }
        next
    }

    /// Moves to the next round: each active center refills its empty
    /// slice and delivers the next one.
    pub fn advance(&mut self) {
        self.round += 1;
        for (center, empty) in self.empty.iter_mut().enumerate() {
            if center % ROTATION == self.round % ROTATION {
                *empty = (*empty + 1) % SLICES;
            }
        }
    }
}

/// Per-round record for the stationarity check and the quality metrics.
#[derive(Clone, Copy)]
struct RoundRecord {
    stats: ResolveStats,
    tasks: usize,
    /// Only kept for each city's first [`ROTATION`] rounds.
    quality: Option<Quality>,
}

/// One per-round count of a [`RoundRecord`].
type Count = fn(&RoundRecord) -> usize;

/// Clean/warm/cold counts and task counts of the first quarter of the
/// rounds must match those of the last quarter, on average per round.
fn stationarity(records: &[RoundRecord]) -> Result<(), String> {
    let q = records.len() / 4;
    if q < ROTATION {
        return Err(format!(
            "{} rounds are too few to check stationarity",
            records.len()
        ));
    }
    let mean =
        |rs: &[RoundRecord], f: Count| rs.iter().map(f).sum::<usize>() as f64 / rs.len() as f64;
    let (first, last) = (&records[..q], &records[records.len() - q..]);
    let checks: [(&str, Count, f64); 4] = [
        ("clean centers", |r| r.stats.centers_clean, 0.5),
        ("warm centers", |r| r.stats.centers_warm, 0.5),
        ("cold centers", |r| r.stats.centers_cold, 0.5),
        ("tasks", |r| r.tasks, 0.01),
    ];
    for (what, f, tol) in checks {
        let (a, b) = (mean(first, f), mean(last, f));
        let allowed = if what == "tasks" { tol * a } else { tol };
        if (a - b).abs() > allowed {
            return Err(format!(
                "churn is not stationary: {what} per round {a:.2} in the first quarter, \
                 {b:.2} in the last"
            ));
        }
    }
    Ok(())
}

/// Cities a run churns side by side; request `i` re-solves a round of
/// city `i % CITIES`.
const CITIES: usize = 6;

/// The first rounds of a run: every city's first rotation. The quality
/// metrics average them and `peak_rss_mb` is read after them.
const QUALITY_ROUNDS: usize = CITIES * ROTATION;

/// One city's churn stream and the incremental solver primed on it.
struct City {
    solver: ShardedSolver,
    stream: ChurnStream,
    rounds: usize,
}

/// The cities of one run and what their rounds produced.
struct Churned {
    config: SolveConfig,
    cities: Vec<City>,
    next: usize,
    setup_s: Vec<f64>,
    /// Every checked round, in request order.
    records: Vec<RoundRecord>,
    /// Peak RSS once every city's quality rounds are done.
    rss_mb: f64,
}

impl Churned {
    /// Builds and primes every city; each city's set-up is timed.
    fn new(seed: u64) -> Self {
        let config = table1::solve_config(Variant::Cold);
        let mut setup_s = Vec::new();
        let cities = (0..CITIES)
            .map(|k| {
                let t = Instant::now();
                let stream = ChurnStream::new(table1::city(sub_seed(seed, k as u64)));
                let mut solver = ShardedSolver::new(config, SHARDS, ShardBy::Hash);
                let first = stream.current();
                let primed = solver.resolve(&first, &ChurnSet::empty(first.workers.len()));
                assert!(
                    primed.assignment.validate(&first).is_ok() && !primed.is_degraded(),
                    "priming solve failed"
                );
                setup_s.push(t.elapsed().as_secs_f64());
                City {
                    solver,
                    stream,
                    rounds: 0,
                }
            })
            .collect();
        Self {
            config,
            cities,
            next: 0,
            setup_s,
            records: Vec::new(),
            rss_mb: f64::NAN,
        }
    }

    /// Picks the next city and advances its stream; returns the city's
    /// index, the round's instance and its churn set (all built before
    /// the timed request).
    fn next_round(&mut self) -> (usize, Instance, ChurnSet) {
        let k = self.next % CITIES;
        self.next += 1;
        let city = &mut self.cities[k];
        city.stream.advance();
        let instance = city.stream.current();
        let churn = ChurnSet::empty(instance.workers.len());
        (k, instance, churn)
    }

    fn check(
        &mut self,
        k: usize,
        instance: &Instance,
        outcome: &SolveOutcome,
    ) -> Result<(), String> {
        let city = &mut self.cities[k];
        city.rounds += 1;
        outcome
            .assignment
            .validate(instance)
            .map_err(|e| format!("city {k} round {}: invalid assignment: {e}", city.rounds))?;
        if outcome.is_degraded() {
            return Err(format!(
                "city {k} round {}: a center was solved below the full rung",
                city.rounds
            ));
        }
        self.records.push(RoundRecord {
            stats: city.solver.last_stats(),
            tasks: instance.tasks.len(),
            quality: (city.rounds <= ROTATION)
                .then(|| table1::quality(instance, &outcome.assignment)),
        });
        if self.records.len() == QUALITY_ROUNDS {
            self.rss_mb = peak_rss_mb();
        }
        Ok(())
    }

    /// One untraced request: resolve, validate, fairness. Returns
    /// (request ms, resolve ms).
    fn request(&mut self) -> Result<(f64, f64), String> {
        let (k, instance, churn) = self.next_round();
        let t0 = Instant::now();
        let outcome = self.cities[k].solver.resolve(&instance, &churn);
        let resolve_ms = ms_since(t0);
        let valid = outcome.assignment.validate(&instance);
        let workers: Vec<_> = instance.workers.iter().map(|w| w.id).collect();
        std::hint::black_box(outcome.assignment.fairness(&instance, &workers));
        let ms = ms_since(t0);
        valid.map_err(|e| format!("invalid assignment: {e}"))?;
        self.check(k, &instance, &outcome)?;
        Ok((ms, resolve_ms))
    }

    fn traced_request(&mut self, t: &mut Tracer) -> Result<usize, String> {
        let (k, instance, churn) = self.next_round();
        let solver = &mut self.cities[k].solver;
        let (root, outcome) = t.request(|t| {
            let outcome = t.span("algorithms.resolve", |_| solver.resolve(&instance, &churn));
            let valid = t.span("core.validate", |_| outcome.assignment.validate(&instance));
            let workers: Vec<_> = instance.workers.iter().map(|w| w.id).collect();
            let fairness = t.span("core.fairness", |_| {
                outcome.assignment.fairness(&instance, &workers)
            });
            std::hint::black_box((valid.is_ok(), fairness));
            outcome
        });
        self.check(k, &instance, &outcome)?;
        Ok(root)
    }
}

fn mean_quality(records: &[RoundRecord]) -> Quality {
    let qs: Vec<Quality> = records.iter().filter_map(|r| r.quality).collect();
    table1::mean_quality(&qs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut churned = Churned::new(ctx.seed);
    let setup_s = median(&churned.setup_s).unwrap_or(f64::NAN);
    let min_rounds = QUALITY_ROUNDS;
    if !ctx.trace {
        let measured = closed_loop(ctx.seconds, min_rounds, |_| {
            churned.request().map(|(ms, _)| ms)
        });
        let mut out = Outcome::end_to_end(
            measured,
            setup_s,
            mean_quality(&churned.records),
            churned.rss_mb,
        );
        if let Err(e) = stationarity(&churned.records) {
            out.check_failures.push(e);
        }
        out.details
            .push(("rounds", churned.records.len().to_string()));
        return out;
    }

    let mut out = Outcome::per_layer(ctx);
    let phase = ctx.seconds / 3.0;
    let mut resolve_ms = Vec::new();
    let plain = closed_loop(phase, min_rounds, |_| {
        churned.request().map(|(ms, r)| {
            resolve_ms.push(r);
            ms
        })
    });
    let stats: Vec<ResolveStats> = churned.records.iter().map(|r| r.stats).collect();

    let mut tracer = Tracer::default();
    let mut roots = Vec::new();
    let traced = closed_loop(phase, min_rounds, |_| {
        let root = churned.traced_request(&mut tracer)?;
        roots.push(root);
        Ok(tracer.spans()[root].nanos() as f64 / 1e6)
    });

    // Rounds cannot be repeated, so each pair is two consecutive rounds
    // of the stationary stream.
    let (recorded, recorder_overhead, _) = recorder_ab(phase / 2.0, min_rounds / 2, |_| {
        churned.request().map(|(ms, _)| ms)
    });
    if let Err(e) = stationarity(&churned.records) {
        out.check_failures.push(e);
    }

    // Each city's latest round solved cold, with the shards and pool the
    // incremental solver uses.
    let pool = WorkerPool::new();
    let mut cold_ms = Vec::new();
    for city in &churned.cities {
        let instance = city.stream.current();
        let t0 = Instant::now();
        let outcome = solve_sharded_with_pool(
            &instance,
            &churned.config,
            &pool,
            SHARDS,
            ShardBy::Hash,
            None,
        );
        cold_ms.push(ms_since(t0));
        if outcome.assignment.validate(&instance).is_err() || outcome.is_degraded() {
            out.check_failures
                .push("cold-equivalent round failed its checks".into());
        }
    }

    let r = &mut out.report;
    let per_request = |name: &str| median(&tracer.ms_in(&roots, name)).unwrap_or(0.0);
    let med = |f: fn(&ResolveStats) -> usize| {
        median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let adopted: usize = stats.iter().map(|s| s.warm_adopted).sum();
    let rejected: usize = stats.iter().map(|s| s.warm_rejected).sum();
    r.set(
        "algorithms.resolve_ms",
        median(&resolve_ms).unwrap_or(f64::NAN),
    );
    r.set("algorithms.centers_clean", med(|s| s.centers_clean));
    r.set("algorithms.centers_warm", med(|s| s.centers_warm));
    r.set("algorithms.centers_cold", med(|s| s.centers_cold));
    r.set(
        "algorithms.warm_adopt_ratio",
        adopted as f64 / (adopted + rejected).max(1) as f64,
    );
    r.set(
        "algorithms.cold_equiv_ms",
        median(&cold_ms).unwrap_or(f64::NAN),
    );
    r.set("core.validate_ms", per_request("core.validate"));
    r.set("core.fairness_ms", per_request("core.fairness"));
    r.set("obs.recorder_overhead", recorder_overhead);
    r.set(
        "trace.coverage",
        median(&tracer.coverages(&roots)).unwrap_or(0.0),
    );
    r.set("trace.overhead", traced.p50() / plain.p50());
    out.details.push(("request_ms_p50", json_f64(plain.p50())));
    table1::write_spans(ctx, &tracer, &mut out);
    for l in [&plain, &traced, &recorded] {
        out.tally.absorb(l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_data::{generate_syn, SynConfig};

    fn small_city() -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 20,
                n_workers: 100,
                n_tasks: 4_000,
                n_delivery_points: 400,
                ..SynConfig::bench_scale()
            },
            3,
        )
    }

    #[test]
    fn rounds_are_valid_instances_with_a_constant_task_count() {
        let mut stream = ChurnStream::new(small_city());
        let first = stream.current();
        assert!(first.validate().is_ok());
        for _ in 0..2 * CYCLE {
            stream.advance();
            let inst = stream.current();
            assert!(inst.validate().is_ok());
            // One slice per center is always empty, so the count moves
            // only by the size differences between slices.
            let drift = (inst.tasks.len() as f64 - first.tasks.len() as f64).abs();
            assert!(drift < 0.05 * first.tasks.len() as f64, "drift {drift}");
        }
        // After a full cycle the stream is back where it started.
        let mut stream2 = ChurnStream::new(small_city());
        for _ in 0..CYCLE {
            stream2.advance();
        }
        assert_eq!(stream2.current().tasks, first.tasks);
    }

    #[test]
    fn each_round_churns_only_the_active_tenth_of_centers() {
        let mut stream = ChurnStream::new(small_city());
        let before = stream.current().dp_aggregates();
        stream.advance();
        let after = stream.current().dp_aggregates();
        let mut delivered = 0;
        let mut arrived = 0;
        for (dp, (b, a)) in before.iter().zip(&after).enumerate() {
            if b.task_count == a.task_count {
                continue;
            }
            let center = stream.base.delivery_points[dp].center.index();
            assert_eq!(center % ROTATION, 1, "dp {dp} of inactive center {center}");
            if a.task_count == 0 {
                delivered += 1;
            } else {
                arrived += 1;
            }
        }
        assert!(delivered > 0 && arrived > 0);
        let dps = before.len();
        // Roughly a tenth of the centers times a quarter of their points.
        assert!(delivered * 100 < dps * 5, "{delivered} of {dps}");
    }

    fn record(clean: usize, warm: usize, tasks: usize) -> RoundRecord {
        RoundRecord {
            stats: ResolveStats {
                centers_clean: clean,
                centers_warm: warm,
                ..ResolveStats::default()
            },
            tasks,
            quality: None,
        }
    }

    #[test]
    fn stationarity_flags_a_draining_run() {
        let steady: Vec<_> = (0..80).map(|_| record(45, 5, 1000)).collect();
        assert!(stationarity(&steady).is_ok());
        let draining: Vec<_> = (0..80).map(|i| record(45, 5, 1000 - 5 * i)).collect();
        assert!(stationarity(&draining).is_err());
        let mut shifting = steady.clone();
        for r in &mut shifting[60..] {
            r.stats.centers_clean = 40;
            r.stats.centers_warm = 10;
        }
        assert!(stationarity(&shifting).is_err());
        assert!(stationarity(&steady[..20]).is_err());
    }
}
