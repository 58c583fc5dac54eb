//! `sim-day`: one journaled, fault-injected, incremental FGT day per
//! request.
//!
//! An 8 h day with a dispatch round every 15 minutes (32 rounds) over 20
//! centers, 400 couriers and 1 200 delivery points (60 per center, the
//! paper's density) at 2 400 orders per hour, under
//! `FaultPlan::stress`, each round solved in ten hash shards on the pool,
//! journaled with `DurableConfig::new` (fsync every
//! 8 frames, snapshot every 16 rounds). After every day the finished
//! journal is restored and must reproduce the day's metrics bit for bit.
//! Day `i` of a run uses scenario and fault seed `sub_seed(seed, i)`, so a
//! run's medians cover many days.

use crate::stats::{json_f64, median, paired_ratio, peak_rss_mb};
use crate::table1::{mean_quality, write_spans};
use crate::trace::Tracer;
use crate::{
    closed_loop, ms_since, recorder_ab, sub_seed, Ctx, Outcome, Quality, QUALITY_REQUESTS, SHARDS,
};
use fta_algorithms::{Algorithm, FgtConfig};
use fta_core::ShardBy;
use fta_sim::{
    restore, run, DayMetrics, DurableConfig, FaultPlan, Scenario, ScenarioConfig, SimConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

const HOURS: f64 = 8.0;

fn scenario(seed: u64) -> Scenario {
    let config = ScenarioConfig {
        n_centers: 20,
        n_workers: 400,
        n_delivery_points: 1200,
        extent: 10.0,
        arrival_rate: 2400.0,
        ..ScenarioConfig::default()
    };
    Scenario::generate(&config, HOURS, seed)
}

/// The day's configuration; `journal` adds durability.
fn sim_config(seed: u64, incremental: bool, journal: Option<&Path>) -> SimConfig {
    let mut config = SimConfig {
        horizon: HOURS,
        assignment_period: 0.25,
        parallel: true,
        ..SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
    }
    .with_faults(FaultPlan::stress(seed))
    .with_shards(SHARDS, ShardBy::Hash);
    if incremental {
        config = config.with_incremental();
    }
    if let Some(dir) = journal {
        config = config.with_durable(DurableConfig::new(dir));
    }
    config
}

fn quality(day: &DayMetrics) -> Quality {
    let fairness = day.earnings_fairness();
    Quality {
        p_dif: fairness.payoff_difference,
        avg_payoff: fairness.average_payoff,
        served_share: day.completion_rate(),
    }
}

/// The gate of one day: conserved task accounting, no degraded round, and
/// a restore of the finished journal that reproduces the day's metrics
/// bit for bit. Returns the restore time in ms.
fn check_day(scenario: &Scenario, config: &SimConfig, day: &DayMetrics) -> Result<f64, String> {
    if !day.is_conserved() {
        return Err("task accounting is not conserved".into());
    }
    if day.degraded_rounds > 0 {
        return Err(format!("{} rounds degraded", day.degraded_rounds));
    }
    let t = Instant::now();
    let (restored, _) = restore(scenario, config).map_err(|e| format!("restore failed: {e}"))?;
    let restore_ms = ms_since(t);
    // Debug output prints every float in shortest round-trip form, so
    // equal text means equal bits.
    if restored != *day || format!("{restored:?}") != format!("{day:?}") {
        return Err("restored day differs from the journaled day".into());
    }
    Ok(restore_ms)
}

/// The state of one run: which day comes next, and what the days so far
/// produced. Day `i` runs scenario and fault plan `sub_seed(seed, i)`.
struct Days {
    seed: u64,
    next: u64,
    work: PathBuf,
    setup_s: Vec<f64>,
    quality: Vec<Quality>,
    restore_ms: Vec<f64>,
    last: Option<DayMetrics>,
    /// Peak RSS once the quality days are done.
    rss_mb: f64,
}

impl Days {
    /// Restarts the day sequence, so that every phase of the traced run
    /// sees the same days.
    fn rewind(&mut self) {
        self.next = 0;
    }

    /// The next day's scenario (timed as set-up), its seed, and a fresh
    /// journal directory.
    fn prepare(&mut self) -> (Scenario, u64, PathBuf) {
        let day_seed = sub_seed(self.seed, self.next);
        self.next += 1;
        let t = Instant::now();
        let scenario = scenario(day_seed);
        self.setup_s.push(t.elapsed().as_secs_f64());
        let dir = self.work.join(format!("journal-{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        (scenario, day_seed, dir)
    }

    /// One journaled day, optionally run inside a span.
    fn request(&mut self, tracer: Option<&mut Tracer>) -> Result<(f64, Option<usize>), String> {
        let (scenario, day_seed, dir) = self.prepare();
        let config = sim_config(day_seed, true, Some(&dir));
        let (ms, root, day) = match tracer {
            None => {
                let t = Instant::now();
                let day = run(&scenario, &config);
                (ms_since(t), None, day)
            }
            Some(t) => {
                let (root, day) = t.request(|t| t.span("sim.run", |_| run(&scenario, &config)));
                (t.spans()[root].nanos() as f64 / 1e6, Some(root), day)
            }
        };
        let checked = check_day(&scenario, &config, &day);
        let _ = std::fs::remove_dir_all(&dir);
        self.restore_ms.push(checked?);
        if self.quality.len() < QUALITY_REQUESTS {
            self.quality.push(quality(&day));
            if self.quality.len() == QUALITY_REQUESTS {
                self.rss_mb = peak_rss_mb();
            }
        }
        self.last = Some(day);
        Ok((ms, root))
    }
}

/// Wall time of the first `n` days of the sequence without a journal,
/// each checked for conservation and degradation.
fn unjournaled_days(seed: u64, n: u64, incremental: bool) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|i| {
            let day_seed = sub_seed(seed, i);
            let scenario = scenario(day_seed);
            let config = sim_config(day_seed, incremental, None);
            let t = Instant::now();
            let day = run(&scenario, &config);
            let ms = ms_since(t);
            if !day.is_conserved() || day.degraded_rounds > 0 {
                return Err("unjournaled day failed its checks".into());
            }
            Ok(ms)
        })
        .collect()
}

pub fn run_workload(ctx: &Ctx) -> Outcome {
    let mut days = Days {
        seed: ctx.seed,
        next: 0,
        work: ctx.work.clone(),
        setup_s: Vec::new(),
        quality: Vec::new(),
        restore_ms: Vec::new(),
        last: None,
        rss_mb: f64::NAN,
    };
    if !ctx.trace {
        let measured = closed_loop(ctx.seconds, QUALITY_REQUESTS, |_| {
            days.request(None).map(|(ms, _)| ms)
        });
        let setup_s = median(&days.setup_s).unwrap_or(f64::NAN);
        return Outcome::end_to_end(measured, setup_s, mean_quality(&days.quality), days.rss_mb);
    }

    let mut out = Outcome::per_layer(ctx);
    let phase = ctx.seconds / 4.0;
    let plain = closed_loop(phase, 3, |_| days.request(None).map(|(ms, _)| ms));

    days.rewind();
    let mut tracer = Tracer::default();
    let mut roots = Vec::new();
    let traced = closed_loop(phase, 3, |_| {
        let (ms, root) = days.request(Some(&mut tracer))?;
        roots.extend(root);
        Ok(ms)
    });

    // The first three days again: cold and incremental without a
    // journal, against the journaled days of the first phase.
    let probe = 3;
    let cold = unjournaled_days(ctx.seed, probe, false);
    let incremental = unjournaled_days(ctx.seed, probe, true);
    let journaled = median(&plain.ms[..plain.ms.len().min(probe as usize)]);

    days.rewind();
    let (recorded, recorder_overhead, snapshots) = recorder_ab(0.0, 2, |repeat| {
        if repeat {
            days.next -= 1;
        }
        days.request(None).map(|(ms, _)| ms)
    });

    let r = &mut out.report;
    match (cold, incremental, journaled) {
        (Ok(cold), Ok(incremental), Some(journaled)) => {
            let incremental = median(&incremental).unwrap_or(f64::NAN);
            r.set("sim.day_cold_ms", median(&cold).unwrap_or(f64::NAN));
            r.set("sim.day_incremental_ms", incremental);
            r.set("durable.journal_overhead", journaled / incremental);
        }
        (Err(e), _, _) | (_, Err(e), _) => out.check_failures.push(e),
        _ => out.check_failures.push("no journaled day succeeded".into()),
    }
    if let Some(day) = &days.last {
        r.set("sim.rounds", day.rounds as f64);
        r.set("sim.degraded_rounds", day.degraded_rounds as f64);
        r.set("sim.tasks_arrived", day.tasks_arrived as f64);
    }
    // Journal counters of the recorded days, per day.
    let per_day = |name: &str| {
        let total: u64 = snapshots.iter().map(|s| s.counter(name)).sum();
        total as f64 / snapshots.len().max(1) as f64
    };
    r.set("durable.wal_bytes", per_day("wal.bytes"));
    r.set("durable.snapshots", per_day("wal.snapshots"));
    r.set(
        "durable.restore_ms",
        median(&days.restore_ms).unwrap_or(f64::NAN),
    );
    r.set("obs.recorder_overhead", recorder_overhead);
    r.set(
        "trace.coverage",
        median(&tracer.coverages(&roots)).unwrap_or(0.0),
    );
    r.set("trace.overhead", paired_ratio(&traced.ms, &plain.ms));
    out.details.push(("request_ms_p50", json_f64(plain.p50())));
    write_spans(ctx, &tracer, &mut out);
    for l in [&plain, &traced, &recorded] {
        out.tally.absorb(l);
    }
    out
}
