//! `cold-table1` and `averse-table1`: one FGT dispatch round over a city
//! at the paper's Table I defaults (50 centers, 2 000 workers, 100 000
//! tasks, 5 000 delivery points, e = 2 h, maxDP = 3, ε = 2 km).
//!
//! * `cold-table1` is the round `fta solve --algo fgt --parallel --out`
//!   performs: load the instance file, solve on the pool, validate,
//!   compute fairness, write the assignment (α = β = 0.5).
//! * `averse-table1` takes the city from memory and solves at α = 0.5,
//!   β = 1.5, where the monotone fast path is unsound and best response
//!   runs on the incremental rival-set engine.
//!
//! Request `i` of a run dispatches city `sub_seed(seed, i)`: a run sees
//! many cities, so its medians do not hinge on one city's geometry. The
//! city is generated (and, for `cold-table1`, written to disk) before the
//! request starts; that preparation is the workload's set-up.

use crate::stats::{json_f64, median, paired_ratio, peak_rss_mb};
use crate::trace::{self, Tracer};
use crate::{
    closed_loop, ms_since, recorder_ab, sub_seed, Ctx, Outcome, Quality, QUALITY_REQUESTS,
};
use fta_algorithms::{fgt, solve_with_pool, Algorithm, FgtConfig, GameContext, SolveConfig};
use fta_core::{Assignment, IauParams, Instance, WorkerId};
use fta_data::io::{load_instance, save_assignment, save_instance};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{generate_c_vdps, StrategySpace, VdpsConfig, WorkerPool};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Variant {
    Cold,
    Averse,
}

fn fgt_config(variant: Variant) -> FgtConfig {
    let beta = match variant {
        Variant::Cold => 0.5,
        Variant::Averse => 1.5,
    };
    FgtConfig {
        iau: IauParams { alpha: 0.5, beta },
        ..FgtConfig::default()
    }
}

pub fn solve_config(variant: Variant) -> SolveConfig {
    SolveConfig {
        vdps: VdpsConfig::default(),
        parallel: true,
        ..SolveConfig::new(Algorithm::Fgt(fgt_config(variant)))
    }
}

/// The Table I city for `seed`.
pub fn city(seed: u64) -> Instance {
    generate_syn(&SynConfig::paper_scale(), seed)
}

fn all_workers(instance: &Instance) -> Vec<WorkerId> {
    instance.workers.iter().map(|w| w.id).collect()
}

/// Fairness and coverage of an assignment over every worker of the city.
pub fn quality(instance: &Instance, assignment: &Assignment) -> Quality {
    let fairness = assignment.fairness(instance, &all_workers(instance));
    let aggregates = instance.dp_aggregates();
    let served: usize = assignment
        .iter()
        .flat_map(|(_, route)| route.dps())
        .map(|dp| aggregates[dp.index()].task_count)
        .sum();
    Quality {
        p_dif: fairness.payoff_difference,
        avg_payoff: fairness.average_payoff,
        served_share: served as f64 / instance.tasks.len().max(1) as f64,
    }
}

/// Mean of each quality metric.
pub fn mean_quality(qs: &[Quality]) -> Quality {
    let n = qs.len() as f64;
    let mean = |f: fn(&Quality) -> f64| qs.iter().map(f).sum::<f64>() / n;
    Quality {
        p_dif: mean(|q| q.p_dif),
        avg_payoff: mean(|q| q.avg_payoff),
        served_share: mean(|q| q.served_share),
    }
}

/// The state of one run: which city comes next, and what the requests
/// so far produced.
struct Round {
    variant: Variant,
    config: SolveConfig,
    seed: u64,
    next: u64,
    instance_path: PathBuf,
    out_path: PathBuf,
    setup_s: Vec<f64>,
    quality: Vec<Quality>,
    /// Peak RSS once the quality requests are done.
    rss_mb: f64,
}

impl Round {
    /// Restarts the city sequence, so that every phase of the traced run
    /// sees the same cities.
    fn rewind(&mut self) {
        self.next = 0;
    }

    /// Generates the next city (and writes it, for `cold-table1`).
    fn prepare(&mut self) -> Instance {
        let t = Instant::now();
        let city = city(sub_seed(self.seed, self.next));
        self.next += 1;
        if self.variant == Variant::Cold {
            save_instance(&self.instance_path, &city).expect("write the instance file");
        }
        self.setup_s.push(t.elapsed().as_secs_f64());
        city
    }

    /// The correctness gate of one round: a valid assignment, and every
    /// center at the full ladder rung with no degradation event.
    fn check(
        &mut self,
        city: &Instance,
        assignment: &Assignment,
        degraded: bool,
    ) -> Result<(), String> {
        assignment
            .validate(city)
            .map_err(|e| format!("invalid assignment: {e}"))?;
        if degraded {
            return Err("a center was solved below the full rung".into());
        }
        if self.quality.len() < QUALITY_REQUESTS {
            self.quality.push(quality(city, assignment));
            if self.quality.len() == QUALITY_REQUESTS {
                self.rss_mb = peak_rss_mb();
            }
        }
        Ok(())
    }

    /// One untraced request on `pool`; returns (request ms, solve ms).
    fn request(&mut self, pool: &WorkerPool) -> Result<(f64, f64), String> {
        let city = self.prepare();
        let t0 = Instant::now();
        let loaded;
        let instance = match self.variant {
            Variant::Cold => {
                loaded = load_instance(&self.instance_path).map_err(|e| e.to_string())?;
                &loaded
            }
            Variant::Averse => &city,
        };
        let t_solve = Instant::now();
        let outcome = solve_with_pool(instance, &self.config, pool);
        let solve_ms = ms_since(t_solve);
        let valid = outcome.assignment.validate(instance);
        let fairness = outcome
            .assignment
            .fairness(instance, &all_workers(instance));
        if self.variant == Variant::Cold {
            save_assignment(&self.out_path, &outcome.assignment).map_err(|e| e.to_string())?;
        }
        let ms = ms_since(t0);
        std::hint::black_box(fairness);
        valid.map_err(|e| format!("invalid assignment: {e}"))?;
        self.check(&city, &outcome.assignment, outcome.is_degraded())?;
        Ok((ms, solve_ms))
    }

    /// One request decomposed into its public library calls, each in a
    /// span, at pool width 1 so that sibling spans never overlap.
    fn traced_request(&mut self, t: &mut Tracer) -> Result<(usize, LayerCounts), String> {
        let city = self.prepare();
        let variant = self.variant;
        let mut counts = LayerCounts {
            instance_bytes: std::fs::metadata(&self.instance_path).map_or(0, |m| m.len()),
            ..LayerCounts::default()
        };
        let fgt_cfg = fgt_config(variant);
        let vdps = self.config.vdps;
        let path = &self.instance_path;
        let out_path = &self.out_path;
        let (root, result) = t.request(|t| -> Result<(Cow<'_, Instance>, Assignment), String> {
            let instance = match variant {
                Variant::Cold => Cow::Owned(
                    t.span("data.load_instance", |_| load_instance(path))
                        .map_err(|e| e.to_string())?,
                ),
                Variant::Averse => Cow::Borrowed(&city),
            };
            let (views, aggregates) = t.span("core.index", |_| {
                (instance.center_views(), instance.dp_aggregates())
            });
            let mut assignment = Assignment::new();
            for view in views {
                // Mirrors the solver: subsets never exceed the largest
                // maxDP among the center's workers, and each center's
                // game seed is salted by its id.
                let center_max_dp = view
                    .workers
                    .iter()
                    .map(|w| instance.workers[w.index()].max_dp)
                    .max()
                    .unwrap_or(0);
                let cfg = VdpsConfig {
                    max_len: vdps.max_len.min(center_max_dp),
                    ..vdps
                };
                let (pool, gen_stats) = t.span("vdps.generate_c_vdps", |_| {
                    generate_c_vdps(&instance, &aggregates, &view, &cfg)
                });
                let space = t.span("vdps.strategy_space", |_| {
                    StrategySpace::from_pool(&instance, &view, pool, gen_stats)
                });
                counts.states += gen_stats.states;
                counts.extensions += gen_stats.extensions_tried;
                counts.sets += gen_stats.vdps_count;
                counts.slots += space.total_slots();
                let salt = u64::from(view.center.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let game_cfg = FgtConfig {
                    seed: fgt_cfg.seed ^ salt,
                    ..fgt_cfg
                };
                // The space is freed inside the span, as the solver frees
                // it at the end of each center's solve.
                let (part, br) = t.span("algorithms.game", move |_| {
                    let mut ctx = GameContext::new(&space);
                    let trace = fgt(&mut ctx, &game_cfg);
                    let part = ctx.to_assignment();
                    drop(ctx);
                    drop(space);
                    (part, trace.stats)
                });
                counts.br_rounds += br.rounds;
                counts.candidate_evaluations += br.candidate_evaluations;
                counts.candidates_scanned += br.candidates_scanned;
                counts.fastpath_rounds += br.fastpath_rounds;
                assignment.merge(part);
            }
            t.span("core.validate", |_| assignment.validate(&instance))
                .map_err(|e| format!("invalid assignment: {e}"))?;
            let fairness = t.span("core.fairness", |_| {
                assignment.fairness(&instance, &all_workers(&instance))
            });
            std::hint::black_box(fairness);
            if variant == Variant::Cold {
                t.span("data.save_assignment", |_| {
                    save_assignment(out_path, &assignment)
                })
                .map_err(|e| e.to_string())?;
            }
            Ok((instance, assignment))
        });
        let (_, assignment) = result?;
        // `Algorithm::salted` is crate-private, so the decomposed
        // equilibrium is checked for validity, not for identity with
        // `solve`'s.
        self.check(&city, &assignment, false)?;
        Ok((root, counts))
    }
}

/// Work counts of one decomposed request.
#[derive(Default, Clone, Copy)]
struct LayerCounts {
    instance_bytes: u64,
    states: usize,
    extensions: usize,
    sets: usize,
    slots: usize,
    br_rounds: u64,
    candidate_evaluations: u64,
    candidates_scanned: u64,
    fastpath_rounds: u64,
}

pub fn run(ctx: &Ctx, variant: Variant) -> Outcome {
    let mut round = Round {
        variant,
        config: solve_config(variant),
        seed: ctx.seed,
        next: 0,
        instance_path: ctx.work.join("instance.json"),
        out_path: ctx.work.join("assignment.json"),
        setup_s: Vec::new(),
        quality: Vec::new(),
        rss_mb: f64::NAN,
    };
    let pool = WorkerPool::with_threads(ctx.width);
    if !ctx.trace {
        let measured = closed_loop(ctx.seconds, QUALITY_REQUESTS, |_| {
            round.request(&pool).map(|(ms, _)| ms)
        });
        let setup_s = median(&round.setup_s).unwrap_or(f64::NAN);
        return Outcome::end_to_end(
            measured,
            setup_s,
            mean_quality(&round.quality),
            round.rss_mb,
        );
    }
    traced(ctx, &mut round, &pool)
}

/// The traced run: pooled and sequential untraced phases, the decomposed
/// traced phase and a phase alternating the `fta-obs` recorder off and
/// on, each over the same cities, then (cold only) the shipped binary.
fn traced(ctx: &Ctx, round: &mut Round, pool: &WorkerPool) -> Outcome {
    let mut out = Outcome::per_layer(ctx);
    let phase = ctx.seconds / 4.0;
    let mut solve_ms = Vec::new();
    let pooled = closed_loop(phase, 5, |_| {
        round.request(pool).map(|(ms, s)| {
            solve_ms.push(s);
            ms
        })
    });
    round.rewind();
    let sequential_pool = WorkerPool::sequential();
    let mut solve_seq_ms = Vec::new();
    let sequential = closed_loop(phase, 5, |_| {
        round.request(&sequential_pool).map(|(ms, s)| {
            solve_seq_ms.push(s);
            ms
        })
    });

    round.rewind();
    let mut tracer = Tracer::default();
    let mut roots = Vec::new();
    let mut counts = Vec::new();
    let traced = closed_loop(phase, 5, |_| {
        let (root, c) = round.traced_request(&mut tracer)?;
        roots.push(root);
        counts.push(c);
        Ok(tracer.spans()[root].nanos() as f64 / 1e6)
    });

    round.rewind();
    let (recorded, recorder_overhead, _) = recorder_ab(phase, 3, |repeat| {
        if repeat {
            round.next -= 1;
        }
        round.request(pool).map(|(ms, _)| ms)
    });

    let r = &mut out.report;
    let spans = tracer.spans();
    let per_request = |name: &str| median(&tracer.ms_in(&roots, name)).unwrap_or(0.0);
    let count = |f: fn(&LayerCounts) -> f64| {
        median(&counts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    if round.variant == Variant::Cold {
        let load_ms = tracer.ms_in(&roots, "data.load_instance");
        let mb_per_s: Vec<f64> = load_ms
            .iter()
            .zip(&counts)
            .map(|(ms, c)| c.instance_bytes as f64 / 1e3 / ms)
            .collect();
        r.set("data.load_ms", median(&load_ms).unwrap_or(0.0));
        r.set("data.load_mb_per_s", median(&mb_per_s).unwrap_or(0.0));
        r.set("data.save_ms", per_request("data.save_assignment"));
        match &ctx.fta_bin {
            Some(bin) => {
                match cli_process_ms(bin, &round.instance_path, &ctx.work.join("cli.json")) {
                    Ok(ms) => r.set("cli.process_ms", ms),
                    Err(e) => out.check_failures.push(e),
                }
            }
            None => out
                .check_failures
                .push("cli.process_ms needs --fta-bin".to_owned()),
        }
    }
    r.set("core.index_ms", per_request("core.index"));
    r.set("core.validate_ms", per_request("core.validate"));
    r.set("core.fairness_ms", per_request("core.fairness"));
    r.set("vdps.generate_ms", per_request("vdps.generate_c_vdps"));
    r.set("vdps.strategy_space_ms", per_request("vdps.strategy_space"));
    r.set("vdps.states", count(|c| c.states as f64));
    r.set("vdps.extensions", count(|c| c.extensions as f64));
    r.set("vdps.sets", count(|c| c.sets as f64));
    r.set("vdps.slots", count(|c| c.slots as f64));
    r.set("algorithms.game_ms", per_request("algorithms.game"));
    r.set("algorithms.br_rounds", count(|c| c.br_rounds as f64));
    r.set(
        "algorithms.candidate_evaluations",
        count(|c| c.candidate_evaluations as f64),
    );
    r.set(
        "algorithms.candidates_scanned",
        count(|c| c.candidates_scanned as f64),
    );
    r.set(
        "algorithms.fastpath_rounds",
        count(|c| c.fastpath_rounds as f64),
    );
    let solve = median(&solve_ms).unwrap_or(f64::NAN);
    let solve_seq = median(&solve_seq_ms).unwrap_or(f64::NAN);
    r.set("algorithms.solve_ms", solve);
    r.set("algorithms.solve_seq_ms", solve_seq);
    // Only an honest figure when the pool is no wider than the machine.
    if ctx.hw_threads >= ctx.width {
        r.set(
            "algorithms.parallel_efficiency",
            solve_seq / (solve * ctx.width as f64),
        );
    }
    r.set("obs.recorder_overhead", recorder_overhead);
    r.set(
        "trace.coverage",
        median(&tracer.coverages(&roots)).unwrap_or(0.0),
    );
    r.set("trace.overhead", paired_ratio(&traced.ms, &sequential.ms));
    let uncovered: Vec<f64> = roots
        .iter()
        .map(|&root| trace::self_ns(spans, root) as f64 / 1e6)
        .collect();
    out.details.push((
        "request_self_ms",
        json_f64(median(&uncovered).unwrap_or(0.0)),
    ));
    out.details
        .push(("request_ms_pooled_p50", json_f64(pooled.p50())));
    out.details
        .push(("request_ms_sequential_p50", json_f64(sequential.p50())));
    write_spans(ctx, &tracer, &mut out);
    for l in [&pooled, &sequential, &traced, &recorded] {
        out.tally.absorb(l);
    }
    out
}

/// Writes the traced run's spans into the benchmark's work directory.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let name = ctx
        .work
        .file_name()
        .map_or_else(|| "run".into(), |n| n.to_string_lossy().into_owned());
    let path = ctx.out.join(format!("spans-{name}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => out
            .details
            .push(("spans", crate::stats::json_str(&path.display().to_string()))),
        Err(e) => out
            .check_failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Median wall time of three `fta solve <instance> --algo fgt --parallel
/// --out <tmp>` processes, stdout discarded.
fn cli_process_ms(bin: &Path, instance: &Path, out: &Path) -> Result<f64, String> {
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let status = std::process::Command::new(bin)
            .arg("solve")
            .arg(instance)
            .args(["--algo", "fgt", "--parallel", "--out"])
            .arg(out)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        runs.push(ms_since(t));
        if !status.success() {
            return Err(format!("{} solve exited with {status}", bin.display()));
        }
    }
    median(&runs).ok_or_else(|| "no CLI runs".to_owned())
}
