//! Writes `BENCH_br.json`: a machine-readable snapshot of the
//! best-response engine comparison (exhaustive rebuild vs incremental
//! rival-set vs fast path) across an `engine × n × |ST| × IAU weights`
//! grid, so the perf trajectory of the equilibrium-loop fast path is
//! tracked in-repo. Strategy spaces are built once per instance and every
//! engine runs FGT to convergence over the same spaces, so the timings
//! isolate the equilibrium loop from VDPS generation. Each instance runs
//! at the paper's weights (`α = β = 0.5`, the fast path's monotone rule)
//! and at `β = 1.5` (its peak rule); the `center` instance, one center
//! with 500 workers where the rival set's `O(n log n)` maintenance has the
//! most room to beat rebuilding, runs at `β = 1.5` only.
//!
//! Usage: `cargo run -p fta-bench --release --bin br_snapshot -- [OUT]`
//! (default OUT: `BENCH_br.json`). Set `FTA_BENCH_QUICK=1` to reduce the
//! repetition counts (CI smoke mode). In every mode the binary *asserts*
//! that the fast path is never slower than the incremental engine on any
//! row, at either weight — CI runs it in quick mode as a regression gate.
//!
//! The rows keep the paper's worker-to-delivery-point ratio (Table I:
//! 2 000 workers / 5 000 DPs / 50 centers) rather than an over-subscribed
//! shape: when supply is starved, workers without any available strategy
//! must exhaust their lists under every engine and no scan policy helps.
//! The `center` instance cannot keep it (a center holds at most 128
//! delivery points), so it caps routes at two points to keep its strategy
//! space small.

use fta_algorithms::{fgt, BestResponseEngine, BestResponseStats, FgtConfig, GameContext};
use fta_core::IauParams;
use fta_data::SynConfig;
use fta_vdps::{StrategySpace, VdpsConfig};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

struct Row {
    label: &'static str,
    n_centers: usize,
    n_workers: usize,
    n_dps: usize,
    max_dp: usize,
    seed: u64,
    /// IAU weights to run, each with its label suffix.
    weights: &'static [(&'static str, IauParams)],
}

const PAPER: (&str, IauParams) = (
    "",
    IauParams {
        alpha: 0.5,
        beta: 0.5,
    },
);
const AVERSE: (&str, IauParams) = (
    "-averse",
    IauParams {
        alpha: 0.5,
        beta: 1.5,
    },
);

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_br.json".to_owned());
    let quick = std::env::var_os("FTA_BENCH_QUICK").is_some();
    let reps = if quick { 2 } else { 5 };

    let rows = [
        Row {
            label: "small",
            n_centers: 20,
            n_workers: 200,
            n_dps: 1200,
            max_dp: 3,
            seed: 5,
            weights: &[PAPER, AVERSE],
        },
        Row {
            label: "paper",
            n_centers: 100,
            n_workers: 1000,
            n_dps: 6000,
            max_dp: 3,
            seed: 3,
            weights: &[PAPER, AVERSE],
        },
        Row {
            label: "center",
            n_centers: 1,
            n_workers: 500,
            n_dps: 128,
            max_dp: 2,
            seed: 7,
            // Starved supply (500 workers, 128 points) leaves most workers
            // exhausting their lists at the paper's weights, where no scan
            // policy helps; only the averse rule is measured here.
            weights: &[AVERSE],
        },
    ];

    let mut grid = Vec::new();
    for row in &rows {
        let instance = fta_data::generate_syn(
            &SynConfig {
                n_centers: row.n_centers,
                n_workers: row.n_workers,
                n_tasks: row.n_dps * 20,
                n_delivery_points: row.n_dps,
                max_dp: row.max_dp,
                extent: 4.0,
                ..SynConfig::bench_scale()
            },
            row.seed,
        );
        let vdps = VdpsConfig::pruned(2.0, row.max_dp);
        let views = instance.center_views();
        let spaces: Vec<StrategySpace> = views
            .iter()
            .map(|view| StrategySpace::build(&instance, view, &vdps))
            .collect();
        let total_slots: usize = spaces.iter().map(StrategySpace::total_slots).sum();

        for &(suffix, iau) in row.weights {
            let label = format!("{}{suffix}", row.label);
            let run = |engine: BestResponseEngine| -> BestResponseStats {
                let cfg = FgtConfig {
                    engine,
                    iau,
                    ..FgtConfig::default()
                };
                let mut stats = BestResponseStats::default();
                for space in &spaces {
                    let mut ctx = GameContext::new(space);
                    stats.merge(&fgt(&mut ctx, &cfg).stats);
                }
                stats
            };

            let engines = [
                BestResponseEngine::Rebuild,
                BestResponseEngine::Incremental,
                BestResponseEngine::FastPath,
            ];
            let mut secs = [0.0f64; 3];
            let mut stats = [BestResponseStats::default(); 3];
            for (i, &engine) in engines.iter().enumerate() {
                secs[i] = best_secs(reps, || run(engine));
                stats[i] = run(engine);
            }
            let [rebuild_s, incremental_s, fastpath_s] = secs;
            let fast = stats[2];
            let speedup_incremental = incremental_s / fastpath_s;
            let speedup_rebuild = rebuild_s / fastpath_s;
            let scan_reduction =
                stats[1].candidates_scanned as f64 / fast.candidates_scanned.max(1) as f64;

            fta_obs::info!(
                "{}: n={} |ST|={} — rebuild {:.2} ms, incremental {:.2} ms, \
             fastpath {:.2} ms ({:.2}x vs incremental, {:.1}x fewer scans)",
                label,
                row.n_workers,
                total_slots,
                rebuild_s * 1e3,
                incremental_s * 1e3,
                fastpath_s * 1e3,
                speedup_incremental,
                scan_reduction
            );

            // Regression gate: the fast path must never lose to the engine it
            // supersedes. Deterministic work counters put the margin far above
            // timer noise on every row of this grid.
            assert!(
                fastpath_s <= incremental_s,
                "{}: fastpath ({:.3} ms) slower than incremental ({:.3} ms)",
                label,
                fastpath_s * 1e3,
                incremental_s * 1e3
            );

            grid.push(obj(vec![
                ("label", Value::String(label)),
                ("alpha", Value::Float(iau.alpha)),
                ("beta", Value::Float(iau.beta)),
                (
                    "rule",
                    Value::String(BestResponseEngine::FastPath.rule(iau).to_owned()),
                ),
                ("n_workers", Value::UInt(row.n_workers as u64)),
                ("n_centers", Value::UInt(row.n_centers as u64)),
                ("n_dps", Value::UInt(row.n_dps as u64)),
                ("total_slots", Value::UInt(total_slots as u64)),
                ("rebuild_ms", Value::Float(rebuild_s * 1e3)),
                ("incremental_ms", Value::Float(incremental_s * 1e3)),
                ("fastpath_ms", Value::Float(fastpath_s * 1e3)),
                (
                    "speedup_fastpath_vs_incremental",
                    Value::Float(speedup_incremental),
                ),
                ("speedup_fastpath_vs_rebuild", Value::Float(speedup_rebuild)),
                ("scan_reduction", Value::Float(scan_reduction)),
                (
                    "fastpath_counters",
                    obj(vec![
                        ("rounds", Value::UInt(fast.rounds)),
                        ("fastpath_rounds", Value::UInt(fast.fastpath_rounds)),
                        ("candidates_scanned", Value::UInt(fast.candidates_scanned)),
                        ("early_exits", Value::UInt(fast.early_exits)),
                        ("index_updates", Value::UInt(fast.index_updates)),
                        (
                            "candidate_evaluations",
                            Value::UInt(fast.candidate_evaluations),
                        ),
                    ]),
                ),
                (
                    "exhaustive_candidates_scanned",
                    Value::UInt(stats[1].candidates_scanned),
                ),
                (
                    "exhaustive_candidate_evaluations",
                    Value::UInt(stats[1].candidate_evaluations),
                ),
            ]));
        }
    }

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "FGT equilibrium-loop wall time by best-response engine \
                 (exhaustive rebuild vs incremental rival-set vs fast path) \
                 over prebuilt strategy spaces, best-of-N, at the paper's \
                 IAU weights (alpha = beta = 0.5, monotone rule) and at \
                 beta = 1.5 (-averse rows, peak rule)"
                    .to_owned(),
            ),
        ),
        ("reps", Value::UInt(reps as u64)),
        ("grid", Value::Array(grid)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
