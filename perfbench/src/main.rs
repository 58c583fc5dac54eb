//! Outside-in benchmark of FTA dispatch rounds.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--fta-bin PATH] [--work-dir DIR]
//! ```
//!
//! One process, one client, closed loop: each request starts when the
//! previous one has returned, and every output is checked before the next
//! request. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the separate traced run that prints the per-layer metrics. The last
//! line of standard output is the result object; the line before it
//! carries the run's details (sample count, tail percentile, thread
//! counts, failures). See `README.md` next to this crate.

mod churn;
mod simday;
mod stats;
mod table1;
mod trace;

use stats::{Report, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["cold-table1", "averse-table1", "churn-table1", "sim-day"];

/// Requests whose results the quality metrics average, and over which
/// `peak_rss_mb` is taken: the first ones of every run, so that both
/// depend on the seed only and not on how many requests fit into the run.
/// Also the fewest requests a run makes, enough for a tail percentile.
/// Twice the tail's minimum because a `sim-day` run's peak RSS still
/// steps up between its 20th and 40th day.
pub const QUALITY_REQUESTS: usize = 2 * stats::TAIL_MIN_SAMPLES;

/// Hash shards of the incremental solves (`churn-table1`, `sim-day`).
/// A round's shards run concurrently on the pool, so its few dirty
/// centers spread over every hardware thread as the Table I solves do;
/// a single-threaded round drifts about twice as much from run to run
/// on a small shared host.
pub const SHARDS: usize = 10;

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for instance files, assignments and journals.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    /// The `fta` binary timed by `cli.process_ms`.
    pub fta_bin: Option<PathBuf>,
    pub hw_threads: usize,
    /// Width of the `WorkerPool` the pooled requests run on.
    pub width: usize,
}

/// Latencies and failure tally of one closed loop.
#[derive(Default)]
pub struct Loop {
    pub ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Loop {
    pub fn p50(&self) -> f64 {
        stats::median(&self.ms).unwrap_or(f64::NAN)
    }

    /// Folds another loop's tally (not its latencies) into this one.
    pub fn absorb(&mut self, other: &Loop) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().cloned());
    }
}

/// Runs `request` back to back until `seconds` have passed and at least
/// `min` requests were made. A request returns its latency in ms, or why
/// its output was wrong; a panic counts as a failure too.
pub fn closed_loop(
    seconds: f64,
    min: usize,
    mut request: impl FnMut(usize) -> Result<f64, String>,
) -> Loop {
    let start = Instant::now();
    let mut out = Loop::default();
    while out.attempted < min || start.elapsed().as_secs_f64() < seconds {
        let i = out.attempted;
        out.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| request(i))) {
            Ok(Ok(ms)) => out.ms.push(ms),
            Ok(Err(why)) => {
                out.failed += 1;
                out.errors.push(why);
            }
            Err(_) => {
                out.failed += 1;
                out.errors.push(format!("request {i} panicked"));
            }
        }
    }
    out
}

/// Measures `obs.recorder_overhead`: requests alternate between the
/// `fta-obs` recorder off and on, so drift in the machine's speed hits
/// both sides alike. `request(true)` must repeat the input of the request
/// before it. Returns the tally of the recorded requests, the ratio of
/// their median to the unrecorded median, and the recorder's snapshots.
pub fn recorder_ab(
    seconds: f64,
    min_pairs: usize,
    mut request: impl FnMut(bool) -> Result<f64, String>,
) -> (Loop, f64, Vec<fta_obs::Snapshot>) {
    let mut off = Vec::new();
    let mut snapshots = Vec::new();
    let on = closed_loop(seconds, min_pairs, |_| {
        off.push(request(false)?);
        let recorder = fta_obs::Recorder::install();
        let ms = request(true);
        snapshots.push(recorder.finish());
        ms
    });
    let ratio = stats::paired_ratio(&on.ms, &off);
    (on, ratio, snapshots)
}

/// The seed of the `i`-th input of a run (a city, a day): SplitMix64
/// over the run's seed and `i`, so inputs depend on `--seed` only.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Result-quality metrics shared by every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub p_dif: f64,
    pub avg_payoff: f64,
    pub served_share: f64,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub tally: Loop,
    /// Failed whole-run checks (e.g. churn stationarity).
    pub check_failures: Vec<String>,
    /// Extra `key: json` pairs for the details line.
    pub details: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Fills the end-to-end metrics from a measured loop, its set-up time,
    /// the result quality and the peak RSS over the quality requests.
    pub fn end_to_end(measured: Loop, setup_s: f64, quality: Quality, peak_rss_mb: f64) -> Self {
        let mut out = Self::default();
        let r = &mut out.report;
        r.set("request_ms.p50", measured.p50());
        match stats::tail(&measured.ms) {
            Some((p, v)) => {
                r.set("request_ms.tail", v);
                out.details.push(("tail_percentile", p.to_string()));
            }
            None => out.check_failures.push(format!(
                "only {} successful requests; a tail needs {}",
                measured.ms.len(),
                stats::TAIL_MIN_SAMPLES
            )),
        }
        r.set("setup_s", setup_s);
        r.set("peak_rss_mb", peak_rss_mb);
        let attempted = measured.attempted.max(1) as f64;
        r.set("ok_share", 1.0 - measured.failed as f64 / attempted);
        r.set("p_dif", quality.p_dif);
        r.set("avg_payoff", quality.avg_payoff);
        r.set("served_share", quality.served_share);
        out.details.push(("samples", measured.ms.len().to_string()));
        out.tally = measured;
        out
    }

    /// Zero for every per-layer metric, so a traced workload only sets
    /// the layers it calls.
    pub fn per_layer(ctx: &Ctx) -> Self {
        let mut out = Self::default();
        for def in PER_LAYER {
            out.report.set(def.name, 0.0);
        }
        out.report.set("run.hw_threads", ctx.hw_threads as f64);
        out.report.set("run.pool_width", ctx.width as f64);
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fta_bin: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fta_bin: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--fta-bin" => args.fta_bin = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let hw_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.work_dir.clone(),
        work: work.clone(),
        fta_bin: args.fta_bin,
        hw_threads,
        width: hw_threads,
    };
    let outcome = match args.workload.as_str() {
        "cold-table1" => table1::run(&ctx, table1::Variant::Cold),
        "averse-table1" => table1::run(&ctx, table1::Variant::Averse),
        "churn-table1" => churn::run(&ctx),
        "sim-day" => simday::run_workload(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&work);

    let defs = if ctx.trace { PER_LAYER } else { END_TO_END };
    let tally = &outcome.tally;
    let correct = tally.failed == 0 && outcome.check_failures.is_empty();
    let mut details = vec![
        ("workload", stats::json_str(&args.workload)),
        ("seed", ctx.seed.to_string()),
        ("trace", ctx.trace.to_string()),
        ("hw_threads", ctx.hw_threads.to_string()),
        ("pool_width", ctx.width.to_string()),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
        (
            "failed_share",
            stats::json_f64(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
    ];
    details.extend(outcome.details.iter().cloned());
    let problems: Vec<String> = tally
        .errors
        .iter()
        .chain(&outcome.check_failures)
        .take(8)
        .map(|e| stats::json_str(e))
        .collect();
    details.push(("problems", format!("[{}]", problems.join(", "))));
    let body: Vec<String> = details
        .iter()
        .map(|(k, v)| format!("{}: {v}", stats::json_str(k)))
        .collect();
    println!("{{{}}}", body.join(", "));
    match outcome
        .report
        .render(defs, correct, tally.attempted.max(1), tally.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
