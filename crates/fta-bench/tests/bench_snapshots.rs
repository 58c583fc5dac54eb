//! Schema validation of the committed perf snapshots at the repo root:
//! `BENCH_incremental.json` (incremental re-solve), `BENCH_br.json`
//! (best-response engines), `BENCH_hotpath.json`
//! (chunked kernels + calibrated hot-path profile), `BENCH_durable.json`
//! (journaling overhead per fsync policy), `BENCH_scale.json`
//! (geo-sharded concurrent solves up to 10^5 workers), and the
//! multi-center block of `BENCH_vdps.json` must parse, carry every field
//! downstream tooling reads, stay internally consistent, and keep the
//! speedup floors the acceptance criteria pin. The floors live in
//! `fta_bench::gates`, shared with the snapshot writers, so the writer
//! and this re-check can never drift apart. Parallel floors are
//! capability-conditioned on the thread count the snapshot records —
//! a single-core box cannot honestly produce (or re-check) a concurrent
//! speedup, so there the sharded path is held to the no-loss band.

use fta_bench::gates;
use serde_json::Value;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

#[test]
fn bench_incremental_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_incremental.json"))
        .expect("BENCH_incremental.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("fgt"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    let mut saw_paper_drop = false;
    let mut arrivals_labels = Vec::new();
    for row in grid {
        for key in ["label", "mode"] {
            assert!(
                row[key].as_str().is_some(),
                "row missing string field {key}"
            );
        }
        for key in ["n_workers", "n_centers", "n_dps", "rounds"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "row missing positive integer field {key}"
            );
        }
        let cold = row["cold_ms"].as_f64().expect("row missing cold_ms");
        let warm = row["warm_ms"].as_f64().expect("row missing warm_ms");
        let speedup = row["speedup_warm_vs_cold"]
            .as_f64()
            .expect("row missing speedup_warm_vs_cold");
        assert!(cold > 0.0 && warm > 0.0 && speedup > 0.0);
        assert!(
            (speedup - cold / warm).abs() <= speedup * 1e-6,
            "speedup_warm_vs_cold inconsistent with cold_ms/warm_ms"
        );

        let stats = &row["resolve_stats"];
        let mut ladder = 0u64;
        for key in [
            "centers_clean",
            "centers_warm",
            "centers_cold",
            "warm_adopted",
            "warm_rejected",
        ] {
            let n = stats[key].as_u64();
            assert!(n.is_some(), "resolve_stats missing {key}");
            if key.starts_with("centers_") {
                ladder += n.unwrap();
            }
        }
        let rounds = row["rounds"].as_u64().unwrap();
        let centers = row["n_centers"].as_u64().unwrap();
        assert_eq!(
            ladder,
            rounds * centers,
            "ladder counts must cover every center of every round"
        );

        let label = row["label"].as_str().unwrap();
        let mode = row["mode"].as_str().unwrap();
        if mode == "drop" {
            assert!(
                warm <= cold,
                "{label}/{mode}: committed snapshot has warm losing to cold"
            );
        }
        if mode == "arrivals" {
            arrivals_labels.push(label);
            assert!(
                warm <= cold * gates::aged_noise_band(false),
                "{label}/{mode}: committed snapshot has warm losing to cold beyond noise"
            );
            assert_eq!(
                stats["centers_clean"].as_u64(),
                Some(0),
                "{label}/{mode}: arrivals touch every center every round"
            );
        }
        if label == "paper" && mode == "drop" {
            saw_paper_drop = true;
            assert!(
                speedup >= gates::WARM_PAPER_DROP_FLOOR,
                "paper/drop speedup {speedup:.2}x below the {}x acceptance floor",
                gates::WARM_PAPER_DROP_FLOOR
            );
        }
    }
    assert!(saw_paper_drop, "grid must include the paper/drop row");
    arrivals_labels.sort_unstable();
    assert_eq!(
        arrivals_labels,
        ["paper", "small"],
        "grid must include the small and paper arrivals rows"
    );
}

#[test]
fn bench_br_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_br.json"))
        .expect("BENCH_br.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    let grid = v["grid"].as_array().expect("grid is an array");

    let mut labels = Vec::new();
    let mut saw_large_averse_center = false;
    for row in grid {
        let label = row["label"].as_str().expect("row missing label");
        labels.push(label);
        for key in ["n_workers", "n_centers", "n_dps", "total_slots"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "{label}: missing positive integer field {key}"
            );
        }
        let beta = row["beta"].as_f64().expect("row missing beta");
        assert!(row["alpha"].as_f64().is_some(), "{label}: missing alpha");
        let rule = row["rule"].as_str().expect("row missing rule");
        assert_eq!(
            rule,
            if beta < 1.0 { "monotone" } else { "peak" },
            "{label}: rule disagrees with beta"
        );
        let rebuild = row["rebuild_ms"].as_f64().expect("row missing rebuild_ms");
        let incremental = row["incremental_ms"]
            .as_f64()
            .expect("row missing incremental_ms");
        let fastpath = row["fastpath_ms"]
            .as_f64()
            .expect("row missing fastpath_ms");
        assert!(rebuild > 0.0 && incremental > 0.0 && fastpath > 0.0);
        let speedup = row["speedup_fastpath_vs_incremental"]
            .as_f64()
            .expect("row missing speedup_fastpath_vs_incremental");
        assert!(
            (speedup - incremental / fastpath).abs() <= speedup * 1e-6,
            "{label}: speedup inconsistent with its timings"
        );
        // The writer's own gate, re-checked on the committed numbers.
        assert!(
            fastpath <= incremental,
            "{label}: committed snapshot has the fast path losing to incremental"
        );
        let counters = &row["fastpath_counters"];
        let rounds = counters["rounds"]
            .as_u64()
            .expect("counters missing rounds");
        assert!(rounds > 0, "{label}: no best-response rounds");
        assert_eq!(
            counters["fastpath_rounds"].as_u64(),
            Some(rounds),
            "{label}: every fast-path round runs its rule"
        );
        let scanned = counters["candidates_scanned"]
            .as_u64()
            .expect("counters missing candidates_scanned");
        let evaluations = counters["candidate_evaluations"]
            .as_u64()
            .expect("counters missing candidate_evaluations");
        assert!(
            scanned
                <= row["exhaustive_candidates_scanned"]
                    .as_u64()
                    .expect("row missing exhaustive_candidates_scanned"),
            "{label}: fast path scanned more slots than the exhaustive engine"
        );
        assert!(
            evaluations
                <= row["exhaustive_candidate_evaluations"]
                    .as_u64()
                    .expect("row missing exhaustive_candidate_evaluations"),
            "{label}: fast path evaluated more candidates than the exhaustive engine"
        );
        if row["n_centers"].as_u64() == Some(1)
            && row["n_workers"].as_u64().unwrap_or(0) >= 500
            && beta >= 1.0
        {
            saw_large_averse_center = true;
        }
    }
    labels.sort_unstable();
    for want in ["paper", "paper-averse", "small", "small-averse"] {
        assert!(labels.contains(&want), "grid must include the {want} row");
    }
    assert!(
        saw_large_averse_center,
        "grid must include a single-center row with >= 500 workers at beta >= 1"
    );
}

#[test]
fn bench_durable_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_durable.json"))
        .expect("BENCH_durable.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("gta"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    assert!(v["horizon_hours"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(v["workers"].as_u64().unwrap_or(0) > 0);
    assert!(v["snapshot_every"].as_u64().unwrap_or(0) >= 1);

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    let mut saw_every8 = false;
    for row in grid {
        let fsync = row["fsync"].as_str().expect("row missing fsync");
        assert!(row["rounds"].as_u64().unwrap_or(0) > 0);
        let plain = row["plain_ms"].as_f64().expect("row missing plain_ms");
        let durable = row["durable_ms"].as_f64().expect("row missing durable_ms");
        let overhead = row["overhead"].as_f64().expect("row missing overhead");
        assert!(plain > 0.0 && durable > 0.0 && overhead > 0.0);
        assert!(
            (overhead - durable / plain).abs() <= overhead * 1e-6,
            "overhead inconsistent with durable_ms/plain_ms"
        );
        // A day whose final round truncated the log on a snapshot can
        // legitimately leave zero frames behind, but it must have cut
        // snapshots and written log bytes at some point.
        assert!(row["log_frames"].as_u64().is_some(), "missing log_frames");
        assert!(row["log_bytes"].as_u64().unwrap_or(0) > 0);
        assert!(row["snapshots"].as_u64().unwrap_or(0) > 0);

        if fsync == "every-8" {
            saw_every8 = true;
            assert!(
                overhead <= gates::durable_overhead_ceiling(false),
                "every-8 journaling overhead {overhead:.2}x exceeds the \
                 committed full-mode ceiling"
            );
        }
    }
    assert!(saw_every8, "grid must include the every-8 row");
}

#[test]
fn bench_scale_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_scale.json"))
        .expect("BENCH_scale.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("gta"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    let threads = v["hw_threads"].as_u64().expect("missing hw_threads") as usize;
    assert!(threads >= 1, "hw_threads must be >= 1");
    // peak_rss_bytes is null off Linux; when present it must be sane
    // (a 10^5-worker sweep holds well over a megabyte live).
    if let Some(rss) = v["peak_rss_bytes"].as_u64() {
        assert!(rss > 1 << 20, "peak RSS implausibly small: {rss} bytes");
    }

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    // The committed full-mode sweep must reach the acceptance scale.
    let max_workers = grid
        .iter()
        .map(|r| r["n_workers"].as_u64().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let max_centers = grid
        .iter()
        .map(|r| r["n_centers"].as_u64().unwrap_or(0))
        .max()
        .unwrap_or(0);
    assert!(
        max_workers >= 100_000,
        "committed sweep must reach 10^5 workers (saw {max_workers})"
    );
    assert!(
        max_centers >= 200,
        "committed sweep must reach 200 centers (saw {max_centers})"
    );

    for row in grid {
        let label = row["label"].as_str().expect("row missing label");
        for key in ["n_centers", "n_workers", "n_dps", "n_tasks", "shards"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "{label}: missing positive integer field {key}"
            );
        }
        let sequential = row["sequential_ms"].as_f64().expect("sequential_ms");
        let sharded = row["sharded_ms"].as_f64().expect("sharded_ms");
        let speedup = row["speedup_sharded_vs_sequential"]
            .as_f64()
            .expect("speedup_sharded_vs_sequential");
        assert!(sequential > 0.0 && sharded > 0.0 && speedup > 0.0);
        assert!(
            (speedup - sequential / sharded).abs() <= speedup * 1e-6,
            "{label}: speedup inconsistent with its timings"
        );
        assert!(
            row["workers_per_sec"].as_f64().unwrap_or(0.0) > 0.0,
            "{label}: missing workers_per_sec"
        );
        for key in ["geo_imbalance_pct", "hash_imbalance_pct"] {
            assert!(
                row[key].as_f64().unwrap_or(-1.0) >= 0.0,
                "{label}: missing {key}"
            );
        }

        // Same capability-conditioned gates as the writer: the headline
        // floor where the recorded hardware could express concurrency,
        // the no-loss band everywhere.
        assert!(
            sharded <= sequential * gates::scale_noise_band(false),
            "{label}: committed snapshot has sharded losing to sequential \
             beyond the full-mode noise band"
        );
        let centers = row["n_centers"].as_u64().unwrap() as usize;
        if threads >= gates::SCALE_FLOOR_MIN_THREADS && centers >= gates::SCALE_FLOOR_MIN_CENTERS {
            assert!(
                speedup >= gates::SCALE_SPEEDUP_FLOOR,
                "{label}: committed speedup {speedup:.2}x on {threads} threads \
                 below the {}x acceptance floor",
                gates::SCALE_SPEEDUP_FLOOR
            );
        }
    }
}

#[test]
fn bench_vdps_snapshot_multi_center_is_honest_about_threads() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_vdps.json"))
        .expect("BENCH_vdps.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    let mc = &v["solve_multi_center"];
    let threads = mc["threads"].as_u64().expect("missing threads");
    assert!(threads >= 1);
    assert!(mc["sequential_ms"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(mc["pooled_ms"].as_f64().unwrap_or(0.0) > 0.0);
    // A parallel speedup claim requires actual parallel hardware: with
    // one pool thread the field must be null (pooled-vs-sequential is
    // dispatch overhead plus timer noise, not a win).
    if threads == 1 {
        assert!(
            mc["speedup"].is_null(),
            "single-thread snapshot must not claim a parallel speedup"
        );
    } else {
        let seq = mc["sequential_ms"].as_f64().unwrap();
        let par = mc["pooled_ms"].as_f64().unwrap();
        let speedup = mc["speedup"].as_f64().expect("missing speedup");
        assert!(
            (speedup - seq / par).abs() <= speedup * 1e-6,
            "speedup inconsistent with its timings"
        );
    }
}

#[test]
fn bench_hotpath_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_hotpath.json"))
        .expect("BENCH_hotpath.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");

    // Microkernels: every section carries its timings and a consistent
    // speedup; the committed (full-mode) numbers must clear the
    // full-mode floors.
    let micro = &v["microkernels"];
    let scan = &micro["scan"];
    assert!(scan["len"].as_u64().unwrap_or(0) > 0, "scan missing len");
    let mut scan_best = 0.0f64;
    for section in ["first_open", "sweep"] {
        let s = &scan[section];
        let scalar = s["scalar_us"].as_f64().expect("scan scalar_us");
        let chunked = s["chunked_us"].as_f64().expect("scan chunked_us");
        let speedup = s["speedup"].as_f64().expect("scan speedup");
        assert!(scalar > 0.0 && chunked > 0.0);
        assert!(
            (speedup - scalar / chunked).abs() <= speedup * 1e-6,
            "scan/{section} speedup inconsistent with its timings"
        );
        scan_best = scan_best.max(speedup);
    }
    assert!(
        scan_best >= gates::hotpath_scan_floor(false),
        "committed scan speedup {scan_best:.2}x below the full-mode floor"
    );
    for (section, floor) in [
        ("gather", None),
        ("dedup", Some(gates::hotpath_dedup_floor(false))),
        ("emission", None),
    ] {
        let speedup = micro[section]["speedup"]
            .as_f64()
            .unwrap_or_else(|| panic!("microkernels.{section} missing speedup"));
        assert!(speedup > 0.0);
        if let Some(floor) = floor {
            assert!(
                speedup >= floor,
                "committed {section} speedup {speedup:.2}x below its {floor:.2}x floor"
            );
        }
    }

    // Calibration: the model constants, the measured maintenance cost,
    // and a non-empty sweep with internally consistent modeled costs.
    let cal = &v["calibration"];
    assert!(cal["probes_per_switch"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(cal["bits_per_switch"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(cal["maintenance_ns_per_entry"].as_f64().unwrap_or(-1.0) >= 0.0);
    assert!(cal["crossover_found"].as_bool().is_some());
    let sweep = cal["sweep"].as_array().expect("calibration sweep array");
    assert!(!sweep.is_empty(), "calibration sweep must not be empty");
    for point in sweep {
        assert!(point["slots"].as_u64().unwrap_or(0) > 0);
        let probe = point["index_probe_us"].as_f64().expect("index_probe_us");
        let total = point["index_total_us"].as_f64().expect("index_total_us");
        assert!(point["scan_us"].as_f64().unwrap_or(0.0) > 0.0);
        assert!(
            total >= probe,
            "modeled index total must include the probe cost"
        );
    }

    // End-to-end: the calibrated profile must beat the legacy profile by
    // the acceptance floor, and the axis attribution must be present.
    let e2e = &v["end_to_end"];
    assert_eq!(e2e["n_workers"].as_u64(), Some(1000));
    let legacy = e2e["legacy_ms"].as_f64().expect("legacy_ms");
    let calibrated = e2e["calibrated_ms"].as_f64().expect("calibrated_ms");
    let speedup = e2e["speedup"].as_f64().expect("e2e speedup");
    assert!(legacy > 0.0 && calibrated > 0.0);
    assert!(
        (speedup - legacy / calibrated).abs() <= speedup * 1e-6,
        "e2e speedup inconsistent with its timings"
    );
    assert!(
        speedup >= gates::hotpath_e2e_floor(false),
        "committed e2e speedup {speedup:.2}x below the full-mode floor"
    );
    assert!(
        !e2e["axes"].as_array().expect("e2e axes").is_empty(),
        "e2e axis attribution must not be empty"
    );

    // The embedded profile must round-trip through the solver's loader —
    // the exact path `fta solve --hotpath-profile BENCH_hotpath.json`
    // takes (the loader accepts the wrapped snapshot form).
    let profile = fta_vdps::hotpath::from_json_str(&raw)
        .expect("embedded profile parses via the solver's loader");
    assert!(profile.conflict_index_min_slots >= 256);
}
