//! The vendored serde's streaming read path, end to end: golden cases pin
//! how derived structs, maps and scalars read JSON; property tests check
//! that persisted instances and assignments round-trip bit for bit and
//! that corrupted instance, assignment, ledger and trace text gives a
//! typed error, never a panic.

use fta::data::io::{load_assignment, load_instance, save_assignment, save_instance};
use fta::prelude::*;
use proptest::prelude::*;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

#[derive(Debug, PartialEq, Deserialize)]
struct Golden {
    id: u32,
    weight: f64,
    note: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
}

#[derive(Debug, PartialEq, Deserialize)]
struct Count(usize);

fn golden(json: &str) -> Result<Golden, serde_json::Error> {
    serde_json::from_str(json)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fta-serde-{}-{name}", std::process::id()))
}

#[test]
fn unknown_keys_are_skipped_but_still_syntax_checked() {
    let g = golden(r#"{"extra": {"deep": [1, {"x": null}]}, "id": 1, "weight": 2.5}"#).unwrap();
    assert_eq!(
        g,
        Golden {
            id: 1,
            weight: 2.5,
            note: None,
            tags: vec![],
        }
    );
    for malformed in [
        r#"{"extra": [1, 2,], "id": 1, "weight": 2.5}"#,
        r#"{"extra": {"a" 1}, "id": 1, "weight": 2.5}"#,
        r#"{"id": 1, "weight": 2.5, "extra": "\q"}"#,
        r#"{"id": 1, "weight": 2.5, "extra": tru}"#,
    ] {
        assert!(golden(malformed).is_err(), "{malformed}");
    }
}

#[test]
fn duplicate_struct_keys_keep_the_first_and_map_keys_the_last() {
    // The later duplicate is not type-checked, only syntax-checked.
    let g = golden(r#"{"id": 1, "weight": 2.5, "id": "two"}"#).unwrap();
    assert_eq!(g.id, 1);
    assert!(golden(r#"{"id": 1, "weight": 2.5, "id": [}"#).is_err());
    let m: BTreeMap<u32, f64> = serde_json::from_str(r#"{"3": 1.0, "3": 2.0}"#).unwrap();
    assert_eq!(m.len(), 1);
    assert_eq!(m[&3], 2.0);
}

#[test]
fn absent_option_and_default_fields_take_their_defaults() {
    let g = golden(r#"{"id": 1, "weight": 2.5}"#).unwrap();
    assert_eq!(g.note, None);
    assert!(g.tags.is_empty());
    let g = golden(r#"{"id": 1, "weight": 2.5, "note": "n", "tags": ["a"]}"#).unwrap();
    assert_eq!(g.note.as_deref(), Some("n"));
    assert_eq!(g.tags, vec!["a".to_string()]);
    let g = golden(r#"{"id": 1, "weight": 2.5, "note": null}"#).unwrap();
    assert_eq!(g.note, None);
    let err = golden(r#"{"weight": 2.5}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `id`"), "{err}");
}

#[test]
fn escaped_keys_match_their_fields() {
    let g = golden(r#"{"\u0069d": 7, "we\u0069ght": 1.5}"#).unwrap();
    assert_eq!((g.id, g.weight), (7, 1.5));
}

#[test]
fn numbers_follow_their_literal_kind() {
    assert_eq!(golden(r#"{"id": 1, "weight": 1}"#).unwrap().weight, 1.0);
    assert!(golden(r#"{"id": 1.0, "weight": 1}"#).is_err());
    assert_eq!(serde_json::from_str::<Count>("-0").unwrap(), Count(0));
    assert!(serde_json::from_str::<Count>("-1").is_err());
}

#[test]
fn trailing_characters_are_an_error() {
    assert!(golden("{\"id\": 1, \"weight\": 1}  \n").is_ok());
    assert!(golden(r#"{"id": 1, "weight": 1} x"#).is_err());
    assert!(golden(r#"{"id": 1, "weight": 1}{}"#).is_err());
}

fn syn_instance(centers: usize, workers: usize, tasks: usize, dps: usize, seed: u64) -> Instance {
    generate_syn(
        &SynConfig {
            n_centers: centers,
            n_workers: workers,
            n_tasks: tasks,
            n_delivery_points: dps,
            extent: 2.0 * centers as f64,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}

/// Saves and reloads `instance` and a GTA assignment of it, asserting both
/// come back bit for bit (equal `Debug` text compares every float's
/// shortest round-trip form).
fn assert_files_round_trip(instance: &Instance, name: &str) {
    let path = temp_path(&format!("{name}-instance.json"));
    save_instance(&path, instance).unwrap();
    let back = load_instance(&path).unwrap();
    assert_eq!(format!("{back:?}"), format!("{instance:?}"));

    let assignment = solve(instance, &SolveConfig::new(Algorithm::Gta)).assignment;
    save_assignment(&path, &assignment).unwrap();
    let back = load_assignment(&path, instance).unwrap();
    assert_eq!(format!("{back:?}"), format!("{assignment:?}"));
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn syn_instances_and_assignments_round_trip(
        centers in 1usize..4,
        workers in 1usize..24,
        tasks in 1usize..240,
        dps in 1usize..40,
        seed in 0u64..1_000,
    ) {
        assert_files_round_trip(&syn_instance(centers, workers, tasks, dps, seed), "syn");
    }

    #[test]
    fn gmission_instances_and_assignments_round_trip(
        tasks in 1usize..120,
        workers in 1usize..24,
        dps in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let config = GMissionConfig {
            n_tasks: tasks,
            n_workers: workers,
            n_delivery_points: dps,
            ..GMissionConfig::default()
        };
        assert_files_round_trip(&generate_gmission(&config, seed), "gm");
    }
}

/// Clean bytes of every persisted format the mutation property corrupts.
struct Corpus {
    instance: Instance,
    instance_json: Vec<u8>,
    assignment_json: Vec<u8>,
    ledger_line: Vec<u8>,
    trace_text: Vec<u8>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let instance = syn_instance(2, 8, 60, 12, 5);
        let recorder = Recorder::install();
        let outcome = solve(&instance, &SolveConfig::new(Algorithm::Gta));
        let snapshot = recorder.finish();
        let record = fta::algorithms::ledger::solve_record(&instance, &outcome, "GTA", "flat");
        Corpus {
            instance_json: serde_json::to_string_pretty(&instance)
                .unwrap()
                .into_bytes(),
            assignment_json: serde_json::to_string_pretty(&outcome.assignment)
                .unwrap()
                .into_bytes(),
            ledger_line: fta::obs::ledger::record_to_json(&record).into_bytes(),
            trace_text: fta::obs::trace::to_jsonl(&snapshot).into_bytes(),
            instance,
        }
    })
}

/// Truncates at, flips one bit of, or inserts `byte` at `at` (a fraction
/// of the length).
fn mutate(clean: &[u8], kind: usize, at: f64, byte: u8) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    let pos = ((at * bytes.len() as f64) as usize).min(bytes.len());
    match kind {
        0 => bytes.truncate(pos),
        1 if pos < bytes.len() => bytes[pos] ^= 1 << (byte % 8),
        _ => bytes.insert(pos, byte),
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reader returns `Ok` or a typed error on corrupted input.
    #[test]
    fn corrupted_files_give_typed_errors_never_panics(
        kind in 0usize..3,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        let c = corpus();
        let path = temp_path("mutated.json");

        std::fs::write(&path, mutate(&c.instance_json, kind, at, byte)).unwrap();
        let _ = load_instance(&path);

        std::fs::write(&path, mutate(&c.assignment_json, kind, at, byte)).unwrap();
        let _ = load_assignment(&path, &c.instance);

        let line = mutate(&c.ledger_line, kind, at, byte);
        let _ = fta::obs::ledger::record_from_json(&String::from_utf8_lossy(&line));

        let text = mutate(&c.trace_text, kind, at, byte);
        let _ = fta::obs::trace::parse(&String::from_utf8_lossy(&text));

        let _ = std::fs::remove_file(&path);
    }
}
