//! Instance persistence: JSON save/load with validation on load.
//!
//! Lets experiment inputs be frozen to disk and shared (the moral
//! equivalent of shipping the paper's preprocessed datasets): an instance
//! written by [`save_instance`] is bit-identical after [`load_instance`]
//! (`serde_json` is configured with `float_roundtrip`), and loading always
//! re-validates the invariants so a hand-edited file cannot smuggle a
//! dangling reference into the solver.

use fta_core::{FtaError, Instance};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Errors from instance persistence.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file is not valid JSON for an instance.
    Parse(serde_json::Error),
    /// The decoded instance violates a domain invariant.
    Invalid(FtaError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Parse(e) => write!(f, "malformed instance file: {e}"),
            Self::Invalid(e) => write!(f, "instance file violates invariants: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Parse(e) => Some(e),
            Self::Invalid(e) => Some(e),
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes `instance` as pretty JSON to `path` (atomically: a temp file in
/// the same directory is renamed into place).
///
/// # Errors
///
/// Returns [`IoError::Io`] on filesystem failures.
pub fn save_instance(path: &Path, instance: &Instance) -> Result<(), IoError> {
    let json = serde_json::to_string_pretty(instance).map_err(IoError::Parse)?;
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates an instance from `path`.
///
/// # Errors
///
/// Returns [`IoError::Io`] on filesystem failures, [`IoError::Parse`] on
/// malformed JSON, and [`IoError::Invalid`] when the decoded instance
/// fails [`Instance::validate`].
pub fn load_instance(path: &Path) -> Result<Instance, IoError> {
    let json = fs::read_to_string(path)?;
    let instance: Instance = serde_json::from_str(&json).map_err(IoError::Parse)?;
    instance.validate().map_err(IoError::Invalid)?;
    Ok(instance)
}

/// Writes an assignment as pretty JSON to `path` (same atomic strategy as
/// [`save_instance`]).
///
/// # Errors
///
/// Returns [`IoError::Io`] on filesystem failures.
pub fn save_assignment(path: &Path, assignment: &fta_core::Assignment) -> Result<(), IoError> {
    let json = serde_json::to_string_pretty(assignment).map_err(IoError::Parse)?;
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads an assignment from `path` and validates it against `instance`
/// (route feasibility and Definition 8 disjointness).
///
/// # Errors
///
/// Returns [`IoError::Io`] / [`IoError::Parse`] on file problems, and
/// [`IoError::Invalid`] when the assignment does not fit the instance.
pub fn load_assignment(path: &Path, instance: &Instance) -> Result<fta_core::Assignment, IoError> {
    let json = fs::read_to_string(path)?;
    let assignment: fta_core::Assignment = serde_json::from_str(&json).map_err(IoError::Parse)?;
    assignment.validate(instance).map_err(IoError::Invalid)?;
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syn::{generate_syn, SynConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fta-io-test-{}-{name}", std::process::id()));
        p
    }

    fn small_instance() -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 2,
                n_workers: 6,
                n_tasks: 40,
                n_delivery_points: 10,
                ..SynConfig::bench_scale()
            },
            3,
        )
    }

    #[test]
    fn round_trips_exactly() {
        let path = temp_path("roundtrip.json");
        let instance = small_instance();
        save_instance(&path, &instance).unwrap();
        let back = load_instance(&path).unwrap();
        assert_eq!(instance, back);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_malformed_json() {
        let path = temp_path("garbage.json");
        fs::write(&path, "{ not json").unwrap();
        assert!(matches!(load_instance(&path), Err(IoError::Parse(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let path = temp_path("nested.json");
        // A typed field stops at the first wrong shape; an unknown key is
        // skipped, so only the nesting limit stops it.
        for (key, limit) in [("centers", false), ("extra", true)] {
            fs::write(&path, format!("{{\"{key}\": {}", "[".repeat(100_000))).unwrap();
            match load_instance(&path) {
                Err(IoError::Parse(e)) => {
                    assert_eq!(e.to_string().contains("nesting limit"), limit, "{e}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_invariant_violations() {
        let path = temp_path("invalid.json");
        let mut instance = small_instance();
        // Corrupt a reference after validation.
        instance.workers[0].center = fta_core::CenterId(99);
        let json = serde_json::to_string(&instance).unwrap();
        fs::write(&path, json).unwrap();
        assert!(matches!(load_instance(&path), Err(IoError::Invalid(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn assignment_round_trips_and_validates() {
        use fta_core::route::Route;
        let path = temp_path("assignment.json");
        let instance = small_instance();
        let aggs = instance.dp_aggregates();
        // Assign worker 0 a single reachable delivery point, if any.
        let views = instance.center_views();
        let mut assignment = fta_core::Assignment::new();
        'outer: for view in &views {
            for &w in &view.workers {
                for &dp in &view.dps {
                    let route = Route::build(&instance, &aggs, view.center, vec![dp]).unwrap();
                    if route.is_valid_for(&instance, w) {
                        assignment.assign(w, route);
                        break 'outer;
                    }
                }
            }
        }
        save_assignment(&path, &assignment).unwrap();
        let back = load_assignment(&path, &instance).unwrap();
        assert_eq!(assignment, back);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn assignment_violating_instance_is_rejected() {
        use fta_core::route::Route;
        let path = temp_path("bad-assignment.json");
        let instance = small_instance();
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        // A route for a worker of the wrong center is invalid.
        let foreign_center = views
            .iter()
            .find(|v| !v.dps.is_empty())
            .expect("some center has tasks");
        let route = Route::build(
            &instance,
            &aggs,
            foreign_center.center,
            vec![foreign_center.dps[0]],
        )
        .unwrap();
        let wrong_worker = instance
            .workers
            .iter()
            .find(|w| w.center != foreign_center.center)
            .expect("another center has workers");
        let mut assignment = fta_core::Assignment::new();
        assignment.assign(wrong_worker.id, route);
        save_assignment(&path, &assignment).unwrap();
        assert!(matches!(
            load_assignment(&path, &instance),
            Err(IoError::Invalid(_))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("does-not-exist.json");
        assert!(matches!(load_instance(&path), Err(IoError::Io(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let err = IoError::Invalid(FtaError::UnknownCenter(fta_core::CenterId(7)));
        assert!(err.to_string().contains("dc7"));
    }
}
