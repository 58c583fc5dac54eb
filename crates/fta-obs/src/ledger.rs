//! The solve ledger: a versioned per-solve/per-round structured record
//! with causal attribution per center, plus the ledger/Prometheus diff
//! used by `fta obs-diff`.
//!
//! One [`SolveRecord`] answers "why did center 17 fall to GTA in round
//! 40" from the file alone: per center it carries the degradation-ladder
//! rung, the budget axis that triggered it, the resolve path taken
//! (clean/warm/cold + why), the best-response and VDPS work counters,
//! and per-record fairness (pairwise payoff difference and the
//! per-worker income distribution).
//!
//! ## File schema (`fta-ledger` version 1)
//!
//! A ledger file is UTF-8 JSONL:
//!
//! * line 1 — header: `{"schema":"fta-ledger","version":1,"label":s,
//!   "created_unix_ms":u}`
//! * solve lines — `{"type":"solve","round":u|null,"sim_hours":f|null,
//!   "algo":s,"engine":s,"degraded":b,"budget_exhausted":b,
//!   "centers":[…],"fairness":{…}}` where each center object is
//!   `{"center":u,"rung":s,"budget_axis":s|null,"resolve":s,
//!   "shard":u|null,"br_rounds":u,"br_evaluations":u,"br_switches":u,
//!   "vdps_count":u,"vdps_states":u,"vdps_truncations":u,"vdps_ns":u,
//!   "assign_ns":u,"events":[s,…]}` and fairness is
//!   `{"payoff_difference":f,"average_payoff":f,"gini":f,
//!   "incomes":[f,…]}`.
//!
//! Unknown keys must be ignored by parsers; unknown `type` values are an
//! error (bump `version` to add record kinds). A header with no solve
//! lines is a valid, empty ledger (e.g. a zero-center instance).
//!
//! ## Diff semantics
//!
//! [`Ledger::flatten`] and [`flatten_prometheus`] project a ledger or a
//! Prometheus snapshot onto a flat `name → value` map; [`diff_maps`]
//! compares two such maps with a relative tolerance band (percent of
//! the larger magnitude), reporting every key's delta and whether it is
//! within band. Diffing a run against itself reports zero deltas.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Value of the header's `"schema"` field.
pub const SCHEMA_NAME: &str = "fta-ledger";
/// Ledger schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Per-center causal attribution for one solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CenterRecord {
    /// The distribution center.
    pub center: u64,
    /// Degradation-ladder rung the center was solved at
    /// (`full`, `degraded-vdps`, `gta-fallback`,
    /// `immediate-single-stop`, `skipped`).
    pub rung: String,
    /// The budget axis that drove the degradation (`wall_ms`,
    /// `max_states`, `max_rounds`, or `panic`), `None` at `full`.
    pub budget_axis: Option<String>,
    /// Resolve path taken: `cold`, `clean`, or `warm`.
    pub resolve: String,
    /// Shard the center was solved on (sharded solves only; `None` — the
    /// schema-v1 optional-key convention — on unsharded solves and when
    /// reading ledgers written before sharding existed).
    pub shard: Option<u64>,
    /// Best-response rounds run for this center.
    pub br_rounds: u64,
    /// Candidate strategies evaluated for this center.
    pub br_evaluations: u64,
    /// Strategy switches performed for this center.
    pub br_switches: u64,
    /// VDPSs in the center's final pool.
    pub vdps_count: u64,
    /// DP states materialised during generation.
    pub vdps_states: u64,
    /// Layer-boundary truncations during generation.
    pub vdps_truncations: u64,
    /// Nanoseconds spent generating the pool this round.
    pub vdps_nanos: u64,
    /// Nanoseconds spent in the assignment algorithm this round.
    pub assign_nanos: u64,
    /// Human-readable degradation events, in firing order.
    pub events: Vec<String>,
}

/// Fairness trajectory point for one solve record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FairnessRecord {
    /// Pairwise payoff difference (max − min worker payoff).
    pub payoff_difference: f64,
    /// Mean worker payoff.
    pub average_payoff: f64,
    /// Gini coefficient of the income distribution.
    pub gini: f64,
    /// Per-worker income distribution (cumulative in simulate ledgers,
    /// per-solve payoffs in solve ledgers), worker order.
    pub incomes: Vec<f64>,
}

/// One solve (or one simulated round) as recorded in a ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveRecord {
    /// Simulation round number, `None` for a one-shot solve.
    pub round: Option<u64>,
    /// Simulated time of day in hours, `None` for a one-shot solve.
    pub sim_hours: Option<f64>,
    /// Algorithm name (`GTA`, `FGT`, `IEGT`, …).
    pub algo: String,
    /// Best-response engine label (`incremental`, `rivalset`, …).
    pub engine: String,
    /// Whether any center was solved below the full rung.
    pub degraded: bool,
    /// Whether the solve budget bound anywhere.
    pub budget_exhausted: bool,
    /// Per-center attribution, in center order.
    pub centers: Vec<CenterRecord>,
    /// Fairness snapshot after this solve.
    pub fairness: FairnessRecord,
}

/// A full ledger: header metadata plus records in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Free-form label (instance path, scenario name).
    pub label: String,
    /// Unix milliseconds at ledger creation.
    pub created_unix_ms: u64,
    /// Solve records, in the order they happened.
    pub records: Vec<SolveRecord>,
}

impl Ledger {
    /// A new, empty ledger stamped with the current wall clock.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Ledger {
            label: label.into(),
            created_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            records: Vec::new(),
        }
    }

    /// Appends one solve record.
    pub fn push(&mut self, record: SolveRecord) {
        self.records.push(record);
    }

    /// Projects the ledger onto a flat `name → value` map of aggregate
    /// metrics, the input of [`diff_maps`]. Counters sum over records;
    /// `fairness.final_*` take the last record's value.
    #[must_use]
    pub fn flatten(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |key: &str, v: f64| *out.entry(key.to_owned()).or_insert(0.0) += v;
        add("records", self.records.len() as f64);
        for record in &self.records {
            add("degraded_records", f64::from(u8::from(record.degraded)));
            add(
                "budget_exhausted_records",
                f64::from(u8::from(record.budget_exhausted)),
            );
            add("centers", record.centers.len() as f64);
            for center in &record.centers {
                add(&format!("rung.{}", center.rung), 1.0);
                add(&format!("resolve.{}", center.resolve), 1.0);
                if let Some(shard) = center.shard {
                    add(&format!("shard.{shard}.centers"), 1.0);
                }
                add("br.rounds", center.br_rounds as f64);
                add("br.evaluations", center.br_evaluations as f64);
                add("br.switches", center.br_switches as f64);
                add("vdps.count", center.vdps_count as f64);
                add("vdps.states", center.vdps_states as f64);
                add("vdps.truncations", center.vdps_truncations as f64);
                add("vdps.nanos", center.vdps_nanos as f64);
                add("assign.nanos", center.assign_nanos as f64);
            }
        }
        if let Some(last) = self.records.last() {
            out.insert(
                "fairness.final_payoff_difference".to_owned(),
                last.fairness.payoff_difference,
            );
            out.insert(
                "fairness.final_average_payoff".to_owned(),
                last.fairness.average_payoff,
            );
            out.insert("fairness.final_gini".to_owned(), last.fairness.gini);
        }
        out
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(x) => Value::UInt(x),
        None => Value::Null,
    }
}

fn opt_f64(v: Option<f64>) -> Value {
    match v {
        Some(x) => Value::Float(x),
        None => Value::Null,
    }
}

fn opt_string(v: &Option<String>) -> Value {
    match v {
        Some(s) => Value::String(s.clone()),
        None => Value::Null,
    }
}

fn center_value(center: &CenterRecord) -> Value {
    obj(vec![
        ("center", Value::UInt(center.center)),
        ("rung", Value::String(center.rung.clone())),
        ("budget_axis", opt_string(&center.budget_axis)),
        ("resolve", Value::String(center.resolve.clone())),
        ("shard", opt_u64(center.shard)),
        ("br_rounds", Value::UInt(center.br_rounds)),
        ("br_evaluations", Value::UInt(center.br_evaluations)),
        ("br_switches", Value::UInt(center.br_switches)),
        ("vdps_count", Value::UInt(center.vdps_count)),
        ("vdps_states", Value::UInt(center.vdps_states)),
        ("vdps_truncations", Value::UInt(center.vdps_truncations)),
        ("vdps_ns", Value::UInt(center.vdps_nanos)),
        ("assign_ns", Value::UInt(center.assign_nanos)),
        (
            "events",
            Value::Array(
                center
                    .events
                    .iter()
                    .map(|e| Value::String(e.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn record_value(record: &SolveRecord) -> Value {
    obj(vec![
        ("type", Value::String("solve".to_owned())),
        ("round", opt_u64(record.round)),
        ("sim_hours", opt_f64(record.sim_hours)),
        ("algo", Value::String(record.algo.clone())),
        ("engine", Value::String(record.engine.clone())),
        ("degraded", Value::Bool(record.degraded)),
        ("budget_exhausted", Value::Bool(record.budget_exhausted)),
        (
            "centers",
            Value::Array(record.centers.iter().map(center_value).collect()),
        ),
        (
            "fairness",
            obj(vec![
                (
                    "payoff_difference",
                    Value::Float(record.fairness.payoff_difference),
                ),
                (
                    "average_payoff",
                    Value::Float(record.fairness.average_payoff),
                ),
                ("gini", Value::Float(record.fairness.gini)),
                (
                    "incomes",
                    Value::Array(
                        record
                            .fairness
                            .incomes
                            .iter()
                            .map(|&i| Value::Float(i))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// Serialize one record as a standalone JSON line — the exact line format
/// [`to_jsonl`] emits for records. The durability layer journals each
/// round's record this way so `fta recover` can rebuild a ledger.
#[must_use]
pub fn record_to_json(record: &SolveRecord) -> String {
    serde_json::to_string(&record_value(record)).expect("record serializes")
}

/// Parse one record line produced by [`record_to_json`] (or any `"solve"`
/// line of a schema-v1 ledger).
pub fn record_from_json(line: &str) -> Result<SolveRecord, LedgerError> {
    let fail = |message: String| LedgerError::Line { line: 1, message };
    let v: Value =
        serde_json::from_str(line).map_err(|e| fail(format!("not valid JSON: {e:?}")))?;
    match field_str(&v, "type").map_err(&fail)?.as_str() {
        "solve" => parse_record(&v).map_err(&fail),
        other => Err(fail(format!("unknown record type '{other}'"))),
    }
}

/// Serialize a ledger as a JSONL string (header first, then one line
/// per record).
#[must_use]
pub fn to_jsonl(ledger: &Ledger) -> String {
    let mut lines = Vec::with_capacity(1 + ledger.records.len());
    lines.push(
        serde_json::to_string(&obj(vec![
            ("schema", Value::String(SCHEMA_NAME.to_owned())),
            ("version", Value::UInt(SCHEMA_VERSION)),
            ("label", Value::String(ledger.label.clone())),
            ("created_unix_ms", Value::UInt(ledger.created_unix_ms)),
        ]))
        .expect("header serializes"),
    );
    for record in &ledger.records {
        lines.push(serde_json::to_string(&record_value(record)).expect("record serializes"));
    }
    lines.join("\n") + "\n"
}

/// Write [`to_jsonl`] output to `path`.
pub fn write_file(ledger: &Ledger, path: &Path) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(to_jsonl(ledger).as_bytes())?;
    file.flush()
}

/// Why a ledger failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The file is empty or the first line is not a valid header.
    MissingHeader(String),
    /// The header's `version` is not one this crate understands.
    UnsupportedVersion(u64),
    /// A body line is malformed; carries the 1-based line number.
    Line {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what is wrong.
        message: String,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::MissingHeader(why) => {
                write!(f, "missing or invalid {SCHEMA_NAME} header: {why}")
            }
            LedgerError::UnsupportedVersion(v) => write!(
                f,
                "unsupported {SCHEMA_NAME} version {v} (expected {SCHEMA_VERSION})"
            ),
            LedgerError::Line { line, message } => write!(f, "ledger line {line}: {message}"),
        }
    }
}

impl std::error::Error for LedgerError {}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.field(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.field(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    v.field(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field '{key}'"))
}

/// Floats serialize as `null` when non-finite; read those back as NaN.
fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    match v.field(key) {
        None => Err(format!("missing field '{key}'")),
        Some(val) if val.is_null() => Ok(f64::NAN),
        Some(val) => val
            .as_f64()
            .ok_or_else(|| format!("non-numeric field '{key}'")),
    }
}

fn field_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.field(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer field '{key}'")),
    }
}

fn field_opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.field(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric field '{key}'")),
    }
}

fn field_opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.field(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("non-string field '{key}'")),
    }
}

fn parse_center(v: &Value) -> Result<CenterRecord, String> {
    let events_value = v
        .field("events")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing or non-array field 'events'".to_owned())?;
    let mut events = Vec::with_capacity(events_value.len());
    for e in events_value {
        events.push(
            e.as_str()
                .ok_or_else(|| "non-string entry in 'events'".to_owned())?
                .to_owned(),
        );
    }
    Ok(CenterRecord {
        center: field_u64(v, "center")?,
        rung: field_str(v, "rung")?,
        budget_axis: field_opt_str(v, "budget_axis")?,
        resolve: field_str(v, "resolve")?,
        shard: field_opt_u64(v, "shard")?,
        br_rounds: field_u64(v, "br_rounds")?,
        br_evaluations: field_u64(v, "br_evaluations")?,
        br_switches: field_u64(v, "br_switches")?,
        vdps_count: field_u64(v, "vdps_count")?,
        vdps_states: field_u64(v, "vdps_states")?,
        vdps_truncations: field_u64(v, "vdps_truncations")?,
        vdps_nanos: field_u64(v, "vdps_ns")?,
        assign_nanos: field_u64(v, "assign_ns")?,
        events,
    })
}

fn parse_fairness(v: &Value) -> Result<FairnessRecord, String> {
    let fairness = v
        .field("fairness")
        .ok_or_else(|| "missing field 'fairness'".to_owned())?;
    let incomes_value = fairness
        .field("incomes")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing or non-array field 'fairness.incomes'".to_owned())?;
    let mut incomes = Vec::with_capacity(incomes_value.len());
    for i in incomes_value {
        incomes.push(if i.is_null() {
            f64::NAN
        } else {
            i.as_f64()
                .ok_or_else(|| "non-numeric entry in 'fairness.incomes'".to_owned())?
        });
    }
    Ok(FairnessRecord {
        payoff_difference: field_f64(fairness, "payoff_difference")?,
        average_payoff: field_f64(fairness, "average_payoff")?,
        gini: field_f64(fairness, "gini")?,
        incomes,
    })
}

fn parse_record(v: &Value) -> Result<SolveRecord, String> {
    let centers_value = v
        .field("centers")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing or non-array field 'centers'".to_owned())?;
    let mut centers = Vec::with_capacity(centers_value.len());
    for c in centers_value {
        centers.push(parse_center(c)?);
    }
    Ok(SolveRecord {
        round: field_opt_u64(v, "round")?,
        sim_hours: field_opt_f64(v, "sim_hours")?,
        algo: field_str(v, "algo")?,
        engine: field_str(v, "engine")?,
        degraded: field_bool(v, "degraded")?,
        budget_exhausted: field_bool(v, "budget_exhausted")?,
        centers,
        fairness: parse_fairness(v)?,
    })
}

/// Parse and validate a JSONL ledger produced by [`to_jsonl`] (or any
/// writer of schema v1). Every line must be valid JSON of a known
/// record type with all required fields present and well-typed.
pub fn parse(text: &str) -> Result<Ledger, LedgerError> {
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| LedgerError::MissingHeader("empty ledger".to_owned()))?;
    let header: Value = serde_json::from_str(header_line)
        .map_err(|e| LedgerError::MissingHeader(format!("header is not JSON: {e:?}")))?;
    if header.field("schema").and_then(Value::as_str) != Some(SCHEMA_NAME) {
        return Err(LedgerError::MissingHeader(format!(
            "first line lacks \"schema\":\"{SCHEMA_NAME}\""
        )));
    }
    let version = header
        .field("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| LedgerError::MissingHeader("header lacks integer 'version'".to_owned()))?;
    if version != SCHEMA_VERSION {
        return Err(LedgerError::UnsupportedVersion(version));
    }
    let mut ledger = Ledger {
        label: header
            .field("label")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned(),
        created_unix_ms: header
            .field("created_unix_ms")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        records: Vec::new(),
    };
    for (index, line) in lines {
        let lineno = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| LedgerError::Line {
            line: lineno,
            message,
        };
        let v: Value =
            serde_json::from_str(line).map_err(|e| fail(format!("not valid JSON: {e:?}")))?;
        match field_str(&v, "type").map_err(&fail)?.as_str() {
            "solve" => ledger.records.push(parse_record(&v).map_err(&fail)?),
            other => return Err(fail(format!("unknown record type '{other}'"))),
        }
    }
    Ok(ledger)
}

/// Read and [`parse`] a ledger file.
pub fn parse_file(path: &Path) -> Result<Ledger, LedgerError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LedgerError::MissingHeader(format!("cannot read {}: {e}", path.display())))?;
    parse(&text)
}

/// One key's values in a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Metric key.
    pub key: String,
    /// Value in the first input (0 when absent).
    pub a: f64,
    /// Value in the second input (0 when absent).
    pub b: f64,
}

impl DiffEntry {
    /// `b − a`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }

    /// Whether the delta is inside the relative tolerance band:
    /// `|b − a| ≤ tolerance_pct/100 · max(|a|, |b|)`. NaNs on both
    /// sides compare equal (a ledger can carry NaN fairness for empty
    /// instances).
    #[must_use]
    pub fn within(&self, tolerance_pct: f64) -> bool {
        if self.a.is_nan() && self.b.is_nan() {
            return true;
        }
        let scale = self.a.abs().max(self.b.abs());
        (self.b - self.a).abs() <= tolerance_pct / 100.0 * scale
    }
}

/// The result of diffing two flat metric maps.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every key present in either input, sorted.
    pub entries: Vec<DiffEntry>,
    /// The tolerance band the diff was evaluated under, in percent.
    pub tolerance_pct: f64,
}

impl DiffReport {
    /// Entries whose delta exceeds the tolerance band.
    #[must_use]
    pub fn out_of_band(&self) -> Vec<&DiffEntry> {
        self.entries
            .iter()
            .filter(|e| !e.within(self.tolerance_pct))
            .collect()
    }

    /// Entries with any delta at all (ignoring the band).
    #[must_use]
    pub fn changed(&self) -> Vec<&DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.delta() != 0.0 && !(e.a.is_nan() && e.b.is_nan()))
            .collect()
    }
}

/// Diff two flat metric maps under a relative tolerance band (percent).
#[must_use]
pub fn diff_maps(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    tolerance_pct: f64,
) -> DiffReport {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let entries = keys
        .into_iter()
        .map(|key| DiffEntry {
            key: key.clone(),
            a: a.get(key).copied().unwrap_or(0.0),
            b: b.get(key).copied().unwrap_or(0.0),
        })
        .collect();
    DiffReport {
        entries,
        tolerance_pct,
    }
}

/// Project Prometheus text exposition (as written by
/// [`crate::Snapshot::to_prometheus`]) onto a flat `name → value` map.
/// Bucketed histogram samples keep their `le` label in the key.
pub fn flatten_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line}", index + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: non-numeric value: {line}", index + 1))?;
        out.insert(name.to_owned(), value);
    }
    if out.is_empty() {
        return Err("no samples in exposition".to_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> Ledger {
        let mut ledger = Ledger {
            label: "syn-3c".to_owned(),
            created_unix_ms: 1_700_000_000_000,
            records: Vec::new(),
        };
        ledger.push(SolveRecord {
            round: Some(4),
            sim_hours: Some(2.5),
            algo: "IEGT".to_owned(),
            engine: "rivalset".to_owned(),
            degraded: true,
            budget_exhausted: true,
            centers: vec![
                CenterRecord {
                    center: 0,
                    rung: "full".to_owned(),
                    budget_axis: None,
                    resolve: "warm".to_owned(),
                    shard: Some(1),
                    br_rounds: 12,
                    br_evaluations: 480,
                    br_switches: 9,
                    vdps_count: 64,
                    vdps_states: 200,
                    vdps_truncations: 0,
                    vdps_nanos: 10_000,
                    assign_nanos: 22_000,
                    events: vec![],
                },
                CenterRecord {
                    center: 17,
                    rung: "gta-fallback".to_owned(),
                    budget_axis: Some("wall_ms".to_owned()),
                    resolve: "cold".to_owned(),
                    shard: None,
                    br_rounds: 0,
                    br_evaluations: 0,
                    br_switches: 0,
                    vdps_count: 8,
                    vdps_states: 30,
                    vdps_truncations: 1,
                    vdps_nanos: 4_000,
                    assign_nanos: 600,
                    events: vec!["center 17: fell back to greedy assignment".to_owned()],
                },
            ],
            fairness: FairnessRecord {
                payoff_difference: 0.75,
                average_payoff: 3.25,
                gini: 0.12,
                incomes: vec![3.0, 3.5, 3.25],
            },
        });
        ledger
    }

    #[test]
    fn jsonl_round_trips() {
        let ledger = sample_ledger();
        let text = to_jsonl(&ledger);
        let parsed = parse(&text).expect("round-trip parses");
        assert_eq!(parsed, ledger);
        // The causal question is answerable from the file alone.
        let record = &parsed.records[0];
        let c17 = record.centers.iter().find(|c| c.center == 17).unwrap();
        assert_eq!(c17.rung, "gta-fallback");
        assert_eq!(c17.budget_axis.as_deref(), Some("wall_ms"));
        assert_eq!(c17.resolve, "cold");
        assert!(c17.events[0].contains("greedy"));
    }

    #[test]
    fn ledgers_without_shard_key_parse_as_unsharded() {
        // Ledgers written before sharding existed have no "shard" key in
        // their center rows; schema v1 reads them as unsharded.
        let text = to_jsonl(&sample_ledger());
        assert!(text.contains("\"shard\""), "writer emits the shard key");
        let stripped = text
            .replace("\"shard\":1,", "")
            .replace("\"shard\":null,", "");
        assert!(!stripped.contains("\"shard\""));
        let parsed = parse(&stripped).expect("pre-sharding ledgers still parse");
        assert!(parsed.records[0].centers.iter().all(|c| c.shard.is_none()));
    }

    #[test]
    fn empty_ledger_round_trips() {
        // A zero-center instance yields a header-only ledger.
        let empty = Ledger {
            label: "empty".to_owned(),
            created_unix_ms: 1,
            records: Vec::new(),
        };
        let parsed = parse(&to_jsonl(&empty)).unwrap();
        assert_eq!(parsed, empty);
        assert_eq!(parsed.flatten()["records"], 0.0);
        // And so does a record with no centers.
        let mut zero_centers = empty.clone();
        zero_centers.push(SolveRecord {
            algo: "GTA".to_owned(),
            engine: "incremental".to_owned(),
            fairness: FairnessRecord {
                payoff_difference: f64::NAN,
                average_payoff: f64::NAN,
                gini: f64::NAN,
                incomes: vec![],
            },
            ..SolveRecord::default()
        });
        let parsed = parse(&to_jsonl(&zero_centers)).unwrap();
        assert!(parsed.records[0].centers.is_empty());
        assert!(parsed.records[0].fairness.payoff_difference.is_nan());
    }

    #[test]
    fn parse_rejects_bad_ledgers() {
        assert!(matches!(parse(""), Err(LedgerError::MissingHeader(_))));
        assert!(matches!(
            parse("{\"schema\":\"fta-obs-trace\",\"version\":1}\n"),
            Err(LedgerError::MissingHeader(_))
        ));
        assert!(matches!(
            parse("{\"schema\":\"fta-ledger\",\"version\":99}\n"),
            Err(LedgerError::UnsupportedVersion(99))
        ));
        let header =
            "{\"schema\":\"fta-ledger\",\"version\":1,\"label\":\"x\",\"created_unix_ms\":0}";
        assert!(matches!(
            parse(&format!("{header}\n{{\"type\":\"mystery\"}}\n")),
            Err(LedgerError::Line { line: 2, .. })
        ));
        let missing = format!("{header}\n{{\"type\":\"solve\",\"algo\":\"GTA\"}}\n");
        assert!(matches!(
            parse(&missing),
            Err(LedgerError::Line { line: 2, .. })
        ));
        // Blank lines are tolerated.
        assert!(parse(&format!("{header}\n\n")).unwrap().records.is_empty());
    }

    #[test]
    fn deeply_nested_record_is_an_error_not_a_stack_overflow() {
        let line = format!(
            "{{\"type\": \"solve\", \"centers\": {}",
            "[".repeat(100_000)
        );
        match record_from_json(&line) {
            Err(LedgerError::Line { message, .. }) => {
                assert!(message.contains("nesting limit"), "{message}");
            }
            other => panic!("expected a line error, got {other:?}"),
        }
    }

    #[test]
    fn self_diff_reports_zero_deltas() {
        let flat = sample_ledger().flatten();
        let report = diff_maps(&flat, &flat, 0.0);
        assert!(!report.entries.is_empty());
        assert!(report.changed().is_empty());
        assert!(report.out_of_band().is_empty());
    }

    #[test]
    fn diff_applies_relative_tolerance_band() {
        let mut a = BTreeMap::new();
        a.insert("br.rounds".to_owned(), 100.0);
        a.insert("only_a".to_owned(), 5.0);
        let mut b = BTreeMap::new();
        b.insert("br.rounds".to_owned(), 104.0);
        b.insert("only_b".to_owned(), 7.0);
        let tight = diff_maps(&a, &b, 1.0);
        let keys: Vec<&str> = tight.out_of_band().iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["br.rounds", "only_a", "only_b"]);
        let loose = diff_maps(&a, &b, 5.0);
        let keys: Vec<&str> = loose.out_of_band().iter().map(|e| e.key.as_str()).collect();
        // 104 vs 100 is within 5%; absent keys never are (relative to 5 and 7).
        assert_eq!(keys, vec!["only_a", "only_b"]);
        assert_eq!(loose.changed().len(), 3);
    }

    #[test]
    fn flatten_prometheus_maps_samples() {
        let text = "# TYPE fta_x_total counter\nfta_x_total 42\nfta_lat_bucket{le=\"3\"} 1\n";
        let flat = flatten_prometheus(text).unwrap();
        assert_eq!(flat["fta_x_total"], 42.0);
        assert_eq!(flat["fta_lat_bucket{le=\"3\"}"], 1.0);
        assert!(flatten_prometheus("# only comments\n").is_err());
    }

    #[test]
    fn flatten_ledger_aggregates_counters() {
        let flat = sample_ledger().flatten();
        assert_eq!(flat["records"], 1.0);
        assert_eq!(flat["centers"], 2.0);
        assert_eq!(flat["rung.full"], 1.0);
        assert_eq!(flat["rung.gta-fallback"], 1.0);
        assert_eq!(flat["resolve.warm"], 1.0);
        assert_eq!(flat["br.rounds"], 12.0);
        assert_eq!(flat["fairness.final_gini"], 0.12);
    }
}
