//! Baseline-drift checking: parse results JSON documents and diff a fresh
//! run against the committed `BENCH_*.json` baseline, per tuner, within a
//! stated tolerance.
//!
//! The scenario binaries (`fig9_htap`, `fig_safety`) carry in-binary
//! asserts for their *qualitative* verdicts (MAB beats NoIndex, guarded
//! tuners stay bounded). What those asserts cannot catch is quiet
//! *quantitative* drift — a change that legitimately keeps every verdict
//! but moves the totals, or an unintended regression hiding inside a
//! still-green verdict. The `check_baselines` binary closes that gap in
//! CI: it re-reads the JSON the scenario runs just wrote, compares every
//! tuner's end-to-end totals against the committed baseline and prints a
//! readable per-tuner delta table instead of a bare panic. Deterministic
//! per-round and per-window counters are compared exactly, with no
//! tolerance (see [`first_counter_mismatch`]).
//!
//! The parser is a minimal recursive-descent JSON reader — the offline
//! build has no `serde_json`, and the documents are our own (written by
//! [`crate::report::results_json`]), so a few hundred lines of exact
//! parsing beat a dependency.

use std::collections::BTreeMap;

/// A parsed JSON value (only what our documents use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion order is irrelevant for our lookups; a sorted map keeps
    /// comparisons deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document. Trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of document".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Our writer never emits surrogate pairs (it only
                        // escapes control characters); reject them rather
                        // than decode them wrongly.
                        out.push(
                            char::from_u32(code).ok_or(format!("non-scalar \\u{hex} escape"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            other => return Err(format!("expected ',' or ']' in array, got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            other => return Err(format!("expected ',' or '}}' in object, got {other:?}")),
        }
    }
}

/// The per-tuner quantities a results document reports (the `totals`
/// block of each run), in a fixed comparison order.
pub const TOTAL_KEYS: [&str; 5] = [
    "recommendation_s",
    "creation_s",
    "maintenance_s",
    "execution_s",
    "total_s",
];

/// One run's totals extracted from a results document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTotals {
    pub tuner: String,
    /// Values in [`TOTAL_KEYS`] order.
    pub totals: [f64; 5],
}

/// Extract `(seed, per-run totals)` from a parsed results document.
pub fn extract_totals(doc: &Json) -> Result<(Option<f64>, Vec<RunTotals>), String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("document has no \"runs\" array")?;
    let seed = doc.get("seed").and_then(Json::as_f64);
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        let tuner = run
            .get("tuner")
            .and_then(Json::as_str)
            .ok_or("run without a \"tuner\"")?
            .to_string();
        let totals_obj = run
            .get("totals")
            .ok_or_else(|| format!("{tuner}: run without \"totals\""))?;
        let mut totals = [0.0; 5];
        for (slot, key) in totals.iter_mut().zip(TOTAL_KEYS) {
            *slot = totals_obj
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{tuner}: totals missing {key:?}"))?;
        }
        out.push(RunTotals { tuner, totals });
    }
    Ok((seed, out))
}

/// Deterministic per-round counters of the fixed-round scenarios: the
/// plan cache and what-if service hit/miss deltas each round records.
pub const ROUND_COUNTERS: [&str; 4] = [
    "plan_cache_hits",
    "plan_cache_misses",
    "whatif_hits",
    "whatif_misses",
];

/// Deterministic per-window fields of the streaming scenario: the degrade
/// level the window ran at and its arrival count.
pub const WINDOW_COUNTERS: [&str; 2] = ["level", "arrivals"];

fn show(value: &Json) -> String {
    match value {
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Exact gate on deterministic counters: walk every run's `trail` array
/// (`"rounds"` or `"windows"`) in both documents and require each step's
/// `keys` to be equal — no tolerance, since the counters do not depend on
/// the machine. Returns the first divergence, naming the tuner and the
/// step (`None` when everything matches); a missing trail or key is a
/// schema error.
pub fn first_counter_mismatch(
    current: &Json,
    baseline: &Json,
    trail: &str,
    keys: &[&str],
) -> Result<Option<String>, String> {
    fn array<'a>(doc: &'a Json, key: &str) -> Option<&'a [Json]> {
        doc.get(key).and_then(Json::as_array)
    }
    let no_runs = || "document has no \"runs\" array".to_string();
    let cur_runs = array(current, "runs").ok_or_else(no_runs)?;
    let base_runs = array(baseline, "runs").ok_or_else(no_runs)?;
    if cur_runs.len() != base_runs.len() {
        return Err(format!(
            "run count differs: current has {}, baseline has {}",
            cur_runs.len(),
            base_runs.len()
        ));
    }
    // "rounds" → each step's "round" field, "windows" → "window".
    let step_key = trail.strip_suffix('s').unwrap_or(trail);
    for (cur, base) in cur_runs.iter().zip(base_runs) {
        let tuner = cur.get("tuner").and_then(Json::as_str).unwrap_or("?");
        let no_trail = |side: &str| format!("{tuner}: {side} run has no {trail:?} array");
        let cur_steps = array(cur, trail).ok_or_else(|| no_trail("current"))?;
        let base_steps = array(base, trail).ok_or_else(|| no_trail("baseline"))?;
        if cur_steps.len() != base_steps.len() {
            return Ok(Some(format!(
                "{tuner}: {} {trail} vs baseline {}",
                cur_steps.len(),
                base_steps.len()
            )));
        }
        for (i, (c, b)) in cur_steps.iter().zip(base_steps).enumerate() {
            for &key in keys {
                let missing = || format!("{tuner}: {trail}[{i}] has no {key:?}");
                let cv = c.get(key).ok_or_else(missing)?;
                let bv = b.get(key).ok_or_else(missing)?;
                if cv != bv {
                    let step = c.get(step_key).map_or_else(|| i.to_string(), show);
                    return Ok(Some(format!(
                        "{tuner} {step_key} {step}: {key} = {} (baseline {})",
                        show(cv),
                        show(bv)
                    )));
                }
            }
        }
    }
    Ok(None)
}

/// One row of the delta table: a (tuner, quantity) comparison.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    pub tuner: String,
    pub key: &'static str,
    pub baseline: f64,
    pub current: f64,
    pub within_tolerance: bool,
}

impl DeltaRow {
    /// Relative delta vs the baseline. A ~zero baseline has no meaningful
    /// relative drift (it would print an astronomical percentage for any
    /// nonzero current value); those rows report 0 and let the absolute
    /// columns and the tolerance verdict carry the signal.
    pub fn rel_delta(&self) -> f64 {
        if self.baseline.abs() < 1e-9 {
            return 0.0;
        }
        (self.current - self.baseline) / self.baseline.abs()
    }
}

/// Compare a current run set against a baseline. A quantity drifts when
/// `|current − baseline| > rel_tol × |baseline| + abs_slack_s`: the
/// relative term scales with the figure, the absolute slack keeps
/// near-zero components (a tuner that never recommends) from tripping on
/// noise. Tuners present on only one side are an error — a run list
/// change is a schema-level drift the table cannot express.
pub fn compare_totals(
    current: &[RunTotals],
    baseline: &[RunTotals],
    rel_tol: f64,
    abs_slack_s: f64,
) -> Result<Vec<DeltaRow>, String> {
    let mut rows = Vec::new();
    if current.len() != baseline.len() {
        return Err(format!(
            "run count differs: current has {}, baseline has {}",
            current.len(),
            baseline.len()
        ));
    }
    for (cur, base) in current.iter().zip(baseline) {
        if cur.tuner != base.tuner {
            return Err(format!(
                "run order differs: current {:?} vs baseline {:?}",
                cur.tuner, base.tuner
            ));
        }
        for ((key, &c), &b) in TOTAL_KEYS.iter().zip(&cur.totals).zip(&base.totals) {
            rows.push(DeltaRow {
                tuner: cur.tuner.clone(),
                key,
                baseline: b,
                current: c,
                within_tolerance: (c - b).abs() <= rel_tol * b.abs() + abs_slack_s,
            });
        }
    }
    Ok(rows)
}

/// Render the delta table (one line per tuner × quantity, drifts marked).
pub fn format_delta_table(rows: &[DeltaRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<18} {:>14} {:>14} {:>9}  {}\n",
        "tuner", "quantity", "baseline (s)", "current (s)", "delta", "verdict"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:<18} {:>14.1} {:>14.1} {:>+8.2}%  {}\n",
            row.tuner,
            row.key,
            row.baseline,
            row.current,
            row.rel_delta() * 100.0,
            if row.within_tolerance { "ok" } else { "DRIFT" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_our_own_results_json() {
        use crate::harness::{RoundRecord, RunResult};
        use crate::report::results_json;
        use dba_common::SimSeconds;

        let run = RunResult {
            tuner: "MAB+guard".into(),
            benchmark: "SSB".into(),
            workload: "shifting+drift".into(),
            rounds: vec![RoundRecord {
                round: 1,
                recommendation: SimSeconds::new(1.5),
                creation: SimSeconds::new(2.0),
                execution: SimSeconds::new(30.25),
                maintenance: SimSeconds::new(0.5),
                plan_cache_hits: 3,
                plan_cache_misses: 1,
                whatif_hits: 2,
                whatif_misses: 5,
                shift_intensity: 1.0,
                bandit_refreshes: 1,
                bandit_decays: 0,
            }],
            safety: None,
        };
        let text = results_json(
            &[("seed", "42".into()), ("figure", "\"fig_x\"".into())],
            &[run],
        );
        let doc = Json::parse(&text).expect("our own writer must parse");
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("fig_x"));
        let (seed, totals) = extract_totals(&doc).unwrap();
        assert_eq!(seed, Some(42.0));
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].tuner, "MAB+guard");
        assert!((totals[0].totals[4] - 34.25).abs() < 1e-9, "total_s");
    }

    #[test]
    fn parser_handles_escapes_and_structure() {
        let doc = Json::parse(r#"{"a": [1, -2.5e1, true, null], "b": "x\"y\nz"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_array).unwrap().len(), 4);
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y\nz"));
        assert!(Json::parse("{\"unterminated\": ").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    fn run(tuner: &str, total: f64) -> RunTotals {
        RunTotals {
            tuner: tuner.into(),
            totals: [0.0, 0.0, 0.0, total, total],
        }
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let rows = compare_totals(&[run("MAB", 101.0)], &[run("MAB", 100.0)], 0.02, 0.5).unwrap();
        assert!(rows.iter().all(|r| r.within_tolerance));
        let table = format_delta_table(&rows);
        assert!(table.contains("ok"));
        assert!(!table.contains("DRIFT"));
    }

    #[test]
    fn drift_past_tolerance_is_flagged() {
        let rows = compare_totals(&[run("MAB", 110.0)], &[run("MAB", 100.0)], 0.02, 0.5).unwrap();
        assert!(rows.iter().any(|r| !r.within_tolerance));
        assert!(format_delta_table(&rows).contains("DRIFT"));
        // The relative delta reads +10%.
        let total = rows.iter().find(|r| r.key == "total_s").unwrap();
        assert!((total.rel_delta() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn near_zero_components_use_absolute_slack() {
        // NoIndex never recommends: 0.0 vs 0.3s must not explode into an
        // infinite relative delta or a spurious drift.
        let mut cur = run("NoIndex", 100.0);
        cur.totals[0] = 0.3;
        let rows = compare_totals(&[cur], &[run("NoIndex", 100.0)], 0.02, 0.5).unwrap();
        let rec = rows.iter().find(|r| r.key == "recommendation_s").unwrap();
        assert!(rec.within_tolerance, "inside the absolute slack");
        // And the table stays readable: no astronomical percentage from a
        // zero baseline.
        assert_eq!(rec.rel_delta(), 0.0);
    }

    fn counters_doc(trail: &str, steps: &[&str]) -> Json {
        let steps: Vec<String> = steps
            .iter()
            .enumerate()
            .map(|(i, fields)| {
                format!("{{\"{}\": {}, {fields}}}", &trail[..trail.len() - 1], i + 1)
            })
            .collect();
        Json::parse(&format!(
            "{{\"runs\": [{{\"tuner\": \"MAB\", \"{trail}\": [{}]}}]}}",
            steps.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn identical_counters_pass_the_exact_gate() {
        let doc = counters_doc("rounds", &[r#""whatif_hits": 3"#, r#""whatif_hits": 5"#]);
        assert_eq!(
            first_counter_mismatch(&doc, &doc, "rounds", &["whatif_hits"]),
            Ok(None)
        );
    }

    #[test]
    fn exact_gate_names_the_first_diverging_tuner_and_step() {
        let base = counters_doc(
            "windows",
            &[
                r#""level": "full", "arrivals": 10"#,
                r#""level": "full", "arrivals": 12"#,
            ],
        );
        let cur = counters_doc(
            "windows",
            &[
                r#""level": "full", "arrivals": 10"#,
                r#""level": "reuse", "arrivals": 12"#,
            ],
        );
        let msg = first_counter_mismatch(&cur, &base, "windows", &WINDOW_COUNTERS)
            .unwrap()
            .expect("level moved");
        assert_eq!(msg, "MAB window 2: level = reuse (baseline full)");
        // One count off is a divergence too: no tolerance.
        let cur = counters_doc("rounds", &[r#""whatif_hits": 4"#]);
        let base = counters_doc("rounds", &[r#""whatif_hits": 3"#]);
        assert!(
            first_counter_mismatch(&cur, &base, "rounds", &["whatif_hits"])
                .unwrap()
                .is_some()
        );
        // A step-count change is a divergence; a missing key is a schema error.
        let short = counters_doc("rounds", &[]);
        assert!(
            first_counter_mismatch(&short, &base, "rounds", &["whatif_hits"])
                .unwrap()
                .is_some()
        );
        assert!(first_counter_mismatch(&cur, &base, "rounds", &["whatif_misses"]).is_err());
    }

    #[test]
    fn mismatched_run_lists_are_schema_errors() {
        assert!(compare_totals(&[run("MAB", 1.0)], &[], 0.02, 0.5).is_err());
        assert!(compare_totals(&[run("MAB", 1.0)], &[run("DDQN", 1.0)], 0.02, 0.5).is_err());
    }
}
