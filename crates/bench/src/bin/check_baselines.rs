//! Baseline-drift check: diff the scenario runs' freshly written results
//! JSON against the committed `BENCH_*.json` baselines, per tuner, within
//! a stated tolerance, and print a readable delta table. Deterministic
//! counters are gated exactly on top: per-round plan-cache and what-if
//! hits/misses in `fig9_htap` and `fig_safety`, per-window degrade level
//! and arrival count in `fig_stream`. A counter mismatch names the first
//! diverging tuner and round (or window).
//!
//! Run *after* the scenario binaries in CI:
//!
//! ```text
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig9_htap
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig_safety
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig_stream
//! cargo run --release -p dba-bench --bin check_baselines
//! ```
//!
//! Exit status is non-zero when any quantity drifts past the tolerance,
//! when any gated counter differs at all, when a seed mismatch makes the
//! comparison meaningless, or when a file is missing/unparsable. Knobs:
//!
//! * `DBA_BASELINE_TOL` — relative tolerance (default 0.02 = ±2%; runs
//!   are deterministic, so the default mostly covers float-formatting
//!   noise while still catching real drift);
//! * `DBA_BASELINE_ABS_SLACK_S` — absolute slack in simulated seconds
//!   (default 0.5) so near-zero components cannot trip on rounding.
//!
//! When a drift is *intentional* (the trajectory legitimately moved),
//! refresh the committed baseline:
//!
//! ```text
//! cp results/fig9_htap.json BENCH_fig9_htap.json
//! cp results/fig_safety.json BENCH_fig_safety.json
//! cp results/fig_stream.json BENCH_fig_stream.json
//! ```

use std::process::ExitCode;

use dba_bench::baseline::{
    compare_totals, extract_totals, first_counter_mismatch, format_delta_table, Json, RunTotals,
    ROUND_COUNTERS, WINDOW_COUNTERS,
};

/// The gated scenarios: each figure's fresh `results/<figure>.json` is
/// diffed against the committed `BENCH_<figure>.json`, and the named
/// per-step trail's deterministic counters must match exactly.
/// `fig_stream`'s totals are the simulated tuner metrics; its wall-clock
/// p99 lives inside the `stream` objects, which neither gate reads —
/// informational by construction.
const GATES: [(&str, &str, &[&str]); 3] = [
    ("fig9_htap", "rounds", &ROUND_COUNTERS),
    ("fig_safety", "rounds", &ROUND_COUNTERS),
    ("fig_stream", "windows", &WINDOW_COUNTERS),
];

fn env_f64(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(raw) => match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                eprintln!("warning: ignoring {name}={raw:?}; expected a non-negative number");
                default
            }
        },
        Err(_) => default,
    }
}

/// A parsed results document with its seed and per-run totals.
type Loaded = (Json, Option<f64>, Vec<RunTotals>);

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!("cannot read {path}: {e} (run the scenario binaries first — see --bin fig9_htap / fig_safety / fig_stream)")
    })?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (seed, runs) = extract_totals(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok((doc, seed, runs))
}

fn main() -> ExitCode {
    let rel_tol = env_f64("DBA_BASELINE_TOL", 0.02);
    let abs_slack_s = env_f64("DBA_BASELINE_ABS_SLACK_S", 0.5);
    println!(
        "Baseline-drift check: tolerance ±{:.1}% relative + {abs_slack_s}s absolute slack; \
         deterministic counters exact",
        rel_tol * 100.0
    );

    let mut failed = false;
    for (figure, trail, counters) in GATES {
        let current_path = format!("results/{figure}.json");
        let baseline_path = format!("BENCH_{figure}.json");
        println!("\n# {figure}: {current_path} vs {baseline_path}");
        let (current, baseline) = match (load(&current_path), load(&baseline_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (c, b) => {
                for err in [c.err(), b.err()].into_iter().flatten() {
                    eprintln!("error: {err}");
                }
                failed = true;
                continue;
            }
        };
        let (current, cur_seed, cur_runs) = current;
        let (baseline, base_seed, base_runs) = baseline;
        if cur_seed != base_seed {
            eprintln!(
                "error: seed mismatch ({cur_seed:?} vs baseline {base_seed:?}) — totals are \
                 not comparable across seeds; re-run the scenario with the baseline's seed"
            );
            failed = true;
            continue;
        }
        match compare_totals(&cur_runs, &base_runs, rel_tol, abs_slack_s) {
            Ok(rows) => {
                print!("{}", format_delta_table(&rows));
                let drifts = rows.iter().filter(|r| !r.within_tolerance).count();
                if drifts > 0 {
                    eprintln!(
                        "error: {figure}: {drifts} quantit{} drifted past the tolerance — \
                         if intentional, refresh the baseline: cp {current_path} {baseline_path}",
                        if drifts == 1 { "y" } else { "ies" }
                    );
                    failed = true;
                } else {
                    println!("{figure}: all tuners within tolerance");
                }
            }
            Err(e) => {
                eprintln!("error: {figure}: {e}");
                failed = true;
            }
        }
        match first_counter_mismatch(&current, &baseline, trail, counters) {
            Ok(None) => println!(
                "{figure}: per-{} {} identical",
                trail.trim_end_matches('s'),
                counters.join("/")
            ),
            Ok(Some(divergence)) => {
                eprintln!(
                    "error: {figure}: deterministic counters diverge at {divergence} — \
                     if intentional, refresh the baseline: cp {current_path} {baseline_path}"
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("error: {figure}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nbaseline-drift check passed");
        ExitCode::SUCCESS
    }
}
