//! Wall-clock benchmark of the tuning loop: end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run whose wrappers time
//! the calls into each layer from outside. See README.md for the
//! workloads and the metric map.
//!
//! Usage: `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod probe;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{Rep, Workload};

/// Repetitions per run, at least: two plain ones untraced (so a run checks
/// that its seed repeats), one plain and one traced when traced.
const MIN_REPS: usize = 2;

/// Set-ups per untraced run: each repetition sets up once, and set-up-only
/// passes make up the rest.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run repetitions until `seconds` have passed (at least [`MIN_REPS`]),
/// check every output, and compute the mode's metrics.
fn run(args: &Args) -> Result<Report, String> {
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while plain.len() + traced.len() < MIN_REPS || start.elapsed() < deadline {
        let is_traced = args.trace && plain.len() > traced.len();
        let first = plain.is_empty() && traced.is_empty();
        let check_parity = first && args.workload == Workload::StaticSsbSf10;
        let rep = args.workload.run(args.seed, is_traced, check_parity)?;
        eprintln!(
            "perfbench: {} seed {} repetition {} ({}): setup {:.4} s, loop {:.4} s",
            args.workload.name(),
            args.seed,
            plain.len() + traced.len(),
            if is_traced { "traced" } else { "untraced" },
            rep.setup_s,
            rep.wall_s
        );
        if is_traced {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let mut correct = true;
    let mut fail = |why: String| {
        eprintln!("perfbench: check failed: {why}");
        correct = false;
    };
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let reference = &plain[0].work;
    for (i, rep) in all.iter().enumerate() {
        if rep.failed > 0 || rep.attempted != rep.expected_steps {
            fail(format!(
                "repetition {i} ran {} of {} steps ({} failed)",
                rep.attempted, rep.expected_steps, rep.failed
            ));
        }
        if rep.work != *reference {
            fail(format!(
                "repetition {i} diverged from the first:\n  {:?}\nvs\n  {reference:?}",
                rep.work
            ));
        }
        if let Some(Err(why)) = &rep.parity {
            fail(format!("final-round dual-backend parity: {why}"));
        }
    }
    let sim_total_s = reference.sim_total_s();
    if !(sim_total_s.is_finite() && sim_total_s > 0.0) {
        fail(format!("sim_total_s = {sim_total_s}"));
    }
    if let Some(first) = traced.first().and_then(|r| r.layers.as_ref()) {
        for (i, rep) in traced.iter().enumerate().skip(1) {
            let layers = rep
                .layers
                .as_ref()
                .expect("traced repetitions carry layers");
            if layer_counts(layers) != layer_counts(first) {
                fail(format!("traced repetition {i}: layer counters diverged"));
            }
        }
    }

    let metrics = if args.trace {
        per_layer(args.workload, &plain, &traced)
    } else {
        let mut setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        while setups.len() < SETUP_SAMPLES {
            setups.push(args.workload.setup_s(args.seed)?);
        }
        end_to_end(&plain, setups)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        fail(format!("metric {} is {}", m.name, m.value));
    }
    Ok(Report {
        correct,
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

fn layer_counts(l: &probe::Layers) -> [u64; 7] {
    [
        l.index_builds,
        l.index_drops,
        l.surviving_builds,
        l.query_walls_s.len() as u64,
        l.rows_out,
        l.full_scans,
        l.result_rows,
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=1); 0 for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn end_to_end(plain: &[Rep], setups: Vec<f64>) -> Vec<Metric> {
    let steps: Vec<f64> = plain.iter().flat_map(|r| r.step_walls_s.clone()).collect();
    vec![
        Metric {
            name: "wall_s",
            value: median(plain.iter().map(|r| r.wall_s).collect()),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "sim_total_s",
            value: plain[0].work.sim_total_s(),
            unit: "s",
        },
        Metric {
            name: "step_wall_p90_ms",
            value: percentile(&steps, 0.9) * 1e3,
            unit: "ms",
        },
    ]
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per_layer(workload: Workload, plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let guarded = workload.guarded();
    let layers: Vec<&probe::Layers> = traced
        .iter()
        .map(|r| r.layers.as_ref().expect("traced repetitions carry layers"))
        .collect();
    let first = layers[0];
    let work = &traced[0].work;
    let med = |f: &dyn Fn(&Rep, &probe::Layers) -> f64| {
        median(traced.iter().zip(&layers).map(|(r, l)| f(r, l)).collect())
    };
    let query_walls: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.query_walls_s.clone())
        .collect();
    let plain_steps: Vec<f64> = plain.iter().flat_map(|r| r.step_walls_s.clone()).collect();
    let recommend_walls: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.recommend_walls_s.clone())
        .collect();
    let traced_wall = median(traced.iter().map(|r| r.wall_s).collect());
    let plain_wall = median(plain.iter().map(|r| r.wall_s).collect());
    let useful_build_ratio = match (first.index_builds, guarded) {
        (0, _) => 0.0,
        (_, false) => 1.0,
        (builds, true) => first.surviving_builds as f64 / builds as f64,
    };
    let count = |name, value: u64| Metric {
        name,
        value: value as f64,
        unit: "count",
    };
    let secs = |name, value| Metric {
        name,
        value,
        unit: "s",
    };
    let ms = |name, value: f64| Metric {
        name,
        value: value * 1e3,
        unit: "ms",
    };
    let ratio = |name, value| Metric {
        name,
        value,
        unit: "ratio",
    };
    let [pc_hits, pc_misses, pc_inval, pc_recomp] = work.plan_cache;
    let [wi_hits, wi_misses, wi_inval, wi_recomp] = work.whatif;
    vec![
        secs("core.recommend_s", med(&|_, l| l.core_recommend_s)),
        secs("core.observe_s", med(&|_, l| l.core_observe_s)),
        count("core.bandit_refreshes", work.bandit_refreshes),
        count("core.bandit_decays", work.bandit_decays),
        count("storage.index_builds", first.index_builds),
        count("storage.index_drops", first.index_drops),
        secs(
            "safety.self_s",
            if guarded {
                med(&|_, l| l.guard_total_s - l.core_total_s)
            } else {
                0.0
            },
        ),
        count("safety.vetoes", work.vetoes as u64),
        count("safety.rollbacks", work.rollbacks as u64),
        count("safety.throttled_rounds", work.throttled_rounds as u64),
        ratio("safety.useful_build_ratio", useful_build_ratio),
        secs("engine.execute_s", med(&|_, l| l.execute_s)),
        count("engine.execute_calls", first.query_walls_s.len() as u64),
        ms("engine.query_wall_p50_ms", percentile(&query_walls, 0.5)),
        ms("engine.query_wall_p95_ms", percentile(&query_walls, 0.95)),
        count("engine.rows_out", first.rows_out),
        count("engine.full_scans", first.full_scans),
        count("engine.result_rows", first.result_rows),
        count("optimizer.plan_cache.hits", pc_hits),
        count("optimizer.plan_cache.misses", pc_misses),
        count("optimizer.plan_cache.invalidations", pc_inval),
        count("optimizer.plan_cache.recompilations", pc_recomp),
        ratio(
            "optimizer.plan_cache.hit_rate",
            hit_rate(pc_hits, pc_misses),
        ),
        count("optimizer.whatif.hits", wi_hits),
        count("optimizer.whatif.misses", wi_misses),
        count("optimizer.whatif.invalidations", wi_inval),
        count("optimizer.whatif.recompilations", wi_recomp),
        ratio("optimizer.whatif.hit_rate", hit_rate(wi_hits, wi_misses)),
        secs(
            "session.other_s",
            med(&|r, l| r.step_walls_s.iter().sum::<f64>() - l.advisor_s(guarded) - l.execute_s),
        ),
        ms("session.step_wall_p50_ms", percentile(&plain_steps, 0.5)),
        count("session.degraded_windows", work.degraded_windows as u64),
        count("workloads.arrivals", work.arrivals),
        ms(
            "stream.recommend_wall_p50_ms",
            percentile(&recommend_walls, 0.5),
        ),
        ms(
            "stream.recommend_wall_p90_ms",
            percentile(&recommend_walls, 0.9),
        ),
        secs("trace.wall_s", traced_wall),
        secs("trace.overhead_s", traced_wall - plain_wall),
    ]
}
