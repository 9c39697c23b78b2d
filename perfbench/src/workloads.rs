//! The three benchmark workloads, each driven through the public
//! `SessionBuilder` / `TuningSession` / `StreamingSession` API. One call
//! of [`Workload::run`] is one repetition: set up from scratch, drive the
//! tuning loop to completion, collect the deterministic work counters.
//! README.md says why each workload exists.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dba_bandits::backend::{dual, simulated};
use dba_bandits::bandit::{Advisor, MabConfig, MabTuner};
use dba_bandits::common::BudgetTimer;
use dba_bandits::engine::CostModel;
use dba_bandits::optimizer::StatsCatalog;
use dba_bandits::safety::{SafeguardedAdvisor, SafetyConfig, SafetyLedger, SafetyReport};
use dba_bandits::session::{
    make_advisor, ArrivalProcess, DegradeLevel, DynStreamingSession, SessionBuilder, StreamConfig,
    StreamingSession, TunerKind, TuningSession,
};
use dba_bandits::workloads::{
    ssb::ssb, tpcds::tpcds, tpch::tpch, ArrivalSchedule, Benchmark, DataDrift, DriftRates,
    WorkloadKind, WorkloadSequencer,
};

use crate::probe::{Layers, Probe, Role, TimedAdvisor, TimedBackend};

/// `stream_bursty_guard`: rounds per shifting group (×4 groups ×8 windows
/// per round).
const STREAM_ROUNDS_PER_GROUP: usize = 2;
/// `stream_bursty_guard`: per-window recommend budget, simulated seconds
/// (`fig_stream`'s default).
const STREAM_BUDGET_S: f64 = 0.2;
/// `adhoc_tpcds_drift`: rounds of the random workload.
const ADHOC_ROUNDS: usize = 96;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamBurstyGuard,
    StaticSsbSf10,
    AdhocTpcdsDrift,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StreamBurstyGuard,
        Workload::StaticSsbSf10,
        Workload::AdhocTpcdsDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamBurstyGuard => "stream_bursty_guard",
            Workload::StaticSsbSf10 => "static_ssb_sf10",
            Workload::AdhocTpcdsDrift => "adhoc_tpcds_drift",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the tuner runs under the safety guard.
    pub fn guarded(self) -> bool {
        self != Workload::StaticSsbSf10
    }

    /// Set up the untraced session once more, without running it: one
    /// more `setup_s` sample.
    pub fn setup_s(self, seed: u64) -> Result<f64, String> {
        Ok(match self {
            Workload::StreamBurstyGuard => stream_plain(seed)?.1,
            Workload::StaticSsbSf10 => static_plain(seed)?.1,
            Workload::AdhocTpcdsDrift => adhoc_plain(seed)?.1,
        })
    }

    /// One repetition. `traced` wraps the layers in probes; `check_parity`
    /// (static workload only) re-runs the final round's plans through the
    /// lock-step dual backend after the timed loop.
    pub fn run(self, seed: u64, traced: bool, check_parity: bool) -> Result<Rep, String> {
        match self {
            Workload::StreamBurstyGuard => stream_bursty_guard(seed, traced),
            Workload::StaticSsbSf10 => static_ssb_sf10(seed, traced, check_parity),
            Workload::AdhocTpcdsDrift => adhoc_tpcds_drift(seed, traced),
        }
    }
}

/// Deterministic counters of one repetition. Two repetitions of one seed,
/// traced or not, must agree on every field; simulated seconds are
/// compared bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Work {
    pub sim_total_bits: u64,
    pub sim_parts_bits: [u64; 4],
    pub steps: usize,
    pub plan_cache: [u64; 4],
    pub whatif: [u64; 4],
    pub bandit_refreshes: u64,
    pub bandit_decays: u64,
    pub vetoes: usize,
    pub rollbacks: usize,
    pub throttled_rounds: usize,
    pub degraded_windows: usize,
    pub arrivals: u64,
    pub final_indexes: usize,
}

impl Work {
    pub fn sim_total_s(&self) -> f64 {
        f64::from_bits(self.sim_total_bits)
    }
}

/// One repetition's measurements.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub step_walls_s: Vec<f64>,
    pub expected_steps: usize,
    pub attempted: usize,
    pub failed: usize,
    /// The streaming driver's advisory `BudgetTimer` samples.
    pub recommend_walls_s: Vec<f64>,
    pub work: Work,
    /// Present on traced repetitions.
    pub layers: Option<Layers>,
    /// Present when the parity check ran: `Err` names the divergence.
    pub parity: Option<Result<(), String>>,
}

/// Timings of one driven loop.
#[derive(Default)]
struct Loop {
    wall_s: f64,
    step_walls_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    recommend_walls_s: Vec<f64>,
    arrivals: u64,
    degraded_windows: usize,
}

/// `fig_stream`'s light refresh-stream drift.
fn stream_drift() -> DataDrift {
    DataDrift::none()
        .with_table("orders", DriftRates::new(0.005, 0.0, 0.005))
        .with_table("lineitem", DriftRates::new(0.005, 0.0025, 0.005))
}

/// Generated data, its statistics and the builder over them — the part of
/// setup every workload shares.
fn prepare(bench: &Benchmark, seed: u64) -> Result<SessionBuilder, String> {
    let base = bench.build_catalog(seed).map_err(|e| e.to_string())?;
    let stats = StatsCatalog::build(&base);
    Ok(SessionBuilder::new()
        .benchmark(bench.clone())
        .shared_data(&base)
        .shared_stats(&stats)
        .tuner(TunerKind::Mab)
        .seed(seed))
}

/// The traced session's backend: the default simulated backend, timed.
fn timed_backend(probe: &Probe) -> Box<TimedBackend> {
    Box::new(TimedBackend::new(
        simulated(CostModel::paper_scale()),
        probe.clone(),
    ))
}

/// Wrap an inner tuner the way `SessionBuilder::safeguard` does, with a
/// probe around the tuner and another around the guard.
fn guard_stack<A: Advisor>(
    inner: A,
    cost: &CostModel,
    budget: u64,
    probe: &Probe,
) -> (
    TimedAdvisor<SafeguardedAdvisor<TimedAdvisor<A>>>,
    SafetyLedger,
) {
    let mut config = SafetyConfig::default();
    if config.memory_budget_bytes == 0 {
        config.memory_budget_bytes = budget;
    }
    let core = TimedAdvisor::new(inner, Role::Core, probe.clone());
    let guard = SafeguardedAdvisor::new(core, config, cost.clone());
    let ledger = guard.ledger();
    (TimedAdvisor::new(guard, Role::Guard, probe.clone()), ledger)
}

type Setup<T> = Result<(T, f64), String>;

fn stream_kind() -> WorkloadKind {
    WorkloadKind::Shifting {
        groups: 4,
        rounds_per_group: STREAM_ROUNDS_PER_GROUP,
    }
}

/// `fig_stream`'s MAB: the defaults (memory budget `u64::MAX` included)
/// plus the streaming fast path.
fn stream_mab() -> MabConfig {
    MabConfig {
        streaming_fast_path: true,
        ..MabConfig::default()
    }
}

fn stream_builder(bench: &Benchmark, seed: u64) -> Result<SessionBuilder, String> {
    Ok(prepare(bench, seed)?
        .workload(stream_kind())
        .data_drift(stream_drift())
        .mab_config(stream_mab()))
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(ArrivalProcess::paper_bursty(), STREAM_BUDGET_S)
}

fn stream_plain(seed: u64) -> Setup<DynStreamingSession> {
    let setup = Instant::now();
    let session = stream_builder(&tpch(1.0), seed)?
        .safeguard(SafetyConfig::default())
        .build()
        .map_err(|e| e.to_string())?;
    let stream = StreamingSession::new(session, stream_config());
    Ok((stream, setup.elapsed().as_secs_f64()))
}

fn stream_bursty_guard(seed: u64, traced: bool) -> Result<Rep, String> {
    if !traced {
        let (mut stream, setup_s) = stream_plain(seed)?;
        let lp = drive_stream(&mut stream, None);
        let safety = stream.safety_report();
        return Ok(finish(
            stream.session(),
            stream.windows_total(),
            safety,
            setup_s,
            lp,
            None,
        ));
    }
    let setup = Instant::now();
    let bench = tpch(1.0);
    let probe = Probe::default();
    let mut ledger = None;
    let session = stream_builder(&bench, seed)?
        .backend_boxed(timed_backend(&probe))
        .build_with(|catalog, cost, budget| {
            let mut mab = stream_mab();
            if mab.memory_budget_bytes == 0 {
                mab.memory_budget_bytes = budget;
            }
            let (stack, handle) = guard_stack(
                MabTuner::new(catalog, cost.clone(), mab),
                cost,
                budget,
                &probe,
            );
            ledger = Some(handle);
            stack
        })
        .map_err(|e| e.to_string())?;
    let ledger = ledger.expect("build_with ran the advisor constructor");
    let mut stream = StreamingSession::new(session, stream_config());
    let setup_s = setup.elapsed().as_secs_f64();
    // A `build_with` session holds no ledger, so the window weights the
    // session would hand the guard come from the arrival schedule here.
    let weights = WindowWeights {
        ledger: &ledger,
        bench: &bench,
        process: stream.config().arrival,
        seed,
    };
    let lp = drive_stream(&mut stream, Some(&weights));
    let safety = Some(ledger.report());
    let total = stream.windows_total();
    Ok(finish(
        stream.session(),
        total,
        safety,
        setup_s,
        lp,
        Some(probe),
    ))
}

fn static_plain(seed: u64) -> Setup<TuningSession<Box<dyn Advisor>>> {
    let setup = Instant::now();
    let session = prepare(&ssb(10.0), seed)?
        .build()
        .map_err(|e| e.to_string())?;
    Ok((session, setup.elapsed().as_secs_f64()))
}

fn static_ssb_sf10(seed: u64, traced: bool, check_parity: bool) -> Result<Rep, String> {
    if !traced {
        let (session, setup_s) = static_plain(seed)?;
        return Ok(run_rounds(session, setup_s, None, None, check_parity));
    }
    let setup = Instant::now();
    let bench = ssb(10.0);
    let probe = Probe::default();
    let session = prepare(&bench, seed)?
        .backend_boxed(timed_backend(&probe))
        .build_with(|catalog, cost, budget| {
            let workload = WorkloadKind::paper_static();
            let mab = make_advisor(TunerKind::Mab, bench.name, workload, catalog, cost, budget);
            TimedAdvisor::new(mab, Role::Core, probe.clone())
        })
        .map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed().as_secs_f64();
    Ok(run_rounds(
        session,
        setup_s,
        None,
        Some(probe),
        check_parity,
    ))
}

fn adhoc_kind(bench: &Benchmark) -> WorkloadKind {
    WorkloadKind::Random {
        rounds: ADHOC_ROUNDS,
        queries_per_round: bench.templates().len(),
    }
}

fn adhoc_builder(bench: &Benchmark, seed: u64) -> Result<SessionBuilder, String> {
    Ok(prepare(bench, seed)?
        .workload(adhoc_kind(bench))
        .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02))))
}

fn adhoc_plain(seed: u64) -> Setup<TuningSession<Box<dyn Advisor>>> {
    let setup = Instant::now();
    let session = adhoc_builder(&tpcds(1.0), seed)?
        .safeguard(SafetyConfig::default())
        .build()
        .map_err(|e| e.to_string())?;
    Ok((session, setup.elapsed().as_secs_f64()))
}

fn adhoc_tpcds_drift(seed: u64, traced: bool) -> Result<Rep, String> {
    if !traced {
        let (session, setup_s) = adhoc_plain(seed)?;
        let safety = session.safety_ledger().cloned();
        return Ok(run_rounds(session, setup_s, safety, None, false));
    }
    let setup = Instant::now();
    let bench = tpcds(1.0);
    let probe = Probe::default();
    let mut ledger = None;
    let session = adhoc_builder(&bench, seed)?
        .backend_boxed(timed_backend(&probe))
        .build_with(|catalog, cost, budget| {
            let kind = adhoc_kind(&bench);
            let mab = make_advisor(TunerKind::Mab, bench.name, kind, catalog, cost, budget);
            let (stack, handle) = guard_stack(mab, cost, budget, &probe);
            ledger = Some(handle);
            stack
        })
        .map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed().as_secs_f64();
    Ok(run_rounds(session, setup_s, ledger, Some(probe), false))
}

/// Drive a round-driven session (`step`) to completion and collect.
fn run_rounds<A: Advisor>(
    mut session: TuningSession<A>,
    setup_s: f64,
    ledger: Option<SafetyLedger>,
    probe: Option<Probe>,
    check_parity: bool,
) -> Rep {
    let mut lp = Loop::default();
    let start = Instant::now();
    while !session.is_finished() {
        let step = Instant::now();
        let outcome = session.step_with(&mut |event| lp.arrivals += event.queries as u64);
        lp.step_walls_s.push(step.elapsed().as_secs_f64());
        lp.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("perfbench: round {} failed: {e}", session.rounds_done());
            lp.failed += 1;
            break;
        }
    }
    lp.wall_s = start.elapsed().as_secs_f64();
    let safety = ledger.map(|l| l.report());
    let mut rep = finish(&session, session.rounds_total(), safety, setup_s, lp, probe);
    rep.parity = check_parity.then(|| final_round_parity(&session));
    rep
}

/// Where a traced streaming run gets the per-window arrival weights the
/// session would otherwise feed the guard's ledger.
struct WindowWeights<'a> {
    ledger: &'a SafetyLedger,
    bench: &'a Benchmark,
    process: ArrivalProcess,
    seed: u64,
}

fn drive_stream<A: Advisor>(
    stream: &mut StreamingSession<A>,
    weights: Option<&WindowWeights<'_>>,
) -> Loop {
    // The stream's own advisory wall-clock samples of the recommend step.
    let epoch = Instant::now();
    stream.set_timer(BudgetTimer::with_source(move || {
        epoch.elapsed().as_secs_f64()
    }));
    let mut lp = Loop::default();
    let start = Instant::now();
    while !stream.is_finished() {
        if let Some(ww) = weights {
            let seq = WorkloadSequencer::new(ww.bench, stream_kind(), ww.seed);
            let window =
                ArrivalSchedule::new(seq, ww.process, ww.seed).window(stream.windows_done());
            ww.ledger
                .note_window_weights(window.arrivals.iter().map(|&(_, c)| c as f64).collect());
        }
        let step = Instant::now();
        let outcome = stream.step();
        lp.step_walls_s.push(step.elapsed().as_secs_f64());
        lp.attempted += 1;
        match outcome {
            Ok(Some(record)) => {
                lp.recommend_walls_s.extend(record.wall_recommend_s);
                lp.arrivals += record.arrivals;
                lp.degraded_windows += usize::from(record.level != DegradeLevel::Full);
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("perfbench: window {} failed: {e}", stream.windows_done());
                lp.failed += 1;
                break;
            }
        }
    }
    lp.wall_s = start.elapsed().as_secs_f64();
    lp
}

/// Collect one repetition: its timings and the session's deterministic
/// counters.
fn finish<A: Advisor>(
    session: &TuningSession<A>,
    expected_steps: usize,
    safety: Option<SafetyReport>,
    setup_s: f64,
    lp: Loop,
    probe: Option<Probe>,
) -> Rep {
    let run = session.result();
    let plan_cache = session.plan_cache_stats();
    let whatif = session.whatif_stats();
    let (vetoes, rollbacks, throttled_rounds) = safety
        .map(|s| (s.vetoes, s.rollbacks, s.throttled_rounds))
        .unwrap_or_default();
    let work = Work {
        sim_total_bits: run.total().secs().to_bits(),
        sim_parts_bits: [
            run.total_recommendation().secs().to_bits(),
            run.total_creation().secs().to_bits(),
            run.total_execution().secs().to_bits(),
            run.total_maintenance().secs().to_bits(),
        ],
        steps: run.rounds.len(),
        plan_cache: [
            plan_cache.hits,
            plan_cache.misses,
            plan_cache.invalidations,
            plan_cache.recompilations,
        ],
        whatif: [
            whatif.hits,
            whatif.misses,
            whatif.invalidations,
            whatif.recompilations,
        ],
        bandit_refreshes: run.total_bandit_refreshes(),
        bandit_decays: run.total_bandit_decays(),
        vetoes,
        rollbacks,
        throttled_rounds,
        degraded_windows: lp.degraded_windows,
        arrivals: lp.arrivals,
        final_indexes: session.catalog().all_indexes().count(),
    };
    Rep {
        setup_s,
        wall_s: lp.wall_s,
        step_walls_s: lp.step_walls_s,
        expected_steps,
        attempted: lp.attempted,
        failed: lp.failed,
        recommend_walls_s: lp.recommend_walls_s,
        work,
        layers: probe.map(|p| p.snapshot()),
        parity: None,
    }
}

/// Re-run the final round's plans through the lock-step dual backend (the
/// measured operators beside the simulated ones); it panics on any logical
/// divergence, which is reported here as an error.
fn final_round_parity<A: Advisor>(session: &TuningSession<A>) -> Result<(), String> {
    let Some(last) = session.rounds_done().checked_sub(1) else {
        return Err("no round completed".into());
    };
    let plans = session.plan_round(last).map_err(|e| e.to_string())?;
    let mut backend = dual(CostModel::paper_scale());
    catch_unwind(AssertUnwindSafe(|| {
        for (query, plan) in &plans {
            backend.execute(session.catalog(), query, plan);
        }
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "dual backend diverged".into())
    })
}
