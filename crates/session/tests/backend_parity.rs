//! Cross-backend contracts at the session level.
//!
//! Every backend runs the engine's one operator pipeline, so logical
//! parity between `Simulated` and `Measured` holds by construction; the
//! reference evaluator in `dba-engine`'s tests checks that shared result
//! against naive nested loops. What remains to check here is time
//! attribution over whole tuning trajectories: the `dual` backend clocks
//! every operator but must report the priced times, so its trajectory is
//! bit-identical to a pure simulated run (the clock never leaks into a
//! simulated number), and the `Measured` backend must be fully
//! deterministic once its clock is injected.

use dba_backend::{dual, measured_with_clock, scripted};
use dba_engine::CostModel;
use dba_optimizer::StatsCatalog;
use dba_session::{DataDrift, DriftRates, RunResult, SessionBuilder, TunerKind};
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, WorkloadKind};

fn scenarios() -> Vec<(&'static str, WorkloadKind, Option<DataDrift>)> {
    vec![
        ("static", WorkloadKind::Static { rounds: 4 }, None),
        (
            "shifting",
            WorkloadKind::Shifting {
                groups: 2,
                rounds_per_group: 2,
            },
            None,
        ),
        (
            "random",
            WorkloadKind::Random {
                rounds: 4,
                queries_per_round: 5,
            },
            None,
        ),
        (
            "drift",
            WorkloadKind::Static { rounds: 4 },
            Some(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02))),
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run(
    bench: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    drift: Option<&DataDrift>,
    budget: Option<u64>,
    backend: Option<Box<dyn dba_engine::ExecutionBackend>>,
    label: &str,
) -> RunResult {
    let mut builder = SessionBuilder::new()
        .benchmark(bench.clone())
        .shared_data(base)
        .shared_stats(stats)
        .workload(workload)
        .tuner(TunerKind::Mab)
        .seed(7);
    if let Some(drift) = drift {
        builder = builder.data_drift(drift.clone());
    }
    if let Some(bytes) = budget {
        builder = builder.memory_budget_bytes(bytes);
    }
    if let Some(backend) = backend {
        builder = builder.backend_boxed(backend);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
}

fn assert_bit_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        for (part, x, y) in [
            ("recommendation", ra.recommendation, rb.recommendation),
            ("creation", ra.creation, rb.creation),
            ("execution", ra.execution, rb.execution),
            ("maintenance", ra.maintenance, rb.maintenance),
        ] {
            assert_eq!(
                x.secs().to_bits(),
                y.secs().to_bits(),
                "{label}: round {} {part} differs: {} vs {}",
                ra.round,
                x.secs(),
                y.secs()
            );
        }
        assert_eq!(ra.plan_cache_hits, rb.plan_cache_hits, "{label}: hits");
        assert_eq!(
            ra.plan_cache_misses, rb.plan_cache_misses,
            "{label}: misses"
        );
    }
}

/// The parity sweep: every scenario axis × {tight, unbounded} memory
/// budgets. A tight budget forces index drops and rebuilds; under each,
/// the dual run's trajectory must match the pure simulated run bit for
/// bit.
#[test]
fn dual_backend_is_bit_exact_with_simulated_across_scenarios_and_budgets() {
    let bench = ssb(0.02);
    let base = bench.build_catalog(7).unwrap();
    let stats = StatsCatalog::build(&base);
    let budgets: [(&str, Option<u64>); 2] = [("tight", Some(512 * 1024)), ("unbounded", None)];
    for (scenario, workload, drift) in &scenarios() {
        for (budget_label, budget) in &budgets {
            let label = format!("{scenario}/{budget_label}");
            let sim = run(
                &bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                None,
                &label,
            );
            let dual_run = run(
                &bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                Some(dual(CostModel::paper_scale())),
                &label,
            );
            assert_bit_identical(&label, &sim, &dual_run);
        }
    }
}

/// With an injected (scripted) clock, the measured backend is a pure
/// function of its inputs: repeated runs are bit-identical, and running
/// several sessions concurrently — the suite fan-out the `DBA_THREADS`
/// knob controls — cannot perturb any of them.
#[test]
fn measured_backend_is_deterministic_under_scripted_clock() {
    let bench = ssb(0.02);
    let base = bench.build_catalog(7).unwrap();
    let stats = StatsCatalog::build(&base);
    let workload = WorkloadKind::Static { rounds: 3 };
    let run_measured = || {
        run(
            &bench,
            &base,
            &stats,
            workload,
            None,
            None,
            Some(measured_with_clock(
                CostModel::paper_scale(),
                scripted(1e-6),
            )),
            "measured",
        )
    };

    let first = run_measured();
    assert!(
        first.total().secs() > 0.0,
        "scripted clock must charge nonzero time"
    );
    let second = run_measured();
    assert_bit_identical("rerun", &first, &second);

    // Concurrent sessions (the fan-out path) see the same bits.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3).map(|_| scope.spawn(run_measured)).collect();
        for handle in handles {
            let parallel = handle.join().expect("measured session run panicked");
            assert_bit_identical("parallel", &first, &parallel);
        }
    });
}
