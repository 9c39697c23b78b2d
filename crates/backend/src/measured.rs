//! Factories for the clocked execution backends.
//!
//! Both run the engine's one operator pipeline with a [`ClockSource`]
//! timing every operator and recording an `OpSample` (its work counters
//! beside the clocked and the priced seconds). They differ only in which
//! time the execution reports.

use dba_engine::{CostModel, ExecutionBackend, Executor};

use crate::clock::{wall_clock, ClockSource};

/// The `Measured` backend on the real wall-clock.
pub fn measured(cost: CostModel) -> Box<dyn ExecutionBackend> {
    measured_with_clock(cost, wall_clock())
}

/// The `Measured` backend on an injected clock (tests, determinism).
pub fn measured_with_clock(cost: CostModel, clock: ClockSource) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::measured(cost, clock))
}

/// The dual backend on the real wall-clock: the priced trajectory of the
/// `Simulated` backend, with clocked operator samples kept for calibration.
pub fn dual(cost: CostModel) -> Box<dyn ExecutionBackend> {
    dual_with_clock(cost, wall_clock())
}

/// The dual backend on an injected clock.
pub fn dual_with_clock(cost: CostModel, clock: ClockSource) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::dual(cost, clock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::scripted;
    use dba_engine::BackendKind;

    #[test]
    fn factories_report_their_kinds() {
        let m = measured(CostModel::paper_scale());
        assert_eq!(m.kind(), BackendKind::Measured);
        assert_eq!(m.name(), "measured");
        assert!(m.measures_wall_clock());
        assert_eq!(
            measured_with_clock(CostModel::unit_scale(), scripted(1e-6)).kind(),
            BackendKind::Measured
        );
        for d in [
            dual(CostModel::unit_scale()),
            dual_with_clock(CostModel::unit_scale(), scripted(1e-6)),
        ] {
            assert_eq!(d.kind(), BackendKind::Simulated);
            assert_eq!(d.name(), "dual");
            assert!(!d.measures_wall_clock());
        }
    }
}
