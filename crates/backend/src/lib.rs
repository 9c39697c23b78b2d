//! Clocked execution backends and cost-model calibration for the
//! `dba-bandits` reproduction.
//!
//! `dba-engine` holds the one operator pipeline every backend runs
//! (`dba_engine::exec`) and its *Priced* attribution, the `Simulated`
//! backend, where the `CostModel` prices each operator. This crate supplies
//! what the *Clocked* attribution needs from outside the engine:
//!
//! - [`clock`] — the injectable [`ClockSource`]s: the real [`wall_clock`]
//!   and the deterministic [`scripted`] one;
//! - [`measured`](mod@measured) — the factories for the clocked backends: `measured`
//!   reports each operator's clocked seconds, `dual` reports the priced
//!   seconds and keeps the clocked per-operator samples alongside;
//! - [`calibrate`](mod@calibrate) — least-squares fitting of `CostModel` constants
//!   against clocked seconds on a seeded microbench workload.
//!
//! Construct backends through these factories (or
//! `SessionBuilder::backend`).

pub mod calibrate;
pub mod clock;
pub mod measured;

pub use calibrate::{calibrate, fit, microbench_samples, CalibrationReport, OpReport};
pub use clock::{scripted, wall_clock, ClockSource};
pub use measured::{dual, dual_with_clock, measured, measured_with_clock};
