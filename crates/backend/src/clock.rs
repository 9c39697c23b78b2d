//! The injectable clock seam.
//!
//! The clocked executor never reads the OS clock directly: every timing
//! observation flows through a [`ClockSource`] chosen at construction, the
//! same discipline `BudgetTimer` uses in `dba-common`. Production code
//! injects [`wall_clock`] (the one sanctioned `Instant::now` in this
//! crate — see the D02 policy notes in `dba-analysis`); tests inject
//! [`scripted`] so measured executions are bit-for-bit deterministic.

pub use dba_engine::ClockSource;

/// Real wall-clock: seconds elapsed since the source was created.
///
/// This is the single place `dba-backend` touches the OS clock. All
/// business logic (scans, probes, joins, calibration) receives time
/// through the returned closure, so determinism-sensitive callers swap in
/// [`scripted`] and rule D02 keeps firing anywhere else in the crate.
pub fn wall_clock() -> ClockSource {
    // lint: allow(D02) — the measured backend's one sanctioned clock seam: every timing read is injected through this ClockSource, so operators stay clock-free and tests script time
    let start = std::time::Instant::now();
    Box::new(move || start.elapsed().as_secs_f64())
}

/// Deterministic fake clock: each read advances time by `step_s` seconds.
///
/// Counter state lives inside the closure, so two scripted sources never
/// interfere — clocked executions driven by one are bit-identical across
/// runs, thread counts and machines.
pub fn scripted(step_s: f64) -> ClockSource {
    let ticks = std::cell::Cell::new(0u64);
    Box::new(move || {
        let t = ticks.get() + 1;
        ticks.set(t);
        t as f64 * step_s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_clock_is_deterministic_and_monotonic() {
        let c1 = scripted(0.5);
        let c2 = scripted(0.5);
        let a: Vec<f64> = (0..4).map(|_| c1()).collect();
        let b: Vec<f64> = (0..4).map(|_| c2()).collect();
        assert_eq!(a, vec![0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a, b, "independent scripted clocks read identically");
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = wall_clock();
        let t0 = c();
        let t1 = c();
        assert!(t1 >= t0);
        assert!(t0 >= 0.0);
    }

    #[test]
    fn clock_sources_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ClockSource>();
    }
}
