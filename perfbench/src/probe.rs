//! Layer probes for the traced run: wrappers that time the calls into each
//! layer's public trait functions from outside. Nothing inside the program
//! is instrumented; every wrapper delegates every trait method, defaults
//! included, so a traced run makes exactly the calls an untraced one does.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dba_bandits::bandit::{Advisor, AdvisorCost, DataChange, RoundContext, WindowMode};
use dba_bandits::common::IndexId;
use dba_bandits::engine::{
    BackendKind, CostModel, ExecutionBackend, OpSample, Plan, Query, QueryExecution,
};
use dba_bandits::optimizer::{StatsCatalog, WhatIfService};
use dba_bandits::storage::Catalog;

/// What the wrappers saw during one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Inner tuner `before_round` wall time (includes the index builds it
    /// triggers).
    pub core_recommend_s: f64,
    /// Inner tuner `after_round` + `on_data_change` wall time.
    pub core_observe_s: f64,
    /// Every call into the inner tuner.
    pub core_total_s: f64,
    /// Every call into the guard (which contains the inner tuner's calls).
    pub guard_total_s: f64,
    pub index_builds: u64,
    pub index_drops: u64,
    /// Builds of the inner tuner still materialised when the guard's
    /// `before_round` returned.
    pub surviving_builds: u64,
    /// Indexes the inner tuner built in the round in flight.
    built_this_round: Vec<IndexId>,
    pub execute_s: f64,
    pub query_walls_s: Vec<f64>,
    pub rows_out: u64,
    pub full_scans: u64,
    pub result_rows: u64,
}

impl Layers {
    /// Wall time spent inside the advisor stack, whichever layer is
    /// outermost.
    pub fn advisor_s(&self, guarded: bool) -> f64 {
        if guarded {
            self.guard_total_s
        } else {
            self.core_total_s
        }
    }
}

/// Shared handle the wrappers record into and the benchmark reads back.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<Layers>>);

impl Probe {
    pub fn lock(&self) -> MutexGuard<'_, Layers> {
        self.0
            .lock()
            .expect("probe mutex poisoned by a panicking wrapper")
    }

    pub fn snapshot(&self) -> Layers {
        self.lock().clone()
    }
}

/// Which advisor layer a [`TimedAdvisor`] wraps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The inner tuner (MAB).
    Core,
    /// The safety guard around it.
    Guard,
}

pub struct TimedAdvisor<A> {
    inner: A,
    role: Role,
    probe: Probe,
}

impl<A: Advisor> TimedAdvisor<A> {
    pub fn new(inner: A, role: Role, probe: Probe) -> Self {
        TimedAdvisor { inner, role, probe }
    }

    fn add_time(&self, secs: f64, observe: bool) {
        let mut layers = self.probe.lock();
        match self.role {
            Role::Core => {
                layers.core_total_s += secs;
                if observe {
                    layers.core_observe_s += secs;
                }
            }
            Role::Guard => layers.guard_total_s += secs,
        }
    }
}

fn index_ids(catalog: &Catalog) -> Vec<IndexId> {
    catalog.all_indexes().map(|ix| ix.id()).collect()
}

impl<A: Advisor> Advisor for TimedAdvisor<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn before_round(
        &mut self,
        round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> AdvisorCost {
        let before = (self.role == Role::Core).then(|| index_ids(catalog));
        let start = Instant::now();
        let cost = self.inner.before_round(round, catalog, stats, whatif);
        let secs = start.elapsed().as_secs_f64();
        self.add_time(secs, false);
        let mut layers = self.probe.lock();
        match before {
            Some(before) => {
                let after = index_ids(catalog);
                let built: Vec<IndexId> = after
                    .iter()
                    .copied()
                    .filter(|id| !before.contains(id))
                    .collect();
                layers.core_recommend_s += secs;
                layers.index_drops += before.iter().filter(|id| !after.contains(id)).count() as u64;
                layers.index_builds += built.len() as u64;
                layers.built_this_round = built;
            }
            None => {
                let built = std::mem::take(&mut layers.built_this_round);
                layers.surviving_builds += built
                    .iter()
                    .filter(|&&id| catalog.index(id).is_ok())
                    .count() as u64;
            }
        }
        cost
    }

    fn on_data_change(&mut self, change: &DataChange) {
        let start = Instant::now();
        self.inner.on_data_change(change);
        self.add_time(start.elapsed().as_secs_f64(), true);
    }

    fn after_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        let start = Instant::now();
        self.inner.after_round(ctx, queries, executions);
        self.add_time(start.elapsed().as_secs_f64(), true);
    }

    fn begin_window(&mut self, mode: &WindowMode) {
        let start = Instant::now();
        self.inner.begin_window(mode);
        self.add_time(start.elapsed().as_secs_f64(), false);
    }

    fn bandit_counters(&self) -> (u64, u64) {
        self.inner.bandit_counters()
    }

    fn attach_obs(&mut self, obs: &dba_obs::Obs) {
        self.inner.attach_obs(obs)
    }
}

/// Times every `execute` call of the session's execution backend and
/// tallies the work it reports.
pub struct TimedBackend {
    inner: Box<dyn ExecutionBackend>,
    probe: Probe,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn ExecutionBackend>, probe: Probe) -> Self {
        TimedBackend { inner, probe }
    }
}

impl ExecutionBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        let start = Instant::now();
        let execution = self.inner.execute(catalog, query, plan);
        let secs = start.elapsed().as_secs_f64();
        let mut layers = self.probe.lock();
        layers.execute_s += secs;
        layers.query_walls_s.push(secs);
        for access in &execution.accesses {
            layers.rows_out += access.rows_out;
            layers.full_scans += u64::from(access.is_full_scan);
        }
        layers.result_rows += execution.result_rows;
        execution
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn measures_wall_clock(&self) -> bool {
        self.inner.measures_wall_clock()
    }

    fn take_op_samples(&mut self) -> Vec<OpSample> {
        self.inner.take_op_samples()
    }
}
