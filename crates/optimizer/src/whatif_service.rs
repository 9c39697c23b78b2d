//! The what-if **service**: cost queries under hypothetical index
//! configurations without materialising anything — a long-lived,
//! version-validated layer that memoizes hypothetical plans and prices
//! whole batches of configurations in one pass.
//!
//! This is the AutoAdmin-style API (reference 19 in the paper) that
//! commercial advisors are built on, and through which every optimiser
//! misestimate flows into the advisor's decisions. Hypothetical indexes
//! receive synthetic ids in a reserved range ([`HYPOTHETICAL_BASE`] up) so
//! they can never collide with (or be executed against) real materialised
//! indexes.
//!
//! Anything that prices many overlapping configurations every round pays
//! quadratically if each costing plans from scratch: a guardrail's
//! leave-one-out rollback assessment alone is O(used-indexes × queries)
//! costings. This service is the one implementation behind every what-if
//! caller — the guardrail's shadow baselines and rollback assessment,
//! PDTool's candidate scoring, and one-shot probes in tests and examples,
//! which simply construct a fresh instance. It reuses the invalidation
//! machinery the [`PlanCache`](crate::PlanCache) proved out, keyed on
//!
//! * the query **template** (parameterised-plan reuse, with the same
//!   recost guard against parameter-sensitivity regressions);
//! * the **hypothetical-configuration fingerprint** — the interned ids of
//!   the candidate definitions *on the query's tables* (candidates on
//!   other tables cannot change the plan, so two configurations differing
//!   only elsewhere share one cached plan — this is what makes the batched
//!   [`marginals`](WhatIfService::marginals) pass cheap: a leave-one-out
//!   configuration replans only the queries that touch the left-out
//!   index's table);
//! * the per-table **catalog version** (moves on index create/drop and
//!   applied drift) and **statistics version** (moves on refresh), exactly
//!   as the plan cache validates them.
//!
//! Candidate definitions are interned once and given stable synthetic ids
//! in the hypothetical range, so a cached plan is meaningful under every
//! configuration that contains the same definitions — regardless of the
//! order or position a caller lists them in. Materialised indexes exposed
//! through `include_materialised` are interned the same way and priced at
//! their **live** (drift-grown) sizes, the same convention hypotheticals
//! get, so incremental-benefit comparisons are apples-to-apples under
//! drift.
//!
//! A configuration is **prepared once per pass**: interning, live sizing
//! and the planner context cover every candidate on the tables the pass's
//! queries touch, sorted by interned id. Each query then only filters the
//! prepared ids down to its own tables to form its fingerprint. The
//! planner sees a candidate only through its table or its id, and each
//! table's candidates keep the interned-id order, so a batched pass plans
//! and prices exactly like costing every query on its own.

use std::collections::HashMap;

use dba_common::{IndexId, SimSeconds, TableId, TemplateId};
use dba_engine::{CostModel, Plan, Query};
use dba_storage::{Catalog, IndexDef};

use crate::plan_cache::RECOMPILE_COST_FACTOR;
use crate::planner::{IndexCandidate, Planner, PlannerContext};
use crate::stats::StatsCatalog;

/// First id used for hypothetical indexes.
pub const HYPOTHETICAL_BASE: u64 = 1 << 48;

/// Result of costing one query under a hypothetical configuration.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// Optimiser-estimated execution cost of the best plan found.
    pub est_cost: SimSeconds,
    /// Positions (into the hypothetical set) of indexes the plan used.
    pub used_hypothetical: Vec<usize>,
    /// The plan itself (useful for debugging / advisor explanations).
    pub plan: Plan,
}

/// Cached what-if plans are swept once the memo grows past this many
/// entries: any entry whose versions no longer validate is dropped. Live
/// entries are never evicted — the working set of (template ×
/// fingerprint) pairs any real session produces is far below this. After
/// a sweep the next one is deferred until the memo doubles again, so a
/// pathological all-live memo costs an amortised O(1) per costing rather
/// than a full re-validation scan on every call.
pub const MAX_CACHED_WHATIF_PLANS: usize = 8192;

/// Running totals of service behaviour, cheap to copy into round records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfStats {
    /// Costings answered from the memo (replans skipped).
    pub hits: u64,
    /// Costings that had to plan (cold, invalidated, or recompiled).
    pub misses: u64,
    /// Misses caused by a catalog/statistics version moving under a
    /// cached plan.
    pub invalidations: u64,
    /// Misses caused by the parameter-sensitivity guard: the cached
    /// plan's recost under the instance's bindings exceeded
    /// [`RECOMPILE_COST_FACTOR`] × its plan-time estimate.
    pub recompilations: u64,
}

impl WhatIfStats {
    /// Hits over all costings (0 when nothing was costed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// What a cached what-if plan depended on for one table, at planning time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableDep {
    table: TableId,
    catalog_version: u64,
    stats_version: u64,
}

impl TableDep {
    fn is_valid(&self, catalog: &Catalog, stats: &StatsCatalog) -> bool {
        catalog.table_version(self.table) == self.catalog_version
            && stats.table_version(self.table) == self.stats_version
    }
}

/// Memo key: template × configuration fingerprint. The fingerprint is the
/// sorted interned ids of the candidate definitions on the query's tables
/// (exact, not a hash — no collision risk), plus whether materialised
/// indexes were exposed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    template: TemplateId,
    include_materialised: bool,
    config: Vec<u32>,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    plan: Plan,
    deps: Vec<TableDep>,
}

/// Total estimated cost and per-candidate usage counts of one priced
/// configuration (one element of a [`marginals`](WhatIfService::marginals)
/// batch).
#[derive(Debug, Clone)]
pub struct ConfigCost {
    /// Optimiser-estimated execution cost of the workload under this
    /// configuration.
    pub total: SimSeconds,
    /// How many queries used each candidate (parallel to the
    /// configuration's definition slice).
    pub usage: Vec<u32>,
}

/// Synthetic planner id of interned definition `id`.
#[inline]
fn planner_id(id: u32) -> IndexId {
    IndexId(HYPOTHETICAL_BASE + id as u64)
}

/// Interned id of a planner candidate or plan-used index, if it is one
/// of ours.
#[inline]
fn interned_id(id: IndexId) -> Option<u32> {
    (id.raw() >= HYPOTHETICAL_BASE).then(|| (id.raw() - HYPOTHETICAL_BASE) as u32)
}

/// Interned candidate definitions, numbered in first-seen order; the
/// synthetic planner id of interned id `id` is `HYPOTHETICAL_BASE + id`.
#[derive(Debug, Clone, Default)]
struct Interner {
    ids: HashMap<IndexDef, u32>,
}

impl Interner {
    /// Intern `def`, returning its stable id.
    fn intern(&mut self, def: &IndexDef) -> u32 {
        if let Some(&id) = self.ids.get(def) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(def.clone(), id);
        id
    }

    /// Prepare one configuration for costing queries over `tables`.
    ///
    /// Every hypothetical is interned (first occurrence wins for a
    /// duplicated definition). Materialised indexes are interned only on
    /// `tables`, in catalog order — the moment and order a per-query
    /// costing would first meet them — so interned ids, and with them each
    /// table's candidate order, do not depend on how costings are batched.
    fn prepare<'a>(
        &mut self,
        catalog: &'a Catalog,
        stats: &'a StatsCatalog,
        cost: &'a CostModel,
        tables: &[TableId],
        hypothetical: &[IndexDef],
        include_materialised: bool,
    ) -> PreparedConfig<'a> {
        let hypo_ids: Vec<u32> = hypothetical.iter().map(|d| self.intern(d)).collect();
        let mut indexes: Vec<IndexCandidate> = Vec::new();
        let mut add = |id: u32, def: &IndexDef, size_bytes: u64| {
            if !indexes.iter().any(|c| c.id == planner_id(id)) {
                indexes.push(IndexCandidate {
                    id: planner_id(id),
                    def: def.clone(),
                    size_bytes,
                });
            }
        };
        for (def, &id) in hypothetical.iter().zip(&hypo_ids) {
            if tables.contains(&def.table) {
                add(id, def, catalog.estimated_live_bytes(def));
            }
        }
        if include_materialised {
            for ix in catalog.all_indexes() {
                if tables.contains(&ix.def().table) {
                    // Live (drift-grown) size — same convention as the
                    // hypotheticals, so incremental-benefit comparisons
                    // stay apples-to-apples under drift.
                    add(
                        self.intern(ix.def()),
                        ix.def(),
                        catalog.index_live_bytes(ix.id()),
                    );
                }
            }
        }
        indexes.sort_unstable_by_key(|c| c.id);
        PreparedConfig {
            include_materialised,
            hypo_ids,
            ctx: PlannerContext {
                catalog,
                stats,
                cost,
                indexes,
            },
        }
    }
}

/// One configuration, prepared once for a pass over a workload.
struct PreparedConfig<'a> {
    include_materialised: bool,
    /// Interned id of each of the caller's hypothetical positions.
    hypo_ids: Vec<u32>,
    /// Planner context over every candidate on the pass's tables, sorted
    /// by interned id.
    ctx: PlannerContext<'a>,
}

impl PreparedConfig<'_> {
    /// Memo key of `query` under this configuration: the prepared ids on
    /// the query's own tables, still sorted.
    fn key(&self, query: &Query) -> PlanKey {
        PlanKey {
            template: query.template,
            include_materialised: self.include_materialised,
            config: self
                .ctx
                .indexes
                .iter()
                .filter(|c| query.tables.contains(&c.def.table))
                .filter_map(|c| interned_id(c.id))
                .collect(),
        }
    }

    /// Map `plan`'s used indexes back to positions in the caller's
    /// hypothetical slice (materialised-only candidates map to none).
    fn positions<'p>(&'p self, plan: &Plan) -> impl Iterator<Item = usize> + 'p {
        plan.indexes_used()
            .into_iter()
            .filter_map(interned_id)
            .filter_map(|id| self.hypo_ids.iter().position(|&h| h == id))
    }
}

/// The plan memo with its hit/miss accounting.
#[derive(Debug, Clone)]
struct PlanMemo {
    plans: HashMap<PlanKey, CachedPlan>,
    /// Memo size that triggers the next stale-entry sweep (starts at
    /// [`MAX_CACHED_WHATIF_PLANS`], re-armed past the post-sweep live
    /// count so an all-live memo is not rescanned on every costing).
    sweep_watermark: usize,
    stats: WhatIfStats,
    /// Observability handle (`dba-obs`): hit/miss/invalidation counters
    /// are mirrored here as `whatif.*` events. Advisory only — never
    /// consulted for any memoization decision.
    obs: dba_obs::Obs,
}

impl PlanMemo {
    /// Cost one query under a prepared configuration, returning its
    /// estimated cost and the plan it used. A hit is recosted under this
    /// instance's bindings (the parameter-sensitivity guard), so it prices
    /// the instance, not the sniffed original.
    fn cost(&mut self, prep: &PreparedConfig<'_>, query: &Query) -> (SimSeconds, &Plan) {
        let (catalog, stats) = (prep.ctx.catalog, prep.ctx.stats);
        let planner = Planner::new(&prep.ctx);
        let plan_fresh = |planner: &Planner<'_>| CachedPlan {
            plan: planner.plan(query),
            deps: query
                .tables
                .iter()
                .map(|&t| TableDep {
                    table: t,
                    catalog_version: catalog.table_version(t),
                    stats_version: stats.table_version(t),
                })
                .collect(),
        };

        if self.plans.len() > self.sweep_watermark {
            self.plans
                .retain(|_, c| c.deps.iter().all(|d| d.is_valid(catalog, stats)));
            // Re-arm past the surviving live set: if everything was still
            // valid, the next sweep waits for the memo to double rather
            // than rescanning on every costing from here on.
            self.sweep_watermark = (self.plans.len() * 2).max(MAX_CACHED_WHATIF_PLANS);
        }

        use std::collections::hash_map::Entry;
        match self.plans.entry(prep.key(query)) {
            Entry::Occupied(mut e) => {
                if !e.get().deps.iter().all(|d| d.is_valid(catalog, stats)) {
                    self.stats.misses += 1;
                    self.stats.invalidations += 1;
                    self.obs.counter("whatif.miss", 1);
                    self.obs.counter("whatif.invalidation", 1);
                    e.insert(plan_fresh(&planner));
                    let c = e.into_mut();
                    (c.plan.est_cost, &c.plan)
                } else {
                    match planner.cost_plan(query, &e.get().plan) {
                        Some(recost)
                            if recost.secs()
                                <= e.get().plan.est_cost.secs() * RECOMPILE_COST_FACTOR =>
                        {
                            self.stats.hits += 1;
                            self.obs.counter("whatif.hit", 1);
                            (recost, &e.into_mut().plan)
                        }
                        _ => {
                            // Recost exceeded the guard (or the plan could
                            // not be revalidated): recompile.
                            self.stats.misses += 1;
                            self.stats.recompilations += 1;
                            self.obs.counter("whatif.miss", 1);
                            self.obs.counter("whatif.recompilation", 1);
                            e.insert(plan_fresh(&planner));
                            let c = e.into_mut();
                            (c.plan.est_cost, &c.plan)
                        }
                    }
                }
            }
            Entry::Vacant(v) => {
                self.stats.misses += 1;
                self.obs.counter("whatif.miss", 1);
                let c = v.insert(plan_fresh(&planner));
                (c.plan.est_cost, &c.plan)
            }
        }
    }
}

/// The long-lived what-if subsystem. One per tuning session, shared by
/// everything that costs hypothetical configurations — the guardrail's
/// shadow baselines and rollback assessment, PDTool's candidate scoring,
/// and one-shot probes.
#[derive(Debug, Clone)]
pub struct WhatIfService {
    cost: CostModel,
    interner: Interner,
    memo: PlanMemo,
}

impl WhatIfService {
    pub fn new(cost: CostModel) -> Self {
        WhatIfService {
            cost,
            interner: Interner::default(),
            memo: PlanMemo {
                plans: HashMap::new(),
                sweep_watermark: MAX_CACHED_WHATIF_PLANS,
                stats: WhatIfStats::default(),
                obs: dba_obs::Obs::noop(),
            },
        }
    }

    /// Attach the session's observability handle. Counters emitted from
    /// here on mirror [`WhatIfStats`] increments one-for-one.
    pub fn set_obs(&mut self, obs: &dba_obs::Obs) {
        self.memo.obs = obs.clone();
    }

    /// The cost model every costing runs through.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Running hit/miss/invalidation totals.
    pub fn stats(&self) -> WhatIfStats {
        self.memo.stats
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.memo.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.memo.plans.is_empty()
    }

    /// Cost one query under `hypothetical` definitions (plus, when
    /// `include_materialised`, the catalog's real indexes — at their live
    /// sizes). Served from the memo when the template was already planned
    /// under the same candidate set on the query's tables and nothing
    /// those tables depend on has moved; a hit is still recosted under
    /// this instance's bindings. This is a pass of one query: the
    /// configuration is prepared over the query's own tables, then
    /// costed once.
    pub fn cost_query(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        query: &Query,
        hypothetical: &[IndexDef],
        include_materialised: bool,
    ) -> WhatIfOutcome {
        let prep = self.interner.prepare(
            catalog,
            stats,
            &self.cost,
            &query.tables,
            hypothetical,
            include_materialised,
        );
        let (est_cost, plan) = self.memo.cost(&prep, query);
        WhatIfOutcome {
            est_cost,
            used_hypothetical: prep.positions(plan).collect(),
            plan: plan.clone(),
        }
    }

    /// Prepare `hypothetical` once, then cost every query under it, in
    /// order. `each` sees the query's index, its estimated cost and the
    /// hypothetical positions its plan used. An empty workload prepares
    /// (and interns) nothing, like a loop of per-query costings would.
    fn pass(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        hypothetical: &[IndexDef],
        include_materialised: bool,
        mut each: impl FnMut(usize, SimSeconds, &[usize]),
    ) {
        if queries.is_empty() {
            return;
        }
        let mut tables: Vec<TableId> = Vec::new();
        for &t in queries.iter().flat_map(|q| &q.tables) {
            if !tables.contains(&t) {
                tables.push(t);
            }
        }
        let prep = self.interner.prepare(
            catalog,
            stats,
            &self.cost,
            &tables,
            hypothetical,
            include_materialised,
        );
        let mut used = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let (est_cost, plan) = self.memo.cost(&prep, q);
            used.clear();
            used.extend(prep.positions(plan));
            each(i, est_cost, &used);
        }
    }

    /// Total estimated cost of a workload under one hypothetical
    /// configuration, plus per-candidate usage counts.
    pub fn cost_workload(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        hypothetical: &[IndexDef],
        include_materialised: bool,
    ) -> (SimSeconds, Vec<u32>) {
        let mut total = SimSeconds::ZERO;
        let mut usage = vec![0u32; hypothetical.len()];
        self.pass(
            catalog,
            stats,
            queries,
            hypothetical,
            include_materialised,
            |_, est_cost, used| {
                total += est_cost;
                for &i in used {
                    usage[i] += 1;
                }
            },
        );
        (total, usage)
    }

    /// Like [`cost_workload`](Self::cost_workload) with a per-query
    /// arrival weight: streaming windows execute one bound instance per
    /// distinct template and scale by that template's arrival count, so
    /// shadow prices must scale the same way. Returns the weighted total,
    /// the *unweighted* per-query costs (which callers memoize as
    /// per-template prices to amortise pricing across windows) and the
    /// per-candidate usage counts. With every weight exactly 1.0 the
    /// total reproduces `cost_workload` bit-for-bit (`x × 1.0` is an IEEE
    /// identity).
    pub fn cost_workload_weighted(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        weights: &[f64],
        hypothetical: &[IndexDef],
        include_materialised: bool,
    ) -> (SimSeconds, Vec<f64>, Vec<u32>) {
        debug_assert_eq!(queries.len(), weights.len());
        let queries = &queries[..queries.len().min(weights.len())];
        let mut total = SimSeconds::ZERO;
        let mut per_query = Vec::with_capacity(queries.len());
        let mut usage = vec![0u32; hypothetical.len()];
        self.pass(
            catalog,
            stats,
            queries,
            hypothetical,
            include_materialised,
            |i, est_cost, used| {
                per_query.push(est_cost.secs());
                total += est_cost * weights[i];
                for &c in used {
                    usage[c] += 1;
                }
            },
        );
        (total, per_query, usage)
    }

    /// Price many hypothetical configurations over one workload in a
    /// single pass each. Sub-plans are shared through the memo: a query
    /// whose tables see the same candidate subset under two
    /// configurations is planned once — which makes the classic advisor
    /// shapes (base + each-candidate-alone, full + leave-one-out) cost
    /// little more than one workload pass instead of one per
    /// configuration.
    pub fn marginals(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        configs: &[Vec<IndexDef>],
        include_materialised: bool,
    ) -> Vec<ConfigCost> {
        self.memo.obs.span_enter("whatif.marginals");
        let costs = configs
            .iter()
            .map(|config| {
                let (total, usage) =
                    self.cost_workload(catalog, stats, queries, config, include_materialised);
                ConfigCost { total, usage }
            })
            .collect();
        self.memo.obs.span_exit("whatif.marginals");
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{ColumnId, QueryId, TableId};
    use dba_engine::{JoinPred, Predicate};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, TableBuilder, TableSchema};

    fn catalog() -> Catalog {
        let hot = TableSchema::new(
            "hot",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "b",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99_999 },
                ),
                ColumnSpec::new("c", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
            ],
        );
        let cold = TableSchema::new(
            "cold",
            vec![ColumnSpec::new(
                "x",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 999 },
            )],
        );
        Catalog::new(vec![
            TableBuilder::new(hot, 100_000).build(TableId(0), 23),
            TableBuilder::new(cold, 5_000).build(TableId(1), 23),
        ])
    }

    fn hot_query(template: u32, value: i64) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(template),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), value)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 0)],
            aggregated: false,
        }
    }

    fn cold_query(template: u32) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(template),
            tables: vec![TableId(1)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(1), 0), 5)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(1), 0)],
            aggregated: false,
        }
    }

    fn service() -> WhatIfService {
        WhatIfService::new(CostModel::unit_scale())
    }

    /// Repeated costings of an unchanged (template, config) pair hit the
    /// memo; the costs agree exactly with fresh planning.
    #[test]
    fn repeat_costings_hit_without_replanning() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let defs = vec![IndexDef::new(TableId(0), vec![1], vec![0])];
        let q = hot_query(1, 77);

        let first = svc.cost_query(&cat, &stats, &q, &defs, false);
        let again = svc.cost_query(&cat, &stats, &q, &defs, false);
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(svc.stats().misses, 1);
        assert!((first.est_cost.secs() - again.est_cost.secs()).abs() < 1e-12);
        assert_eq!(first.used_hypothetical, again.used_hypothetical);
    }

    /// Index create/drop on a query's table moves its catalog version and
    /// invalidates cached what-if plans under unchanged keys (mirrors
    /// `plan_cache.rs`); the materialised-set path sees the new index
    /// through its configuration fingerprint.
    #[test]
    fn index_create_and_drop_invalidate() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);

        // Empty-config entry: creates and drops move the table version
        // under an unchanged key, forcing a revalidating replan.
        let baseline = svc.cost_query(&cat, &stats, &q, &[], false).est_cost;
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
            .unwrap();
        let after_create = svc.cost_query(&cat, &stats, &q, &[], false).est_cost;
        assert_eq!(svc.stats().invalidations, 1, "create invalidates");
        assert!(
            (after_create.secs() - baseline.secs()).abs() < 1e-9,
            "no candidates exposed — cost unchanged, but revalidated"
        );
        cat.drop_index(meta.id).unwrap();
        svc.cost_query(&cat, &stats, &q, &[], false);
        assert_eq!(svc.stats().invalidations, 2, "drop invalidates");

        // The materialised-set path keys on the index set itself: after a
        // create, the new fingerprint's plan sees the index.
        cat.create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
            .unwrap();
        let with_ix = svc.cost_query(&cat, &stats, &q, &[], true);
        assert!(with_ix.est_cost.secs() < baseline.secs(), "index visible");
    }

    /// Applied drift invalidates only the plans over the drifted table.
    #[test]
    fn drift_invalidates_per_table() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let hot = hot_query(1, 77);
        let cold = cold_query(2);

        svc.cost_query(&cat, &stats, &hot, &[], false);
        svc.cost_query(&cat, &stats, &cold, &[], false);
        cat.apply_drift(TableId(0), 1_000, 0, 0);
        svc.cost_query(&cat, &stats, &hot, &[], false);
        svc.cost_query(&cat, &stats, &cold, &[], false);
        assert_eq!(svc.stats().invalidations, 1, "only the hot plan replans");
        assert_eq!(svc.stats().hits, 1, "the cold plan survives");
    }

    /// A statistics refresh moves the stats version and forces a replan.
    #[test]
    fn stats_refresh_invalidates() {
        let mut cat = catalog();
        let mut stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);

        svc.cost_query(&cat, &stats, &q, &[], false);
        cat.apply_drift(TableId(0), 30_000, 0, 0);
        stats.note_drift(TableId(0), 30_000);
        stats.refresh_stale(&cat, 0.2);
        svc.cost_query(&cat, &stats, &q, &[], false);
        // Drift + refresh both moved versions; one lookup, one invalidation.
        assert_eq!(svc.stats().invalidations, 1);
        assert_eq!(svc.stats().hits, 0);
    }

    /// The defining what-if property survives the cached path: a
    /// hypothetical index is costed exactly like the real thing — under
    /// drift too, now that both sides are priced at live sizes.
    #[test]
    fn hypothetical_and_materialised_costs_agree_through_the_cache() {
        let def = IndexDef::new(TableId(0), vec![1], vec![0]);
        let q = hot_query(1, 77);

        for drifted in [false, true] {
            let mut cat = catalog();
            if drifted {
                cat.apply_drift(TableId(0), 25_000, 0, 0);
            }
            let stats = StatsCatalog::build(&cat);
            let mut svc = service();
            // Twice, so the second costing runs the cached path.
            svc.cost_query(&cat, &stats, &q, std::slice::from_ref(&def), false);
            let hypo = svc
                .cost_query(&cat, &stats, &q, std::slice::from_ref(&def), false)
                .est_cost;

            let mut cat2 = cat.clone();
            cat2.create_index(def.clone()).unwrap();
            svc.cost_query(&cat2, &stats, &q, &[], true);
            let real = svc.cost_query(&cat2, &stats, &q, &[], true).est_cost;
            assert!(
                (hypo.secs() - real.secs()).abs() < 1e-9,
                "drifted={drifted}: hypo {} vs materialised {}",
                hypo.secs(),
                real.secs()
            );
            assert_eq!(svc.stats().hits, 2, "drifted={drifted}: cached path ran");
        }
    }

    #[test]
    fn hypothetical_index_reduces_estimated_cost() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);
        let without = svc.cost_query(&cat, &stats, &q, &[], false);
        let with = svc.cost_query(
            &cat,
            &stats,
            &q,
            &[IndexDef::new(TableId(0), vec![1], vec![0])],
            false,
        );
        assert!(with.est_cost.secs() < without.est_cost.secs());
        assert_eq!(with.used_hypothetical, vec![0]);
        assert!(without.used_hypothetical.is_empty());
    }

    #[test]
    fn unused_hypothetical_indexes_do_not_change_cost() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);
        let baseline = svc.cost_query(&cat, &stats, &q, &[], false).est_cost;
        let junk = [IndexDef::new(TableId(0), vec![2], vec![])];
        let with_junk = svc.cost_query(&cat, &stats, &q, &junk, false).est_cost;
        assert!((baseline.secs() - with_junk.secs()).abs() < 1e-12);
    }

    #[test]
    fn workload_costing_counts_usage() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let defs = [
            IndexDef::new(TableId(0), vec![1], vec![0]),
            IndexDef::new(TableId(0), vec![2], vec![]),
        ];
        let queries = vec![hot_query(1, 77); 3];
        let (total, usage) = service().cost_workload(&cat, &stats, &queries, &defs, false);
        assert!(total.secs() > 0.0);
        assert_eq!(usage[0], 3, "selective index used by every query");
        assert_eq!(usage[1], 0, "unselective index never used");
    }

    #[test]
    fn unit_weights_reproduce_cost_workload_bitwise() {
        let catalog = catalog();
        let stats = StatsCatalog::build(&catalog);
        let queries: Vec<Query> = (0..4).map(|i| hot_query(1, i * 100)).collect();
        let (plain, _) = service().cost_workload(&catalog, &stats, &queries, &[], false);
        let weights = vec![1.0; queries.len()];
        let (weighted, per_query, _) =
            service().cost_workload_weighted(&catalog, &stats, &queries, &weights, &[], false);
        assert_eq!(plain.secs().to_bits(), weighted.secs().to_bits());
        assert_eq!(per_query.len(), queries.len());
        assert_eq!(
            per_query.iter().sum::<f64>().to_bits(),
            plain.secs().to_bits()
        );
    }

    #[test]
    fn arrival_weights_scale_shadow_prices() {
        let catalog = catalog();
        let stats = StatsCatalog::build(&catalog);
        let queries = vec![hot_query(1, 500)];
        let mut svc = service();
        let (unit, per_query, _) =
            svc.cost_workload_weighted(&catalog, &stats, &queries, &[1.0], &[], false);
        let (scaled, _, _) =
            svc.cost_workload_weighted(&catalog, &stats, &queries, &[250.0], &[], false);
        assert!((scaled.secs() - 250.0 * unit.secs()).abs() < 1e-9 * scaled.secs().abs().max(1.0));
        assert_eq!(per_query[0], unit.secs());
    }

    /// Configurations differing only on tables a query does not touch
    /// share the query's cached plan — the sharing that makes the batched
    /// marginals pass cheap.
    #[test]
    fn marginals_share_subplans_across_configs() {
        let mut cat = catalog();
        cat.apply_drift(TableId(1), 0, 0, 0);
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let queries = vec![hot_query(1, 77), cold_query(2)];
        let hot_ix = IndexDef::new(TableId(0), vec![1], vec![0]);
        let cold_ix = IndexDef::new(TableId(1), vec![0], vec![]);

        // Full config + leave-one-out configs (the rollback-assessment
        // shape): 3 configs × 2 queries = 6 costings, but the hot query's
        // plan under {hot_ix} is shared between configs 0 and 2, and the
        // cold query's plan under {cold_ix} between configs 0 and 1.
        let configs = vec![
            vec![hot_ix.clone(), cold_ix.clone()],
            vec![cold_ix.clone()],
            vec![hot_ix.clone()],
        ];
        let costs = svc.marginals(&cat, &stats, &queries, &configs, false);
        assert_eq!(costs.len(), 3);
        assert_eq!(svc.stats().misses, 4, "4 distinct (query, subset) plans");
        assert_eq!(svc.stats().hits, 2, "2 shared sub-plans");
        // Usage maps to each config's own positions.
        assert_eq!(costs[0].usage, vec![1, 1]);
        assert_eq!(costs[1].usage, vec![1]);
        assert_eq!(costs[2].usage, vec![1]);
        // Leaving out an index can only raise the workload's cost.
        assert!(costs[1].total.secs() >= costs[0].total.secs());
        assert!(costs[2].total.secs() >= costs[0].total.secs());
    }

    /// A cached (sniffed) plan whose recost explodes under new bindings is
    /// recompiled, not reused (the plan cache's parameter guard).
    #[test]
    fn regressive_bindings_recompile() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let defs = vec![IndexDef::new(TableId(0), vec![1], vec![])];

        // Sniff a selective instance: ~1 of 100k rows → a seek plan.
        let selective = hot_query(1, 77);
        let sniffed = svc.cost_query(&cat, &stats, &selective, &defs, false);
        assert_eq!(sniffed.used_hypothetical, vec![0], "seek plan sniffed");

        // Same template, catastrophic bindings: the whole domain.
        let unselective = Query {
            predicates: vec![Predicate::range(ColumnId::new(TableId(0), 1), 0, 99_999)],
            ..hot_query(1, 0)
        };
        let recompiled = svc.cost_query(&cat, &stats, &unselective, &defs, false);
        assert_eq!(svc.stats().recompilations, 1);
        assert!(
            recompiled.used_hypothetical.is_empty(),
            "recompiled to a scan"
        );
    }

    /// Duplicate definitions across configurations intern to one id: the
    /// same def listed at different positions in different configs maps
    /// usage back to each caller's own positions.
    #[test]
    fn interning_is_position_independent() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let a = IndexDef::new(TableId(0), vec![1], vec![0]);
        let junk = IndexDef::new(TableId(0), vec![2], vec![]);
        let q = hot_query(1, 77);

        let first = svc.cost_query(&cat, &stats, &q, &[junk.clone(), a.clone()], false);
        assert_eq!(first.used_hypothetical, vec![1]);
        // Same candidate set, different order: the sorted fingerprint
        // matches, the cached plan is reused, usage maps to position 0.
        let second = svc.cost_query(&cat, &stats, &q, &[a.clone(), junk.clone()], false);
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(second.used_hypothetical, vec![0]);
        assert!((first.est_cost.secs() - second.est_cost.secs()).abs() < 1e-12);
    }

    /// The sweep keeps the memo bounded: stale entries are dropped once
    /// the cap is exceeded, live ones survive.
    #[test]
    fn stale_entries_are_swept_past_the_cap() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        // Many templates over the hot table, then invalidate them all.
        for t in 0..40 {
            svc.cost_query(&cat, &stats, &hot_query(t, 7), &[], false);
        }
        cat.apply_drift(TableId(0), 10, 0, 0);
        let live = cold_query(1_000);
        svc.cost_query(&cat, &stats, &live, &[], false);
        assert_eq!(svc.len(), 41);
        // Force a sweep by dropping the cap to something tiny via direct
        // retain — the public path only sweeps past MAX_CACHED_WHATIF_PLANS,
        // which is too large to exercise here cheaply.
        svc.memo
            .plans
            .retain(|_, c| c.deps.iter().all(|d| d.is_valid(&cat, &stats)));
        assert_eq!(svc.len(), 1, "only the still-valid cold plan survives");
    }

    /// A small star schema for the batched ≡ per-query sweep: a fact
    /// table, two dimensions, and a `dead` table no query ever touches.
    /// Each table has two same-width columns no query reads, so indexes
    /// that differ only in which of them they include cost exactly the
    /// same: the sweep's plans meet real tie-breaks.
    fn star_catalog() -> Catalog {
        let int = |name: &str, dist| ColumnSpec::new(name, ColumnType::Int, dist);
        let uni = |hi| Distribution::Uniform { lo: 0, hi };
        let fact = TableSchema::new(
            "fact",
            vec![
                int("f_key", Distribution::Sequential),
                int("f_d1", Distribution::FkUniform { parent_rows: 1_000 }),
                int("f_d2", Distribution::FkUniform { parent_rows: 500 }),
                int("f_v", uni(9_999)),
                int("f_pad1", uni(99)),
                int("f_pad2", uni(99)),
            ],
        );
        let dim = |name, rows: i64| {
            TableSchema::new(
                name,
                vec![
                    int("d_key", Distribution::Sequential),
                    int("d_attr", uni(rows / 10 - 1)),
                    int("d_pad1", uni(99)),
                    int("d_pad2", uni(99)),
                ],
            )
        };
        Catalog::new(vec![
            TableBuilder::new(fact, 20_000).build(TableId(0), 11),
            TableBuilder::new(dim("d1", 1_000), 1_000).build(TableId(1), 11),
            TableBuilder::new(dim("d2", 500), 500).build(TableId(2), 11),
            TableBuilder::new(dim("dead", 1_000), 1_000).build(TableId(3), 11),
        ])
    }

    /// splitmix64: a dependency-free seeded stream for the sweep.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One bound instance of one of seven templates: single-table
    /// queries on each live table, two-way joins, and a three-way join.
    fn star_query(template: u32, rng: &mut Mix) -> Query {
        let col = |t: u32, c: u32| ColumnId::new(TableId(t), c as u16);
        let v = rng.below(10_000) as i64;
        let attr = |rows: i64| v % (rows / 10);
        let (tables, predicates, joins, payload) = match template {
            0 => (
                vec![0],
                vec![Predicate::eq(col(0, 3), v)],
                vec![],
                vec![col(0, 0)],
            ),
            1 => (
                vec![0],
                vec![Predicate::range(col(0, 3), v, v + 40)],
                vec![],
                vec![col(0, 1)],
            ),
            2 => (
                vec![1],
                vec![Predicate::eq(col(1, 1), attr(1_000))],
                vec![],
                vec![col(1, 0)],
            ),
            3 => (
                vec![2],
                vec![Predicate::eq(col(2, 1), attr(500))],
                vec![],
                vec![col(2, 0)],
            ),
            4 => (
                vec![0, 1],
                vec![Predicate::eq(col(1, 1), attr(1_000))],
                vec![JoinPred::new(col(1, 0), col(0, 1))],
                vec![col(0, 0)],
            ),
            5 => (
                vec![2, 0],
                vec![
                    Predicate::eq(col(2, 1), attr(500)),
                    Predicate::range(col(0, 3), v, v + 2_000),
                ],
                vec![JoinPred::new(col(2, 0), col(0, 2))],
                vec![col(0, 0)],
            ),
            _ => (
                vec![1, 0, 2],
                vec![
                    Predicate::eq(col(1, 1), attr(1_000)),
                    Predicate::eq(col(2, 1), attr(500)),
                ],
                vec![
                    JoinPred::new(col(1, 0), col(0, 1)),
                    JoinPred::new(col(2, 0), col(0, 2)),
                ],
                vec![col(0, 0)],
            ),
        };
        Query {
            id: QueryId(rng.next()),
            template: TemplateId(template),
            tables: tables.into_iter().map(TableId).collect(),
            predicates,
            joins,
            payload,
            aggregated: template % 2 == 1,
        }
    }

    /// Hypothetical pool: tie pairs (same key, same-width unread
    /// include), covering and join-key indexes on the live tables, and
    /// indexes on the dead table.
    fn star_pool() -> Vec<IndexDef> {
        let d = |t: u32, k: &[u16], i: &[u16]| IndexDef::new(TableId(t), k.to_vec(), i.to_vec());
        vec![
            d(0, &[3], &[4]),
            d(0, &[3], &[5]),
            d(0, &[3], &[0]),
            d(0, &[1], &[4]),
            d(0, &[1], &[5]),
            d(0, &[2], &[4]),
            d(0, &[2], &[5]),
            d(1, &[1], &[2]),
            d(1, &[1], &[3]),
            d(1, &[0], &[]),
            d(2, &[1], &[2]),
            d(2, &[1], &[3]),
            d(2, &[0], &[2]),
            d(3, &[1], &[]),
            d(3, &[0], &[1]),
        ]
    }

    /// Candidates that get materialised mid-sweep — one duplicates a
    /// pool definition, the rest are new to both services.
    fn star_materialisable() -> Vec<IndexDef> {
        let d = |t: u32, k: &[u16], i: &[u16]| IndexDef::new(TableId(t), k.to_vec(), i.to_vec());
        vec![
            d(0, &[3], &[5]),
            d(0, &[3], &[4, 5]),
            d(0, &[1], &[2]),
            d(1, &[1], &[0]),
            d(2, &[1], &[0]),
            d(3, &[1], &[0]),
        ]
    }

    /// The per-query reference: cost every query on its own through
    /// `cost_query`, exposing only the definitions on the query's
    /// tables. Definitions already interned are listed in reverse, which
    /// must not matter; fresh ones are listed in order, so both services
    /// intern them alike. Returns per-query costs, the total summed in
    /// query order, and usage mapped back to `defs` positions.
    fn per_query_reference(
        svc: &mut WhatIfService,
        cat: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        defs: &[IndexDef],
        include_materialised: bool,
    ) -> (Vec<SimSeconds>, Vec<u32>) {
        let mut costs = Vec::new();
        let mut usage = vec![0u32; defs.len()];
        for q in queries {
            let mut on_q: Vec<usize> = (0..defs.len())
                .filter(|&i| q.tables.contains(&defs[i].table))
                .collect();
            if on_q
                .iter()
                .all(|&i| svc.interner.ids.contains_key(&defs[i]))
            {
                on_q.reverse();
            }
            let listed: Vec<IndexDef> = on_q.iter().map(|&i| defs[i].clone()).collect();
            let out = svc.cost_query(cat, stats, q, &listed, include_materialised);
            costs.push(out.est_cost);
            for p in out.used_hypothetical {
                // A duplicate maps to the caller's first occurrence.
                let first = defs.iter().position(|d| *d == listed[p]).unwrap();
                usage[first] += 1;
            }
        }
        (costs, usage)
    }

    fn sum(costs: &[SimSeconds]) -> SimSeconds {
        costs.iter().fold(SimSeconds::ZERO, |acc, &c| acc + c)
    }

    /// The batched paths (`cost_workload`, `cost_workload_weighted`,
    /// `marginals`) are exactly per-query costing: on a seeded sweep of
    /// workloads, configurations (duplicates, dead-table definitions,
    /// materialised indexes exposed or not) and catalog changes between
    /// passes, every total is bit-identical, usage and per-query costs
    /// agree, and both services count the same hits, misses,
    /// invalidations and recompilations.
    #[test]
    fn batched_passes_match_per_query_costing() {
        for seed in [3u64, 17, 99] {
            let mut rng = Mix(seed);
            let mut cat = star_catalog();
            let stats = StatsCatalog::build(&cat);
            let (mut batched, mut single) = (service(), service());
            let pool = star_pool();
            let materialisable = star_materialisable();

            // Warm-up: every pool definition is interned by both services
            // in pool order, so later reversed listings are order-only.
            let all_tables: Vec<Query> = (0..7).map(|t| star_query(t, &mut rng)).collect();
            let (total, usage) = batched.cost_workload(&cat, &stats, &all_tables, &pool, false);
            let (costs, ref_usage) =
                per_query_reference(&mut single, &cat, &stats, &all_tables, &pool, false);
            assert_eq!(total.secs().to_bits(), sum(&costs).secs().to_bits());
            assert_eq!(usage, ref_usage);

            for step in 0..60 {
                match rng.below(6) {
                    0 => {
                        let def = &materialisable[rng.below(materialisable.len())];
                        let _ = cat.create_index(def.clone());
                    }
                    1 => {
                        let ids: Vec<IndexId> = cat.all_indexes().map(|ix| ix.id()).collect();
                        if !ids.is_empty() {
                            cat.drop_index(ids[rng.below(ids.len())]).unwrap();
                        }
                    }
                    2 => {
                        cat.apply_drift(TableId(rng.below(3) as u32), 200, 0, 0);
                    }
                    _ => {}
                }
                let n = rng.below(9);
                let queries: Vec<Query> = (0..n)
                    .map(|_| star_query(rng.below(7) as u32, &mut rng))
                    .collect();
                // Random draws repeat definitions; half the
                // configurations also repeat their first one.
                let mut defs: Vec<IndexDef> = (0..1 + rng.below(8))
                    .map(|_| pool[rng.below(pool.len())].clone())
                    .collect();
                if rng.below(2) == 0 {
                    defs.push(defs[0].clone());
                }
                let incl = rng.below(2) == 0;
                let ctx = format!("seed {seed} step {step}");
                match rng.below(3) {
                    0 => {
                        let (total, usage) =
                            batched.cost_workload(&cat, &stats, &queries, &defs, incl);
                        let (costs, ref_usage) =
                            per_query_reference(&mut single, &cat, &stats, &queries, &defs, incl);
                        assert_eq!(
                            total.secs().to_bits(),
                            sum(&costs).secs().to_bits(),
                            "{ctx}"
                        );
                        assert_eq!(usage, ref_usage, "{ctx}");
                    }
                    1 => {
                        let weights: Vec<f64> =
                            queries.iter().map(|_| 1.0 + rng.below(50) as f64).collect();
                        let (total, per_query, usage) = batched
                            .cost_workload_weighted(&cat, &stats, &queries, &weights, &defs, incl);
                        let (costs, ref_usage) =
                            per_query_reference(&mut single, &cat, &stats, &queries, &defs, incl);
                        assert_eq!(usage, ref_usage, "{ctx}");
                        let weighted = costs
                            .iter()
                            .zip(&weights)
                            .fold(SimSeconds::ZERO, |acc, (&c, &w)| acc + c * w);
                        assert_eq!(total.secs().to_bits(), weighted.secs().to_bits(), "{ctx}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let ref_per_query: Vec<f64> = costs.iter().map(|c| c.secs()).collect();
                        assert_eq!(bits(&per_query), bits(&ref_per_query), "{ctx}");
                    }
                    _ => {
                        // The guard's shape: a full configuration plus its
                        // leave-one-out subsets.
                        let configs: Vec<Vec<IndexDef>> = std::iter::once(defs.clone())
                            .chain((0..defs.len()).map(|skip| {
                                let mut c = defs.clone();
                                c.remove(skip);
                                c
                            }))
                            .collect();
                        let got = batched.marginals(&cat, &stats, &queries, &configs, incl);
                        assert_eq!(got.len(), configs.len());
                        for (cfg, cc) in configs.iter().zip(&got) {
                            let (costs, ref_usage) =
                                per_query_reference(&mut single, &cat, &stats, &queries, cfg, incl);
                            assert_eq!(
                                cc.total.secs().to_bits(),
                                sum(&costs).secs().to_bits(),
                                "{ctx}"
                            );
                            assert_eq!(cc.usage, ref_usage, "{ctx}");
                        }
                    }
                }
                assert_eq!(batched.stats(), single.stats(), "{ctx}");
            }
            let s = batched.stats();
            assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0, "{s:?}");
        }
    }

    /// Materialised indexes are interned when a costed query first looks
    /// at their table, never earlier, so batching cannot reorder a
    /// table's candidates. Pinned through a tie: a hypothetical and a
    /// materialised index of equal cost on the fact table, where the one
    /// interned first wins.
    #[test]
    fn materialised_indexes_intern_where_a_query_looks() {
        let mut cat = star_catalog();
        let stats = StatsCatalog::build(&cat);
        cat.create_index(IndexDef::new(TableId(0), vec![3], vec![5]))
            .unwrap();
        let hypo = vec![IndexDef::new(TableId(0), vec![3], vec![4])];
        let mut rng = Mix(5);
        let on_fact = vec![star_query(0, &mut rng)];
        let on_d1 = vec![star_query(2, &mut rng)];

        // A pass over d1 leaves the fact table's index un-interned: the
        // hypothetical interns first and wins the tie.
        let mut svc = service();
        svc.cost_workload(&cat, &stats, &on_d1, &[], true);
        let (_, usage) = svc.cost_workload(&cat, &stats, &on_fact, &hypo, true);
        assert_eq!(usage, vec![1]);

        // Control: once a query on the fact table has met the
        // materialised index, it interns first and wins — so the tie is
        // real.
        let mut svc = service();
        svc.cost_workload(&cat, &stats, &on_fact, &[], true);
        let (_, usage) = svc.cost_workload(&cat, &stats, &on_fact, &hypo, true);
        assert_eq!(usage, vec![0]);
    }
}
