//! The execution core: one operator pipeline that runs a physical [`Plan`]
//! against real column data.
//!
//! Execution is *actual*: predicates are evaluated over the stored codes
//! by a vectorized batch filter, seeks and index-nested-loop probes bisect
//! the storage [`Index`], joins materialise real matching row ids, and
//! aggregation sums the payload columns. The pipeline yields the logical
//! result — result rows and, per access, the index used, the rows emitted
//! and whether it was a full scan ([`AccessStats`]) — which is exactly what
//! the paper's reward shaping consumes, plus each operator's physical work
//! counters ([`OpSample`]).
//!
//! Joins are left-deep. Each step yields its matches as one outer-major
//! pair list, tuples in order and each tuple's inner rows in inner-access
//! order, and the intermediate gathers every column through it once. A
//! hash join builds one flat, open-addressed table (multiplicative hash,
//! linear probing, each key's positions stored contiguously) on the
//! smaller input. With no more inner rows than outer tuples it builds on
//! the inner rows and probes with the tuples. Otherwise it builds on the
//! tuples' join keys, streams the inner rows through, and stable-sorts the
//! pairs back to outer-major, so the output is the same for either side.
//! The cost model prices the plan's inner side as the build and its outer
//! side as the probe, whichever side the table is physically built on.
//!
//! The two hot selection loops do not branch on each row's outcome, which
//! is close to random: a branch there mispredicts about as often as it
//! predicts. The scan filter's column kernels write every candidate row id
//! and advance by the predicate's truth value. The hash-join probe runs in
//! [`BATCH_ROWS`] windows of two passes: a branch-free pass keeps the probe
//! rows whose key's home slot is occupied (an empty home slot proves the
//! key absent), and only those candidates are looked up and emitted.
//!
//! Only how time is attributed to an operator varies:
//!
//! - **Priced** ([`Executor::new`], the `Simulated` backend): the
//!   [`CostModel`] prices each operator from the catalog's live sizes and
//!   the observed cardinalities. No clock is read and no samples are kept.
//! - **Clocked** ([`Executor::measured`], the `Measured` backend): a
//!   [`ClockSource`] times each operator, and every operator records an
//!   [`OpSample`] pairing its work counters with both the clocked seconds
//!   and the priced ones. [`Executor::dual`] clocks and samples the same
//!   way but reports the priced seconds, so its trajectory is the priced
//!   one while the samples feed calibration.
//!
//! Both attributions run the same operator code, so their logical results
//! agree by construction.

use dba_common::{IndexId, QueryId, SimSeconds, TableId};
use dba_storage::{Catalog, Column, Index, Table};

use crate::backend::{BackendKind, ExecutionBackend, OpKind, OpSample};
use crate::cost::CostModel;
use crate::plan::{seek_shape, AccessMethod, JoinAlgo, Plan};
use crate::query::{Predicate, Query};

/// Rows per batch in the vectorized scan loop and the hash-join probe: one
/// selection-vector refill per window keeps the working set cache-resident.
const BATCH_ROWS: usize = 4096;

/// A monotonic seconds source. Returned values only ever increase.
pub type ClockSource = Box<dyn Fn() -> f64 + Send>;

/// Observed statistics for one table access operator.
#[derive(Debug, Clone)]
pub struct AccessStats {
    pub table: TableId,
    /// The index used, or `None` for a heap scan.
    pub index: Option<IndexId>,
    /// Time attributed to this access operator (for index nested-loop
    /// inner sides: the total across all probes).
    pub time: SimSeconds,
    /// Actual rows emitted after local predicates.
    pub rows_out: u64,
    /// True if this was a full heap scan (reference time for reward shaping).
    pub is_full_scan: bool,
}

/// Observed execution of one query.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    pub query: QueryId,
    pub total: SimSeconds,
    pub accesses: Vec<AccessStats>,
    pub join_time: SimSeconds,
    pub agg_time: SimSeconds,
    pub result_rows: u64,
}

impl QueryExecution {
    /// Ids of all indexes the optimiser's plan actually used.
    pub fn indexes_used(&self) -> Vec<IndexId> {
        let mut out = Vec::new();
        for a in &self.accesses {
            if let Some(ix) = a.index {
                if !out.contains(&ix) {
                    out.push(ix);
                }
            }
        }
        out
    }

    /// The observed full-scan time of `table` in this execution, if the plan
    /// performed one.
    pub fn full_scan_time(&self, table: TableId) -> Option<SimSeconds> {
        self.accesses
            .iter()
            .find(|a| a.table == table && a.is_full_scan)
            .map(|a| a.time)
    }

    /// Maximum index access time observed on `table` (footnote-3 fallback
    /// for the full-scan reference).
    pub fn max_index_time(&self, table: TableId) -> Option<SimSeconds> {
        self.accesses
            .iter()
            .filter(|a| a.table == table && a.index.is_some())
            .map(|a| a.time)
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// How the pipeline attributes time to the operators it runs.
trait Timing {
    /// Mark the start of an operator's work.
    fn start(&self) -> f64;

    /// Close the operator started at `t0`: `priced` is the cost model's
    /// price and `work` its counters. Returns the seconds to report.
    fn charge(&mut self, t0: f64, priced: SimSeconds, work: OpSample) -> SimSeconds;
}

/// Priced attribution: the cost model's price is the operator's time.
#[derive(Debug, Clone, Copy)]
pub struct Priced;

impl Timing for Priced {
    #[inline]
    fn start(&self) -> f64 {
        0.0
    }

    #[inline]
    fn charge(&mut self, _t0: f64, priced: SimSeconds, _work: OpSample) -> SimSeconds {
        priced
    }
}

/// Clocked attribution: every operator is timed on the clock and sampled.
pub struct Clocked {
    clock: ClockSource,
    /// `Measured` reports the clocked seconds; `Simulated` reports the
    /// priced seconds and keeps the clocked samples alongside.
    reports: BackendKind,
    samples: Vec<OpSample>,
}

impl Timing for Clocked {
    fn start(&self) -> f64 {
        (self.clock)()
    }

    fn charge(&mut self, t0: f64, priced: SimSeconds, work: OpSample) -> SimSeconds {
        let measured_s = (self.clock)() - t0;
        self.samples.push(OpSample {
            sim_s: priced.secs(),
            measured_s,
            ..work
        });
        match self.reports {
            BackendKind::Measured => SimSeconds::new(measured_s),
            BackendKind::Simulated => priced,
        }
    }
}

/// Runs plans over the catalog, producing observed statistics; `T` is the
/// time attribution ([`Priced`] or [`Clocked`]).
#[derive(Debug, Clone)]
pub struct Executor<T = Priced> {
    cost: CostModel,
    timing: T,
}

impl Executor {
    /// The priced executor: the `Simulated` backend.
    pub fn new(cost: CostModel) -> Self {
        Executor {
            cost,
            timing: Priced,
        }
    }

    /// Execute `plan` for `query`, returning observed statistics.
    ///
    /// Panics if the plan references indexes that are not materialised —
    /// plans must be produced against the same catalog state.
    pub fn execute(&self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        Pipeline {
            cost: &self.cost,
            timing: &mut Priced,
            catalog,
            query,
        }
        .run(plan)
    }
}

impl Executor<Clocked> {
    /// The clocked executor reporting measured seconds: the `Measured`
    /// backend.
    pub fn measured(cost: CostModel, clock: ClockSource) -> Self {
        Executor::clocked(cost, clock, BackendKind::Measured)
    }

    /// The clocked executor reporting priced seconds: its trajectory is the
    /// priced one, and the clocked samples ride along for calibration.
    pub fn dual(cost: CostModel, clock: ClockSource) -> Self {
        Executor::clocked(cost, clock, BackendKind::Simulated)
    }

    fn clocked(cost: CostModel, clock: ClockSource, reports: BackendKind) -> Self {
        Executor {
            cost,
            timing: Clocked {
                clock,
                reports,
                samples: Vec::new(),
            },
        }
    }
}

impl<T> Executor<T> {
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

impl ExecutionBackend for Executor {
    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        Executor::execute(self, catalog, query, plan)
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

impl ExecutionBackend for Executor<Clocked> {
    /// The kind of time reported: `Measured` for [`Executor::measured`],
    /// `Simulated` for [`Executor::dual`].
    fn kind(&self) -> BackendKind {
        self.timing.reports
    }

    fn name(&self) -> &'static str {
        match self.timing.reports {
            BackendKind::Measured => "measured",
            BackendKind::Simulated => "dual",
        }
    }

    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        Pipeline {
            cost: &self.cost,
            timing: &mut self.timing,
            catalog,
            query,
        }
        .run(plan)
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn take_op_samples(&mut self) -> Vec<OpSample> {
        std::mem::take(&mut self.timing.samples)
    }
}

/// Intermediate relation during left-deep join execution: parallel vectors
/// of row ids, one per already-joined table.
struct Intermediate {
    tables: Vec<TableId>,
    /// `columns[i][k]` = row id in `tables[i]` for output tuple `k`.
    columns: Vec<Vec<u32>>,
    len: usize,
}

impl Intermediate {
    fn single(table: TableId, rows: Vec<u32>) -> Self {
        let len = rows.len();
        Intermediate {
            tables: vec![table],
            columns: vec![rows],
            len,
        }
    }

    fn table_pos(&self, table: TableId) -> Option<usize> {
        self.tables.iter().position(|&t| t == table)
    }

    /// The join-key codes of every tuple: `outer`'s value at the row the
    /// tuple holds on the table at `pos`.
    fn keys(&self, pos: usize, outer: &Column) -> Vec<i64> {
        assert!(
            u32::try_from(self.len).is_ok(),
            "join pairs address tuples by u32"
        );
        let mut keys = Vec::new();
        outer.gather_into(&self.columns[pos], &mut keys);
        keys
    }

    /// Join `table` in, column-wise: output tuple `i` is tuple
    /// `pairs.outer[i]` extended with inner row `pairs.inner[i]`. Each
    /// existing column is gathered through the pair list once.
    fn join(self, table: TableId, pairs: JoinPairs) -> Intermediate {
        let mut columns: Vec<Vec<u32>> = self
            .columns
            .iter()
            .map(|col| pairs.outer.iter().map(|&k| col[k as usize]).collect())
            .collect();
        columns.push(pairs.inner);
        let mut tables = self.tables;
        tables.push(table);
        Intermediate {
            tables,
            len: pairs.outer.len(),
            columns,
        }
    }
}

/// The matches of one join step, outer-major: pair `i` joins outer tuple
/// `outer[i]` with inner row `inner[i]`. Tuples ascend, and one tuple's
/// inner rows keep the inner access's order.
#[derive(Debug, Default, PartialEq)]
struct JoinPairs {
    outer: Vec<u32>,
    inner: Vec<u32>,
}

impl JoinPairs {
    #[inline]
    fn push(&mut self, outer: usize, inner: u32) {
        self.outer.push(outer as u32);
        self.inner.push(inner);
    }

    /// Stable counting sort by outer tuple (`tuples` of them): pairs of one
    /// tuple keep their relative order.
    fn sorted_by_outer(self, tuples: usize) -> JoinPairs {
        let mut starts = vec![0u32; tuples + 1];
        for &k in &self.outer {
            starts[k as usize + 1] += 1;
        }
        for k in 0..tuples {
            starts[k + 1] += starts[k];
        }
        let n = self.outer.len();
        let mut sorted = JoinPairs {
            outer: vec![0; n],
            inner: vec![0; n],
        };
        for (&k, &r) in self.outer.iter().zip(&self.inner) {
            let at = &mut starts[k as usize];
            sorted.outer[*at as usize] = k;
            sorted.inner[*at as usize] = r;
            *at += 1;
        }
        sorted
    }
}

/// Which input a hash join builds its table on; the other is probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildSide {
    /// The inner access's rows: probing with the tuples in order emits
    /// outer-major pairs directly.
    Inner,
    /// The outer tuples' join keys: the inner rows stream through the
    /// table, and the pairs are then sorted back to outer-major.
    Outer,
}

impl BuildSide {
    /// Build on the smaller input, the inner one on a tie.
    fn smaller(outer_tuples: usize, inner_rows: usize) -> BuildSide {
        if inner_rows <= outer_tuples {
            BuildSide::Inner
        } else {
            BuildSide::Outer
        }
    }
}

/// Hash-join `outer_keys` (one per outer tuple) with `inner_rows`, whose
/// key codes are `inner_vals[row]`, building on `side`. The pairs are the
/// same for either side: outer-major, inner rows in `inner_rows` order.
///
/// The probe input streams through in [`BATCH_ROWS`] windows, two passes
/// each: a branch-free pass keeps the rows whose key may be in the table
/// ([`JoinTable::candidates`]), and only those are looked up and emitted.
/// Most probe rows miss, so the miss is no longer a per-row branch.
fn hash_join_pairs(
    outer_keys: &[i64],
    inner_rows: &[u32],
    inner_vals: &[i64],
    side: BuildSide,
) -> JoinPairs {
    let mut pairs = JoinPairs::default();
    let mut hits = Vec::with_capacity(BATCH_ROWS);
    match side {
        BuildSide::Inner => {
            let table = JoinTable::build(inner_rows.iter().map(|&r| inner_vals[r as usize]));
            for (w, keys) in outer_keys.chunks(BATCH_ROWS).enumerate() {
                table.candidates(keys.iter().copied(), &mut hits);
                for &i in &hits {
                    for &at in table.get(keys[i as usize]) {
                        pairs.push(w * BATCH_ROWS + i as usize, inner_rows[at as usize]);
                    }
                }
            }
            pairs
        }
        BuildSide::Outer => {
            let table = JoinTable::build(outer_keys.iter().copied());
            for rows in inner_rows.chunks(BATCH_ROWS) {
                table.candidates(rows.iter().map(|&r| inner_vals[r as usize]), &mut hits);
                for &i in &hits {
                    let r = rows[i as usize];
                    for &k in table.get(inner_vals[r as usize]) {
                        pairs.push(k as usize, r);
                    }
                }
            }
            pairs.sorted_by_outer(outer_keys.len())
        }
    }
}

/// A flat, open-addressed hash table from `i64` join keys to the positions
/// of the build input holding them. Slots are found by a multiplicative
/// hash and linear probing; each distinct key owns one group, and a
/// group's positions lie contiguously in `positions`, ascending. Keys are
/// the catalog's generated codes, never crafted input, so a fixed
/// multiplier serves in place of a keyed hasher.
struct JoinTable {
    /// `64 - log2(slot count)`: a key's home slot is its hash's top bits.
    shift: u32,
    /// Per slot: 0 if empty, else 1 + the group of the key stored there.
    slots: Vec<u32>,
    /// Group `g`'s key.
    keys: Vec<i64>,
    /// Group `g`'s positions are `positions[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl JoinTable {
    /// Slot count of an empty table.
    const MIN_SLOTS: usize = 16;
    /// The table doubles whenever it would hold fewer slots per key than
    /// this, so a probe for an absent key (most probes, when the larger input
    /// streams through) nearly always stops at its home slot.
    const SLOTS_PER_KEY: usize = 8;

    /// The home slot of `key` in a table of `64 - shift` address bits.
    #[inline]
    fn home(key: i64, shift: u32) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Build over `keys`, the build input in order: one counting pass
    /// (assigning each key its group), one prefix sum, one scatter.
    fn build(keys: impl ExactSizeIterator<Item = i64>) -> JoinTable {
        let mut table = JoinTable {
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            slots: vec![0; Self::MIN_SLOTS],
            keys: Vec::new(),
            starts: vec![0],
            positions: Vec::new(),
        };
        let mut group_of = Vec::with_capacity(keys.len());
        for key in keys {
            let g = table.group_or_insert(key);
            table.starts[g + 1] += 1;
            group_of.push(g as u32);
        }
        for g in 1..table.starts.len() {
            table.starts[g] += table.starts[g - 1];
        }
        let mut next = table.starts.clone();
        table.positions = vec![0; group_of.len()];
        for (at, &g) in group_of.iter().enumerate() {
            let slot = &mut next[g as usize];
            table.positions[*slot as usize] = at as u32;
            *slot += 1;
        }
        table
    }

    /// Where `key` is: `Ok(group)` if present, else `Err(slot)`, the empty
    /// slot that ends its probe sequence.
    #[inline]
    fn find(&self, key: i64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = Self::home(key, self.shift);
        loop {
            match self.slots[s] {
                0 => return Err(s),
                g if self.keys[g as usize - 1] == key => return Ok(g as usize - 1),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The group of `key`, inserting a new empty one if absent. Counts
    /// accumulate in `starts[g + 1]` until the build's prefix sum.
    fn group_or_insert(&mut self, key: i64) -> usize {
        let s = match self.find(key) {
            Ok(g) => return g,
            Err(s) => s,
        };
        let g = self.keys.len();
        self.slots[s] = g as u32 + 1;
        self.keys.push(key);
        self.starts.push(0);
        if Self::SLOTS_PER_KEY * (g + 1) > self.slots.len() {
            self.grow();
        }
        g
    }

    /// Double the slot count and re-place every key.
    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        self.shift -= 1;
        for g in 0..self.keys.len() {
            let s = self.find(self.keys[g]).expect_err("keys are distinct");
            self.slots[s] = g as u32 + 1;
        }
    }

    /// False only if `key` is absent: a present key's probe sequence starts
    /// at its home slot, so an empty home slot proves the key is not here.
    /// At most one slot in [`JoinTable::SLOTS_PER_KEY`] is occupied.
    #[inline]
    fn may_hold(&self, key: i64) -> bool {
        self.slots[Self::home(key, self.shift)] != 0
    }

    /// Set `out` to the offsets of those `keys` the table
    /// [`may hold`](JoinTable::may_hold), ascending. Branch-free on each
    /// key's outcome: every offset is written into the next slot and the
    /// cursor advances by the test's truth value.
    fn candidates(&self, keys: impl ExactSizeIterator<Item = i64>, out: &mut Vec<u32>) {
        out.clear();
        out.resize(keys.len(), 0);
        let mut n = 0;
        for (i, key) in keys.enumerate() {
            out[n] = i as u32;
            n += self.may_hold(key) as usize;
        }
        out.truncate(n);
    }

    /// The build positions holding `key`, ascending; empty if none.
    #[inline]
    fn get(&self, key: i64) -> &[u32] {
        match self.find(key) {
            Ok(g) => &self.positions[self.starts[g] as usize..self.starts[g + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// One query's run through the operators under a time attribution.
struct Pipeline<'a, T> {
    cost: &'a CostModel,
    timing: &'a mut T,
    catalog: &'a Catalog,
    query: &'a Query,
}

impl<T: Timing> Pipeline<'_, T> {
    fn run(mut self, plan: &Plan) -> QueryExecution {
        let (catalog, query) = (self.catalog, self.query);
        let mut accesses = Vec::with_capacity(1 + plan.joins.len());
        let mut join_time = SimSeconds::ZERO;

        // Driver access.
        let (rows, stats) = self.access(plan.driver.table, &plan.driver.method);
        accesses.push(stats);
        let mut inter = Intermediate::single(plan.driver.table, rows);

        // Join steps.
        for step in &plan.joins {
            let inner_table = catalog.table(step.access.table);
            // The outer side of this join lives on an already-joined table.
            let outer_col = step
                .join
                .other_side(step.access.table)
                .expect("join step must connect to the new table");
            let outer_pos = inter
                .table_pos(outer_col.table)
                .expect("left-deep plan: outer table must already be joined");
            let outer = catalog.table(outer_col.table).column(outer_col.ordinal);

            match step.algo {
                JoinAlgo::Hash => {
                    let (inner_rows, stats) = self.access(step.access.table, &step.access.method);
                    accesses.push(stats);
                    let inner_col = step
                        .join
                        .side_on(step.access.table)
                        .expect("join step must reference the new table");

                    let t0 = self.timing.start();
                    let build_rows = inner_rows.len() as u64;
                    let probe_rows = inter.len as u64;
                    let side = BuildSide::smaller(inter.len, inner_rows.len());
                    let pairs = hash_join_pairs(
                        &inter.keys(outer_pos, outer),
                        &inner_rows,
                        inner_table.column(inner_col.ordinal).data(),
                        side,
                    );
                    inter = inter.join(step.access.table, pairs);
                    let out_rows = inter.len as u64;
                    join_time += self.timing.charge(
                        t0,
                        self.cost.hash_join(build_rows, probe_rows, out_rows),
                        OpSample {
                            build_rows,
                            probe_rows,
                            out_rows,
                            ..OpSample::with_op(OpKind::HashJoin)
                        },
                    );
                }
                JoinAlgo::IndexNestedLoop => {
                    let index_id = step
                        .access
                        .method
                        .index_id()
                        .expect("INL join requires an inner index");
                    let index = materialised(catalog, index_id);
                    let covering = matches!(
                        step.access.method,
                        AccessMethod::IndexSeek { covering: true, .. }
                    );
                    let inner_preds = query.predicates_on(step.access.table);

                    let t0 = self.timing.start();
                    let probes = inter.len as u64;
                    let mut matched = 0u64;
                    let mut pages = 0u64;
                    let mut pairs = JoinPairs::default();
                    for (k, v) in inter.keys(outer_pos, outer).into_iter().enumerate() {
                        let (s, e) = index.probe(inner_table, &[v], None);
                        matched += (e - s) as u64;
                        pages += probe_leaf_pages(index, (e - s) as u64);
                        for &r in &index.ordered_rows()[s..e] {
                            if row_matches(inner_table, r, &inner_preds) {
                                pairs.push(k, r);
                            }
                        }
                    }
                    inter = inter.join(step.access.table, pairs);
                    let rows_out = inter.len as u64;
                    let heap_fetches = if covering { 0 } else { matched };
                    let time = self.timing.charge(
                        t0,
                        self.cost.inl_probes(
                            probes,
                            matched,
                            leaf_row_bytes(inner_table, index),
                            heap_fetches,
                            catalog.live_heap_pages(step.access.table),
                        ),
                        OpSample {
                            pages,
                            rows: matched,
                            descents: probes,
                            out_rows: rows_out,
                            ..OpSample::with_op(OpKind::InlProbe)
                        },
                    );
                    accesses.push(AccessStats {
                        table: step.access.table,
                        index: Some(index_id),
                        time,
                        rows_out,
                        is_full_scan: false,
                    });
                }
            }
        }

        let agg_time = if query.aggregated {
            let t0 = self.timing.start();
            // Sum every payload column over the joined row ids: the work
            // `agg_row_s` models.
            for pc in &query.payload {
                if let Some(pos) = inter.table_pos(pc.table) {
                    let col = catalog.table(pc.table).column(pc.ordinal);
                    let acc = inter.columns[pos]
                        .iter()
                        .fold(0i64, |acc, &r| acc.wrapping_add(col.value(r as usize)));
                    std::hint::black_box(acc);
                }
            }
            let rows = inter.len as u64;
            self.timing.charge(
                t0,
                self.cost.aggregate(rows),
                OpSample {
                    rows,
                    out_rows: 1,
                    ..OpSample::with_op(OpKind::Aggregate)
                },
            )
        } else {
            SimSeconds::ZERO
        };

        let total = accesses.iter().map(|a| a.time).sum::<SimSeconds>() + join_time + agg_time;
        QueryExecution {
            query: query.id,
            total,
            accesses,
            join_time,
            agg_time,
            result_rows: inter.len as u64,
        }
    }

    /// Run a single-table access, returning matching row ids (ascending for
    /// scans, key order for seeks) and its stats.
    fn access(&mut self, table_id: TableId, method: &AccessMethod) -> (Vec<u32>, AccessStats) {
        let catalog = self.catalog;
        let table = catalog.table(table_id);
        let preds = self.query.predicates_on(table_id);
        let (rows, time) = match method {
            AccessMethod::FullScan => {
                let t0 = self.timing.start();
                let rows = batch_filter(table, &preds);
                // Time is priced over the *live* heap: drift-grown tables
                // scan slower even though only generated rows materialise.
                let time = self.timing.charge(
                    t0,
                    self.cost.scan(
                        catalog.live_heap_pages(table_id),
                        catalog.live_rows(table_id),
                    ),
                    OpSample {
                        pages: table.heap_pages(),
                        rows: table.rows() as u64,
                        out_rows: rows.len() as u64,
                        ..OpSample::with_op(OpKind::SeqScan)
                    },
                );
                (rows, time)
            }
            AccessMethod::IndexSeek { index, covering } => {
                let ix = materialised(catalog, *index);
                let shape = seek_shape(ix.def(), &preds);
                let t0 = self.timing.start();
                let (s, e) = ix.probe(table, &shape.eq_values, shape.range);
                let rows: Vec<u32> = ix.ordered_rows()[s..e]
                    .iter()
                    .copied()
                    .filter(|&r| row_matches(table, r, &shape.residual))
                    .collect();
                if !covering {
                    // Fetch the needed columns from the heap: the work the
                    // cost model's random heap reads stand for.
                    let mut fetched = Vec::new();
                    for ord in self.query.columns_needed_on(table_id) {
                        table.column(ord).gather_into(&rows, &mut fetched);
                        std::hint::black_box(fetched.as_slice());
                    }
                }
                let matched = (e - s) as u64;
                let heap_fetches = if *covering { 0 } else { matched };
                let time = self.timing.charge(
                    t0,
                    self.cost.index_seek(
                        matched,
                        leaf_row_bytes(table, ix),
                        heap_fetches,
                        catalog.live_heap_pages(table_id),
                    ),
                    OpSample {
                        pages: probe_leaf_pages(ix, matched),
                        rows: matched,
                        descents: 1,
                        out_rows: rows.len() as u64,
                        ..OpSample::with_op(OpKind::IndexSeek)
                    },
                );
                (rows, time)
            }
            AccessMethod::CoveringScan { index } => {
                let ix = materialised(catalog, *index);
                debug_assert!(
                    ix.def().covers(&self.query.columns_needed_on(table_id)),
                    "covering scan over a non-covering index"
                );
                let t0 = self.timing.start();
                let rows = batch_filter(table, &preds);
                // Maintained leaves grow with the table (drift): the
                // catalog's live accounting scales each index by the growth
                // it actually absorbed since creation.
                let time = self.timing.charge(
                    t0,
                    self.cost.covering_scan(
                        catalog.index_live_leaf_pages(ix.id()),
                        catalog.live_rows(table_id),
                    ),
                    OpSample {
                        pages: ix.leaf_pages(),
                        rows: table.rows() as u64,
                        out_rows: rows.len() as u64,
                        ..OpSample::with_op(OpKind::CoveringScan)
                    },
                );
                (rows, time)
            }
        };
        let stats = AccessStats {
            table: table_id,
            index: method.index_id(),
            time,
            rows_out: rows.len() as u64,
            is_full_scan: matches!(method, AccessMethod::FullScan),
        };
        (rows, stats)
    }
}

/// The catalog's index `id`; plans must reference materialised indexes.
fn materialised(catalog: &Catalog, id: IndexId) -> &Index {
    catalog
        .index(id)
        .expect("plan references unmaterialised index")
}

/// Bytes per leaf row of `index` on `table` (keys + includes + locator).
fn leaf_row_bytes(table: &Table, index: &Index) -> u64 {
    table.columns_width(&index.def().key_cols) + table.columns_width(&index.def().include_cols) + 8
}

/// Leaf pages a probe matching `matched` entries spans, from the index's
/// geometry: a descent always lands on at least one leaf.
fn probe_leaf_pages(index: &Index, matched: u64) -> u64 {
    (matched * index.leaf_pages())
        .div_ceil(index.rows().max(1) as u64)
        .max(1)
}

/// Vectorized conjunctive filter: seed an ascending selection vector per
/// [`BATCH_ROWS`] window from the first predicate, refine it in place with
/// the rest. Returns every matching row id of `table`, ascending.
fn batch_filter(table: &Table, preds: &[Predicate]) -> Vec<u32> {
    let n = table.rows();
    let Some((first, rest)) = preds.split_first() else {
        return (0..n as u32).collect();
    };
    let seed = table.column(first.column.ordinal);
    let mut out = Vec::new();
    let mut batch = Vec::with_capacity(BATCH_ROWS);
    for start in (0..n).step_by(BATCH_ROWS) {
        let end = (start + BATCH_ROWS).min(n);
        batch.clear();
        seed.fill_matching_in(first.lo, first.hi, start, end, &mut batch);
        for p in rest {
            table
                .column(p.column.ordinal)
                .retain_matching(p.lo, p.hi, &mut batch);
        }
        out.extend_from_slice(&batch);
    }
    out
}

/// Whether row `r` of `table` satisfies all `preds`.
#[inline]
fn row_matches(table: &Table, r: u32, preds: &[Predicate]) -> bool {
    preds
        .iter()
        .all(|p| p.matches(table.column(p.column.ordinal).value(r as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinStep, TableAccess};
    use crate::query::JoinPred;
    use dba_common::{ColumnId, TemplateId};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema};
    use std::collections::BTreeMap;

    /// Two-table catalog: `dim` (200 rows) and `fact` (5000 rows) with
    /// fact.f_dim a uniform FK into dim.
    fn catalog() -> Catalog {
        let dim = TableSchema::new(
            "dim",
            vec![
                ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "d_attr",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 9 },
                ),
            ],
        );
        let fact = TableSchema::new(
            "fact",
            vec![
                ColumnSpec::new("f_key", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "f_dim",
                    ColumnType::Int,
                    Distribution::FkUniform { parent_rows: 200 },
                ),
                ColumnSpec::new(
                    "f_val",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 999 },
                ),
            ],
        );
        Catalog::new(vec![
            TableBuilder::new(dim, 200).build(TableId(0), 5),
            TableBuilder::new(fact, 5000).build(TableId(1), 5),
        ])
    }

    fn col(t: u32, o: u16) -> ColumnId {
        ColumnId::new(TableId(t), o)
    }

    fn single_table_query(preds: Vec<Predicate>, payload: Vec<ColumnId>) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(1)],
            predicates: preds,
            joins: vec![],
            payload,
            aggregated: false,
        }
    }

    fn scan_plan(table: TableId, est: f64) -> Plan {
        Plan {
            driver: TableAccess {
                table,
                method: AccessMethod::FullScan,
                est_rows: est,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        }
    }

    #[test]
    fn full_scan_counts_match_ground_truth() {
        let cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        let truth = cat.table(TableId(1)).column(2).count_in_range(0, 99) as u64;
        assert_eq!(result.result_rows, truth);
        assert!(result.accesses[0].is_full_scan);
        assert!(result.total.secs() > 0.0);
        assert_eq!(
            result.full_scan_time(TableId(1)),
            Some(result.accesses[0].time)
        );
    }

    #[test]
    fn index_seek_equals_scan_row_output() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 30)], vec![col(1, 0)]);
        let exec = Executor::new(CostModel::unit_scale());
        let seek_plan = Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::IndexSeek {
                    index: meta.id,
                    covering: false,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let via_seek = exec.execute(&cat, &q, &seek_plan);
        let via_scan = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        assert_eq!(via_seek.result_rows, via_scan.result_rows);
        assert_eq!(via_seek.indexes_used(), vec![meta.id]);
        // Note: on this tiny (15-page) table the non-covering seek is
        // *slower* than the scan — random heap fetches cannot amortise.
        // That asymmetry is intentional and exercised in
        // `selective_seek_beats_scan_on_large_table`.
    }

    #[test]
    fn selective_seek_beats_scan_on_large_table() {
        // 60k rows, high-cardinality column: an equality predicate matches
        // ~0-3 rows, which is the regime where a non-covering secondary
        // index genuinely wins against a sequential scan.
        let schema = TableSchema::new(
            "big",
            vec![
                ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "v",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 599_999 },
                ),
                ColumnSpec::new("w", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
            ],
        );
        let mut cat = Catalog::new(vec![TableBuilder::new(schema, 60_000).build(TableId(0), 13)]);
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![]))
            .unwrap();
        // Pick a value that actually occurs so the seek returns rows.
        let needle = cat.table(TableId(0)).column(1).value(1234);
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(col(0, 1), needle)],
            joins: vec![],
            payload: vec![col(0, 0)],
            aggregated: false,
        };
        let exec = Executor::new(CostModel::unit_scale());
        let seek_plan = Plan {
            driver: TableAccess {
                table: TableId(0),
                method: AccessMethod::IndexSeek {
                    index: meta.id,
                    covering: false,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let via_seek = exec.execute(&cat, &q, &seek_plan);
        let via_scan = exec.execute(&cat, &q, &scan_plan(TableId(0), 0.0));
        assert!(via_seek.result_rows >= 1);
        assert_eq!(via_seek.result_rows, via_scan.result_rows);
        assert!(
            via_seek.total.secs() < via_scan.total.secs() / 5.0,
            "seek {} vs scan {}",
            via_seek.total.secs(),
            via_scan.total.secs()
        );
    }

    #[test]
    fn covering_seek_is_cheaper_than_non_covering() {
        let mut cat = catalog();
        let plain = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let covering = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let exec = Executor::new(CostModel::unit_scale());
        let mk = |id, cov| Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::IndexSeek {
                    index: id,
                    covering: cov,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let with_heap = exec.execute(&cat, &q, &mk(plain.id, false));
        let no_heap = exec.execute(&cat, &q, &mk(covering.id, true));
        assert_eq!(with_heap.result_rows, no_heap.result_rows);
        assert!(no_heap.total.secs() < with_heap.total.secs());
    }

    fn join_query() -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0), TableId(1)],
            predicates: vec![
                Predicate::eq(col(0, 1), 3),
                Predicate::range(col(1, 2), 0, 499),
            ],
            joins: vec![JoinPred::new(col(0, 0), col(1, 1))],
            payload: vec![col(1, 0)],
            aggregated: true,
        }
    }

    /// Ground-truth join cardinality computed naively.
    fn true_join_rows(cat: &Catalog) -> u64 {
        let dim = cat.table(TableId(0));
        let fact = cat.table(TableId(1));
        let mut n = 0u64;
        for dr in 0..dim.rows() {
            if dim.column(1).value(dr) != 3 {
                continue;
            }
            let key = dim.column(0).value(dr);
            for fr in 0..fact.rows() {
                if fact.column(1).value(fr) == key && (0..=499).contains(&fact.column(2).value(fr))
                {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn hash_join_matches_ground_truth() {
        let cat = catalog();
        let q = join_query();
        let plan = Plan {
            driver: TableAccess {
                table: TableId(0),
                method: AccessMethod::FullScan,
                est_rows: 0.0,
            },
            joins: vec![JoinStep {
                access: TableAccess {
                    table: TableId(1),
                    method: AccessMethod::FullScan,
                    est_rows: 0.0,
                },
                algo: JoinAlgo::Hash,
                join: q.joins[0],
                est_rows_out: 0.0,
            }],
            aggregated: true,
            est_cost: SimSeconds::ZERO,
        };
        let exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &plan);
        assert_eq!(result.result_rows, true_join_rows(&cat));
        assert!(result.join_time.secs() > 0.0);
        assert!(result.agg_time.secs() > 0.0);
    }

    #[test]
    fn inl_join_matches_hash_join_output() {
        let mut cat = catalog();
        let fk_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let q = join_query();
        let inl_plan = Plan {
            driver: TableAccess {
                table: TableId(0),
                method: AccessMethod::FullScan,
                est_rows: 0.0,
            },
            joins: vec![JoinStep {
                access: TableAccess {
                    table: TableId(1),
                    method: AccessMethod::IndexSeek {
                        index: fk_ix.id,
                        covering: false,
                    },
                    est_rows: 0.0,
                },
                algo: JoinAlgo::IndexNestedLoop,
                join: q.joins[0],
                est_rows_out: 0.0,
            }],
            aggregated: true,
            est_cost: SimSeconds::ZERO,
        };
        let exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &inl_plan);
        assert_eq!(result.result_rows, true_join_rows(&cat));
        // The INL inner access is attributed to the index.
        let inner = result
            .accesses
            .iter()
            .find(|a| a.table == TableId(1))
            .unwrap();
        assert_eq!(inner.index, Some(fk_ix.id));
        assert!(!inner.is_full_scan);
        assert!(result.max_index_time(TableId(1)).is_some());
    }

    #[test]
    fn drifted_table_scans_slower_but_returns_same_rows() {
        let mut cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let exec = Executor::new(CostModel::unit_scale());
        let before = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        cat.apply_drift(TableId(1), 50_000, 0, 0);
        let after = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        // Results come from the generated rows; cost comes from the live heap.
        assert_eq!(after.result_rows, before.result_rows);
        assert!(
            after.total.secs() > before.total.secs() * 2.0,
            "10× heap growth must slow the scan: {} vs {}",
            after.total.secs(),
            before.total.secs()
        );
    }

    #[test]
    fn covering_scan_slows_as_the_indexed_table_grows() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let plan = Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::CoveringScan { index: meta.id },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let exec = Executor::new(CostModel::unit_scale());
        let before = exec.execute(&cat, &q, &plan);
        cat.apply_drift(TableId(1), 45_000, 0, 0); // 10× growth
        let after = exec.execute(&cat, &q, &plan);
        assert!(
            after.total.secs() > before.total.secs() * 3.0,
            "maintained leaves grow with the table: {} vs {}",
            after.total.secs(),
            before.total.secs()
        );
    }

    #[test]
    fn empty_predicates_scan_emits_all_rows() {
        let cat = catalog();
        let q = single_table_query(vec![], vec![col(1, 0)]);
        let exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        assert_eq!(result.result_rows, 5000);
    }

    /// A deterministic clock: each read advances time by one microsecond.
    fn ticks() -> ClockSource {
        let t = std::cell::Cell::new(0u64);
        Box::new(move || {
            t.set(t.get() + 1);
            t.get() as f64 * 1e-6
        })
    }

    /// One plan per operator kind over `cat`'s fact and dim tables.
    fn every_operator(cat: &mut Catalog) -> Vec<(Query, Plan)> {
        let seek_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let cover_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let fk_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let single = |method| Plan {
            driver: TableAccess {
                table: TableId(1),
                method,
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let mut out: Vec<(Query, Plan)> = [
            AccessMethod::FullScan,
            AccessMethod::IndexSeek {
                index: seek_ix.id,
                covering: false,
            },
            AccessMethod::IndexSeek {
                index: cover_ix.id,
                covering: true,
            },
            AccessMethod::CoveringScan { index: cover_ix.id },
        ]
        .into_iter()
        .map(|m| (q.clone(), single(m)))
        .collect();
        let jq = join_query();
        for (algo, method) in [
            (JoinAlgo::Hash, AccessMethod::FullScan),
            (
                JoinAlgo::IndexNestedLoop,
                AccessMethod::IndexSeek {
                    index: fk_ix.id,
                    covering: false,
                },
            ),
        ] {
            let plan = Plan {
                driver: scan_plan(TableId(0), 0.0).driver,
                joins: vec![JoinStep {
                    access: TableAccess {
                        table: TableId(1),
                        method,
                        est_rows: 0.0,
                    },
                    algo,
                    join: jq.joins[0],
                    est_rows_out: 0.0,
                }],
                aggregated: true,
                est_cost: SimSeconds::ZERO,
            };
            out.push((jq.clone(), plan));
        }
        out
    }

    #[test]
    fn batch_filter_is_ascending_and_complete() {
        let cat = catalog();
        let t = cat.table(TableId(1));
        let preds = [
            Predicate::range(col(1, 2), 100, 700),
            Predicate::range(col(1, 1), 0, 150),
        ];
        let want: Vec<u32> = (0..t.rows() as u32)
            .filter(|&r| row_matches(t, r, &preds))
            .collect();
        assert_eq!(batch_filter(t, &preds), want);
        assert_eq!(batch_filter(t, &[]).len(), t.rows());

        // A seeded sweep over three full windows and a partial one; bounds
        // drawn so that empty (`lo > hi`), point and near-half-selective
        // ranges all occur.
        let rows = 3 * BATCH_ROWS + 123;
        let t = TableBuilder::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSpec::new("a", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
                    ColumnSpec::new(
                        "b",
                        ColumnType::Int,
                        Distribution::Uniform { lo: -500, hi: 499 },
                    ),
                    ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
                ],
            ),
            rows,
        )
        .build(TableId(0), 17);
        let mut rng = splitmix(5);
        for _ in 0..60 {
            let preds: Vec<Predicate> = (0..1 + rng() % 3)
                .map(|_| {
                    let o = (rng() % 3) as u16;
                    let lo = (rng() % 1200) as i64 - 600;
                    let hi = lo + (rng() % 700) as i64 - 100;
                    Predicate::range(col(0, o), lo, hi)
                })
                .collect();
            let want: Vec<u32> = (0..rows as u32)
                .filter(|&r| row_matches(&t, r, &preds))
                .collect();
            assert_eq!(batch_filter(&t, &preds), want, "{preds:?}");
        }
    }

    #[test]
    fn clocked_samples_every_operator_and_drains() {
        let mut cat = catalog();
        let plans = every_operator(&mut cat);
        let mut measured = Executor::measured(CostModel::unit_scale(), ticks());
        for (q, plan) in &plans {
            let e = ExecutionBackend::execute(&mut measured, &cat, q, plan);
            assert!(e.total.secs() > 0.0, "the clock charges elapsed time");
        }
        let samples = measured.take_op_samples();
        for op in OpKind::ALL {
            assert!(samples.iter().any(|s| s.op() == op), "no {op:?} sample");
        }
        for s in &samples {
            assert!(s.sim_s > 0.0 && s.measured_s > 0.0, "{:?}", s.op());
            if matches!(s.op(), OpKind::IndexSeek | OpKind::InlProbe) {
                assert!(s.pages >= 1, "a descent lands on a leaf");
            }
        }
        assert!(measured.take_op_samples().is_empty(), "samples drain");
        assert_eq!(measured.kind(), BackendKind::Measured);
    }

    #[test]
    fn dual_reports_priced_time_and_keeps_clocked_samples() {
        let mut cat = catalog();
        let plans = every_operator(&mut cat);
        let priced = Executor::new(CostModel::unit_scale());
        let mut dual = Executor::dual(CostModel::unit_scale(), ticks());
        let mut priced_total = 0.0;
        for (q, plan) in &plans {
            let p = priced.execute(&cat, q, plan);
            let d = ExecutionBackend::execute(&mut dual, &cat, q, plan);
            assert_eq!(d.total.secs().to_bits(), p.total.secs().to_bits());
            priced_total += p.total.secs();
        }
        let samples = dual.take_op_samples();
        let sampled: f64 = samples.iter().map(|s| s.sim_s).sum();
        assert!((sampled / priced_total - 1.0).abs() < 1e-9);
        assert!(samples.iter().all(|s| s.measured_s > 0.0));
        assert_eq!((dual.kind(), dual.name()), (BackendKind::Simulated, "dual"));
    }

    /// The join by definition: a `BTreeMap` from key to inner rows in
    /// access order, read once per outer tuple in order.
    fn reference_pairs(outer_keys: &[i64], inner_rows: &[u32], inner_vals: &[i64]) -> JoinPairs {
        let mut by_key: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for &r in inner_rows {
            by_key.entry(inner_vals[r as usize]).or_default().push(r);
        }
        let mut pairs = JoinPairs::default();
        for (k, v) in outer_keys.iter().enumerate() {
            for &r in by_key.get(v).into_iter().flatten() {
                pairs.push(k, r);
            }
        }
        pairs
    }

    /// Join an intermediate whose tuples carry `outer_keys` (through a
    /// reversed outer column) with `inner_rows`, building on each side, and
    /// check both against the reference: same pairs, and the same
    /// intermediate tables, columns and order.
    fn assert_build_sides_agree(outer_keys: &[i64], inner_rows: &[u32], inner_vals: &[i64]) {
        let n = outer_keys.len();
        // Tuple `k` holds outer row `n - 1 - k`, so the keys are gathered.
        let outer = Column::new(
            "outer",
            ColumnType::Int,
            outer_keys.iter().rev().copied().collect(),
        );
        let intermediate = || Intermediate {
            tables: vec![TableId(0), TableId(1)],
            columns: vec![
                (0..n as u32).map(|k| 7 * k + 1).collect(),
                (0..n as u32).rev().collect(),
            ],
            len: n,
        };
        let want = reference_pairs(outer_keys, inner_rows, inner_vals);
        let mut joined = Vec::new();
        for side in [BuildSide::Inner, BuildSide::Outer] {
            let inter = intermediate();
            assert_eq!(inter.keys(1, &outer), outer_keys);
            let pairs = hash_join_pairs(&inter.keys(1, &outer), inner_rows, inner_vals, side);
            assert_eq!(pairs, want, "{side:?} build");
            let out = inter.join(TableId(2), pairs);
            joined.push((out.tables, out.columns, out.len));
        }
        assert_eq!(joined[0], joined[1], "build sides disagree");
        let (tables, columns, len) = &joined[0];
        assert_eq!(tables, &[TableId(0), TableId(1), TableId(2)]);
        assert_eq!(*len, want.outer.len());
        for (i, (&k, &r)) in want.outer.iter().zip(&want.inner).enumerate() {
            assert_eq!(columns[0][i], 7 * k + 1);
            assert_eq!(columns[1][i], n as u32 - 1 - k);
            assert_eq!(columns[2][i], r);
        }
    }

    /// A deterministic stream of pseudo-random `u64`s (SplitMix64).
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn build_sides_agree_on_duplicate_keys() {
        let mut rng = splitmix(11);
        // Few distinct keys on both sides: every tuple meets many inner
        // rows, and the inner access order is shuffled, not ascending.
        let inner_vals: Vec<i64> = (0..600).map(|_| (rng() % 6) as i64).collect();
        let mut inner_rows: Vec<u32> = (0..600).filter(|r| r % 3 != 0).collect();
        for i in (1..inner_rows.len()).rev() {
            inner_rows.swap(i, (rng() % (i as u64 + 1)) as usize);
        }
        let outer_keys: Vec<i64> = (0..40).map(|_| (rng() % 8) as i64).collect();
        assert_build_sides_agree(&outer_keys, &inner_rows, &inner_vals);
        // The reverse shape: more outer tuples than inner rows.
        assert_build_sides_agree(&inner_vals[..300], &inner_rows[..25], &inner_vals);
    }

    #[test]
    fn build_sides_agree_on_empty_inputs() {
        let inner_vals = [4, 4, 9];
        assert_build_sides_agree(&[], &[2, 0, 1], &inner_vals);
        assert_build_sides_agree(&[4, 9, 4], &[], &inner_vals);
        assert_build_sides_agree(&[], &[], &inner_vals);
        // No key in common.
        assert_build_sides_agree(&[1, 2, 3], &[0, 1, 2], &inner_vals);
    }

    #[test]
    fn build_sides_agree_on_extreme_and_negative_keys() {
        let inner_vals = [
            i64::MIN,
            i64::MAX,
            -1,
            0,
            i64::MIN,
            -7,
            i64::MAX,
            1,
            i64::MIN + 1,
        ];
        let inner_rows = [8, 6, 4, 2, 0, 1, 3, 5, 7];
        let outer_keys = [i64::MAX, -1, i64::MIN, 7, i64::MIN, -7, 0, i64::MAX - 1];
        assert_build_sides_agree(&outer_keys, &inner_rows, &inner_vals);
        assert_build_sides_agree(&outer_keys, &inner_rows[..3], &inner_vals);
    }

    #[test]
    fn build_sides_agree_on_colliding_keys() {
        // Keys sharing their hash's top 16 bits share a home slot in every
        // table of up to 2^16 slots, so each probe walks one long cluster.
        let home = JoinTable::home(0, 48);
        let colliding: Vec<i64> = (1..4_000_000i64)
            .flat_map(|k| [k, -k])
            .filter(|&k| JoinTable::home(k, 48) == home)
            .take(12)
            .collect();
        assert_eq!(colliding.len(), 12);
        let table = JoinTable::build(colliding[..6].iter().copied());
        let homes: Vec<usize> = colliding
            .iter()
            .map(|&k| JoinTable::home(k, table.shift))
            .collect();
        assert!(homes.iter().all(|&h| h == homes[0]), "keys must collide");
        assert!(colliding[..6].iter().all(|&k| table.may_hold(k)));
        // Build on six of them (twice each); probe with all twelve, so
        // absent keys walk the cluster too.
        let inner_vals: Vec<i64> = colliding[..6]
            .iter()
            .chain(&colliding[..6])
            .copied()
            .collect();
        let inner_rows: Vec<u32> = (0..12).rev().collect();
        assert_build_sides_agree(&colliding, &inner_rows, &inner_vals);
        assert_build_sides_agree(&colliding[3..9], &inner_rows, &inner_vals);
    }

    #[test]
    fn join_table_grows_and_keeps_every_key() {
        let keys: Vec<i64> = (0..5000).map(|i| (i % 1700) * 1_000_003 - 800).collect();
        let table = JoinTable::build(keys.iter().copied());
        assert!(table.slots.len() >= JoinTable::SLOTS_PER_KEY * 1700);
        for (at, &k) in keys.iter().enumerate().take(1700) {
            let want: Vec<u32> = (at as u32..5000).step_by(1700).collect();
            assert_eq!(table.get(k), want.as_slice());
        }
        assert!(table.get(-801).is_empty());
        assert!(keys.iter().all(|&k| table.may_hold(k)));
    }

    #[test]
    fn build_sides_agree_across_probe_windows() {
        let mut rng = splitmix(23);
        // Keys below 500 occur on both sides. Outer misses are 1000 and
        // up, inner misses 5000 and up, so neither side's misses hit.
        let mut mixed = |miss: i64| {
            let k = (rng() % 500) as i64;
            if rng().is_multiple_of(2) {
                k
            } else {
                miss + k
            }
        };
        // Each side spans three full windows and a partial one: all-miss,
        // all-hit, mixed, then a mixed tail.
        let windows = |miss: i64, tail: usize, mixed: &mut dyn FnMut(i64) -> i64| {
            let n = 3 * BATCH_ROWS + tail;
            (0..n)
                .map(|i| match i / BATCH_ROWS {
                    0 => miss + (i % 500) as i64,
                    1 => (i % 500) as i64,
                    _ => mixed(miss),
                })
                .collect::<Vec<i64>>()
        };
        let outer_keys = windows(1000, 100, &mut mixed);
        let inner_vals = windows(5000, 77, &mut mixed);
        let inner_rows: Vec<u32> = (0..inner_vals.len() as u32).collect();
        let table = JoinTable::build(inner_vals.iter().copied());
        assert!(inner_vals.iter().all(|&k| table.may_hold(k)));
        let mut hits = Vec::new();
        table.candidates(
            outer_keys[BATCH_ROWS..2 * BATCH_ROWS].iter().copied(),
            &mut hits,
        );
        assert_eq!(hits.len(), BATCH_ROWS, "an all-hit window keeps every row");
        // Both sides are joined: each side's probe crosses every window.
        assert_build_sides_agree(&outer_keys, &inner_rows, &inner_vals);
    }
}
