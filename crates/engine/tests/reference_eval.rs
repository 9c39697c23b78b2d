//! The operator pipeline against a naive reference evaluator.
//!
//! Every backend runs the same operators, so comparing backends with each
//! other cannot catch a bug they share. This test instead compares the
//! pipeline with a deliberately naive evaluator that uses no indexes and no
//! hashing: nested loops over the base tables, checking every predicate
//! and every join condition row by row.
//!
//! The sweep is seeded: generated star-join queries × random index
//! configurations × every plan shape the pipeline supports (each driver
//! table, each join order, every access method, both join algorithms).
//! For each plan, `result_rows` and every access's `rows_out` must equal
//! the reference, under both Priced and scripted-clock Clocked attribution.
//! The sweep must reach hash joins that build on either side: inner
//! accesses with more rows than the outer tuples, and with no more.

use dba_common::{ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_engine::{
    AccessMethod, ClockSource, CostModel, ExecutionBackend, Executor, JoinAlgo, JoinPred, JoinStep,
    Plan, Predicate, Query, QueryExecution, TableAccess,
};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};

const DIM_A: TableId = TableId(0);
const DIM_B: TableId = TableId(1);
const FACT: TableId = TableId(2);
const A_ROWS: u64 = 120;
const B_ROWS: u64 = 40;
/// Plans checked per (query, join order); larger cross products are sampled.
const PLANS_PER_ORDER: usize = 12;

/// SplitMix64: a tiny deterministic generator for the sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// A star schema: fact rows reference both dimensions (one key skewed).
fn catalog() -> Catalog {
    let int = |name: &str, d| ColumnSpec::new(name, ColumnType::Int, d);
    let a = TableSchema::new(
        "dim_a",
        vec![
            int("a_key", Distribution::Sequential),
            int("a_attr", Distribution::Uniform { lo: 0, hi: 9 }),
            int("a_grp", Distribution::Uniform { lo: 0, hi: 3 }),
        ],
    );
    let b = TableSchema::new(
        "dim_b",
        vec![
            int("b_key", Distribution::Sequential),
            int("b_attr", Distribution::Uniform { lo: 0, hi: 4 }),
        ],
    );
    let f = TableSchema::new(
        "fact",
        vec![
            int("f_key", Distribution::Sequential),
            int(
                "f_a",
                Distribution::FkUniform {
                    parent_rows: A_ROWS,
                },
            ),
            int(
                "f_b",
                Distribution::FkZipf {
                    parent_rows: B_ROWS,
                    s: 1.2,
                },
            ),
            int("f_val", Distribution::Uniform { lo: 0, hi: 99 }),
            int("f_qty", Distribution::Uniform { lo: 0, hi: 9 }),
        ],
    );
    Catalog::new(vec![
        TableBuilder::new(a, A_ROWS as usize).build(DIM_A, 3),
        TableBuilder::new(b, B_ROWS as usize).build(DIM_B, 3),
        TableBuilder::new(f, 1000).build(FACT, 3),
    ])
}

fn col(table: TableId, ordinal: u16) -> ColumnId {
    ColumnId::new(table, ordinal)
}

fn join_a() -> JoinPred {
    JoinPred::new(col(DIM_A, 0), col(FACT, 1))
}

fn join_b() -> JoinPred {
    JoinPred::new(col(DIM_B, 0), col(FACT, 2))
}

fn columns_of(table: TableId, cat: &Catalog) -> u16 {
    cat.table(table).columns().len() as u16
}

/// A random column of `table`.
fn any_column(rng: &mut Rng, cat: &Catalog, table: TableId) -> ColumnId {
    col(table, rng.below(u64::from(columns_of(table, cat))) as u16)
}

/// A random star query: one of the connected table subsets, 0–3 local
/// predicates (equalities and ranges), a payload, maybe an aggregate.
fn gen_query(rng: &mut Rng, cat: &Catalog, id: u64) -> Query {
    let tables = match rng.below(5) {
        0 => vec![FACT],
        1 => vec![DIM_A],
        2 => vec![DIM_A, FACT],
        3 => vec![DIM_B, FACT],
        _ => vec![DIM_A, DIM_B, FACT],
    };
    let joins: Vec<JoinPred> = [join_a(), join_b()]
        .into_iter()
        .filter(|j| tables.contains(&j.left.table) && tables.contains(&j.right.table))
        .collect();
    let mut predicates = Vec::new();
    for _ in 0..rng.below(4) {
        let t = rng.pick(&tables);
        let c = any_column(rng, cat, t);
        let (lo, hi) = cat.table(t).column(c.ordinal).min_max().expect("rows");
        let width = (hi - lo + 1) as u64;
        let a = lo + rng.below(width) as i64;
        predicates.push(if rng.chance(50) {
            Predicate::eq(c, a)
        } else {
            Predicate::range(c, a, (a + rng.below(width / 2 + 1) as i64).min(hi))
        });
    }
    let payload = (0..1 + rng.below(2))
        .map(|_| {
            let t = rng.pick(&tables);
            any_column(rng, cat, t)
        })
        .collect();
    Query {
        id: QueryId(id),
        template: TemplateId(0),
        tables,
        predicates,
        joins,
        payload,
        aggregated: rng.chance(50),
    }
}

/// A fresh catalog fork with 1–3 random indexes per table, plus (half the
/// time) one on each fact foreign key so index-nested-loop plans exist.
fn gen_config(rng: &mut Rng, base: &Catalog) -> Catalog {
    let mut cat = base.fork_empty();
    for t in [DIM_A, DIM_B, FACT] {
        let n = columns_of(t, base);
        let mut defs = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut key_cols = vec![rng.below(u64::from(n)) as u16];
            if rng.chance(40) {
                key_cols.push(rng.below(u64::from(n)) as u16);
                key_cols.dedup();
            }
            let include_cols = (0..rng.below(3))
                .map(|_| rng.below(u64::from(n)) as u16)
                .filter(|c| !key_cols.contains(c))
                .collect();
            defs.push(IndexDef::new(t, key_cols, include_cols));
        }
        if t == FACT && rng.chance(50) {
            defs.push(IndexDef::new(FACT, vec![1], vec![]));
            defs.push(IndexDef::new(FACT, vec![2], vec![3]));
        }
        for def in defs {
            if cat.find_index(&def).is_none() {
                cat.create_index(def).expect("index builds");
            }
        }
    }
    cat
}

/// Join orders a left-deep plan may take: each later table must join one
/// already placed.
fn join_orders(q: &Query) -> Vec<Vec<TableId>> {
    let connected = |placed: &[TableId], t: TableId| {
        q.joins.iter().any(|j| {
            j.other_side(t)
                .is_some_and(|other| placed.contains(&other.table))
        })
    };
    let mut orders: Vec<Vec<TableId>> = q.tables.iter().map(|&t| vec![t]).collect();
    for _ in 1..q.tables.len() {
        orders = orders
            .into_iter()
            .flat_map(|placed| {
                let next: Vec<TableId> = q
                    .tables
                    .iter()
                    .copied()
                    .filter(|&t| !placed.contains(&t) && connected(&placed, t))
                    .collect();
                next.into_iter().map(move |t| {
                    let mut order = placed.clone();
                    order.push(t);
                    order
                })
            })
            .collect();
    }
    orders
}

/// Every access method `table` supports in `cat`: a heap scan, a seek on
/// each index, and a covering scan on each index that covers the query.
fn access_methods(cat: &Catalog, q: &Query, table: TableId) -> Vec<AccessMethod> {
    let needed = q.columns_needed_on(table);
    let mut out = vec![AccessMethod::FullScan];
    for ix in cat.indexes_on(table) {
        let covering = ix.def().covers(&needed);
        out.push(AccessMethod::IndexSeek {
            index: ix.id(),
            covering,
        });
        if covering {
            out.push(AccessMethod::CoveringScan { index: ix.id() });
        }
    }
    out
}

/// The inner methods an index-nested-loop step on `join` can use: seeks on
/// an index whose leading key column is the inner join column.
fn inl_methods(cat: &Catalog, q: &Query, table: TableId, join: &JoinPred) -> Vec<AccessMethod> {
    let inner = join.side_on(table).expect("join touches the table");
    let needed = q.columns_needed_on(table);
    cat.indexes_on(table)
        .filter(|ix| ix.def().key_cols[0] == inner.ordinal)
        .map(|ix| AccessMethod::IndexSeek {
            index: ix.id(),
            covering: ix.def().covers(&needed),
        })
        .collect()
}

/// Every plan for `q` in join `order`: the cross product of the driver's
/// access methods with each step's (algorithm, inner method) choices.
fn plans(cat: &Catalog, q: &Query, order: &[TableId]) -> Vec<Plan> {
    let access = |table, method| TableAccess {
        table,
        method,
        est_rows: 0.0,
    };
    let mut plans: Vec<Plan> = access_methods(cat, q, order[0])
        .into_iter()
        .map(|m| Plan {
            driver: access(order[0], m),
            joins: vec![],
            aggregated: q.aggregated,
            est_cost: SimSeconds::ZERO,
        })
        .collect();
    for (i, &t) in order.iter().enumerate().skip(1) {
        let join = *q
            .joins
            .iter()
            .find(|j| {
                j.other_side(t)
                    .is_some_and(|o| order[..i].contains(&o.table))
            })
            .expect("join order is connected");
        let steps: Vec<(JoinAlgo, AccessMethod)> = access_methods(cat, q, t)
            .into_iter()
            .map(|m| (JoinAlgo::Hash, m))
            .chain(
                inl_methods(cat, q, t, &join)
                    .into_iter()
                    .map(|m| (JoinAlgo::IndexNestedLoop, m)),
            )
            .collect();
        plans = plans
            .into_iter()
            .flat_map(|plan| {
                steps.iter().map(move |(algo, method)| {
                    let mut next = plan.clone();
                    next.joins.push(JoinStep {
                        access: access(t, method.clone()),
                        algo: *algo,
                        join,
                        est_rows_out: 0.0,
                    });
                    next
                })
            })
            .collect();
    }
    plans
}

/// Whether row `r` of `table` passes every local predicate of `q`.
fn local_ok(cat: &Catalog, q: &Query, table: TableId, r: usize) -> bool {
    q.predicates
        .iter()
        .filter(|p| p.column.table == table)
        .all(|p| p.matches(cat.table(table).column(p.column.ordinal).value(r)))
}

/// The reference: tuples over `order[..=d]` satisfying every local
/// predicate and every join condition among them, for each depth `d`, by
/// nested loops over whole tables.
fn prefix_counts(cat: &Catalog, q: &Query, order: &[TableId]) -> Vec<u64> {
    fn descend(
        cat: &Catalog,
        q: &Query,
        order: &[TableId],
        bound: &mut Vec<usize>,
        counts: &mut [u64],
    ) {
        let d = bound.len();
        let t = order[d];
        for r in 0..cat.table(t).rows() {
            if !local_ok(cat, q, t, r) {
                continue;
            }
            let joins_ok = q.joins.iter().all(|j| {
                let (Some(mine), Some(other)) = (j.side_on(t), j.other_side(t)) else {
                    return true;
                };
                let Some(pos) = order[..d].iter().position(|&o| o == other.table) else {
                    return true;
                };
                cat.table(t).column(mine.ordinal).value(r)
                    == cat
                        .table(other.table)
                        .column(other.ordinal)
                        .value(bound[pos])
            });
            if !joins_ok {
                continue;
            }
            counts[d] += 1;
            if d + 1 < order.len() {
                bound.push(r);
                descend(cat, q, order, bound, counts);
                bound.pop();
            }
        }
    }
    let mut counts = vec![0; order.len()];
    descend(cat, q, order, &mut Vec::new(), &mut counts);
    counts
}

/// Rows of `table` passing its local predicates, by a plain loop.
fn local_count(cat: &Catalog, q: &Query, table: TableId) -> u64 {
    (0..cat.table(table).rows())
        .filter(|&r| local_ok(cat, q, table, r))
        .count() as u64
}

/// The reference's expected (table, rows_out, is_full_scan) per access.
fn expected_accesses(
    cat: &Catalog,
    q: &Query,
    plan: &Plan,
    prefix: &[u64],
) -> Vec<(TableId, u64, bool)> {
    let driver = &plan.driver;
    let mut out = vec![(
        driver.table,
        local_count(cat, q, driver.table),
        matches!(driver.method, AccessMethod::FullScan),
    )];
    for (i, step) in plan.joins.iter().enumerate() {
        let t = step.access.table;
        out.push(match step.algo {
            // The inner access of a hash join filters its table alone.
            JoinAlgo::Hash => (
                t,
                local_count(cat, q, t),
                matches!(step.access.method, AccessMethod::FullScan),
            ),
            // An index-nested-loop inner emits the joined tuples.
            JoinAlgo::IndexNestedLoop => (t, prefix[i + 1], false),
        });
    }
    out
}

fn check(label: &str, got: &QueryExecution, rows: u64, want: &[(TableId, u64, bool)]) {
    assert_eq!(got.result_rows, rows, "{label}: result_rows");
    let accesses: Vec<(TableId, u64, bool)> = got
        .accesses
        .iter()
        .map(|a| (a.table, a.rows_out, a.is_full_scan))
        .collect();
    assert_eq!(accesses, want, "{label}: per-access rows_out");
}

/// A deterministic clock: each read advances one microsecond.
fn scripted() -> ClockSource {
    let ticks = std::cell::Cell::new(0u64);
    Box::new(move || {
        ticks.set(ticks.get() + 1);
        ticks.get() as f64 * 1e-6
    })
}

#[test]
fn pipeline_matches_naive_reference_under_both_attributions() {
    let base = catalog();
    let mut rng = Rng(0x5EED);
    let priced = Executor::new(CostModel::paper_scale());
    let mut clocked = Executor::measured(CostModel::paper_scale(), scripted());
    let (mut checked, mut inl, mut orders, mut empty) = (0usize, 0usize, 0usize, 0usize);
    // Hash steps whose inner access has more rows than the outer tuples
    // (built on the outer side), and those where it has no more (built on
    // the inner side).
    let (mut build_outer, mut build_inner) = (0usize, 0usize);
    for config in 0..8 {
        let cat = gen_config(&mut rng, &base);
        for n in 0..12 {
            let q = gen_query(&mut rng, &cat, n);
            for order in join_orders(&q) {
                let prefix = prefix_counts(&cat, &q, &order);
                let rows = *prefix.last().expect("non-empty order");
                orders += 1;
                empty += usize::from(rows == 0);
                let mut all = plans(&cat, &q, &order);
                // Keep a seeded sample of the larger cross products.
                while all.len() > PLANS_PER_ORDER {
                    all.swap_remove(rng.below(all.len() as u64) as usize);
                }
                for (p, plan) in all.iter().enumerate() {
                    let label = format!("config {config} query {n} order {order:?} plan {p}");
                    let want = expected_accesses(&cat, &q, plan, &prefix);
                    check(&label, &priced.execute(&cat, &q, plan), rows, &want);
                    let got = ExecutionBackend::execute(&mut clocked, &cat, &q, plan);
                    check(&format!("{label} (clocked)"), &got, rows, &want);
                    checked += 1;
                    for (i, step) in plan.joins.iter().enumerate() {
                        match step.algo {
                            JoinAlgo::IndexNestedLoop => inl += 1,
                            JoinAlgo::Hash if want[i + 1].1 > prefix[i] => build_outer += 1,
                            JoinAlgo::Hash => build_inner += 1,
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually reach the interesting shapes.
    assert!(checked > 500, "only {checked} plans checked");
    assert!(inl > 50, "only {inl} index-nested-loop steps");
    assert!(build_outer > 0, "no hash step builds on the outer side");
    assert!(build_inner > 0, "no hash step builds on the inner side");
    assert!(
        empty < orders / 2,
        "{empty} of {orders} orders return nothing"
    );
    let samples = clocked.take_op_samples();
    assert!(!samples.is_empty(), "the clocked run sampled its operators");
}
