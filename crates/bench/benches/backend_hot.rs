//! Criterion benchmarks for the measured backend's hot paths: index seeks,
//! vectorized batch heap scans and hash joins. These are the operators the
//! `Measured` backend times on the wall-clock, so their own overheads bound
//! how small a workload the calibration fit can resolve.

use criterion::{criterion_group, criterion_main, Criterion};

use dba_common::{ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_engine::{
    AccessMethod, CostModel, JoinAlgo, JoinPred, JoinStep, Plan, Predicate, Query, TableAccess,
};
use dba_optimizer::{Planner, PlannerContext, StatsCatalog};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};

const ROWS: usize = 200_000;

fn bench_catalog() -> Catalog {
    let t = TableSchema::new(
        "fact",
        vec![
            ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "v",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99_999 },
            ),
            ColumnSpec::new(
                "w",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            ),
        ],
    );
    Catalog::new(vec![TableBuilder::new(t, ROWS).build(TableId(0), 5)])
}

fn range_query(lo: i64, hi: i64) -> Query {
    Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![TableId(0)],
        predicates: vec![Predicate::range(ColumnId::new(TableId(0), 1), lo, hi)],
        joins: vec![],
        payload: vec![ColumnId::new(TableId(0), 0)],
        aggregated: false,
    }
}

/// Vectorized batch heap scan through the measured backend, ~1% selective
/// over 200k rows. `cold` round-robins over independently generated (but
/// identical) table allocations so each iteration touches memory the CPU
/// caches have not just seen; `warm` rescans one allocation. `half` is
/// ~50% selective, where a branch on each row's outcome would mispredict
/// about every other row.
fn bench_batch_scan(c: &mut Criterion) {
    let catalogs: Vec<Catalog> = (0..8).map(|_| bench_catalog()).collect();
    let stats = StatsCatalog::build(&catalogs[0]);
    let cost = CostModel::unit_scale();
    let q = range_query(40_000, 41_000);
    let scan_plan = {
        let ctx = PlannerContext::from_catalog(&catalogs[0], &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    assert!(scan_plan.indexes_used().is_empty(), "must be a heap scan");
    let mut backend = dba_backend::measured(cost);

    let mut i = 0usize;
    c.bench_function("batch_scan_cold_200k", |b| {
        b.iter(|| {
            i = (i + 1) % catalogs.len();
            backend.execute(&catalogs[i], &q, &scan_plan)
        })
    });
    c.bench_function("batch_scan_warm_200k", |b| {
        b.iter(|| backend.execute(&catalogs[0], &q, &scan_plan))
    });
    // The table has no index, so the same heap-scan plan serves.
    let half = range_query(0, 49_999);
    c.bench_function("batch_scan_half_warm_200k", |b| {
        b.iter(|| backend.execute(&catalogs[0], &half, &scan_plan))
    });
}

/// Measured index seek end to end, ~0.1% selective over 200k rows.
/// `cold` round-robins over independently built (but identical) catalogs,
/// each with its own index, so each iteration probes memory the CPU caches
/// have not just seen; `warm` reseeks one catalog.
fn bench_measured_seek(c: &mut Criterion) {
    let catalogs: Vec<Catalog> = (0..8)
        .map(|_| {
            let mut catalog = bench_catalog();
            catalog
                .create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
                .unwrap();
            catalog
        })
        .collect();
    let stats = StatsCatalog::build(&catalogs[0]);
    let cost = CostModel::unit_scale();
    let q = range_query(40_000, 40_100);
    let seek_plan = {
        let ctx = PlannerContext::from_catalog(&catalogs[0], &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    assert!(!seek_plan.indexes_used().is_empty(), "must use the index");
    let mut backend = dba_backend::measured(cost);

    let mut i = 0usize;
    c.bench_function("measured_seek_cold_200k", |b| {
        b.iter(|| {
            i = (i + 1) % catalogs.len();
            backend.execute(&catalogs[i], &q, &seek_plan)
        })
    });
    c.bench_function("measured_seek_warm_200k", |b| {
        b.iter(|| backend.execute(&catalogs[0], &q, &seek_plan))
    });
}

const DIM_ROWS: usize = 2_000;

/// A star pair: `dim` (2k rows) and `fact` (200k rows) whose `f_dim` is a
/// uniform foreign key into `dim`.
fn join_catalog() -> Catalog {
    let dim = TableSchema::new(
        "dim",
        vec![
            ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "d_attr",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
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
                Distribution::FkUniform {
                    parent_rows: DIM_ROWS as u64,
                },
            ),
            ColumnSpec::new(
                "f_val",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 999 },
            ),
        ],
    );
    Catalog::new(vec![
        TableBuilder::new(dim, DIM_ROWS).build(TableId(0), 5),
        TableBuilder::new(fact, ROWS).build(TableId(1), 5),
    ])
}

/// A hash-join plan over heap scans: `outer` drives, `inner` is joined in.
fn hash_join_plan(outer: TableId, inner: TableId, join: JoinPred) -> Plan {
    let scan = |table| TableAccess {
        table,
        method: AccessMethod::FullScan,
        est_rows: 0.0,
    };
    Plan {
        driver: scan(outer),
        joins: vec![JoinStep {
            access: scan(inner),
            algo: JoinAlgo::Hash,
            join,
            est_rows_out: 0.0,
        }],
        aggregated: true,
        est_cost: SimSeconds::ZERO,
    }
}

/// Measured hash join of a dim scan with a full 200k-row fact scan. With
/// a 1%-selective dim predicate (~20 rows), in both join orders:
/// `dim_outer` has the small input outside and the fact scan as the inner
/// access, `fact_outer` the reverse. `star_1in7` is shaped like an SSB
/// star join: a 14%-selective dim predicate, so about one fact row in
/// seven finds its key in the table built on the dim tuples.
fn bench_hash_join(c: &mut Criterion) {
    let catalog = join_catalog();
    let (dim, fact) = (TableId(0), TableId(1));
    let join = JoinPred::new(ColumnId::new(dim, 0), ColumnId::new(fact, 1));
    let query = |dim_pred| Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![dim, fact],
        predicates: vec![dim_pred],
        joins: vec![join],
        payload: vec![ColumnId::new(fact, 2)],
        aggregated: true,
    };
    let point = query(Predicate::eq(ColumnId::new(dim, 1), 7));
    let star = query(Predicate::range(ColumnId::new(dim, 1), 0, 13));
    let mut backend = dba_backend::measured(CostModel::unit_scale());
    let dim_outer = hash_join_plan(dim, fact, join);
    let fact_outer = hash_join_plan(fact, dim, join);
    for (name, q, plan) in [
        ("hash_join_dim_outer_200k", &point, &dim_outer),
        ("hash_join_fact_outer_200k", &point, &fact_outer),
        ("hash_join_star_1in7_200k", &star, &dim_outer),
    ] {
        let rows = backend.execute(&catalog, q, plan).result_rows;
        assert!(rows > 0, "{name} must join some rows");
        c.bench_function(name, |b| b.iter(|| backend.execute(&catalog, q, plan)));
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batch_scan, bench_measured_seek, bench_hash_join
);
criterion_main!(benches);
