//! The `query` workload: the paper's Select, Aggregate and Join queries
//! over the generated ORDER / ORDER_ITEM tables, through the columnar
//! kernels, checked once per run against the row-engine oracle.

use crate::report::Report;
use crate::stats::{tail_percentile, Samples};
use crate::{drive, finish, peak_rss_mb, setup, Ctx, Phase, Unit};
use bdb_datagen::EcommerceGenerator;
use bdb_sql::expr::{col, lit, Expr};
use bdb_sql::{exec, kernel, Aggregation, ColumnType, ColumnarTable, Schema, Table, Value};

/// Orders generated (≈6.3 items each).
const ORDERS: u64 = 64_000;
/// Untimed rounds before sampling.
const WARMUP_ROUNDS: usize = 2;
/// Timed rounds at least.
const MIN_ROUNDS: usize = 10;

/// Row tables and their columnar conversions.
struct Tables {
    orders: Table,
    items: Table,
    corders: ColumnarTable,
    citems: ColumnarTable,
}

fn row_tables(orders: u64, seed: u64) -> (Table, Table) {
    let (order_rows, item_rows) = EcommerceGenerator::new(seed).generate(orders);
    let mut order_t = Table::new(
        "orders",
        Schema::new(&[
            ("ORDER_ID", ColumnType::Int),
            ("BUYER_ID", ColumnType::Int),
            ("CREATE_DATE", ColumnType::Date),
        ]),
    );
    for r in &order_rows {
        order_t
            .push_row(vec![
                Value::Int(r.order_id as i64),
                Value::Int(r.buyer_id as i64),
                Value::Date(r.create_date),
            ])
            .expect("schema matches");
    }
    let mut item_t = Table::new(
        "order_items",
        Schema::new(&[
            ("ITEM_ID", ColumnType::Int),
            ("ORDER_ID", ColumnType::Int),
            ("GOODS_ID", ColumnType::Int),
            ("GOODS_NUMBER", ColumnType::Float),
            ("GOODS_PRICE", ColumnType::Float),
            ("GOODS_AMOUNT", ColumnType::Float),
        ]),
    );
    for r in &item_rows {
        item_t
            .push_row(vec![
                Value::Int(r.item_id as i64),
                Value::Int(r.order_id as i64),
                Value::Int(r.goods_id as i64),
                Value::Float(r.goods_number),
                Value::Float(r.goods_price),
                Value::Float(r.goods_amount),
            ])
            .expect("schema matches");
    }
    (order_t, item_t)
}

type Rows = Vec<Vec<Value>>;

/// Order-sensitive fingerprint of a result, so each round is checked
/// without keeping a second copy of it.
fn fingerprint(rows: &Rows) -> (usize, u64) {
    let h = rows.iter().flatten().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.hash64()).wrapping_mul(0x0000_0100_0000_01B3)
    });
    (rows.len(), h)
}

fn predicate() -> Expr {
    col("GOODS_PRICE").gt(lit(50.0))
}

const PROJECTION: [&str; 2] = ["ITEM_ID", "GOODS_AMOUNT"];

fn aggregations() -> [Aggregation; 2] {
    [Aggregation::count(), Aggregation::sum("GOODS_AMOUNT")]
}

/// The workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let seed = ctx.seed;
    let (mut gen_ms, mut build_ms) = (Samples::default(), Samples::default());
    let (tables, setup_s, reps) = setup(ctx, |t, _| {
        let ((orders, items), d) = t.time("datagen.ecommerce", |_| row_tables(ORDERS, seed));
        gen_ms.push(d.as_secs_f64() * 1e3);
        let ((corders, citems), d) = t.time("sql.columnar_build", |_| {
            (ColumnarTable::from_table(&orders), ColumnarTable::from_table(&items))
        });
        build_ms.push(d.as_secs_f64() * 1e3);
        Tables { orders, items, corders, citems }
    });
    report.set("setup_s", setup_s, reps);
    report.set("datagen.ecommerce_ms", gen_ms.median(), reps);
    report.set("sql.columnar_build_ms", build_ms.median(), reps);
    let bytes = (tables.orders.byte_size() + tables.items.byte_size()) as f64;
    report.context.push(format!(
        "{} orders, {} items, {bytes} bytes of row data; {} threads",
        tables.orders.len(),
        tables.items.len(),
        ctx.threads
    ));

    // The row-engine oracle, once per run, outside every timing.
    let pred = predicate();
    let aggs = aggregations();
    let oracle = [
        exec::select(&tables.items, &pred, &PROJECTION).map(|r| fingerprint(&r)),
        exec::aggregate(&tables.items, "GOODS_ID", &aggs).map(|r| fingerprint(&r)),
        exec::hash_join(&tables.orders, "ORDER_ID", &tables.items, "ORDER_ID")
            .map(|r| fingerprint(&r)),
    ];
    let oracle_ok = oracle.iter().all(Result::is_ok);
    let oracle: Vec<(usize, u64)> = oracle.into_iter().map(|r| r.unwrap_or((0, 0))).collect();

    let mut lat = [Samples::default(), Samples::default(), Samples::default()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (corders, citems) = (&tables.corders, &tables.citems);
    let mut timing = drive(ctx, WARMUP_ROUNDS, MIN_ROUNDS, |t, phase| {
        let (select, ds) = t.time("sql.select", |_| kernel::select(citems, &pred, &PROJECTION));
        let select = select.map(|r| fingerprint(&r));
        let (agg, da) = t.time("sql.aggregate", |_| kernel::aggregate(citems, "GOODS_ID", &aggs));
        let agg = agg.map(|r| fingerprint(&r));
        let (join, dj) =
            t.time("sql.join", |_| kernel::hash_join(corders, "ORDER_ID", citems, "ORDER_ID"));
        let peak_mb = peak_rss_mb();
        let join = join.map(|r| fingerprint(&r));
        let got = [select, agg, join];
        if phase != Phase::Warmup {
            for (g, want) in got.iter().zip(&oracle) {
                attempted += 1;
                failed += u64::from(!oracle_ok || g.as_ref().ok() != Some(want));
            }
        }
        if phase == Phase::Untraced {
            for (s, d) in lat.iter_mut().zip([ds, da, dj]) {
                s.push(d.as_secs_f64() * 1e3);
            }
        }
        Unit { secs: (ds + da + dj).as_secs_f64(), peak_mb, bytes, ops: 3.0 }
    });
    report.attempted = attempted;
    report.failed = failed;

    let rounds = &mut timing.untraced;
    let n = rounds.len();
    report.set("latency_ms_p50", rounds.median() * 1e3, n);
    for (name, s) in ["select", "aggregate", "join"].iter().zip(lat.iter_mut()) {
        let n = s.len();
        report.detail(format!("{name}_ms_p50"), s.median(), "ms", n);
        if let Some(p) = tail_percentile(n).filter(|&p| p > 50.0) {
            report.detail(format!("{name}_ms_p{p}"), s.percentile(p), "ms", n);
        }
    }
    let items = tables.items.len() as f64;
    report.set("sql.select_rows", oracle[0].0 as f64, 1);
    report.set("sql.selectivity", oracle[0].0 as f64 / items, 1);
    report.set("sql.agg_groups", oracle[1].0 as f64, 1);
    report.set("sql.join_rows", oracle[2].0 as f64, 1);
    if ctx.traced {
        for (metric, span) in [
            ("sql.select_ms", "sql.select"),
            ("sql.aggregate_ms", "sql.aggregate"),
            ("sql.join_ms", "sql.join"),
        ] {
            let s = ctx.tracer.totals(span);
            report.set(metric, s.mean_ms(), s.count as usize);
        }
    }
    finish(ctx, &mut timing, &mut report);
    report
}
