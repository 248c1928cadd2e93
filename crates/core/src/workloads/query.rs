//! Realtime analytics: Select, Aggregate and Join queries over the
//! e-commerce transaction tables (paper Tables 3 and 4).
//!
//! The queries execute on the vectorized columnar engine
//! ([`bdb_sql::kernel`]): row tables from the generator are converted to
//! [`ColumnarTable`]s once, then scanned/aggregated/joined in
//! ~1024-row morsels. The row-at-a-time operators in [`bdb_sql::exec`]
//! remain available as the differential-testing oracle.

use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::{Workload, WorkloadId};
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
use bdb_datagen::EcommerceGenerator;
use bdb_sql::expr::{col, lit};
use bdb_sql::kernel;
use bdb_sql::{Aggregation, ColumnType, ColumnarTable, Schema, SqlTraceModel, Table, Value};
use std::time::Instant;

/// Library-scale baseline order count (the paper's 32 GB of table data).
pub const ORDERS_BASELINE: u64 = 8_000;

/// Materializes the ORDER / ORDER_ITEM pair as engine tables.
pub fn build_tables(scale: &RunScale, orders: u64) -> (Table, Table) {
    let (order_rows, item_rows) = EcommerceGenerator::new(scale.seed_for(20)).generate(orders);
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

fn table_bytes(order_t: &Table, item_t: &Table) -> u64 {
    (order_t.byte_size() + item_t.byte_size()) as u64
}

enum QueryKind {
    Select,
    Aggregate,
    Join,
}

fn run_query(
    kind: &QueryKind,
    orders: &ColumnarTable,
    items: &ColumnarTable,
    probe: Option<(&mut SimProbe, &mut SqlTraceModel)>,
) -> usize {
    let rows = match kind {
        QueryKind::Select => {
            let (pred, proj) = (col("GOODS_PRICE").gt(lit(50.0)), ["ITEM_ID", "GOODS_AMOUNT"]);
            match probe {
                None => kernel::select(items, &pred, &proj),
                Some((p, t)) => kernel::select_traced(items, &pred, &proj, p, t),
            }
        }
        QueryKind::Aggregate => {
            let (group, aggs) =
                ("GOODS_ID", [Aggregation::count(), Aggregation::sum("GOODS_AMOUNT")]);
            match probe {
                None => kernel::aggregate(items, group, &aggs),
                Some((p, t)) => kernel::aggregate_traced(items, group, &aggs, p, t),
            }
        }
        QueryKind::Join => {
            let on = "ORDER_ID";
            match probe {
                None => kernel::hash_join(orders, on, items, on),
                Some((p, t)) => kernel::hash_join_traced(orders, on, items, on, p, t),
            }
        }
    };
    rows.expect("valid query").len()
}

macro_rules! query_workload {
    ($name:ident, $id:expr, $kind:expr) => {
        /// Relational-query workload (see module docs).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl Workload for $name {
            fn id(&self) -> WorkloadId {
                $id
            }

            fn run_native(&self, scale: &RunScale) -> WorkloadReport {
                let n = scale.native_units(ORDERS_BASELINE);
                let (orders, items) = build_tables(scale, n);
                let bytes = table_bytes(&orders, &items);
                let orders = ColumnarTable::from_table(&orders);
                let items = ColumnarTable::from_table(&items);
                let start = Instant::now();
                let rows = run_query(&$kind, &orders, &items, None);
                let seconds = start.elapsed().as_secs_f64();
                WorkloadReport::new(
                    $id,
                    scale.multiplier,
                    UserMetric::Dps { input_bytes: bytes, seconds },
                    bytes,
                )
                .with_detail(format!("{rows} result rows"))
            }

            fn run_traced(
                &self,
                scale: &RunScale,
                machine: MachineConfig,
            ) -> CharacterizationReport {
                let n = scale.traced_units(ORDERS_BASELINE).max(50);
                let (orders, items) = build_tables(scale, n);
                let orders = ColumnarTable::from_table(&orders);
                let items = ColumnarTable::from_table(&items);
                let mut probe = SimProbe::new(machine);
                let mut trace = SqlTraceModel::new();
                trace.register_columnar(&orders);
                trace.register_columnar(&items);
                trace.warm(&mut probe);
                run_query(&$kind, &orders, &items, Some((&mut probe, &mut trace)));
                probe.reset_stats();
                run_query(&$kind, &orders, &items, Some((&mut probe, &mut trace)));
                probe.finish()
            }
        }
    };
}

query_workload!(SelectWorkload, WorkloadId::SelectQuery, QueryKind::Select);
query_workload!(AggregateWorkload, WorkloadId::AggregateQuery, QueryKind::Aggregate);
query_workload!(JoinWorkload, WorkloadId::JoinQuery, QueryKind::Join);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_filters_rows() {
        let r = SelectWorkload.run_native(&RunScale::quick());
        let rows: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(rows > 0);
        assert!(matches!(r.metric, UserMetric::Dps { .. }));
    }

    #[test]
    fn aggregate_groups_by_goods() {
        let r = AggregateWorkload.run_native(&RunScale::quick());
        let rows: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        assert!(rows > 10, "many goods groups: {rows}");
    }

    #[test]
    fn join_matches_every_item() {
        let scale = RunScale::quick();
        let r = JoinWorkload.run_native(&scale);
        let rows: usize = r.detail.split(' ').next().and_then(|s| s.parse().ok()).unwrap();
        // Every ORDER_ITEM row has a parent order, so the join returns
        // exactly the item count (≈ 6.3 per order).
        let n = scale.native_units(ORDERS_BASELINE) as usize;
        assert!(rows > n * 4 && rows < n * 9, "rows {rows} for {n} orders");
    }

    #[test]
    fn columnar_engine_matches_row_oracle() {
        let scale = RunScale::quick();
        let (orders, items) = build_tables(&scale, 200);
        let co = ColumnarTable::from_table(&orders);
        let ci = ColumnarTable::from_table(&items);
        let pred = col("GOODS_PRICE").gt(lit(50.0));
        assert_eq!(
            kernel::select(&ci, &pred, &["ITEM_ID", "GOODS_AMOUNT"]).unwrap(),
            bdb_sql::exec::select(&items, &pred, &["ITEM_ID", "GOODS_AMOUNT"]).unwrap()
        );
        let aggs = [Aggregation::count(), Aggregation::sum("GOODS_AMOUNT")];
        assert_eq!(
            kernel::aggregate(&ci, "GOODS_ID", &aggs).unwrap(),
            bdb_sql::exec::aggregate(&items, "GOODS_ID", &aggs).unwrap()
        );
        assert_eq!(
            kernel::hash_join(&co, "ORDER_ID", &ci, "ORDER_ID").unwrap(),
            bdb_sql::exec::hash_join(&orders, "ORDER_ID", &items, "ORDER_ID").unwrap()
        );
    }

    #[test]
    fn traced_kernels_match_the_row_oracle_at_traced_scale() {
        let scale = RunScale::quick();
        let (orders, items) = build_tables(&scale, scale.traced_units(ORDERS_BASELINE).max(50));
        let co = ColumnarTable::from_table(&orders);
        let ci = ColumnarTable::from_table(&items);
        let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
        let mut trace = SqlTraceModel::new();
        trace.register_columnar(&co);
        trace.register_columnar(&ci);
        let pred = col("GOODS_PRICE").gt(lit(50.0));
        let proj = ["ITEM_ID", "GOODS_AMOUNT"];
        assert_eq!(
            kernel::select_traced(&ci, &pred, &proj, &mut probe, &mut trace).unwrap(),
            bdb_sql::exec::select(&items, &pred, &proj).unwrap()
        );
        let aggs = [Aggregation::count(), Aggregation::sum("GOODS_AMOUNT")];
        assert_eq!(
            kernel::aggregate_traced(&ci, "GOODS_ID", &aggs, &mut probe, &mut trace).unwrap(),
            bdb_sql::exec::aggregate(&items, "GOODS_ID", &aggs).unwrap()
        );
        assert_eq!(
            kernel::hash_join_traced(&co, "ORDER_ID", &ci, "ORDER_ID", &mut probe, &mut trace)
                .unwrap(),
            bdb_sql::exec::hash_join(&orders, "ORDER_ID", &items, "ORDER_ID").unwrap()
        );
    }

    #[test]
    fn traced_queries_record_engine_activity() {
        let r = AggregateWorkload.run_traced(&RunScale::quick(), MachineConfig::xeon_e5645());
        assert!(r.counters.mix.other > 0, "engine stack recorded");
        assert!(r.counters.mix.loads > 0);
        assert!(r.instructions() > 1000);
    }
}
