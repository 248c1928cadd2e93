//! Query-engine instrumentation model.
//!
//! Columnar scans stream sequentially over column arrays; hash
//! aggregation and hash joins probe scattered hash-table slots. The
//! model registers each columnar table's columns at synthetic addresses
//! so the `_traced` kernels in [`crate::kernel`] emit the *real* access
//! pattern of each operator — the
//! sequential/scattered mix that gives the paper's realtime-analytics
//! workloads their cache profile — plus a query-engine code stack
//! (parser/planner/operator layers, Impala-style).

use crate::column::ColumnarTable;
use bdb_archsim::layout::{regions, splitmix64};
use bdb_archsim::{AddressSpace, Probe, SoftwareStack};
use std::collections::HashMap;

/// Synthetic-address registry for tables plus the engine's code model.
#[derive(Debug, Clone)]
pub struct SqlTraceModel {
    stack: SoftwareStack,
    asp: AddressSpace,
    /// table name -> per-column (base, span, encoded width) for columnar
    /// tables — spans reflect the *encoded* widths (narrowed ints, dict
    /// codes), which is where the vectorized engine's bandwidth win
    /// comes from.
    columnar: HashMap<String, Vec<(u64, u64, u32)>>,
    hash_area_base: u64,
    hash_area_span: u64,
    /// Bumped per query: tables are far larger than any cache in the
    /// systems the paper measures, so every scan is cold.
    scan_epoch: u64,
    event: u64,
}

impl SqlTraceModel {
    /// Builds the engine model: ~0.8 MiB of code across parse/plan/exec
    /// layers and a hash-table arena sized to exceed L2 but fit L3.
    pub fn new() -> Self {
        let mut asp = AddressSpace::with_bases(regions::SQL_HEAP, regions::SQL_CODE);
        let stack = SoftwareStack::builder("sql-engine")
            .layer(&mut asp, "session", 4, 512, 48, 4096, 1, 8)
            .layer(&mut asp, "planner", 2, 512, 48, 4096, 1, 8)
            .layer(&mut asp, "exec-operators", 8, 512, 96, 4096, 2, 12)
            .build();
        let hash_area_span = 6 << 20;
        let hash_area_base = asp.alloc(hash_area_span, "hash-tables");
        Self {
            stack,
            asp,
            columnar: HashMap::new(),
            hash_area_base,
            hash_area_span,
            scan_epoch: 0,
            event: 0,
        }
    }

    /// Static code footprint of the modeled engine in bytes.
    pub fn code_footprint(&self) -> u64 {
        self.stack.footprint_bytes()
    }

    /// One query entering the engine (parse + plan). Starts a fresh scan
    /// epoch: the next pass over any table reads cold addresses.
    pub fn on_query<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        self.event = self.event.wrapping_add(1);
        self.scan_epoch = self.scan_epoch.wrapping_add(1);
        self.stack.invoke(probe, self.event);
        probe.int_ops(40);
    }

    /// Registers a columnar table's columns at synthetic addresses sized
    /// by the *encoded* widths (narrowed ints, dictionary codes).
    pub fn register_columnar(&mut self, table: &ColumnarTable) {
        let bases = (0..table.schema().arity())
            .map(|c| {
                let width = table.column(c).encoded_width() as u32;
                let bytes = (table.len().max(1) as u64) * u64::from(width);
                // Four epochs' worth so successive scans are cold.
                let base = self.asp.alloc(
                    bytes * 4,
                    &format!("{}.{}#col", table.name(), table.schema().column_name(c)),
                );
                (base, bytes, width)
            })
            .collect();
        self.columnar.insert(table.name().to_owned(), bases);
    }

    /// A vectorized sequential scan of `rows` of one column: streams
    /// whole cachelines instead of per-row loads, with ~1 bookkeeping
    /// instruction per 8 rows (the SIMD-ish batched loop).
    pub fn column_scan<P: Probe + ?Sized>(
        &mut self,
        probe: &mut P,
        table: &ColumnarTable,
        col: usize,
        rows: std::ops::Range<usize>,
    ) {
        let Some(bases) = self.columnar.get(table.name()) else {
            probe.int_ops(1);
            return;
        };
        let (base, span, width) = bases[col];
        let epoch_off = (self.scan_epoch % 4) * span;
        let start = base + epoch_off + rows.start as u64 * u64::from(width);
        let end = base + epoch_off + rows.end as u64 * u64::from(width);
        let mut line = start & !63;
        while line < end {
            probe.load(line, 64);
            line += 64;
        }
        probe.int_ops((rows.len() as u64 / 8).max(1));
    }

    /// Late materialization of one cell: a single encoded-width load.
    pub fn gather<P: Probe + ?Sized>(
        &mut self,
        probe: &mut P,
        table: &ColumnarTable,
        col: usize,
        row: usize,
    ) {
        if let Some(bases) = self.columnar.get(table.name()) {
            let (base, span, width) = bases[col];
            let epoch_off = (self.scan_epoch % 4) * span;
            probe.load(base + epoch_off + row as u64 * u64::from(width), width);
        }
        probe.int_ops(1);
    }

    /// A hash-table probe or insert keyed by `hash` over a table of
    /// `buckets` buckets: the vectorized engine stores 16-byte (hash,
    /// payload-index) slots.
    pub fn hash_access<P: Probe + ?Sized>(
        &mut self,
        probe: &mut P,
        hash: u64,
        buckets: usize,
        write: bool,
    ) {
        let slot = splitmix64(hash) % (buckets.max(1) as u64);
        let addr = self.hash_area_base + (slot * 16) % self.hash_area_span;
        if write {
            probe.store(addr & !7, 16);
        } else {
            probe.load(addr & !7, 16);
        }
        probe.int_ops(4);
        probe.branch(hash.is_multiple_of(3));
    }

    /// Per-morsel operator overhead: the vectorized engine crosses the
    /// operator stack once per ~1024-row morsel, not once per row.
    pub fn on_morsel<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        self.event = self.event.wrapping_add(1);
        self.stack.invoke(probe, self.event);
    }

    /// Pre-touches the engine code (warm-up).
    pub fn warm<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        self.stack.warm(probe);
    }
}

impl Default for SqlTraceModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::table::Table;
    use crate::value::Value;
    use bdb_archsim::CountingProbe;

    fn table(rows: usize) -> Table {
        let mut t =
            Table::new("t", Schema::new(&[("id", ColumnType::Int), ("p", ColumnType::Float)]));
        for i in 0..rows {
            t.push_row(vec![Value::Int(i as i64), Value::Float(i as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn query_invokes_stack() {
        let mut m = SqlTraceModel::new();
        let mut p = CountingProbe::default();
        m.on_query(&mut p);
        assert!(p.mix().other > 0);
    }

    #[test]
    fn column_scan_streams_whole_cachelines() {
        let mut m = SqlTraceModel::new();
        let t = table(1000);
        let c = crate::column::ColumnarTable::from_table(&t);
        m.register_columnar(&c);
        let mut p = CountingProbe::default();
        // "id" narrows to 4 bytes: 1000 rows = 4000 bytes = 63 lines.
        m.column_scan(&mut p, &c, 0, 0..1000);
        assert!(p.mix().loads >= 62 && p.mix().loads <= 64, "loads = {}", p.mix().loads);
        // Far fewer than one load per row — that's the bandwidth win.
        assert!(p.mix().loads < 1000 / 8);
    }

    #[test]
    fn gather_is_one_encoded_load() {
        let mut m = SqlTraceModel::new();
        let t = table(100);
        let c = crate::column::ColumnarTable::from_table(&t);
        m.register_columnar(&c);
        let mut p = CountingProbe::default();
        m.gather(&mut p, &c, 1, 7);
        assert_eq!(p.mix().loads, 1);
    }

    #[test]
    fn unregistered_columnar_scan_is_computation_only() {
        let mut m = SqlTraceModel::new();
        let t = table(10);
        let c = crate::column::ColumnarTable::from_table(&t);
        let mut p = CountingProbe::default();
        m.column_scan(&mut p, &c, 0, 0..10);
        assert_eq!(p.mix().loads, 0);
        assert!(p.mix().int_ops > 0);
    }

    #[test]
    fn hash_access_read_write() {
        let mut m = SqlTraceModel::new();
        let mut p = CountingProbe::default();
        m.hash_access(&mut p, 42, 1024, false);
        m.hash_access(&mut p, 42, 1024, true);
        assert_eq!(p.mix().loads, 1);
        assert_eq!(p.mix().stores, 1);
    }

    #[test]
    fn compact_hash_slots_are_smaller_than_row_slots() {
        let mut m = SqlTraceModel::new();
        let mut p = CountingProbe::default();
        m.hash_access(&mut p, 42, 1024, false);
        m.hash_access(&mut p, 42, 1024, true);
        // 16-byte (hash, payload-index) slots, not 48-byte boxed row entries.
        assert_eq!(p.requested_bytes(), 32, "two 16-byte slots");
        assert!(p.requested_bytes() < 2 * 48);
    }
}
