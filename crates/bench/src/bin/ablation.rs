//! Ablation studies for the design choices DESIGN.md calls out, plus
//! the paper's own stated future-work experiment (swapping the software
//! stack under test).
//!
//! ```text
//! ablation [--all] [--combiner] [--bloom] [--sortbuf] [--stack]
//!          [--cache-size] [--iter-cache]
//! ```
//!
//! | flag | question answered |
//! |---|---|
//! | `--combiner` | how much shuffle volume/time does the map-side combiner save? |
//! | `--bloom` | what do SSTable bloom filters buy the read path? |
//! | `--sortbuf` | how does the sort-buffer budget move the spill knee? |
//! | `--stack` | the paper's §6.3.2 plan: same workload, MapReduce vs in-memory stack — where do the L1I misses go? |
//! | `--cache-size` | what-if architecture study: L1I and L3 sizes vs a Hadoop workload (the paper's "cache area efficiency" lesson) |
//! | `--iter-cache` | what does `cache()` buy an iterative job on the in-memory engine? |

use bdb_archsim::{CacheConfig, MachineConfig, Probe};
use bdb_bench::table::{fnum, TextTable};
use bdb_dataflow::Dataset;
use bdb_kvstore::{Store, StoreConfig};
use bdb_mapreduce::jobs::{Sort, WordCount};
use bdb_mapreduce::{Emitter, Engine, Job};
use bigdatabench::{characterize, Suite, WorkloadId};
use std::time::Instant;

/// A1's "combiner off" arm: [`WordCount`] with the trait's identity
/// `combine`, so every emitted pair reaches the shuffle.
struct NoCombiner;

impl Job for NoCombiner {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, u64>, p: &mut P) {
        WordCount.map(line, emit, p);
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        p: &mut P,
    ) {
        WordCount.reduce(key, values, out, p);
    }
}

fn corpus(bytes: usize) -> Vec<String> {
    bdb_datagen::text::TextGenerator::wikipedia(7)
        .corpus(bytes)
        .lines()
        .map(str::to_owned)
        .collect()
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

fn ablate_combiner() {
    section("A1 — map-side combiner (WordCount, 4 MiB text)");
    let lines = corpus(4 << 20);
    let mut t = TextTable::new(&["combiner", "shuffle bytes", "combined pairs", "seconds"]);
    fn row<J: Job<Input = String>>(t: &mut TextTable, combiner: &str, job: &J, lines: &[String]) {
        let engine = Engine::builder().build();
        let start = Instant::now();
        let (_, stats) = engine.run(job, lines);
        t.row(&[
            combiner.to_owned(),
            stats.shuffle_bytes.to_string(),
            stats.combined_pairs.to_string(),
            format!("{:.3}", start.elapsed().as_secs_f64()),
        ]);
    }
    row(&mut t, "false", &NoCombiner, &lines);
    row(&mut t, "true", &WordCount, &lines);
    println!("{}", t.render());
}

fn ablate_bloom() {
    section("A2 — SSTable bloom filters (20k rows, 20k random reads, 50% misses)");
    let mut t = TextTable::new(&["bloom", "bloom skips", "seconds", "ops/s"]);
    for use_bloom in [true, false] {
        let dir =
            std::env::temp_dir().join(format!("bdb-abl-bloom-{use_bloom}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open_with(
            &dir,
            StoreConfig { memtable_flush_bytes: 256 << 10, max_tables: 64, use_bloom },
        )
        .expect("open");
        for i in 0..20_000u32 {
            store.put(format!("row{i:08}").into_bytes(), vec![b'x'; 64]).expect("put");
        }
        store.flush().expect("flush");
        use rand::Rng;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let start = Instant::now();
        for _ in 0..20_000 {
            // Half the lookups miss entirely: bloom's best case.
            let key = format!("row{:08}", rng.gen_range(0..40_000u32));
            store.get(key.as_bytes()).expect("get");
        }
        let secs = start.elapsed().as_secs_f64();
        t.row(&[
            use_bloom.to_string(),
            store.stats().bloom_skips.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", 20_000.0 / secs),
        ]);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("{}", t.render());
}

fn ablate_sortbuf() {
    section("A3 — sort-buffer budget vs spills (Sort, 16 MiB input)");
    let lines = corpus(16 << 20);
    let mut t = TextTable::new(&["buffer MiB", "spills", "spill MiB", "seconds"]);
    for buf_mib in [1usize, 4, 16, 64] {
        let engine = Engine::builder().map_buffer_bytes(buf_mib << 20).build();
        let start = Instant::now();
        let (_, stats) = engine.run(&Sort, &lines);
        t.row(&[
            buf_mib.to_string(),
            stats.spills.to_string(),
            format!("{:.1}", stats.spill_bytes as f64 / (1 << 20) as f64),
            format!("{:.3}", start.elapsed().as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_stack() {
    section("A4 — software stack swap: WordCount on MapReduce vs in-memory dataflow");
    println!("(the paper's §6.3.2 planned experiment: do the L1I misses follow the stack?)\n");
    let swap = characterize::stack_swap(&corpus(1 << 20), &MachineConfig::xeon_e5645());
    let mut t = TextTable::new(&["stack", "L1I MPKI", "L2 MPKI", "L3 MPKI", "ITLB MPKI", "IPC"]);
    for (name, r) in
        [("MapReduce (Hadoop-like)", &swap.mapreduce), ("in-memory dataflow", &swap.dataflow)]
    {
        t.row(&[
            name.to_owned(),
            fnum(r.l1i_mpki()),
            fnum(r.l2_mpki()),
            fnum(r.l3_mpki()),
            fnum(r.itlb_mpki()),
            format!("{:.2}", r.ipc()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "({} distinct words; L1I MPKI ratio {:.1}x — the deep stack carries the misses)",
        swap.distinct_words,
        swap.mapreduce.l1i_mpki() / swap.dataflow.l1i_mpki().max(1e-9)
    );
}

fn ablate_cache_size() {
    section("A5 — what-if hierarchy: L1I and L3 size vs WordCount (Hadoop stack)");
    let suite = Suite::with_fraction(0.25);
    let mut t = TextTable::new(&["config", "L1I MPKI", "L2 MPKI", "L3 MPKI", "IPC"]);
    let base = MachineConfig::xeon_e5645();
    let variants: Vec<(String, MachineConfig)> = vec![
        ("E5645 (32K L1I, 12M L3)".into(), base.clone()),
        ("64K L1I".into(), {
            let mut m = base.clone();
            m.l1i = CacheConfig::new("L1I", 64 * 1024, 8, 64);
            m
        }),
        ("128K L1I".into(), {
            let mut m = base.clone();
            m.l1i = CacheConfig::new("L1I", 128 * 1024, 8, 64);
            m
        }),
        ("6M L3".into(), {
            let mut m = base.clone();
            m.l3 = Some(CacheConfig::new("L3", 6 * 1024 * 1024, 16, 64));
            m
        }),
        ("24M L3".into(), {
            let mut m = base.clone();
            m.l3 = Some(CacheConfig::new("L3", 24 * 1024 * 1024, 16, 64));
            m
        }),
    ];
    for (name, machine) in variants {
        let r = suite.run_traced(WorkloadId::WordCount, 1, machine);
        t.row(&[
            name,
            fnum(r.l1i_mpki()),
            fnum(r.l2_mpki()),
            fnum(r.l3_mpki()),
            format!("{:.2}", r.ipc()),
        ]);
    }
    println!("{}", t.render());
    println!("(the paper's lesson: L1I capacity, not LLC capacity, is the lever for big data)");
}

fn ablate_iter_cache() {
    section("A6 — iterative caching on the in-memory engine (5-iteration rank loop)");
    let edges: Vec<(u32, u32)> = {
        let g = bdb_datagen::GraphGenerator::new(bdb_datagen::RmatParams::google_web(), 3)
            .generate(4096);
        g.edges
    };
    let mut t = TextTable::new(&["edges dataset", "records processed", "cache hits", "seconds"]);
    for cached in [false, true] {
        let base = Dataset::from_vec(edges.clone()).map(|e| *e);
        let edge_ds = if cached { base.cache() } else { base };
        let mut ranks: Vec<(u32, f64)> = (0..4096).map(|v| (v, 1.0)).collect();
        let start = Instant::now();
        let mut ctx = bdb_dataflow::ExecContext::new();
        for _ in 0..5 {
            let rank_ds = Dataset::from_vec(ranks.clone());
            let contribs =
                edge_ds.join(&rank_ds).map(|(_, (dst, r))| (*dst, *r)).reduce_by_key(|a, b| a + b);
            ranks = contribs.eval(&mut ctx).as_ref().clone();
        }
        t.row(&[
            if cached { "cached" } else { "uncached" }.to_owned(),
            ctx.stats.records_processed.to_string(),
            ctx.stats.cache_hits.to_string(),
            format!("{:.3}", start.elapsed().as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| {
        args.iter().any(|a| a == f) || args.iter().any(|a| a == "--all") || args.is_empty()
    };
    if has("--combiner") {
        ablate_combiner();
    }
    if has("--bloom") {
        ablate_bloom();
    }
    if has("--sortbuf") {
        ablate_sortbuf();
    }
    if has("--stack") {
        ablate_stack();
    }
    if has("--cache-size") {
        ablate_cache_size();
    }
    if has("--iter-cache") {
        ablate_iter_cache();
    }
}
