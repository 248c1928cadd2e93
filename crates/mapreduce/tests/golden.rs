//! Golden outputs and counters of the paper's text jobs: WordCount and
//! Sort over 1 MiB of seeded Wikipedia-style text, at 2 threads and 2
//! reducers, once with the default map buffer (nothing spills) and once
//! with a 64 KiB buffer that spills. The map-side sort buffer decides
//! every counter pinned here, so a change to how it groups, sorts,
//! combines or spills pairs must leave these values exactly as they are.

use bdb_archsim::layout::fnv1a;
use bdb_mapreduce::jobs::{Sort, WordCount};
use bdb_mapreduce::{Datum, Engine, Job, JobStats};

/// What one run pins: output length, FNV-1a of the outputs' `Datum`
/// encodings in output order, then `map_output_pairs`,
/// `combined_pairs`, `spills`, `spill_bytes`, `shuffle_bytes` and
/// `reduce_groups`.
type Pinned = (usize, u64, [u64; 6]);

fn lines() -> Vec<String> {
    let corpus = bdb_datagen::text::TextGenerator::wikipedia(1).corpus(1 << 20);
    corpus.lines().map(str::to_owned).collect()
}

fn pinned<J: Job>(job: &J, lines: &[J::Input], map_buffer: Option<usize>) -> Pinned
where
    J::Output: Datum,
{
    let mut builder = Engine::builder().threads(2).reducers(2);
    if let Some(bytes) = map_buffer {
        builder = builder.map_buffer_bytes(bytes);
    }
    let (out, stats) = builder.build().run(job, lines);
    let mut bytes = Vec::new();
    for o in &out {
        o.encode(&mut bytes);
    }
    let JobStats {
        map_output_pairs,
        combined_pairs,
        spills,
        spill_bytes,
        shuffle_bytes,
        reduce_groups,
        ..
    } = stats;
    let counters =
        [map_output_pairs, combined_pairs, spills, spill_bytes, shuffle_bytes, reduce_groups];
    (out.len(), fnv1a(&bytes), counters)
}

#[test]
fn text_jobs_match_their_golden_outputs_and_counters() {
    let lines = lines();
    let spilling = Some(64 << 10);
    let got = [
        ("wordcount", pinned(&WordCount, &lines, None)),
        ("wordcount spilling", pinned(&WordCount, &lines, spilling)),
        ("sort", pinned(&Sort, &lines, None)),
        ("sort spilling", pinned(&Sort, &lines, spilling)),
    ];
    let expect: [Pinned; 4] = [
        (23_388, 0x4a0b_331a_d59b_d7a7, [163_412, 32_288, 0, 0, 671_099, 23_388]),
        (23_388, 0x4a0b_331a_d59b_d7a7, [163_412, 75_305, 80, 1_459_164, 1_481_041, 23_388]),
        (368, 0xc543_5214_88d2_ebf6, [368, 368, 0, 0, 1_051_148, 368]),
        (368, 0xc543_5214_88d2_ebf6, [368, 368, 30, 1_011_707, 1_051_148, 368]),
    ];
    for ((what, got), expect) in got.iter().zip(expect) {
        assert_eq!(*got, expect, "{what}");
    }
}
