//! Stress test for spill-file isolation: jobs running at once in one
//! process share the spill directory, so every spill file must get a
//! name no other job uses. Eight spilling jobs run concurrently on
//! threads, and each output must equal the same job run alone.

use bdb_mapreduce::{Emitter, Engine, Job};
use std::sync::Barrier;

/// Groups each job's numbers by residue; the job index salts the
/// input so concurrent jobs spill different bytes.
struct Residues;
impl Job for Residues {
    type Input = u64;
    type Key = u64;
    type Value = u64;
    type Output = (u64, u64);
    fn map<P: bdb_archsim::Probe + ?Sized>(
        &self,
        x: &u64,
        emit: &mut Emitter<u64, u64>,
        _p: &mut P,
    ) {
        emit.emit(x % 97, *x);
    }
    fn reduce<P: bdb_archsim::Probe + ?Sized>(
        &self,
        key: u64,
        values: Vec<u64>,
        out: &mut Vec<(u64, u64)>,
        _p: &mut P,
    ) {
        out.push((key, values.iter().fold(0u64, |acc, v| acc.wrapping_mul(31).wrapping_add(*v))));
    }
}

fn input(job: u64) -> Vec<u64> {
    (0..4_000).map(|i| i * 1_000 + job).collect()
}

fn run(job: u64) -> Vec<(u64, u64)> {
    let engine = Engine::builder().threads(2).reducers(3).map_buffer_bytes(512).build();
    let (out, stats) = engine.run(&Residues, &input(job));
    assert!(stats.spills > 10, "job {job} must spill repeatedly: {stats:?}");
    out
}

#[test]
fn concurrent_spilling_jobs_match_their_serial_runs() {
    const JOBS: u64 = 8;
    let serial: Vec<_> = (0..JOBS).map(run).collect();
    // Every job waits at the barrier, so all eight spill at once.
    let start = Barrier::new(JOBS as usize);
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS)
            .map(|job| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    run(job)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("job thread")).collect()
    });
    for (job, (alone, together)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(alone, together, "job {job} output changed when run concurrently");
    }
}
