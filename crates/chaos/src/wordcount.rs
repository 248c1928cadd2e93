//! The MapReduce chaos campaign: WordCount re-run under rotating fault
//! mixes (spill errors, task panics, speculated stragglers), checked
//! byte-identical to a fault-free baseline every round.

use crate::report::{CampaignReport, CheckerVerdict};
use crate::ROUNDS;
use bdb_faults::FaultPlan;
use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::{sites, Engine};
use bdb_telemetry::{ArgValue, SpanEvent};
use std::time::Duration;

fn lines(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("alpha beta-{} gamma delta epsilon", i % 23)).collect()
}

/// The campaign's reducer count.
const REDUCERS: usize = 3;

/// Four spill-heavy map tasks.
fn engine(reducers: usize, faults: FaultPlan) -> Engine {
    Engine::builder().threads(4).reducers(reducers).map_buffer_bytes(1024).faults(faults).build()
}

/// One round's fault mix, rotating map-side, reduce-side, and
/// straggler-plus-tear schedules. Stragglers take the first straggle
/// check, which always belongs to a first attempt: a later check can
/// land on a retried attempt, which the engine never speculates, and
/// the recovery count would then depend on thread scheduling.
fn round_plan(seed: u64, round: u32) -> FaultPlan {
    let b = FaultPlan::builder(seed.wrapping_add(u64::from(round)));
    match round % 3 {
        0 => b
            .io_error_nth(sites::SPILL_WRITE, 0)
            .panic_nth(sites::MAP_TASK, 1)
            .straggle_nth(sites::MAP_STRAGGLER, 0, Duration::from_millis(400))
            .build(),
        1 => b.io_error_nth(sites::SPILL_READ, 0).panic_nth(sites::REDUCE_TASK, 1).build(),
        _ => b
            .torn_write_nth(sites::SPILL_WRITE, 1)
            .straggle_nth(sites::MAP_STRAGGLER, 0, Duration::from_millis(300))
            .build(),
    }
}

/// One round's instant on the campaign timeline, one virtual second per
/// round. Its args are fixed by the seed, like the report's: the
/// recovery count is left out, since it counts recovered tasks, and two
/// faults that hit one task recover once.
fn round_span(round: u32, identical: bool, plan: &FaultPlan) -> SpanEvent {
    const ROUND_US: u64 = 1_000_000;
    SpanEvent {
        name: "wordcount-round",
        cat: "chaos",
        start_us: u64::from(round) * ROUND_US,
        dur_us: None,
        tid: 0,
        ctx: None,
        args: vec![
            ("round", ArgValue::Int(i64::from(round))),
            ("identical", ArgValue::Int(i64::from(identical))),
            ("injected", ArgValue::Int(plan.injected() as i64)),
        ],
    }
}

/// Runs the WordCount chaos campaign: a clean baseline, then three
/// faulty re-runs, each of which must recover (bounded retries plus
/// speculative execution) to the byte-identical output.
#[must_use]
pub fn wordcount_campaign(seed: u64) -> CampaignReport {
    let input = lines(400);
    let (baseline, base_stats) = engine(REDUCERS, FaultPlan::disabled()).run(&WordCount, &input);

    let mut identical_rounds = 0u64;
    let mut injected_total = 0u64;
    let mut recovered_total = 0u64;
    let mut map_retries = 0u64;
    let mut reduce_retries = 0u64;
    let mut speculative_tasks = 0u64;
    let mut injected: std::collections::BTreeMap<String, u64> = Default::default();
    let mut spans = Vec::new();

    for round in 0..ROUNDS {
        let plan = round_plan(seed, round);
        let (out, stats) = engine(REDUCERS, plan.clone()).run(&WordCount, &input);
        let identical = out == baseline;
        if identical {
            identical_rounds += 1;
        }
        injected_total += plan.injected();
        recovered_total += plan.recovered();
        // Recoveries and the retry/speculation split are
        // scheduling-dependent (a straggler's re-execution races between
        // the two buckets, and a task that merely runs slow on a busy
        // host can be speculated and win), so they may gate the pass
        // boolean below but must stay out of the byte-compared report;
        // only plan-derived counters — pinned to the injected schedule —
        // are reported.
        map_retries += stats.map_retries;
        reduce_retries += stats.reduce_retries;
        speculative_tasks += stats.speculative_tasks;
        for (site, n) in plan.injected_by_site() {
            *injected.entry(site).or_insert(0) += n;
        }
        spans.push(round_span(round, identical, &plan));
    }

    let identity =
        CheckerVerdict::new("byte_identical_output", identical_rounds == u64::from(ROUNDS))
            .detail("rounds", ROUNDS)
            .detail("identical_rounds", identical_rounds)
            .detail("output_pairs", baseline.len());

    let recovery = CheckerVerdict::new(
        "retry_and_speculation",
        injected_total >= u64::from(ROUNDS)
            && recovered_total >= 1
            && map_retries + reduce_retries >= 1
            && speculative_tasks >= 1
            && base_stats.spills > 0,
    )
    .detail("injected", injected_total)
    .detail("baseline_spills", base_stats.spills);

    CampaignReport {
        campaign: "wordcount",
        seed,
        rounds: ROUNDS,
        checkers: vec![identity, recovery],
        injected: injected.into_iter().collect(),
        recovered: Vec::new(),
        stats: vec![
            ("faults_injected".into(), injected_total),
            ("identical_rounds".into(), identical_rounds),
            ("output_pairs".into(), baseline.len() as u64),
        ],
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round 1 injects a spill-read error and a reduce-task panic. With
    /// one reducer both always hit the same task, which recovers once;
    /// with the campaign's three they usually hit two tasks. The round's
    /// span must not tell the two apart.
    #[test]
    fn round_span_is_the_same_whichever_tasks_the_faults_hit() {
        let input = lines(400);
        let run = |reducers: usize| {
            let plan = round_plan(7, 1);
            engine(reducers, plan.clone()).run(&WordCount, &input);
            (plan.injected(), plan.recovered(), round_span(1, true, &plan).args)
        };
        let (one_injected, one_recovered, one_task) = run(1);
        let (injected, _, spread) = run(REDUCERS);
        assert_eq!((one_injected, one_recovered), (2, 1), "both faults hit the one reduce task");
        assert_eq!(injected, 2);
        assert_eq!(one_task, spread);
    }
}
