//! An event-driven multi-worker queueing simulator.
//!
//! The paper drives its service workloads at offered loads of
//! 100×(1..32) requests per second and reports achieved throughput.
//! Re-creating that on one laptop process would measure the laptop, not
//! the workload, so we separate concerns: service times are *measured*
//! by running the real handler natively, and the arrival/queueing
//! dynamics are *simulated* — Poisson arrivals into a FIFO queue served
//! by `workers` parallel servers. Saturation, latency blow-up past the
//! knee, and achieved-vs-offered throughput all fall out of the
//! simulation.

use bdb_telemetry::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// Overload-protection policy for a [`QueueSim`]: how much backlog the
/// service accepts and how long a request may wait before it is
/// abandoned. The default is a fully permissive policy (unbounded
/// queue, no deadline), matching a service with no admission control.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueuePolicy {
    /// Shed arrivals once this many accepted requests are waiting
    /// (`None` = unbounded queue, nothing is ever shed).
    pub queue_capacity: Option<usize>,
    /// Drop a request whose queueing delay exceeds this before service
    /// begins (`None` = requests wait forever).
    pub deadline: Option<Duration>,
}

/// Terminal status of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served to completion within the horizon.
    Completed,
    /// Rejected at admission: the queue was full.
    Shed,
    /// Admitted but abandoned after waiting past the policy deadline.
    TimedOut,
    /// Admitted and started (or queued) but not finished by the
    /// horizon's end.
    Unfinished,
}

impl RequestOutcome {
    /// Lowercase label, stable for reports and span arguments.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Shed => "shed",
            RequestOutcome::TimedOut => "timed_out",
            RequestOutcome::Unfinished => "unfinished",
        }
    }
}

/// One request's life in the simulation, in virtual nanoseconds since
/// the horizon start. The simulator emits these in arrival order so an
/// observability layer can consume the run as a stream instead of only
/// reading the final aggregates.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// Arrival sequence number (0-based).
    pub seq: u64,
    /// Arrival time.
    pub arrival_ns: u64,
    /// Service start (admission wait ends); `None` for shed arrivals.
    /// For timed-out requests this is the moment the request was
    /// abandoned — when a worker would have picked it up.
    pub start_ns: Option<u64>,
    /// Completion time; `None` unless the outcome is `Completed` or
    /// `Unfinished` (where it falls past the horizon).
    pub finish_ns: Option<u64>,
    /// Assigned service time (zero for shed/timed-out requests, which
    /// never reach a worker).
    pub service_ns: u64,
    /// The worker that served (or would have served) the request;
    /// `None` for shed arrivals.
    pub worker: Option<u32>,
    /// How the request ended.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// Time the request spent in the system: sojourn (wait + service)
    /// for completed/unfinished requests, the abandoned wait for
    /// timed-out ones, zero for shed arrivals.
    pub fn latency_ns(&self) -> u64 {
        match self.outcome {
            RequestOutcome::Shed => 0,
            RequestOutcome::TimedOut => self.start_ns.unwrap_or(0).saturating_sub(self.arrival_ns),
            RequestOutcome::Completed | RequestOutcome::Unfinished => {
                self.finish_ns.unwrap_or(0).saturating_sub(self.arrival_ns)
            }
        }
    }

    /// Admission wait (service start minus arrival); zero for shed.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns.unwrap_or(self.arrival_ns).saturating_sub(self.arrival_ns)
    }

    /// When the request left the system: at arrival if shed, when
    /// abandoned if timed out, at finish if completed. `None` for
    /// unfinished requests, which end past the horizon.
    pub fn terminal_ns(&self) -> Option<u64> {
        match self.outcome {
            RequestOutcome::Shed => Some(self.arrival_ns),
            RequestOutcome::TimedOut => self.start_ns,
            RequestOutcome::Completed => self.finish_ns,
            RequestOutcome::Unfinished => None,
        }
    }
}

/// Result of one queueing simulation.
#[derive(Debug, Clone)]
pub struct QueueResult {
    /// Requests completed within the horizon.
    pub completed: u64,
    /// Requests still queued/in service when the horizon ended.
    pub unfinished: u64,
    /// Arrivals rejected at admission because the queue was full.
    pub shed: u64,
    /// Accepted requests abandoned because their queueing delay
    /// exceeded the policy deadline.
    pub timed_out: u64,
    /// Achieved throughput (completions / horizon).
    pub achieved_rps: f64,
    /// Sojourn-time (queueing + service) distribution.
    pub latency: LatencyHistogram,
    /// Mean number of busy workers over the horizon.
    pub utilization: f64,
    /// Per-request outcome stream, in arrival order. The aggregate
    /// fields above are exactly derivable from it; they are kept so
    /// existing consumers stay byte-compatible.
    pub records: Vec<RequestRecord>,
}

/// Event-driven FIFO queue with `workers` identical servers.
#[derive(Debug, Clone)]
pub struct QueueSim {
    workers: u32,
    policy: QueuePolicy,
}

impl QueueSim {
    /// A simulator with `workers` parallel servers and the default
    /// (fully permissive) [`QueuePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: u32) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self { workers, policy: QueuePolicy::default() }
    }

    /// Replaces the overload policy (bounded queue / deadline).
    #[must_use]
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Simulates Poisson arrivals at `offered_rps` over `horizon`,
    /// drawing service times round-robin from `service_times` (the
    /// empirical distribution measured natively).
    ///
    /// # Panics
    ///
    /// Panics if `service_times` is empty or `offered_rps` is not
    /// positive.
    pub fn run(
        &self,
        offered_rps: f64,
        horizon: Duration,
        service_times: &[Duration],
        seed: u64,
    ) -> QueueResult {
        assert!(!service_times.is_empty(), "need measured service times");
        assert!(offered_rps > 0.0, "offered load must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon_s = horizon.as_secs_f64();

        // Generate Poisson arrivals (exponential inter-arrival times).
        let mut arrivals: Vec<f64> = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / offered_rps;
            if t >= horizon_s {
                break;
            }
            arrivals.push(t);
        }

        // Workers as a min-heap of (next-free time, worker id). The id
        // breaks ties deterministically and lets each record name the
        // server that handled it; ordering by free time is unchanged,
        // so aggregates match the id-less simulation exactly.
        let mut free_at: BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            (0..self.workers).map(|w| std::cmp::Reverse((0u64, w))).collect();
        let to_ns = |s: f64| (s * 1e9) as u64;
        let deadline_ns = self.policy.deadline.map(|d| d.as_nanos() as u64);
        // Start times of accepted requests still waiting for a worker
        // (start times are non-decreasing in FIFO order, so this stays
        // sorted and the front is always the next to leave the queue).
        let mut waiting: VecDeque<u64> = VecDeque::new();
        let mut latency = LatencyHistogram::new();
        let mut completed = 0u64;
        let mut unfinished = 0u64;
        let mut shed = 0u64;
        let mut timed_out = 0u64;
        let mut busy_ns = 0u128;
        let mut records: Vec<RequestRecord> = Vec::with_capacity(arrivals.len());
        let mut service_idx = rng.gen_range(0..service_times.len());
        for (seq, &arrival_s) in arrivals.iter().enumerate() {
            let arrival = to_ns(arrival_s);
            while waiting.front().is_some_and(|&s| s <= arrival) {
                waiting.pop_front();
            }
            if self.policy.queue_capacity.is_some_and(|cap| waiting.len() >= cap) {
                shed += 1;
                records.push(RequestRecord {
                    seq: seq as u64,
                    arrival_ns: arrival,
                    start_ns: None,
                    finish_ns: None,
                    service_ns: 0,
                    worker: None,
                    outcome: RequestOutcome::Shed,
                });
                continue;
            }
            let std::cmp::Reverse((earliest_free, worker)) = free_at.pop().expect("non-empty");
            let start = earliest_free.max(arrival);
            if start > arrival {
                waiting.push_back(start);
            }
            if deadline_ns.is_some_and(|d| start - arrival > d) {
                // Abandoned at the moment a worker would have picked it
                // up; the worker serves the next request instead.
                timed_out += 1;
                free_at.push(std::cmp::Reverse((earliest_free, worker)));
                records.push(RequestRecord {
                    seq: seq as u64,
                    arrival_ns: arrival,
                    start_ns: Some(start),
                    finish_ns: None,
                    service_ns: 0,
                    worker: Some(worker),
                    outcome: RequestOutcome::TimedOut,
                });
                continue;
            }
            let service = service_times[service_idx].as_nanos() as u64;
            service_idx = (service_idx + 1) % service_times.len();
            let finish = start + service;
            let outcome = if finish <= to_ns(horizon_s) {
                completed += 1;
                latency.record(Duration::from_nanos(finish - arrival));
                busy_ns += service as u128;
                RequestOutcome::Completed
            } else {
                unfinished += 1;
                RequestOutcome::Unfinished
            };
            free_at.push(std::cmp::Reverse((finish, worker)));
            records.push(RequestRecord {
                seq: seq as u64,
                arrival_ns: arrival,
                start_ns: Some(start),
                finish_ns: Some(finish),
                service_ns: service,
                worker: Some(worker),
                outcome,
            });
        }
        QueueResult {
            completed,
            unfinished,
            shed,
            timed_out,
            achieved_rps: completed as f64 / horizon_s,
            latency,
            utilization: busy_ns as f64 / (horizon_s * 1e9 * self.workers as f64),
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn light_load_tracks_offered() {
        // 10ms service, 4 workers ⇒ capacity 400 rps; offer 50.
        let sim = QueueSim::new(4);
        let r = sim.run(50.0, Duration::from_secs(20), &[ms(10)], 1);
        assert!((r.achieved_rps - 50.0).abs() < 5.0, "achieved {}", r.achieved_rps);
        assert!(r.latency.percentile(0.5) < ms(15));
        assert!(r.utilization < 0.3);
    }

    #[test]
    fn saturation_caps_throughput() {
        // Capacity 400 rps; offer 1600 ⇒ achieve ~400.
        let sim = QueueSim::new(4);
        let r = sim.run(1600.0, Duration::from_secs(10), &[ms(10)], 2);
        assert!(r.achieved_rps < 450.0, "achieved {}", r.achieved_rps);
        assert!(r.achieved_rps > 320.0);
        assert!(r.unfinished > 0, "overload leaves a backlog");
        assert!(r.utilization > 0.9);
    }

    #[test]
    fn latency_blows_up_past_knee() {
        let sim = QueueSim::new(2);
        let light = sim.run(20.0, Duration::from_secs(10), &[ms(10)], 3);
        let heavy = sim.run(400.0, Duration::from_secs(10), &[ms(10)], 3);
        assert!(heavy.latency.percentile(0.9) > light.latency.percentile(0.9) * 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = QueueSim::new(3);
        let a = sim.run(100.0, Duration::from_secs(5), &[ms(5), ms(15)], 9);
        let b = sim.run(100.0, Duration::from_secs(5), &[ms(5), ms(15)], 9);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.percentile(0.99), b.latency.percentile(0.99));
        assert_eq!((a.shed, a.timed_out), (0, 0), "permissive policy never drops");

        // The same holds when the policy actively sheds and times out.
        let policy =
            QueuePolicy { queue_capacity: Some(3), deadline: Some(Duration::from_millis(25)) };
        let sim = QueueSim::new(2).with_policy(policy);
        let a = sim.run(800.0, Duration::from_secs(5), &[ms(5), ms(15)], 9);
        let b = sim.run(800.0, Duration::from_secs(5), &[ms(5), ms(15)], 9);
        assert!(a.shed > 0, "overload against a bounded queue must shed");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.latency.percentile(0.99), b.latency.percentile(0.99));
    }

    #[test]
    fn bounded_queue_sheds_overload_and_caps_waiting() {
        let policy = QueuePolicy { queue_capacity: Some(4), deadline: None };
        let unbounded = QueueSim::new(2).run(2000.0, Duration::from_secs(5), &[ms(10)], 7);
        let bounded =
            QueueSim::new(2).with_policy(policy).run(2000.0, Duration::from_secs(5), &[ms(10)], 7);
        assert_eq!(unbounded.shed, 0);
        assert!(bounded.shed > 0, "4-deep queue against 10x overload must shed");
        // At most 4 waiting ahead on 2 workers: wait ≤ ~3 service times,
        // so sojourn stays bounded instead of growing with the backlog.
        assert!(
            bounded.latency.percentile(0.99) < ms(80),
            "{:?}",
            bounded.latency.percentile(0.99)
        );
        assert!(
            unbounded.latency.percentile(0.99) > bounded.latency.percentile(0.99) * 5,
            "unbounded queue latency grows with backlog"
        );
        // Shedding does not reduce useful throughput at saturation.
        assert!(bounded.achieved_rps > unbounded.achieved_rps * 0.8);
    }

    #[test]
    fn deadline_abandons_stale_requests() {
        let policy = QueuePolicy { queue_capacity: None, deadline: Some(ms(20)) };
        let r =
            QueueSim::new(2).with_policy(policy).run(1000.0, Duration::from_secs(5), &[ms(10)], 8);
        assert!(r.timed_out > 0, "overload must push waits past 20ms");
        assert_eq!(r.shed, 0, "no admission control configured");
        // Completed requests waited ≤ 20ms then served for 10ms.
        assert!(r.latency.percentile(1.0) <= ms(31), "{:?}", r.latency.percentile(1.0));
    }

    #[test]
    fn permissive_policy_matches_default_behavior() {
        let base = QueueSim::new(3).run(300.0, Duration::from_secs(5), &[ms(5), ms(9)], 12);
        let explicit = QueueSim::new(3).with_policy(QueuePolicy::default()).run(
            300.0,
            Duration::from_secs(5),
            &[ms(5), ms(9)],
            12,
        );
        assert_eq!(base.completed, explicit.completed);
        assert_eq!(base.unfinished, explicit.unfinished);
        assert_eq!((explicit.shed, explicit.timed_out), (0, 0));
    }

    #[test]
    fn more_workers_raise_capacity() {
        let few = QueueSim::new(1).run(500.0, Duration::from_secs(5), &[ms(10)], 4);
        let many = QueueSim::new(8).run(500.0, Duration::from_secs(5), &[ms(10)], 4);
        assert!(many.achieved_rps > few.achieved_rps * 3.0);
    }

    #[test]
    #[should_panic(expected = "service times")]
    fn empty_service_times_panic() {
        QueueSim::new(1).run(10.0, Duration::from_secs(1), &[], 0);
    }

    #[test]
    fn records_reconcile_with_aggregates() {
        let policy = QueuePolicy { queue_capacity: Some(6), deadline: Some(ms(12)) };
        let r = QueueSim::new(2).with_policy(policy).run(
            800.0,
            Duration::from_secs(5),
            &[ms(5), ms(15)],
            9,
        );
        let count = |o: RequestOutcome| r.records.iter().filter(|x| x.outcome == o).count() as u64;
        assert_eq!(count(RequestOutcome::Completed), r.completed);
        assert_eq!(count(RequestOutcome::Shed), r.shed);
        assert_eq!(count(RequestOutcome::TimedOut), r.timed_out);
        assert_eq!(count(RequestOutcome::Unfinished), r.unfinished);
        assert!(r.shed > 0 && r.timed_out > 0 && r.completed > 0, "exercise every outcome");

        // Rebuilding the latency histogram from completed records
        // reproduces the aggregate distribution exactly.
        let mut rebuilt = LatencyHistogram::new();
        for rec in r.records.iter().filter(|x| x.outcome == RequestOutcome::Completed) {
            rebuilt.record(Duration::from_nanos(rec.latency_ns()));
        }
        assert_eq!(rebuilt.count(), r.latency.count());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(rebuilt.percentile(q), r.latency.percentile(q));
        }
    }

    #[test]
    fn records_are_in_arrival_order_and_causally_sane() {
        let r = QueueSim::new(3).run(300.0, Duration::from_secs(5), &[ms(5), ms(9)], 12);
        assert!(!r.records.is_empty());
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            if i > 0 {
                assert!(rec.arrival_ns >= r.records[i - 1].arrival_ns);
            }
            match rec.outcome {
                RequestOutcome::Shed => {
                    assert!(rec.start_ns.is_none() && rec.worker.is_none());
                }
                RequestOutcome::TimedOut => {
                    assert!(rec.start_ns.unwrap() > rec.arrival_ns);
                    assert!(rec.finish_ns.is_none());
                }
                RequestOutcome::Completed | RequestOutcome::Unfinished => {
                    let start = rec.start_ns.unwrap();
                    assert!(start >= rec.arrival_ns);
                    assert_eq!(rec.finish_ns.unwrap(), start + rec.service_ns);
                    assert!(rec.worker.unwrap() < 3);
                }
            }
        }
    }

    #[test]
    fn per_worker_service_intervals_never_overlap() {
        let r = QueueSim::new(2).run(600.0, Duration::from_secs(3), &[ms(4), ms(11)], 21);
        for w in 0..2u32 {
            let mut busy: Vec<(u64, u64)> = r
                .records
                .iter()
                .filter(|rec| {
                    rec.worker == Some(w)
                        && matches!(
                            rec.outcome,
                            RequestOutcome::Completed | RequestOutcome::Unfinished
                        )
                })
                .map(|rec| (rec.start_ns.unwrap(), rec.finish_ns.unwrap()))
                .collect();
            busy.sort_unstable();
            assert!(!busy.is_empty());
            for pair in busy.windows(2) {
                assert!(pair[1].0 >= pair[0].1, "worker {w} double-booked: {pair:?}");
            }
        }
    }
}
