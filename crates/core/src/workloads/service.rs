//! Online services: Nutch, Olio and Rubis servers driven at the paper's
//! offered loads (100 × multiplier requests/s, Table 6).

use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::{Workload, WorkloadId};
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
use bdb_serving::auction::AuctionServer;
use bdb_serving::loadgen::run_offered_load;
use bdb_serving::search::SearchServer;
use bdb_serving::server::Server;
use bdb_serving::social::SocialServer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The paper's baseline offered load.
pub const BASELINE_RPS: f64 = 100.0;
/// Virtual horizon for the queueing simulation.
const HORIZON: Duration = Duration::from_secs(10);
/// Simulated worker threads (the E5645 has 6 cores).
const WORKERS: u32 = 6;
/// Native service-time samples per run.
const SAMPLES: usize = 400;
/// Requests executed per traced characterization run (baseline).
const TRACED_REQUESTS_BASELINE: u64 = 600;

fn offered(scale: &RunScale) -> f64 {
    BASELINE_RPS * scale.multiplier as f64
}

fn native_report<S: Server>(id: WorkloadId, server: &mut S, scale: &RunScale) -> WorkloadReport {
    let report = run_offered_load(
        server,
        offered(scale),
        HORIZON,
        WORKERS,
        (SAMPLES as f64 * scale.fraction.min(1.0)).max(50.0) as usize,
        scale.seed_for(40),
    );
    WorkloadReport::new(
        id,
        scale.multiplier,
        UserMetric::Rps {
            offered: offered(scale),
            achieved: report.achieved_rps,
            p99: report.latency.percentile(0.99),
        },
        0,
    )
    .with_detail(format!(
        "{} completed, p50 {:?}, saturated: {}",
        report.completed,
        report.latency.percentile(0.5),
        report.saturated()
    ))
}

fn traced_report<S: Server>(
    server: &mut S,
    scale: &RunScale,
    machine: MachineConfig,
    warm: impl FnOnce(&mut S, &mut SimProbe),
) -> CharacterizationReport {
    let mut probe = SimProbe::new(machine);
    warm(server, &mut probe);
    let mut rng = StdRng::seed_from_u64(scale.seed_for(41));
    // Request count scales with offered load, capped for simulation time.
    let requests = (TRACED_REQUESTS_BASELINE as f64 * scale.fraction * scale.multiplier as f64)
        .clamp(50.0, 20_000.0) as u64;
    for _ in 0..requests / 5 + 10 {
        let req = server.sample_request(&mut rng);
        server.handle(&req, &mut probe);
    }
    probe.reset_stats();
    for _ in 0..requests {
        let req = server.sample_request(&mut rng);
        server.handle(&req, &mut probe);
    }
    probe.finish()
}

/// The search-engine front-end under load (Nutch stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct NutchWorkload;

impl Workload for NutchWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::NutchServer
    }

    fn run_native(&self, scale: &RunScale) -> WorkloadReport {
        let docs = (2000.0 * scale.fraction).max(100.0) as u32;
        let mut server = SearchServer::build(docs, scale.seed_for(42));
        native_report(self.id(), &mut server, scale)
    }

    fn run_traced(&self, scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
        let docs = (1000.0 * scale.fraction).max(100.0) as u32;
        let mut server = SearchServer::build(docs, scale.seed_for(42));
        server.enable_tracing();
        traced_report(&mut server, scale, machine, |s, p| s.warm_trace(p))
    }
}

/// The social-event site under load (Olio stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct OlioWorkload;

impl Workload for OlioWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::OlioServer
    }

    fn run_native(&self, scale: &RunScale) -> WorkloadReport {
        let users = (2000.0 * scale.fraction).max(100.0) as u32;
        let mut server = SocialServer::build(users, 20, scale.seed_for(43));
        native_report(self.id(), &mut server, scale)
    }

    fn run_traced(&self, scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
        let users = (1000.0 * scale.fraction).max(100.0) as u32;
        let mut server = SocialServer::build(users, 20, scale.seed_for(43));
        server.enable_tracing();
        traced_report(&mut server, scale, machine, |s, p| s.warm_trace(p))
    }
}

/// The auction site under load (Rubis stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct RubisWorkload;

impl Workload for RubisWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::RubisServer
    }

    fn run_native(&self, scale: &RunScale) -> WorkloadReport {
        let items = (5000.0 * scale.fraction).max(200.0) as u32;
        let mut server = AuctionServer::build(items, 20, items / 4, scale.seed_for(44));
        native_report(self.id(), &mut server, scale)
    }

    fn run_traced(&self, scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
        let items = (2000.0 * scale.fraction).max(200.0) as u32;
        let mut server = AuctionServer::build(items, 20, items / 4, scale.seed_for(44));
        server.enable_tracing();
        traced_report(&mut server, scale, machine, |s, p| s.warm_trace(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn services_track_light_offered_load() {
        for w in [
            Box::new(NutchWorkload) as Box<dyn Workload>,
            Box::new(OlioWorkload),
            Box::new(RubisWorkload),
        ] {
            let r = w.run_native(&RunScale::quick());
            let UserMetric::Rps { offered, achieved, .. } = r.metric else {
                panic!("services report RPS");
            };
            assert_eq!(offered, 100.0);
            assert!(
                (achieved - offered).abs() / offered < 0.2,
                "{:?}: achieved {achieved} at offered {offered}",
                w.id()
            );
        }
    }

    #[test]
    fn traced_services_show_deep_stacks() {
        let r = OlioWorkload.run_traced(&RunScale::quick(), MachineConfig::xeon_e5645());
        assert!(r.counters.mix.other > 0);
        assert!(r.l1i_mpki() > 5.0, "app-server stack L1I MPKI {}", r.l1i_mpki());
        assert!(r.l2_mpki() > 1.0, "large resident state L2 MPKI {}", r.l2_mpki());
    }
}
