//! The [`Probe`] trait and its implementations.
//!
//! Workload kernels are generic over `P: Probe`. With [`NullProbe`]
//! every call compiles to nothing, giving native-speed throughput runs;
//! with [`SimProbe`] every call drives the machine model.

use crate::layout::{AddressSpace, CodeRegion};
use crate::machine::{MachineConfig, MachineSim};
use crate::metrics::{CharacterizationReport, CounterSnapshot, InstructionMix, PhaseCounters};

/// Receiver of micro-architectural events emitted by instrumented kernels.
///
/// All methods have empty default bodies so probe implementations only
/// override what they observe; [`NullProbe`] overrides nothing.
pub trait Probe {
    /// A memory load of `bytes` bytes at synthetic address `addr`.
    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }

    /// A memory store of `bytes` bytes at synthetic address `addr`.
    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }

    /// `n` integer ALU instructions.
    #[inline(always)]
    fn int_ops(&mut self, n: u64) {
        let _ = n;
    }

    /// `n` floating-point instructions.
    #[inline(always)]
    fn fp_ops(&mut self, n: u64) {
        let _ = n;
    }

    /// One branch instruction, with its outcome.
    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        let _ = taken;
    }

    /// Invocation of the function body `region` (instruction fetch).
    #[inline(always)]
    fn call(&mut self, region: CodeRegion) {
        let _ = region;
    }

    /// Marks a phase boundary named `name`. Events since the previous
    /// mark are credited to the previously named phase; repeated marks
    /// with the same name are no-ops, and repeated *names* merge (so a
    /// `spill` nested inside `map` accumulates across occurrences).
    /// Probes that don't attribute phases ignore the call.
    #[inline(always)]
    fn phase(&mut self, name: &str) {
        let _ = name;
    }

    /// A point-in-time copy of the probe's performance counters, if it
    /// keeps any. Span-instrumented code snapshots at span open, again
    /// at span close, and attaches the
    /// [`delta`](CounterSnapshot::delta_since) as span args.
    #[inline(always)]
    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }

    /// Whether this probe actually records anything. Kernels may use this
    /// to skip building characterization-only structures.
    #[inline(always)]
    fn is_active(&self) -> bool {
        true
    }
}

/// The no-op probe: all events vanish at compile time.
///
/// # Example
///
/// ```
/// use bdb_archsim::{NullProbe, Probe};
/// let mut p = NullProbe;
/// p.load(0, 8);
/// p.int_ops(100);
/// assert!(!p.is_active());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn is_active(&self) -> bool {
        false
    }
}

/// A probe that tallies the instruction mix but simulates no hardware.
/// Useful in tests and for quick instruction-count estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    mix: InstructionMix,
    bytes: u64,
}

impl CountingProbe {
    /// The instruction mix observed so far.
    pub fn mix(&self) -> InstructionMix {
        self.mix
    }

    /// Total bytes requested by loads and stores.
    pub fn requested_bytes(&self) -> u64 {
        self.bytes
    }
}

impl Probe for CountingProbe {
    fn load(&mut self, _addr: u64, bytes: u32) {
        self.mix.loads += 1;
        self.bytes += bytes as u64;
    }

    fn store(&mut self, _addr: u64, bytes: u32) {
        self.mix.stores += 1;
        self.bytes += bytes as u64;
    }

    fn int_ops(&mut self, n: u64) {
        self.mix.int_ops += n;
    }

    fn fp_ops(&mut self, n: u64) {
        self.mix.fp_ops += n;
    }

    fn branch(&mut self, _taken: bool) {
        self.mix.branches += 1;
    }

    fn call(&mut self, region: CodeRegion) {
        self.mix.credit_code(region.instructions as u64);
    }
}

/// The full-simulation probe: feeds every event through a [`MachineSim`]
/// and owns the synthetic [`AddressSpace`] kernels allocate from.
///
/// # Example
///
/// ```
/// use bdb_archsim::{MachineConfig, SimProbe, Probe};
/// let mut p = SimProbe::new(MachineConfig::xeon_e5310());
/// let a = p.address_space_mut().alloc(1 << 16, "buf");
/// for i in 0..1000 {
///     p.load(a + i * 64, 8);
///     p.int_ops(2);
/// }
/// let report = p.finish();
/// assert_eq!(report.machine, "Xeon E5310");
/// assert!(report.counters.l3.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SimProbe {
    machine: MachineSim,
    address_space: AddressSpace,
    phases: Vec<PhaseCounters>,
    current_phase: Option<String>,
    phase_mark: CounterSnapshot,
}

impl SimProbe {
    /// Builds a probe simulating `config`.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            machine: MachineSim::new(config),
            address_space: AddressSpace::new(),
            phases: Vec::new(),
            current_phase: None,
            phase_mark: CounterSnapshot::default(),
        }
    }

    /// The synthetic address space for data/code allocation.
    pub fn address_space_mut(&mut self) -> &mut AddressSpace {
        &mut self.address_space
    }

    /// Read access to the underlying machine simulator.
    pub fn machine(&self) -> &MachineSim {
        &self.machine
    }

    /// Finishes the run and produces the characterization report,
    /// including per-phase counters when the run marked phases (the
    /// tail since the last mark is credited to the last phase, so
    /// phase counters sum to the whole-run totals exactly).
    pub fn finish(mut self) -> CharacterizationReport {
        self.close_phase();
        let mut report = self.machine.report();
        report.phases = std::mem::take(&mut self.phases);
        report
    }

    /// Produces a report of the events so far without consuming the
    /// probe. The open phase, if any, is credited with its
    /// events-so-far in the returned report but stays open.
    pub fn snapshot(&self) -> CharacterizationReport {
        let mut report = self.machine.report();
        let mut phases = self.phases.clone();
        if let Some(name) = &self.current_phase {
            let delta = self.machine.snapshot_counters().delta_since(&self.phase_mark);
            Self::credit(&mut phases, name.clone(), delta);
        }
        report.phases = phases;
        report
    }

    /// Zeroes all statistics while keeping cache/TLB contents — call
    /// after a warm-up phase so reports reflect steady state, as the
    /// paper does ("we collect performance data after a ramp up
    /// period"). Accumulated phases are discarded and the phase mark
    /// restarts at zero.
    pub fn reset_stats(&mut self) {
        self.machine.reset_stats();
        self.phases.clear();
        self.current_phase = None;
        self.phase_mark = CounterSnapshot::default();
    }

    /// Credits everything since the last mark to the open phase and
    /// advances the mark.
    fn close_phase(&mut self) {
        if let Some(name) = self.current_phase.take() {
            let now = self.machine.snapshot_counters();
            let delta = now.delta_since(&self.phase_mark);
            Self::credit(&mut self.phases, name, delta);
            self.phase_mark = now;
        }
    }

    fn credit(phases: &mut Vec<PhaseCounters>, name: String, delta: CounterSnapshot) {
        if let Some(p) = phases.iter_mut().find(|p| p.name == name) {
            p.counters.merge(&delta);
        } else {
            phases.push(PhaseCounters { name, counters: delta });
        }
    }
}

impl Probe for SimProbe {
    fn load(&mut self, addr: u64, bytes: u32) {
        self.machine.data_access(addr, bytes, false);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.machine.data_access(addr, bytes, true);
    }

    fn int_ops(&mut self, n: u64) {
        self.machine.int_ops(n);
    }

    fn fp_ops(&mut self, n: u64) {
        self.machine.fp_ops(n);
    }

    fn branch(&mut self, taken: bool) {
        self.machine.branch(taken);
    }

    fn call(&mut self, region: CodeRegion) {
        self.machine.ifetch(region);
    }

    fn phase(&mut self, name: &str) {
        if self.current_phase.as_deref() == Some(name) {
            return;
        }
        if self.current_phase.is_some() {
            self.close_phase();
        }
        // With no phase open the mark stays put, so events recorded
        // before the first named phase fold into that phase.
        self.current_phase = Some(name.to_owned());
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.machine.snapshot_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CodeRegion;

    #[test]
    fn counting_probe_tallies() {
        let mut p = CountingProbe::default();
        p.load(0, 8);
        p.store(8, 4);
        p.int_ops(5);
        p.fp_ops(2);
        p.branch(true);
        p.call(CodeRegion::new(0x400000, 128, 40));
        let m = p.mix();
        assert!(m.loads > 8, "explicit load + decomposed code loads");
        assert_eq!(p.requested_bytes(), 12, "code loads carry no data bytes");
        assert_eq!(m.total(), 10 + 40, "explicit events + region instructions");
    }

    #[test]
    fn null_probe_is_inactive() {
        assert!(!NullProbe.is_active());
        assert!(CountingProbe::default().is_active());
    }

    fn churn(p: &mut SimProbe, base: u64, n: u64) {
        for i in 0..n {
            p.load(base + i * 64, 8);
            p.int_ops(2);
            p.branch(i % 3 == 0);
        }
    }

    #[test]
    fn phase_counters_sum_to_whole_run_totals() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5645());
        let base = p.address_space_mut().alloc(1 << 22, "x");
        churn(&mut p, base, 500); // pre-phase: folds into "map"
        p.phase("map");
        churn(&mut p, base, 2000);
        p.phase("spill");
        churn(&mut p, base + (1 << 20), 700);
        p.phase("map"); // back to map: merges with the earlier delta
        churn(&mut p, base, 300);
        p.phase("reduce");
        churn(&mut p, base + (2 << 20), 900); // tail: credited at finish
        let r = p.finish();
        assert_eq!(r.phases.len(), 3, "map/spill/reduce in first-appearance order");
        assert_eq!(r.phases[0].name, "map");
        assert_eq!(r.phases[1].name, "spill");
        assert_eq!(r.phases[2].name, "reduce");
        let mut sum = CounterSnapshot::default();
        for ph in &r.phases {
            sum.merge(&ph.counters);
        }
        assert_eq!(sum, r.counters, "every counter, cycles too, telescopes exactly");
        // "map" saw the pre-phase churn plus two separate intervals.
        assert_eq!(r.phases[0].counters.mix.loads, 2800);
    }

    #[test]
    fn repeated_same_phase_mark_is_noop() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5310());
        let base = p.address_space_mut().alloc(1 << 16, "x");
        p.phase("only");
        churn(&mut p, base, 100);
        p.phase("only");
        churn(&mut p, base, 100);
        let r = p.finish();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].counters.mix.loads, 200);
    }

    #[test]
    fn reset_stats_clears_phases_and_remarks() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5645());
        let base = p.address_space_mut().alloc(1 << 16, "x");
        p.phase("warm");
        churn(&mut p, base, 400);
        p.reset_stats();
        p.phase("measured");
        churn(&mut p, base, 150);
        let r = p.finish();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "measured");
        assert_eq!(r.phases[0].counters.mix.loads, 150);
        assert_eq!(r.counters.mix.loads, 150);
    }

    #[test]
    fn snapshot_includes_open_phase_without_closing_it() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5645());
        let base = p.address_space_mut().alloc(1 << 16, "x");
        p.phase("a");
        churn(&mut p, base, 50);
        let mid = p.snapshot();
        assert_eq!(mid.phases.len(), 1);
        assert_eq!(mid.phases[0].counters.mix.loads, 50);
        churn(&mut p, base, 50);
        let r = p.finish();
        assert_eq!(r.phases[0].counters.mix.loads, 100, "snapshot did not consume");
    }

    #[test]
    fn probe_counters_bridge() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5645());
        assert!(NullProbe.counters().is_none());
        let base = p.address_space_mut().alloc(1 << 16, "x");
        let before = p.counters().unwrap();
        churn(&mut p, base, 10);
        let after = p.counters().unwrap();
        let delta = after.delta_since(&before);
        assert_eq!(delta.mix.loads, 10);
        let named = delta.named_counters();
        assert!(named.iter().any(|&(k, v)| k == "counter.loads" && v == 10));
    }

    #[test]
    fn sim_probe_produces_report() {
        let mut p = SimProbe::new(MachineConfig::xeon_e5645());
        let base = p.address_space_mut().alloc(1 << 20, "x");
        for i in 0..10_000u64 {
            p.load(base + (i * 8) % (1 << 20), 8);
            p.int_ops(1);
        }
        let r = p.finish();
        assert_eq!(r.counters.mix.loads, 10_000);
        assert!(r.counters.l3.is_some());
        assert!(r.counters.cycles > 0);
        assert!(r.mips() > 0.0);
    }
}
