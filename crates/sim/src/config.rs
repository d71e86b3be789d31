//! Simulator configuration: machine geometry, latencies, and the RF
//! protection mode.

use penny_coding::Scheme;
use penny_core::MachineParams;

/// How the register file is protected in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfProtection {
    /// Unprotected RF (baseline; injected faults corrupt silently).
    None,
    /// EDC + Penny recovery: errors are detected at register read and
    /// repaired by idempotent re-execution.
    Edc(Scheme),
    /// ECC: errors up to the scheme's correction capability are repaired
    /// inline at read time.
    Ecc(Scheme),
}

impl RfProtection {
    /// The coding scheme in use, if any.
    pub fn scheme(self) -> Scheme {
        match self {
            RfProtection::None => Scheme::None,
            RfProtection::Edc(s) | RfProtection::Ecc(s) => s,
        }
    }
}

/// Default watchdog budget: far beyond any real workload in this repo
/// (the largest finishes in a few million cycles) but finite, so a
/// scheduling bug fails fast instead of hanging `cargo test`.
pub const DEFAULT_CYCLE_LIMIT: u64 = 2_000_000_000;

/// Timing and capacity parameters of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Instructions issued per SM per cycle.
    pub issue_width: u32,
    /// Occupancy-relevant capacity limits.
    pub machine: MachineParams,
    /// ALU latency (cycles) for simple integer ops.
    pub lat_alu: u32,
    /// Latency for multiplies / mads.
    pub lat_mul: u32,
    /// Latency for division / special-function ops.
    pub lat_sfu: u32,
    /// Round-trip latency of a global-memory load.
    pub lat_global: u32,
    /// Latency of a shared-memory access.
    pub lat_shared: u32,
    /// Cycles the memory pipeline is occupied per 128-byte segment.
    pub seg_cycles: u32,
    /// Store issue latency (the warp-visible part of a store).
    pub lat_store_issue: u32,
    /// Register-file protection mode.
    pub rf: RfProtection,
    /// Extra cycles charged per restored register during recovery.
    pub recovery_cycles_per_restore: u32,
    /// Watchdog: a wave exceeding this many cycles aborts with
    /// [`crate::SimError::CycleLimit`] instead of hanging the caller.
    pub cycle_limit: u64,
}

impl GpuConfig {
    /// Fermi-generation preset (Tesla C2050-like), with parity-EDC RF —
    /// the Penny configuration. Scaled to a handful of SMs so tests and
    /// benches run quickly; relative overheads are SM-count independent
    /// in this model.
    pub fn fermi() -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            issue_width: 2,
            machine: MachineParams::scaled_fermi(),
            lat_alu: 8,
            lat_mul: 10,
            lat_sfu: 20,
            lat_global: 400,
            lat_shared: 24,
            seg_cycles: 16,
            lat_store_issue: 6,
            rf: RfProtection::Edc(Scheme::Parity),
            recovery_cycles_per_restore: 40,
            cycle_limit: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// Volta-generation preset (Titan V-like): more warps, bigger
    /// shared memory, better caching (lower average global latency),
    /// wider issue.
    pub fn volta() -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            issue_width: 4,
            machine: MachineParams::scaled_volta(),
            lat_alu: 4,
            lat_mul: 6,
            lat_sfu: 16,
            lat_global: 300,
            lat_shared: 16,
            seg_cycles: 10,
            lat_store_issue: 4,
            rf: RfProtection::Edc(Scheme::Parity),
            recovery_cycles_per_restore: 30,
            cycle_limit: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// Builder-style RF protection override.
    pub fn with_rf(mut self, rf: RfProtection) -> GpuConfig {
        self.rf = rf;
        self
    }

    /// Builder-style watchdog budget override (see
    /// [`GpuConfig::cycle_limit`]).
    pub fn with_cycle_limit(mut self, cycle_limit: u64) -> GpuConfig {
        self.cycle_limit = cycle_limit;
        self
    }

    /// Instruction latency by opcode class.
    pub fn latency_of(&self, op: penny_ir::Op) -> u32 {
        use penny_ir::Op;
        match op {
            Op::Mul | Op::MulHi | Op::Mad => self.lat_mul,
            Op::Div
            | Op::Rem
            | Op::Sqrt
            | Op::Rsqrt
            | Op::Rcp
            | Op::Ex2
            | Op::Lg2
            | Op::Sin
            | Op::Cos => self.lat_sfu,
            _ => self.lat_alu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let f = GpuConfig::fermi();
        let v = GpuConfig::volta();
        assert!(v.machine.max_warps_per_sm > f.machine.max_warps_per_sm);
        assert!(v.lat_global < f.lat_global);
        assert!(v.issue_width > f.issue_width);
    }

    #[test]
    fn the_compiler_targets_the_fermi_preset_by_default() {
        assert_eq!(penny_core::PennyConfig::penny().machine, GpuConfig::fermi().machine);
    }

    #[test]
    fn latency_classes() {
        let f = GpuConfig::fermi();
        assert_eq!(f.latency_of(penny_ir::Op::Add), f.lat_alu);
        assert_eq!(f.latency_of(penny_ir::Op::Mad), f.lat_mul);
        assert_eq!(f.latency_of(penny_ir::Op::Div), f.lat_sfu);
    }

    #[test]
    fn protection_modes() {
        assert_eq!(RfProtection::None.scheme(), Scheme::None);
        assert_eq!(RfProtection::Edc(Scheme::Parity).scheme(), Scheme::Parity);
        assert_eq!(RfProtection::Ecc(Scheme::Secded).scheme(), Scheme::Secded);
    }
}
