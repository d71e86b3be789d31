#![warn(missing_docs)]
//! A SIMT GPU simulator with a protected register-file model — the
//! execution substrate of the Penny reproduction (stand-in for
//! GPGPU-Sim, per `DESIGN.md`).
//!
//! The simulator executes `penny-ir` kernels functionally (warps, SIMT
//! divergence with post-dominator reconvergence, barriers, atomics,
//! shared/global memories) under a warp-level timing model whose three
//! load-bearing effects are occupancy-dependent latency hiding, a
//! store-throughput-limited memory pipeline, and occupancy derived from
//! register/shared-memory pressure. The register file stores codewords
//! of a configurable scheme: parity (EDC) detections trigger **Penny's
//! idempotent recovery**; SECDED (ECC) corrects inline; an unprotected
//! RF corrupts silently.
//!
//! # Examples
//!
//! ```
//! use penny_core::{compile, LaunchDims, PennyConfig};
//! use penny_sim::{Gpu, GpuConfig, LaunchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = penny_ir::parse_kernel(r#"
//!     .kernel inc .params A
//!     entry:
//!         mov.u32 %r0, %tid.x
//!         ld.param.u32 %r1, [A]
//!         mad.u32 %r2, %r0, 4, %r1
//!         ld.global.u32 %r3, [%r2]
//!         add.u32 %r4, %r3, 1
//!         st.global.u32 [%r2], %r4
//!         ret
//! "#)?;
//! let dims = LaunchDims::linear(1, 64);
//! let config = PennyConfig::penny().with_launch(dims);
//! let protected = compile(&kernel, &config)?;
//!
//! let mut gpu = Gpu::new(GpuConfig::fermi());
//! gpu.global_mut().write_slice(0x1000, &vec![7u32; 64]);
//! let stats = gpu.run(&protected, &LaunchConfig::new(dims, vec![0x1000]))?;
//! assert_eq!(gpu.global().read_slice(0x1000, 64), vec![8u32; 64]);
//! assert!(stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod alu;
pub mod config;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod gen;
pub mod memory;
pub mod persist;
pub mod program;
pub mod recovery;
pub mod regfile;
pub mod snapshot;
pub mod warp;

use std::error::Error;
use std::fmt;

pub use config::{GpuConfig, RfProtection};
pub use engine::{LaunchConfig, RunStats};
pub use fault::{FaultPlan, Injection};
pub use memory::{GlobalMemory, SharedMemory};
pub use persist::{LoadError, RECORDING_FORMAT_VERSION};
pub use program::{DKind, DSrc, DecodedInst, Program, NO_REG};
pub use regfile::{ReadOutcome, RegFile, RfStats};
pub use snapshot::{
    Recording, RecordingCounters, RegionEntry, SiteClass, SiteRun, WarpStream,
};

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Launch configuration inconsistent with the kernel.
    BadLaunch(String),
    /// Recovery metadata missing or malformed.
    BadMetadata(String),
    /// A detected RF error with no recovery path (EDC without Penny
    /// metadata, or an uncorrectable pattern under ECC).
    UnrecoverableFault {
        /// Kernel name.
        kernel: String,
        /// Victim register id.
        reg: u32,
    },
    /// The machine made no progress (likely a barrier deadlock).
    Deadlock(String),
    /// The watchdog budget ([`GpuConfig::cycle_limit`]) was exhausted:
    /// the simulation was still making (possibly degenerate) progress
    /// but ran far beyond any plausible cycle count.
    CycleLimit {
        /// Kernel name.
        kernel: String,
        /// The configured budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadLaunch(m) => write!(f, "bad launch: {m}"),
            SimError::BadMetadata(m) => write!(f, "bad recovery metadata: {m}"),
            SimError::UnrecoverableFault { kernel, reg } => {
                write!(f, "unrecoverable register-file fault in `{kernel}` (reg {reg})")
            }
            SimError::Deadlock(k) => write!(f, "no forward progress in `{k}`"),
            SimError::CycleLimit { kernel, limit } => {
                write!(f, "`{kernel}` exceeded the cycle budget of {limit} cycles")
            }
        }
    }
}

impl Error for SimError {}

/// The simulated GPU: configuration plus device (global) memory.
///
/// Global memory persists across launches, like a real device: write
/// inputs, run one or more kernels, read outputs.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    global: GlobalMemory,
}

impl Gpu {
    /// Creates a GPU with empty device memory.
    pub fn new(config: GpuConfig) -> Gpu {
        Gpu { config, global: GlobalMemory::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Device memory (read access).
    pub fn global(&self) -> &GlobalMemory {
        &self.global
    }

    /// Device memory (host writes).
    pub fn global_mut(&mut self) -> &mut GlobalMemory {
        &mut self.global
    }

    /// Launches a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on launch/metadata mismatches, unrecoverable
    /// faults, or deadlock.
    pub fn run(
        &mut self,
        protected: &penny_core::Protected,
        launch: &LaunchConfig,
    ) -> Result<RunStats, SimError> {
        engine::run(&self.config, protected, launch, &mut self.global)
    }

    /// Launches a kernel and records a `sim` span on `rec`.
    ///
    /// Identical to [`Gpu::run`] when the recorder is disabled — the
    /// span (and its wall-clock read) only materializes for an enabled
    /// recorder.
    ///
    /// # Errors
    ///
    /// Same as [`Gpu::run`].
    pub fn run_observed(
        &mut self,
        protected: &penny_core::Protected,
        launch: &LaunchConfig,
        rec: &dyn penny_obs::Recorder,
    ) -> Result<RunStats, SimError> {
        engine::run_observed(&self.config, protected, launch, &mut self.global, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_core::{compile, LaunchDims, PennyConfig};

    fn inc_kernel() -> penny_ir::Kernel {
        penny_ir::parse_kernel(
            r#"
            .kernel inc .params A
            entry:
                mov.u32 %r0, %tid.x
                mov.u32 %r5, %ctaid.x
                mov.u32 %r6, %ntid.x
                mad.u32 %r7, %r5, %r6, %r0
                ld.param.u32 %r1, [A]
                mad.u32 %r2, %r7, 4, %r1
                ld.global.u32 %r3, [%r2]
                add.u32 %r4, %r3, 1
                st.global.u32 [%r2], %r4
                ret
        "#,
        )
        .expect("parse")
    }

    #[test]
    fn baseline_run_computes_correctly() {
        let dims = LaunchDims::linear(2, 64);
        let cfg = PennyConfig::unprotected().with_launch(dims);
        let p = compile(&inc_kernel(), &cfg).expect("compile");
        let mut gpu = Gpu::new(GpuConfig::fermi().with_rf(RfProtection::None));
        gpu.global_mut().write_slice(0x1000, &(0..128).collect::<Vec<u32>>());
        let stats = gpu.run(&p, &LaunchConfig::new(dims, vec![0x1000])).expect("run");
        let out = gpu.global().read_slice(0x1000, 128);
        assert_eq!(out, (1..=128).collect::<Vec<u32>>());
        assert!(stats.cycles > 0);
        assert!(stats.instructions >= 128 * 9);
    }

    #[test]
    fn penny_protected_run_matches_baseline_output() {
        let dims = LaunchDims::linear(2, 64);
        let cfg = PennyConfig::penny().with_launch(dims);
        let p = compile(&inc_kernel(), &cfg).expect("compile");
        let mut gpu = Gpu::new(GpuConfig::fermi());
        gpu.global_mut().write_slice(0x1000, &(0..128).collect::<Vec<u32>>());
        gpu.run(&p, &LaunchConfig::new(dims, vec![0x1000])).expect("run");
        assert_eq!(gpu.global().read_slice(0x1000, 128), (1..=128).collect::<Vec<u32>>());
    }

    #[test]
    fn param_count_mismatch_is_rejected() {
        let dims = LaunchDims::linear(1, 32);
        let cfg = PennyConfig::unprotected().with_launch(dims);
        let p = compile(&inc_kernel(), &cfg).expect("compile");
        let mut gpu = Gpu::new(GpuConfig::fermi().with_rf(RfProtection::None));
        let err = gpu.run(&p, &LaunchConfig::new(dims, vec![])).expect_err("must fail");
        assert!(matches!(err, SimError::BadLaunch(_)));
    }
}
