//! Compiler configuration: protection scheme, optimization toggles, and
//! the machine/launch parameters the storage assigner needs.

use penny_analysis::AliasOptions;

/// Which resilience transformation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No transformation (baseline).
    None,
    /// iGPU (Menon et al.): idempotent regions via anti-dependence register
    /// renaming; requires an ECC-protected RF for correct recovery.
    IGpu,
    /// Bolt (Liu et al.) adapted to GPU: eager LUP checkpointing with
    /// basic random-search pruning.
    Bolt,
    /// Penny: all optimizations available (subject to the toggles below).
    Penny,
}

/// Where committed checkpoints are stored (paper §6.5, figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePolicy {
    /// Everything in shared memory.
    Shared,
    /// Everything in global memory.
    Global,
    /// Automatic assignment: fill shared memory up to the
    /// occupancy-preserving budget, highest-cost registers first.
    Auto,
}

/// How checkpoint overwriting is prevented (paper §6.3, figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverwritePolicy {
    /// Register renaming (live-range splitting).
    Renaming,
    /// 2-coloring storage alternation with adjustment blocks.
    Alternation,
    /// Compile both ways, keep the cheaper (paper's auto-selection).
    Auto,
    /// No protection (unsafe; used only for the figure-11 sensitivity
    /// study).
    None,
}

/// Checkpoint pruning mode (paper §6.4, figures 12-13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningMode {
    /// Keep every checkpoint.
    None,
    /// Bolt's basic pruning: random solution search.
    Basic {
        /// RNG seed (deterministic builds).
        seed: u64,
        /// Number of random solutions attempted.
        trials: u32,
    },
    /// Penny's optimal two-phase pruning.
    Optimal,
}

/// GPU resource limits relevant to occupancy (one SM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineParams {
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Shared memory bytes per SM.
    pub shared_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
}

impl MachineParams {
    /// Fermi-generation limits (Tesla C2050-like), unscaled. No
    /// simulated machine uses them (the simulator's Fermi preset runs
    /// [`MachineParams::scaled_fermi`]); they anchor the occupancy
    /// arithmetic's unit tests.
    pub fn fermi() -> MachineParams {
        MachineParams {
            regs_per_sm: 32 * 1024,
            shared_per_sm: 48 * 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            warp_size: 32,
        }
    }

    /// Fermi limits scaled to the simulator's small launches (the
    /// paper's occupancy effects — register pressure and shared-memory
    /// footprint limiting resident blocks — bind at these values for
    /// 32-128-thread blocks; see DESIGN.md).
    pub fn scaled_fermi() -> MachineParams {
        MachineParams {
            regs_per_sm: 1536,
            shared_per_sm: 8 * 1024,
            max_warps_per_sm: 4,
            max_blocks_per_sm: 4,
            warp_size: 32,
        }
    }

    /// Volta limits scaled like [`MachineParams::scaled_fermi`].
    pub fn scaled_volta() -> MachineParams {
        MachineParams {
            regs_per_sm: 3 * 1024,
            shared_per_sm: 16 * 1024,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 8,
            warp_size: 32,
        }
    }

    /// Volta-generation limits (Titan V-like), unscaled. Like
    /// [`MachineParams::fermi`], no simulated machine uses them.
    pub fn volta() -> MachineParams {
        MachineParams {
            regs_per_sm: 64 * 1024,
            shared_per_sm: 96 * 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            warp_size: 32,
        }
    }

    /// Thread blocks resident per SM for the given per-block demands.
    ///
    /// Returns 0 when a block cannot fit at all.
    pub fn blocks_per_sm(
        &self,
        threads_per_block: u32,
        regs_per_thread: u32,
        shared_per_block: u32,
    ) -> u32 {
        if threads_per_block == 0 {
            return 0;
        }
        let warps_per_block = threads_per_block.div_ceil(self.warp_size);
        let by_warps = self
            .max_warps_per_sm
            .checked_div(warps_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_regs = self
            .regs_per_sm
            .checked_div(regs_per_thread * threads_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_shared = self
            .shared_per_sm
            .checked_div(shared_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        by_warps.min(by_regs).min(by_shared).min(self.max_blocks_per_sm)
    }

    /// Occupancy (resident warps / max warps) for the given demands.
    pub fn occupancy(
        &self,
        threads_per_block: u32,
        regs_per_thread: u32,
        shared_per_block: u32,
    ) -> f64 {
        let warps_per_block = threads_per_block.div_ceil(self.warp_size);
        let blocks =
            self.blocks_per_sm(threads_per_block, regs_per_thread, shared_per_block);
        (blocks * warps_per_block) as f64 / self.max_warps_per_sm as f64
    }
}

/// Kernel launch geometry, needed at compile time for checkpoint-slot
/// addressing and occupancy estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDims {
    /// Threads per block (x, y).
    pub block: (u32, u32),
    /// Blocks per grid (x, y).
    pub grid: (u32, u32),
}

impl LaunchDims {
    /// 1-D launch helper.
    pub fn linear(grid_x: u32, block_x: u32) -> LaunchDims {
        LaunchDims { block: (block_x, 1), grid: (grid_x, 1) }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1
    }

    /// Blocks per grid.
    pub fn blocks(&self) -> u32 {
        self.grid.0 * self.grid.1
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u32 {
        self.threads_per_block() * self.blocks()
    }
}

/// Full compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PennyConfig {
    /// Protection scheme.
    pub protection: Protection,
    /// Checkpoint storage policy.
    pub storage: StoragePolicy,
    /// Overwrite-prevention policy.
    pub overwrite: OverwritePolicy,
    /// Enable bimodal checkpoint placement (paper §6.2).
    pub bcp: bool,
    /// Pruning mode.
    pub pruning: PruningMode,
    /// Enable low-level optimizations (LICM/CSE on checkpoint address
    /// code and local scheduling; paper §6.6).
    pub low_opts: bool,
    /// Alias-analysis options for region formation.
    pub alias: AliasOptions,
    /// Machine limits for occupancy-aware storage assignment. Every
    /// preset compiles for [`MachineParams::scaled_fermi`], the machine
    /// the simulator's Fermi preset runs.
    pub machine: MachineParams,
    /// Launch geometry.
    pub launch: LaunchDims,
    /// Run the static protection-invariant validator ([`crate::check`])
    /// on the instrumented kernel and the pruning decisions; a violation
    /// fails compilation with [`crate::CompileError::Invariant`]. Debug
    /// aid — off by default.
    pub validate: bool,
    /// Run the kernel sanitizer ([`penny_analysis::lint_kernel`]) on the
    /// input kernel before any transformation; any diagnostic fails
    /// compilation with [`crate::CompileError::Lint`]. Off by default.
    pub lint: bool,
    /// Run the static vulnerability analysis
    /// ([`penny_analysis::VulnerabilityMap`]) on the final lowered
    /// kernel and attach the result to [`crate::Protected`]. Off by
    /// default; the conformance harness enables it for static pruning
    /// and translation validation.
    pub vulnerability: bool,
}

impl PennyConfig {
    fn base(protection: Protection) -> PennyConfig {
        PennyConfig {
            protection,
            storage: StoragePolicy::Auto,
            overwrite: OverwritePolicy::Auto,
            bcp: true,
            pruning: PruningMode::Optimal,
            low_opts: true,
            alias: AliasOptions::default(),
            machine: MachineParams::scaled_fermi(),
            launch: LaunchDims::linear(4, 128),
            validate: false,
            lint: false,
            vulnerability: false,
        }
    }

    /// Fully optimized Penny (the paper's headline configuration).
    pub fn penny() -> PennyConfig {
        Self::base(Protection::Penny)
    }

    /// Bolt storing all checkpoints in global memory.
    pub fn bolt_global() -> PennyConfig {
        PennyConfig {
            storage: StoragePolicy::Global,
            overwrite: OverwritePolicy::Alternation,
            bcp: false,
            pruning: PruningMode::Basic { seed: 0xB017, trials: 64 },
            low_opts: false,
            ..Self::base(Protection::Bolt)
        }
    }

    /// Bolt with Penny's automatic storage assignment.
    pub fn bolt_auto() -> PennyConfig {
        PennyConfig { storage: StoragePolicy::Auto, ..Self::bolt_global() }
    }

    /// iGPU baseline (renaming only; needs ECC RF).
    pub fn igpu() -> PennyConfig {
        PennyConfig {
            bcp: false,
            pruning: PruningMode::None,
            low_opts: false,
            ..Self::base(Protection::IGpu)
        }
    }

    /// Unprotected baseline.
    pub fn unprotected() -> PennyConfig {
        PennyConfig {
            pruning: PruningMode::None,
            bcp: false,
            ..Self::base(Protection::None)
        }
    }

    /// Penny with every optimization disabled (figure 10's `No_opt`:
    /// eager checkpointing, global storage, storage alternation).
    pub fn penny_no_opt() -> PennyConfig {
        PennyConfig {
            storage: StoragePolicy::Global,
            overwrite: OverwritePolicy::Alternation,
            bcp: false,
            pruning: PruningMode::None,
            low_opts: false,
            ..Self::base(Protection::Penny)
        }
    }

    /// Builder-style launch override.
    pub fn with_launch(mut self, launch: LaunchDims) -> PennyConfig {
        self.launch = launch;
        self
    }

    /// Builder-style machine override.
    pub fn with_machine(mut self, machine: MachineParams) -> PennyConfig {
        self.machine = machine;
        self
    }

    /// Builder-style validator toggle (see [`PennyConfig::validate`]).
    pub fn with_validation(mut self, validate: bool) -> PennyConfig {
        self.validate = validate;
        self
    }

    /// Builder-style sanitizer toggle (see [`PennyConfig::lint`]).
    pub fn with_lint(mut self, lint: bool) -> PennyConfig {
        self.lint = lint;
        self
    }

    /// Builder-style vulnerability-analysis toggle (see
    /// [`PennyConfig::vulnerability`]).
    pub fn with_vulnerability(mut self, vulnerability: bool) -> PennyConfig {
        self.vulnerability = vulnerability;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_occupancy_limits() {
        let m = MachineParams::fermi();
        // 128-thread blocks, light register/shared use: warp-limited.
        assert_eq!(m.blocks_per_sm(128, 16, 0), 8);
        // Heavy registers: 63 regs/thread * 128 threads = 8064 per block.
        assert_eq!(m.blocks_per_sm(128, 63, 0), 4);
        // Heavy shared memory: 24KB per block -> 2 blocks.
        assert_eq!(m.blocks_per_sm(128, 16, 24 * 1024), 2);
        assert!(m.occupancy(128, 16, 0) > m.occupancy(128, 63, 0));
    }

    #[test]
    fn occupancy_is_in_unit_interval() {
        let m = MachineParams::volta();
        for regs in [8, 32, 64, 128] {
            for sh in [0u32, 1024, 16 * 1024, 96 * 1024] {
                let o = m.occupancy(256, regs, sh);
                assert!((0.0..=1.0).contains(&o), "occupancy {o}");
            }
        }
    }

    #[test]
    fn launch_dims_arithmetic() {
        let l = LaunchDims { block: (16, 8), grid: (4, 2) };
        assert_eq!(l.threads_per_block(), 128);
        assert_eq!(l.blocks(), 8);
        assert_eq!(l.total_threads(), 1024);
        assert_eq!(LaunchDims::linear(2, 64).total_threads(), 128);
    }

    #[test]
    fn presets_differ_in_the_right_knobs() {
        assert_eq!(PennyConfig::bolt_global().storage, StoragePolicy::Global);
        assert_eq!(PennyConfig::bolt_auto().storage, StoragePolicy::Auto);
        assert!(matches!(PennyConfig::bolt_auto().pruning, PruningMode::Basic { .. }));
        assert_eq!(PennyConfig::penny().pruning, PruningMode::Optimal);
        assert!(PennyConfig::penny().bcp);
        assert!(!PennyConfig::igpu().bcp);
    }

    #[test]
    fn zero_thread_block_yields_zero_occupancy() {
        let m = MachineParams::fermi();
        assert_eq!(m.blocks_per_sm(0, 10, 0), 0);
    }
}
