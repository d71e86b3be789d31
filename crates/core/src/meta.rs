//! Compiler output: the instrumented kernel plus the resilience metadata
//! the recovery runtime consumes.

use std::collections::HashMap;

use penny_ir::{Cmp, InstId, Kernel, MemSpace, Op, RegionId, Special, Type, VReg};

pub use penny_ir::GLOBAL_CKPT_BASE;

/// A checkpoint storage slot: `index` words per thread within `space`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    /// Shared or global memory.
    pub space: MemSpace,
    /// Slot index (scaled by thread count at address time).
    pub index: u32,
}

/// One instruction of a recovery slice (paper §6.4: the code that
/// recomputes a pruned checkpoint's value at recovery time).
///
/// Slices form a little DAG program: operands are indices of earlier
/// slice instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceInst {
    /// A literal value.
    Const(u32),
    /// A special register of the recovering thread.
    Special(Special),
    /// Read this thread's checkpoint slot.
    LoadSlot(SlotRef),
    /// Re-load a memory word: address = `slice[base] + offset`.
    LoadMem {
        /// Memory space.
        space: MemSpace,
        /// Slice index of the base address.
        base: usize,
        /// Constant byte offset.
        offset: i32,
    },
    /// Apply an ALU op to earlier slice values.
    Alu {
        /// Operation (subset of IR opcodes: no memory, no control).
        op: Op,
        /// Operand type.
        ty: Type,
        /// Secondary type for `cvt`.
        ty2: Type,
        /// Slice indices of the operands.
        args: Vec<usize>,
    },
    /// Compare two earlier values, producing a predicate (0/1).
    Setp {
        /// Comparison operator.
        cmp: Cmp,
        /// Operand type.
        ty: Type,
        /// Left operand slice index.
        a: usize,
        /// Right operand slice index.
        b: usize,
    },
    /// `pred ? a : b` over earlier slice values (the executable form of a
    /// predicate dependence).
    Select {
        /// Slice index of the predicate.
        pred: usize,
        /// Value when the predicate is true.
        a: usize,
        /// Value when the predicate is false.
        b: usize,
    },
}

/// A recovery slice: evaluate instructions in order; the last value is
/// the recomputed register.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Slice {
    /// Instructions in dependency order.
    pub insts: Vec<SliceInst>,
}

impl Slice {
    /// Number of slice instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// How the recovery runtime restores one live-in register of a region.
#[derive(Debug, Clone, PartialEq)]
pub enum Restore {
    /// Load the value from a checkpoint slot.
    Slot(SlotRef),
    /// Recompute it with a recovery slice.
    Slice(Slice),
}

/// A code-generator setup register: a per-thread constant computed once
/// at kernel entry (checkpoint addressing). The recovery runtime
/// recomputes these directly instead of checkpointing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupValue {
    /// Linear thread id within the block, times 4 (byte offset).
    TidFlat4,
    /// Linear global thread id, times 4 (byte offset).
    GlobalTid4,
    /// Fully-formed byte address of this thread's word in a slot.
    SlotAddr(SlotRef),
}

/// Static description of one idempotent region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// Region id (matches the `region` marker in the code).
    pub id: RegionId,
    /// Stable id of the marker instruction.
    pub marker: InstId,
    /// Live-in registers and how to restore each.
    pub restores: Vec<(VReg, Restore)>,
}

/// Compile-time statistics (drives paper figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompileStats {
    /// Checkpoints considered before pruning.
    pub total_checkpoints: u32,
    /// Checkpoints Bolt's basic pruning would remove.
    pub pruned_basic: u32,
    /// Checkpoints only Penny's optimal pruning removes (beyond basic).
    pub pruned_additional: u32,
    /// Checkpoints remaining in the generated code.
    pub committed: u32,
    /// Idempotent regions formed.
    pub regions: u32,
    /// Registers that needed overwrite protection.
    pub overwrite_prone_regs: u32,
    /// Adjustment blocks inserted by storage alternation.
    pub adjustment_blocks: u32,
    /// Estimated registers per thread after instrumentation.
    pub regs_per_thread: u32,
    /// Shared-memory bytes of checkpoint storage per block.
    pub ckpt_shared_bytes: u32,
    /// Global-memory checkpoint slots.
    pub ckpt_global_slots: u32,
    /// Estimated occupancy (resident warps / max) after instrumentation.
    pub occupancy: f64,
}

impl Eq for RegionInfo {}

/// The compiler's output: an executable kernel plus recovery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Protected {
    /// Instrumented kernel (checkpoints lowered to real stores).
    pub kernel: Kernel,
    /// Per-region recovery information, indexed by region id.
    pub regions: Vec<RegionInfo>,
    /// Slot assignment per (register, color-index) pair.
    pub slots: HashMap<(VReg, usize), SlotRef>,
    /// Setup registers computed once at entry (checkpoint addressing);
    /// the recovery runtime recomputes these directly.
    pub setup: Vec<(VReg, SetupValue)>,
    /// First byte of shared-memory checkpoint storage (after the
    /// program's own shared data).
    pub shared_ckpt_base: u32,
    /// Bytes of shared-memory checkpoint storage per block.
    pub shared_ckpt_bytes: u32,
    /// Number of global checkpoint slots (each `total_threads` words).
    pub global_slot_count: u32,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Static fault-site classification of the final lowered kernel
    /// (present when compiled with [`crate::PennyConfig::vulnerability`]).
    pub vulnerability: Option<penny_analysis::VulnerabilityMap>,
}

impl Protected {
    /// Wraps an untransformed kernel (baseline runs).
    pub fn passthrough(kernel: Kernel) -> Protected {
        Protected {
            kernel,
            regions: Vec::new(),
            slots: HashMap::new(),
            setup: Vec::new(),
            shared_ckpt_base: 0,
            shared_ckpt_bytes: 0,
            global_slot_count: 0,
            stats: CompileStats::default(),
            vulnerability: None,
        }
    }

    /// Region info by id.
    pub fn region(&self, id: RegionId) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_has_no_metadata() {
        let k = penny_ir::Kernel::new("k", &[]);
        let p = Protected::passthrough(k);
        assert!(p.regions.is_empty());
        assert!(p.slots.is_empty());
        assert_eq!(p.stats.total_checkpoints, 0);
    }

    #[test]
    fn slice_len() {
        let s = Slice { insts: vec![SliceInst::Const(1), SliceInst::Const(2)] };
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Slice::default().is_empty());
    }
}
