//! Core identifier and enumeration types for the PTX-like IR.

use std::fmt;

/// A virtual register.
///
/// The IR uses a single register namespace for both general-purpose and
/// predicate registers; predicate registers are distinguished by their
/// [`Type::Pred`] declared type (see [`crate::Kernel::is_pred`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl VReg {
    /// Index as usize, for dense maps.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// A basic block identifier (dense index into [`crate::Kernel::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index as usize, for dense maps.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A stable instruction identity, preserved across pass pipelines.
///
/// Positions (block, index) shift as passes insert code; `InstId`s do not,
/// so checkpoint pruning decisions and cost bookkeeping key off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An idempotent region identifier assigned by region formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Index as usize, for dense maps.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A program point: instruction `idx` within block `block`.
///
/// `idx == block.insts.len()` denotes the point just before the terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Enclosing basic block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub idx: usize,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.idx)
    }
}

/// Scalar operand/result types (32-bit machine, like PTX `.u32/.s32/.f32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Type {
    /// Unsigned 32-bit integer.
    #[default]
    U32,
    /// Signed 32-bit integer.
    S32,
    /// IEEE-754 binary32 float.
    F32,
    /// One-bit predicate.
    Pred,
}

impl Type {
    /// PTX-style suffix for this type.
    pub fn suffix(self) -> &'static str {
        match self {
            Type::U32 => "u32",
            Type::S32 => "s32",
            Type::F32 => "f32",
            Type::Pred => "pred",
        }
    }

    /// Width of a value of this type in bits.
    ///
    /// Checkpoint storage sizing assumes every checkpointed register fits
    /// a 32-bit slot; the slot-width pipeline invariant checks values
    /// against this.
    pub fn width_bits(self) -> u32 {
        match self {
            Type::U32 | Type::S32 | Type::F32 => 32,
            Type::Pred => 1,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Base address of the reserved global-memory checkpoint arena.
///
/// The runtime (simulator) guarantees this region exists and is ECC
/// protected — the stand-in for the arena the paper's runtime would
/// allocate through CUDA — and allocates program data strictly below
/// it. The compiler places global checkpoint slots here; the alias
/// analysis and the sanitizer classify addresses at or above it as
/// checkpoint-arena accesses.
pub const GLOBAL_CKPT_BASE: u32 = 0xC000_0000;

/// GPU memory spaces.
///
/// `Global` and `Shared` are ECC-protected in the machine model (the paper
/// stores checkpoints there for exactly that reason); `Const` and `Param`
/// are read-only from kernel code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip DRAM, visible to all threads.
    Global,
    /// Per-thread-block on-chip scratchpad.
    Shared,
    /// Per-thread private memory (spills).
    Local,
    /// Kernel parameter space (read-only).
    Param,
    /// Constant memory (read-only).
    Const,
}

impl MemSpace {
    /// PTX-style suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Param => "param",
            MemSpace::Const => "const",
        }
    }

    /// Returns `true` if kernel code can never write this space.
    pub fn is_read_only(self) -> bool {
        matches!(self, MemSpace::Param | MemSpace::Const)
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Special (hardware) registers readable via `mov`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread id within the block, x dimension.
    TidX,
    /// Thread id within the block, y dimension.
    TidY,
    /// Block dimension, x.
    NTidX,
    /// Block dimension, y.
    NTidY,
    /// Block id within the grid, x.
    CtaIdX,
    /// Block id within the grid, y.
    CtaIdY,
    /// Grid dimension, x.
    NCtaIdX,
    /// Grid dimension, y.
    NCtaIdY,
    /// Lane id within the warp.
    LaneId,
}

impl Special {
    /// PTX-style spelling.
    pub fn name(self) -> &'static str {
        match self {
            Special::TidX => "%tid.x",
            Special::TidY => "%tid.y",
            Special::NTidX => "%ntid.x",
            Special::NTidY => "%ntid.y",
            Special::CtaIdX => "%ctaid.x",
            Special::CtaIdY => "%ctaid.y",
            Special::NCtaIdX => "%nctaid.x",
            Special::NCtaIdY => "%nctaid.y",
            Special::LaneId => "%laneid",
        }
    }

    /// All special registers (for parser tables).
    pub const ALL: [Special; 9] = [
        Special::TidX,
        Special::TidY,
        Special::NTidX,
        Special::NTidY,
        Special::CtaIdX,
        Special::CtaIdY,
        Special::NCtaIdX,
        Special::NCtaIdY,
        Special::LaneId,
    ];
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cmp {
    /// PTX-style spelling.
    pub fn name(self) -> &'static str {
        match self {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Atomic read-modify-write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Atomic add; returns the old value.
    Add,
    /// Atomic min.
    Min,
    /// Atomic max.
    Max,
    /// Atomic exchange.
    Exch,
    /// Atomic compare-and-swap (srcs: compare, new).
    Cas,
}

impl AtomOp {
    /// PTX-style spelling.
    pub fn name(self) -> &'static str {
        match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::Exch => "exch",
            AtomOp::Cas => "cas",
        }
    }
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checkpoint storage color for 2-coloring storage alternation (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// Primary storage `K0`.
    #[default]
    K0,
    /// Alternate storage `K1`.
    K1,
}

impl Color {
    /// The other color.
    pub fn flipped(self) -> Color {
        match self {
            Color::K0 => Color::K1,
            Color::K1 => Color::K0,
        }
    }

    /// Index (0 or 1) for slot addressing.
    pub fn index(self) -> usize {
        match self {
            Color::K0 => 0,
            Color::K1 => 1,
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Color::K0 => f.write_str("K0"),
            Color::K1 => f.write_str("K1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VReg(3).to_string(), "%r3");
        assert_eq!(BlockId(1).to_string(), "bb1");
        assert_eq!(RegionId(2).to_string(), "R2");
        assert_eq!(Type::F32.to_string(), "f32");
        assert_eq!(MemSpace::Shared.to_string(), "shared");
        assert_eq!(Special::TidX.to_string(), "%tid.x");
        assert_eq!(Cmp::Le.to_string(), "le");
    }

    #[test]
    fn type_widths_fit_a_32_bit_slot() {
        for ty in [Type::U32, Type::S32, Type::F32, Type::Pred] {
            assert!(ty.width_bits() <= 32, "{ty} wider than a checkpoint slot");
        }
        assert_eq!(Type::Pred.width_bits(), 1);
    }

    #[test]
    fn read_only_spaces() {
        assert!(MemSpace::Param.is_read_only());
        assert!(MemSpace::Const.is_read_only());
        assert!(!MemSpace::Global.is_read_only());
        assert!(!MemSpace::Shared.is_read_only());
        assert!(!MemSpace::Local.is_read_only());
    }

    #[test]
    fn color_flip_is_involutive() {
        assert_eq!(Color::K0.flipped(), Color::K1);
        assert_eq!(Color::K1.flipped().flipped(), Color::K1);
        assert_ne!(Color::K0.index(), Color::K1.index());
    }
}
