//! Instructions and operands.

use crate::types::{AtomOp, Cmp, Color, InstId, MemSpace, RegionId, Special, Type, VReg};

/// Maximum source-operand arity of any opcode (`mad`/`selp` take 3).
///
/// Execution layers may rely on this to lower instructions into
/// fixed-size operand slots; [`crate::validate`] enforces it.
pub const MAX_SRCS: usize = 3;

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A virtual register.
    Reg(VReg),
    /// A 32-bit immediate, stored as its bit pattern (use
    /// [`Operand::fimm`] for floats).
    Imm(u32),
    /// A special (hardware) register.
    Special(Special),
}

impl Operand {
    /// Builds a float immediate from an `f32` value.
    pub fn fimm(v: f32) -> Operand {
        Operand::Imm(v.to_bits())
    }

    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// The immediate value, if this operand is one.
    pub fn as_imm(self) -> Option<u32> {
        match self {
            Operand::Imm(v) => Some(v),
            _ => None,
        }
    }

    /// The special register, if this operand is one.
    pub fn as_special(self) -> Option<Special> {
        match self {
            Operand::Special(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if the operand is a constant (immediate or special
    /// register, both of which are immune to RF soft errors).
    pub fn is_constant(self) -> bool {
        !matches!(self, Operand::Reg(_))
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Operand {
        Operand::Imm(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Operand {
        Operand::Special(s)
    }
}

/// A predication guard `@%p` / `@!%p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Predicate register controlling the instruction.
    pub pred: VReg,
    /// Whether the guard is negated (`@!%p`).
    pub negated: bool,
}

/// Instruction opcodes.
///
/// Semantics are those of the corresponding PTX instructions restricted to
/// 32-bit types; see `penny-sim` for the executable definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Copy `srcs[0]` to `dst`.
    Mov,
    /// `dst = srcs[0] + srcs[1]`.
    Add,
    /// `dst = srcs[0] - srcs[1]`.
    Sub,
    /// `dst = srcs[0] * srcs[1]` (low 32 bits for integers).
    Mul,
    /// High 32 bits of the 64-bit integer product.
    MulHi,
    /// `dst = srcs[0] * srcs[1] + srcs[2]`.
    Mad,
    /// `dst = srcs[0] / srcs[1]`.
    Div,
    /// `dst = srcs[0] % srcs[1]` (integers only).
    Rem,
    /// `dst = min(srcs[0], srcs[1])`.
    Min,
    /// `dst = max(srcs[0], srcs[1])`.
    Max,
    /// `dst = -srcs[0]`.
    Neg,
    /// `dst = |srcs[0]|`.
    Abs,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not.
    Not,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Compare and set predicate: `dst(pred) = srcs[0] <cmp> srcs[1]`.
    Setp(Cmp),
    /// Select by predicate: `dst = srcs[2] ? srcs[0] : srcs[1]`.
    Selp,
    /// Convert between integer and float; `ty` is the destination type,
    /// the source type rides in [`Inst::ty2`].
    Cvt,
    /// `dst = sqrt(srcs[0])` (f32).
    Sqrt,
    /// `dst = 1/sqrt(srcs[0])` (f32).
    Rsqrt,
    /// `dst = 1/srcs[0]` (f32).
    Rcp,
    /// `dst = 2^srcs[0]` (f32).
    Ex2,
    /// `dst = log2(srcs[0])` (f32).
    Lg2,
    /// `dst = sin(srcs[0])` (f32).
    Sin,
    /// `dst = cos(srcs[0])` (f32).
    Cos,
    /// Load: `dst = [srcs[0] + offset]` from the given space.
    Ld(MemSpace),
    /// Store: `[srcs[0] + offset] = srcs[1]` to the given space.
    St(MemSpace),
    /// Atomic RMW in the given space: `dst = old; [addr] = op(old, srcs[1..])`.
    Atom(AtomOp, MemSpace),
    /// Block-wide barrier (`bar.sync`); a region boundary for Penny.
    Bar,
    /// Checkpoint pseudo-instruction: save `srcs[0]` to its slot (paper's
    /// `cp r, K`). Lowered to address math + a store by code generation.
    Ckpt(Color),
    /// Region-entry marker pseudo-instruction emitted by region formation.
    RegionEntry(RegionId),
    /// No operation.
    Nop,
}

impl Op {
    /// Returns `true` for the compiler pseudo-ops that never reach the
    /// simulator after code generation.
    pub fn is_pseudo(self) -> bool {
        matches!(self, Op::Ckpt(_))
    }

    /// Returns `true` if this opcode reads memory.
    pub fn reads_memory(self) -> bool {
        matches!(self, Op::Ld(_) | Op::Atom(..))
    }

    /// Returns `true` if this opcode writes memory.
    pub fn writes_memory(self) -> bool {
        matches!(self, Op::St(_) | Op::Atom(..))
    }

    /// Returns `true` for synchronization instructions that Penny treats as
    /// region boundaries (paper §5, footnote 4).
    pub fn is_sync(self) -> bool {
        matches!(self, Op::Bar | Op::Atom(..))
    }

    /// Mnemonic (without type/space suffixes).
    pub fn mnemonic(self) -> String {
        match self {
            Op::Mov => "mov".into(),
            Op::Add => "add".into(),
            Op::Sub => "sub".into(),
            Op::Mul => "mul".into(),
            Op::MulHi => "mulhi".into(),
            Op::Mad => "mad".into(),
            Op::Div => "div".into(),
            Op::Rem => "rem".into(),
            Op::Min => "min".into(),
            Op::Max => "max".into(),
            Op::Neg => "neg".into(),
            Op::Abs => "abs".into(),
            Op::And => "and".into(),
            Op::Or => "or".into(),
            Op::Xor => "xor".into(),
            Op::Not => "not".into(),
            Op::Shl => "shl".into(),
            Op::Shr => "shr".into(),
            Op::Sra => "sra".into(),
            Op::Setp(c) => format!("setp.{c}"),
            Op::Selp => "selp".into(),
            Op::Cvt => "cvt".into(),
            Op::Sqrt => "sqrt".into(),
            Op::Rsqrt => "rsqrt".into(),
            Op::Rcp => "rcp".into(),
            Op::Ex2 => "ex2".into(),
            Op::Lg2 => "lg2".into(),
            Op::Sin => "sin".into(),
            Op::Cos => "cos".into(),
            Op::Ld(s) => format!("ld.{s}"),
            Op::St(s) => format!("st.{s}"),
            Op::Atom(a, s) => format!("atom.{s}.{a}"),
            Op::Bar => "bar.sync".into(),
            Op::Ckpt(c) => format!("cp.{c}"),
            Op::RegionEntry(_) => "region".into(),
            Op::Nop => "nop".into(),
        }
    }
}

/// A single IR instruction.
///
/// Construct instructions through [`crate::KernelBuilder`] or the
/// [`Inst::new`] family so that [`InstId`]s stay unique within a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Stable identity within the kernel.
    pub id: InstId,
    /// Opcode.
    pub op: Op,
    /// Result/operand type.
    pub ty: Type,
    /// Secondary type (source type for `cvt`).
    pub ty2: Type,
    /// Destination register, if any.
    pub dst: Option<VReg>,
    /// Source operands (address first for memory ops).
    pub srcs: Vec<Operand>,
    /// Constant byte offset for memory operands.
    pub offset: i32,
    /// Optional predication guard.
    pub guard: Option<Guard>,
}

impl Inst {
    /// Creates an instruction with the given identity.
    pub fn new(
        id: InstId,
        op: Op,
        ty: Type,
        dst: Option<VReg>,
        srcs: Vec<Operand>,
    ) -> Inst {
        Inst { id, op, ty, ty2: ty, dst, srcs, offset: 0, guard: None }
    }

    /// Sets the memory offset (builder-style).
    pub fn with_offset(mut self, offset: i32) -> Inst {
        self.offset = offset;
        self
    }

    /// Sets the guard (builder-style).
    pub fn with_guard(mut self, pred: VReg, negated: bool) -> Inst {
        self.guard = Some(Guard { pred, negated });
        self
    }

    /// Number of source operands.
    pub fn num_srcs(&self) -> usize {
        self.srcs.len()
    }

    /// The `i`-th source operand, if present — a stable accessor for
    /// execution layers that lower sources into fixed-size slots
    /// (see [`MAX_SRCS`]).
    pub fn src(&self, i: usize) -> Option<Operand> {
        self.srcs.get(i).copied()
    }

    /// Registers read by this instruction (sources + guard).
    pub fn uses(&self) -> Vec<VReg> {
        let mut v: Vec<VReg> = self.srcs.iter().filter_map(|o| o.as_reg()).collect();
        if let Some(g) = self.guard {
            v.push(g.pred);
        }
        v
    }

    /// Register written by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        self.dst
    }

    /// Returns `true` if this is a checkpoint pseudo-instruction.
    pub fn is_ckpt(&self) -> bool {
        matches!(self.op, Op::Ckpt(_))
    }

    /// The register saved by a checkpoint pseudo-instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a checkpoint or carries a
    /// non-register source.
    pub fn ckpt_reg(&self) -> VReg {
        assert!(self.is_ckpt(), "not a checkpoint: {:?}", self.op);
        self.srcs[0].as_reg().expect("checkpoint of a non-register")
    }

    /// The storage color of a checkpoint pseudo-instruction.
    pub fn ckpt_color(&self) -> Option<Color> {
        match self.op {
            Op::Ckpt(c) => Some(c),
            _ => None,
        }
    }

    /// The region started by a region-entry marker, if this is one.
    pub fn region_entry(&self) -> Option<RegionId> {
        match self.op {
            Op::RegionEntry(r) => Some(r),
            _ => None,
        }
    }

    /// Address operand of a memory instruction (`Ld`/`St`/`Atom`).
    pub fn mem_addr(&self) -> Option<(Operand, i32)> {
        if self.op.reads_memory() || self.op.writes_memory() {
            Some((self.srcs[0], self.offset))
        } else {
            None
        }
    }

    /// Memory space accessed, if this is a memory instruction.
    pub fn mem_space(&self) -> Option<MemSpace> {
        match self.op {
            Op::Ld(s) | Op::St(s) | Op::Atom(_, s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(op: Op, dst: Option<VReg>, srcs: Vec<Operand>) -> Inst {
        Inst::new(InstId(0), op, Type::U32, dst, srcs)
    }

    #[test]
    fn uses_include_guard() {
        let i = inst(Op::Add, Some(VReg(1)), vec![VReg(2).into(), VReg(3).into()])
            .with_guard(VReg(9), true);
        assert_eq!(i.uses(), vec![VReg(2), VReg(3), VReg(9)]);
        assert_eq!(i.def(), Some(VReg(1)));
    }

    #[test]
    fn immediates_are_not_uses() {
        let i = inst(Op::Add, Some(VReg(1)), vec![VReg(2).into(), Operand::Imm(7)]);
        assert_eq!(i.uses(), vec![VReg(2)]);
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Ld(MemSpace::Global).reads_memory());
        assert!(!Op::Ld(MemSpace::Global).writes_memory());
        assert!(Op::St(MemSpace::Shared).writes_memory());
        assert!(Op::Atom(AtomOp::Add, MemSpace::Global).reads_memory());
        assert!(Op::Atom(AtomOp::Add, MemSpace::Global).writes_memory());
        assert!(Op::Atom(AtomOp::Add, MemSpace::Global).is_sync());
        assert!(Op::Bar.is_sync());
        assert!(!Op::Add.is_sync());
    }

    #[test]
    fn checkpoint_helpers() {
        let c = inst(Op::Ckpt(Color::K1), None, vec![VReg(5).into()]);
        assert!(c.is_ckpt());
        assert_eq!(c.ckpt_reg(), VReg(5));
        assert_eq!(c.ckpt_color(), Some(Color::K1));
        assert!(Op::Ckpt(Color::K0).is_pseudo());
    }

    #[test]
    fn float_immediate_roundtrip() {
        let o = Operand::fimm(1.5);
        assert_eq!(o, Operand::Imm(1.5f32.to_bits()));
        assert!(o.is_constant());
        assert!(Operand::Special(Special::TidX).is_constant());
        assert!(!Operand::Reg(VReg(0)).is_constant());
    }

    #[test]
    fn operand_slot_accessors() {
        let i = inst(
            Op::Mad,
            Some(VReg(0)),
            vec![VReg(1).into(), Operand::Imm(3), Special::TidX.into()],
        );
        assert_eq!(i.num_srcs(), 3);
        assert!(i.num_srcs() <= MAX_SRCS);
        assert_eq!(i.src(0), Some(Operand::Reg(VReg(1))));
        assert_eq!(i.src(1), Some(Operand::Imm(3)));
        assert_eq!(i.src(2), Some(Operand::Special(Special::TidX)));
        assert_eq!(i.src(3), None);
        assert_eq!(Operand::Imm(3).as_imm(), Some(3));
        assert_eq!(Operand::Reg(VReg(1)).as_imm(), None);
        assert_eq!(Operand::Special(Special::TidX).as_special(), Some(Special::TidX));
        assert_eq!(Operand::Imm(3).as_special(), None);
    }

    #[test]
    fn mem_addr_extraction() {
        let l = inst(Op::Ld(MemSpace::Global), Some(VReg(1)), vec![VReg(2).into()])
            .with_offset(8);
        assert_eq!(l.mem_addr(), Some((Operand::Reg(VReg(2)), 8)));
        assert_eq!(l.mem_space(), Some(MemSpace::Global));
        let a = inst(Op::Add, Some(VReg(1)), vec![VReg(2).into(), VReg(3).into()]);
        assert_eq!(a.mem_addr(), None);
    }
}
