//! Kernel verifier.
//!
//! Catches malformed IR early: bad operand arity, non-predicate guards,
//! possibly-undefined register uses, and duplicated instruction ids.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::block::Terminator;
use crate::inst::{Inst, Op};
use crate::kernel::Kernel;
use crate::types::{Loc, Type};
use crate::{Orphans, UndefinedRead};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Offending location (if attributable to one instruction).
    pub loc: Option<Loc>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.loc {
            Some(l) => write!(f, "{l}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl Error for ValidateError {}

fn fail(loc: Option<Loc>, message: impl Into<String>) -> Result<(), ValidateError> {
    Err(ValidateError { loc, message: message.into() })
}

fn expected_srcs(op: Op) -> Option<usize> {
    Some(match op {
        Op::Mov
        | Op::Neg
        | Op::Abs
        | Op::Not
        | Op::Cvt
        | Op::Sqrt
        | Op::Rsqrt
        | Op::Rcp
        | Op::Ex2
        | Op::Lg2
        | Op::Sin
        | Op::Cos
        | Op::Ld(_)
        | Op::Ckpt(_) => 1,
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::MulHi
        | Op::Div
        | Op::Rem
        | Op::Min
        | Op::Max
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::Shr
        | Op::Sra
        | Op::Setp(_)
        | Op::St(_)
        | Op::Atom(..) => 2,
        Op::Mad | Op::Selp => 3,
        Op::Bar | Op::RegionEntry(_) | Op::Nop => 0,
    })
}

fn needs_dst(op: Op) -> bool {
    !matches!(op, Op::St(_) | Op::Bar | Op::Ckpt(_) | Op::RegionEntry(_) | Op::Nop)
}

/// Verifies structural well-formedness of a kernel.
///
/// # Errors
///
/// Returns the first violation found:
/// * wrong operand count or missing/unexpected destination,
/// * a non-predicate register used as a guard, branch condition, or `selp`
///   selector — or a predicate register used as a data operand,
/// * a register that may be read before any definition reaches it,
/// * duplicate instruction ids.
pub fn validate(kernel: &Kernel) -> Result<(), ValidateError> {
    let mut seen_ids = HashSet::new();
    for (loc, inst) in kernel.locs() {
        check_inst(kernel, loc, inst)?;
        if !seen_ids.insert(inst.id) {
            fail(Some(loc), format!("duplicate instruction id {}", inst.id))?;
        }
    }
    for b in kernel.block_ids() {
        if let Terminator::Branch { pred, .. } = kernel.block(b).term {
            if !kernel.is_pred(pred) {
                fail(None, format!("block {b} branches on non-predicate {pred}"))?;
            }
        }
        for s in kernel.block(b).term.successors() {
            if s.index() >= kernel.num_blocks() {
                fail(None, format!("block {b} targets out-of-range {s}"))?;
            }
        }
    }
    check_defined_before_use(kernel)
}

fn check_inst(kernel: &Kernel, loc: Loc, inst: &Inst) -> Result<(), ValidateError> {
    if inst.srcs.len() > crate::inst::MAX_SRCS {
        fail(
            Some(loc),
            format!(
                "{} carries {} sources; no opcode takes more than {}",
                inst.op.mnemonic(),
                inst.srcs.len(),
                crate::inst::MAX_SRCS
            ),
        )?;
    }
    if let Some(n) = expected_srcs(inst.op) {
        if inst.srcs.len() != n {
            fail(
                Some(loc),
                format!(
                    "{} expects {n} sources, found {}",
                    inst.op.mnemonic(),
                    inst.srcs.len()
                ),
            )?;
        }
    }
    if needs_dst(inst.op) && inst.dst.is_none() {
        fail(Some(loc), format!("{} requires a destination", inst.op.mnemonic()))?;
    }
    if !needs_dst(inst.op) && inst.dst.is_some() && !matches!(inst.op, Op::Atom(..)) {
        fail(Some(loc), format!("{} must not have a destination", inst.op.mnemonic()))?;
    }
    if let Some(g) = inst.guard {
        if !kernel.is_pred(g.pred) {
            fail(Some(loc), format!("guard on non-predicate {}", g.pred))?;
        }
    }
    if matches!(inst.op, Op::Setp(_)) {
        if let Some(d) = inst.dst {
            if !kernel.is_pred(d) {
                fail(Some(loc), format!("setp destination {d} is not a predicate"))?;
            }
        }
    }
    if inst.op == Op::Selp {
        match inst.srcs[2].as_reg() {
            Some(p) if kernel.is_pred(p) => {}
            _ => fail(Some(loc), "selp selector must be a predicate register")?,
        }
    }
    // Predicates may not flow into data positions. Checkpoints are the
    // exception: the compiler saves live-in predicates too (they are
    // register-file state like any other).
    let data_srcs: &[usize] = match inst.op {
        Op::Selp => &[0, 1],
        Op::Setp(_) => &[0, 1],
        Op::Ckpt(_) => &[],
        _ => &[0, 1, 2][..inst.srcs.len().min(3)],
    };
    if !matches!(inst.op, Op::Setp(_)) || inst.ty != Type::Pred {
        for &i in data_srcs {
            if let Some(Some(r)) = inst.srcs.get(i).map(|o| o.as_reg()) {
                if kernel.is_pred(r) && inst.ty != Type::Pred {
                    fail(Some(loc), format!("predicate {r} used as data operand"))?;
                }
            }
        }
    }
    Ok(())
}

/// Rejects the first read that some path reaches with no definition
/// (see [`crate::undefined_reads`]); a non-entry block without
/// predecessors starts from the empty set.
fn check_defined_before_use(kernel: &Kernel) -> Result<(), ValidateError> {
    match crate::undefined_reads(kernel, Orphans::DefineNothing).first() {
        None => Ok(()),
        Some(&UndefinedRead { block, idx: Some(idx), reg }) => fail(
            Some(Loc { block, idx }),
            format!("register {reg} may be used before definition"),
        ),
        Some(&UndefinedRead { block, idx: None, reg }) => {
            fail(None, format!("branch predicate {reg} in {block} may be undefined"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::parser::parse_kernel;
    use crate::types::{Cmp, MemSpace, Special, VReg};

    #[test]
    fn accepts_wellformed_kernel() {
        let src = r#"
            .kernel k .params A N
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [N]
                setp.lt.s32 %p0, %r0, %r1
                bra %p0, body, exit
            body:
                ld.param.u32 %r2, [A]
                mad.u32 %r3, %r0, 4, %r2
                ld.global.u32 %r4, [%r3]
                add.u32 %r5, %r4, 1
                st.global.u32 [%r3], %r5
                jmp exit
            exit:
                ret
        "#;
        let k = parse_kernel(src).expect("parse");
        validate(&k).expect("valid");
    }

    #[test]
    fn rejects_use_before_def() {
        let src = ".kernel k\nentry:\n add.u32 %r1, %r2, %r3\n ret\n";
        let k = parse_kernel(src).expect("parse");
        let e = validate(&k).expect_err("invalid");
        assert!(e.message.contains("before definition"), "{e}");
    }

    #[test]
    fn rejects_one_armed_definition() {
        // %r9 defined only on the `then` path but used at the join.
        let src = r#"
            .kernel k
            entry:
                setp.eq.u32 %p0, 1, 1
                bra %p0, a, b
            a:
                mov.u32 %r9, 3
                jmp join
            b:
                jmp join
            join:
                add.u32 %r1, %r9, 1
                ret
        "#;
        let k = parse_kernel(src).expect("parse");
        let e = validate(&k).expect_err("invalid");
        assert!(e.message.contains("%r"), "{e}");
    }

    #[test]
    fn accepts_loop_carried_register_defined_before_loop() {
        let src = r#"
            .kernel k
            entry:
                mov.u32 %r0, 0
                mov.u32 %r1, 0
                jmp loop
            loop:
                add.u32 %r1, %r1, %r0
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 10
                bra %p0, loop, exit
            exit:
                ret
        "#;
        let k = parse_kernel(src).expect("parse");
        validate(&k).expect("valid");
    }

    #[test]
    fn rejects_nonpred_guard() {
        let mut b = KernelBuilder::new("k", &[]);
        b.block("entry");
        let x = b.imm(1);
        let y = b.imm(2);
        // Forge a guard on a non-predicate register.
        let mut k = b.finish();
        let add = k.make_inst(Op::Add, Type::U32, Some(VReg(99)), vec![x.into(), y.into()]);
        k.note_vreg(VReg(99));
        let mut add = add;
        add.guard = Some(crate::inst::Guard { pred: x, negated: false });
        k.block_mut(crate::types::BlockId(0)).insts.push(add);
        let e = validate(&k).expect_err("invalid");
        assert!(e.message.contains("guard on non-predicate"), "{e}");
    }

    #[test]
    fn rejects_predicate_as_data() {
        let mut b = KernelBuilder::new("k", &[]);
        b.block("entry");
        let p = b.setp(Cmp::Eq, Type::U32, 1u32, 1u32);
        let _ = b.add(Type::U32, p, 1u32);
        b.ret();
        let k = b.finish();
        let e = validate(&k).expect_err("invalid");
        assert!(e.message.contains("used as data"), "{e}");
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut k = Kernel::new("k", &[]);
        let b = k.add_block("entry");
        let i = k.make_inst(Op::Add, Type::U32, Some(VReg(0)), vec![]);
        k.note_vreg(VReg(0));
        k.block_mut(b).insts.push(i);
        let e = validate(&k).expect_err("invalid");
        assert!(e.message.contains("expects 2 sources"), "{e}");
    }

    #[test]
    fn guarded_store_is_fine() {
        let mut b = KernelBuilder::new("k", &["A"]);
        b.block("entry");
        let a = b.ld_param("A");
        let t = b.special(Special::TidX);
        let p = b.setp(Cmp::Lt, Type::U32, t, 16u32);
        b.guarded(p, false, |b| b.st(MemSpace::Global, a, 0, t));
        b.ret();
        validate(&b.finish()).expect("valid");
    }
}
