#![warn(missing_docs)]
//! A PTX-like intermediate representation for GPU kernels.
//!
//! This crate is the substrate of the Penny reproduction: a typed,
//! virtual-register, basic-block IR modelled on NVIDIA PTX (the form the
//! Penny compiler consumes in the paper), with:
//!
//! * explicit GPU **memory spaces** (global / shared / local / param /
//!   const) — see [`MemSpace`];
//! * **predication** (instruction guards) and two-way conditional branch
//!   terminators;
//! * GPU-specific instructions: barriers, atomics, special registers
//!   (`%tid.x`, …);
//! * the compiler pseudo-instructions Penny needs: checkpoint `cp` ops
//!   ([`Op::Ckpt`]) and idempotent-region entry markers
//!   ([`Op::RegionEntry`]);
//! * a text [`parser`] / printer pair and a programmatic
//!   [`KernelBuilder`];
//! * a structural [`validate`] verifier;
//! * the generic monotone [`dataflow`] solver every fixpoint analysis
//!   of the compiler runs on, its dense [`BitSet`] state, and the
//!   [`undefined_reads`] must-defined analysis the verifier and the
//!   kernel sanitizer share.
//!
//! # Examples
//!
//! Parse, verify, and print a kernel:
//!
//! ```
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
//! penny_ir::validate(&kernel)?;
//! assert_eq!(kernel.num_insts(), 6);
//! println!("{kernel}");
//! # Ok(())
//! # }
//! ```

mod bitset;
mod block;
mod builder;
pub mod dataflow;
mod defined;
mod inst;
mod kernel;
pub mod parser;
mod printer;
mod types;
mod validate;

pub use bitset::BitSet;
pub use block::{BasicBlock, Terminator};
pub use builder::KernelBuilder;
pub use dataflow::{solve, Direction, Lattice, Solution, Steps, Transfer};
pub use defined::{undefined_reads, Orphans, UndefinedRead};
pub use inst::{Guard, Inst, Op, Operand, MAX_SRCS};
pub use kernel::{IdWatermark, Kernel, Module, Param};
pub use parser::{parse_kernel, parse_module, ParseError};
pub use types::{
    AtomOp, BlockId, Cmp, Color, InstId, Loc, MemSpace, RegionId, Special, Type, VReg,
    GLOBAL_CKPT_BASE,
};
pub use validate::{validate, ValidateError};
