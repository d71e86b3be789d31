//! Penny's recovery runtime (paper §3 footnote 3 and Appendix A).
//!
//! When parity detects a corrupted register, the runtime (1) restores
//! every live-in register of the faulting warp's current region — from
//! its checkpoint slot or by evaluating its recovery slice — (2)
//! recomputes the code generator's setup registers, and (3) rewinds the
//! warp to the region-entry snapshot. Re-execution then corrects the
//! error, no matter how many bits were corrupted.

use penny_core::{LaunchDims, Protected, Restore, SetupValue, Slice, SliceInst, SlotRef};
use penny_ir::{MemSpace, RegionId};

use crate::engine::{special_value, thread_tid, BlockCtx};
use crate::memory::GlobalMemory;
use crate::regfile::{RfStats, WARP_LANES};
use crate::SimError;

/// Byte address of `thread`'s word in a checkpoint slot.
pub fn slot_addr(
    slot: &SlotRef,
    protected: &Protected,
    dims: &LaunchDims,
    cta_linear: u32,
    tid_flat: u32,
) -> u32 {
    let base = penny_core::codegen::slot_base(slot, protected.shared_ckpt_base, dims);
    match slot.space {
        MemSpace::Shared => base + tid_flat * 4,
        _ => base + (cta_linear * dims.threads_per_block() + tid_flat) * 4,
    }
}

/// Restores all live-ins of `region` for every lane of warp `wi` in
/// block `bi`. Returns the number of restore operations performed (for
/// the timing charge).
///
/// Each register is restored as one row over the warp's live lanes.
/// Restores and setup values read memory and thread coordinates, never
/// registers, so the order in which rows and lanes are written is not
/// observable.
#[allow(clippy::too_many_arguments)]
pub fn restore_warp(
    protected: &Protected,
    dims: &LaunchDims,
    region: RegionId,
    bi: usize,
    wi: usize,
    blocks: &mut [BlockCtx],
    global: &mut GlobalMemory,
    params: &[u32],
    rf_stats: &mut RfStats,
) -> Result<u32, SimError> {
    let info = protected
        .region(region)
        .ok_or_else(|| SimError::BadMetadata(format!("no metadata for {region}")))?;
    let (base_thread, width) = {
        let w = &blocks[bi].warps[wi];
        (w.base_thread, w.width as usize)
    };
    let live = u32::MAX >> (WARP_LANES - width);
    let cta = blocks[bi].cta;
    let cta_linear = cta.0 + cta.1 * dims.grid.0;
    let mut row = [0u32; WARP_LANES];
    // Live-in restores.
    for (reg, restore) in &info.restores {
        for (lane, value) in row.iter_mut().enumerate().take(width) {
            let tid_flat = base_thread + lane as u32;
            *value = match restore {
                Restore::Slot(slot) => {
                    let addr = slot_addr(slot, protected, dims, cta_linear, tid_flat);
                    read_slot(blocks, bi, global, slot.space, addr)
                }
                Restore::Slice(slice) => eval_slice(
                    slice,
                    protected,
                    dims,
                    blocks,
                    bi,
                    global,
                    params,
                    thread_tid(tid_flat, dims),
                    cta,
                    tid_flat,
                    cta_linear,
                )?,
            };
        }
        blocks[bi].rfs[wi].write_row(reg.index(), live, &row, rf_stats);
    }
    // Setup registers (checkpoint addressing).
    for (reg, sv) in &protected.setup {
        for (lane, value) in row.iter_mut().enumerate().take(width) {
            let tid_flat = base_thread + lane as u32;
            *value = match sv {
                SetupValue::TidFlat4 => tid_flat * 4,
                SetupValue::GlobalTid4 => {
                    (cta_linear * dims.threads_per_block() + tid_flat) * 4
                }
                SetupValue::SlotAddr(slot) => {
                    slot_addr(slot, protected, dims, cta_linear, tid_flat)
                }
            };
        }
        blocks[bi].rfs[wi].write_row(reg.index(), live, &row, rf_stats);
    }
    Ok((width * (info.restores.len() + protected.setup.len())) as u32)
}

fn read_slot(
    blocks: &mut [BlockCtx],
    bi: usize,
    global: &mut GlobalMemory,
    space: MemSpace,
    addr: u32,
) -> u32 {
    match space {
        MemSpace::Shared => blocks[bi].shared.read(addr),
        _ => global.read(addr),
    }
}

/// Evaluates one recovery slice for one thread.
#[allow(clippy::too_many_arguments)]
pub fn eval_slice(
    slice: &Slice,
    protected: &Protected,
    dims: &LaunchDims,
    blocks: &mut [BlockCtx],
    bi: usize,
    global: &mut GlobalMemory,
    params: &[u32],
    tid: (u32, u32),
    cta: (u32, u32),
    tid_flat: u32,
    cta_linear: u32,
) -> Result<u32, SimError> {
    let mut values: Vec<u32> = Vec::with_capacity(slice.len());
    for inst in &slice.insts {
        let v = match inst {
            SliceInst::Const(c) => *c,
            SliceInst::Special(s) => special_value(*s, tid, cta, dims),
            SliceInst::LoadSlot(slot) => {
                let addr = slot_addr(slot, protected, dims, cta_linear, tid_flat);
                read_slot(blocks, bi, global, slot.space, addr)
            }
            SliceInst::LoadMem { space, base, offset } => {
                let addr = values[*base].wrapping_add(*offset as u32);
                match space {
                    MemSpace::Global | MemSpace::Const => global.read(addr),
                    MemSpace::Shared | MemSpace::Local => blocks[bi].shared.read(addr),
                    MemSpace::Param => {
                        params.get((addr / 4) as usize).copied().unwrap_or(0)
                    }
                }
            }
            SliceInst::Alu { op, ty, ty2, args } => {
                // Slice args mirror instruction sources, so the arity
                // cap `penny_ir::MAX_SRCS` applies; gather into fixed
                // slots like the decoded engine path.
                let mut srcs = [0u32; penny_ir::MAX_SRCS];
                for (s, &a) in srcs.iter_mut().zip(args) {
                    *s = values[a];
                }
                crate::alu::eval(*op, *ty, *ty2, &srcs[..args.len()])
            }
            SliceInst::Setp { cmp, ty, a, b } => {
                crate::alu::eval_cmp(*cmp, *ty, values[*a], values[*b]) as u32
            }
            SliceInst::Select { pred, a, b } => {
                if values[*pred] != 0 {
                    values[*a]
                } else {
                    values[*b]
                }
            }
        };
        values.push(v);
    }
    values
        .last()
        .copied()
        .ok_or_else(|| SimError::BadMetadata("empty recovery slice".into()))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use penny_core::{CompileStats, RegionInfo, SetupValue, SliceInst, GLOBAL_CKPT_BASE};
    use penny_ir::{Cmp, InstId, Kernel, MemSpace, Op, Special, Type, VReg};

    use super::*;
    use crate::config::RfProtection;
    use crate::memory::SharedMemory;
    use crate::regfile::{RegFile, RfStats};
    use crate::warp::Warp;

    const NREGS: usize = 8;
    const SHARED_BASE: u32 = 16;

    fn dims() -> LaunchDims {
        LaunchDims::linear(2, 4) // 2 blocks × 4 threads
    }

    /// One hand-built resident block of 4 threads in a single warp.
    fn block(width: u32) -> BlockCtx {
        BlockCtx {
            index: 0,
            cta: (0, 0),
            shared: SharedMemory::new(SHARED_BASE + 64),
            rfs: vec![RegFile::warp(NREGS, RfProtection::None)],
            warps: vec![Warp::new(0, 0, width, 0, 0)],
        }
    }

    /// Thread `t`'s value of register `reg` in `block`.
    fn peek(block: &BlockCtx, t: usize, reg: usize) -> u32 {
        let rf = &block.rfs[0];
        rf.peek(rf.cell(reg, t))
    }

    fn shared_slot(index: u32) -> SlotRef {
        SlotRef { space: MemSpace::Shared, index }
    }

    fn global_slot(index: u32) -> SlotRef {
        SlotRef { space: MemSpace::Global, index }
    }

    /// Metadata with one region whose live-ins are given directly.
    fn protected(
        restores: Vec<(VReg, Restore)>,
        setup: Vec<(VReg, SetupValue)>,
    ) -> Protected {
        Protected {
            kernel: Kernel::new("t", &[]),
            regions: vec![RegionInfo {
                id: penny_ir::RegionId(0),
                marker: InstId(0),
                restores,
            }],
            slots: HashMap::new(),
            setup,
            shared_ckpt_base: SHARED_BASE,
            shared_ckpt_bytes: 64,
            global_slot_count: 2,
            stats: CompileStats::default(),
            vulnerability: None,
        }
    }

    fn eval(
        slice: &Slice,
        p: &Protected,
        blocks: &mut [BlockCtx],
        global: &mut GlobalMemory,
        params: &[u32],
        tid: (u32, u32),
    ) -> Result<u32, SimError> {
        let d = dims();
        let tid_flat = tid.0;
        eval_slice(slice, p, &d, blocks, 0, global, params, tid, (0, 0), tid_flat, 0)
    }

    #[test]
    fn slice_const_special_alu() {
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        let slice = Slice {
            insts: vec![
                SliceInst::Const(5),
                SliceInst::Special(Special::TidX),
                SliceInst::Alu {
                    op: Op::Add,
                    ty: Type::U32,
                    ty2: Type::U32,
                    args: vec![0, 1],
                },
            ],
        };
        for t in 0..4u32 {
            let v = eval(&slice, &p, &mut blocks, &mut global, &[], (t, 0)).unwrap();
            assert_eq!(v, 5 + t, "slice is per-thread");
        }
    }

    #[test]
    fn slice_guarded_select_takes_both_arms() {
        // The executable form of a guarded (predicated) instruction:
        // setp feeds a select, so recovery works on either path.
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        let guarded = |a: u32, b: u32| Slice {
            insts: vec![
                SliceInst::Const(a),
                SliceInst::Const(b),
                SliceInst::Setp { cmp: Cmp::Lt, ty: Type::U32, a: 0, b: 1 },
                SliceInst::Const(111),
                SliceInst::Const(222),
                SliceInst::Select { pred: 2, a: 3, b: 4 },
            ],
        };
        let t = eval(&guarded(3, 7), &p, &mut blocks, &mut global, &[], (0, 0)).unwrap();
        assert_eq!(t, 111, "predicate true selects the first arm");
        let f = eval(&guarded(7, 3), &p, &mut blocks, &mut global, &[], (0, 0)).unwrap();
        assert_eq!(f, 222, "predicate false selects the second arm");
    }

    #[test]
    fn slice_loads_shared_and_global_slots() {
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        // Shared slot 0 lives at shared_ckpt_base, one word per thread.
        for t in 0..4u32 {
            blocks[0].shared.write(SHARED_BASE + t * 4, 100 + t);
        }
        // Global slot 1 lives in the arena, one word per *global* thread.
        let total_threads = dims().threads_per_block() * 2;
        let g1 = GLOBAL_CKPT_BASE + total_threads * 4;
        for t in 0..4u32 {
            global.write(g1 + t * 4, 200 + t);
        }
        let sh = Slice { insts: vec![SliceInst::LoadSlot(shared_slot(0))] };
        let gl = Slice { insts: vec![SliceInst::LoadSlot(global_slot(1))] };
        for t in 0..4u32 {
            let v = eval(&sh, &p, &mut blocks, &mut global, &[], (t, 0)).unwrap();
            assert_eq!(v, 100 + t, "shared slot is per-thread within the block");
            let v = eval(&gl, &p, &mut blocks, &mut global, &[], (t, 0)).unwrap();
            assert_eq!(v, 200 + t, "global slot is per-global-thread");
        }
    }

    #[test]
    fn slice_reloads_params_and_memory() {
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        global.write(0x40, 77);
        let params = [10, 20, 30];
        // Param reload: address 8 → word 2 of the parameter block.
        let param = Slice {
            insts: vec![
                SliceInst::Const(8),
                SliceInst::LoadMem { space: MemSpace::Param, base: 0, offset: 0 },
            ],
        };
        assert_eq!(
            eval(&param, &p, &mut blocks, &mut global, &params, (0, 0)).unwrap(),
            30
        );
        // Global reload with a constant offset off a computed base.
        let mem = Slice {
            insts: vec![
                SliceInst::Const(0x3C),
                SliceInst::LoadMem { space: MemSpace::Global, base: 0, offset: 4 },
            ],
        };
        assert_eq!(eval(&mem, &p, &mut blocks, &mut global, &params, (0, 0)).unwrap(), 77);
    }

    #[test]
    fn empty_slice_is_bad_metadata() {
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        let err = eval(&Slice::default(), &p, &mut blocks, &mut global, &[], (0, 0))
            .expect_err("empty slice has no value");
        assert!(matches!(err, SimError::BadMetadata(_)), "{err:?}");
    }

    #[test]
    fn restore_warp_slots_slices_and_setup() {
        // Live-ins: r3 from a shared slot, r4 from a global slot, r5 from
        // a constant slice. Setup: r6 = tid_flat*4, r7 = this thread's
        // global slot-0 address.
        let slice5 = Slice { insts: vec![SliceInst::Const(0xAB)] };
        let p = protected(
            vec![
                (VReg(3), Restore::Slot(shared_slot(0))),
                (VReg(4), Restore::Slot(global_slot(0))),
                (VReg(5), Restore::Slice(slice5)),
            ],
            vec![
                (VReg(6), SetupValue::TidFlat4),
                (VReg(7), SetupValue::SlotAddr(global_slot(0))),
            ],
        );
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        let mut stats = RfStats::default();
        for t in 0..4u32 {
            blocks[0].shared.write(SHARED_BASE + t * 4, 100 + t);
            global.write(GLOBAL_CKPT_BASE + t * 4, 200 + t);
        }
        let ops = restore_warp(
            &p,
            &dims(),
            penny_ir::RegionId(0),
            0,
            0,
            &mut blocks,
            &mut global,
            &[],
            &mut stats,
        )
        .expect("restore");
        assert_eq!(ops, 4 * 5, "restores + setup per lane");
        assert_eq!(stats.writes, 4 * 5, "one write per restored cell");
        for t in 0..4usize {
            let b = &blocks[0];
            assert_eq!(peek(b, t, 3), 100 + t as u32, "shared-slot restore");
            assert_eq!(peek(b, t, 4), 200 + t as u32, "global-slot restore");
            assert_eq!(peek(b, t, 5), 0xAB, "slice restore");
            assert_eq!(peek(b, t, 6), t as u32 * 4, "TidFlat4 setup");
            assert_eq!(peek(b, t, 7), GLOBAL_CKPT_BASE + t as u32 * 4, "SlotAddr setup");
        }
    }

    #[test]
    fn restore_warp_respects_partial_width() {
        let p = protected(vec![(VReg(3), Restore::Slot(shared_slot(0)))], vec![]);
        let mut blocks = [block(2)]; // tail warp: only lanes 0 and 1 live
        let mut global = GlobalMemory::new();
        let mut stats = RfStats::default();
        for t in 0..4u32 {
            blocks[0].shared.write(SHARED_BASE + t * 4, 100 + t);
            let rf = &mut blocks[0].rfs[0];
            rf.write(rf.cell(3, t as usize), 0xDEAD, &mut stats);
        }
        let ops = restore_warp(
            &p,
            &dims(),
            penny_ir::RegionId(0),
            0,
            0,
            &mut blocks,
            &mut global,
            &[],
            &mut stats,
        )
        .expect("restore");
        assert_eq!(ops, 2);
        assert_eq!(peek(&blocks[0], 0, 3), 100);
        assert_eq!(peek(&blocks[0], 1, 3), 101);
        assert_eq!(peek(&blocks[0], 2, 3), 0xDEAD, "dead lane untouched");
        assert_eq!(peek(&blocks[0], 3, 3), 0xDEAD, "dead lane untouched");
    }

    #[test]
    fn restore_warp_unknown_region_is_bad_metadata() {
        let p = protected(vec![], vec![]);
        let mut blocks = [block(4)];
        let mut global = GlobalMemory::new();
        let mut stats = RfStats::default();
        let err = restore_warp(
            &p,
            &dims(),
            penny_ir::RegionId(42),
            0,
            0,
            &mut blocks,
            &mut global,
            &[],
            &mut stats,
        )
        .expect_err("region 42 has no metadata");
        assert!(matches!(err, SimError::BadMetadata(_)), "{err:?}");
    }
}
