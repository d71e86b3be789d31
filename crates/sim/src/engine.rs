//! The SIMT execution engine: functional semantics plus a warp-level
//! timing model.
//!
//! Timing captures the three effects Penny's evaluation hinges on:
//!
//! 1. loads stall their warp for the memory latency, hidden only when
//!    enough *other* warps are resident (occupancy);
//! 2. stores occupy the SM's memory pipeline per coalesced segment, so
//!    extra checkpointing stores throttle everything behind them;
//! 3. occupancy derives from per-thread registers and per-block shared
//!    memory through the same limits the compiler's storage assigner
//!    uses.
//!
//! Faults flip RF bits; parity (EDC) raises a detection at the next read
//! of the corrupted register, and the engine then runs Penny's recovery:
//! restore the current region's live-ins (from checkpoint slots or by
//! recovery slices) and rewind the warp to the region entry snapshot.
//! The instruction the detection aborted counts only the detection: its
//! partial register reads and thread instructions are taken back, since
//! the re-execution counts them (and they would otherwise depend on the
//! lane and operand that tripped).
//!
//! # Execution paths
//!
//! Each warp has one register file ([`BlockCtx::rfs`]) whose values are
//! stored register-major: one register's lanes form a row. The hot path
//! ([`run`], [`run_reference`]) interprets the pre-decoded micro-op
//! table ([`crate::program::DecodedInst`]): fixed-size operand slots,
//! pre-resolved register indices and branch targets, and two ways to
//! gather operands:
//!
//! * the **row path**, when no operand row (guard, register sources,
//!   branch predicate) has a dirty cell in a live lane: rows are read
//!   directly, the reads counted in bulk, and results written back as a
//!   row (`RegFile::write_row`) — no codec, no per-lane file lookup;
//! * the **per-lane path**, when some operand row holds a corrupted live
//!   cell: lane by lane, operand by operand through `RegFile::read`, as
//!   before warp files existed. It stays because detection order is
//!   observable: the first dirty cell in lane-then-operand order aborts
//!   the instruction, an ECC correction scrubs before later reads, and
//!   `undo_aborted` takes back exactly the reads made up to the trip.
//!
//! Both paths count the same reads and writes, so [`RunStats`] does
//! not depend on which one ran. The cross-check path
//! ([`run_decode_reference`]) re-interprets the original `penny_ir`
//! instruction stream lane by lane with unconditional codec decodes
//! (`RegFile::read_reference`) — the pre-decoding behavior, kept alive
//! so tests can pin the decoded path to it bit-for-bit, exactly as the
//! dense loop ([`run_reference`]) pins the event-driven scheduler.

use penny_core::{LaunchDims, Protected};
use penny_ir::{MemSpace, Op, Operand, Special, Terminator};
use penny_obs::{record, Recorder, SpanKind, SpanTimer};

use crate::config::{GpuConfig, RfProtection};
use crate::fault::FaultPlan;
use crate::memory::{GlobalMemory, SharedMemory};
use crate::program::{DKind, DSrc, DecodedInst, PInst, Program, NO_REG};
use crate::recovery;
use crate::regfile::{ReadOutcome, RegFile, RfStats, WARP_LANES};
use crate::warp::{StackEntry, Warp};
use crate::SimError;

/// Statistics from one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles (max over SMs).
    pub cycles: u64,
    /// Thread-level instructions executed.
    pub instructions: u64,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// Register-file accesses and error events.
    pub rf: RfStats,
    /// Recovery invocations (region re-executions).
    pub recoveries: u64,
    /// Warp-level instructions re-executed by recoveries: on each
    /// rollback, the instructions the warp had issued since its region
    /// snapshot are replayed and counted here.
    pub reexec_instructions: u64,
    /// Global loads issued (warp-level).
    pub global_loads: u64,
    /// Global stores issued (warp-level).
    pub global_stores: u64,
    /// Shared-memory accesses (warp-level).
    pub shared_accesses: u64,
    /// Barrier waits observed.
    pub barriers: u64,
    /// Idle cycles fast-forwarded by the event-driven scheduler (cycles
    /// a dense cycle-by-cycle loop would have ticked through with every
    /// warp stalled). Counted toward [`RunStats::cycles`] exactly as if
    /// they had been simulated; the dense reference loop
    /// ([`run_reference`]) reports 0 here.
    pub skipped_cycles: u64,
}

/// Kernel launch description.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Grid/block geometry (must match what the kernel was compiled
    /// for).
    pub dims: LaunchDims,
    /// Parameter words, in declaration order.
    pub params: Vec<u32>,
    /// Fault campaign.
    pub faults: FaultPlan,
}

impl LaunchConfig {
    /// A fault-free launch.
    pub fn new(dims: LaunchDims, params: Vec<u32>) -> LaunchConfig {
        LaunchConfig { dims, params, faults: FaultPlan::none() }
    }

    /// Builder-style fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> LaunchConfig {
        self.faults = faults;
        self
    }
}

/// One resident thread block.
#[derive(Clone)]
pub struct BlockCtx {
    /// Linear block index.
    pub index: u32,
    /// Block coordinates.
    pub cta: (u32, u32),
    /// Shared memory (program data + checkpoint arena).
    pub shared: SharedMemory,
    /// One register file per warp, [`WARP_LANES`] lanes each: the
    /// block's thread `t` (row-major) owns lane `t % 32` of file
    /// `t / 32`.
    pub rfs: Vec<RegFile>,
    /// Warps.
    pub warps: Vec<Warp>,
}

/// Coordinates within the block of the block's thread `thread`
/// (threads are numbered row-major).
pub(crate) fn thread_tid(thread: u32, dims: &LaunchDims) -> (u32, u32) {
    (thread % dims.block.0, thread / dims.block.0)
}

/// The live lanes of warp `warp` of a block of `threads_per_block`
/// threads: only the last warp may be partial.
pub(crate) fn warp_width(threads_per_block: u32, warp: u32) -> u32 {
    (threads_per_block - warp * WARP_LANES as u32).min(WARP_LANES as u32)
}

/// The lanes set in `mask`, in ascending order.
pub(crate) fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Whether every operand row `d` reads — its guard and register
/// sources — is clean in the lanes of `mask`.
fn rows_clean(rf: &RegFile, mask: u32, d: &DecodedInst) -> bool {
    if rf.dirty_count() == 0 {
        return true;
    }
    let mut dirty = if d.guard != NO_REG { rf.dirty_lanes(d.guard as usize) } else { 0 };
    for &src in &d.srcs[..d.nsrcs as usize] {
        if let DSrc::Reg(r) = src {
            dirty |= rf.dirty_lanes(r as usize);
        }
    }
    dirty & mask == 0
}

/// Values of the special registers for a given thread.
pub fn special_value(
    s: Special,
    tid: (u32, u32),
    cta: (u32, u32),
    dims: &LaunchDims,
) -> u32 {
    match s {
        Special::TidX => tid.0,
        Special::TidY => tid.1,
        Special::NTidX => dims.block.0,
        Special::NTidY => dims.block.1,
        Special::CtaIdX => cta.0,
        Special::CtaIdY => cta.1,
        Special::NCtaIdX => dims.grid.0,
        Special::NCtaIdY => dims.grid.1,
        Special::LaneId => (tid.0 + tid.1 * dims.block.0) % 32,
    }
}

/// Which interpreter a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecPath {
    /// Pre-decoded micro-op table + fault-aware RF fast path.
    Decoded,
    /// IR-walking interpreter + unconditional codec decode — the
    /// pre-decoding semantics, kept as a cross-check.
    Reference,
}

/// Runs a protected kernel on the configured GPU (event-driven fast
/// path over the pre-decoded micro-op table; idle cycles where every
/// warp is stalled are skipped in one jump; see
/// [`RunStats::skipped_cycles`]).
pub fn run(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
) -> Result<RunStats, SimError> {
    run_mode(config, protected, launch, global, false, ExecPath::Decoded)
}

/// Runs a protected kernel with the dense cycle-by-cycle reference
/// loop: every cycle is simulated individually and
/// [`RunStats::skipped_cycles`] stays 0. Timing-identical to [`run`] by
/// construction; exists so tests can prove the fast path changes no
/// measured cycle count.
pub fn run_reference(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
) -> Result<RunStats, SimError> {
    run_mode(config, protected, launch, global, true, ExecPath::Decoded)
}

/// Runs a protected kernel through the `decode_reference` cross-check:
/// the original IR-walking interpreter with unconditional codec decodes
/// on every register read. Semantics, [`RfStats`] counters, recovery
/// behavior, and cycle counts are bit-identical to [`run`] by
/// construction; tests enforce it (`tests/determinism.rs`,
/// `crates/sim/tests/decoded_equivalence.rs`).
pub fn run_decode_reference(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
) -> Result<RunStats, SimError> {
    run_mode(config, protected, launch, global, false, ExecPath::Reference)
}

/// [`run`] with an observability sink: the launch records one
/// [`penny_obs::SpanKind::Sim`] span (wall time + the full
/// [`RunStats`] counter set) into `rec`. With a disabled recorder this
/// is exactly `run` — no clock read, no span, identical stats — and the
/// simulated run itself is the same hot interpreter either way.
///
/// # Errors
///
/// Same failure modes as [`run`].
pub fn run_observed(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
    rec: &dyn Recorder,
) -> Result<RunStats, SimError> {
    let timer = SpanTimer::start(rec);
    let stats = run_mode(config, protected, launch, global, false, ExecPath::Decoded)?;
    if rec.enabled() {
        record(
            rec,
            SpanKind::Sim,
            &protected.kernel.name,
            "run",
            timer.elapsed_ns(),
            &[
                ("cycles", stats.cycles),
                ("skipped_cycles", stats.skipped_cycles),
                ("instructions", stats.instructions),
                ("warp_instructions", stats.warp_instructions),
                ("rf_reads", stats.rf.reads),
                ("rf_decoded_reads", stats.rf.decoded_reads),
                ("rf_clean_reads", stats.rf.clean_reads()),
                ("rf_writes", stats.rf.writes),
                ("rf_detected", stats.rf.detected),
                ("rf_corrected", stats.rf.corrected),
                ("recoveries", stats.recoveries),
                ("reexec_instructions", stats.reexec_instructions),
                ("global_loads", stats.global_loads),
                ("global_stores", stats.global_stores),
                ("shared_accesses", stats.shared_accesses),
                ("barriers", stats.barriers),
            ],
        );
    }
    Ok(stats)
}

/// Validates a launch against its kernel's parameter list.
pub(crate) fn check_launch(
    protected: &Protected,
    launch: &LaunchConfig,
) -> Result<(), SimError> {
    if launch.params.len() != protected.kernel.params.len() {
        return Err(SimError::BadLaunch(format!(
            "kernel `{}` takes {} params, launch supplies {}",
            protected.kernel.name,
            protected.kernel.params.len(),
            launch.params.len()
        )));
    }
    Ok(())
}

/// One entry of the serial wave schedule: the SM it runs on and the
/// linear block indices resident in it.
#[derive(Debug, Clone)]
pub(crate) struct WaveSlot {
    /// SM index.
    pub sm: usize,
    /// Linear block indices resident in this wave.
    pub blocks: Vec<u32>,
}

/// The serial wave schedule [`run`] executes: for each SM in order,
/// the SM's blocks in launch order, chunked by residency. The
/// snapshot/replay layer re-derives the same schedule to fork
/// individual waves.
pub(crate) fn wave_plan(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    program: &Program,
) -> Vec<WaveSlot> {
    let regs_per_thread = if protected.stats.regs_per_thread > 0 {
        protected.stats.regs_per_thread
    } else {
        penny_core::regalloc::register_pressure(&protected.kernel)
    };
    let shared_per_block = program.shared_bytes + protected.shared_ckpt_bytes;
    let tpb = launch.dims.threads_per_block();
    let resident =
        config.machine.blocks_per_sm(tpb, regs_per_thread, shared_per_block).max(1);
    let total_blocks = launch.dims.blocks();
    let mut waves = Vec::new();
    for sm in 0..config.num_sms as usize {
        let my_blocks: Vec<u32> =
            (0..total_blocks).filter(|b| b % config.num_sms == sm as u32).collect();
        for wave in my_blocks.chunks(resident as usize) {
            waves.push(WaveSlot { sm, blocks: wave.to_vec() });
        }
    }
    waves
}

fn run_mode(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
    dense: bool,
    path: ExecPath,
) -> Result<RunStats, SimError> {
    check_launch(protected, launch)?;
    let program = match path {
        ExecPath::Decoded => Program::new(&protected.kernel),
        ExecPath::Reference => Program::with_reference(&protected.kernel),
    };
    let mut stats = RunStats::default();
    let mut sm_cycles = vec![0u64; config.num_sms as usize];
    for slot in wave_plan(config, protected, launch, &program) {
        let mut engine = SmEngine::new(
            config,
            protected,
            launch,
            &program,
            global,
            &slot.blocks,
            dense,
            path,
        );
        sm_cycles[slot.sm] += engine.run_wave(&mut stats)?;
    }
    stats.cycles = sm_cycles.iter().copied().max().unwrap_or(0);
    Ok(stats)
}

/// Scheduler-visible state of one in-flight wave, captured at the top
/// of a scheduler cycle (before barrier release). [`SmEngine::capture`]
/// produces it; [`SmEngine::restore`] reconstructs an engine that
/// continues bit-identically — the foundation of the snapshot/replay
/// fault-injection harness in [`crate::snapshot`].
#[derive(Clone)]
pub(crate) struct WaveState {
    /// Resident blocks (registers, shared memory, warps, SIMT stacks).
    pub blocks: Vec<BlockCtx>,
    /// Wave-local cycle counter.
    pub cycle: u64,
    /// Memory-pipeline busy horizon.
    pub mem_busy_until: u64,
    /// Round-robin issue cursor.
    pub rr_cursor: usize,
}

/// One retired warp instruction, as seen by a [`WaveTrace`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceEvent {
    /// Wave-local block index.
    pub bi: usize,
    /// Warp index within the block.
    pub wi: usize,
    /// Program counter of the retired micro-op.
    pub pc: usize,
    /// SIMT mask the instruction issued under (guard reads and branch
    /// predicate reads touch every masked lane).
    pub mask: u32,
    /// Lanes whose guard evaluated true (source reads and destination
    /// writes touch only these).
    pub active: u32,
    /// The warp's dynamic instruction index for this retirement (its
    /// `executed` counter before the increment).
    pub executed: u64,
}

/// Passive observer of a wave execution: per-cycle capture opportunity
/// plus per-instruction retirement events. Implementations must not
/// perturb execution — the recording run's stats and memory are
/// required to be bit-identical to an untraced run.
pub(crate) trait WaveTrace {
    /// Called at the top of every scheduler cycle, before barrier
    /// release; `eng` is the state a resumed engine would continue
    /// from.
    fn at_cycle(&mut self, eng: &SmEngine<'_>, stats: &RunStats);
    /// Called after each retired warp instruction (decoded path only).
    fn on_inst(&mut self, ev: TraceEvent);
}

/// Per-SM, per-wave execution engine.
pub(crate) struct SmEngine<'a> {
    config: &'a GpuConfig,
    protected: &'a Protected,
    launch: &'a LaunchConfig,
    program: &'a Program,
    global: &'a mut GlobalMemory,
    blocks: Vec<BlockCtx>,
    cycle: u64,
    mem_busy_until: u64,
    rr_cursor: usize,
    /// Injections already applied (each fires exactly once).
    faults_applied: Vec<bool>,
    /// Injections not yet applied (lets fault-free runs skip the
    /// per-step injection scan entirely).
    faults_remaining: usize,
    /// Dense reference mode: never jump over idle cycles.
    dense: bool,
    /// Which interpreter steps warps.
    path: ExecPath,
    /// Optional passive observer (recording runs only).
    trace: Option<&'a mut dyn WaveTrace>,
    /// Active-lane mask of the most recently executed instruction
    /// (trace bookkeeping; one word store per instruction).
    last_active: u32,
    // Reused per-step scratch buffers (allocation-free steady state).
    ready: Vec<(usize, usize)>,
    scratch_srcs: Vec<Vec<u32>>,
    scratch_addrs: Vec<u32>,
    scratch_segs: Vec<u32>,
}

impl<'a> SmEngine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        config: &'a GpuConfig,
        protected: &'a Protected,
        launch: &'a LaunchConfig,
        program: &'a Program,
        global: &'a mut GlobalMemory,
        wave: &[u32],
        dense: bool,
        path: ExecPath,
    ) -> SmEngine<'a> {
        let dims = &launch.dims;
        let tpb = dims.threads_per_block();
        let shared_bytes = program.shared_bytes + protected.shared_ckpt_bytes;
        let blocks = wave
            .iter()
            .map(|&bi| {
                let cta = (bi % dims.grid.0, bi / dims.grid.0);
                let nwarps = tpb.div_ceil(32);
                let rfs = (0..nwarps)
                    .map(|_| RegFile::warp(program.num_regs.max(1), config.rf))
                    .collect();
                let warps = (0..nwarps)
                    .map(|w| {
                        Warp::new(
                            w,
                            w * 32,
                            warp_width(tpb, w),
                            program.start_of(penny_ir::BlockId(0)),
                            program.end_pc(),
                        )
                    })
                    .collect();
                BlockCtx {
                    index: bi,
                    cta,
                    shared: SharedMemory::new(shared_bytes),
                    rfs,
                    warps,
                }
            })
            .collect();
        SmEngine {
            config,
            protected,
            launch,
            program,
            global,
            blocks,
            cycle: 0,
            mem_busy_until: 0,
            rr_cursor: 0,
            faults_applied: vec![false; launch.faults.injections.len()],
            faults_remaining: launch.faults.injections.len(),
            dense,
            path,
            trace: None,
            last_active: 0,
            ready: Vec::new(),
            scratch_srcs: Vec::new(),
            scratch_addrs: Vec::new(),
            scratch_segs: Vec::new(),
        }
    }

    /// A decoded-path engine for one wave, optionally traced — the
    /// constructor the snapshot/replay layer drives directly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_wave(
        config: &'a GpuConfig,
        protected: &'a Protected,
        launch: &'a LaunchConfig,
        program: &'a Program,
        global: &'a mut GlobalMemory,
        wave: &[u32],
        trace: Option<&'a mut dyn WaveTrace>,
    ) -> SmEngine<'a> {
        let mut eng = SmEngine::new(
            config,
            protected,
            launch,
            program,
            global,
            wave,
            false,
            ExecPath::Decoded,
        );
        eng.trace = trace;
        eng
    }

    /// Reconstructs a decoded-path engine from captured wave state,
    /// optionally traced. The engine continues bit-identically to the one
    /// that was captured, except that `launch`'s fault plan starts
    /// unapplied (the whole point of forking a wave: replay it with a new
    /// injection).
    pub(crate) fn restore(
        config: &'a GpuConfig,
        protected: &'a Protected,
        launch: &'a LaunchConfig,
        program: &'a Program,
        global: &'a mut GlobalMemory,
        state: &WaveState,
        trace: Option<&'a mut dyn WaveTrace>,
    ) -> SmEngine<'a> {
        SmEngine {
            config,
            protected,
            launch,
            program,
            global,
            blocks: state.blocks.clone(),
            cycle: state.cycle,
            mem_busy_until: state.mem_busy_until,
            rr_cursor: state.rr_cursor,
            faults_applied: vec![false; launch.faults.injections.len()],
            faults_remaining: launch.faults.injections.len(),
            dense: false,
            path: ExecPath::Decoded,
            trace,
            last_active: 0,
            ready: Vec::new(),
            scratch_srcs: Vec::new(),
            scratch_addrs: Vec::new(),
            scratch_segs: Vec::new(),
        }
    }

    /// Captures the scheduler-visible wave state (valid at the top of a
    /// cycle, i.e. from [`WaveTrace::at_cycle`]).
    pub(crate) fn capture(&self) -> WaveState {
        WaveState {
            blocks: self.blocks.clone(),
            cycle: self.cycle,
            mem_busy_until: self.mem_busy_until,
            rr_cursor: self.rr_cursor,
        }
    }

    /// The global memory this wave reads and writes.
    pub(crate) fn global(&self) -> &GlobalMemory {
        self.global
    }

    /// The resident blocks (for trace-side warp inspection).
    pub(crate) fn blocks(&self) -> &[BlockCtx] {
        &self.blocks
    }

    pub(crate) fn run_wave(&mut self, stats: &mut RunStats) -> Result<u64, SimError> {
        let cycle_limit = self.config.cycle_limit;
        loop {
            if self.trace.is_some() {
                if let Some(t) = self.trace.take() {
                    t.at_cycle(self, stats);
                    self.trace = Some(t);
                }
            }
            self.release_barriers(stats);
            // One pass over all warps gathers both the ready set for
            // this cycle and the earliest wake-up among stalled warps,
            // so an all-stalled cycle needs no second scan to know how
            // far to jump.
            let mut ready = std::mem::take(&mut self.ready);
            ready.clear();
            let mut any_unfinished = false;
            let mut next_wakeup = u64::MAX;
            for (bi, block) in self.blocks.iter_mut().enumerate() {
                for wi in 0..block.warps.len() {
                    if block.warps[wi].finished() {
                        continue;
                    }
                    any_unfinished = true;
                    let w = &block.warps[wi];
                    if w.at_barrier {
                        continue;
                    }
                    if w.stall_until <= self.cycle {
                        ready.push((bi, wi));
                    } else {
                        next_wakeup = next_wakeup.min(w.stall_until);
                    }
                }
            }
            if !any_unfinished {
                self.ready = ready;
                return Ok(self.cycle);
            }
            if ready.is_empty() {
                // Every warp is stalled or at a barrier (barrier
                // releases happen at loop top). Jump to the earliest
                // wake-up instead of ticking through dead cycles; the
                // dense reference mode ticks one cycle at a time and
                // must reach the same cycle counts.
                if next_wakeup != u64::MAX && next_wakeup > self.cycle && !self.dense {
                    stats.skipped_cycles += next_wakeup - self.cycle - 1;
                    self.cycle = next_wakeup;
                } else {
                    self.cycle += 1;
                }
            } else {
                let width = self.config.issue_width as usize;
                let n = ready.len();
                let start = self.rr_cursor % n;
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                for i in 0..n.min(width) {
                    let (bi, wi) = ready[(start + i) % n];
                    self.step_warp(bi, wi, stats)?;
                }
                self.cycle += 1;
            }
            self.ready = ready;
            if self.cycle > cycle_limit {
                return Err(SimError::CycleLimit {
                    kernel: self.program.name.clone(),
                    limit: cycle_limit,
                });
            }
        }
    }

    fn release_barriers(&mut self, stats: &mut RunStats) {
        for block in &mut self.blocks {
            let all_waiting = block.warps.iter_mut().all(|w| w.at_barrier || w.finished());
            if all_waiting {
                let mut released = false;
                for w in &mut block.warps {
                    if w.at_barrier {
                        w.at_barrier = false;
                        released = true;
                    }
                }
                if released {
                    stats.barriers += 1;
                }
            }
        }
    }

    /// Executes one warp-instruction on the configured interpreter.
    fn step_warp(
        &mut self,
        bi: usize,
        wi: usize,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        match self.path {
            ExecPath::Decoded => self.step_warp_decoded(bi, wi, stats),
            ExecPath::Reference => self.step_warp_reference(bi, wi, stats),
        }
    }

    fn apply_faults(&mut self, bi: usize, wi: usize) {
        let block_index = self.blocks[bi].index;
        let warp = &self.blocks[bi].warps[wi];
        let executed = warp.executed;
        let width = warp.width;
        let warp_id = warp.id;
        // `launch` lives for 'a, not for the `&mut self` borrow, so the
        // injection list can be walked while mutating register files.
        let launch = self.launch;
        for (i, f) in launch.faults.injections.iter().enumerate() {
            if self.faults_applied[i] || !f.due(block_index, warp_id, width, executed) {
                continue;
            }
            self.faults_applied[i] = true;
            self.faults_remaining -= 1;
            // `flip_bit` marks the victim cell dirty, steering its next
            // read through the full codec decode.
            let rf = &mut self.blocks[bi].rfs[wi];
            if (f.reg as usize) < rf.len() {
                rf.flip_bit(rf.cell(f.reg as usize, f.lane as usize), f.bit);
            }
        }
    }

    /// Maps a detected/unrecoverable read outcome to a step fault.
    fn read_fault(&self, reg: u32) -> StepFault {
        match self.config.rf {
            RfProtection::Edc(_) if self.protected.regions.is_empty() => {
                StepFault::Sim(SimError::UnrecoverableFault {
                    kernel: self.program.name.clone(),
                    reg,
                })
            }
            RfProtection::Edc(_) => StepFault::Detected,
            _ => StepFault::Sim(SimError::UnrecoverableFault {
                kernel: self.program.name.clone(),
                reg,
            }),
        }
    }

    // ---------------------------------------------------------------
    // Decoded fast path
    // ---------------------------------------------------------------

    /// Reads a register for one lane (per-lane path), surfacing
    /// detections.
    #[inline]
    fn read_reg(
        &mut self,
        bi: usize,
        wi: usize,
        lane: usize,
        reg: u32,
        stats: &mut RunStats,
    ) -> Result<u32, StepFault> {
        let rf = &mut self.blocks[bi].rfs[wi];
        match rf.read(rf.cell(reg as usize, lane), &mut stats.rf) {
            ReadOutcome::Ok(v) | ReadOutcome::CorrectedInline(v) => Ok(v),
            ReadOutcome::Detected => Err(self.read_fault(reg)),
        }
    }

    fn step_warp_decoded(
        &mut self,
        bi: usize,
        wi: usize,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        // Fast-forward region markers (zero-cost boundary bookkeeping).
        loop {
            let Some(flow) = self.blocks[bi].warps[wi].current_flow() else {
                return Ok(());
            };
            if flow.pc >= self.program.end_pc() {
                self.blocks[bi].warps[wi].exited |= flow.mask;
                continue;
            }
            if let DKind::RegionEntry(region) = self.program.decoded[flow.pc].kind {
                let warp = &mut self.blocks[bi].warps[wi];
                warp.set_pc(flow.pc + 1);
                warp.snapshot_region(region);
                continue;
            }
            break;
        }
        let Some(flow) = self.blocks[bi].warps[wi].current_flow() else {
            return Ok(());
        };
        // Apply any pending fault injections triggered by this warp's
        // progress.
        if self.faults_remaining > 0 {
            self.apply_faults(bi, wi);
        }
        // The decoded record is `Copy`: lift it out of the table so the
        // borrow checker places no constraint on `&mut self`.
        let d = self.program.decoded[flow.pc];
        let result = self.exec_decoded(bi, wi, flow, &d, stats);
        match result {
            Ok(()) => {
                let warp = &mut self.blocks[bi].warps[wi];
                let executed = warp.executed;
                warp.executed += 1;
                stats.warp_instructions += 1;
                if self.trace.is_some() {
                    let ev = TraceEvent {
                        bi,
                        wi,
                        pc: flow.pc,
                        mask: flow.mask,
                        active: self.last_active,
                        executed,
                    };
                    if let Some(t) = self.trace.take() {
                        t.on_inst(ev);
                        self.trace = Some(t);
                    }
                }
                Ok(())
            }
            Err(StepFault::Detected) => {
                self.undo_aborted(bi, wi, flow, &d, stats);
                self.recover(bi, wi, stats)?;
                Ok(())
            }
            Err(StepFault::Sim(e)) => Err(e),
        }
    }

    /// Takes back what an instruction aborted by a detection had
    /// counted: its register reads up to and including the one that
    /// tripped (the first read, in lane and operand order, of a cell
    /// still dirty), and a branch's per-lane thread instructions. Those
    /// counts depend on which lane and operand tripped, and the
    /// re-execution after recovery counts the instruction again;
    /// undone, a detection adds one `detected` count wherever it lands.
    /// Both interpreters read operands in the decoded order, so both
    /// undo through `d`.
    fn undo_aborted(
        &self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        d: &DecodedInst,
        stats: &mut RunStats,
    ) {
        let rf = &self.blocks[bi].rfs[wi];
        let (mut reads, mut insts) = (0u64, 0u64);
        'lanes: for lane in lanes(flow.mask) {
            let mut trips = |reg: u32| {
                reads += 1;
                rf.is_dirty(rf.cell(reg as usize, lane))
            };
            if let DKind::Branch { pred, .. } = d.kind {
                if trips(pred) {
                    break;
                }
                insts += 1;
                continue;
            }
            if d.guard != NO_REG {
                if trips(d.guard) {
                    break;
                }
                if (rf.peek(rf.cell(d.guard as usize, lane)) != 0) == d.guard_negated {
                    continue;
                }
            }
            for &src in &d.srcs[..d.nsrcs as usize] {
                if matches!(src, DSrc::Reg(r) if trips(r)) {
                    break 'lanes;
                }
            }
        }
        stats.rf.reads -= reads;
        stats.instructions -= insts;
    }

    fn exec_decoded(
        &mut self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        d: &DecodedInst,
        stats: &mut RunStats,
    ) -> Result<(), StepFault> {
        match d.kind {
            DKind::Ret => {
                self.last_active = 0;
                let warp = &mut self.blocks[bi].warps[wi];
                warp.exited |= flow.mask;
                warp.set_pc(flow.reconv); // force a pop on next flow query
                Ok(())
            }
            DKind::Jump { target } => {
                self.last_active = 0;
                let warp = &mut self.blocks[bi].warps[wi];
                warp.set_pc(target);
                warp.stall_until = self.cycle + self.config.lat_alu as u64;
                Ok(())
            }
            DKind::Branch { pred, negated, then_pc, else_pc, reconv } => {
                // Phase 1: read the predicate for every lane (detections
                // fire before any control-state change). A predicate row
                // clean in every live lane is read whole.
                self.last_active = flow.mask;
                let rf = &self.blocks[bi].rfs[wi];
                let mut taken = 0u32;
                if rf.dirty_lanes(pred as usize) & flow.mask == 0 {
                    let live = u64::from(flow.mask.count_ones());
                    stats.rf.reads += live;
                    stats.instructions += live;
                    let row = rf.row(pred as usize);
                    for lane in lanes(flow.mask) {
                        if (row[lane] != 0) ^ negated {
                            taken |= 1 << lane;
                        }
                    }
                } else {
                    for lane in lanes(flow.mask) {
                        let v = self.read_reg(bi, wi, lane, pred, stats)?;
                        stats.instructions += 1;
                        if (v != 0) ^ negated {
                            taken |= 1 << lane;
                        }
                    }
                }
                let not_taken = flow.mask & !taken;
                let warp = &mut self.blocks[bi].warps[wi];
                if not_taken == 0 {
                    warp.set_pc(then_pc);
                } else if taken == 0 {
                    warp.set_pc(else_pc);
                } else {
                    warp.set_pc(reconv);
                    warp.stack.push(StackEntry { pc: else_pc, reconv, mask: not_taken });
                    warp.stack.push(StackEntry { pc: then_pc, reconv, mask: taken });
                }
                warp.stall_until = self.cycle + self.config.lat_alu as u64;
                Ok(())
            }
            _ => {
                let latency = self.exec_inst_decoded(bi, wi, flow, d, stats)?;
                let warp = &mut self.blocks[bi].warps[wi];
                warp.set_pc(flow.pc + 1);
                warp.stall_until = self.cycle + latency;
                Ok(())
            }
        }
    }

    /// Operand-gather and effect phases over fixed-size slots — no heap
    /// traffic, no `penny_ir` walking.
    fn exec_inst_decoded(
        &mut self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        d: &DecodedInst,
        stats: &mut RunStats,
    ) -> Result<u64, StepFault> {
        let nsrcs = d.nsrcs as usize;
        // ---- Phase 1: gather operands (and guards) for all lanes. ----
        let mut lane_srcs = [[0u32; penny_ir::MAX_SRCS]; WARP_LANES];
        let active = if rows_clean(&self.blocks[bi].rfs[wi], flow.mask, d) {
            self.gather_rows(bi, wi, flow.mask, d, &mut lane_srcs, stats)
        } else {
            self.gather_lanes(bi, wi, flow.mask, d, &mut lane_srcs, stats)?
        };
        self.last_active = active;

        // ---- Phase 2: effects. ----
        stats.instructions += u64::from(active.count_ones());
        let mut results = [0u32; WARP_LANES];
        match d.kind {
            DKind::Bar => {
                self.blocks[bi].warps[wi].at_barrier = true;
                Ok(self.config.lat_alu as u64)
            }
            DKind::Nop | DKind::RegionEntry(_) => Ok(1),
            DKind::Ckpt => {
                // Unlowered checkpoints should never reach the engine;
                // treat as a store-like stall to stay robust.
                Ok(self.config.lat_store_issue as u64)
            }
            DKind::Ld(space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(d.offset);
                    results[lane] = self.load(bi, space, addr, stats);
                    addrs.push(addr);
                }
                self.write_dst(bi, wi, d.dst, active, &results, stats);
                let lat = self.mem_latency(space, &addrs, true, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            DKind::St(space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(d.offset);
                    let v = lane_srcs[lane][1];
                    self.store(bi, space, addr, v, stats);
                    addrs.push(addr);
                }
                let lat = self.mem_latency(space, &addrs, false, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            DKind::Atom(aop, space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(d.offset);
                    let operand = lane_srcs[lane][1];
                    let old = self.load(bi, space, addr, stats);
                    let new = match aop {
                        penny_ir::AtomOp::Add => old.wrapping_add(operand),
                        penny_ir::AtomOp::Min => old.min(operand),
                        penny_ir::AtomOp::Max => old.max(operand),
                        penny_ir::AtomOp::Exch => operand,
                        penny_ir::AtomOp::Cas => operand, // simple model
                    };
                    self.store(bi, space, addr, new, stats);
                    results[lane] = old;
                    addrs.push(addr);
                }
                self.write_dst(bi, wi, d.dst, active, &results, stats);
                if !addrs.is_empty() {
                    // The RMW is committed; recovery must not replay it.
                    self.blocks[bi].warps[wi].atomic_since_snapshot = true;
                }
                let lat = self.mem_latency(space, &addrs, true, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            DKind::Alu { op, ty, ty2 } => {
                for lane in lanes(active) {
                    results[lane] =
                        crate::alu::eval(op, ty, ty2, &lane_srcs[lane][..nsrcs]);
                }
                self.write_dst(bi, wi, d.dst, active, &results, stats);
                Ok(self.config.latency_of(op) as u64)
            }
            // Control kinds are handled by `exec_decoded` before phase 1.
            DKind::Ret | DKind::Jump { .. } | DKind::Branch { .. } => {
                unreachable!("control micro-ops do not reach exec_inst_decoded")
            }
        }
    }

    /// Phase 1 on the row path, taken when every operand row is clean in
    /// the live lanes of `mask`: no read can detect, correct or corrupt
    /// anything, so rows are read directly and the reads counted in
    /// bulk — one per live lane for the guard, one per active lane for
    /// each register source, exactly as [`SmEngine::gather_lanes`]
    /// counts them. Returns the active lanes.
    fn gather_rows(
        &self,
        bi: usize,
        wi: usize,
        mask: u32,
        d: &DecodedInst,
        lane_srcs: &mut [[u32; penny_ir::MAX_SRCS]; WARP_LANES],
        stats: &mut RunStats,
    ) -> u32 {
        let block = &self.blocks[bi];
        let rf = &block.rfs[wi];
        let mut active = mask;
        if d.guard != NO_REG {
            stats.rf.reads += u64::from(mask.count_ones());
            let guard = rf.row(d.guard as usize);
            for lane in lanes(mask) {
                if (guard[lane] != 0) == d.guard_negated {
                    active &= !(1 << lane);
                }
            }
        }
        let base = block.warps[wi].base_thread;
        let dims = &self.launch.dims;
        for (slot, &src) in d.srcs[..d.nsrcs as usize].iter().enumerate() {
            match src {
                DSrc::Imm(v) => lanes(active).for_each(|lane| lane_srcs[lane][slot] = v),
                DSrc::Reg(r) => {
                    stats.rf.reads += u64::from(active.count_ones());
                    let row = rf.row(r as usize);
                    lanes(active).for_each(|lane| lane_srcs[lane][slot] = row[lane]);
                }
                DSrc::Special(s) => lanes(active).for_each(|lane| {
                    let tid = thread_tid(base + lane as u32, dims);
                    lane_srcs[lane][slot] = special_value(s, tid, block.cta, dims);
                }),
            }
        }
        active
    }

    /// Phase 1 on the per-lane path, taken when some operand row has a
    /// dirty live lane: lane by lane, the guard and then each source
    /// through [`RegFile::read`], so a detection aborts at the first
    /// dirty cell in lane-then-operand order (what
    /// [`SmEngine::undo_aborted`] takes back) and an ECC correction
    /// scrubs before later reads. Returns the active lanes.
    fn gather_lanes(
        &mut self,
        bi: usize,
        wi: usize,
        mask: u32,
        d: &DecodedInst,
        lane_srcs: &mut [[u32; penny_ir::MAX_SRCS]; WARP_LANES],
        stats: &mut RunStats,
    ) -> Result<u32, StepFault> {
        let base = self.blocks[bi].warps[wi].base_thread;
        let nsrcs = d.nsrcs as usize;
        let mut active = 0u32;
        for lane in lanes(mask) {
            if d.guard != NO_REG {
                let gv = self.read_reg(bi, wi, lane, d.guard, stats)?;
                if (gv != 0) == d.guard_negated {
                    continue;
                }
            }
            active |= 1 << lane;
            let (slots, srcs) = (&mut lane_srcs[lane][..nsrcs], &d.srcs[..nsrcs]);
            for (slot, &src) in slots.iter_mut().zip(srcs) {
                *slot = match src {
                    DSrc::Imm(v) => v,
                    DSrc::Reg(r) => self.read_reg(bi, wi, lane, r, stats)?,
                    DSrc::Special(s) => {
                        let tid = thread_tid(base + lane as u32, &self.launch.dims);
                        special_value(s, tid, self.blocks[bi].cta, &self.launch.dims)
                    }
                };
            }
        }
        Ok(active)
    }

    /// Writes `values` into the lanes `active` of the destination row
    /// (none when the micro-op has no destination).
    fn write_dst(
        &mut self,
        bi: usize,
        wi: usize,
        dst: u32,
        active: u32,
        values: &[u32; WARP_LANES],
        stats: &mut RunStats,
    ) {
        if dst != NO_REG {
            self.blocks[bi].rfs[wi].write_row(dst as usize, active, values, &mut stats.rf);
        }
    }

    // ---------------------------------------------------------------
    // decode_reference cross-check path (pre-decoding interpreter)
    // ---------------------------------------------------------------

    /// Reads a register for one lane through the unconditional-decode
    /// reference path.
    fn read_reg_reference(
        &mut self,
        bi: usize,
        wi: usize,
        lane: usize,
        reg: penny_ir::VReg,
        stats: &mut RunStats,
    ) -> Result<u32, StepFault> {
        #[cfg(test)]
        access_log::note(&self.blocks[bi], wi, lane, reg.0, true);
        let rf = &mut self.blocks[bi].rfs[wi];
        match rf.read_reference(rf.cell(reg.index(), lane), &mut stats.rf) {
            ReadOutcome::Ok(v) | ReadOutcome::CorrectedInline(v) => Ok(v),
            ReadOutcome::Detected => Err(self.read_fault(reg.0)),
        }
    }

    fn read_operand(
        &mut self,
        bi: usize,
        wi: usize,
        lane: usize,
        op: Operand,
        stats: &mut RunStats,
    ) -> Result<u32, StepFault> {
        match op {
            Operand::Reg(r) => self.read_reg_reference(bi, wi, lane, r, stats),
            Operand::Imm(v) => Ok(v),
            Operand::Special(s) => {
                let thread = self.blocks[bi].warps[wi].base_thread + lane as u32;
                let tid = thread_tid(thread, &self.launch.dims);
                Ok(special_value(s, tid, self.blocks[bi].cta, &self.launch.dims))
            }
        }
    }

    fn step_warp_reference(
        &mut self,
        bi: usize,
        wi: usize,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        let insts = self
            .program
            .reference()
            .expect("reference path requires Program::with_reference");
        // Fast-forward region markers (zero-cost boundary bookkeeping).
        loop {
            let Some(flow) = self.blocks[bi].warps[wi].current_flow() else {
                return Ok(());
            };
            if flow.pc >= self.program.end_pc() {
                self.blocks[bi].warps[wi].exited |= flow.mask;
                continue;
            }
            if let PInst::Inst(inst) = &insts[flow.pc] {
                if let Some(region) = inst.region_entry() {
                    let warp = &mut self.blocks[bi].warps[wi];
                    warp.set_pc(flow.pc + 1);
                    warp.snapshot_region(region);
                    continue;
                }
            }
            break;
        }
        let Some(flow) = self.blocks[bi].warps[wi].current_flow() else {
            return Ok(());
        };
        // Apply any pending fault injections triggered by this warp's
        // progress.
        if self.faults_remaining > 0 {
            self.apply_faults(bi, wi);
        }
        // Copy the program reference out of `self` so the instruction
        // can be borrowed (not cloned) across the `&mut self` call.
        let result = match &insts[flow.pc] {
            PInst::Term(t) => self.exec_terminator(bi, wi, flow, *t, stats),
            PInst::Inst(inst) => self.exec_inst(bi, wi, flow, inst, stats),
        };
        match result {
            Ok(()) => {
                let warp = &mut self.blocks[bi].warps[wi];
                warp.executed += 1;
                stats.warp_instructions += 1;
                Ok(())
            }
            Err(StepFault::Detected) => {
                let d = self.program.decoded[flow.pc];
                self.undo_aborted(bi, wi, flow, &d, stats);
                self.recover(bi, wi, stats)?;
                Ok(())
            }
            Err(StepFault::Sim(e)) => Err(e),
        }
    }

    fn exec_terminator(
        &mut self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        term: Terminator,
        stats: &mut RunStats,
    ) -> Result<(), StepFault> {
        match term {
            Terminator::Ret => {
                let warp = &mut self.blocks[bi].warps[wi];
                warp.exited |= flow.mask;
                warp.set_pc(flow.reconv); // force a pop on next flow query
                Ok(())
            }
            Terminator::Jump(t) => {
                let pc = self.program.start_of(t);
                let warp = &mut self.blocks[bi].warps[wi];
                warp.set_pc(pc);
                warp.stall_until = self.cycle + self.config.lat_alu as u64;
                Ok(())
            }
            Terminator::Branch { pred, negated, then_, else_ } => {
                // Phase 1: read the predicate for every lane (detections
                // fire before any control-state change).
                let mut taken = 0u32;
                for lane in lanes(flow.mask) {
                    let v = self.read_reg_reference(bi, wi, lane, pred, stats)?;
                    stats.instructions += 1;
                    let p = (v != 0) ^ negated;
                    if p {
                        taken |= 1 << lane;
                    }
                }
                let not_taken = flow.mask & !taken;
                let then_pc = self.program.start_of(then_);
                let else_pc = self.program.start_of(else_);
                let block_id = self.pc_block(flow.pc);
                let reconv = self.program.reconv[block_id];
                let warp = &mut self.blocks[bi].warps[wi];
                if not_taken == 0 {
                    warp.set_pc(then_pc);
                } else if taken == 0 {
                    warp.set_pc(else_pc);
                } else {
                    warp.set_pc(reconv);
                    warp.stack.push(StackEntry { pc: else_pc, reconv, mask: not_taken });
                    warp.stack.push(StackEntry { pc: then_pc, reconv, mask: taken });
                }
                warp.stall_until = self.cycle + self.config.lat_alu as u64;
                Ok(())
            }
        }
    }

    /// Block id containing a pc (for reconvergence lookup on the
    /// reference path; the decoded path carries reconvergence inline).
    fn pc_block(&self, pc: usize) -> usize {
        match self.program.block_start.binary_search(&pc) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    fn exec_inst(
        &mut self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        inst: &penny_ir::Inst,
        stats: &mut RunStats,
    ) -> Result<(), StepFault> {
        // Borrow the per-engine operand scratch for this step; it is
        // restored before returning so the steady state allocates
        // nothing (a rare early error path rebuilds it next step).
        let mut lane_srcs = std::mem::take(&mut self.scratch_srcs);
        if lane_srcs.len() != 32 {
            lane_srcs.resize_with(32, Vec::new);
        }
        for srcs in &mut lane_srcs {
            srcs.clear();
        }
        let result = self.exec_inst_phases(bi, wi, flow, inst, &mut lane_srcs, stats);
        self.scratch_srcs = lane_srcs;
        let latency = result?;
        let warp = &mut self.blocks[bi].warps[wi];
        warp.set_pc(flow.pc + 1);
        warp.stall_until = self.cycle + latency;
        Ok(())
    }

    fn exec_inst_phases(
        &mut self,
        bi: usize,
        wi: usize,
        flow: StackEntry,
        inst: &penny_ir::Inst,
        lane_srcs: &mut [Vec<u32>],
        stats: &mut RunStats,
    ) -> Result<u64, StepFault> {
        // ---- Phase 1: gather operands (and guards) for all lanes. ----
        let mut active = 0u32;
        for lane in lanes(flow.mask) {
            if let Some(g) = inst.guard {
                let gv = self.read_reg_reference(bi, wi, lane, g.pred, stats)?;
                if (gv != 0) == g.negated {
                    continue;
                }
            }
            active |= 1 << lane;
            lane_srcs[lane].reserve(inst.srcs.len());
            for &s in &inst.srcs {
                let v = self.read_operand(bi, wi, lane, s, stats)?;
                lane_srcs[lane].push(v);
            }
        }

        // ---- Phase 2: effects. ----
        self.apply_effects(bi, wi, inst, active, lane_srcs, stats)
    }

    /// Writes one lane's destination cell (none when `dst` is `None`).
    fn write_lane(
        &mut self,
        bi: usize,
        wi: usize,
        lane: usize,
        dst: Option<penny_ir::VReg>,
        value: u32,
        stats: &mut RunStats,
    ) {
        if let Some(d) = dst {
            #[cfg(test)]
            access_log::note(&self.blocks[bi], wi, lane, d.0, false);
            let rf = &mut self.blocks[bi].rfs[wi];
            rf.write(rf.cell(d.index(), lane), value, &mut stats.rf);
        }
    }

    fn apply_effects(
        &mut self,
        bi: usize,
        wi: usize,
        inst: &penny_ir::Inst,
        active: u32,
        lane_srcs: &[Vec<u32>],
        stats: &mut RunStats,
    ) -> Result<u64, StepFault> {
        stats.instructions += u64::from(active.count_ones());
        match inst.op {
            Op::Bar => {
                self.blocks[bi].warps[wi].at_barrier = true;
                Ok(self.config.lat_alu as u64)
            }
            Op::Nop | Op::RegionEntry(_) => Ok(1),
            Op::Ckpt(_) => {
                // Unlowered checkpoints should never reach the engine;
                // treat as a store-like stall to stay robust.
                Ok(self.config.lat_store_issue as u64)
            }
            Op::Ld(space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(inst.offset as u32);
                    let v = self.load(bi, space, addr, stats);
                    self.write_lane(bi, wi, lane, inst.dst, v, stats);
                    addrs.push(addr);
                }
                let lat = self.mem_latency(space, &addrs, true, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            Op::St(space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(inst.offset as u32);
                    let v = lane_srcs[lane][1];
                    self.store(bi, space, addr, v, stats);
                    addrs.push(addr);
                }
                let lat = self.mem_latency(space, &addrs, false, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            Op::Atom(aop, space) => {
                let mut addrs = std::mem::take(&mut self.scratch_addrs);
                addrs.clear();
                for lane in lanes(active) {
                    let addr = lane_srcs[lane][0].wrapping_add(inst.offset as u32);
                    let operand = lane_srcs[lane][1];
                    let old = self.load(bi, space, addr, stats);
                    let new = match aop {
                        penny_ir::AtomOp::Add => old.wrapping_add(operand),
                        penny_ir::AtomOp::Min => old.min(operand),
                        penny_ir::AtomOp::Max => old.max(operand),
                        penny_ir::AtomOp::Exch => operand,
                        penny_ir::AtomOp::Cas => operand, // simple model
                    };
                    self.store(bi, space, addr, new, stats);
                    self.write_lane(bi, wi, lane, inst.dst, old, stats);
                    addrs.push(addr);
                }
                if !addrs.is_empty() {
                    // The RMW is committed; recovery must not replay it.
                    self.blocks[bi].warps[wi].atomic_since_snapshot = true;
                }
                let lat = self.mem_latency(space, &addrs, true, stats);
                self.scratch_addrs = addrs;
                Ok(lat)
            }
            _ => {
                // ALU.
                for lane in lanes(active) {
                    let v = crate::alu::eval(inst.op, inst.ty, inst.ty2, &lane_srcs[lane]);
                    self.write_lane(bi, wi, lane, inst.dst, v, stats);
                }
                Ok(self.config.latency_of(inst.op) as u64)
            }
        }
    }

    // ---------------------------------------------------------------
    // Shared memory/timing model (both paths)
    // ---------------------------------------------------------------

    fn load(
        &mut self,
        bi: usize,
        space: MemSpace,
        addr: u32,
        _stats: &mut RunStats,
    ) -> u32 {
        match space {
            MemSpace::Global => self.global.read(addr),
            MemSpace::Shared | MemSpace::Local => self.blocks[bi].shared.read(addr),
            MemSpace::Param => {
                let idx = (addr / 4) as usize;
                self.launch.params.get(idx).copied().unwrap_or(0)
            }
            MemSpace::Const => self.global.read(addr),
        }
    }

    fn store(
        &mut self,
        bi: usize,
        space: MemSpace,
        addr: u32,
        value: u32,
        _stats: &mut RunStats,
    ) {
        match space {
            MemSpace::Global | MemSpace::Const => self.global.write(addr, value),
            MemSpace::Shared | MemSpace::Local => self.blocks[bi].shared.write(addr, value),
            MemSpace::Param => {} // read-only: dropped
        }
    }

    /// Warp-visible latency of a memory access, charging the SM memory
    /// pipeline per coalesced 128-byte segment.
    fn mem_latency(
        &mut self,
        space: MemSpace,
        addrs: &[u32],
        is_load: bool,
        stats: &mut RunStats,
    ) -> u64 {
        if addrs.is_empty() {
            return 1;
        }
        let mut segments = std::mem::take(&mut self.scratch_segs);
        segments.clear();
        segments.extend(addrs.iter().map(|a| a / 128));
        segments.sort_unstable();
        segments.dedup();
        let nseg = segments.len() as u64;
        self.scratch_segs = segments;
        match space {
            MemSpace::Param => self.config.lat_alu as u64,
            MemSpace::Shared | MemSpace::Local => {
                stats.shared_accesses += 1;
                // Shared memory has its own banks and no long pipeline:
                // loads pay the scratchpad latency, stores retire at
                // issue cost (this is exactly why Penny prefers shared
                // checkpoint storage).
                if is_load {
                    self.config.lat_shared as u64 + (nseg - 1) * 2
                } else {
                    self.config.lat_store_issue as u64 + (nseg - 1) * 2
                }
            }
            _ => {
                if is_load {
                    stats.global_loads += 1;
                } else {
                    stats.global_stores += 1;
                }
                let start = self.cycle.max(self.mem_busy_until);
                let occupancy_cycles = nseg * self.config.seg_cycles as u64;
                self.mem_busy_until = start + occupancy_cycles;
                let queue_delay = start - self.cycle;
                if is_load {
                    queue_delay + occupancy_cycles + self.config.lat_global as u64
                } else {
                    queue_delay + occupancy_cycles + self.config.lat_store_issue as u64
                }
            }
        }
    }

    /// Penny recovery: roll the warp back to its region snapshot and
    /// restore every live-in of that region for every lane.
    fn recover(
        &mut self,
        bi: usize,
        wi: usize,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        stats.recoveries += 1;
        if self.blocks[bi].warps[wi].snapshot.is_none() {
            return Err(SimError::UnrecoverableFault {
                kernel: self.program.name.clone(),
                reg: u32::MAX,
            });
        }
        if self.blocks[bi].warps[wi].atomic_since_snapshot {
            // Rolling back would replay a committed atomic RMW — a
            // silent memory corruption, not a recovery. Conforming
            // kernels never reach this (the compiler rejects register
            // reads between an atomic and its region boundary); fail
            // loudly if one slips through.
            return Err(SimError::UnrecoverableFault {
                kernel: self.program.name.clone(),
                reg: u32::MAX,
            });
        }
        {
            // Everything executed since the snapshot is about to replay.
            // The live counter itself stays monotonic (fault-plan
            // triggers depend on it); only the delta is attributed.
            let warp = &self.blocks[bi].warps[wi];
            let snap_executed = warp.snapshot.as_ref().map(|s| s.executed).unwrap_or(0);
            stats.reexec_instructions += warp.executed.saturating_sub(snap_executed);
        }
        let region = self.blocks[bi].warps[wi].rollback();
        let restores = recovery::restore_warp(
            self.protected,
            &self.launch.dims,
            region,
            bi,
            wi,
            &mut self.blocks,
            self.global,
            &self.launch.params,
            &mut stats.rf,
        )?;
        let warp = &mut self.blocks[bi].warps[wi];
        warp.stall_until = self.cycle
            + (restores as u64 + 1) * self.config.recovery_cycles_per_restore as u64;
        Ok(())
    }
}

/// Internal step outcome.
enum StepFault {
    /// EDC detection: run recovery.
    Detected,
    /// Fatal simulation error.
    Sim(SimError),
}

impl From<SimError> for StepFault {
    fn from(e: SimError) -> StepFault {
        StepFault::Sim(e)
    }
}

/// The engine's own account of the register cells a run accesses: the
/// reference interpreter reports every cell it reads or writes, one lane
/// at a time, while [`access_log::observed`] runs. Test builds only.
#[cfg(test)]
pub(crate) mod access_log {
    use std::cell::RefCell;

    use penny_core::Protected;

    use super::{run_decode_reference, BlockCtx, GpuConfig, LaunchConfig};
    use crate::memory::GlobalMemory;
    use crate::SimError;

    /// One register-cell access, as the reference interpreter made it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Observed {
        pub(crate) block: u32,
        pub(crate) warp: u32,
        pub(crate) lane: u32,
        pub(crate) reg: u32,
        /// The warp's dynamic index of the accessing instruction.
        pub(crate) idx: u64,
        pub(crate) read: bool,
    }

    thread_local! {
        static LOG: RefCell<Option<Vec<Observed>>> = const { RefCell::new(None) };
    }

    pub(super) fn note(block: &BlockCtx, warp: usize, lane: usize, reg: u32, read: bool) {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let idx = block.warps[warp].executed;
                let (warp, lane) = (warp as u32, lane as u32);
                log.push(Observed { block: block.index, warp, lane, reg, idx, read });
            }
        });
    }

    /// Runs `launch` fault-free on the reference interpreter and returns
    /// every register-cell access it made, in order.
    pub(crate) fn observed(
        config: &GpuConfig,
        protected: &Protected,
        launch: &LaunchConfig,
        global: &GlobalMemory,
    ) -> Result<Vec<Observed>, SimError> {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        let run = run_decode_reference(config, protected, launch, &mut global.fork());
        let log = LOG.with(|log| log.borrow_mut().take()).unwrap_or_default();
        run.map(|_| log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        let dims = LaunchDims { block: (8, 4), grid: (2, 3) };
        assert_eq!(special_value(Special::TidX, (3, 2), (1, 0), &dims), 3);
        assert_eq!(special_value(Special::NTidX, (0, 0), (0, 0), &dims), 8);
        assert_eq!(special_value(Special::NTidY, (0, 0), (0, 0), &dims), 4);
        assert_eq!(special_value(Special::CtaIdY, (0, 0), (1, 2), &dims), 2);
        assert_eq!(special_value(Special::NCtaIdX, (0, 0), (0, 0), &dims), 2);
        assert_eq!(special_value(Special::LaneId, (3, 1), (0, 0), &dims), 11);
    }

    #[test]
    fn launch_config_builders() {
        let l = LaunchConfig::new(LaunchDims::linear(1, 32), vec![1, 2]);
        assert!(l.faults.is_empty());
        let f = l.with_faults(crate::fault::FaultPlan::random(1, 3, 1, 1, 32, 4, 33, 10));
        assert_eq!(f.faults.injections.len(), 3);
    }

    #[test]
    fn stats_default_is_zero() {
        let s = RunStats::default();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.recoveries, 0);
    }
}
