//! Snapshot/replay fault injection: fork each site from a
//! region-boundary checkpoint instead of re-simulating from cycle 0.
//!
//! # The cost model this attacks
//!
//! A conformance campaign runs one full kernel per injection site. But
//! an RF fault only perturbs execution from the moment the corrupted
//! register is *observed* — everything before that instant is
//! bit-identical to the fault-free run, and everything in waves
//! scheduled before the victim's wave is untouched entirely. This
//! module records one fault-free run per (workload, scheme) pair —
//! capturing wave states at region-entry boundaries, per-wave
//! stats/memory marks, and each warp's instruction stream, from which
//! it derives the warp's register access index (`WarpTrace::build`) —
//! and then answers each site from the cheapest sufficient evidence.
//!
//! A site is one flip plan in one cell: every injection names the same
//! (block, warp, lane, register, trigger) and differs only in the bit
//! it flips ([`Recording::run_plan`]; [`Recording::run_site`] is the
//! single-bit case). All of a plan's flips land at the same instant, so
//! the evidence below depends only on the cell and the trigger:
//!
//! * **Never-fires** (trigger past the warp's dynamic length, or lane
//!   beyond the warp width): the site run *is* the recording.
//! * **Invisible** (first access of the victim register at or after
//!   the trigger is a write, or there is none): the flip is
//!   overwritten before any read observes it — a register write drops
//!   the cell's corrupted codeword without looking at it — so the site
//!   run is again bit-identical to the recording.
//! * **Corrected-inline** (first access is a read of a single flip
//!   under SECDED ECC): the decode corrects and scrubs the word back to
//!   its exact fault-free encoding with no timing penalty; the outcome
//!   is the recording plus one `corrected` and one `decoded_reads`
//!   count.
//! * **Simulate** (first access is a read under parity EDC or an
//!   unprotected RF, or a read of two or more flips under ECC, which
//!   SECDED cannot correct): detection/corruption genuinely perturbs
//!   the run. The site forks the victim's wave from the latest
//!   recorded snapshot whose victim-warp progress has not yet passed
//!   the first read, replays that wave honestly, and — when the wave
//!   ends with global-memory contents equal to the recorded wave-end
//!   mark — splices the recorded remainder instead of re-simulating it.
//!
//! # Determinism contract
//!
//! A forked run of a same-cell flip plan is **bit-identical** to a
//! from-scratch [`crate::Gpu::run`] of the same plan: verdict,
//! [`RunStats`], memory contents, and errors. The classification
//! shortcuts rest on three engine invariants pinned by tests: a
//! register write drops the cell's stored word and clears its dirty bit
//! without looking at the old word; a single-bit EDC fault always reads as `Detected`
//! (the corrupted value is never architecturally observed, so the
//! outcome is independent of which bit flipped — the memo key relies
//! on this); and a single-bit SECDED read always corrects inline and
//! scrubs. The fork shortcut rests on snapshots being taken at
//! scheduler-cycle boundaries of a deterministic engine: resuming a
//! captured wave state replays the identical cycle stream.
//!
//! Global memory is forked copy-on-write ([`GlobalMemory::fork`]), so
//! each site pays O(pages it actually dirties), not O(heap).
//!
//! # Memoization
//!
//! Simulated sites with equal [`Recording::memo_key`]s share one replay.
//! A cell key — (block, warp, lane, register, bit under an unprotected
//! RF, detecting read) — joins the flips of one cell that one read
//! observes. Under parity EDC with regions, a flip is caught at its
//! first read, the instruction aborts, and recovery rolls the warp back
//! to its latest region entry (derived from the PC stream, see
//! [`RegionEntry`]) and restores the region's live-ins and the setup
//! registers. From there two flips the same read caught differ only in
//! their victim cells, so a site whose cell the recovery mends — its
//! register is restored, or the cell's first recorded access at or
//! after the entry is a write — is keyed by its recovery point (block,
//! warp, detecting read) with `u32::MAX` in the lane and register
//! slots. [`Recording::run_group`] checks that premise while replaying
//! a group's representative: the victim warp must retrace the recorded
//! PCs and flow masks from the entry through the last such first write
//! and recover once. For the outcomes to be bit-identical, the aborted
//! instruction counts nothing but its detection: the engine takes back
//! its partial register reads and thread instructions, which depended
//! on the lane and operand that tripped.

use penny_core::Protected;
use penny_ir::RegionId;

use crate::config::{GpuConfig, RfProtection};
use crate::engine::{
    check_launch, lanes, warp_width, wave_plan, LaunchConfig, RunStats, SmEngine,
    TraceEvent, WaveState, WaveTrace,
};
use crate::fault::{FaultPlan, Injection};
use crate::memory::GlobalMemory;
use crate::program::{DKind, DSrc, DecodedInst, Program, NO_REG};
use crate::regfile::WARP_LANES;
use crate::SimError;

/// Per-wave snapshot cap; when a wave crosses more region boundaries
/// than this, the recorder thins to every other snapshot and doubles
/// its minimum capture gap.
const MAX_SNAPS_PER_WAVE: usize = 64;

/// How an injection site was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// The injection never fires (trigger past the warp's dynamic
    /// length, lane beyond the warp width, or register out of range).
    NeverFires,
    /// The flip fires but is overwritten before any read observes it.
    Invisible,
    /// The first observation is a read of a single flip under SECDED
    /// ECC: corrected inline and scrubbed, with no downstream effect.
    CorrectedInline,
    /// The first observation is a read under parity EDC or an
    /// unprotected RF, or a read of several flips under ECC; the wave
    /// was forked and replayed.
    Simulated,
}

impl SiteClass {
    /// Stable short name (for span counters and reports).
    pub fn name(self) -> &'static str {
        match self {
            SiteClass::NeverFires => "never_fires",
            SiteClass::Invisible => "invisible",
            SiteClass::CorrectedInline => "corrected_inline",
            SiteClass::Simulated => "simulated",
        }
    }
}

/// Outcome of one site run answered from a [`Recording`].
#[derive(Debug, Clone)]
pub struct SiteRun {
    /// Final launch statistics — bit-identical to a from-scratch run.
    pub stats: RunStats,
    /// Final global memory (copy-on-write fork).
    pub global: GlobalMemory,
    /// How the site was answered.
    pub class: SiteClass,
    /// Whether the injection fired at all.
    pub fired: bool,
    /// Whether the recorded run suffix was spliced onto the replayed
    /// wave (wave-end memory contents matched the recording).
    pub spliced: bool,
    /// Wave-local cycle the fork resumed from (0 for wave start or
    /// un-simulated classes).
    pub fork_cycle: u64,
    /// Warp instructions actually re-simulated for this site.
    pub replayed_insts: u64,
    /// Global-memory pages copied (COW) during the replay.
    pub pages_copied: u64,
}

/// One access of a (lane, register) cell in a warp's dynamic stream:
/// the dynamic instruction index within the warp, shifted left by one,
/// with a set low bit for a read. A read-and-write instruction has the
/// read first, matching engine phase order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access(u64);

impl Access {
    pub(crate) fn new(idx: u64, read: bool) -> Access {
        Access(idx << 1 | u64::from(read))
    }

    /// Dynamic instruction index within the warp.
    pub(crate) fn idx(self) -> u64 {
        self.0 >> 1
    }

    /// Read (`true`) or write.
    pub(crate) fn read(self) -> bool {
        self.0 & 1 == 1
    }
}

/// One warp's recorded instruction stream: the program counter, flow
/// mask (pre-guard) and active mask (lanes whose guard held) of each
/// dynamic warp instruction, indexed by the warp-local dynamic
/// instruction index. Region markers are fast-forwarded by the engine
/// and never appear here.
#[derive(Debug, Default)]
pub(crate) struct Stream {
    pub(crate) pcs: Vec<u32>,
    pub(crate) masks: Vec<u32>,
    pub(crate) actives: Vec<u32>,
}

/// Calls `f(lanes, reg, read)` for each register operand of `d` issued
/// under flow mask `mask` with active lanes `active`, in engine phase
/// order: the guard or branch predicate is read in every lane of the
/// flow, register sources are read and the destination written in the
/// active lanes only.
fn operands(d: &DecodedInst, mask: u32, active: u32, mut f: impl FnMut(u32, u32, bool)) {
    match d.kind {
        DKind::Branch { pred, .. } => f(mask, pred, true),
        DKind::Ret | DKind::Jump { .. } => {}
        _ => {
            if d.guard != NO_REG {
                f(mask, d.guard, true);
            }
            for &s in &d.srcs[..d.nsrcs as usize] {
                if let DSrc::Reg(r) = s {
                    f(active, r, true);
                }
            }
            if d.dst != NO_REG {
                f(active, d.dst, false);
            }
        }
    }
}

/// One warp's trace: its instruction stream plus the register access
/// index derived from it.
///
/// The index is in CSR form — one flat access array plus per-cell
/// offsets, cell `reg * 32 + lane` — built by [`WarpTrace::build`], the
/// one place accesses are derived for a fresh recording and a loaded one
/// alike.
#[derive(Debug)]
pub(crate) struct WarpTrace {
    /// Cell boundaries: cell `i` spans `flat[offsets[i]..offsets[i + 1]]`.
    /// Length is the cell count plus one.
    offsets: Vec<u32>,
    /// Every cell's accesses, concatenated in cell order; within a
    /// cell, sorted by dynamic instruction index.
    flat: Vec<Access>,
    /// Live lanes.
    pub(crate) width: u32,
    /// The instruction stream. A lane in the flow mask at index `t`
    /// executes exactly the recorded CFG path from `pcs[t]` onward,
    /// which is what lets a per-PC static fact be attributed to a fault
    /// site at trigger `t`.
    pub(crate) stream: Stream,
    /// The warp's region entries, in stream order (derived from the
    /// PCs; see [`region_entries`]).
    pub(crate) entries: Vec<RegionEntry>,
}

/// A warp's region entries, read off its PC stream. The engine crosses
/// a region marker only by falling through it (markers are skipped
/// without counting as instructions), so dynamic instruction `t` opens
/// a region exactly when the slot before `pcs[t]` is a marker: branches
/// and reconvergence land on block starts, which never follow a marker,
/// and a fault-free stream has no rollbacks. Consecutive markers leave
/// the last one's region, as the engine's snapshot does.
fn region_entries(program: &Program, pcs: &[u32]) -> Vec<RegionEntry> {
    let entry = |(t, &pc): (usize, &u32)| {
        let marker = program.decoded.get((pc as usize).checked_sub(1)?)?;
        match marker.kind {
            DKind::RegionEntry(region) => Some(RegionEntry { executed: t as u64, region }),
            _ => None,
        }
    };
    pcs.iter().enumerate().filter_map(entry).collect()
}

impl WarpTrace {
    /// Builds a `width`-lane warp's trace from its instruction stream
    /// over `program`'s `num_regs` registers, in two passes over the
    /// stream: the first counts each cell's accesses, the second places
    /// them. Registers at or past `num_regs` are not traced.
    ///
    /// # Panics
    ///
    /// If a PC names no instruction of `program` or the stream's vectors
    /// differ in length; the loader checks both first.
    pub(crate) fn build(
        program: &Program,
        num_regs: usize,
        width: u32,
        stream: Stream,
    ) -> WarpTrace {
        let Stream { pcs, masks, actives } = &stream;
        assert!(masks.len() == pcs.len() && actives.len() == pcs.len(), "ragged stream");
        let insts = || {
            let ops = pcs.iter().map(|&pc| &program.decoded[pc as usize]);
            ops.zip(masks).zip(actives).map(|((d, &m), &a)| (d, m, a))
        };
        let mut offsets = vec![0u32; num_regs * WARP_LANES + 1];
        for (d, mask, active) in insts() {
            operands(d, mask, active, |lanes_of, reg, _| {
                if (reg as usize) < num_regs {
                    let row = reg as usize * WARP_LANES + 1;
                    let counts = &mut offsets[row..row + WARP_LANES];
                    for (lane, n) in counts.iter_mut().enumerate() {
                        *n += (lanes_of >> lane) & 1;
                    }
                }
            });
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets[..offsets.len() - 1].to_vec();
        let mut flat = vec![Access(0); offsets[offsets.len() - 1] as usize];
        for (t, (d, mask, active)) in insts().enumerate() {
            operands(d, mask, active, |lanes_of, reg, read| {
                if (reg as usize) < num_regs {
                    for lane in lanes(lanes_of) {
                        let at = &mut next[reg as usize * WARP_LANES + lane];
                        flat[*at as usize] = Access::new(t as u64, read);
                        *at += 1;
                    }
                }
            });
        }
        let entries = region_entries(program, pcs);
        WarpTrace { offsets, flat, width, stream, entries }
    }

    /// The warp's final dynamic instruction count.
    pub(crate) fn len(&self) -> u64 {
        self.stream.pcs.len() as u64
    }

    /// Cell (`lane`, `reg`)'s accesses, sorted by dynamic instruction
    /// index; the caller keeps `lane < 32` and `reg` in range.
    pub(crate) fn cell(&self, lane: u32, reg: u32) -> &[Access] {
        let i = reg as usize * WARP_LANES + lane as usize;
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The first access of cell (`lane`, `reg`) at or after dynamic
    /// index `from`.
    fn first_from(&self, lane: u32, reg: u32, from: u64) -> Option<Access> {
        let cell = self.cell(lane, reg);
        cell.get(cell.partition_point(|a| a.idx() < from)).copied()
    }
}

/// One mid-wave checkpoint, captured at a scheduler-cycle boundary
/// right after some warp crossed a region-entry marker.
pub(crate) struct Snap {
    pub(crate) state: WaveState,
    pub(crate) global: GlobalMemory,
    pub(crate) stats: RunStats,
}

/// One wave of the recorded serial schedule, with enough marks to fork
/// into it and splice past it.
pub(crate) struct WaveRec {
    pub(crate) sm: usize,
    pub(crate) blocks: Vec<u32>,
    pub(crate) stats_before: RunStats,
    pub(crate) stats_after: RunStats,
    pub(crate) cycles: u64,
    pub(crate) global_start: GlobalMemory,
    pub(crate) global_end: GlobalMemory,
    pub(crate) snaps: Vec<Snap>,
}

/// One region entry in a warp's recorded stream, as the engine's region
/// snapshot ([`crate::warp::WarpSnapshot`]) holds it after the warp
/// crosses a region marker: a detection rolls the warp back to the
/// latest entry at or before the detecting read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEntry {
    /// Dynamic index of the region's first instruction (the warp's
    /// executed count at the crossing).
    pub executed: u64,
    /// The region entered.
    pub region: RegionId,
}

/// One warp's recorded dynamic stream, borrowed from a [`Recording`].
#[derive(Debug, Clone, Copy)]
pub struct WarpStream<'a> {
    /// Linear block index.
    pub block: u32,
    /// Warp id within the block.
    pub warp: u32,
    /// Live lanes.
    pub width: u32,
    /// Program counter per dynamic instruction.
    pub pcs: &'a [u32],
    /// Flow mask per dynamic instruction.
    pub masks: &'a [u32],
    /// Region entries, in stream order.
    pub entries: &'a [RegionEntry],
}

/// Counters describing a recording (for observability spans), read off
/// the recording itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordingCounters {
    /// Region-boundary snapshots retained.
    pub snapshots: u64,
    /// Warp instructions in the fault-free run (the per-site replay
    /// savings baseline).
    pub total_warp_insts: u64,
}

/// A recorded fault-free run of one (kernel, config, launch) triple:
/// the substrate conformance forks injection sites from.
pub struct Recording {
    pub(crate) protection: RfProtection,
    pub(crate) num_sms: usize,
    pub(crate) launch: LaunchConfig,
    pub(crate) program: Program,
    pub(crate) waves: Vec<WaveRec>,
    /// Linear block index -> position in `waves`.
    pub(crate) block_wave: Vec<usize>,
    /// Every warp's trace, indexed densely by
    /// `block * warps_per_block + warp` (see [`Recording::trace`]).
    pub(crate) traces: Vec<WarpTrace>,
    pub(crate) num_regs: usize,
    pub(crate) warps_per_block: u32,
    pub(crate) final_stats: RunStats,
    pub(crate) final_global: GlobalMemory,
    /// The registers Penny's recovery rewrites on a rollback into each
    /// region (the region's live-in restores plus the setup registers),
    /// indexed by region id; see [`restored_sets`].
    pub(crate) restored: Vec<Vec<bool>>,
}

/// The registers recovery rewrites per region, indexed by region id and
/// register. Empty unless a detection can recover — parity EDC with
/// regions — so that nothing else gets a recovery-point memo key.
pub(crate) fn restored_sets(
    rf: RfProtection,
    protected: &Protected,
    num_regs: usize,
) -> Vec<Vec<bool>> {
    if !matches!(rf, RfProtection::Edc(_)) || protected.regions.is_empty() {
        return Vec::new();
    }
    let len = protected.regions.iter().map(|r| r.id.index() + 1).max().unwrap_or(0);
    let mut sets = vec![Vec::new(); len];
    for r in &protected.regions {
        let set = &mut sets[r.id.index()];
        *set = vec![false; num_regs];
        let setup = protected.setup.iter().map(|(reg, _)| reg);
        for reg in r.restores.iter().map(|(reg, _)| reg).chain(setup) {
            if let Some(slot) = set.get_mut(reg.index()) {
                *slot = true;
            }
        }
    }
    sets
}

/// Checks a forked replay against the recording after a rollback: the
/// victim warp's instructions from the detecting read on must be the
/// recorded ones from the region entry on, PC and flow mask alike. The
/// engine's executed count runs on across a rollback, so replayed index
/// `detect + m` is recorded index `entry + m`.
struct Retrace<'r> {
    /// Wave-local block index and warp id of the victim warp.
    bi: usize,
    wi: usize,
    /// The detecting read's dynamic index: the first index the warp
    /// retires after the rollback.
    detect: u64,
    /// The recorded stretch to retrace, from the region entry on.
    pcs: &'r [u32],
    masks: &'r [u32],
    /// Leading instructions of the stretch retraced so far.
    matched: usize,
    diverged: bool,
}

impl Retrace<'_> {
    /// Whether the whole stretch was retraced without a difference.
    fn held(&self) -> bool {
        !self.diverged && self.matched == self.pcs.len()
    }
}

impl WaveTrace for Retrace<'_> {
    fn at_cycle(&mut self, _: &SmEngine<'_>, _: &RunStats) {}

    fn on_inst(&mut self, ev: TraceEvent) {
        if (ev.bi, ev.wi) != (self.bi, self.wi) || ev.executed < self.detect {
            return;
        }
        let m = (ev.executed - self.detect) as usize;
        if m < self.pcs.len() {
            self.diverged |= m != self.matched
                || self.pcs[m] != ev.pc as u32
                || self.masks[m] != ev.mask;
            self.matched = m + 1;
        }
    }
}

/// The wave recorder: captures snapshots on region crossings and keeps
/// each warp's instruction stream.
struct WaveRecorder<'p> {
    warps_per_block: usize,
    /// Linear block indices of this wave.
    blocks: &'p [u32],
    /// Instruction streams indexed like [`Recording::traces`].
    streams: &'p mut [Stream],
    snaps: Vec<Snap>,
    /// Last observed `(snapshot.executed)` per resident warp, to
    /// detect new region entries.
    last_entry: Vec<u64>,
    min_gap: u64,
    last_capture: u64,
}

impl WaveTrace for WaveRecorder<'_> {
    fn at_cycle(&mut self, eng: &SmEngine<'_>, stats: &RunStats) {
        let warps = eng.blocks().iter().flat_map(|b| &b.warps);
        if self.last_entry.is_empty() {
            // First cycle: no warp has entered a region yet.
            self.last_entry = warps.map(|_| u64::MAX).collect();
            return;
        }
        // Detect a region-entry since the previous cycle: some warp's
        // region snapshot advanced.
        let mut entered = false;
        for (w, last) in warps.zip(&mut self.last_entry) {
            let cur = w.snapshot.as_ref().map_or(u64::MAX, |s| s.executed);
            if cur != *last {
                *last = cur;
                entered |= w.snapshot.is_some();
            }
        }
        if !entered {
            return;
        }
        let state = eng.capture();
        if state.cycle.saturating_sub(self.last_capture) < self.min_gap
            && !self.snaps.is_empty()
        {
            return;
        }
        self.last_capture = state.cycle;
        self.snaps.push(Snap { state, global: eng.global().fork(), stats: *stats });
        if self.snaps.len() > MAX_SNAPS_PER_WAVE {
            // Thin: keep every other snapshot, double the capture gap.
            let mut i = 0usize;
            self.snaps.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.min_gap *= 2;
        }
    }

    fn on_inst(&mut self, ev: TraceEvent) {
        let slot = self.blocks[ev.bi] as usize * self.warps_per_block + ev.wi;
        let s = &mut self.streams[slot];
        debug_assert_eq!(s.pcs.len() as u64, ev.executed, "per-warp event order");
        s.pcs.push(ev.pc as u32);
        s.masks.push(ev.mask);
        s.actives.push(ev.active);
    }
}

/// Collects every warp's region entries from the engine's own region
/// snapshots, in the dense (block, warp) order of [`Recording`]'s
/// traces: a warp steps at most once a cycle, so each crossing shows at
/// the top of the next one.
struct EntryWatch<'v> {
    entries: &'v mut [Vec<RegionEntry>],
    warps_per_block: usize,
}

impl WaveTrace for EntryWatch<'_> {
    fn at_cycle(&mut self, eng: &SmEngine<'_>, _: &RunStats) {
        for b in eng.blocks() {
            for w in &b.warps {
                let Some(s) = &w.snapshot else { continue };
                let slot = b.index as usize * self.warps_per_block + w.id as usize;
                let list = &mut self.entries[slot];
                if list.last().map(|e| e.executed) != Some(s.executed) {
                    list.push(RegionEntry { executed: s.executed, region: s.region });
                }
            }
        }
    }

    fn on_inst(&mut self, _: TraceEvent) {}
}

/// Runs `launch` fault-free and reads every warp's region entries off
/// the engine's region snapshots ([`crate::warp::WarpSnapshot`]) after
/// each crossing, in [`Recording::warp_streams`] order: the oracle for
/// the entries a recording derives from its PC streams
/// ([`WarpStream::entries`]).
///
/// # Errors
///
/// Fails like [`crate::engine::run`].
pub fn observed_region_entries(
    config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    global: &GlobalMemory,
) -> Result<Vec<Vec<RegionEntry>>, SimError> {
    check_launch(protected, launch)?;
    let program = Program::new(&protected.kernel);
    let warps_per_block = launch.dims.threads_per_block().div_ceil(32) as usize;
    let mut entries = vec![Vec::new(); launch.dims.blocks() as usize * warps_per_block];
    let (mut g, mut stats) = (global.fork(), RunStats::default());
    for slot in wave_plan(config, protected, launch, &program) {
        let mut watch = EntryWatch { entries: &mut entries, warps_per_block };
        let blocks = &slot.blocks;
        SmEngine::for_wave(
            config,
            protected,
            launch,
            &program,
            &mut g,
            blocks,
            Some(&mut watch),
        )
        .run_wave(&mut stats)?;
    }
    Ok(entries)
}

/// The block -> wave index of a wave list that schedules each block of
/// `0..n` once (as [`wave_plan`] does), indexed by linear block index.
fn block_waves(waves: &[WaveRec]) -> Vec<usize> {
    let mut index = vec![0; waves.iter().map(|w| w.blocks.len()).sum()];
    for (k, w) in waves.iter().enumerate() {
        for &b in &w.blocks {
            index[b as usize] = k;
        }
    }
    index
}

/// Fieldwise `base + plus - minus` over every additive counter
/// (everything except `cycles`, which the caller recomputes from
/// per-SM wave sums).
fn stats_splice(mut base: RunStats, plus: &RunStats, minus: &RunStats) -> RunStats {
    base.instructions += plus.instructions - minus.instructions;
    base.warp_instructions += plus.warp_instructions - minus.warp_instructions;
    base.rf.reads += plus.rf.reads - minus.rf.reads;
    base.rf.writes += plus.rf.writes - minus.rf.writes;
    base.rf.detected += plus.rf.detected - minus.rf.detected;
    base.rf.corrected += plus.rf.corrected - minus.rf.corrected;
    base.rf.decoded_reads += plus.rf.decoded_reads - minus.rf.decoded_reads;
    base.recoveries += plus.recoveries - minus.recoveries;
    base.reexec_instructions += plus.reexec_instructions - minus.reexec_instructions;
    base.global_loads += plus.global_loads - minus.global_loads;
    base.global_stores += plus.global_stores - minus.global_stores;
    base.shared_accesses += plus.shared_accesses - minus.shared_accesses;
    base.barriers += plus.barriers - minus.barriers;
    base.skipped_cycles += plus.skipped_cycles - minus.skipped_cycles;
    base
}

impl Recording {
    /// Records one fault-free run: wave marks, region-boundary
    /// snapshots, and the register access trace. The run itself is
    /// bit-identical to [`crate::engine::run`] (the trace is passive);
    /// the returned recording answers injection sites via
    /// [`Recording::run_plan`].
    ///
    /// `global` is forked, not mutated.
    ///
    /// # Errors
    ///
    /// Fails like [`crate::engine::run`], plus [`SimError::BadLaunch`]
    /// if the launch carries a fault plan (recordings are fault-free
    /// by definition).
    pub fn record(
        config: &GpuConfig,
        protected: &Protected,
        launch: &LaunchConfig,
        global: &GlobalMemory,
    ) -> Result<Recording, SimError> {
        if !launch.faults.is_empty() {
            return Err(SimError::BadLaunch(
                "recordings must be fault-free (inject via run_plan)".into(),
            ));
        }
        check_launch(protected, launch)?;
        let program = Program::new(&protected.kernel);
        let warps_per_block = launch.dims.threads_per_block().div_ceil(32);
        let mut streams: Vec<Stream> = Vec::new();
        streams.resize_with(
            launch.dims.blocks() as usize * warps_per_block as usize,
            Stream::default,
        );
        let mut g = global.fork();
        let mut stats = RunStats::default();
        let mut waves = Vec::new();
        for slot in wave_plan(config, protected, launch, &program) {
            let global_start = g.fork();
            let mut rec = WaveRecorder {
                warps_per_block: warps_per_block as usize,
                blocks: &slot.blocks,
                streams: &mut streams,
                snaps: Vec::new(),
                last_entry: Vec::new(),
                min_gap: 1,
                last_capture: 0,
            };
            let stats_before = stats;
            let cycles = SmEngine::for_wave(
                config,
                protected,
                launch,
                &program,
                &mut g,
                &slot.blocks,
                Some(&mut rec),
            )
            .run_wave(&mut stats)?;
            let snaps = rec.snaps;
            waves.push(WaveRec {
                sm: slot.sm,
                blocks: slot.blocks,
                stats_before,
                stats_after: stats,
                cycles,
                global_start,
                global_end: g.fork(),
                snaps,
            });
        }
        Ok(Recording::assemble(
            config,
            protected,
            launch.clone(),
            program,
            waves,
            streams,
            g,
        ))
    }

    /// A recording of `waves` (the wave plan's waves, in order) whose
    /// warps ran `streams` and left `final_global`: derives the
    /// block -> wave index, each warp's trace, the final statistics and
    /// the restored-register sets. [`Recording::record`] and
    /// [`Recording::deserialize`] both end here.
    pub(crate) fn assemble(
        config: &GpuConfig,
        protected: &Protected,
        launch: LaunchConfig,
        program: Program,
        waves: Vec<WaveRec>,
        streams: Vec<Stream>,
        final_global: GlobalMemory,
    ) -> Recording {
        let num_regs = program.num_regs.max(1);
        let tpb = launch.dims.threads_per_block();
        let warps_per_block = tpb.div_ceil(32);
        let traces = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let width = warp_width(tpb, i as u32 % warps_per_block);
                WarpTrace::build(&program, num_regs, width, s)
            })
            .collect();
        let mut sm_cycles = vec![0u64; config.num_sms as usize];
        for w in &waves {
            sm_cycles[w.sm] += w.cycles;
        }
        let mut final_stats =
            waves.last().map_or_else(RunStats::default, |w| w.stats_after);
        final_stats.cycles = sm_cycles.iter().copied().max().unwrap_or(0);
        Recording {
            protection: config.rf,
            num_sms: config.num_sms as usize,
            launch,
            program,
            block_wave: block_waves(&waves),
            waves,
            traces,
            num_regs,
            warps_per_block,
            final_stats,
            final_global,
            restored: restored_sets(config.rf, protected, num_regs),
        }
    }

    /// The fault-free run's statistics.
    pub fn stats(&self) -> &RunStats {
        &self.final_stats
    }

    /// The launch this recording was traced on.
    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// The fault-free run's final global memory.
    pub fn global(&self) -> &GlobalMemory {
        &self.final_global
    }

    /// Recording-level counters (snapshots retained, total warp
    /// instructions).
    pub fn counters(&self) -> RecordingCounters {
        RecordingCounters {
            snapshots: self.waves.iter().map(|w| w.snaps.len() as u64).sum(),
            total_warp_insts: self.final_stats.warp_instructions,
        }
    }

    /// Warp `warp` of block `block`'s access trace: one bounds-checked
    /// index into the dense table; `None` for a warp the launch does not
    /// have.
    fn trace(&self, block: u32, warp: u32) -> Option<&WarpTrace> {
        if warp >= self.warps_per_block {
            return None;
        }
        self.traces.get(block as usize * self.warps_per_block as usize + warp as usize)
    }

    /// Classifies an injection site against the access trace; returns
    /// the class and, for [`SiteClass::Simulated`], the victim warp's
    /// dynamic index of the first read that observes the flip.
    fn classify(&self, inj: &Injection) -> (SiteClass, Option<u64>) {
        let Some(tr) = self.trace(inj.block, inj.warp) else {
            return (SiteClass::NeverFires, None);
        };
        let t = inj.after_warp_insts;
        if inj.lane >= tr.width || t >= tr.len() || inj.reg as usize >= self.num_regs {
            return (SiteClass::NeverFires, None);
        }
        match tr.first_from(inj.lane, inj.reg, t) {
            None => (SiteClass::Invisible, None),
            Some(a) if !a.read() => (SiteClass::Invisible, None),
            Some(a) => match self.protection {
                RfProtection::Ecc(_) => (SiteClass::CorrectedInline, Some(a.idx())),
                _ => (SiteClass::Simulated, Some(a.idx())),
            },
        }
    }

    /// The class of a site, without running it (reporting only).
    pub fn site_class(&self, inj: &Injection) -> SiteClass {
        self.classify(inj).0
    }

    /// Static attribution of a firing site: the program counter of the
    /// victim warp's dynamic instruction at the trigger, provided the
    /// victim lane belongs to that instruction's flow mask (the lane
    /// then executes exactly the recorded CFG path from this PC on, so
    /// a per-PC static fact applies to it). Returns `None` for
    /// never-firing sites and for lanes outside the mask — those must
    /// be classified dynamically.
    pub fn static_point(&self, inj: &Injection) -> Option<usize> {
        let tr = self.trace(inj.block, inj.warp)?;
        let t = inj.after_warp_insts;
        if inj.lane >= tr.width || t >= tr.len() || inj.reg as usize >= self.num_regs {
            return None;
        }
        let idx = t as usize;
        ((tr.stream.masks[idx] >> inj.lane) & 1 == 1).then(|| tr.stream.pcs[idx] as usize)
    }

    /// The victim cell's first recorded access at or after dynamic
    /// index `from`: `(index, is_read)`. `None` when the cell is never
    /// accessed again, the warp does not exist, or the lane/register
    /// is out of range. Ground truth for the static liveness oracle.
    pub fn first_access(
        &self,
        block: u32,
        warp: u32,
        lane: u32,
        reg: u32,
        from: u64,
    ) -> Option<(u64, bool)> {
        let tr = self.trace(block, warp)?;
        if lane >= tr.width || reg as usize >= self.num_regs {
            return None;
        }
        tr.first_from(lane, reg, from).map(|a| (a.idx(), a.read()))
    }

    /// Iterates the recorded per-warp dynamic streams (PC and flow
    /// mask per dynamic instruction), for analytic site accounting and
    /// the static/dynamic agreement oracle.
    pub fn warp_streams(&self) -> impl Iterator<Item = WarpStream<'_>> {
        // The dense index order is (block, warp) order.
        self.traces.iter().enumerate().map(|(i, tr)| WarpStream {
            block: (i / self.warps_per_block as usize) as u32,
            warp: (i % self.warps_per_block as usize) as u32,
            width: tr.width,
            pcs: &tr.stream.pcs,
            masks: &tr.stream.masks,
            entries: &tr.entries,
        })
    }

    /// For [`SiteClass::Simulated`] sites: the memoization key under
    /// which two sites provably share a bit-identical outcome.
    ///
    /// The default key is the victim cell plus the detecting read: two
    /// sites on one cell whose flips the same read observes produce the
    /// same run. The flip sits architecturally unobserved between
    /// trigger and first read, and under EDC the corrupted value itself
    /// is never seen (so the bit index is irrelevant; an unprotected RF
    /// observes the value, so the bit stays in the key).
    ///
    /// Under parity EDC with regions, a site whose victim cell is mended
    /// by the recovery is keyed by its recovery point instead — (block,
    /// warp, detecting read), with `u32::MAX` in the lane and register
    /// slots — so every cell the read catches shares one replay. The
    /// read aborts, the warp rolls back to its latest region entry, and
    /// from there the runs differ only in the victim cells; a cell is
    /// mended when the recovery restores its register (a live-in of the
    /// region or a setup register) or when its first recorded access at
    /// or after the entry is a write. Any other site — a live-in the
    /// compiler forgot to restore, say — keeps its cell key and its own
    /// replay. [`Recording::run_group`] checks the premise at run time.
    pub fn memo_key(&self, inj: &Injection) -> Option<(u32, u32, u32, u32, u32, u64)> {
        let (SiteClass::Simulated, Some(j)) = self.classify(inj) else {
            return None;
        };
        if self.recovery_point(inj, j).is_some() {
            return Some((inj.block, inj.warp, u32::MAX, u32::MAX, 0, j));
        }
        let bit = match self.protection {
            RfProtection::None => inj.bit,
            _ => 0,
        };
        Some((inj.block, inj.warp, inj.lane, inj.reg, bit, j))
    }

    /// The region entry a simulated site's warp rolls back to when the
    /// read at `detect` trips, provided the recovery mends the victim
    /// cell (see [`Recording::memo_key`]); `None` otherwise.
    fn recovery_point(&self, inj: &Injection, detect: u64) -> Option<RegionEntry> {
        if self.restored.is_empty() {
            return None;
        }
        let tr = self.trace(inj.block, inj.warp)?;
        let n = tr.entries.partition_point(|e| e.executed <= detect);
        let entry = *tr.entries.get(n.checked_sub(1)?)?;
        self.mended_until(tr, entry, inj.lane, inj.reg).map(|_| entry)
    }

    /// How far past `entry` the re-execution must retrace the recording
    /// to mend cell (`lane`, `reg`): `entry.executed` itself (nothing to
    /// retrace) when recovery restores the register, one past the
    /// cell's first access at or after the entry when that access is a
    /// write, `None` when it is a read (the flip would be seen again).
    fn mended_until(
        &self,
        tr: &WarpTrace,
        entry: RegionEntry,
        lane: u32,
        reg: u32,
    ) -> Option<u64> {
        let restored =
            self.restored.get(entry.region.index()).and_then(|s| s.get(reg as usize));
        if restored == Some(&true) {
            return Some(entry.executed);
        }
        match tr.first_from(lane, reg, entry.executed) {
            Some(a) if !a.read() => Some(a.idx() + 1),
            _ => None,
        }
    }

    /// The end (exclusive) of the recorded stretch from `entry` that a
    /// rollback at `detect` must retrace to mend every cell the read
    /// there can catch under this recovery point — a superset of any
    /// one group's members, so the check never depends on sampling.
    /// The candidates are the cells the recorded instruction reads
    /// ([`operands`]); `u64::MAX` (nothing can be retraced) when the
    /// recorded PC names no instruction.
    fn retrace_until(&self, tr: &WarpTrace, entry: RegionEntry, detect: u64) -> u64 {
        let t = detect as usize;
        let s = &tr.stream;
        let (Some(&pc), Some(&mask), Some(&active)) =
            (s.pcs.get(t), s.masks.get(t), s.actives.get(t))
        else {
            return u64::MAX;
        };
        let Some(d) = self.program.decoded.get(pc as usize) else {
            return u64::MAX;
        };
        let mut until = entry.executed;
        operands(d, mask, active, |lanes_of, reg, read| {
            if read && (reg as usize) < self.num_regs {
                for lane in lanes(lanes_of) {
                    if let Some(u) = self.mended_until(tr, entry, lane as u32, reg) {
                        until = until.max(u);
                    }
                }
            }
        });
        until
    }

    /// Answers the representative of a memo group: [`Recording::run_site`]
    /// of `rep`, plus whether the run bears out the premise that lets it
    /// answer the whole group. For a recovery-point key (see
    /// [`Recording::memo_key`]) that premise is checked: after the
    /// rollback the victim warp must retrace the recorded PCs and flow
    /// masks from the region entry through the first write of every
    /// un-restored cell the detecting read can catch, and the run must
    /// recover exactly once. A failed check, or a checked run that ends
    /// in an error, means the group must be split back into cells. A
    /// recovery point whose caught cells are all restored needs no
    /// check, and any other key's premise is the site classification
    /// itself, so those hold.
    pub fn run_group(
        &self,
        config: &GpuConfig,
        protected: &Protected,
        rep: Injection,
    ) -> (Result<SiteRun, SimError>, bool) {
        let plan = FaultPlan::single(rep);
        let point = match self.classify(&rep) {
            (SiteClass::Simulated, Some(j)) => {
                self.recovery_point(&rep, j).map(|entry| (entry, j))
            }
            _ => None,
        };
        let Some((entry, detect)) = point else {
            return (self.run_plan(config, protected, &plan), true);
        };
        let tr = self.trace(rep.block, rep.warp).expect("a recovery point has a trace");
        let span = entry.executed as usize..self.retrace_until(tr, entry, detect) as usize;
        let (Some(pcs), Some(masks)) =
            (tr.stream.pcs.get(span.clone()), tr.stream.masks.get(span))
        else {
            return (self.run_plan(config, protected, &plan), false);
        };
        if pcs.is_empty() {
            // Every cell the read catches is restored by the recovery.
            return (self.run_plan(config, protected, &plan), true);
        }
        let wave = &self.waves[self.block_wave[rep.block as usize]];
        let mut check = Retrace {
            bi: wave.blocks.iter().position(|&b| b == rep.block).expect("victim block"),
            wi: rep.warp as usize,
            detect,
            pcs,
            masks,
            matched: 0,
            diverged: false,
        };
        let run =
            self.simulate_site(config, protected, &plan, rep, detect, Some(&mut check));
        let once = |s: &SiteRun| s.stats.recoveries == self.final_stats.recoveries + 1;
        let held = check.held() && run.as_ref().is_ok_and(once);
        (run, held)
    }

    /// Answers one single-bit injection site: [`Recording::run_plan`]
    /// of the one-injection plan.
    ///
    /// # Errors
    ///
    /// As [`Recording::run_plan`].
    pub fn run_site(
        &self,
        config: &GpuConfig,
        protected: &Protected,
        inj: Injection,
    ) -> Result<SiteRun, SimError> {
        self.run_plan(config, protected, &FaultPlan::single(inj))
    }

    /// Answers a flip plan in one cell — every injection names the same
    /// (block, warp, lane, register, trigger) — bit-identically to a
    /// from-scratch `run` of the same plan (see the module-level
    /// determinism contract). Under ECC a plan of more than one flip is
    /// replayed, never answered [`SiteClass::CorrectedInline`]: SECDED
    /// cannot correct two flips.
    ///
    /// # Errors
    ///
    /// [`SimError::BadLaunch`] for an empty plan or one that names more
    /// than one cell or trigger; otherwise exactly the errors a
    /// from-scratch faulty run would raise (e.g.
    /// [`SimError::UnrecoverableFault`] under EDC with no regions or for
    /// a double flip under SECDED, or [`SimError::CycleLimit`] when a
    /// corrupted loop bound runs away).
    pub fn run_plan(
        &self,
        config: &GpuConfig,
        protected: &Protected,
        plan: &FaultPlan,
    ) -> Result<SiteRun, SimError> {
        let Some(&site) = plan.injections.first() else {
            return Err(SimError::BadLaunch("empty fault plan".into()));
        };
        if plan.injections.iter().any(|i| Injection { bit: site.bit, ..*i } != site) {
            return Err(SimError::BadLaunch(
                "a recording replays flips in one cell at one trigger".into(),
            ));
        }
        let (class, first_read) = match self.classify(&site) {
            (SiteClass::CorrectedInline, read) if plan.injections.len() > 1 => {
                (SiteClass::Simulated, read)
            }
            answer => answer,
        };
        let fired = !matches!(class, SiteClass::NeverFires);
        match class {
            SiteClass::NeverFires | SiteClass::Invisible => Ok(SiteRun {
                stats: self.final_stats,
                global: self.final_global.fork(),
                class,
                fired,
                spliced: false,
                fork_cycle: 0,
                replayed_insts: 0,
                pages_copied: 0,
            }),
            SiteClass::CorrectedInline => {
                let mut stats = self.final_stats;
                stats.rf.corrected += 1;
                stats.rf.decoded_reads += 1;
                Ok(SiteRun {
                    stats,
                    global: self.final_global.fork(),
                    class,
                    fired: true,
                    spliced: false,
                    fork_cycle: 0,
                    replayed_insts: 0,
                    pages_copied: 0,
                })
            }
            SiteClass::Simulated => self.simulate_site(
                config,
                protected,
                plan,
                site,
                first_read.expect("simulated sites carry a first-read index"),
                None,
            ),
        }
    }

    /// Honest replay of a site whose flip is observed by a read: fork
    /// the victim wave from the latest valid snapshot, replay it (under
    /// `check`, when given), then splice or simulate the remainder.
    fn simulate_site(
        &self,
        config: &GpuConfig,
        protected: &Protected,
        plan: &FaultPlan,
        site: Injection,
        first_read: u64,
        check: Option<&mut Retrace<'_>>,
    ) -> Result<SiteRun, SimError> {
        let k = self.block_wave[site.block as usize];
        let wave = &self.waves[k];
        let vb = wave
            .blocks
            .iter()
            .position(|&b| b == site.block)
            .expect("victim block resident in its wave");
        let launch = self.launch.clone().with_faults(plan.clone());
        // Latest snapshot whose victim-warp progress has not passed the
        // first read: the flip is unobserved between the trigger and
        // that read, so applying it at resume time is equivalent to
        // applying it at the trigger.
        let executed = |s: &&Snap| s.state.blocks[vb].warps[site.warp as usize].executed;
        let snap = wave.snaps.iter().rev().find(|s| executed(s) <= first_read);
        let (mut stats, mut global, fork_cycle) = match snap {
            Some(s) => (s.stats, s.global.fork(), s.state.cycle),
            None => (wave.stats_before, wave.global_start.fork(), 0),
        };
        let replay_base = stats.warp_instructions;
        let faulty_cycles = {
            let trace = check.map(|c| c as &mut dyn WaveTrace);
            let mut eng = match snap {
                Some(s) => SmEngine::restore(
                    config,
                    protected,
                    &launch,
                    &self.program,
                    &mut global,
                    &s.state,
                    trace,
                ),
                None => SmEngine::for_wave(
                    config,
                    protected,
                    &launch,
                    &self.program,
                    &mut global,
                    &wave.blocks,
                    trace,
                ),
            };
            eng.run_wave(&mut stats)?
        };
        let mut replayed = stats.warp_instructions - replay_base;
        // Per-SM cycle sums for the waves up to and including the
        // (replayed) victim wave; the two branches below account the
        // suffix waves differently.
        let mut sm_cycles = vec![0u64; self.num_sms];
        for w in &self.waves[..k] {
            sm_cycles[w.sm] += w.cycles;
        }
        sm_cycles[wave.sm] += faulty_cycles;
        if global.contents_eq(&wave.global_end) {
            // The faulty wave converged back onto the recorded memory
            // image, so every later wave replays identically: splice
            // the recorded remainder (stats arithmetic) instead of
            // simulating it.
            for w in &self.waves[k + 1..] {
                sm_cycles[w.sm] += w.cycles;
            }
            let pages_copied = global.pages_copied();
            let stats_final = stats_splice(stats, &self.final_stats, &wave.stats_after);
            let mut g = self.final_global.fork();
            g.reads = self.final_global.reads - wave.global_end.reads + global.reads;
            g.writes = self.final_global.writes - wave.global_end.writes + global.writes;
            let mut stats = stats_final;
            stats.cycles = sm_cycles.iter().copied().max().unwrap_or(0);
            Ok(SiteRun {
                stats,
                global: g,
                class: SiteClass::Simulated,
                fired: true,
                spliced: true,
                fork_cycle,
                replayed_insts: replayed,
                pages_copied,
            })
        } else {
            // Divergent memory: simulate the remaining waves honestly.
            for w in &self.waves[k + 1..] {
                let before = stats.warp_instructions;
                let mut eng = SmEngine::for_wave(
                    config,
                    protected,
                    &launch,
                    &self.program,
                    &mut global,
                    &w.blocks,
                    None,
                );
                sm_cycles[w.sm] += eng.run_wave(&mut stats)?;
                replayed += stats.warp_instructions - before;
            }
            stats.cycles = sm_cycles.iter().copied().max().unwrap_or(0);
            let pages_copied = global.pages_copied();
            Ok(SiteRun {
                stats,
                global,
                class: SiteClass::Simulated,
                fired: true,
                spliced: false,
                fork_cycle,
                replayed_insts: replayed,
                pages_copied,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use penny_coding::Scheme;
    use penny_core::{compile, LaunchDims, PennyConfig};

    use super::*;
    use crate::gen::{try_compile, KernelSpec};

    const KERNEL: &str = r#"
        .kernel work .params A B
        entry:
            mov.u32 %r0, %tid.x
            mov.u32 %r1, %ctaid.x
            mov.u32 %r2, %ntid.x
            mad.u32 %r3, %r1, %r2, %r0
            ld.param.u32 %r4, [A]
            ld.param.u32 %r5, [B]
            shl.u32 %r7, %r3, 2
            add.u32 %r8, %r4, %r7
            add.u32 %r9, %r5, %r7
            ld.global.u32 %r10, [%r8]
            mul.u32 %r11, %r10, 3
            add.u32 %r12, %r11, %r3
            st.global.u32 [%r9], %r12
            ret
    "#;

    /// A kernel with two guarded updates and a data-dependent divergent
    /// branch, for 48-thread blocks (the tail warp is 16 lanes wide).
    const GUARDED: &str = r#"
        .kernel guarded .params A
        entry:
            mov.u32 %r0, %tid.x
            ld.param.u32 %r1, [A]
            shl.u32 %r2, %r0, 2
            add.u32 %r3, %r1, %r2
            ld.global.u32 %r4, [%r3]
            and.u32 %r5, %r0, 1
            setp.eq.u32 %p0, %r5, 1
            @%p0 add.u32 %r4, %r4, 7
            @!%p0 mul.u32 %r4, %r4, %r4
            setp.lt.u32 %p1, %r4, 100
            bra %p1, small, big
        small:
            add.u32 %r4, %r4, %r0
            jmp done
        big:
            sub.u32 %r4, %r4, 1
            jmp done
        done:
            st.global.u32 [%r3], %r4
            ret
    "#;

    /// Asserts that every warp's derived access index holds exactly the
    /// accesses the engine's reference interpreter made, cell by cell and
    /// in order; returns how many there were.
    fn assert_index_is_observed(
        config: &GpuConfig,
        protected: &Protected,
        launch: &LaunchConfig,
        global: &GlobalMemory,
    ) -> usize {
        let rec = Recording::record(config, protected, launch, global).expect("record");
        let observed =
            crate::engine::access_log::observed(config, protected, launch, global)
                .expect("reference run");
        let mut cells: HashMap<_, Vec<Access>> = HashMap::new();
        for o in &observed {
            let access = Access::new(o.idx, o.read);
            cells.entry((o.block, o.warp, o.lane, o.reg)).or_default().push(access);
        }
        let wpb = rec.warps_per_block;
        for (i, tr) in rec.traces.iter().enumerate() {
            let (block, warp) = (i as u32 / wpb, i as u32 % wpb);
            for (lane, reg) in
                (0..32).flat_map(|l| (0..rec.num_regs as u32).map(move |r| (l, r)))
            {
                let want = cells.remove(&(block, warp, lane, reg)).unwrap_or_default();
                assert_eq!(
                    tr.cell(lane, reg),
                    want,
                    "block {block} warp {warp} cell {lane}/{reg}"
                );
            }
        }
        assert!(cells.is_empty(), "accesses the index lacks: {:?}", cells.keys().next());
        observed.len()
    }

    /// The access index a recording derives from its instruction streams
    /// is the engine's: on a guarded, divergent kernel and the snapshot
    /// test kernel at 48 threads per block, a 48-thread generated kernel
    /// and generated kernels at their own dims, compiled for parity EDC
    /// (Penny), SECDED ECC (iGPU) and an unprotected RF.
    #[test]
    fn derived_access_index_is_the_engines_accesses() {
        let mut cases = Vec::new();
        for (text, params) in
            [(GUARDED, vec![0x1_0000]), (KERNEL, vec![0x1_0000, 0x2_0000])]
        {
            let mut global = GlobalMemory::new();
            global.write_slice(
                0x1_0000,
                &(0..96).map(|i: u32| i * 37 % 211).collect::<Vec<_>>(),
            );
            let kernel = penny_ir::parse_kernel(text).expect("parse");
            cases.push((kernel, LaunchDims::linear(2, 48), params, global));
        }
        let specs = (0..24).map(KernelSpec::from_seed);
        let dense = std::iter::once((KernelSpec::dense(vec![0, 5, 6, 3], true), true));
        for (spec, partial) in dense.chain(specs.map(|s| (s, false))) {
            let image = spec.image();
            let mut global = GlobalMemory::new();
            image.apply(&mut global);
            let dims = if partial { LaunchDims::linear(2, 48) } else { spec.dims() };
            cases.push((spec.build(), dims, image.params, global));
        }
        let schemes = [
            (PennyConfig::penny(), RfProtection::Edc(Scheme::Parity)),
            (PennyConfig::igpu(), RfProtection::Ecc(Scheme::Secded)),
            (PennyConfig::unprotected(), RfProtection::None),
        ];
        let mut checked = [0usize; 3];
        for (kernel, dims, params, global) in &cases {
            for (k, (cfg, rf)) in schemes.iter().enumerate() {
                let Some(protected) = try_compile(kernel, cfg.clone().with_launch(*dims))
                else {
                    continue;
                };
                let config = GpuConfig::fermi().with_rf(*rf);
                let launch = LaunchConfig::new(*dims, params.clone());
                let n = assert_index_is_observed(&config, &protected, &launch, global);
                assert!(n > 0, "{} traced no access", kernel.name);
                checked[k] += 1;
            }
        }
        assert!(checked.iter().all(|&n| n >= 3), "too few kernels compiled: {checked:?}");
    }

    /// `run_group` holds a recovery-point replay to the recorded stream:
    /// the replay of a group whose caught cells need a retrace passes
    /// against its own recording and fails against one whose stream
    /// differs inside the window.
    #[test]
    fn run_group_checks_the_replay_retraces_the_recording() {
        let kernel = penny_ir::parse_kernel(KERNEL).expect("parse");
        let dims = LaunchDims::linear(2, 64);
        let protected =
            compile(&kernel, &PennyConfig::penny().with_launch(dims)).expect("compile");
        let config = GpuConfig::fermi().with_rf(RfProtection::Edc(Scheme::Parity));
        let launch = LaunchConfig::new(dims, vec![0x1_0000, 0x2_0000]);
        let mut rec = Recording::record(&config, &protected, &launch, &GlobalMemory::new())
            .expect("record");
        let tr = rec.trace(0, 0).expect("warp 0");
        let windowed = (1..tr.len())
            .flat_map(|t| (0..rec.num_regs as u32).map(move |reg| (t, reg)))
            .find_map(|(t, reg)| {
                let inj = Injection {
                    block: 0,
                    warp: 0,
                    lane: 5,
                    reg,
                    bit: 0,
                    after_warp_insts: t,
                };
                let (SiteClass::Simulated, Some(j)) = rec.classify(&inj) else {
                    return None;
                };
                let entry = rec.recovery_point(&inj, j)?;
                (rec.retrace_until(tr, entry, j) > entry.executed).then_some((inj, entry))
            });
        let (inj, entry) = windowed.expect("a group that needs a retrace");
        let (run, held) = rec.run_group(&config, &protected, inj);
        assert!(run.is_ok() && held, "the faithful replay retraces the recording");
        rec.traces[0].stream.masks[entry.executed as usize] ^= 1;
        let (run, held) = rec.run_group(&config, &protected, inj);
        assert!(run.is_ok() && !held, "a replay off the recorded stream must not hold");
    }
}
