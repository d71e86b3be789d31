//! Versioned binary serialization of fault-free [`Recording`]s.
//!
//! A recording is the expensive half of a conformance campaign: one
//! traced fault-free run per (workload, scheme) pair, whose wave marks,
//! region-boundary snapshots, and instruction streams answer every
//! injection site afterwards. Repeated campaigns on an unchanged
//! (kernel text, `PennyConfig`, `GpuConfig`) triple should not re-trace
//! at all, so this module gives `Recording` a stable on-disk form that
//! `penny-bench`'s recording store persists under a
//! `penny_cache::recording_key` content fingerprint.
//!
//! # Format (version 2)
//!
//! Little-endian throughout. The 24-byte header is `b"PREC"`, a `u32`
//! format version ([`RECORDING_FORMAT_VERSION`]), the caller-supplied
//! `u64` content fingerprint, and a `u64` digest of every byte after the
//! header. [`Recording::deserialize`] rejects a wrong magic, an unknown
//! version, a fingerprint that does not match the caller's expectation,
//! and then a body whose digest differs ([`LoadError::Corrupt`]), all
//! before it parses a body byte: a stale, foreign or damaged file never
//! masquerades as a valid recording.
//!
//! The digest is FNV-1a over the body's little-endian `u64` words, run
//! as four interleaved lanes (word `i` goes to lane `i % 4`; the tail is
//! zero-padded to a whole 32-byte block) with a rotate after each
//! multiply so high bits reach the low ones; the body length and the
//! four lane states are folded into the result. Every step is a
//! bijection of the word or state it takes in, so any change confined to
//! one word — every single-bit flip — changes the digest.
//!
//! The body is, in order:
//!
//! 1. a shared page table: every distinct global-memory page in the
//!    recording, deduplicated by `Arc` identity (the recorded memories
//!    fork from one another copy-on-write, so they share almost every
//!    page; interning keeps the file compact and restores the sharing
//!    on reload); every memory below is its counters and a sorted list
//!    of (page number, table index) pairs;
//! 2. the launch: block and grid dims, then the parameter words;
//! 3. global memory before the first wave;
//! 4. for each wave of the wave plan: the run statistics at its end, its
//!    cycle count, the global memory at its end, and its snapshots — each
//!    a wave state (scheduler cycle, memory horizon and issue cursor; per
//!    resident block its shared memory and, per warp, each register's
//!    live-lane values and the warp's control state), the global memory
//!    and the run statistics at the capture;
//! 5. for each warp, block-major: its dynamic instruction count `n`,
//!    then `n` PCs, `n` flow masks and `n` active masks.
//!
//! Everything else is derived on load, from the launch, the `Protected`
//! artifact and the `GpuConfig` the caller already holds, by the code
//! that derives it when recording: the decoded program and register
//! count; the wave plan (each wave's SM and blocks); the statistics and
//! memory before each later wave (the previous wave's end) and at the
//! end of the run; each resident block's index and coordinates, its warp
//! ids, base threads and widths, and its shared-memory size; each
//! snapshot's per-warp progress; the recording counters; each warp's
//! register access index and region entries (the one builder,
//! `WarpTrace::build`, runs over the stored instruction streams); and the
//! per-region restored registers. Register files are values only: a
//! fault-free recording never has a dirty cell, and a clean cell carries
//! no codeword. A partial warp's padded lanes belong to no thread and
//! are never written.
//!
//! Behind the digest the loader still refuses a length that cannot fit
//! in the bytes left, launch dims whose products overflow or whose warps
//! cannot fit, a page-table index out of range, a page listed twice, a
//! PC outside the program, and trailing bytes.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use penny_coding::Codec;
use penny_core::{LaunchDims, Protected};
use penny_ir::RegionId;

use crate::config::{GpuConfig, RfProtection};
use crate::engine::{warp_width, wave_plan, BlockCtx, LaunchConfig, RunStats, WaveState};
use crate::memory::{GlobalMemory, PageMap, SharedMemory, PAGE_WORDS};
use crate::program::Program;
use crate::regfile::{RegFile, RfStats, WARP_LANES};
use crate::snapshot::{Recording, Snap, Stream, WaveRec};
use crate::warp::{StackEntry, Warp, WarpSnapshot};

/// File magic: "Penny RECording".
const MAGIC: &[u8; 4] = b"PREC";

/// Header bytes: magic, version, fingerprint, body digest.
const HEADER: usize = 24;

/// Current on-disk format version. Any layout change bumps this, which
/// invalidates every persisted recording at load time.
pub const RECORDING_FORMAT_VERSION: u32 = 2;

/// Why a persisted recording was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not start with the recording magic.
    BadMagic,
    /// The file's format version is not [`RECORDING_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file's content fingerprint does not match the caller's
    /// expected (kernel text, config, GPU config) fingerprint — the
    /// file is stale or belongs to a different triple.
    FingerprintMismatch {
        /// Fingerprint the caller computed for the current triple.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// The body does not match the digest in the header: the file was
    /// damaged after it was written.
    Corrupt,
    /// The file ended before the structure did.
    Truncated,
    /// The body is structurally invalid (bad index, impossible length).
    Malformed(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a recording file (bad magic)"),
            LoadError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported recording format version {v} (expected \
                     {RECORDING_FORMAT_VERSION})"
                )
            }
            LoadError::FingerprintMismatch { expected, found } => write!(
                f,
                "recording fingerprint mismatch: expected {expected:#018x}, file has \
                 {found:#018x}"
            ),
            LoadError::Corrupt => write!(f, "recording body does not match its digest"),
            LoadError::Truncated => write!(f, "recording file is truncated"),
            LoadError::Malformed(m) => write!(f, "malformed recording: {m}"),
        }
    }
}

impl Error for LoadError {}

/// The body digest (see the module docs). Other on-disk artifacts reuse
/// it: a banked corpus file carries this digest of its own bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(23);
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    let mut blocks = bytes.chunks_exact(32);
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    let mut step = |block: &[u8]| {
        for (k, h) in lanes.iter_mut().enumerate() {
            let word = block[8 * k..8 * k + 8].try_into().expect("an 8-byte word");
            *h = mix(*h, u64::from_le_bytes(word));
        }
    };
    blocks.by_ref().for_each(&mut step);
    step(&tail);
    lanes.into_iter().fold(bytes.len() as u64, mix)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_words(buf: &mut Vec<u8>, words: &[u32]) {
    buf.reserve(4 * words.len());
    for &w in words {
        put_u32(buf, w);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if n > self.remaining() {
            return Err(LoadError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bulk-decodes `n` little-endian `u32`s in one bounds check (pages,
    /// register files and instruction streams are all `u32` runs).
    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, LoadError> {
        let raw = self.take(n.checked_mul(4).ok_or(LoadError::Truncated)?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn bool(&mut self) -> Result<bool, LoadError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(LoadError::Malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a container length and sanity-checks it against the bytes
    /// remaining (each element costs at least `min_elem` bytes), so a
    /// corrupted length cannot drive a huge allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize, LoadError> {
        let n = self.u64()?;
        if n.saturating_mul(min_elem.max(1) as u64) > self.remaining() as u64 {
            return Err(LoadError::Truncated);
        }
        Ok(n as usize)
    }

    fn done(&self) -> Result<(), LoadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(LoadError::Malformed(format!(
                "{n} trailing bytes after the recording body"
            ))),
        }
    }
}

/// Global-memory pages interned by `Arc` identity: recorded memories
/// fork copy-on-write from one another, so most pages are shared and
/// serialize once.
#[derive(Default)]
struct PageTable {
    ids: HashMap<*const [u32; PAGE_WORDS], u32>,
    pages: Vec<Arc<[u32; PAGE_WORDS]>>,
}

impl PageTable {
    fn intern(&mut self, pg: &Arc<[u32; PAGE_WORDS]>) -> u32 {
        let ptr = Arc::as_ptr(pg);
        if let Some(&id) = self.ids.get(&ptr) {
            return id;
        }
        let id = self.pages.len() as u32;
        self.pages.push(Arc::clone(pg));
        self.ids.insert(ptr, id);
        id
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &RunStats) {
    put_u64(buf, s.cycles);
    put_u64(buf, s.instructions);
    put_u64(buf, s.warp_instructions);
    put_u64(buf, s.rf.reads);
    put_u64(buf, s.rf.writes);
    put_u64(buf, s.rf.detected);
    put_u64(buf, s.rf.corrected);
    put_u64(buf, s.rf.decoded_reads);
    put_u64(buf, s.recoveries);
    put_u64(buf, s.reexec_instructions);
    put_u64(buf, s.global_loads);
    put_u64(buf, s.global_stores);
    put_u64(buf, s.shared_accesses);
    put_u64(buf, s.barriers);
    put_u64(buf, s.skipped_cycles);
}

fn get_stats(r: &mut Reader<'_>) -> Result<RunStats, LoadError> {
    Ok(RunStats {
        cycles: r.u64()?,
        instructions: r.u64()?,
        warp_instructions: r.u64()?,
        rf: RfStats {
            reads: r.u64()?,
            writes: r.u64()?,
            detected: r.u64()?,
            corrected: r.u64()?,
            decoded_reads: r.u64()?,
        },
        recoveries: r.u64()?,
        reexec_instructions: r.u64()?,
        global_loads: r.u64()?,
        global_stores: r.u64()?,
        shared_accesses: r.u64()?,
        barriers: r.u64()?,
        skipped_cycles: r.u64()?,
    })
}

fn put_global(buf: &mut Vec<u8>, table: &mut PageTable, mem: &GlobalMemory) {
    put_u64(buf, mem.reads);
    put_u64(buf, mem.writes);
    let mut keys: Vec<u32> = mem.pages().keys().copied().collect();
    keys.sort_unstable();
    put_u64(buf, keys.len() as u64);
    for p in keys {
        put_u32(buf, p);
        put_u32(buf, table.intern(&mem.pages()[&p]));
    }
}

fn get_global(
    r: &mut Reader<'_>,
    pages: &[Arc<[u32; PAGE_WORDS]>],
) -> Result<GlobalMemory, LoadError> {
    let reads = r.u64()?;
    let writes = r.u64()?;
    let n = r.len(8)?;
    let mut map = PageMap::with_capacity_and_hasher(n, Default::default());
    for _ in 0..n {
        let p = r.u32()?;
        let id = r.u32()? as usize;
        let pg = pages
            .get(id)
            .ok_or_else(|| LoadError::Malformed(format!("page-table index {id}")))?;
        if map.insert(p, Arc::clone(pg)).is_some() {
            return Err(LoadError::Malformed(format!("duplicate page {p}")));
        }
    }
    Ok(GlobalMemory::from_parts(map, reads, writes))
}

fn put_stack(buf: &mut Vec<u8>, stack: &[StackEntry]) {
    put_u64(buf, stack.len() as u64);
    for e in stack {
        put_u64(buf, e.pc as u64);
        put_u64(buf, e.reconv as u64);
        put_u32(buf, e.mask);
    }
}

fn get_stack(r: &mut Reader<'_>) -> Result<Vec<StackEntry>, LoadError> {
    let n = r.len(20)?;
    (0..n)
        .map(|_| {
            Ok(StackEntry {
                pc: r.u64()? as usize,
                reconv: r.u64()? as usize,
                mask: r.u32()?,
            })
        })
        .collect()
}

/// Writes a warp's live-lane register values, register by register, and
/// its control state. A partial warp's padded lanes are not written.
fn put_warp(buf: &mut Vec<u8>, rf: &RegFile, w: &Warp) {
    debug_assert_eq!(rf.dirty_count(), 0, "recordings persist clean register files");
    for reg in 0..rf.len() {
        put_words(buf, &rf.row(reg)[..w.width as usize]);
    }
    put_stack(buf, &w.stack);
    put_u32(buf, w.exited);
    put_u64(buf, w.stall_until);
    put_bool(buf, w.at_barrier);
    put_u64(buf, w.executed);
    match &w.snapshot {
        None => put_bool(buf, false),
        Some(s) => {
            put_bool(buf, true);
            put_stack(buf, &s.stack);
            put_u32(buf, s.exited);
            put_u32(buf, s.region.0);
            put_u64(buf, s.executed);
        }
    }
    put_bool(buf, w.atomic_since_snapshot);
}

/// What the loader derives about every resident block from the launch,
/// the artifact and the GPU configuration.
struct BlockShape {
    dims: LaunchDims,
    num_regs: usize,
    shared_words: usize,
    rf: RfProtection,
    /// Built once and cloned per register file: the ECC codecs carry
    /// lookup tables that are cheaper to copy than to rebuild.
    codec: Option<Codec>,
}

/// Reads warp `id` of a block: its register values, scattered into a
/// clean 32-lane file, and its control state.
fn get_warp(
    r: &mut Reader<'_>,
    shape: &BlockShape,
    id: u32,
) -> Result<(RegFile, Warp), LoadError> {
    let width = warp_width(shape.dims.threads_per_block(), id) as usize;
    let raw = r.take(shape.num_regs * width * 4)?;
    let mut values = vec![0u32; shape.num_regs * WARP_LANES];
    for (row, live) in values.chunks_exact_mut(WARP_LANES).zip(raw.chunks_exact(width * 4))
    {
        for (v, c) in row.iter_mut().zip(live.chunks_exact(4)) {
            *v = u32::from_le_bytes(c.try_into().expect("a 4-byte word"));
        }
    }
    let rf = RegFile::warp_from_values(values, shape.rf, shape.codec.clone());
    let stack = get_stack(r)?;
    let exited = r.u32()?;
    let stall_until = r.u64()?;
    let at_barrier = r.bool()?;
    let executed = r.u64()?;
    let snapshot = if r.bool()? {
        Some(WarpSnapshot {
            stack: get_stack(r)?,
            exited: r.u32()?,
            region: RegionId(r.u32()?),
            executed: r.u64()?,
        })
    } else {
        None
    };
    let warp = Warp {
        id,
        base_thread: id * WARP_LANES as u32,
        width: width as u32,
        stack,
        exited,
        stall_until,
        at_barrier,
        executed,
        snapshot,
        atomic_since_snapshot: r.bool()?,
    };
    Ok((rf, warp))
}

fn put_state(buf: &mut Vec<u8>, st: &WaveState) {
    put_u64(buf, st.cycle);
    put_u64(buf, st.mem_busy_until);
    put_u64(buf, st.rr_cursor as u64);
    for b in &st.blocks {
        put_u64(buf, b.shared.reads);
        put_u64(buf, b.shared.writes);
        put_words(buf, b.shared.words());
        for (rf, w) in b.rfs.iter().zip(&b.warps) {
            put_warp(buf, rf, w);
        }
    }
}

/// Reads the state of a wave whose resident blocks are `blocks`.
fn get_state(
    r: &mut Reader<'_>,
    blocks: &[u32],
    shape: &BlockShape,
) -> Result<WaveState, LoadError> {
    let cycle = r.u64()?;
    let mem_busy_until = r.u64()?;
    let rr_cursor = r.u64()? as usize;
    let dims = &shape.dims;
    let blocks = blocks
        .iter()
        .map(|&index| {
            let (reads, writes) = (r.u64()?, r.u64()?);
            let shared =
                SharedMemory::from_parts(r.u32_vec(shape.shared_words)?, reads, writes);
            let nwarps = dims.threads_per_block().div_ceil(WARP_LANES as u32);
            let (rfs, warps) =
                (0..nwarps).map(|w| get_warp(r, shape, w)).collect::<Result<_, _>>()?;
            let cta = (index % dims.grid.0, index / dims.grid.0);
            Ok(BlockCtx { index, cta, shared, rfs, warps })
        })
        .collect::<Result<_, LoadError>>()?;
    Ok(WaveState { blocks, cycle, mem_busy_until, rr_cursor })
}

impl Recording {
    /// Serializes the recording to the versioned binary format, stamped
    /// with `fingerprint` (the `penny_cache::recording_key` of the
    /// (kernel text, compile config, GPU config) triple it was traced
    /// on). [`Recording::deserialize`] refuses any other fingerprint.
    pub fn serialize(&self, fingerprint: u64) -> Vec<u8> {
        let mut table = PageTable::default();
        let mut body = Vec::new();

        // The launch (recordings are fault-free, so the fault plan is
        // implicitly empty).
        let dims = &self.launch.dims;
        put_words(&mut body, &[dims.block.0, dims.block.1, dims.grid.0, dims.grid.1]);
        put_u64(&mut body, self.launch.params.len() as u64);
        put_words(&mut body, &self.launch.params);

        let initial = self.waves.first().map_or(&self.final_global, |w| &w.global_start);
        put_global(&mut body, &mut table, initial);
        for w in &self.waves {
            put_stats(&mut body, &w.stats_after);
            put_u64(&mut body, w.cycles);
            put_global(&mut body, &mut table, &w.global_end);
            put_u64(&mut body, w.snaps.len() as u64);
            for s in &w.snaps {
                put_state(&mut body, &s.state);
                put_global(&mut body, &mut table, &s.global);
                put_stats(&mut body, &s.stats);
            }
        }

        for tr in &self.traces {
            let s = &tr.stream;
            put_u64(&mut body, s.pcs.len() as u64);
            put_words(&mut body, &s.pcs);
            put_words(&mut body, &s.masks);
            put_words(&mut body, &s.actives);
        }

        // Header + interned page table + body. The table is complete
        // only after the body interned every page, so it is assembled
        // last but written first; the digest goes in once both are.
        let mut out = Vec::with_capacity(
            HEADER + 8 + table.pages.len() * (4 * PAGE_WORDS) + body.len(),
        );
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, RECORDING_FORMAT_VERSION);
        put_u64(&mut out, fingerprint);
        put_u64(&mut out, 0);
        put_u64(&mut out, table.pages.len() as u64);
        for pg in &table.pages {
            put_words(&mut out, &pg[..]);
        }
        out.extend_from_slice(&body);
        let sum = digest(&out[HEADER..]);
        out[HEADER - 8..HEADER].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Reloads a recording persisted by [`Recording::serialize`],
    /// validating the header against `expected_fingerprint` and the
    /// body against its digest, and deriving everything the file does
    /// not store from `protected` and `config` (see the module docs).
    ///
    /// # Errors
    ///
    /// [`LoadError::BadMagic`] / [`LoadError::UnsupportedVersion`] /
    /// [`LoadError::FingerprintMismatch`] when the header does not
    /// match; [`LoadError::Corrupt`] when the body does not match its
    /// digest; [`LoadError::Truncated`] / [`LoadError::Malformed`] on a
    /// body that matches its digest but not the format.
    pub fn deserialize(
        bytes: &[u8],
        expected_fingerprint: u64,
        config: &GpuConfig,
        protected: &Protected,
    ) -> Result<Recording, LoadError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let version = r.u32()?;
        if version != RECORDING_FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion(version));
        }
        let found = r.u64()?;
        if found != expected_fingerprint {
            return Err(LoadError::FingerprintMismatch {
                expected: expected_fingerprint,
                found,
            });
        }
        if r.u64()? != digest(&bytes[HEADER..]) {
            return Err(LoadError::Corrupt);
        }

        let npages = r.len(4 * PAGE_WORDS)?;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let raw = r.take(4 * PAGE_WORDS)?;
            let mut arr = [0u32; PAGE_WORDS];
            for (w, c) in arr.iter_mut().zip(raw.chunks_exact(4)) {
                *w = u32::from_le_bytes(c.try_into().expect("a 4-byte word"));
            }
            pages.push(Arc::new(arr));
        }

        // The launch dims size everything below, so they are checked
        // before any of it is derived: both products must fit, and each
        // block costs the file at least 8 bytes per warp (its stream's
        // length) or, with no threads, 8 for the wave it runs alone in.
        let dims = LaunchDims { block: (r.u32()?, r.u32()?), grid: (r.u32()?, r.u32()?) };
        let (Some(tpb), Some(nblocks)) =
            (dims.block.0.checked_mul(dims.block.1), dims.grid.0.checked_mul(dims.grid.1))
        else {
            return Err(LoadError::Malformed(format!("impossible launch dims {dims:?}")));
        };
        let wpb = u64::from(tpb.div_ceil(WARP_LANES as u32));
        if (u64::from(nblocks) * wpb.max(1)).saturating_mul(8) > r.remaining() as u64 {
            return Err(LoadError::Malformed(format!(
                "launch dims {dims:?} do not fit in the file"
            )));
        }
        let nwarps = u64::from(nblocks) * wpb;
        let nparams = r.len(4)?;
        let launch = LaunchConfig::new(dims, r.u32_vec(nparams)?);

        let program = Program::new(&protected.kernel);
        let shape = BlockShape {
            dims,
            num_regs: program.num_regs.max(1),
            shared_words: (program.shared_bytes + protected.shared_ckpt_bytes).div_ceil(4)
                as usize,
            rf: config.rf,
            codec: config.rf.scheme().codec(),
        };
        let plan = wave_plan(config, protected, &launch, &program);
        let mut global = get_global(&mut r, &pages)?;
        let mut stats_before = RunStats::default();
        let mut waves = Vec::with_capacity(plan.len());
        for slot in plan {
            let stats_after = get_stats(&mut r)?;
            let cycles = r.u64()?;
            let global_end = get_global(&mut r, &pages)?;
            let nsnaps = r.len(1)?;
            let snaps = (0..nsnaps)
                .map(|_| {
                    Ok(Snap {
                        state: get_state(&mut r, &slot.blocks, &shape)?,
                        global: get_global(&mut r, &pages)?,
                        stats: get_stats(&mut r)?,
                    })
                })
                .collect::<Result<_, LoadError>>()?;
            waves.push(WaveRec {
                sm: slot.sm,
                blocks: slot.blocks,
                stats_before,
                stats_after,
                cycles,
                global_start: std::mem::replace(&mut global, global_end.fork()),
                global_end,
                snaps,
            });
            stats_before = stats_after;
        }

        let streams = (0..nwarps)
            .map(|_| {
                let n = r.len(12)?;
                let stream = Stream {
                    pcs: r.u32_vec(n)?,
                    masks: r.u32_vec(n)?,
                    actives: r.u32_vec(n)?,
                };
                match stream.pcs.iter().find(|&&pc| pc as usize >= program.decoded.len()) {
                    Some(pc) => {
                        Err(LoadError::Malformed(format!("PC {pc} outside the program")))
                    }
                    None => Ok(stream),
                }
            })
            .collect::<Result<_, LoadError>>()?;
        r.done()?;
        Ok(Recording::assemble(config, protected, launch, program, waves, streams, global))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_rejections_are_typed() {
        let config = GpuConfig::fermi();
        let kernel = penny_ir::parse_kernel(
            ".kernel f\nentry:\n mov.u32 %r0, 1\n st.global.u32 [%r0], %r0\n ret\n",
        )
        .expect("parse");
        let protected = Protected::passthrough(kernel);

        let err = Recording::deserialize(b"nope", 1, &config, &protected)
            .err()
            .expect("bad magic must fail");
        assert_eq!(err, LoadError::BadMagic);

        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(MAGIC);
        put_u32(&mut bad_version, RECORDING_FORMAT_VERSION + 1);
        put_u64(&mut bad_version, 1);
        let err = Recording::deserialize(&bad_version, 1, &config, &protected)
            .err()
            .expect("bad version must fail");
        assert_eq!(err, LoadError::UnsupportedVersion(RECORDING_FORMAT_VERSION + 1));

        let mut stale = Vec::new();
        stale.extend_from_slice(MAGIC);
        put_u32(&mut stale, RECORDING_FORMAT_VERSION);
        put_u64(&mut stale, 7);
        let err = Recording::deserialize(&stale, 8, &config, &protected)
            .err()
            .expect("stale fingerprint must fail");
        assert_eq!(err, LoadError::FingerprintMismatch { expected: 8, found: 7 });

        let mut truncated = stale.clone();
        truncated.truncate(10);
        let err = Recording::deserialize(&truncated, 7, &config, &protected)
            .err()
            .expect("truncated header must fail");
        assert_eq!(err, LoadError::Truncated);
    }

    /// A Penny recording of a 48-thread block (its second warp is 16
    /// lanes wide) with region-boundary snapshots to persist.
    fn partial_warp_recording() -> (GpuConfig, Protected, Recording) {
        let kernel = penny_ir::parse_kernel(
            ".kernel f .params A\nentry:\n mov.u32 %r0, %tid.x\n ld.param.u32 %r1, [A]\n \
             mad.u32 %r2, %r0, 4, %r1\n ld.global.u32 %r3, [%r2]\n add.u32 %r4, %r3, 1\n \
             st.global.u32 [%r2], %r4\n ld.global.u32 %r5, [%r2]\n add.u32 %r6, %r5, %r0\n \
             st.global.u32 [%r2], %r6\n ret\n",
        )
        .expect("parse");
        let dims = LaunchDims::linear(1, 48);
        let protected = penny_core::compile(
            &kernel,
            &penny_core::PennyConfig::penny().with_launch(dims),
        )
        .expect("compile");
        let config = GpuConfig::fermi();
        let launch = LaunchConfig::new(dims, vec![0x1000]);
        let rec = Recording::record(&config, &protected, &launch, &GlobalMemory::new())
            .expect("record");
        assert!(rec.counters().snapshots > 0, "the recording must persist block states");
        (config, protected, rec)
    }

    #[test]
    fn padded_lanes_never_reach_the_bytes() {
        let (_, _, rec) = partial_warp_recording();
        let bytes = rec.serialize(1);
        let (_, _, mut poisoned) = partial_warp_recording();
        let mut stats = RfStats::default();
        for snap in poisoned.waves.iter_mut().flat_map(|w| &mut w.snaps) {
            for block in &mut snap.state.blocks {
                let rf = &mut block.rfs[1];
                for reg in 0..rf.len() {
                    rf.write_row(
                        reg,
                        u32::MAX << 16,
                        &[0xDEAD_BEEF; WARP_LANES],
                        &mut stats,
                    );
                }
            }
        }
        assert_eq!(poisoned.serialize(1), bytes, "padded lanes leaked into the bytes");
    }

    /// Launch dims whose products overflow, or whose blocks cannot fit
    /// in the file (thread-less ones included), are `Malformed`, never a
    /// panic or a runaway wave plan. Each damaged file carries a
    /// recomputed digest, so the dims check rejects it, not the digest.
    #[test]
    fn impossible_launch_dims_are_malformed() {
        let (config, protected, rec) = partial_warp_recording();
        let bytes = rec.serialize(1);
        // The dims follow the page table.
        let npages = u64::from_le_bytes(bytes[HEADER..HEADER + 8].try_into().unwrap());
        let at = HEADER + 8 + npages as usize * 4 * PAGE_WORDS;
        let dims_at = |bytes: &[u8]| -> Vec<u32> {
            bytes[at..at + 16]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        assert_eq!(dims_at(&bytes), [48, 1, 1, 1]);
        for dims in [
            [65536, 65536, 1, 1],
            [48, 1, 65536, 65536],
            [48, 1, u32::MAX, 1],
            [0, 1, u32::MAX, 1],
        ] {
            let mut bad = bytes.clone();
            for (i, v) in dims.iter().enumerate() {
                bad[at + 4 * i..at + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            let sum = digest(&bad[HEADER..]);
            bad[HEADER - 8..HEADER].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(dims_at(&bad), dims);
            let err = Recording::deserialize(&bad, 1, &config, &protected)
                .err()
                .expect("impossible dims must be rejected");
            assert!(matches!(err, LoadError::Malformed(_)), "{dims:?}: {err:?}");
        }
        assert!(Recording::deserialize(&bytes, 1, &config, &protected).is_ok());
    }

    #[test]
    fn reader_length_guard_rejects_absurd_lengths() {
        // A length claiming more elements than bytes remain must fail
        // without allocating.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut r = Reader::new(&buf);
        assert_eq!(r.len(8).expect_err("length guard"), LoadError::Truncated);
    }
}
