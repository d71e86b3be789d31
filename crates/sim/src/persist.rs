//! Versioned binary serialization of fault-free [`Recording`]s.
//!
//! A recording is the expensive half of a conformance campaign: one
//! traced fault-free run per (workload, scheme) pair, whose wave marks,
//! region-boundary snapshots, and register access trace answer every
//! injection site afterwards. The ROADMAP numbers make the cost
//! concrete — recording MT takes 0.568 ms against 0.035 ms per forked
//! site, and SGEMM pays 3.6 ms per record — so repeated campaigns on an
//! unchanged (kernel text, `PennyConfig`, `GpuConfig`) triple should
//! not re-trace at all. This module gives `Recording` a stable on-disk
//! form so `penny-bench`'s recording store can persist them under a
//! `penny_cache::recording_key` content fingerprint.
//!
//! # Format
//!
//! Little-endian throughout. The header is `b"PREC"`, a `u32` format
//! version ([`RECORDING_FORMAT_VERSION`]), and the caller-supplied
//! `u64` content fingerprint; [`Recording::deserialize`] rejects a
//! wrong magic, an unknown version, or a fingerprint that does not
//! match the caller's expectation *before* touching the body, so a
//! stale or foreign file can never masquerade as a valid recording.
//! After the header comes a shared page table: every distinct
//! global-memory page in the recording, deduplicated by `Arc` identity.
//! The recorded memories (wave start/end marks, snapshot heaps, the
//! final image) fork from one another copy-on-write, so they share
//! almost every page; interning restores both the compactness and the
//! sharing on reload. The body then walks the recording's fields in a
//! fixed order.
//!
//! Two reconstruction shortcuts keep the format small and honest:
//!
//! * register files are persisted as values only, per thread — a
//!   fault-free recording never has a dirty cell, and a clean cell's
//!   codeword is the encoding of its value. The serializer gathers each
//!   thread's values from its lane of its warp's file and the loader
//!   scatters them back, so the bytes do not depend on how the engine
//!   holds registers, and a partial warp's padded lanes are never
//!   written;
//! * the decoded program, the block→wave index, each warp's region
//!   entries and the per-region restored registers are rebuilt from the
//!   `Protected` artifact, the wave list and the PC streams instead of
//!   being stored (all are deterministic functions of them).
//!
//! Warp traces are written in (block, warp) order, each behind its key,
//! which is the order of the recording's dense per-warp table; the
//! loader rejects a key out of range, repeated or out of order.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use penny_coding::Codec;
use penny_core::{LaunchDims, Protected};
use penny_ir::RegionId;

use crate::config::GpuConfig;
use crate::engine::{thread_tid, BlockCtx, LaunchConfig, RunStats, WaveState};
use crate::memory::{GlobalMemory, PageMap, SharedMemory, PAGE_WORDS};
use crate::program::Program;
use crate::regfile::{RegFile, RfStats, WARP_LANES};
use crate::snapshot::{
    block_waves, restored_sets, Access, Recording, RecordingCounters, Snap, WarpTrace,
    WaveRec,
};
use crate::warp::{StackEntry, Warp, WarpSnapshot};

/// File magic: "Penny RECording".
const MAGIC: &[u8; 4] = b"PREC";

/// Current on-disk format version. Any layout change bumps this, which
/// invalidates every persisted recording at load time.
pub const RECORDING_FORMAT_VERSION: u32 = 1;

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
    /// The file ended before the structure did.
    Truncated,
    /// The body is structurally invalid (bad index, impossible length).
    Malformed(String),
    /// The body is inconsistent with the artifact or GPU configuration
    /// it is being loaded against.
    ConfigMismatch(String),
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
            LoadError::Truncated => write!(f, "recording file is truncated"),
            LoadError::Malformed(m) => write!(f, "malformed recording: {m}"),
            LoadError::ConfigMismatch(m) => {
                write!(f, "recording does not match the current configuration: {m}")
            }
        }
    }
}

impl Error for LoadError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self.pos.checked_add(n).ok_or(LoadError::Truncated)?;
        if end > self.bytes.len() {
            return Err(LoadError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bulk-decodes `n` little-endian `u32`s in one bounds check. The
    /// element-at-a-time `u32()` path costs a range check and a `pos`
    /// update per word, which dominates load time for multi-megabyte
    /// recordings (pages, register files, traces are all `u32` runs).
    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, LoadError> {
        let raw = self.take(n.checked_mul(4).ok_or(LoadError::Truncated)?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Bulk-decodes `n` little-endian `u64`s (see [`Reader::u32_vec`]).
    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, LoadError> {
        let raw = self.take(n.checked_mul(8).ok_or(LoadError::Truncated)?)?;
        Ok(raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
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
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(min_elem.max(1) as u64) > remaining {
            return Err(LoadError::Truncated);
        }
        Ok(n as usize)
    }

    fn done(&self) -> Result<(), LoadError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(LoadError::Malformed(format!(
                "{} trailing bytes after the recording body",
                self.bytes.len() - self.pos
            )))
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

fn put_shared(buf: &mut Vec<u8>, s: &SharedMemory) {
    put_u64(buf, s.reads);
    put_u64(buf, s.writes);
    let words = s.words();
    put_u64(buf, words.len() as u64);
    for &w in words {
        put_u32(buf, w);
    }
}

fn get_shared(r: &mut Reader<'_>) -> Result<SharedMemory, LoadError> {
    let reads = r.u64()?;
    let writes = r.u64()?;
    let n = r.len(4)?;
    let words = r.u32_vec(n)?;
    Ok(SharedMemory::from_parts(words, reads, writes))
}

/// Writes each of a block's threads — its coordinates and its
/// registers' values — gathered from its lane of its warp's file. The
/// padded lanes of a partial last warp belong to no thread and are not
/// written.
fn put_threads(buf: &mut Vec<u8>, rfs: &[RegFile], dims: &LaunchDims) {
    let tpb = dims.threads_per_block();
    put_u64(buf, tpb as u64);
    for t in 0..tpb {
        let (x, y) = thread_tid(t, dims);
        put_u32(buf, x);
        put_u32(buf, y);
        let rf = &rfs[t as usize / WARP_LANES];
        debug_assert_eq!(rf.dirty_count(), 0, "recordings persist clean register files");
        let lane = t as usize % WARP_LANES;
        put_u64(buf, rf.len() as u64);
        for reg in 0..rf.len() {
            put_u32(buf, rf.row(reg)[lane]);
        }
    }
}

/// Reads a block's threads and scatters their values into one clean
/// file per warp. Every thread must carry its own coordinates and
/// exactly `num_regs` values.
fn get_threads(
    r: &mut Reader<'_>,
    dims: &LaunchDims,
    num_regs: usize,
    config: &GpuConfig,
    codec: &Option<Codec>,
) -> Result<Vec<RegFile>, LoadError> {
    let tpb = dims.threads_per_block() as usize;
    let nthreads = r.len(8 + 8)?;
    if nthreads != tpb {
        return Err(LoadError::Malformed(format!(
            "block has {nthreads} threads, dims give {tpb}"
        )));
    }
    let mut rows = vec![vec![0u32; num_regs * WARP_LANES]; tpb.div_ceil(WARP_LANES)];
    for t in 0..tpb {
        let tid = (r.u32()?, r.u32()?);
        if tid != thread_tid(t as u32, dims) {
            return Err(LoadError::Malformed(format!(
                "thread {t} has coordinates {tid:?}"
            )));
        }
        let n = r.len(4)?;
        if n != num_regs {
            return Err(LoadError::Malformed(format!(
                "thread {t} has {n} registers, expected {num_regs}"
            )));
        }
        let raw = r.take(4 * n)?;
        let (values, lane) = (&mut rows[t / WARP_LANES], t % WARP_LANES);
        for (reg, c) in raw.chunks_exact(4).enumerate() {
            values[reg * WARP_LANES + lane] = u32::from_le_bytes(c.try_into().unwrap());
        }
    }
    Ok(rows
        .into_iter()
        .map(|values| RegFile::warp_from_values(values, config.rf, codec.clone()))
        .collect())
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

fn put_warp(buf: &mut Vec<u8>, w: &Warp) {
    put_u32(buf, w.id);
    put_u32(buf, w.base_thread);
    put_u32(buf, w.width);
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

fn get_warp(r: &mut Reader<'_>) -> Result<Warp, LoadError> {
    let id = r.u32()?;
    let base_thread = r.u32()?;
    let width = r.u32()?;
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
    let atomic_since_snapshot = r.bool()?;
    Ok(Warp {
        id,
        base_thread,
        width,
        stack,
        exited,
        stall_until,
        at_barrier,
        executed,
        snapshot,
        atomic_since_snapshot,
    })
}

fn put_state(buf: &mut Vec<u8>, st: &WaveState, dims: &LaunchDims) {
    put_u64(buf, st.cycle);
    put_u64(buf, st.mem_busy_until);
    put_u64(buf, st.rr_cursor as u64);
    put_u64(buf, st.blocks.len() as u64);
    for b in &st.blocks {
        put_u32(buf, b.index);
        put_u32(buf, b.cta.0);
        put_u32(buf, b.cta.1);
        put_shared(buf, &b.shared);
        put_threads(buf, &b.rfs, dims);
        put_u64(buf, b.warps.len() as u64);
        for w in &b.warps {
            put_warp(buf, w);
        }
    }
}

fn get_state(
    r: &mut Reader<'_>,
    dims: &LaunchDims,
    num_regs: usize,
    config: &GpuConfig,
    codec: &Option<Codec>,
) -> Result<WaveState, LoadError> {
    let cycle = r.u64()?;
    let mem_busy_until = r.u64()?;
    let rr_cursor = r.u64()? as usize;
    let nblocks = r.len(1)?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let index = r.u32()?;
        let cta = (r.u32()?, r.u32()?);
        let shared = get_shared(r)?;
        let rfs = get_threads(r, dims, num_regs, config, codec)?;
        let nwarps = r.len(1)?;
        let warps = (0..nwarps).map(|_| get_warp(r)).collect::<Result<Vec<Warp>, _>>()?;
        // Each warp owns the file its lanes were scattered into.
        let tpb = dims.threads_per_block();
        let misplaced = warps.len() != rfs.len()
            || warps.iter().enumerate().any(|(i, w)| {
                let base = i as u32 * WARP_LANES as u32;
                (w.id, w.base_thread, w.width) != (i as u32, base, (tpb - base).min(32))
            });
        if misplaced {
            return Err(LoadError::Malformed(
                "warps disagree with the block's threads".into(),
            ));
        }
        blocks.push(BlockCtx { index, cta, shared, rfs, warps });
    }
    Ok(WaveState { blocks, cycle, mem_busy_until, rr_cursor })
}

fn put_trace(buf: &mut Vec<u8>, tr: &WarpTrace) {
    put_u64(buf, tr.final_executed);
    put_u32(buf, tr.width);
    put_u64(buf, tr.num_cells() as u64);
    for i in 0..tr.num_cells() {
        let cell = tr.cell(i);
        put_u64(buf, cell.len() as u64);
        for a in cell {
            put_u64(buf, a.idx);
            put_bool(buf, a.read);
        }
    }
    put_u64(buf, tr.pcs.len() as u64);
    for &pc in &tr.pcs {
        put_u32(buf, pc);
    }
    put_u64(buf, tr.masks.len() as u64);
    for &m in &tr.masks {
        put_u32(buf, m);
    }
}

fn get_trace(
    r: &mut Reader<'_>,
    num_regs: usize,
    program: &Program,
) -> Result<WarpTrace, LoadError> {
    let final_executed = r.u64()?;
    let width = r.u32()?;
    let ncells = r.len(8)?;
    if ncells != 32 * num_regs {
        return Err(LoadError::Malformed(format!(
            "warp trace has {ncells} cells, expected {}",
            32 * num_regs
        )));
    }
    // The CSR layout rebuilds from exactly two growing vectors; each
    // cell decodes its fixed 9-byte (u64 idx, bool read) pairs from a
    // single `take`, so the whole trace section — the bulk of a large
    // recording — costs one bounds check per cell, not per access.
    let mut offsets = Vec::with_capacity(ncells + 1);
    offsets.push(0u32);
    let mut flat = Vec::new();
    for _ in 0..ncells {
        let n = r.len(9)?;
        let raw = r.take(9 * n)?;
        flat.reserve(n);
        for c in raw.chunks_exact(9) {
            let read = match c[8] {
                0 => false,
                1 => true,
                b => return Err(LoadError::Malformed(format!("invalid bool byte {b}"))),
            };
            flat.push(Access { idx: u64::from_le_bytes(c[..8].try_into().unwrap()), read });
        }
        let end = u32::try_from(flat.len())
            .map_err(|_| LoadError::Malformed("access trace exceeds u32 range".into()))?;
        offsets.push(end);
    }
    let npcs = r.len(4)?;
    let pcs = r.u32_vec(npcs)?;
    let nmasks = r.len(4)?;
    let masks = r.u32_vec(nmasks)?;
    Ok(WarpTrace::from_csr(offsets, flat, final_executed, width, pcs, masks, program))
}

impl Recording {
    /// Serializes the recording to the versioned binary format, stamped
    /// with `fingerprint` (the `penny_cache::recording_key` of the
    /// (kernel text, compile config, GPU config) triple it was traced
    /// on). [`Recording::deserialize`] refuses any other fingerprint.
    pub fn serialize(&self, fingerprint: u64) -> Vec<u8> {
        let mut table = PageTable::default();
        let mut body = Vec::new();

        // Launch geometry and parameters (recordings are fault-free, so
        // the fault plan is implicitly empty).
        put_u32(&mut body, self.launch.dims.block.0);
        put_u32(&mut body, self.launch.dims.block.1);
        put_u32(&mut body, self.launch.dims.grid.0);
        put_u32(&mut body, self.launch.dims.grid.1);
        put_u64(&mut body, self.launch.params.len() as u64);
        for &p in &self.launch.params {
            put_u32(&mut body, p);
        }

        put_u64(&mut body, self.num_regs as u64);
        put_u32(&mut body, self.warps_per_block);
        put_stats(&mut body, &self.final_stats);
        put_u64(&mut body, self.counters.snapshots);
        put_u64(&mut body, self.counters.total_warp_insts);

        put_u64(&mut body, self.waves.len() as u64);
        for w in &self.waves {
            put_u64(&mut body, w.sm as u64);
            put_u64(&mut body, w.blocks.len() as u64);
            for &b in &w.blocks {
                put_u32(&mut body, b);
            }
            put_stats(&mut body, &w.stats_before);
            put_stats(&mut body, &w.stats_after);
            put_u64(&mut body, w.cycles);
            put_global(&mut body, &mut table, &w.global_start);
            put_global(&mut body, &mut table, &w.global_end);
            put_u64(&mut body, w.snaps.len() as u64);
            for s in &w.snaps {
                put_state(&mut body, &s.state, &self.launch.dims);
                put_global(&mut body, &mut table, &s.global);
                put_stats(&mut body, &s.stats);
                put_u64(&mut body, s.executed.len() as u64);
                for &e in &s.executed {
                    put_u64(&mut body, e);
                }
            }
        }

        put_u64(&mut body, self.traces.len() as u64);
        for (s, tr) in self.warp_streams().zip(&self.traces) {
            put_u32(&mut body, s.block);
            put_u32(&mut body, s.warp);
            put_trace(&mut body, tr);
        }

        put_global(&mut body, &mut table, &self.final_global);

        // Header + interned page table + body. The table is complete
        // only after the body interned every page, so it is assembled
        // last but written first.
        let mut out =
            Vec::with_capacity(16 + table.pages.len() * (4 * PAGE_WORDS) + body.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, RECORDING_FORMAT_VERSION);
        put_u64(&mut out, fingerprint);
        put_u64(&mut out, table.pages.len() as u64);
        for pg in &table.pages {
            for &w in pg.iter() {
                put_u32(&mut out, w);
            }
        }
        out.extend_from_slice(&body);
        out
    }

    /// Reloads a recording persisted by [`Recording::serialize`],
    /// validating the header against `expected_fingerprint` and
    /// rebuilding the decoded program from `protected` and the
    /// register-file encodings from `config`.
    ///
    /// # Errors
    ///
    /// [`LoadError::BadMagic`] / [`LoadError::UnsupportedVersion`] /
    /// [`LoadError::FingerprintMismatch`] when the header does not
    /// match; [`LoadError::Truncated`] / [`LoadError::Malformed`] on a
    /// damaged body; [`LoadError::ConfigMismatch`] when the body is
    /// inconsistent with `protected` or `config` (a fingerprint
    /// collision or a caller bug).
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

        // Built once and cloned per register file: a campaign-sized
        // recording reconstructs thousands of them, and the ECC codecs
        // carry lookup tables that are cheaper to copy than to rebuild.
        let codec = config.rf.scheme().codec();

        let npages = r.len(4 * PAGE_WORDS)?;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let raw = r.take(4 * PAGE_WORDS)?;
            let mut arr = [0u32; PAGE_WORDS];
            for (w, c) in arr.iter_mut().zip(raw.chunks_exact(4)) {
                *w = u32::from_le_bytes(c.try_into().unwrap());
            }
            pages.push(Arc::new(arr));
        }

        let dims = LaunchDims { block: (r.u32()?, r.u32()?), grid: (r.u32()?, r.u32()?) };
        let nparams = r.len(4)?;
        let params = r.u32_vec(nparams)?;
        let launch = LaunchConfig::new(dims, params);

        let program = Program::new(&protected.kernel);
        let num_regs = r.u64()? as usize;
        if num_regs != program.num_regs.max(1) {
            return Err(LoadError::ConfigMismatch(format!(
                "recording has {num_regs} registers, kernel has {}",
                program.num_regs.max(1)
            )));
        }
        let warps_per_block = r.u32()?;
        if warps_per_block != dims.threads_per_block().div_ceil(32) {
            return Err(LoadError::Malformed("warps-per-block disagrees with dims".into()));
        }
        let final_stats = get_stats(&mut r)?;
        let counters =
            RecordingCounters { snapshots: r.u64()?, total_warp_insts: r.u64()? };

        let num_sms = config.num_sms as usize;
        let nwaves = r.len(1)?;
        let mut waves = Vec::with_capacity(nwaves);
        for _ in 0..nwaves {
            let sm = r.u64()? as usize;
            if sm >= num_sms {
                return Err(LoadError::ConfigMismatch(format!(
                    "wave on SM {sm}, GPU has {num_sms}"
                )));
            }
            let nblocks = r.len(4)?;
            let blocks = r.u32_vec(nblocks)?;
            let stats_before = get_stats(&mut r)?;
            let stats_after = get_stats(&mut r)?;
            let cycles = r.u64()?;
            let global_start = get_global(&mut r, &pages)?;
            let global_end = get_global(&mut r, &pages)?;
            let nsnaps = r.len(1)?;
            let mut snaps = Vec::with_capacity(nsnaps);
            for _ in 0..nsnaps {
                let state = get_state(&mut r, &dims, num_regs, config, &codec)?;
                let global = get_global(&mut r, &pages)?;
                let stats = get_stats(&mut r)?;
                let nexec = r.len(8)?;
                let executed = r.u64_vec(nexec)?;
                snaps.push(Snap { state, global, stats, executed });
            }
            waves.push(WaveRec {
                sm,
                blocks,
                stats_before,
                stats_after,
                cycles,
                global_start,
                global_end,
                snaps,
            });
        }

        let block_wave = block_waves(&waves).map_err(|b| {
            LoadError::Malformed(format!(
                "block {b} out of range or scheduled in two waves"
            ))
        })?;

        // One trace per scheduled (block, warp), written in the dense
        // table's order: the table is sized by the length-checked count,
        // and a key out of range, repeated or out of order is rejected.
        let ntraces = r.len(8)?;
        let wpb = warps_per_block as usize;
        if ntraces as u64 != (block_wave.len() as u64).saturating_mul(wpb as u64) {
            return Err(LoadError::Malformed(format!(
                "{ntraces} warp traces for {} blocks of {wpb} warps",
                block_wave.len()
            )));
        }
        let mut traces = Vec::with_capacity(ntraces);
        for i in 0..ntraces {
            let key = (r.u32()?, r.u32()?);
            if key != ((i / wpb) as u32, (i % wpb) as u32) {
                return Err(LoadError::Malformed(format!(
                    "warp trace {key:?} out of place"
                )));
            }
            traces.push(get_trace(&mut r, num_regs, &program)?);
        }

        let final_global = get_global(&mut r, &pages)?;
        r.done()?;

        Ok(Recording {
            protection: config.rf,
            num_sms,
            launch,
            program,
            waves,
            block_wave,
            traces,
            num_regs,
            warps_per_block,
            final_stats,
            final_global,
            counters,
            restored: restored_sets(config.rf, protected, num_regs),
        })
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

    #[test]
    fn out_of_range_and_duplicate_trace_keys_are_malformed() {
        let config = GpuConfig::fermi();
        let kernel =
            penny_ir::parse_kernel(".kernel f\nentry:\n mov.u32 %r0, %tid.x\n ret\n")
                .expect("parse");
        let protected = Protected::passthrough(kernel);
        let launch = LaunchConfig::new(LaunchDims::linear(2, 64), Vec::new());
        let rec = Recording::record(&config, &protected, &launch, &GlobalMemory::new())
            .expect("record");
        let wpb = rec.warps_per_block;
        assert_eq!((rec.traces.len(), wpb), (4, 2));
        let bytes = rec.serialize(1);
        // Trace `i`'s key is the (block, warp) pair right before its
        // final count, width and cell count.
        let key_at = |i: usize| {
            let tr = &rec.traces[i];
            let mut pat = Vec::new();
            put_u32(&mut pat, i as u32 / wpb);
            put_u32(&mut pat, i as u32 % wpb);
            put_u64(&mut pat, tr.final_executed);
            put_u32(&mut pat, tr.width);
            put_u64(&mut pat, tr.num_cells() as u64);
            bytes.windows(pat.len()).position(|w| w == pat).expect("trace key")
        };
        for (i, key) in [(0, (0, wpb)), (0, (2, 0)), (1, (0, 0)), (3, (u32::MAX, 1))] {
            let mut bad = bytes.clone();
            let at = key_at(i);
            bad[at..at + 4].copy_from_slice(&key.0.to_le_bytes());
            bad[at + 4..at + 8].copy_from_slice(&key.1.to_le_bytes());
            let err = Recording::deserialize(&bad, 1, &config, &protected)
                .err()
                .expect("a bad trace key must be rejected");
            assert!(
                matches!(err, LoadError::Malformed(_)),
                "trace {i} as {key:?}: {err:?}"
            );
        }
        assert!(Recording::deserialize(&bytes, 1, &config, &protected).is_ok());
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
        assert!(rec.counters.snapshots > 0, "the recording must persist block states");
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

    #[test]
    fn short_ragged_or_misplaced_threads_are_malformed() {
        let (config, protected, rec) = partial_warp_recording();
        let bytes = rec.serialize(1);
        // Thread 1's entry in the first persisted block state:
        // coordinates, register count, values.
        let state =
            &rec.waves.iter().find_map(|w| w.snaps.first()).expect("snapshot").state;
        let rf = &state.blocks[0].rfs[0];
        let mut entry = Vec::new();
        put_u32(&mut entry, 1);
        put_u32(&mut entry, 0);
        put_u64(&mut entry, rf.len() as u64);
        for reg in 0..rf.len() {
            put_u32(&mut entry, rf.row(reg)[1]);
        }
        let at = bytes.windows(entry.len()).position(|w| w == entry).expect("thread 1");
        let count_at = at - entry.len() - 8; // the block's thread count
        let regs = rf.len() as u64;
        for (offset, value) in [
            (at + 8, regs - 1), // a short register list
            (at + 8, regs + 1), // a ragged one
            (at, 2),            // thread 1 claiming thread 2's coordinates
            (count_at, 47),     // one thread short of the block
            (count_at, 64),     // the padded lanes claimed as threads
        ] {
            let mut bad = bytes.clone();
            let width = if offset == at { 4 } else { 8 };
            bad[offset..offset + width].copy_from_slice(&value.to_le_bytes()[..width]);
            let err = Recording::deserialize(&bad, 1, &config, &protected)
                .err()
                .expect("a damaged thread list must be rejected");
            assert!(
                matches!(err, LoadError::Malformed(_) | LoadError::Truncated),
                "{value} at {offset}: {err:?}"
            );
        }
        // The tail warp (id 1, lanes from thread 32, 16 wide) claiming
        // the padded lanes.
        let mut tail = Vec::new();
        for v in [1u32, 32, 16] {
            put_u32(&mut tail, v);
        }
        let at = bytes.windows(tail.len()).position(|w| w == tail).expect("tail warp");
        let mut bad = bytes.clone();
        bad[at + 8..at + 12].copy_from_slice(&32u32.to_le_bytes());
        let err = Recording::deserialize(&bad, 1, &config, &protected)
            .err()
            .expect("a widened tail warp must be rejected");
        assert!(matches!(err, LoadError::Malformed(_)), "{err:?}");
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
