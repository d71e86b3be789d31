//! Deterministic generative kernel machinery shared by the
//! `decoded_equivalence` property suite and the `penny-fuzz` pipeline.
//!
//! Two kernel families are minted from compact op scripts:
//!
//! * **Dense** ([`build_kernel`]) — the structured shape the decoded
//!   equivalence suite has always generated: a uniform counted loop
//!   whose body is driven by an op script (divergent diamonds, guarded
//!   updates, in-place global read-modify-writes, shared-memory round
//!   trips with an optional barrier).
//! * **Sparse** ([`build_sparse_kernel`]) — a CSR-style irregular
//!   shape: per-row data-dependent trip counts, indirect
//!   column/value loads (`CI[j]`, `XV[CI[j]]`), pointer chases,
//!   data-dependent guarded updates, in-place row accumulation, and a
//!   data-dependent atomic histogram scatter. These are exactly the
//!   address-generation and irregular-store paths the dense evaluation
//!   suite never exercises.
//!
//! A [`KernelSpec`] packages one generated kernel — family, op script,
//! topology seed — together with its launch geometry and a
//! deterministic input [`MemImage`], and round-trips through a compact
//! text form ([`KernelSpec::render`] / [`KernelSpec::parse`]) so banked
//! corpus kernels record exactly how they were minted.
//!
//! Everything here is a pure function of its inputs: the same spec
//! always produces the same kernel, image, and fault plans.

use penny_core::{LaunchDims, PennyConfig, Protected};
use penny_ir::{AtomOp, Cmp, Kernel, KernelBuilder, MemSpace, Special, Type};

use crate::{engine, FaultPlan, GlobalMemory, GpuConfig, RunStats};

/// SplitMix64 step: the seed-derivation PRNG for spec and topology
/// generation (stable, dependency-free, full 64-bit avalanche).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of distinct op codes in either family's script alphabet.
pub const OP_ALPHABET: u8 = 8;

/// Rows (and columns) of the generated CSR topology: one row per
/// thread of the sparse launch geometry.
pub const SPARSE_ROWS: u32 = 64;

/// Generated kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Structured dense loop (uniform trip count, optional barrier).
    Dense,
    /// CSR-style irregular kernel (data-dependent loops, indirect
    /// loads, data-dependent stores).
    Sparse,
}

impl Family {
    /// Short tag used in names and rendered specs.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Dense => "dense",
            Family::Sparse => "sparse",
        }
    }
}

/// A deterministic device-memory input image plus kernel parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    /// `(base address, words)` slices written before launch.
    pub writes: Vec<(u32, Vec<u32>)>,
    /// Kernel parameter words, in declaration order.
    pub params: Vec<u32>,
}

impl MemImage {
    /// Writes every slice into `global`.
    pub fn apply(&self, global: &mut GlobalMemory) {
        for (base, words) in &self.writes {
            global.write_slice(*base, words);
        }
    }
}

/// One generated kernel: family, op script, and (for sparse) the CSR
/// topology seed. A spec is the unit the fuzz pipeline generates,
/// shrinks, and banks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpec {
    /// Kernel family.
    pub family: Family,
    /// Op script driving the loop body (values `0..OP_ALPHABET`).
    pub ops: Vec<u8>,
    /// Dense only: emit a barrier in the shared-memory round trip.
    pub barrier: bool,
    /// Sparse only: CSR topology / input-value seed.
    pub topo_seed: u64,
    /// Sparse only: maximum nonzeros per row (trip-count spread).
    pub max_row_nnz: u8,
}

impl KernelSpec {
    /// A dense-family spec.
    pub fn dense(ops: Vec<u8>, barrier: bool) -> KernelSpec {
        KernelSpec { family: Family::Dense, ops, barrier, topo_seed: 0, max_row_nnz: 0 }
    }

    /// A sparse-family spec.
    pub fn sparse(ops: Vec<u8>, topo_seed: u64, max_row_nnz: u8) -> KernelSpec {
        KernelSpec {
            family: Family::Sparse,
            ops,
            barrier: false,
            topo_seed,
            max_row_nnz: max_row_nnz.clamp(1, 15),
        }
    }

    /// Derives a spec deterministically from a single seed: family,
    /// script length, script contents, and topology all follow from
    /// SplitMix64 draws, so iteration `i` of a fuzz run is
    /// reproducible from `splitmix64(base_seed + i)` alone.
    pub fn from_seed(seed: u64) -> KernelSpec {
        let mut s = seed;
        let mut draw = || {
            s = splitmix64(s);
            s
        };
        let family = if draw() % 2 == 0 { Family::Dense } else { Family::Sparse };
        let len = (draw() % 12 + 1) as usize;
        let ops: Vec<u8> = (0..len).map(|_| (draw() % OP_ALPHABET as u64) as u8).collect();
        match family {
            Family::Dense => KernelSpec::dense(ops, draw() % 2 == 0),
            Family::Sparse => {
                let nnz = (draw() % 8 + 1) as u8;
                KernelSpec::sparse(ops, draw(), nnz)
            }
        }
    }

    /// Launch geometry the generated kernel is written for.
    pub fn dims(&self) -> LaunchDims {
        match self.family {
            Family::Dense => LaunchDims::linear(2, 64),
            Family::Sparse => LaunchDims::linear(2, 32),
        }
    }

    /// Builds the kernel (validated by construction).
    pub fn build(&self) -> Kernel {
        match self.family {
            Family::Dense => build_kernel(&self.ops, self.barrier),
            Family::Sparse => build_sparse_kernel(&self.ops),
        }
    }

    /// The deterministic input image and parameter words for this spec.
    pub fn image(&self) -> MemImage {
        match self.family {
            Family::Dense => MemImage {
                writes: vec![(
                    0x1000,
                    (0u32..64).map(|x| x.wrapping_mul(7).wrapping_add(3)).collect(),
                )],
                params: vec![0x1000, 0x2000],
            },
            Family::Sparse => {
                let topo = CsrTopo::generate(self.topo_seed, self.max_row_nnz);
                MemImage {
                    writes: vec![
                        (0x1000, topo.row_ptr.clone()),
                        (0x2000, topo.cols.clone()),
                        (0x3000, topo.x.clone()),
                    ],
                    params: vec![0x1000, 0x2000, 0x3000, 0x4000, 0x5000],
                }
            }
        }
    }

    /// Shrink metric: strictly decreasing along every candidate chain
    /// the fuzz shrinker explores (script length, plus one for the
    /// barrier and each unit of row-density above the minimum).
    pub fn size(&self) -> usize {
        self.ops.len()
            + usize::from(self.barrier)
            + usize::from(self.max_row_nnz.saturating_sub(1))
    }

    /// Stable short name, e.g. `fzs-1a2b3c4d5e` — a content hash of the
    /// rendered spec, so equal specs always share a name.
    pub fn name(&self) -> String {
        let tag = match self.family {
            Family::Dense => "fzd",
            Family::Sparse => "fzs",
        };
        format!("{tag}-{:010x}", fnv1a(self.render().as_bytes()) & 0xFF_FFFF_FFFF)
    }

    /// Compact one-line text form (see [`KernelSpec::parse`]).
    pub fn render(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|o| o.to_string()).collect();
        match self.family {
            Family::Dense => {
                format!("dense;ops={};barrier={}", ops.join(","), u8::from(self.barrier))
            }
            Family::Sparse => format!(
                "sparse;ops={};nnz={};topo={:#x}",
                ops.join(","),
                self.max_row_nnz,
                self.topo_seed
            ),
        }
    }

    /// Parses the [`KernelSpec::render`] form back into a spec.
    pub fn parse(s: &str) -> Option<KernelSpec> {
        let mut family = None;
        let mut ops = Vec::new();
        let mut barrier = false;
        let mut nnz = 1u8;
        let mut topo = 0u64;
        for (i, field) in s.trim().split(';').enumerate() {
            if i == 0 {
                family = Some(match field {
                    "dense" => Family::Dense,
                    "sparse" => Family::Sparse,
                    _ => return None,
                });
                continue;
            }
            let (k, v) = field.split_once('=')?;
            match k {
                "ops" => {
                    for t in v.split(',').filter(|t| !t.is_empty()) {
                        ops.push(t.parse().ok()?);
                    }
                }
                "barrier" => barrier = v == "1",
                "nnz" => nnz = v.parse().ok()?,
                "topo" => topo = parse_u64(v)?,
                _ => return None,
            }
        }
        Some(match family? {
            Family::Dense => KernelSpec::dense(ops, barrier),
            Family::Sparse => KernelSpec::sparse(ops, topo, nnz),
        })
    }
}

/// Parses decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x") {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// FNV-1a over bytes (stable content hashing for names).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// A generated CSR topology: 65 row pointers over [`SPARSE_ROWS`]
/// rows, column indices in `0..SPARSE_ROWS`, and input values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrTopo {
    /// `SPARSE_ROWS + 1` row pointers (element indices, not bytes).
    pub row_ptr: Vec<u32>,
    /// Column index per nonzero.
    pub cols: Vec<u32>,
    /// Dense input vector (`SPARSE_ROWS` words).
    pub x: Vec<u32>,
}

impl CsrTopo {
    /// Generates the topology for `seed` with rows of `0..=max_row_nnz`
    /// nonzeros. Deterministic; at least one row is non-empty so every
    /// generated kernel executes its inner loop.
    pub fn generate(seed: u64, max_row_nnz: u8) -> CsrTopo {
        let spread = max_row_nnz.clamp(1, 15) as u64;
        let mut s = seed;
        let mut draw = || {
            s = splitmix64(s);
            s
        };
        let mut row_ptr = Vec::with_capacity(SPARSE_ROWS as usize + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for _ in 0..SPARSE_ROWS {
            let len = draw() % (spread + 1);
            for _ in 0..len {
                cols.push((draw() % SPARSE_ROWS as u64) as u32);
            }
            row_ptr.push(cols.len() as u32);
        }
        if cols.is_empty() {
            // Degenerate all-empty matrix: give row 0 one entry so the
            // irregular loop body is reachable.
            cols.push((draw() % SPARSE_ROWS as u64) as u32);
            for p in row_ptr.iter_mut().skip(1) {
                *p += 1;
            }
        }
        let x = (0..SPARSE_ROWS).map(|_| (draw() & 0xFFFF_FFFF) as u32).collect();
        CsrTopo { row_ptr, cols, x }
    }
}

/// Builds a structured dense kernel from an op script: a loop whose
/// body is driven by `ops`, containing a divergent diamond and
/// (op-dependent) guarded instructions, in-place global updates, and
/// shared-memory traffic with an optional barrier.
///
/// This is the generator the decoded-equivalence property suite has
/// always used, extracted so the suite and `penny-fuzz` share one
/// implementation.
pub fn build_kernel(ops: &[u8], with_barrier: bool) -> Kernel {
    let mut b = KernelBuilder::new("decgen", &["A", "B"]);
    b.shared_bytes(256);
    b.block("entry");
    let tid = b.special(Special::TidX);
    let a = b.ld_param("A");
    let bp = b.ld_param("B");
    let off = b.shl(Type::U32, tid, 2u32);
    let addr = b.add(Type::U32, a, off);
    let out = b.add(Type::U32, bp, off);
    let v0 = b.ld(MemSpace::Global, Type::U32, addr, 0);
    // Shared scratch slot for this thread (wraps in 256 bytes).
    let soff = b.and(Type::U32, off, 0xFCu32);
    let head = b.block("head");
    let exit = b.block("exit");
    let i = b.imm(0);
    let acc = b.mov(Type::U32, v0);
    b.jump(head);
    b.select(head);
    let mut v = acc;
    for (j, op) in ops.iter().enumerate() {
        let c = (j as u32 + 1) | 1;
        v = match op {
            0 => b.add(Type::U32, v, c),
            1 => b.mul(Type::U32, v, c),
            2 => b.xor(Type::U32, v, i),
            3 => {
                // In-place read-modify-write: forces a region cut.
                let t = b.ld(MemSpace::Global, Type::U32, addr, 0);
                let u = b.add(Type::U32, t, v);
                b.st(MemSpace::Global, addr, 0, u);
                u
            }
            4 => {
                // Guarded update: odd lanes only.
                let bit = b.and(Type::U32, tid, 1u32);
                let p = b.setp(Cmp::Eq, Type::U32, bit, 1u32);
                let shadow = b.mov(Type::U32, v);
                b.guarded(p, false, |b| {
                    let u = b.add(Type::U32, v, 17u32);
                    b.mov_to(Type::U32, shadow, u);
                });
                shadow
            }
            5 => {
                // Divergent diamond on the low tid bit.
                let bit = b.and(Type::U32, tid, 1u32);
                let p = b.setp(Cmp::Eq, Type::U32, bit, 0u32);
                let then_ = b.block(format!("then{j}"));
                let else_ = b.block(format!("else{j}"));
                let join = b.block(format!("join{j}"));
                let merged = b.mov(Type::U32, v);
                b.branch(p, false, then_, else_);
                b.select(then_);
                let tv = b.add(Type::U32, v, 3u32);
                b.mov_to(Type::U32, merged, tv);
                b.jump(join);
                b.select(else_);
                let ev = b.sub(Type::U32, v, 1u32);
                b.mov_to(Type::U32, merged, ev);
                b.jump(join);
                b.select(join);
                merged
            }
            6 => {
                // Shared-memory round trip.
                b.st(MemSpace::Shared, soff, 0, v);
                if with_barrier {
                    b.bar();
                }
                let t = b.ld(MemSpace::Shared, Type::U32, soff, 0);
                b.or(Type::U32, t, 1u32)
            }
            _ => b.shr(Type::U32, v, c % 9),
        };
    }
    b.mov_to(Type::U32, acc, v);
    let ni = b.add(Type::U32, i, 1u32);
    b.mov_to(Type::U32, i, ni);
    let p = b.setp(Cmp::Lt, Type::U32, i, 3u32);
    b.branch(p, false, head, exit);
    b.select(exit);
    b.st(MemSpace::Global, out, 0, acc);
    b.ret();
    let k = b.finish();
    penny_ir::validate(&k).expect("generated kernel must validate");
    k
}

/// Builds a CSR-style irregular kernel from an op script. One thread
/// per row walks `CI[RP[row]..RP[row+1]]` — a data-dependent,
/// warp-divergent trip count — performing indirect loads
/// (`XV[CI[j]]`), script-driven accumulator updates (guarded updates,
/// pointer chases, data-dependent atomic scatters, in-place row
/// read-modify-writes), then stores the row result and bumps a
/// data-dependent histogram bucket.
///
/// Parameters: `RP` (row pointers), `CI` (column indices), `XV`
/// (input vector), `Y` (row output), `H` (16-bucket histogram). The
/// topology ([`CsrTopo`]) shapes only the input image
/// ([`KernelSpec::image`]), not the code.
pub fn build_sparse_kernel(ops: &[u8]) -> Kernel {
    let mut b = KernelBuilder::new("csrgen", &["RP", "CI", "XV", "Y", "H"]);
    b.block("entry");
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NTidX);
    let cta = b.special(Special::CtaIdX);
    let row = b.mad(Type::U32, cta, ntid, tid);
    let rp = b.ld_param("RP");
    let ci = b.ld_param("CI");
    let xv = b.ld_param("XV");
    let y = b.ld_param("Y");
    let h = b.ld_param("H");
    let roff = b.shl(Type::U32, row, 2u32);
    let rpa = b.add(Type::U32, rp, roff);
    let start = b.ld(MemSpace::Global, Type::U32, rpa, 0);
    let end = b.ld(MemSpace::Global, Type::U32, rpa, 4);
    let ya = b.add(Type::U32, y, roff);
    let head = b.block("head");
    let body = b.block("body");
    let exit = b.block("exit");
    let j = b.mov(Type::U32, start);
    let acc = b.mov(Type::U32, row);
    b.jump(head);
    b.select(head);
    let p = b.setp(Cmp::Lt, Type::U32, j, end);
    b.branch(p, false, body, exit);
    b.select(body);
    // Indirect column and value loads: the address-generation path.
    let joff = b.shl(Type::U32, j, 2u32);
    let cia = b.add(Type::U32, ci, joff);
    let c = b.ld(MemSpace::Global, Type::U32, cia, 0);
    let coff = b.shl(Type::U32, c, 2u32);
    let xva = b.add(Type::U32, xv, coff);
    let x = b.ld(MemSpace::Global, Type::U32, xva, 0);
    let mut v = acc;
    for (idx, op) in ops.iter().enumerate() {
        let k = (idx as u32 + 1) | 1;
        v = match op {
            0 => b.add(Type::U32, v, x),
            1 => b.xor(Type::U32, v, c),
            2 => b.mad(Type::U32, v, 3u32, x),
            3 => {
                // Data-dependent guarded update: only when XV[c] is odd.
                let bit = b.and(Type::U32, x, 1u32);
                let p = b.setp(Cmp::Eq, Type::U32, bit, 1u32);
                let shadow = b.mov(Type::U32, v);
                b.guarded(p, false, |b| {
                    let u = b.xor(Type::U32, v, c);
                    b.mov_to(Type::U32, shadow, u);
                });
                shadow
            }
            4 => b.min(Type::U32, v, x),
            5 => {
                // Pointer chase: a second, value-dependent indirection.
                let c2 = b.and(Type::U32, x, SPARSE_ROWS - 1);
                let o2 = b.shl(Type::U32, c2, 2u32);
                let a2 = b.add(Type::U32, xv, o2);
                let x2 = b.ld(MemSpace::Global, Type::U32, a2, 0);
                b.add(Type::U32, v, x2)
            }
            6 => {
                // Data-dependent atomic scatter; the returned old value
                // feeds the accumulator, so the store is observed.
                let bucket = b.and(Type::U32, x, 15u32);
                let boff = b.shl(Type::U32, bucket, 2u32);
                let ha = b.add(Type::U32, h, boff);
                let old = b.atom(AtomOp::Add, MemSpace::Global, ha, 0, k);
                b.xor(Type::U32, v, old)
            }
            _ => {
                // In-place row read-modify-write: forces a region cut
                // on an indirectly addressed store.
                let t = b.ld(MemSpace::Global, Type::U32, ya, 0);
                let u = b.add(Type::U32, t, v);
                b.st(MemSpace::Global, ya, 0, u);
                u
            }
        };
    }
    b.mov_to(Type::U32, acc, v);
    let nj = b.add(Type::U32, j, 1u32);
    b.mov_to(Type::U32, j, nj);
    b.jump(head);
    b.select(exit);
    // Row result plus a data-dependent histogram bump.
    b.st(MemSpace::Global, ya, 0, acc);
    let bucket = b.and(Type::U32, acc, 15u32);
    let boff = b.shl(Type::U32, bucket, 2u32);
    let ha = b.add(Type::U32, h, boff);
    b.atom(AtomOp::Add, MemSpace::Global, ha, 0, 1u32);
    b.ret();
    let k = b.finish();
    penny_ir::validate(&k).expect("generated sparse kernel must validate");
    k
}

/// A fault plan sized to a generated kernel's geometry: `count`
/// single-bit flips drawn deterministically from `seed` over the
/// launch's blocks/warps, all 32 lanes, the kernel's register count,
/// and the 33-bit parity codeword.
pub fn fault_plan(seed: u64, dims: LaunchDims, regs: u32, count: usize) -> FaultPlan {
    let warps = dims.threads_per_block().div_ceil(32).max(1);
    FaultPlan::random(seed, count, dims.blocks(), warps, 32, regs, 33, 60)
}

/// Compiles under a Penny config, treating compiler rejections as
/// `None`: generative suites prove *engine* properties, so kernels the
/// Penny compiler cannot yet instrument are skipped rather than failed.
/// A compiler panic is not a rejection and propagates.
pub fn try_compile(k: &Kernel, cfg: PennyConfig) -> Option<Protected> {
    penny_core::compile(k, &cfg).ok()
}

/// One interpreter leg's outcome: the run result plus final memory
/// (partial on error — compared only between error legs).
pub type PairLeg = (Result<RunStats, crate::SimError>, GlobalMemory);

/// Runs one launch on both interpreters — the pre-decoded fast path
/// and the always-decode reference — seeded from `image`, and returns
/// `(fast, reference)` legs. Engine errors are returned, not
/// panicked: an error is a *divergence* only if the two legs disagree
/// on it.
pub fn try_run_pair(
    protected: &Protected,
    dims: LaunchDims,
    gpu: &GpuConfig,
    faults: &FaultPlan,
    image: &MemImage,
) -> (PairLeg, PairLeg) {
    let run = |reference: bool| {
        let mut global = GlobalMemory::new();
        image.apply(&mut global);
        let launch = engine::LaunchConfig::new(dims, image.params.clone())
            .with_faults(faults.clone());
        let stats = if reference {
            engine::run_decode_reference(gpu, protected, &launch, &mut global)
        } else {
            engine::run(gpu, protected, &launch, &mut global)
        };
        (stats, global)
    };
    (run(false), run(true))
}

/// [`try_run_pair`] for runs expected to succeed (the property-suite
/// entry point).
///
/// # Panics
///
/// Panics if either interpreter leg returns a [`crate::SimError`].
pub fn run_pair(
    protected: &Protected,
    dims: LaunchDims,
    gpu: &GpuConfig,
    faults: &FaultPlan,
    image: &MemImage,
) -> ((RunStats, GlobalMemory), (RunStats, GlobalMemory)) {
    let ((fast, fast_mem), (reference, ref_mem)) =
        try_run_pair(protected, dims, gpu, faults, image);
    (
        (fast.expect("decoded run"), fast_mem),
        (reference.expect("decode_reference run"), ref_mem),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_from_seed_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(KernelSpec::from_seed(seed), KernelSpec::from_seed(seed));
        }
    }

    #[test]
    fn spec_render_parse_round_trips() {
        for seed in 0..64u64 {
            let spec = KernelSpec::from_seed(splitmix64(seed));
            let back = KernelSpec::parse(&spec.render())
                .unwrap_or_else(|| panic!("unparseable: {}", spec.render()));
            assert_eq!(spec, back, "round trip failed for {}", spec.render());
            assert_eq!(spec.name(), back.name());
        }
    }

    #[test]
    fn both_families_build_and_validate() {
        let dense = KernelSpec::dense(vec![0, 3, 4, 5, 6], true);
        let sparse = KernelSpec::sparse(vec![0, 1, 3, 5, 6, 7], 0x1234, 6);
        for spec in [dense, sparse] {
            let k = spec.build();
            penny_ir::validate(&k).expect("validate");
            assert!(k.num_blocks() >= 3);
            let image = spec.image();
            assert!(!image.params.is_empty());
        }
    }

    #[test]
    fn csr_topology_is_well_formed() {
        for seed in 0..32u64 {
            let t = CsrTopo::generate(seed, 6);
            assert_eq!(t.row_ptr.len() as u32, SPARSE_ROWS + 1);
            assert_eq!(t.x.len() as u32, SPARSE_ROWS);
            assert_eq!(*t.row_ptr.last().expect("last") as usize, t.cols.len());
            assert!(!t.cols.is_empty(), "at least one nonzero");
            for w in t.row_ptr.windows(2) {
                assert!(w[0] <= w[1], "row pointers must be monotone");
            }
            for &c in &t.cols {
                assert!(c < SPARSE_ROWS);
            }
        }
    }

    #[test]
    fn fault_plan_matches_geometry() {
        let plan = fault_plan(7, LaunchDims::linear(2, 64), 10, 5);
        assert_eq!(plan.injections.len(), 5);
        for inj in &plan.injections {
            assert!(inj.block < 2 && inj.warp < 2 && inj.lane < 32);
            assert!(inj.reg < 10 && inj.bit < 33);
            assert!((1..60).contains(&inj.after_warp_insts));
        }
    }
}
