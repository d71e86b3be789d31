//! Simulated GPU memories.
//!
//! Global memory is a sparse, paged, word-granular 32-bit address space
//! (so the high checkpoint arena at `GLOBAL_CKPT_BASE` costs nothing
//! until touched). Shared memory is a flat per-block scratchpad. Both
//! are ECC-protected in the machine model — the reason Penny puts
//! checkpoints there — so injected faults only ever target the RF.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Words per page.
pub(crate) const PAGE_WORDS: usize = 1024;

/// Global-memory pages by page number.
pub(crate) type PageMap =
    HashMap<u32, Arc<[u32; PAGE_WORDS]>, BuildHasherDefault<PageHasher>>;

/// Hashes a page number with one multiply by an odd constant
/// (Fibonacci hashing) instead of SipHash: page numbers are not
/// adversarial, and every load and store probes the map. The product
/// is a bijection on the low bits the table indexes with, so
/// consecutive pages never collide. Page order is never observable:
/// the serializer sorts page numbers and [`GlobalMemory::nonzero_words`]
/// sorts its output.
#[derive(Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 =
            (self.0.rotate_left(32) ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Sparse global memory (word-addressable via byte addresses).
///
/// Pages are reference-counted so [`GlobalMemory::fork`] is O(pages)
/// pointer copies: a forked memory shares every page with its parent
/// and copies one only when a write lands on it (copy-on-write). The
/// snapshot/replay harness forks the heap once per injection site, so
/// a fork must cost O(dirty pages), not O(heap).
///
/// `PartialEq` compares contents and access counters (but not the
/// copy-on-write bookkeeping), so equality means two runs touched
/// memory identically — the property the decoded-vs-reference
/// determinism tests pin.
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    pages: PageMap,
    /// Read/write counters (for statistics).
    pub reads: u64,
    /// Write counter.
    pub writes: u64,
    /// Pages copied by writes to shared (forked) pages since this
    /// memory was created or forked. Observability only; excluded from
    /// `PartialEq`.
    pages_copied: u64,
}

impl PartialEq for GlobalMemory {
    fn eq(&self, other: &GlobalMemory) -> bool {
        self.reads == other.reads
            && self.writes == other.writes
            && self.pages.len() == other.pages.len()
            && self.pages.iter().all(|(p, pg)| {
                other.pages.get(p).is_some_and(|o| Arc::ptr_eq(pg, o) || pg == o)
            })
    }
}

impl GlobalMemory {
    /// Creates an empty memory.
    pub fn new() -> GlobalMemory {
        GlobalMemory::default()
    }

    fn page_of(addr: u32) -> (u32, usize) {
        let word = addr / 4;
        (word / PAGE_WORDS as u32, (word as usize) % PAGE_WORDS)
    }

    /// Reads the word at a byte address (unaligned bits are ignored).
    pub fn read(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        let (p, o) = Self::page_of(addr);
        self.pages.get(&p).map(|pg| pg[o]).unwrap_or(0)
    }

    /// Reads without counting (host-side inspection).
    pub fn peek(&self, addr: u32) -> u32 {
        let (p, o) = Self::page_of(addr);
        self.pages.get(&p).map(|pg| pg[o]).unwrap_or(0)
    }

    /// Writes the word at a byte address.
    pub fn write(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        let (p, o) = Self::page_of(addr);
        self.page_mut(p)[o] = value;
    }

    /// Mutable access to a page, copying it first if it is shared with
    /// a fork (copy-on-write).
    fn page_mut(&mut self, p: u32) -> &mut [u32; PAGE_WORDS] {
        let pg = self.pages.entry(p).or_insert_with(|| Arc::new([0; PAGE_WORDS]));
        if Arc::strong_count(pg) > 1 {
            self.pages_copied += 1;
        }
        Arc::make_mut(pg)
    }

    /// Forks this memory: the child shares every page with the parent
    /// until one of them writes (copy-on-write). Access counters carry
    /// over (a fork continues the run it was taken from); the child's
    /// [`GlobalMemory::pages_copied`] starts at zero.
    pub fn fork(&self) -> GlobalMemory {
        GlobalMemory {
            pages: self.pages.clone(),
            reads: self.reads,
            writes: self.writes,
            pages_copied: 0,
        }
    }

    /// Pages copied by copy-on-write since creation or the last
    /// [`GlobalMemory::fork`] that produced this memory.
    pub fn pages_copied(&self) -> u64 {
        self.pages_copied
    }

    /// The raw page map (for the recording serializer, which
    /// deduplicates pages by `Arc` identity).
    pub(crate) fn pages(&self) -> &PageMap {
        &self.pages
    }

    /// Rebuilds a memory from a page map and access counters; the
    /// copy-on-write bookkeeping starts at zero, exactly like a fork.
    pub(crate) fn from_parts(pages: PageMap, reads: u64, writes: u64) -> GlobalMemory {
        GlobalMemory { pages, reads, writes, pages_copied: 0 }
    }

    /// Contents-only equality (ignores access counters): every word,
    /// present or implicit zero, must match. Shared (still-forked)
    /// pages compare by pointer in O(1).
    pub fn contents_eq(&self, other: &GlobalMemory) -> bool {
        let zero = |pg: &[u32; PAGE_WORDS]| pg.iter().all(|&w| w == 0);
        self.pages.iter().all(|(p, pg)| match other.pages.get(p) {
            Some(o) => Arc::ptr_eq(pg, o) || pg == o,
            None => zero(pg),
        }) && other.pages.iter().all(|(p, pg)| self.pages.contains_key(p) || zero(pg))
    }

    /// Host-side bulk write of consecutive words.
    pub fn write_slice(&mut self, addr: u32, data: &[u32]) {
        for (i, &w) in data.iter().enumerate() {
            let (p, o) = Self::page_of(addr + (i as u32) * 4);
            self.page_mut(p)[o] = w;
        }
    }

    /// Host-side bulk read of consecutive words.
    pub fn read_slice(&self, addr: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.peek(addr + (i as u32) * 4)).collect()
    }

    /// Host-side write of f32 data.
    pub fn write_f32_slice(&mut self, addr: u32, data: &[f32]) {
        let words: Vec<u32> = data.iter().map(|f| f.to_bits()).collect();
        self.write_slice(addr, &words);
    }

    /// Host-side read of f32 data.
    pub fn read_f32_slice(&self, addr: u32, len: usize) -> Vec<f32> {
        self.read_slice(addr, len).into_iter().map(f32::from_bits).collect()
    }

    /// Snapshot of every nonzero word as sorted `(byte address, value)`
    /// pairs — contents only, independent of the access counters that
    /// [`PartialEq`] also compares. Conformance harnesses use this to
    /// compare final memories across runs that legitimately differ in
    /// access counts (recovery re-executes loads and stores).
    pub fn nonzero_words(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (&p, pg) in &self.pages {
            for (o, &w) in pg.iter().enumerate() {
                if w != 0 {
                    out.push(((p * PAGE_WORDS as u32 + o as u32) * 4, w));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Flat per-block shared memory.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<u32>,
    /// Read counter.
    pub reads: u64,
    /// Write counter.
    pub writes: u64,
}

impl SharedMemory {
    /// Creates a zeroed scratchpad of `bytes` bytes (rounded up to a
    /// word).
    pub fn new(bytes: u32) -> SharedMemory {
        SharedMemory { words: vec![0; bytes.div_ceil(4) as usize], reads: 0, writes: 0 }
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// The raw word array (for the recording serializer).
    pub(crate) fn words(&self) -> &[u32] {
        &self.words
    }

    /// Rebuilds a scratchpad from its word array and access counters.
    pub(crate) fn from_parts(words: Vec<u32>, reads: u64, writes: u64) -> SharedMemory {
        SharedMemory { words, reads, writes }
    }

    /// Reads the word at a byte address; out-of-range reads return 0
    /// (the verifier-level contract is that programs stay in bounds; the
    /// checkpoint arena is sized by the compiler).
    pub fn read(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        self.words.get((addr / 4) as usize).copied().unwrap_or(0)
    }

    /// Writes the word at a byte address (out-of-range writes are
    /// dropped).
    pub fn write(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        if let Some(w) = self.words.get_mut((addr / 4) as usize) {
            *w = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_roundtrip_and_default_zero() {
        let mut m = GlobalMemory::new();
        assert_eq!(m.read(0x1000), 0);
        m.write(0x1000, 42);
        assert_eq!(m.read(0x1000), 42);
        assert_eq!(m.peek(0x1004), 0);
    }

    #[test]
    fn global_high_addresses_are_cheap() {
        let mut m = GlobalMemory::new();
        m.write(0xC000_0000, 7);
        m.write(0xFFFF_FFFC, 9);
        assert_eq!(m.peek(0xC000_0000), 7);
        assert_eq!(m.peek(0xFFFF_FFFC), 9);
        assert!(m.pages.len() <= 2);
    }

    #[test]
    fn slices_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_slice(0x2000, &[1, 2, 3, 4]);
        assert_eq!(m.read_slice(0x2000, 4), vec![1, 2, 3, 4]);
        m.write_f32_slice(0x3000, &[1.5, -2.5]);
        assert_eq!(m.read_f32_slice(0x3000, 2), vec![1.5, -2.5]);
    }

    #[test]
    fn slice_crossing_page_boundary() {
        let mut m = GlobalMemory::new();
        let addr = (PAGE_WORDS as u32) * 4 - 8; // last two words of page 0
        m.write_slice(addr, &[10, 20, 30, 40]);
        assert_eq!(m.read_slice(addr, 4), vec![10, 20, 30, 40]);
    }

    #[test]
    fn shared_bounds() {
        let mut s = SharedMemory::new(16);
        s.write(0, 5);
        s.write(12, 7);
        assert_eq!(s.read(0), 5);
        assert_eq!(s.read(12), 7);
        // Out of range: dropped / zero.
        s.write(1000, 1);
        assert_eq!(s.read(1000), 0);
        assert_eq!(s.len_bytes(), 16);
    }

    #[test]
    fn counters_track_accesses() {
        let mut m = GlobalMemory::new();
        m.write(0, 1);
        m.read(0);
        m.read(4);
        assert_eq!(m.writes, 1);
        assert_eq!(m.reads, 2);
    }

    #[test]
    fn fork_shares_pages_until_written() {
        let mut m = GlobalMemory::new();
        m.write_slice(0x1000, &[1, 2, 3]);
        m.write(0x8000, 9);
        let mut f = m.fork();
        assert_eq!(f.pages_copied(), 0);
        assert!(f.contents_eq(&m));
        assert_eq!(f, m, "fork carries counters");
        // Writing one page in the fork copies exactly that page and
        // leaves the parent untouched.
        f.write(0x1000, 42);
        assert_eq!(f.pages_copied(), 1);
        assert_eq!(f.peek(0x1000), 42);
        assert_eq!(m.peek(0x1000), 1, "parent unchanged");
        assert!(!f.contents_eq(&m));
        // A second write to the same page copies nothing further.
        f.write(0x1004, 43);
        assert_eq!(f.pages_copied(), 1);
        // The untouched page is still shared (and equal).
        assert_eq!(f.peek(0x8000), 9);
    }

    #[test]
    fn contents_eq_ignores_counters_and_zero_pages() {
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        a.write(0x100, 7);
        b.write(0x100, 7);
        b.read(0x100); // counter divergence only
        assert_ne!(a, b, "PartialEq sees counters");
        assert!(a.contents_eq(&b), "contents_eq does not");
        // A page written then zeroed again equals an absent page.
        a.write(0x9000, 1);
        a.write(0x9000, 0);
        assert!(a.contents_eq(&b));
        assert!(b.contents_eq(&a));
        a.write(0x9000, 2);
        assert!(!a.contents_eq(&b));
        assert!(!b.contents_eq(&a));
    }

    #[test]
    fn forked_writes_do_not_leak_into_nonzero_words() {
        let mut m = GlobalMemory::new();
        m.write(0x2000, 5);
        let mut f = m.fork();
        f.write(0x2004, 6);
        assert_eq!(m.nonzero_words(), vec![(0x2000, 5)]);
        assert_eq!(f.nonzero_words(), vec![(0x2000, 5), (0x2004, 6)]);
    }
}
