//! The register-file model: registers checked through the configured
//! protection scheme at every read.
//!
//! This is where the paper's error model becomes executable: a soft
//! error flips stored bits; with **EDC** the flip is *detected* at the
//! next read (and Penny's runtime recovers); with **ECC** it is
//! *corrected* inline (at the hardware cost Table 2 quantifies); with no
//! protection it silently corrupts the value.
//!
//! # Warp files and lazy codewords
//!
//! The engine gives each warp one file of [`WARP_LANES`] lanes (a
//! partial warp is padded; its lanes at or past the warp's width are
//! never read, written or persisted). Values are stored register-major,
//! so one register's lanes form a contiguous **row**, and a cell —
//! register `r` of lane `l` — has the index `r * lanes + l`
//! (`RegFile::cell`). [`RegFile::new`] builds a one-lane file, whose
//! cell indices are its register numbers.
//!
//! A clean cell's stored codeword is, by definition, the encoding of its
//! value, so the file keeps none: [`RegFile::write`] stores the value
//! and nothing else. Only [`RegFile::flip_bit`] — the one way stored bits
//! change behind the codec's back — materialises a codeword: it encodes
//! the cell's value, flips the bit, keeps the word in a short list keyed
//! by cell and marks the cell **dirty** in its register's lane mask.
//! Reads of clean cells return the value without touching the codec;
//! dirty cells take the full decode path, whose outcome (detection,
//! inline correction + scrub, or a clean decode when flips cancelled)
//! is the model's error semantics. A write, a clean or corrected decode
//! and the ECC scrub drop the cell's word and its dirty bit. So "does
//! this row hold a corrupted lane?" is one AND (`RegFile::dirty_lanes`),
//! and the engine reads and writes whole rows when it is not.
//! [`RegFile::read_reference`] keeps the always-decode path alive for the
//! `decode_reference` cross-check: it encodes a clean cell's value and
//! decodes it, so the codec runs on every read; both paths produce
//! bit-identical values and [`RfStats`] counters.

use penny_coding::{Codec, Decode, Scheme};

use crate::config::RfProtection;

/// Lanes of a warp's register file.
pub const WARP_LANES: usize = 32;

/// `log2(WARP_LANES)`: a warp file's lane shift.
const WARP_SHIFT: u32 = WARP_LANES.trailing_zeros();

/// Outcome of a protected register read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The stored word was clean.
    Ok(u32),
    /// ECC repaired the word in place.
    CorrectedInline(u32),
    /// EDC detected corruption — Penny's recovery path.
    Detected,
}

/// A register file of one or [`WARP_LANES`] lanes.
#[derive(Debug, Clone)]
pub struct RegFile {
    /// Cell values, register-major: register `r`'s row is
    /// `values[r * lanes..(r + 1) * lanes]`. A dirty cell's value is the
    /// one it held before the flip.
    values: Vec<u32>,
    /// One lane mask per register: the lanes whose cell is dirty (a
    /// fault flipped a stored bit and nothing has repaired it since).
    dirty: Vec<u32>,
    /// The stored codeword of every dirty cell, keyed by cell index; a
    /// cell is dirty exactly when it has an entry. Faults are rare, so
    /// the list is short.
    words: Vec<(usize, u64)>,
    /// `log2` of the lane count (0 or 5).
    lane_shift: u32,
    protection: RfProtection,
    codec: Option<Codec>,
}

/// RF access counters for a whole launch (drives the energy model).
#[derive(Debug, Clone, Copy, Default)]
pub struct RfStats {
    /// Register reads.
    pub reads: u64,
    /// Register writes.
    pub writes: u64,
    /// Errors detected by EDC.
    pub detected: u64,
    /// Errors corrected inline by ECC.
    pub corrected: u64,
    /// Reads that took the full codec-decode path (observability only).
    ///
    /// The fast path serves clean cells without the codec; the
    /// reference interpreter decodes every read, so this counter
    /// legitimately diverges between the two execution paths and is
    /// deliberately excluded from `PartialEq`.
    pub decoded_reads: u64,
}

impl RfStats {
    /// Reads served from a clean cell without a codec decode.
    pub fn clean_reads(&self) -> u64 {
        self.reads.saturating_sub(self.decoded_reads)
    }
}

// Manual equality: the architectural counters must match bit-for-bit
// across execution paths, while `decoded_reads` is a property of the
// path itself (reference decodes always; the fast path only on dirty
// cells) and is excluded.
impl PartialEq for RfStats {
    fn eq(&self, other: &RfStats) -> bool {
        self.reads == other.reads
            && self.writes == other.writes
            && self.detected == other.detected
            && self.corrected == other.corrected
    }
}

impl Eq for RfStats {}

impl RegFile {
    /// Creates a zero-initialized one-lane file with `n` registers.
    pub fn new(n: usize, protection: RfProtection) -> RegFile {
        RegFile::with_lanes(n, 0, protection, protection.scheme().codec())
    }

    /// Creates a zero-initialized warp file: `n` registers of
    /// [`WARP_LANES`] lanes each.
    pub(crate) fn warp(n: usize, protection: RfProtection) -> RegFile {
        RegFile::with_lanes(n, WARP_SHIFT, protection, protection.scheme().codec())
    }

    fn with_lanes(
        n: usize,
        lane_shift: u32,
        protection: RfProtection,
        codec: Option<Codec>,
    ) -> RegFile {
        RegFile {
            values: vec![0; n << lane_shift],
            dirty: vec![0; n],
            words: Vec::new(),
            lane_shift,
            protection,
            codec,
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// Returns `true` if the file has no registers.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The index of register `reg`'s cell in lane `lane`.
    #[inline]
    pub(crate) fn cell(&self, reg: usize, lane: usize) -> usize {
        (reg << self.lane_shift) | lane
    }

    /// The register of `cell` and its lane's bit in the register's
    /// dirty mask.
    fn locate(&self, cell: usize) -> (usize, u32) {
        (cell >> self.lane_shift, 1 << (cell & ((1 << self.lane_shift) - 1)))
    }

    /// Returns `true` if `cell`'s stored bits may disagree with its
    /// value (set by fault injection, cleared by writes and clean or
    /// corrected reads).
    pub fn is_dirty(&self, cell: usize) -> bool {
        let (reg, bit) = self.locate(cell);
        self.dirty[reg] & bit != 0
    }

    /// The lanes of register `reg` whose cell is dirty.
    #[inline]
    pub(crate) fn dirty_lanes(&self, reg: usize) -> u32 {
        self.dirty[reg]
    }

    /// Number of dirty cells.
    #[inline]
    pub fn dirty_count(&self) -> u32 {
        self.words.len() as u32
    }

    /// Register `reg`'s values, one per lane. A dirty cell shows the
    /// value it held before the flip, so callers read rows only when
    /// [`RegFile::dirty_lanes`] has no bit in the lanes they read.
    #[inline]
    pub(crate) fn row(&self, reg: usize) -> &[u32] {
        &self.values[reg << self.lane_shift..(reg + 1) << self.lane_shift]
    }

    /// Drops `cell`'s stored word and dirty bit: its value is valid again.
    fn clear_dirty(&mut self, cell: usize) {
        if let Some(i) = self.words.iter().position(|&(c, _)| c == cell) {
            self.words.swap_remove(i);
            let (reg, bit) = self.locate(cell);
            self.dirty[reg] &= !bit;
        }
    }

    /// Writes a cell (a write repairs any prior corruption).
    pub fn write(&mut self, cell: usize, value: u32, stats: &mut RfStats) {
        stats.writes += 1;
        self.values[cell] = value;
        if !self.words.is_empty() {
            self.clear_dirty(cell);
        }
    }

    /// Writes register `reg` in the lanes of `lanes`, lane `l` taking
    /// `values[l]`, and counts one write per lane.
    pub(crate) fn write_row(
        &mut self,
        reg: usize,
        lanes: u32,
        values: &[u32],
        stats: &mut RfStats,
    ) {
        stats.writes += u64::from(lanes.count_ones());
        let shift = self.lane_shift;
        let row = &mut self.values[reg << shift..(reg + 1) << shift];
        for (lane, (cell, &v)) in row.iter_mut().zip(values).enumerate() {
            if lanes & (1 << lane) != 0 {
                *cell = v;
            }
        }
        let mut repaired = self.dirty[reg] & lanes;
        while repaired != 0 {
            let lane = repaired.trailing_zeros() as usize;
            repaired &= repaired - 1;
            self.clear_dirty(self.cell(reg, lane));
        }
    }

    /// Reads a cell through the protection scheme.
    ///
    /// Fast path: a clean cell's stored word is the encoding of its
    /// value, so it cannot decode to anything but `Clean`; the codec is
    /// skipped and the value returned. Dirty cells take the full decode
    /// path.
    pub fn read(&mut self, cell: usize, stats: &mut RfStats) -> ReadOutcome {
        stats.reads += 1;
        if self.words.is_empty() || !self.is_dirty(cell) {
            return ReadOutcome::Ok(self.values[cell]);
        }
        self.decode_read(cell, stats)
    }

    /// Reads a cell with an unconditional codec decode (a clean cell's
    /// value is encoded first) — kept as the `decode_reference`
    /// cross-check (analogous to the engine's `run_reference`). Produces
    /// bit-identical outcomes and counters to [`RegFile::read`].
    pub fn read_reference(&mut self, cell: usize, stats: &mut RfStats) -> ReadOutcome {
        stats.reads += 1;
        self.decode_read(cell, stats)
    }

    /// The word stored in `cell`: its kept codeword when dirty, the
    /// encoding of its value otherwise.
    fn stored_word(&self, cell: usize) -> u64 {
        match self.words.iter().find(|&&(c, _)| c == cell) {
            Some(&(_, word)) => word,
            None => self.encode(self.values[cell]),
        }
    }

    fn encode(&self, value: u32) -> u64 {
        self.codec.as_ref().map_or(value as u64, |c| c.encode(value))
    }

    /// Full decode of a stored word. A clean decode or an ECC correction
    /// (scrub) leaves a valid encoding of the decoded value, so the cell
    /// is clean again and its word is dropped; a detection leaves it
    /// dirty.
    fn decode_read(&mut self, cell: usize, stats: &mut RfStats) -> ReadOutcome {
        stats.decoded_reads += 1;
        let word = self.stored_word(cell);
        let Some(codec) = &self.codec else {
            // Unprotected: the raw word is the value (possibly silently
            // corrupted).
            let v = word as u32;
            self.values[cell] = v;
            self.clear_dirty(cell);
            return ReadOutcome::Ok(v);
        };
        match (codec.decode(word), self.protection) {
            (Decode::Clean(v), _) => {
                // Either the cell was never faulted or an even number of
                // flips cancelled; the stored word is a valid encoding
                // again.
                self.values[cell] = v;
                self.clear_dirty(cell);
                ReadOutcome::Ok(v)
            }
            (Decode::Corrected { data, .. }, RfProtection::Ecc(_)) => {
                stats.corrected += 1;
                // Scrub: the repaired word is the encoding of `data`.
                self.values[cell] = data;
                self.clear_dirty(cell);
                ReadOutcome::CorrectedInline(data)
            }
            // In EDC mode the correction capability is *not* wired up:
            // any non-clean word is a detection (paper §2: the code is
            // used solely for detection). Unprotected RFs have no codec,
            // so they never get here.
            (Decode::Corrected { .. } | Decode::Detected, _) => {
                stats.detected += 1;
                ReadOutcome::Detected
            }
        }
    }

    /// Raw read bypassing checks (host/debug use): the decoded value of
    /// a dirty cell, the value of a clean one.
    pub fn peek(&self, cell: usize) -> u32 {
        if !self.is_dirty(cell) {
            return self.values[cell];
        }
        let word = self.stored_word(cell);
        match &self.codec {
            Some(c) => match c.decode(word) {
                Decode::Clean(v) | Decode::Corrected { data: v, .. } => v,
                Decode::Detected => word as u32,
            },
            None => word as u32,
        }
    }

    /// Flips one stored bit of a cell (fault injection) and marks the
    /// cell dirty, forcing its next read through the codec. Bits at or
    /// above the codeword length wrap around into it.
    pub fn flip_bit(&mut self, cell: usize, bit: u32) {
        let flip = 1u64 << (bit % self.codeword_bits());
        match self.words.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, word)) => *word ^= flip,
            None => {
                let word = self.encode(self.values[cell]) ^ flip;
                self.words.push((cell, word));
                let (reg, bit) = self.locate(cell);
                self.dirty[reg] |= bit;
            }
        }
    }

    /// The codeword length of the protection scheme (32 when
    /// unprotected).
    pub fn codeword_bits(&self) -> u32 {
        self.codec.as_ref().map(|c| c.n() as u32).unwrap_or(32)
    }

    /// The scheme in use.
    pub fn scheme(&self) -> Scheme {
        self.protection.scheme()
    }

    /// Rebuilds a clean warp file from its register-major values with a
    /// caller-supplied codec — the recording deserializer rebuilds one
    /// file per warp per snapshot, so it clones a prebuilt codec instead
    /// of paying scheme-table construction per file.
    pub(crate) fn warp_from_values(
        values: Vec<u32>,
        protection: RfProtection,
        codec: Option<Codec>,
    ) -> RegFile {
        RegFile {
            dirty: vec![0; values.len() >> WARP_SHIFT],
            values,
            words: Vec::new(),
            lane_shift: WARP_SHIFT,
            protection,
            codec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_reads_back_silently_corrupted() {
        let mut rf = RegFile::new(4, RfProtection::None);
        let mut st = RfStats::default();
        rf.write(0, 0xABCD, &mut st);
        rf.flip_bit(0, 3);
        match rf.read(0, &mut st) {
            ReadOutcome::Ok(v) => assert_eq!(v, 0xABCD ^ 8, "silent corruption"),
            other => panic!("{other:?}"),
        }
        assert_eq!(st.detected, 0);
    }

    #[test]
    fn parity_detects_single_flip() {
        let mut rf = RegFile::new(4, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        rf.write(1, 99, &mut st);
        rf.flip_bit(1, 17);
        assert_eq!(rf.read(1, &mut st), ReadOutcome::Detected);
        assert_eq!(st.detected, 1);
        // A rewrite clears the corruption.
        rf.write(1, 100, &mut st);
        assert_eq!(rf.read(1, &mut st), ReadOutcome::Ok(100));
    }

    #[test]
    fn secded_ecc_corrects_single_flip_inline() {
        let mut rf = RegFile::new(4, RfProtection::Ecc(Scheme::Secded));
        let mut st = RfStats::default();
        rf.write(2, 0xDEAD_BEEF, &mut st);
        rf.flip_bit(2, 5);
        assert_eq!(rf.read(2, &mut st), ReadOutcome::CorrectedInline(0xDEAD_BEEF));
        assert_eq!(st.corrected, 1);
        // Scrubbed: next read is clean.
        assert_eq!(rf.read(2, &mut st), ReadOutcome::Ok(0xDEAD_BEEF));
    }

    #[test]
    fn secded_as_edc_detects_three_flips() {
        // The headline Table-1 claim: same SECDED bits, used for
        // detection only, catch 3-bit errors that ECC mode would
        // miscorrect.
        let mut rf = RegFile::new(1, RfProtection::Edc(Scheme::Secded));
        let mut st = RfStats::default();
        rf.write(0, 0x1234_5678, &mut st);
        rf.flip_bit(0, 1);
        rf.flip_bit(0, 9);
        rf.flip_bit(0, 23);
        assert_eq!(rf.read(0, &mut st), ReadOutcome::Detected);
    }

    #[test]
    fn clean_reads_count_but_do_not_detect() {
        let mut rf = RegFile::new(2, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        rf.write(0, 7, &mut st);
        for _ in 0..10 {
            assert_eq!(rf.read(0, &mut st), ReadOutcome::Ok(7));
        }
        assert_eq!(st.reads, 10);
        assert_eq!(st.writes, 1);
        assert_eq!(st.detected, 0);
    }

    #[test]
    fn flip_bit_wraps_to_codeword_length() {
        let mut rf = RegFile::new(1, RfProtection::Edc(Scheme::Parity));
        assert_eq!(rf.codeword_bits(), 33);
        let mut st = RfStats::default();
        rf.write(0, 1, &mut st);
        rf.flip_bit(0, 33); // wraps to bit 0
        assert_eq!(rf.read(0, &mut st), ReadOutcome::Detected);
    }

    #[test]
    fn dirty_tracking_marks_and_clears() {
        let mut rf = RegFile::new(4, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        assert_eq!(rf.dirty_count(), 0);
        rf.flip_bit(2, 5);
        assert!(rf.is_dirty(2) && rf.dirty_count() == 1);
        // Detection leaves the register dirty (the corruption persists
        // until something rewrites it).
        assert_eq!(rf.read(2, &mut st), ReadOutcome::Detected);
        assert!(rf.is_dirty(2));
        // A write repairs the cell and clears the dirty bit.
        rf.write(2, 11, &mut st);
        assert!(!rf.is_dirty(2) && rf.dirty_count() == 0);
        assert_eq!(rf.read(2, &mut st), ReadOutcome::Ok(11));
    }

    #[test]
    fn cancelled_flips_revalidate_the_cache() {
        let mut rf = RegFile::new(1, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        rf.write(0, 42, &mut st);
        rf.flip_bit(0, 7);
        rf.flip_bit(0, 7); // cancels: stored word is a valid encoding again
        assert!(rf.is_dirty(0), "flips mark dirty even when they cancel");
        assert_eq!(rf.read(0, &mut st), ReadOutcome::Ok(42));
        assert!(!rf.is_dirty(0), "a clean decode re-validates the cache");
        assert_eq!(st.detected, 0);
    }

    #[test]
    fn reference_read_matches_fast_path() {
        for prot in [
            RfProtection::None,
            RfProtection::Edc(Scheme::Parity),
            RfProtection::Ecc(Scheme::Secded),
        ] {
            let mut fast = RegFile::new(2, prot);
            let mut slow = RegFile::new(2, prot);
            let (mut sf, mut ss) = (RfStats::default(), RfStats::default());
            for step in 0..12u32 {
                fast.write(0, step * 3, &mut sf);
                slow.write(0, step * 3, &mut ss);
                if step % 3 == 1 {
                    fast.flip_bit(0, step % 33);
                    slow.flip_bit(0, step % 33);
                }
                assert_eq!(
                    fast.read(0, &mut sf),
                    slow.read_reference(0, &mut ss),
                    "{prot:?} step {step}: outcomes diverge"
                );
            }
            assert_eq!(sf, ss, "{prot:?}: stats diverge");
        }
    }

    #[test]
    fn decoded_reads_count_only_the_decode_path() {
        let mut rf = RegFile::new(2, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        rf.write(0, 7, &mut st);
        // Clean reads stay on the cached path.
        for _ in 0..5 {
            rf.read(0, &mut st);
        }
        assert_eq!(st.decoded_reads, 0);
        assert_eq!(st.clean_reads(), 5);
        // A fault forces one decode; detection leaves the register dirty
        // so the next read decodes again.
        rf.flip_bit(0, 3);
        rf.read(0, &mut st);
        rf.read(0, &mut st);
        assert_eq!(st.decoded_reads, 2);
        assert_eq!(st.clean_reads(), 5);
        // Reference reads always decode, and equality ignores the
        // counter by design.
        let mut ref_st = st;
        rf.write(0, 9, &mut st);
        rf.write(0, 9, &mut ref_st);
        let a = rf.read(0, &mut st);
        let b = rf.read_reference(0, &mut ref_st);
        assert_eq!(a, b);
        assert_eq!(st, ref_st, "PartialEq must ignore decoded_reads");
        assert_ne!(st.decoded_reads, ref_st.decoded_reads);
    }

    #[test]
    fn ecc_scrub_clears_dirty_on_both_paths() {
        let mut rf = RegFile::new(1, RfProtection::Ecc(Scheme::Secded));
        let mut st = RfStats::default();
        rf.write(0, 5, &mut st);
        rf.flip_bit(0, 3);
        assert_eq!(rf.read(0, &mut st), ReadOutcome::CorrectedInline(5));
        assert!(!rf.is_dirty(0), "scrub re-validates");
        // Subsequent fast-path read uses the cache.
        assert_eq!(rf.read(0, &mut st), ReadOutcome::Ok(5));
        assert_eq!(st.corrected, 1);
    }

    #[test]
    fn a_flipped_cell_is_detected_only_in_its_own_lane() {
        let mut rf = RegFile::warp(4, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        let values: Vec<u32> = (0..WARP_LANES as u32).map(|l| l * 3 + 1).collect();
        for reg in 0..4 {
            rf.write_row(reg, u32::MAX, &values, &mut st);
        }
        let victim = rf.cell(2, 9);
        rf.flip_bit(victim, 4);
        assert_eq!(rf.dirty_lanes(2), 1 << 9);
        assert_eq!(rf.dirty_count(), 1);
        for reg in 0..4 {
            for (lane, &value) in values.iter().enumerate() {
                let cell = rf.cell(reg, lane);
                let expect = if cell == victim {
                    ReadOutcome::Detected
                } else {
                    ReadOutcome::Ok(value)
                };
                assert_eq!(rf.read(cell, &mut st), expect, "reg {reg} lane {lane}");
            }
        }
        assert_eq!(st.detected, 1);
        assert_eq!(st.decoded_reads, 1, "only the victim cell decodes");
        for reg in [0, 1, 3] {
            assert_eq!(rf.dirty_lanes(reg), 0, "other registers stay clean");
        }
    }

    #[test]
    fn a_row_write_clears_only_the_lanes_it_writes() {
        let mut rf = RegFile::warp(2, RfProtection::Edc(Scheme::Parity));
        let mut st = RfStats::default();
        for lane in [0, 5, 31] {
            rf.flip_bit(rf.cell(1, lane), 0);
        }
        let values = [7u32; WARP_LANES];
        rf.write_row(1, (1 << 5) | (1 << 6), &values, &mut st);
        assert_eq!(st.writes, 2, "one write per written lane");
        assert_eq!(rf.dirty_lanes(1), (1 << 0) | (1 << 31));
        assert_eq!(rf.dirty_count(), 2);
        assert_eq!(rf.row(1)[5], 7);
        assert_eq!(rf.row(1)[6], 7);
        assert_eq!(rf.row(1)[7], 0, "unwritten lanes keep their values");
        assert_eq!(rf.read(rf.cell(1, 5), &mut st), ReadOutcome::Ok(7));
        assert_eq!(rf.read(rf.cell(1, 0), &mut st), ReadOutcome::Detected);
        // A single-cell write repairs just that cell.
        rf.write(rf.cell(1, 31), 9, &mut st);
        assert_eq!(rf.dirty_lanes(1), 1);
    }

    #[test]
    fn peek_returns_the_decoded_value_of_a_corrupted_cell() {
        let mut st = RfStats::default();
        let mut ecc = RegFile::warp(2, RfProtection::Ecc(Scheme::Secded));
        let cell = ecc.cell(1, 17);
        ecc.write(cell, 0xDEAD_BEEF, &mut st);
        ecc.flip_bit(cell, 6);
        assert!(ecc.is_dirty(cell));
        assert_eq!(ecc.peek(cell), 0xDEAD_BEEF, "SECDED decodes the single flip");
        assert!(ecc.is_dirty(cell), "peek neither counts nor scrubs");

        let mut none = RegFile::warp(2, RfProtection::None);
        let cell = none.cell(0, 31);
        none.write(cell, 0xF0, &mut st);
        none.flip_bit(cell, 1);
        assert_eq!(none.peek(cell), 0xF2, "an unprotected cell decodes to its raw bits");
        assert_eq!(none.peek(none.cell(0, 30)), 0, "a clean neighbour reads its value");
    }
}
