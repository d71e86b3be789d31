//! Shortened binary BCH codes over GF(2^6), optionally extended with an
//! overall parity bit.
//!
//! These provide the executable multi-bit detect/correct machinery behind
//! Penny's coding schemes:
//!
//! * `t = 1`  → Hamming(38,32): single-error correction, or 2-bit
//!   detection when used purely as an EDC.
//! * `t = 1` + parity → SECDED(39,32).
//! * `t = 2` + parity → a DEC-TED code (45,32); the paper quotes a
//!   (55,32) construction from Moon's tables — ours corrects the same
//!   2-bit errors with fewer bits, and the cost tables use the paper's
//!   parameters (see `penny-coding::cost`).
//! * `t = 3` + parity → a TEC-QED code (51,32); the paper quotes (60,32).
//!
//! Decoding is textbook: syndrome computation, Berlekamp–Massey for the
//! error-locator polynomial, Chien search for the error positions, plus a
//! re-encode validity check so miscorrections surface as detections.

use crate::gf::{Gf64, N};
use crate::Decode;

/// A shortened (and optionally parity-extended) binary BCH code with
/// 32 data bits.
#[derive(Debug, Clone)]
pub struct Bch {
    gf: Gf64,
    /// Designed correction capability.
    t: usize,
    /// Generator polynomial bitmask (bit i = coeff of x^i).
    generator: u64,
    /// Parity-check bits (degree of the generator).
    r: usize,
    /// Whether an overall parity bit is appended.
    extended: bool,
}

/// Data width of every code in this crate (one GPU register).
pub const K: usize = 32;

impl Bch {
    /// Builds a BCH code correcting `t` errors, shortened to 32 data bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0 or the parity bits would not fit the shortened
    /// length (`t <= 5` always fits for k = 32).
    pub fn new(t: usize, extended: bool) -> Bch {
        assert!(t >= 1, "t must be at least 1");
        let gf = Gf64::new();
        // g(x) = lcm of minimal polynomials of α^1 .. α^(2t).
        let mut generator = 1u64;
        let mut seen_classes: Vec<u64> = Vec::new();
        for i in 1..=2 * t {
            let mp = gf.minimal_poly(i);
            if seen_classes.contains(&mp) {
                continue;
            }
            seen_classes.push(mp);
            generator = poly_mul_gf2(generator, mp);
        }
        let r = 63 - generator.leading_zeros() as usize;
        assert!(K + r <= N, "code does not fit base length");
        Bch { gf, t, generator, r, extended }
    }

    /// Total codeword length in bits.
    pub fn n(&self) -> usize {
        K + self.r + usize::from(self.extended)
    }

    /// Designed correction capability.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Encodes 32 data bits into a codeword (bit 0..32 = data,
    /// bits 32.. = checks, top bit = overall parity if extended).
    pub fn encode(&self, data: u32) -> u64 {
        // Systematic encoding: c(x) = d(x) * x^r + (d(x) * x^r mod g(x));
        // check bits occupy polynomial positions 0..r, data r..r+K.
        let shifted = (data as u64) << self.r;
        let rem = poly_mod_gf2(shifted, self.generator, self.r);
        let mut word = shifted | rem;
        if self.extended {
            let parity = (word.count_ones() & 1) as u64;
            word |= parity << (K + self.r);
        }
        word
    }

    /// Decodes a received word.
    ///
    /// Returns [`Decode::Clean`] when the word is a codeword,
    /// [`Decode::Corrected`] with the repaired data when at most `t` bits
    /// were flipped, and [`Decode::Detected`] otherwise (including
    /// miscorrection attempts caught by the re-encode check).
    pub fn decode(&self, word: u64) -> Decode {
        let base_len = K + self.r;
        let base = word & ((1u64 << base_len) - 1);
        let stored_parity = if self.extended { (word >> base_len) & 1 } else { 0 };

        // Map the shortened word back to polynomial form: our bit i of
        // `base` is data/check bit i; polynomial coefficient of x^i.
        let syndromes = self.syndromes(base);
        let parity_ok =
            !self.extended || (base.count_ones() as u64 + stored_parity).is_multiple_of(2);
        if syndromes.iter().all(|&s| s == 0) {
            if parity_ok {
                return Decode::Clean((base >> self.r) as u32);
            }
            // Syndromes clean but parity flipped: the parity bit itself.
            return Decode::Corrected { data: (base >> self.r) as u32, flipped: 1 };
        }
        // Berlekamp-Massey.
        let sigma = self.berlekamp_massey(&syndromes);
        let degree = sigma.len() - 1;
        if degree == 0 || degree > self.t {
            return Decode::Detected;
        }
        // Chien search over the *shortened* positions only.
        let mut err_positions = Vec::new();
        for pos in 0..base_len {
            // An error at polynomial position `pos` corresponds to locator
            // root α^{-pos}.
            let x = self.gf.alpha_pow(N - pos % N);
            if self.gf.poly_eval(&sigma, x) == 0 {
                err_positions.push(pos);
            }
        }
        if err_positions.len() != degree {
            return Decode::Detected;
        }
        let mut fixed = base;
        for &p in &err_positions {
            fixed ^= 1u64 << p;
        }
        // Validity re-check against the base code.
        let data = (fixed >> self.r) as u32;
        let reenc = self.encode(data);
        let reenc_base = reenc & ((1u64 << base_len) - 1);
        if reenc_base != fixed {
            return Decode::Detected;
        }
        // Extended-code accounting: if the stored overall parity is
        // inconsistent with the corrected base word, the parity bit
        // itself was flipped too. The pattern is correctable only when
        // the *total* number of flips stays within the design capability
        // `t` — a weight-(t+1) pattern must surface as a detection (the
        // extended distance 2t+2 guarantees this classification is never
        // a silent miscorrection).
        let mut total_flips = err_positions.len();
        if self.extended {
            let corrected_parity_ok =
                (fixed.count_ones() as u64 + stored_parity).is_multiple_of(2);
            if !corrected_parity_ok {
                total_flips += 1;
            }
            if total_flips > self.t {
                return Decode::Detected;
            }
        }
        Decode::Corrected { data, flipped: total_flips }
    }

    fn syndromes(&self, base: u64) -> Vec<u8> {
        let base_len = K + self.r;
        let mut s = vec![0u8; 2 * self.t];
        for (j, sj) in s.iter_mut().enumerate() {
            let mut acc = 0u8;
            for pos in 0..base_len {
                if (base >> pos) & 1 == 1 {
                    acc ^= self.gf.alpha_pow((j + 1) * pos);
                }
            }
            *sj = acc;
        }
        s
    }

    /// Berlekamp-Massey: returns the error-locator polynomial σ(x),
    /// coefficients low-to-high, σ(0) = 1.
    fn berlekamp_massey(&self, s: &[u8]) -> Vec<u8> {
        let gf = &self.gf;
        let mut sigma = vec![1u8];
        let mut b = vec![1u8];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u8;
        for n_iter in 0..s.len() {
            // Discrepancy.
            let mut d = s[n_iter];
            for i in 1..=l {
                if i < sigma.len() {
                    d ^= gf.mul(sigma[i], s[n_iter - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n_iter {
                let t_poly = sigma.clone();
                let coef = gf.div(d, bb);
                sigma = poly_add(&sigma, &poly_scale_shift(gf, &b, coef, m));
                l = n_iter + 1 - l;
                b = t_poly;
                bb = d;
                m = 1;
            } else {
                let coef = gf.div(d, bb);
                sigma = poly_add(&sigma, &poly_scale_shift(gf, &b, coef, m));
                m += 1;
            }
        }
        // Trim trailing zeros.
        while sigma.len() > 1 && *sigma.last().expect("nonempty") == 0 {
            sigma.pop();
        }
        sigma
    }
}

fn poly_add(a: &[u8], b: &[u8]) -> Vec<u8> {
    let len = a.len().max(b.len());
    (0..len)
        .map(|i| a.get(i).copied().unwrap_or(0) ^ b.get(i).copied().unwrap_or(0))
        .collect()
}

fn poly_scale_shift(gf: &Gf64, p: &[u8], c: u8, shift: usize) -> Vec<u8> {
    let mut out = vec![0u8; p.len() + shift];
    for (i, &coef) in p.iter().enumerate() {
        out[i + shift] = gf.mul(coef, c);
    }
    out
}

/// GF(2) polynomial multiplication on bitmasks.
fn poly_mul_gf2(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..64 {
        if (a >> i) & 1 == 1 {
            out ^= b << i;
        }
    }
    out
}

/// GF(2) polynomial remainder of `a` modulo `g` (degree `r`).
fn poly_mod_gf2(a: u64, g: u64, r: usize) -> u64 {
    let mut rem = a;
    let gdeg = 63 - g.leading_zeros() as usize;
    while rem != 0 {
        let rdeg = 63 - rem.leading_zeros() as usize;
        if rdeg < gdeg {
            break;
        }
        rem ^= g << (rdeg - gdeg);
    }
    debug_assert!(rem < (1u64 << r.max(1)));
    rem
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(word: u64, bits: &[usize]) -> u64 {
        bits.iter().fold(word, |w, &b| w ^ (1u64 << b))
    }

    #[test]
    fn parameters_match_expected_families() {
        assert_eq!(Bch::new(1, false).n(), 38, "Hamming(38,32)");
        assert_eq!(Bch::new(1, true).n(), 39, "SECDED(39,32)");
        assert_eq!(Bch::new(2, true).n(), 45, "DECTED(45,32)");
        assert_eq!(Bch::new(3, true).n(), 51, "TECQED(51,32)");
    }

    #[test]
    fn clean_roundtrip() {
        for t in 1..=3 {
            for ext in [false, true] {
                let code = Bch::new(t, ext);
                for data in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
                    let w = code.encode(data);
                    assert_eq!(code.decode(w), Decode::Clean(data), "t={t} ext={ext}");
                }
            }
        }
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let patterns: [&[usize]; 6] =
            [&[0], &[37], &[3, 17], &[0, 36], &[1, 20, 40], &[5, 6, 7]];
        for t in 1..=3usize {
            let code = Bch::new(t, true);
            let n = code.n();
            for data in [0x1234_5678u32, 0, u32::MAX] {
                let w = code.encode(data);
                for p in patterns.iter().filter(|p| p.len() <= t) {
                    if p.iter().any(|&b| b >= n - 1) {
                        continue;
                    }
                    let got = code.decode(flip(w, p));
                    assert_eq!(
                        got,
                        Decode::Corrected { data, flipped: p.len() },
                        "t={t} pattern={p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_t_plus_one_errors_in_extended_code() {
        for t in 1..=3usize {
            let code = Bch::new(t, true);
            let n = code.n();
            let data = 0xCAFE_F00Du32;
            let w = code.encode(data);
            // Deterministic sweep of (t+1)-bit patterns.
            let mut tested = 0;
            let mut pattern: Vec<usize> = (0..=t).collect();
            while pattern[t] < n && tested < 200 {
                let got = code.decode(flip(w, &pattern));
                match got {
                    Decode::Detected => {}
                    Decode::Corrected { data: d, .. } => {
                        assert_ne!(d, data, "silent corruption at {pattern:?} (t={t})");
                        // Miscorrection to a different codeword would be an
                        // SDC; the extended code must not allow it.
                        panic!("t+1 error pattern {pattern:?} miscorrected (t={t})");
                    }
                    Decode::Clean(_) => panic!("t+1 errors decoded clean (t={t})"),
                }
                // Advance pattern: bump last index.
                pattern[t] += 1;
                if pattern[t] >= n {
                    pattern[0] += 1;
                    for i in 1..=t {
                        pattern[i] = pattern[i - 1] + 1;
                    }
                }
                tested += 1;
            }
            assert!(tested > 50, "too few patterns exercised");
        }
    }

    #[test]
    fn parity_bit_error_is_corrected_in_extended_code() {
        let code = Bch::new(1, true);
        let data: u32 = 0x0BAD_50DE;
        let w = code.encode(data);
        let got = code.decode(flip(w, &[code.n() - 1]));
        assert_eq!(got, Decode::Corrected { data, flipped: 1 });
    }

    #[test]
    fn hamming_detects_double_errors_when_used_as_edc() {
        // Plain (non-extended) t=1 BCH: distance 3. A 2-bit error is never
        // decoded Clean (it may "correct" to a wrong word, which is why
        // SECDED adds the parity bit - but as a pure detector the syndrome
        // is always nonzero).
        let code = Bch::new(1, false);
        let data = 0x5555_AAAAu32;
        let w = code.encode(data);
        for a in 0..code.n() {
            for b in (a + 1)..code.n() {
                if let Decode::Clean(_) = code.decode(flip(w, &[a, b])) {
                    panic!("2-bit error at ({a},{b}) undetected")
                }
            }
        }
    }
}
