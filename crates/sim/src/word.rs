//! Fixed-width simulation words: 64 or 256 patterns per sweep.
//!
//! Fault simulation is bit-parallel: every node value is a word whose bit
//! `p` belongs to pattern `p`. [`SimWord`] abstracts the word so the same
//! engine runs on plain `u64` (the 64-pattern block) or on the fixed
//! `[u64; 4]` chunk [`W256`] that the compiler auto-vectorizes — no
//! intrinsics, std only.
//!
//! A wide word is laid out as [`SimWord::LANES`] consecutive 64-bit *lanes*;
//! lane `l` of wide pattern-block `w` carries exactly the 64-pattern block
//! `w * LANES + l` of the seeded stream (see
//! [`pattern_block`](crate::pattern_block)). Because every per-pattern bit
//! sits at the same `(lane, bit)` position regardless of width, campaign
//! results are **bit-identical** across word widths, which the tests pin.

/// A fixed-width pattern word: one value bit per simulated pattern,
/// organised as [`Self::LANES`] 64-bit lanes.
///
/// Implementations must be plain bit-vectors: every operation acts
/// independently per bit, so per-pattern results never depend on the word
/// width they were computed at.
pub trait SimWord: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    /// Number of 64-bit lanes (64 × `LANES` patterns per sweep).
    const LANES: usize;
    /// The all-zeros word.
    const ZERO: Self;
    /// The all-ones word.
    const ONES: Self;

    /// Builds a word from one `u64` per lane (`f(l)` fills lane `l`).
    fn from_lanes(f: impl FnMut(usize) -> u64) -> Self;
    /// The 64 bits of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::LANES`.
    fn lane(self, i: usize) -> u64;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise OR.
    fn or(self, other: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;
    /// Bitwise complement.
    fn not(self) -> Self;
    /// Whether every bit is zero (fault effect died / nothing detected).
    fn is_zero(self) -> bool;
}

impl SimWord for u64 {
    const LANES: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline]
    fn from_lanes(mut f: impl FnMut(usize) -> u64) -> Self {
        f(0)
    }

    #[inline]
    fn lane(self, i: usize) -> u64 {
        assert_eq!(i, 0, "u64 has a single lane");
        self
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }
}

/// A 256-bit simulation word: four 64-pattern lanes per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
pub struct W256(pub [u64; 4]);

impl SimWord for W256 {
    const LANES: usize = 4;
    const ZERO: Self = W256([0; 4]);
    const ONES: Self = W256([u64::MAX; 4]);

    #[inline]
    fn from_lanes(mut f: impl FnMut(usize) -> u64) -> Self {
        let mut r = [0u64; 4];
        for (i, lane) in r.iter_mut().enumerate() {
            *lane = f(i);
        }
        W256(r)
    }

    #[inline]
    fn lane(self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(other.0) {
            *a &= b;
        }
        W256(r)
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(other.0) {
            *a |= b;
        }
        W256(r)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(other.0) {
            *a ^= b;
        }
        W256(r)
    }

    #[inline]
    fn not(self) -> Self {
        let mut r = self.0;
        for lane in r.iter_mut() {
            *lane = !*lane;
        }
        W256(r)
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<W: SimWord>() {
        let a = W::from_lanes(|l| 0xDEAD_BEEF_0000_0000u64 | l as u64);
        let b = W::from_lanes(|l| 0x0000_0000_CAFE_F00Du64 ^ (l as u64) << 32);
        for l in 0..W::LANES {
            let (x, y) = (a.lane(l), b.lane(l));
            assert_eq!(a.and(b).lane(l), x & y);
            assert_eq!(a.or(b).lane(l), x | y);
            assert_eq!(a.xor(b).lane(l), x ^ y);
            assert_eq!(a.not().lane(l), !x);
        }
        assert!(W::ZERO.is_zero());
        assert!(!W::ONES.is_zero());
        assert_eq!(W::ONES.not(), W::ZERO);
        assert_eq!(a.xor(a), W::ZERO);
    }

    #[test]
    fn lanes_are_independent_bit_vectors() {
        exercise::<u64>();
        exercise::<W256>();
    }

    #[test]
    fn single_bit_survives_round_trips() {
        // Bit p of lane l must stay at (l, p) through every operation.
        let w = W256::from_lanes(|l| if l == 2 { 1u64 << 17 } else { 0 });
        assert!(!w.is_zero());
        assert_eq!(w.lane(2), 1 << 17);
        assert_eq!(w.lane(0), 0);
        assert_eq!(w.and(W256::ONES), w);
        assert_eq!(w.or(W256::ZERO), w);
        assert_eq!(w.not().not(), w);
    }
}
