//! Explicit fixed-width lane blocks: the SIMD substrate under [`crate::vecops`].
//!
//! A *block* is [`LANES`] `i64` raw encodings processed together
//! ([`Block`]). Every block op is a hand-unrolled, branch-free lane-wise
//! `max`/`clamp`/saturating-sub/shift, so it is bit-identical with the
//! scalar operation it unrolls and LLVM is free to auto-vectorize it for
//! whatever target the crate is compiled for.

/// Lanes per block: eight 64-bit lanes fill one AVX-512 register (or two
/// AVX2/NEON registers).
pub const LANES: usize = 8;

/// One block of raw lane encodings.
pub type Block = [i64; LANES];

/// Loads one block from a slice chunk of exactly [`LANES`] elements.
#[inline(always)]
#[must_use]
pub fn load(chunk: &[i64]) -> Block {
    std::array::from_fn(|i| chunk[i])
}

/// Lane-wise maximum of two blocks.
#[inline(always)]
#[must_use]
pub fn max(a: Block, b: Block) -> Block {
    std::array::from_fn(|i| a[i].max(b[i]))
}

/// Horizontal maximum of one block.
#[inline(always)]
#[must_use]
pub fn hmax(a: Block) -> i64 {
    let mut best = a[0];
    for &v in &a[1..] {
        best = best.max(v);
    }
    best
}

/// Lane-wise `clamp(a - scalar, lo, hi)` with a saturating subtraction:
/// one block of the max-subtract stage.
#[inline(always)]
#[must_use]
pub fn sub_clamp(a: Block, scalar: i64, lo: i64, hi: i64) -> Block {
    std::array::from_fn(|i| a[i].saturating_sub(scalar).clamp(lo, hi))
}

/// Lane-wise `clamp(a >> k, lo, hi)` (arithmetic shift, i.e. floor
/// semantics): one block of the wide-sum term staging. `k` must be < 64.
#[inline(always)]
#[must_use]
pub fn shr_clamp(a: Block, k: u32, lo: i64, hi: i64) -> Block {
    std::array::from_fn(|i| (a[i] >> k).clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ops_match_scalar_semantics() {
        let a: Block = [3, -7, i64::MAX, i64::MIN, 0, 42, -1, 100];
        let b: Block = [4, -8, 0, 1, -1, 41, 2, 99];
        assert_eq!(max(a, b), [4, -7, i64::MAX, 1, 0, 42, 2, 100]);
        assert_eq!(hmax(a), i64::MAX);
        assert_eq!(hmax([-5, -9, -2, -3, -4, -6, -7, -8]), -2);

        let got = sub_clamp(a, 10, -50, 50);
        let want: Block = std::array::from_fn(|i| a[i].saturating_sub(10).clamp(-50, 50));
        assert_eq!(got, want);

        let got = shr_clamp(a, 3, -100, 100);
        let want: Block = std::array::from_fn(|i| (a[i] >> 3).clamp(-100, 100));
        assert_eq!(got, want);
    }
}
