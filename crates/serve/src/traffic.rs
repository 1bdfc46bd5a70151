//! Deterministic synthetic attention-score traffic for load generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a flattened row-major matrix of calibrated attention scores:
/// Box–Muller Gaussians with the requested spread, clamped into the
/// Q(6,2) representable range the fixed-point kernels are calibrated for
/// (the same distribution the bench harness rows use).
///
/// Deterministic in `seed`, so serving runs are reproducible and the
/// bit-identity guards of the bench harness and the fault-injection
/// tests are meaningful.
///
/// Adversarial shapes whose element count overflows `usize`
/// (`rows * row_len > usize::MAX`) yield an empty matrix instead of
/// wrapping — mirroring the geometry checks on the serving path, where
/// an empty matrix is a valid no-op.
///
/// # Example
///
/// ```
/// let m = softermax_serve::traffic::synthetic_matrix(16, 64, 2.5, 42);
/// assert_eq!(m.len(), 16 * 64);
/// assert!(m.iter().all(|v| (-32.0..=31.75).contains(v)));
/// assert_eq!(m, softermax_serve::traffic::synthetic_matrix(16, 64, 2.5, 42));
/// ```
#[must_use]
pub fn synthetic_matrix(rows: usize, row_len: usize, std_dev: f64, seed: u64) -> Vec<f64> {
    let Some(total) = rows.checked_mul(row_len) else {
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..total)
        .map(|_| {
            let u1: f64 = rng.gen_range(1e-9..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (z * std_dev).clamp(-32.0, 31.75)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_bounded() {
        let a = synthetic_matrix(8, 32, 3.0, 7);
        let b = synthetic_matrix(8, 32, 3.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        assert!(a.iter().all(|v| (-32.0..=31.75).contains(v)));
        assert_ne!(a, synthetic_matrix(8, 32, 3.0, 8));
    }

    #[test]
    fn empty_shapes_are_empty() {
        assert!(synthetic_matrix(0, 64, 2.5, 1).is_empty());
        assert!(synthetic_matrix(64, 0, 2.5, 1).is_empty());
    }

    #[test]
    fn overflowing_shapes_are_empty_not_wrapped() {
        // `usize::MAX * 2` would wrap to an innocuous small count in
        // release mode; the checked path must yield an empty matrix.
        assert!(synthetic_matrix(usize::MAX, 2, 2.5, 1).is_empty());
        assert!(synthetic_matrix(3, usize::MAX / 2, 2.5, 1).is_empty());
        // `usize::MAX * 0 == 0` is representable: still the empty matrix.
        assert!(synthetic_matrix(usize::MAX, 0, 2.5, 1).is_empty());
    }
}
