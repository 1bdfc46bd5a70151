//! Seeded inputs: payloads and request plans.
//!
//! Everything here is a pure function of the seed given on the command
//! line; the program under test only ever receives what these functions
//! generate.

use std::time::Duration;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed, so
    /// payloads and plans never share draws.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Scheduling class of a generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Interactive,
    Batch,
}

/// One generated request: which payload, which kernel, which path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Payload index inside the workload's pool.
    pub payload: usize,
    /// Index into the benchmark's kernel list.
    pub kernel: usize,
    /// Streamed path with this chunk length; `None` is the batch path.
    pub stream_chunk: Option<usize>,
    pub deadline: Option<Duration>,
    pub class: Class,
}

/// Attention-logit-like scores, uniform in `[-8, 8)`.
pub fn payload(rng: &mut Rng, n_elems: usize) -> Vec<f64> {
    (0..n_elems).map(|_| rng.unit() * 16.0 - 8.0).collect()
}

/// The deadline closed-loop requests carry: roomy, so no request of a
/// closed loop ever expires.
pub const CLOSED_DEADLINE: Duration = Duration::from_secs(30);

/// A closed-loop request plan: the kernel cycles fastest, then the four
/// variants (plain; streamed in `row_len / 8` chunks; interactive with a
/// deadline; batch class streamed in `row_len / 4` chunks with a
/// deadline), so every kernel sees every variant. Payloads are drawn
/// from the seed.
pub fn closed_plan(
    seed: u64,
    n_kernels: usize,
    pool_len: usize,
    row_len: usize,
    len: usize,
) -> Vec<Spec> {
    let mut rng = Rng::stream(seed, 2);
    (0..len)
        .map(|i| {
            let plain = Spec {
                payload: rng.below(pool_len),
                kernel: i % n_kernels,
                stream_chunk: None,
                deadline: None,
                class: Class::Interactive,
            };
            match (i / n_kernels) % 4 {
                1 => Spec {
                    stream_chunk: Some(row_len / 8),
                    ..plain
                },
                2 => Spec {
                    deadline: Some(CLOSED_DEADLINE),
                    ..plain
                },
                3 => Spec {
                    stream_chunk: Some(row_len / 4),
                    deadline: Some(CLOSED_DEADLINE),
                    class: Class::Batch,
                    ..plain
                },
                _ => plain,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
    }

    #[test]
    fn closed_plan_gives_every_kernel_every_variant() {
        let plan = closed_plan(1, 8, 4, 128, 64);
        assert_eq!(plan, closed_plan(1, 8, 4, 128, 64), "same seed, same plan");
        assert_ne!(
            plan,
            closed_plan(2, 8, 4, 128, 64),
            "another seed, another plan"
        );
        for kernel in 0..8 {
            let mine: Vec<&Spec> = plan.iter().filter(|s| s.kernel == kernel).collect();
            assert_eq!(mine.len(), 8);
            assert!(mine
                .iter()
                .any(|s| s.stream_chunk == Some(16) && s.deadline.is_none()));
            assert!(mine
                .iter()
                .any(|s| s.stream_chunk.is_none() && s.deadline.is_some()));
            assert!(mine
                .iter()
                .any(|s| s.class == Class::Batch && s.stream_chunk == Some(32)));
        }
    }
}
