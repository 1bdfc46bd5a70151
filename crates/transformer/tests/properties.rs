//! Property-based tests for the ML substrate: gradient correctness on
//! random shapes, softmax-backend invariants and quantization bounds.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use softermax_transformer::attention::{KernelSoftmax, MultiHeadAttention};
use softermax_transformer::nn::{cross_entropy, Linear};
use softermax_transformer::quant::FakeQuant;
use softermax_transformer::tensor::Matrix;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax backends produce rows summing to ~1 with all entries in
    /// [0, 1+ε], for any score matrix.
    #[test]
    fn backends_produce_distributions(scores in arb_matrix(4, 6)) {
        let backends: Vec<Arc<KernelSoftmax>> = vec![
            Arc::new(KernelSoftmax::exact()),
            Arc::new(KernelSoftmax::base2()),
            Arc::new(KernelSoftmax::softermax_paper()),
        ];
        for backend in backends {
            let p = backend.forward(&scores);
            for r in 0..p.rows() {
                let sum: f32 = p.row(r).iter().sum();
                prop_assert!((sum - 1.0).abs() < 0.1, "{}: row sum {sum}", backend.name());
                prop_assert!(p.row(r).iter().all(|&v| (-1e-6..=1.06).contains(&v)));
            }
        }
    }

    /// The softmax Jacobian maps the all-ones gradient to (near) zero:
    /// softmax output moves on the simplex, so uniform pressure is null.
    #[test]
    fn softmax_jacobian_annihilates_constants(scores in arb_matrix(2, 5)) {
        let backend = KernelSoftmax::exact();
        let p = backend.forward(&scores);
        let ones = Matrix::from_vec(2, 5, vec![1.0; 10]);
        let g = backend.backward(&p, &ones);
        for &v in g.as_slice() {
            prop_assert!(v.abs() < 1e-5, "residual gradient {v}");
        }
    }

    /// Linear layer: analytic input gradient matches finite differences
    /// on random shapes/values.
    #[test]
    fn linear_gradcheck(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(3, 2, &mut rng);
        let mut x = Matrix::xavier(2, 3, &mut rng);
        let labels = [0usize, 1];

        layer.zero_grad();
        let y = layer.forward(&x);
        let (_, gl) = cross_entropy(&y, &labels);
        let gx = layer.backward(&gl);

        let eps = 1e-3;
        let (r, c) = ((seed % 2) as usize, (seed % 3) as usize);
        let orig = x.get(r, c);
        x.set(r, c, orig + eps);
        let lp = cross_entropy(&layer.forward(&x), &labels).0;
        x.set(r, c, orig - eps);
        let lm = cross_entropy(&layer.forward(&x), &labels).0;
        let numeric = (lp - lm) / (2.0 * eps);
        prop_assert!((numeric - gx.get(r, c)).abs() < 2e-2,
            "numeric {numeric} vs analytic {}", gx.get(r, c));
    }

    /// Fake quantization: error is bounded by half a step inside the
    /// representable range, and the operation is idempotent.
    #[test]
    fn fake_quant_bounded_and_idempotent(vals in proptest::collection::vec(-1.0f32..1.0, 8)) {
        // Unit scales: the int8 grid spans exactly [-1, 1].
        let q = FakeQuant::identity();
        let x = Matrix::from_vec(2, 4, vals);
        let xq = q.fake_quant_acts(&x);
        for (a, b) in x.as_slice().iter().zip(xq.as_slice()) {
            prop_assert!((a - b).abs() <= 0.55 * q.act_scale(), "{a} -> {b}");
        }
        let xqq = q.fake_quant_acts(&xq);
        prop_assert_eq!(xq, xqq);
    }

    /// MHA forward is deterministic and shape preserving for random input.
    #[test]
    fn mha_shape_and_determinism(seed in 0u64..200) {
        let build = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mha = MultiHeadAttention::new(8, 2, Arc::new(KernelSoftmax::base2()), &mut rng);
            let x = Matrix::xavier(5, 8, &mut rng);
            mha.forward(&x)
        };
        let y1 = build();
        let y2 = build();
        prop_assert_eq!(y1.clone(), y2);
        prop_assert_eq!((y1.rows(), y1.cols()), (5, 8));
        prop_assert!(y1.as_slice().iter().all(|v| v.is_finite()));
    }
}
