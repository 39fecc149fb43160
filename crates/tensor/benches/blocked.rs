//! Benchmarks of the register-tiled hot kernels.
//!
//! `tensor/matmul_blocked_*` times `matmul_into`, and
//! `tensor/fused_affine_runs_*` times the block-sparse fused step that
//! back-substitution runs per layer. CHANGES.md records their speedup
//! over the pre-optimization rolled loops; bit-identity to those loops is
//! pinned by the oracle proptests in `matrix.rs`.
//!
//! Run with `cargo bench -p abonn-tensor --bench blocked`; under
//! `cargo test` each routine executes once as a smoke check.

use abonn_tensor::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SIZES: [usize; 2] = [128, 256];

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 3 + salt) % 13) as f64 - 6.0
    })
}

fn bench_matmul_blocked(c: &mut Criterion) {
    for n in SIZES {
        let a = test_matrix(n, n, 0);
        let b = test_matrix(n, n, 5);
        let mut out = Matrix::default();
        c.bench_function(format!("tensor/matmul_blocked_{n}"), |bench| {
            bench.iter(|| {
                a.matmul_into(black_box(&b), &mut out);
                black_box(out.get(0, 0))
            })
        });
    }
}

fn bench_fused_affine_runs(c: &mut Criterion) {
    for n in SIZES {
        let a = test_matrix(n, n, 2);
        let w = test_matrix(n, n, 7);
        let bias = vec![0.125; n];
        let mut consts = vec![0.0; n];
        let mut out = Matrix::default();
        // Mask two long stable blocks plus scattered singles — the shape
        // back-substitution produces once splits stabilize neurons.
        let skip: Vec<bool> = (0..n)
            .map(|k| k % 7 == 0 || (n / 4..n / 2).contains(&k))
            .collect();
        let runs = {
            let mut runs = Vec::new();
            let mut start = None;
            for (k, &sk) in skip.iter().enumerate() {
                match (sk, start) {
                    (false, None) => start = Some(k),
                    (true, Some(s)) => {
                        runs.push((s, k));
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                runs.push((s, n));
            }
            runs
        };

        c.bench_function(format!("tensor/fused_affine_runs_{n}"), |bench| {
            bench.iter(|| {
                consts.iter_mut().for_each(|v| *v = 0.0);
                a.fused_affine_into_runs(black_box(&w), &bias, &mut consts, &mut out, &runs);
                black_box(out.get(0, 0))
            })
        });
    }
}

criterion_group!(benches, bench_matmul_blocked, bench_fused_affine_runs);
criterion_main!(benches);
