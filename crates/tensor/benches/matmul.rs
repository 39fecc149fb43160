//! Kernel benchmarks for the dense matmul family.
//!
//! Compares the allocating `matmul` against `matmul_into`, which reuses
//! its output buffer, plus `matvec`/`matvec_into`. Run with
//! `cargo bench -p abonn-tensor` for timings; under `cargo test` each
//! routine executes once as a smoke check.
//!
//! Besides timings the bench prints the per-call multiply counts so the
//! kernels can be compared on a machine-independent axis.

use abonn_tensor::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SIZES: [usize; 3] = [32, 64, 128];

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 3 + salt) % 13) as f64 - 6.0
    })
}

fn bench_matmul_variants(c: &mut Criterion) {
    for n in SIZES {
        let a = test_matrix(n, n, 0);
        let b = test_matrix(n, n, 5);
        // Both kernels perform the same n^3 multiply-adds; the difference
        // is allocation discipline.
        println!("matmul {n}x{n}: {} multiply-adds per call", n * n * n);

        c.bench_function(format!("tensor/matmul_{n}"), |bench| {
            bench.iter(|| black_box(a.matmul(black_box(&b))))
        });

        let mut out = Matrix::default();
        c.bench_function(format!("tensor/matmul_into_{n}"), |bench| {
            bench.iter(|| {
                a.matmul_into(black_box(&b), &mut out);
                black_box(out.get(0, 0))
            })
        });
    }
}

fn bench_matvec(c: &mut Criterion) {
    let n = 128;
    let a = test_matrix(n, n, 2);
    let x: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
    c.bench_function("tensor/matvec_128", |bench| {
        bench.iter(|| black_box(a.matvec(black_box(&x))))
    });
    let mut out = Vec::new();
    c.bench_function("tensor/matvec_into_128", |bench| {
        bench.iter(|| {
            a.matvec_into(black_box(&x), &mut out);
            black_box(out[0])
        })
    });
}

criterion_group!(benches, bench_matmul_variants, bench_matvec);
criterion_main!(benches);
