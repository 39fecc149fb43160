//! Pivot cost of the revised simplex behind `solve` in the wide regime —
//! many box-bounded variables, few rows (`total ≫ m`). The revised engine
//! touches only the `m × m` basis inverse per pivot, where a dense
//! tableau would rewrite all `m × total` cells; `abonn-lp`'s unit test
//! `revised_pivot_cells_undercut_dense_on_wide_problems` checks that
//! claim against the dense oracle by cell count, without timing. (The
//! bound crate's triangle LPs sit at `m ≈ 2 · total`; there the
//! separation is the ~40% pivot-cell cut that `abonn-bound`'s counters
//! report.) Per-pivot cell counts — exact and machine-independent, unlike
//! the timings — are printed once outside the timed loop. Run with
//! `cargo bench -p abonn-lp --bench revised`; under `cargo test` the
//! routine runs once as a smoke check.

use abonn_lp::{Problem, Relation, Sense};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 768;
const M: usize = 48;

/// A random feasible LP in the wide aspect ratio: `N` boxed variables,
/// `M` sparse `Le` rows with positive slack at the origin.
fn wide_problem(seed: u64) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = Problem::new(N, Sense::Maximize);
    let c: Vec<f64> = (0..N).map(|_| rng.gen_range(-1.0..1.0)).collect();
    p.set_objective(&c);
    for j in 0..N {
        p.set_bounds(j, rng.gen_range(-1.5..-0.5), rng.gen_range(0.5..1.5));
    }
    for _ in 0..M {
        // Sparse rows (~6 nonzeros) like the ReLU encodings feeding the
        // verifier: the revised FTRAN cost scales with these, not with N.
        let mut row = vec![0.0; N];
        for _ in 0..6 {
            let j = rng.gen_range(0..N);
            row[j] = rng.gen_range(-1.0..1.0);
        }
        p.add_row(&row, Relation::Le, rng.gen_range(0.5..1.5));
    }
    p
}

fn bench_pivot_revised(c: &mut Criterion) {
    let problems: Vec<Problem> = (0..6).map(|k| wide_problem(10 + k)).collect();

    let mut pivots = 0usize;
    let mut cells = 0usize;
    for p in &problems {
        let r = p.solve().expect("bench problems are well-formed");
        pivots += r.pivots;
        cells += r.pivot_cells;
    }
    println!(
        "revised simplex ({} LPs, {}x{}): {} cells / {} pivots",
        problems.len(),
        N,
        M,
        cells,
        pivots,
    );

    c.bench_function("lp/pivot_revised", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for p in &problems {
                acc += black_box(p).solve().unwrap().objective;
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_pivot_revised);
criterion_main!(benches);
