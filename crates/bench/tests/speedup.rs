//! Timed integration check for the parallel engine: on a machine with at
//! least 4 cores, running the smoke-scale suite on a 4-lane pool must be
//! at least 1.5x faster than the single-lane run. On smaller machines the
//! check is skipped (a pool cannot beat the hardware it runs on).

use abonn_bench::scenario::{prepare_model, run_grid, Approach};
use abonn_core::{Budget, WorkerPool};
use abonn_data::zoo::ModelKind;
use std::sync::Arc;
use std::time::Instant;

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test measures wall-clock speed-up, and reads the core count only to skip \
              on machines that cannot show one"
)]
fn four_threads_beat_one_by_1_5x_on_smoke_suite() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s) available, need 4");
        return;
    }

    let prepared = vec![
        prepare_model(ModelKind::MnistL2, 4, 2025),
        prepare_model(ModelKind::CifarBase, 4, 2025),
    ];
    let approaches = Approach::rq1_lineup();
    let budget = Budget::with_appver_calls(400);

    // Warm-up pass so lazy model/state initialisation is off the clock.
    let _ = run_grid(
        &prepared,
        &approaches,
        &budget,
        &Arc::new(WorkerPool::new(1)),
    );

    let t0 = Instant::now();
    let seq = run_grid(
        &prepared,
        &approaches,
        &budget,
        &Arc::new(WorkerPool::new(1)),
    );
    let t_seq = t0.elapsed();

    let t0 = Instant::now();
    let par = run_grid(
        &prepared,
        &approaches,
        &budget,
        &Arc::new(WorkerPool::new(4)),
    );
    let t_par = t0.elapsed();

    assert_eq!(seq.len(), par.len());
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    eprintln!(
        "suite wall clock: 1 thread {:.3}s, 4 threads {:.3}s ({speedup:.2}x)",
        t_seq.as_secs_f64(),
        t_par.as_secs_f64()
    );
    assert!(
        speedup >= 1.5,
        "expected >= 1.5x speedup at 4 threads, measured {speedup:.2}x"
    );
}
