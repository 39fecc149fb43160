//! The parallel suite runner is observably independent of the pool size:
//! per-record results match field-for-field (wall time aside), persisted
//! reports are byte-identical, and aggregate statistics agree.

use abonn_bench::report::save_records;
use abonn_bench::scenario::{prepare_model, run_grid, Approach};
use abonn_core::{Budget, WorkerPool};
use abonn_data::zoo::ModelKind;
use std::sync::Arc;

#[test]
fn grid_records_and_reports_are_identical_across_thread_counts() {
    let prepared = vec![prepare_model(ModelKind::MnistL2, 3, 2025)];
    let approaches = Approach::rq1_lineup();
    // Call-only budget: a wall limit would make verdicts timing-dependent.
    let budget = Budget::with_appver_calls(300);

    let seq = run_grid(
        &prepared,
        &approaches,
        &budget,
        &Arc::new(WorkerPool::new(1)),
    );
    let par = run_grid(
        &prepared,
        &approaches,
        &budget,
        &Arc::new(WorkerPool::new(3)),
    );

    assert!(!seq.is_empty(), "grid produced no records");
    assert_eq!(seq.len(), par.len(), "record counts differ");
    for (a, b) in seq.iter().zip(&par) {
        // Everything except wall time must match exactly; wall time is
        // the one field parallelism is allowed to change.
        assert_eq!(a.model, b.model);
        assert_eq!(a.approach, b.approach);
        assert_eq!(a.instance_id, b.instance_id);
        assert_eq!(a.epsilon, b.epsilon);
        assert_eq!(
            a.verdict, b.verdict,
            "verdict diverged on {} #{}",
            a.model, a.instance_id
        );
        assert_eq!(
            a.appver_calls, b.appver_calls,
            "calls diverged on #{}",
            a.instance_id
        );
        assert_eq!(a.nodes_visited, b.nodes_visited);
        assert_eq!(a.tree_size, b.tree_size);
        assert_eq!(a.max_depth, b.max_depth);
    }

    // Persisted artifacts must be byte-identical (wall time is skipped on
    // serialisation precisely so this holds).
    let dir = std::env::temp_dir().join("abonn-parallel-grid-test");
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("seq.json");
    let p3 = dir.join("par.json");
    save_records(&p1, &seq).unwrap();
    save_records(&p3, &par).unwrap();
    let b1 = std::fs::read(&p1).unwrap();
    let b3 = std::fs::read(&p3).unwrap();
    assert_eq!(b1, b3, "persisted reports differ between 1 and 3 threads");
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p3);

    // Aggregated run statistics over the merged parallel results agree
    // with the sequential totals.
    let total = |rs: &[abonn_bench::scenario::InstanceRecord]| {
        rs.iter().fold((0usize, 0usize, 0usize, 0usize), |acc, r| {
            (
                acc.0 + r.appver_calls,
                acc.1 + r.nodes_visited,
                acc.2 + r.tree_size,
                acc.3.max(r.max_depth),
            )
        })
    };
    assert_eq!(total(&seq), total(&par), "aggregate stats diverged");
}
