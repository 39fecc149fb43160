//! Per-thread scratch arena for back-substitution.
//!
//! Every bound computation needs the same scratch buffers (four
//! coefficient matrices, two constant vectors, one lane accumulator for
//! neuron-major steps) plus the stable-neuron
//! masks and the block-sparsity run index. Allocating them per node costs
//! a malloc/free pair per analysis on the BaB hot path, so this module
//! keeps one [`BoundArena`] parked per worker thread: an analysis leases
//! it, the buffers grow to the network's widest layer once, and every
//! later node on that thread reuses the same allocations (`copy_from` /
//! `resize_zeroed` / `clear` reset length, not capacity).
//!
//! The lease is RAII ([`ArenaLease`] returns the arena to the thread slot
//! on drop), so early exits — notably the `return None` when a split
//! makes a node infeasible — still recycle the arena. Buffer *contents*
//! are never trusted across leases: every consumer fully overwrites what
//! it reads, which the reuse-vs-fresh-thread equivalence tests pin down.

use abonn_tensor::Matrix;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

/// Scratch buffers for one back-substitution pass. All fields are
/// length-reset (never content-trusted) at each use site.
#[derive(Default)]
pub(crate) struct BoundArena {
    /// Lower/upper bound coefficients of the stage being substituted.
    pub(crate) lo_a: Matrix,
    pub(crate) hi_a: Matrix,
    /// Swap targets of the fused affine step.
    pub(crate) lo_next: Matrix,
    pub(crate) hi_next: Matrix,
    /// Per-neuron "relaxation is identically zero" mask for the current
    /// substitution step (inactive or split-fixed-inactive neurons).
    pub(crate) skip: Vec<bool>,
    /// Per-neuron "relaxation is the identity" mask (active or
    /// split-fixed-active neurons) — substitution is a no-op there.
    pub(crate) ident: Vec<bool>,
    /// Maximal unmasked column intervals of `skip` — the block index the
    /// block-sparse fused kernel consumes.
    pub(crate) runs: Vec<(usize, usize)>,
    /// Constant terms of the lower/upper bound expressions.
    pub(crate) lo_c: Vec<f64>,
    pub(crate) hi_c: Vec<f64>,
    /// Per-lane intercept sums of one neuron-major substitution step.
    pub(crate) lane_acc: Vec<f64>,
}

impl BoundArena {
    /// Logical size of the seven float buffers in bytes — the
    /// machine-independent footprint `arena_bytes_peak` tracks. Based on
    /// lengths, never capacities, so the value is identical whether the
    /// arena is fresh or recycled.
    pub(crate) fn live_bytes(&self) -> usize {
        8 * (self.lo_a.as_slice().len()
            + self.hi_a.as_slice().len()
            + self.lo_next.as_slice().len()
            + self.hi_next.as_slice().len()
            + self.lo_c.len()
            + self.hi_c.len()
            + self.lane_acc.len())
    }
}

thread_local! {
    /// One parked arena per worker thread; `None` while leased out (a
    /// nested lease, which never happens today, would simply allocate a
    /// second arena and park the larger-capacity one last).
    static POOL: Cell<Option<Box<BoundArena>>> = const { Cell::new(None) };
}

/// RAII lease on the thread's [`BoundArena`]; dereferences to the arena
/// and parks it back on drop (including early-exit paths).
pub(crate) struct ArenaLease {
    arena: Option<Box<BoundArena>>,
}

impl ArenaLease {
    /// Takes the thread's parked arena, or allocates a fresh one on first
    /// use.
    pub(crate) fn take() -> Self {
        let arena = POOL.with(Cell::take).unwrap_or_default();
        Self { arena: Some(arena) }
    }
}

impl Deref for ArenaLease {
    type Target = BoundArena;

    fn deref(&self) -> &BoundArena {
        self.arena.as_deref().expect("arena present until drop")
    }
}

impl DerefMut for ArenaLease {
    fn deref_mut(&mut self) -> &mut BoundArena {
        self.arena.as_deref_mut().expect("arena present until drop")
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            POOL.with(|slot| slot.set(Some(arena)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_the_thread_arena() {
        {
            let mut lease = ArenaLease::take();
            lease.lo_c.clear();
            lease.lo_c.resize(100, 1.5);
        }
        // The next lease on this thread sees the same allocation (length
        // intact because nothing reset it yet) — proving drop parked it.
        let lease = ArenaLease::take();
        assert_eq!(lease.lo_c.len(), 100);
    }

    #[test]
    fn live_bytes_tracks_lengths_not_capacities() {
        let mut arena = BoundArena::default();
        assert_eq!(arena.live_bytes(), 0);
        arena.lo_c.reserve(1024);
        assert_eq!(arena.live_bytes(), 0);
        arena.lo_c.resize(3, 0.0);
        arena.lo_a.resize_zeroed(2, 5);
        assert_eq!(arena.live_bytes(), 8 * (3 + 10));
    }
}
