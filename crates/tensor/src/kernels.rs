#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]
//! Optimized hot-loop kernels behind the public [`Matrix`](crate::Matrix)
//! entry points, plus the typed [`ShapeError`] the checked (`try_*`)
//! entry points return.
//!
//! Every kernel is **bit-for-bit identical** to the rolled `ikj` loops
//! it replaced (kept as test oracles in `matrix.rs`) on the finite data
//! this workspace produces: per output element the multiply–add sequence
//! runs over `k` in globally ascending order, so register/row/column
//! tiling only reorders *which element* is updated next, never the
//! summation order feeding a single element. The one deliberate
//! divergence from the rolled loops is the `v == 0.0` skip: inside a
//! register tile the branch mispredicts and costs more than the
//! multiplies it saves, so the tile kernels add the `±0.0` terms a zero
//! coefficient contributes instead of branching around them. That is the
//! identity on finite operands — `±0.0 * w` is `±0.0` for finite `w`,
//! and an accumulator chain seeded at `+0.0` can never hold `-0.0`
//! (IEEE-754 round-to-nearest returns `+0.0` for exact cancellation), so
//! `acc + ±0.0` reproduces `acc` exactly. Only non-finite operands
//! (`0.0 * inf` is NaN) could observe the difference, and no caller
//! produces them. The single-row remainder paths keep the literal skip.
//! The proptests in `matrix.rs` pin bit-equality against the rolled
//! oracles on shapes that reach full register tiles.
//!
//! The neuron-major step (`fused_affine_csc_runs`) runs the same
//! product transposed: its block holds one row per neuron and one lane
//! per expression row, and it gathers each output column from a
//! compressed sparse weight. Per element the terms still arrive in
//! ascending neuron order, and what it adds beyond the rolled masked loop
//! (the masked rows it zeroes) or leaves out (zero weights) are `±0.0`
//! terms, so the argument above carries over unchanged.
//!
//! The module denies clippy's panic lints (the list at the top of the
//! file): no indexing, no `unwrap`/`expect`, no panicking macros. Bounds
//! are expressed through `split_at`/`chunks_exact`/iterator shapes, which
//! also removes the bounds checks the rolled loops pay per step. Callers
//! (the `Matrix` entry points) validate all shapes first; kernels
//! document their contracts with `debug_assert!`.

use crate::sparse::CscMatrix;
use std::fmt;

/// A typed argument-shape mismatch from a checked kernel entry point.
///
/// The panicking `Matrix` methods raise exactly this message, so the
/// wording (including the historical `"is not defined"` phrasing) is part
/// of the public contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: String) -> Self {
        Self { msg }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// Checks `lhs (lr×lc) * rhs (rr×rc)` conformability.
pub(crate) fn check_matmul(
    op: &str,
    lr: usize,
    lc: usize,
    rr: usize,
    rc: usize,
) -> Result<(), ShapeError> {
    if lc != rr {
        return Err(ShapeError::new(format!(
            "Matrix::{op}: {lr}x{lc} * {rr}x{rc} is not defined"
        )));
    }
    Ok(())
}

/// Checks the fused affine shapes: `self (lr×lc) * weight (wr×wc)`,
/// `bias` of length `lc`, `consts` of length `lr`.
pub(crate) fn check_fused_affine(
    op: &str,
    lr: usize,
    lc: usize,
    wr: usize,
    wc: usize,
    bias_len: usize,
    consts_len: usize,
) -> Result<(), ShapeError> {
    if lc != wr {
        return Err(ShapeError::new(format!(
            "Matrix::{op}: {lr}x{lc} * {wr}x{wc} is not defined"
        )));
    }
    if bias_len != lc {
        return Err(ShapeError::new(format!(
            "Matrix::{op}: bias length {bias_len} does not match {lc} cols"
        )));
    }
    if consts_len != lr {
        return Err(ShapeError::new(format!(
            "Matrix::{op}: consts length {consts_len} does not match {lr} rows"
        )));
    }
    Ok(())
}

/// Checks that the column runs are ascending, disjoint and lie within
/// `lc` columns. A descending or overlapping run list would make the
/// kernels visit a column twice or out of order, so it is an error, not
/// a `debug_assert!`.
pub(crate) fn check_runs(op: &str, runs: &[(usize, usize)], lc: usize) -> Result<(), ShapeError> {
    let mut floor = 0;
    for &(start, end) in runs {
        if start > end || end > lc {
            return Err(ShapeError::new(format!(
                "Matrix::{op}: run {start}..{end} does not fit {lc} cols"
            )));
        }
        if start < floor {
            return Err(ShapeError::new(format!(
                "Matrix::{op}: run {start}..{end} is not ascending and disjoint \
                 (the previous run ends at {floor})"
            )));
        }
        floor = end;
    }
    Ok(())
}

/// Checks that a neuron-major block is `LANE_WIDTH`-padded.
pub(crate) fn check_lanes(op: &str, lanes: usize) -> Result<(), ShapeError> {
    if !lanes.is_multiple_of(LANE_WIDTH) {
        return Err(ShapeError::new(format!(
            "Matrix::{op}: neuron-major width {lanes} is not a multiple of {LANE_WIDTH} lanes"
        )));
    }
    Ok(())
}

/// Rows processed together per register tile. The four rows' accumulators
/// share every streamed right-operand row, quartering that traffic.
const ROW_TILE: usize = 4;

/// Output columns held in register accumulators per tile — one cache line
/// of `f64`, two AVX2 lanes. With `k` innermost the accumulators never
/// round-trip through memory inside the tile.
const COL_TILE: usize = 16;

/// `acc[t] += v * bt[t]` over one full-width register tile. The
/// fixed-size operand makes the loop a straight-line unrolled block of
/// vector multiply–adds.
///
/// Unlike the rolled loops there is no `v == 0.0` branch here: inside
/// a register tile the branch costs far more than the 16 multiply–adds
/// it would save (it mispredicts on mixed data), and on finite operands
/// it cannot change bits — a zero `v` contributes `±0.0` terms, and an
/// accumulator chain seeded at `+0.0` never holds `-0.0`, so adding
/// `±0.0` is the identity. See the module docs for the exact contract.
#[inline(always)]
fn tile_axpy(acc: &mut [f64; COL_TILE], v: f64, bt: &[f64; COL_TILE]) {
    for (a, &w) in acc.iter_mut().zip(bt) {
        *a += v * w;
    }
}

/// [`tile_axpy`] for the final narrow tile (`bt.len() < COL_TILE`).
#[inline(always)]
fn tile_axpy_tail(acc: &mut [f64; COL_TILE], v: f64, bt: &[f64]) {
    for (a, &w) in acc.iter_mut().zip(bt) {
        *a += v * w;
    }
}

/// Adds a finished accumulator tile into `orow[jb..jb + tl]`.
///
/// The accumulator chain started at `+0.0` and received exactly the
/// reference's additions in the reference's order, so it can never hold
/// `-0.0` and `pre-zeroed + acc` reproduces the reference bits.
#[inline(always)]
fn tile_store(orow: &mut [f64], jb: usize, tl: usize, acc: &[f64; COL_TILE]) {
    let (_, tail) = orow.split_at_mut(jb);
    let (ot, _) = tail.split_at_mut(tl);
    for (o, &s) in ot.iter_mut().zip(acc) {
        *o += s;
    }
}

/// Register-tiled `out += a * b` for four left rows at once: for each
/// `COL_TILE`-wide output tile the full `k` sweep runs with all four
/// rows' accumulators in registers, loading each `b` row once per tile
/// instead of once per row. Per output element the additions still occur
/// in globally ascending `k` order with the same `a == 0.0` skip as the
/// reference `ikj` loop.
#[expect(
    clippy::too_many_arguments,
    reason = "four left rows in and four output rows out keep every accumulator tile in \
              registers; bundling them would hide the row tiling"
)]
fn product_rows4(
    a0: &[f64],
    a1: &[f64],
    a2: &[f64],
    a3: &[f64],
    b: &[f64],
    bcols: usize,
    o0: &mut [f64],
    o1: &mut [f64],
    o2: &mut [f64],
    o3: &mut [f64],
) {
    let mut jb = 0;
    while jb + COL_TILE <= bcols {
        let mut acc0 = [0.0; COL_TILE];
        let mut acc1 = [0.0; COL_TILE];
        let mut acc2 = [0.0; COL_TILE];
        let mut acc3 = [0.0; COL_TILE];
        let rows = a0.iter().zip(a1).zip(a2).zip(a3);
        for ((((&v0, &v1), &v2), &v3), brow) in rows.zip(b.chunks_exact(bcols)) {
            let (_, tail) = brow.split_at(jb);
            let (bt, _) = tail.split_at(COL_TILE);
            let Ok(bt) = <&[f64; COL_TILE]>::try_from(bt) else {
                continue; // unreachable: the split yields exactly COL_TILE
            };
            tile_axpy(&mut acc0, v0, bt);
            tile_axpy(&mut acc1, v1, bt);
            tile_axpy(&mut acc2, v2, bt);
            tile_axpy(&mut acc3, v3, bt);
        }
        tile_store(o0, jb, COL_TILE, &acc0);
        tile_store(o1, jb, COL_TILE, &acc1);
        tile_store(o2, jb, COL_TILE, &acc2);
        tile_store(o3, jb, COL_TILE, &acc3);
        jb += COL_TILE;
    }
    if jb < bcols {
        let tl = bcols - jb;
        let mut acc0 = [0.0; COL_TILE];
        let mut acc1 = [0.0; COL_TILE];
        let mut acc2 = [0.0; COL_TILE];
        let mut acc3 = [0.0; COL_TILE];
        let rows = a0.iter().zip(a1).zip(a2).zip(a3);
        for ((((&v0, &v1), &v2), &v3), brow) in rows.zip(b.chunks_exact(bcols)) {
            let (_, bt) = brow.split_at(jb);
            tile_axpy_tail(&mut acc0, v0, bt);
            tile_axpy_tail(&mut acc1, v1, bt);
            tile_axpy_tail(&mut acc2, v2, bt);
            tile_axpy_tail(&mut acc3, v3, bt);
        }
        tile_store(o0, jb, tl, &acc0);
        tile_store(o1, jb, tl, &acc1);
        tile_store(o2, jb, tl, &acc2);
        tile_store(o3, jb, tl, &acc3);
    }
}

/// Reference-shaped `out += a * b` for a single row (the `ROW_TILE`
/// remainder); bit-identical by construction.
fn product_row1(arow: &[f64], b: &[f64], bcols: usize, orow: &mut [f64]) {
    for (&v, brow) in arow.iter().zip(b.chunks_exact(bcols)) {
        if v == 0.0 {
            continue;
        }
        for (o, &w) in orow.iter_mut().zip(brow) {
            *o += v * w;
        }
    }
}

/// Register-tiled `out += a * b` (`a`: `?×acols` row-major, `b`:
/// `acols×bcols` row-major, `out` pre-zeroed `?×bcols`).
///
/// Identical summation order to the reference `ikj` loop: tiles only
/// reorder *which element* is updated next, never the ascending-`k`
/// addition order feeding a single element, and the `a == 0.0` skip is
/// applied per row exactly as the reference does.
pub(crate) fn matmul_blocked(a: &[f64], acols: usize, b: &[f64], bcols: usize, out: &mut [f64]) {
    if acols == 0 || bcols == 0 {
        return;
    }
    debug_assert_eq!(b.len(), acols * bcols, "matmul_blocked: rhs storage size");
    let mut aq = a.chunks_exact(ROW_TILE * acols);
    let mut oq = out.chunks_exact_mut(ROW_TILE * bcols);
    for (ablock, oblock) in (&mut aq).zip(&mut oq) {
        let (a0, rest) = ablock.split_at(acols);
        let (a1, rest) = rest.split_at(acols);
        let (a2, a3) = rest.split_at(acols);
        let (o0, rest) = oblock.split_at_mut(bcols);
        let (o1, rest) = rest.split_at_mut(bcols);
        let (o2, o3) = rest.split_at_mut(bcols);
        product_rows4(a0, a1, a2, a3, b, bcols, o0, o1, o2, o3);
    }
    for (arow, orow) in aq
        .remainder()
        .chunks_exact(acols)
        .zip(oq.into_remainder().chunks_exact_mut(bcols))
    {
        product_row1(arow, b, bcols, orow);
    }
}

/// Block-sparse fused affine step: only the columns covered by `runs`
/// (ascending, disjoint, half-open) participate; everything between runs
/// is skipped structurally instead of via a per-`k` mask test.
///
/// With `runs` equal to the maximal unmasked intervals of a `skip` mask,
/// the covered columns are visited in the same ascending order the rolled
/// masked loop visits them, so results are bit-for-bit identical to that
/// loop (the oracle in `matrix.rs`'s tests).
#[expect(
    clippy::too_many_arguments,
    reason = "a hot kernel over raw row-major slices and their widths; the one caller owns \
              every buffer, so a parameter struct would only rename them"
)]
pub(crate) fn fused_affine_runs(
    a: &[f64],
    acols: usize,
    w: &[f64],
    wcols: usize,
    bias: &[f64],
    consts: &mut [f64],
    out: &mut [f64],
    runs: &[(usize, usize)],
) {
    debug_assert!(
        runs.windows(2).all(|pair| match pair {
            [(_, e0), (s1, _)] => e0 <= s1,
            _ => true,
        }),
        "fused_affine_runs: runs must be ascending and disjoint"
    );
    if acols == 0 {
        for cslot in consts.iter_mut() {
            *cslot += 0.0;
        }
        return;
    }
    if wcols == 0 {
        for (arow, cslot) in a.chunks_exact(acols).zip(consts.iter_mut()) {
            let mut c = 0.0;
            for &(start, end) in runs {
                let len = end - start;
                let ab = arow.iter().skip(start).take(len);
                let bb = bias.iter().skip(start).take(len);
                for (&av, &bv) in ab.zip(bb) {
                    c += av * bv;
                }
            }
            *cslot += c;
        }
        return;
    }
    let mut aq = a.chunks_exact(ROW_TILE * acols);
    let mut cq = consts.chunks_exact_mut(ROW_TILE);
    let mut oq = out.chunks_exact_mut(ROW_TILE * wcols);
    for ((ablock, cblock), oblock) in (&mut aq).zip(&mut cq).zip(&mut oq) {
        let (a0, rest) = ablock.split_at(acols);
        let (a1, rest) = rest.split_at(acols);
        let (a2, a3) = rest.split_at(acols);
        // Bias half over the covered columns only: runs ascend, so each
        // chain still visits its terms in ascending `k` order.
        let mut c0 = 0.0;
        let mut c1 = 0.0;
        let mut c2 = 0.0;
        let mut c3 = 0.0;
        for &(start, end) in runs {
            let len = end - start;
            let (_, t0) = a0.split_at(start);
            let (s0, _) = t0.split_at(len);
            let (_, t1) = a1.split_at(start);
            let (s1, _) = t1.split_at(len);
            let (_, t2) = a2.split_at(start);
            let (s2, _) = t2.split_at(len);
            let (_, t3) = a3.split_at(start);
            let (s3, _) = t3.split_at(len);
            let (_, bt) = bias.split_at(start);
            let (bseg, _) = bt.split_at(len);
            let rows = s0.iter().zip(s1).zip(s2).zip(s3);
            for ((((&v0, &v1), &v2), &v3), &bv) in rows.zip(bseg) {
                c0 += v0 * bv;
                c1 += v1 * bv;
                c2 += v2 * bv;
                c3 += v3 * bv;
            }
        }
        for (slot, c) in cblock.iter_mut().zip([c0, c1, c2, c3]) {
            *slot += c;
        }
        let (o0, rest) = oblock.split_at_mut(wcols);
        let (o1, rest) = rest.split_at_mut(wcols);
        let (o2, o3) = rest.split_at_mut(wcols);
        runs_rows4(a0, a1, a2, a3, w, wcols, runs, o0, o1, o2, o3);
    }
    let arows = aq.remainder().chunks_exact(acols);
    let orows = oq.into_remainder().chunks_exact_mut(wcols);
    for ((arow, cslot), orow) in arows.zip(cq.into_remainder()).zip(orows) {
        let mut c = 0.0;
        for &(start, end) in runs {
            let len = end - start;
            let ab = arow.iter().skip(start).take(len);
            let bb = bias.iter().skip(start).take(len);
            let (_, wtail) = w.split_at(start * wcols);
            let (wpanel, _) = wtail.split_at(len * wcols);
            for ((&av, &bv), wrow) in ab.zip(bb).zip(wpanel.chunks_exact(wcols)) {
                c += av * bv;
                if av == 0.0 {
                    continue;
                }
                for (o, &wv) in orow.iter_mut().zip(wrow) {
                    *o += av * wv;
                }
            }
        }
        *cslot += c;
    }
}

/// Register-tiled run-restricted product for four left rows: the
/// `COL_TILE`-wide accumulator tiles persist across every run, so each
/// output element's additions cover exactly the run columns in ascending
/// `k` order — bit-identical on finite data to the rolled masked loop
/// whose unmasked intervals the runs encode (see the module docs for the
/// zero-coefficient fine print).
#[expect(
    clippy::too_many_arguments,
    reason = "four left rows in and four output rows out keep every accumulator tile in \
              registers; bundling them would hide the row tiling"
)]
fn runs_rows4(
    a0: &[f64],
    a1: &[f64],
    a2: &[f64],
    a3: &[f64],
    w: &[f64],
    wcols: usize,
    runs: &[(usize, usize)],
    o0: &mut [f64],
    o1: &mut [f64],
    o2: &mut [f64],
    o3: &mut [f64],
) {
    let mut jb = 0;
    while jb + COL_TILE <= wcols {
        let mut acc0 = [0.0; COL_TILE];
        let mut acc1 = [0.0; COL_TILE];
        let mut acc2 = [0.0; COL_TILE];
        let mut acc3 = [0.0; COL_TILE];
        for &(start, end) in runs {
            let len = end - start;
            let (_, t0) = a0.split_at(start);
            let (s0, _) = t0.split_at(len);
            let (_, t1) = a1.split_at(start);
            let (s1, _) = t1.split_at(len);
            let (_, t2) = a2.split_at(start);
            let (s2, _) = t2.split_at(len);
            let (_, t3) = a3.split_at(start);
            let (s3, _) = t3.split_at(len);
            let (_, wtail) = w.split_at(start * wcols);
            let (wpanel, _) = wtail.split_at(len * wcols);
            let rows = s0.iter().zip(s1).zip(s2).zip(s3);
            for ((((&v0, &v1), &v2), &v3), wrow) in rows.zip(wpanel.chunks_exact(wcols)) {
                let (_, tail) = wrow.split_at(jb);
                let (wt, _) = tail.split_at(COL_TILE);
                let Ok(wt) = <&[f64; COL_TILE]>::try_from(wt) else {
                    continue; // unreachable: the split yields exactly COL_TILE
                };
                tile_axpy(&mut acc0, v0, wt);
                tile_axpy(&mut acc1, v1, wt);
                tile_axpy(&mut acc2, v2, wt);
                tile_axpy(&mut acc3, v3, wt);
            }
        }
        tile_store(o0, jb, COL_TILE, &acc0);
        tile_store(o1, jb, COL_TILE, &acc1);
        tile_store(o2, jb, COL_TILE, &acc2);
        tile_store(o3, jb, COL_TILE, &acc3);
        jb += COL_TILE;
    }
    if jb < wcols {
        let tl = wcols - jb;
        let mut acc0 = [0.0; COL_TILE];
        let mut acc1 = [0.0; COL_TILE];
        let mut acc2 = [0.0; COL_TILE];
        let mut acc3 = [0.0; COL_TILE];
        for &(start, end) in runs {
            let len = end - start;
            let (_, t0) = a0.split_at(start);
            let (s0, _) = t0.split_at(len);
            let (_, t1) = a1.split_at(start);
            let (s1, _) = t1.split_at(len);
            let (_, t2) = a2.split_at(start);
            let (s2, _) = t2.split_at(len);
            let (_, t3) = a3.split_at(start);
            let (s3, _) = t3.split_at(len);
            let (_, wtail) = w.split_at(start * wcols);
            let (wpanel, _) = wtail.split_at(len * wcols);
            let rows = s0.iter().zip(s1).zip(s2).zip(s3);
            for ((((&v0, &v1), &v2), &v3), wrow) in rows.zip(wpanel.chunks_exact(wcols)) {
                let (_, wt) = wrow.split_at(jb);
                tile_axpy_tail(&mut acc0, v0, wt);
                tile_axpy_tail(&mut acc1, v1, wt);
                tile_axpy_tail(&mut acc2, v2, wt);
                tile_axpy_tail(&mut acc3, v3, wt);
            }
        }
        tile_store(o0, jb, tl, &acc0);
        tile_store(o1, jb, tl, &acc1);
        tile_store(o2, jb, tl, &acc2);
        tile_store(o3, jb, tl, &acc3);
    }
}

/// Lane multiple of a neuron-major block: its width (one lane per
/// expression row) is padded up to a multiple of this — one 64-byte
/// cache line of `f64`, one AVX-512 register.
pub const LANE_WIDTH: usize = 8;

/// The padded width of a neuron-major block with `rows` expression rows:
/// `rows` rounded up to [`LANE_WIDTH`], plus one more cache line when
/// the row stride would be a multiple of 512 bytes. Such a stride maps
/// every neuron row of a lane tile into the same few L1 sets, and the
/// gather's row loads then miss L1 — 1.2–1.9× slower at 256 rows.
#[must_use]
pub fn lane_padded(rows: usize) -> usize {
    let lanes = rows.next_multiple_of(LANE_WIDTH);
    if lanes.is_multiple_of(LANE_WIDTH * LANE_WIDTH) {
        lanes + LANE_WIDTH
    } else {
        lanes
    }
}

/// Lanes per neuron-major register tile: eight 256-bit accumulators, so
/// each stored weight feeds eight independent add chains. A block's last
/// lanes run in one 16- and/or one 8-lane tile.
const LANE_TILE: usize = 32;

/// Neuron-major fused affine step over a compressed sparse weight: the
/// transposed counterpart of [`fused_affine_runs`].
///
/// `a` holds one `lanes`-wide row per neuron `t` (the row-major block's
/// column `t`, one lane per expression row) and `weight` is the `n × m`
/// stage weight in compressed column form. Rows of `a` outside `runs`
/// are dropped by zeroing them in place. Then, per tile of lanes, the
/// constants gain `Σ_{t ∈ runs} a[t]·bias[t]` and output row `j` (pre-
/// zeroed, `m × lanes`) becomes `Σ_t weight[t][j]·a[t]` over column `j`'s
/// stored entries — a gather whose accumulator tile stays in registers.
///
/// Per output element the terms arrive in ascending `t`, as in the rolled
/// masked loop. The terms that loop adds and this one does not (zero
/// weights) or this one adds and that one does not (zeroed rows) are
/// all `±0.0`, the identity on a `+0.0`-seeded chain (module docs).
pub(crate) fn fused_affine_csc_runs(
    a: &mut [f64],
    lanes: usize,
    weight: &CscMatrix,
    bias: &[f64],
    consts: &mut [f64],
    out: &mut [f64],
    runs: &[(usize, usize)],
) {
    if lanes == 0 {
        return;
    }
    debug_assert!(
        lanes.is_multiple_of(LANE_WIDTH),
        "neuron-major blocks are lane-padded"
    );
    let mut next = 0;
    for &(start, end) in runs {
        if let Some(gap) = a.get_mut(next * lanes..start * lanes) {
            gap.fill(0.0);
        }
        next = end;
    }
    if let Some(gap) = a.get_mut(next * lanes..) {
        gap.fill(0.0);
    }
    let step = LaneStep {
        a,
        lanes,
        weight,
        bias,
        runs,
    };
    let mut jb = 0;
    while jb + LANE_TILE <= lanes {
        step.tile::<LANE_TILE>(jb, consts, out);
        jb += LANE_TILE;
    }
    if jb + 2 * LANE_WIDTH <= lanes {
        step.tile::<{ 2 * LANE_WIDTH }>(jb, consts, out);
        jb += 2 * LANE_WIDTH;
    }
    if jb < lanes {
        step.tile::<LANE_WIDTH>(jb, consts, out);
    }
}

/// The read-only operands of one [`fused_affine_csc_runs`] call.
struct LaneStep<'a> {
    a: &'a [f64],
    lanes: usize,
    weight: &'a CscMatrix,
    bias: &'a [f64],
    runs: &'a [(usize, usize)],
}

impl LaneStep<'_> {
    /// Lanes `jb..jb + W` of neuron `t`'s row.
    #[inline(always)]
    fn lane_seg<const W: usize>(&self, t: usize, jb: usize) -> Option<&[f64; W]> {
        let lo = t * self.lanes + jb;
        self.a.get(lo..lo + W)?.try_into().ok()
    }

    /// One `W`-lane tile of the step: the bias dot over the runs, then
    /// the column gather.
    fn tile<const W: usize>(&self, jb: usize, consts: &mut [f64], out: &mut [f64]) {
        let mut cacc = [0.0; W];
        for &(start, end) in self.runs {
            let Some(bseg) = self.bias.get(start..end) else {
                continue;
            };
            for (t, &bv) in (start..end).zip(bseg) {
                let Some(x) = self.lane_seg::<W>(t, jb) else {
                    continue;
                };
                for (c, &v) in cacc.iter_mut().zip(x) {
                    *c += v * bv;
                }
            }
        }
        if let Some(cs) = consts.get_mut(jb..jb + W) {
            for (c, &v) in cs.iter_mut().zip(&cacc) {
                *c += v;
            }
        }
        let (col_ptr, row_idx, vals) = self.weight.parts();
        for (span, orow) in col_ptr.windows(2).zip(out.chunks_exact_mut(self.lanes)) {
            let &[s, e] = span else {
                continue;
            };
            let (Some(ts), Some(ws)) = (row_idx.get(s..e), vals.get(s..e)) else {
                continue;
            };
            let mut acc = [0.0; W];
            for (&t, &wv) in ts.iter().zip(ws) {
                let Some(x) = self.lane_seg::<W>(t, jb) else {
                    continue;
                };
                for (o, &v) in acc.iter_mut().zip(x) {
                    *o += v * wv;
                }
            }
            if let Some(os) = orow.get_mut(jb..jb + W) {
                for (o, &v) in os.iter_mut().zip(&acc) {
                    *o += v;
                }
            }
        }
    }
}

/// Overwrites every entry of `dst` (`dst_cols` wide) with the transpose
/// of `src` (`src_cols` wide), clipped to `dst`'s extent: `dst[i][j] =
/// src[j][i]`, and `0.0` where `src` has no such entry. Writing every
/// entry spares the caller a zero-fill pass over the whole block.
// Out of line on purpose: inlined into `transpose_into`, it moved the
// `serve` binary's dense kernels to other 64-byte offsets, and
// serve-session's request p50 rose 22–29% on MNIST models, which never
// transpose (DESIGN.md §5j).
#[inline(never)]
pub(crate) fn transpose_window(src: &[f64], src_cols: usize, dst: &mut [f64], dst_cols: usize) {
    if dst_cols == 0 {
        return;
    }
    for (i, drow) in dst.chunks_exact_mut(dst_cols).enumerate() {
        // Column `i` of `src`; empty past its last column.
        let column = src.get(i..).filter(|_| i < src_cols).unwrap_or_default();
        let mut column = column.iter().step_by(src_cols.max(1));
        for d in drow {
            *d = column.next().copied().unwrap_or(0.0);
        }
    }
}
