//! Row helpers for the scalar-minimum reductions (`cfl_min`, `cond_dt`):
//! the per-point values of a row are evaluated a stack chunk at a time,
//! so the evaluation loop (square roots, divisions) vectorizes, and then
//! folded with `min` in ascending `i` — the scalar reduction's order, so
//! the bits are the scalar body's.

/// Points per stack chunk of a row minimum.
const ROW_CHUNK: usize = 128;

/// Fold `min` over the `w` per-point values of one row into `acc`, in
/// ascending order. `eval(c0, out)` fills `out` with the values of the
/// row's points `c0..c0 + out.len()`.
#[inline(always)]
pub(crate) fn fold_row_min(mut acc: f64, w: usize, mut eval: impl FnMut(usize, &mut [f64])) -> f64 {
    let mut buf = [0.0; ROW_CHUNK];
    let mut c0 = 0;
    while c0 < w {
        let out = &mut buf[..ROW_CHUNK.min(w - c0)];
        eval(c0, out);
        for &v in out.iter() {
            acc = acc.min(v);
        }
        c0 += out.len();
    }
    acc
}

/// Smallest extent of a cell: `min(Δr, r Δθ, r sin θ Δφ)`, the φ term
/// dropped on the polar axis (`r sin θ ≤ 1e-10`).
#[inline(always)]
pub(crate) fn cell_extent(dr: f64, rc: f64, dth: f64, st: f64, dph: f64) -> f64 {
    let mut dx = dr;
    dx = dx.min(rc * dth);
    let rs = rc * st;
    if rs > 1e-10 {
        dx = dx.min(rs * dph);
    }
    dx
}
