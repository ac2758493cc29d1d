//! Discrete differential operators and staggering interpolations for the
//! spherical staggered mesh.
//!
//! * [`interp`] — the pure "device routines" (`s2c`, `c2s`, `sv2cv`,
//!   `interp`, `boost`, `radloss`) that the paper's Codes 5–6 must inline;
//! * [`deriv`] — divergence/gradient/curl/Laplacian stencils written
//!   against the metric arrays of [`mas_grid::SphericalGrid`], used inside
//!   kernel bodies;
//! * `rowmin` — the chunked row fold of the scalar-minimum reductions.

pub mod deriv;
pub mod interp;
pub(crate) mod rowmin;

pub use deriv::{CtGeom, DivGeom, LapStencil};
pub use interp::{avg2, avg4, boost, c2s, interp, radloss, s2c, sv2cv, upwind};
