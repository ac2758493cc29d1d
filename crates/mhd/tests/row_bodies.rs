//! Bitwise reference tests for the row bodies of `cfl_min`, `cond_dt`,
//! `temp_advect` and `radiate_heat`.
//!
//! Each reference below is the per-point scalar body these kernels ran
//! before they were rewritten as row bodies, launched on the same site
//! through `Par::reduce_scalar` / `Par::loop3`. The row bodies must
//! reproduce it bit for bit on the stretched coronal grid, on a seeded
//! state with mixed-sign velocities and fields, at 1 and 2 host threads
//! (2 threads tile the reductions one partial per k-plane).

use gpusim::{DeviceSpec, Phase, Traffic};
use mas_field::{Field, VecField};
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use mas_mhd::ops::deriv::DivGeom;
use mas_mhd::ops::interp::{avg2, boost, radloss};
use mas_mhd::physics::{advect, conduct};
use mas_mhd::physics::conduct::{HEATING_LAMBDA_INV, HEAT_COEF, RAD_COEF, RHO_FLOOR, TEMP_FLOOR};
use mas_mhd::{sites, step, State};
use minimpi::{Comm, ReduceOp, World};
use stdpar::{CodeVersion, Par};

/// Stretched coronal grids, each with at least 3 k-planes: small ones of
/// different shapes (a minimum is set by one cell, so each grid moves it),
/// and one whose rows (nr = 140) span more than one 128-point stack chunk.
fn grids() -> [SphericalGrid; 4] {
    [
        SphericalGrid::coronal(12, 10, 6, 8.0),
        SphericalGrid::coronal(140, 6, 4, 8.0),
        SphericalGrid::coronal(20, 8, 5, 5.0),
        SphericalGrid::coronal(9, 12, 3, 12.0),
    ]
}

fn par(threads: usize) -> Par {
    let mut p = Par::builder(DeviceSpec::a100_40gb())
        .version(CodeVersion::D2xu)
        .threads(threads)
        .build();
    p.ctx.set_phase(Phase::Compute);
    p
}

/// Deterministic values in `[lo, hi)` from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn fill(f: &mut Field, rng: &mut Lcg, lo: f64, hi: f64) {
    for v in f.data.as_mut_slice() {
        *v = rng.next(lo, hi);
    }
}

/// A registered state with every storage point (ghosts included) seeded:
/// velocities and fields of both signs, temperatures partly below the
/// floor and below zero and, with `low_rho`, every 7th density below the
/// floor.
fn seeded_state(g: &SphericalGrid, par: &mut Par, seed: u64, low_rho: bool) -> State {
    let mut st = State::new(g);
    st.register(par, g, 1.0, 1.0);
    let mut rng = Lcg(seed);
    fill(&mut st.rho, &mut rng, 0.5, 2.0);
    fill(&mut st.temp, &mut rng, -0.05, 3.0);
    for c in st.v.comps_mut() {
        fill(c, &mut rng, -1.0, 1.0);
    }
    for c in st.b.comps_mut() {
        fill(c, &mut rng, -2.0, 2.0);
    }
    if low_rho {
        for v in st.rho.data.as_mut_slice().iter_mut().step_by(7) {
            *v = 1e-9;
        }
    }
    st
}

fn bits(f: &Field) -> Vec<u64> {
    f.data.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The scalar `cfl_dt` body.
#[allow(clippy::too_many_arguments)]
fn cfl_dt_scalar(par: &mut Par, comm: &Comm, grid: &SphericalGrid, st: &State, gamma: f64, eta: f64, cfl: f64, dt_max: f64, visc_explicit: Option<f64>) -> f64 {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [
        st.rho.buf(), st.temp.buf(), st.v.r.buf(), st.v.t.buf(), st.v.p.buf(),
        st.b.r.buf(), st.b.t.buf(), st.b.p.buf(),
    ];
    let (rd, td) = (&st.rho.data, &st.temp.data);
    let (vr, vt, vp) = (&st.v.r.data, &st.v.t.data, &st.v.p.data);
    let (br, bt, bp) = (&st.b.r.data, &st.b.t.data, &st.b.p.data);
    let mut dt_local = par.reduce_scalar(
        &sites::CFL_MIN,
        space,
        Traffic::new(14, 0, 40),
        &reads,
        ReduceOp::Min,
        f64::INFINITY,
        |i, j, k| {
            let rho = rd.get(i, j, k).max(RHO_FLOOR);
            let a = 0.5 * (vr.get(i, j, k) + vr.get(i + 1, j, k));
            let b = 0.5 * (vt.get(i, j, k) + vt.get(i, j + 1, k));
            let c = 0.5 * (vp.get(i, j, k) + vp.get(i, j, k + 1));
            let v2 = a * a + b * b + c * c;
            let ba = 0.5 * (br.get(i, j, k) + br.get(i + 1, j, k));
            let bb = 0.5 * (bt.get(i, j, k) + bt.get(i, j + 1, k));
            let bc_ = 0.5 * (bp.get(i, j, k) + bp.get(i, j, k + 1));
            let b2 = ba * ba + bb * bb + bc_ * bc_;
            let cf = (gamma * td.get(i, j, k).max(0.0) + b2 / rho).sqrt();
            let speed = v2.sqrt() + cf;
            let mut dx = grid.r.dc[i];
            dx = dx.min(grid.rc[i] * grid.t.dc[j]);
            let rs = grid.rc[i] * grid.st_c[j];
            if rs > 1e-10 {
                dx = dx.min(rs * grid.p.dc[k]);
            }
            let mut dt = dx / speed.max(1e-12);
            if eta > 0.0 {
                dt = dt.min(0.25 * dx * dx / eta);
            }
            if let Some(nu) = visc_explicit {
                dt = dt.min(0.25 * dx * dx / nu);
            }
            dt
        },
    );
    dt_local *= cfl;
    let mut v = [dt_local];
    comm.allreduce(ReduceOp::Min, &mut v, &mut par.ctx);
    v[0].min(dt_max)
}

/// The scalar `conduction_dt_explicit` body.
fn cond_dt_scalar(par: &mut Par, grid: &SphericalGrid, temp: &Field, rho: &Field, kappa0: f64, gamma: f64) -> f64 {
    let blk = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), rho.buf()];
    let (td, rd) = (&temp.data, &rho.data);
    par.reduce_scalar(&sites::COND_DT, blk, Traffic::new(2, 0, 20), &reads, ReduceOp::Min, f64::INFINITY, |i, j, k| {
        let t = td.get(i, j, k).max(TEMP_FLOOR);
        let kappa = kappa0 * t * t * t.sqrt();
        let chi = (gamma - 1.0) * kappa / rd.get(i, j, k).max(RHO_FLOOR);
        if chi <= 0.0 {
            return f64::INFINITY;
        }
        let mut dx = grid.r.dc[i];
        dx = dx.min(grid.rc[i] * grid.t.dc[j]);
        let rs = grid.rc[i] * grid.st_c[j];
        if rs > 1e-10 {
            dx = dx.min(rs * grid.p.dc[k]);
        }
        0.25 * dx * dx / chi
    })
}

/// The scalar `temp_advect` body: an in-place Gauss–Seidel sweep.
#[allow(clippy::too_many_arguments)]
fn advect_temperature_scalar(par: &mut Par, grid: &SphericalGrid, geom: &DivGeom, temp: &mut Field, v: &VecField, dt: f64, gamma: f64) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), v.r.buf(), v.t.buf(), v.p.buf()];
    let writes = [temp.buf()];
    let td = temp.data.par_view();
    let (vr, vt, vp) = (&v.r.data, &v.t.data, &v.p.data);
    let (rc_inv, st_c_inv) = (&grid.rc_inv, &grid.st_c_inv);
    let (dfr, dft, dfp) = (&grid.r.df, &grid.t.df, &grid.p.df);
    let gm1 = gamma - 1.0;
    par.loop3(&sites::TEMP_ADVECT, space, Traffic::new(12, 1, 30), &reads, &writes, |i, j, k| {
        let t0 = td.get(i, j, k);
        let vrc = avg2(vr.get(i, j, k), vr.get(i + 1, j, k));
        let vtc = avg2(vt.get(i, j, k), vt.get(i, j + 1, k));
        let vpc = avg2(vp.get(i, j, k), vp.get(i, j, k + 1));
        let dtr = if vrc >= 0.0 {
            (t0 - td.get(i - 1, j, k)) / dfr[i]
        } else {
            (td.get(i + 1, j, k) - t0) / dfr[i + 1]
        };
        let dtt = rc_inv[i]
            * if vtc >= 0.0 {
                (t0 - td.get(i, j - 1, k)) / dft[j]
            } else {
                (td.get(i, j + 1, k) - t0) / dft[j + 1]
            };
        let dtp = rc_inv[i]
            * st_c_inv[j]
            * if vpc >= 0.0 {
                (t0 - td.get(i, j, k - 1)) / dfp[k]
            } else {
                (td.get(i, j, k + 1) - t0) / dfp[k + 1]
            };
        let divv = geom.div(vr, vt, vp, i, j, k);
        td.set(i, j, k, t0 - dt * (vrc * dtr + vtc * dtt + vpc * dtp + gm1 * t0 * divv));
    });
}

/// The scalar `radiate_heat` body, `boost` evaluated per point.
#[allow(clippy::too_many_arguments)]
fn radiate_and_heat_scalar(par: &mut Par, grid: &SphericalGrid, temp: &mut Field, rho: &Field, dt: f64, gamma: f64, radiation: bool, heating: bool) {
    if !radiation && !heating {
        return;
    }
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), rho.buf()];
    let writes = [temp.buf()];
    let td = temp.data.par_view();
    let rd = &rho.data;
    let (rc, st_c) = (&grid.rc, &grid.st_c);
    let gm1 = gamma - 1.0;
    let (c_rad, c_heat) = (
        if radiation { RAD_COEF } else { 0.0 },
        if heating { HEAT_COEF } else { 0.0 },
    );
    par.loop3(&sites::RADIATE_HEAT, space, Traffic::new(3, 1, 20), &reads, &writes, |i, j, k| {
        let t = td.get(i, j, k);
        let rho_c = rd.get(i, j, k).max(RHO_FLOOR);
        let lat = 0.55 + 0.9 * st_c[j] * st_c[j];
        let heat = c_heat * lat * boost(rc[i], HEATING_LAMBDA_INV);
        let rad = c_rad * rho_c * rho_c * radloss(t);
        let dtemp = dt * gm1 * (heat - rad) / rho_c;
        td.set(i, j, k, (t + dtemp).max(0.5 * t.min(TEMP_FLOOR * 2.0)));
    });
}

#[test]
fn cfl_and_conduction_minima_match_the_scalar_bodies_bitwise() {
    for (gi, g) in grids().iter().enumerate() {
        // A minimum depends on one point only: several seeds move it, and
        // large η / ν make the diffusive limits the binding ones where no
        // floor-density point sets a huge fast-mode speed.
        for (threads, seed) in [1, 2].into_iter().flat_map(|t| (0..4).map(move |s| (t, s))) {
            World::run(1, |comm| {
                let mut p = par(threads);
                let st = seeded_state(g, &mut p, 11 + 10 * seed + gi as u64, seed % 2 == 0);
                let gamma = 5.0 / 3.0;
                for (eta, visc) in [(0.0, None), (2e-3, None), (0.0, Some(5e-3)), (1e-3, Some(4e-2)), (0.3, None), (0.0, Some(0.3))] {
                    let row = step::cfl_dt(&mut p, &comm, g, &st, gamma, eta, 0.4, 1.0, visc);
                    let scalar = cfl_dt_scalar(&mut p, &comm, g, &st, gamma, eta, 0.4, 1.0, visc);
                    assert_eq!(row.to_bits(), scalar.to_bits(), "cfl_dt grid {gi} threads {threads} eta {eta} visc {visc:?}");
                    // Uncapped too, so dt_max cannot hide a difference.
                    let row = step::cfl_dt(&mut p, &comm, g, &st, gamma, eta, 0.4, f64::INFINITY, visc);
                    let scalar = cfl_dt_scalar(&mut p, &comm, g, &st, gamma, eta, 0.4, f64::INFINITY, visc);
                    assert_eq!(row.to_bits(), scalar.to_bits(), "uncapped cfl_dt grid {gi} threads {threads}");
                    assert!(row.is_finite() && row > 0.0);
                }
                for kappa0 in [1e-3, 0.05, 0.0] {
                    let row = conduct::conduction_dt_explicit(&mut p, g, &st.temp, &st.rho, kappa0, gamma);
                    let scalar = cond_dt_scalar(&mut p, g, &st.temp, &st.rho, kappa0, gamma);
                    assert_eq!(row.to_bits(), scalar.to_bits(), "cond_dt grid {gi} threads {threads} kappa0 {kappa0}");
                }
            });
        }
    }
}

#[test]
fn temperature_sweep_matches_the_scalar_body_bitwise() {
    for (gi, g) in grids().iter().enumerate() {
        let geom = DivGeom::new(g);
        for threads in [1, 2] {
            let mut p = par(threads);
            let mut row = seeded_state(g, &mut p, 21 + gi as u64, true);
            let mut scalar = seeded_state(g, &mut p, 21 + gi as u64, true);
            for dt in [0.0, 1e-3, 0.05] {
                advect::advect_temperature(&mut p, g, &geom, &mut row.temp, &row.v, dt, 5.0 / 3.0);
                advect_temperature_scalar(&mut p, g, &geom, &mut scalar.temp, &scalar.v, dt, 5.0 / 3.0);
                assert_eq!(bits(&row.temp), bits(&scalar.temp), "grid {gi} threads {threads} dt {dt}");
            }
        }
    }
}

#[test]
fn radiate_and_heat_matches_the_scalar_body_bitwise() {
    for (gi, g) in grids().iter().enumerate() {
        let profile = conduct::heating_profile(g);
        assert_eq!(profile.len(), g.rc.len());
        for threads in [1, 2] {
            let mut p = par(threads);
            let mut row = seeded_state(g, &mut p, 31 + gi as u64, true);
            let mut scalar = seeded_state(g, &mut p, 31 + gi as u64, true);
            for (radiation, heating) in [(true, true), (true, false), (false, true), (false, false)] {
                conduct::radiate_and_heat(&mut p, g, &profile, &mut row.temp, &row.rho, 0.02, 5.0 / 3.0, radiation, heating);
                radiate_and_heat_scalar(&mut p, g, &mut scalar.temp, &scalar.rho, 0.02, 5.0 / 3.0, radiation, heating);
                assert_eq!(bits(&row.temp), bits(&scalar.temp), "grid {gi} threads {threads} rad {radiation} heat {heating}");
            }
        }
    }
}
