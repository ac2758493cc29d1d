//! Per-layer probes for the traced run: each times a call into one
//! layer's public functions on a simulation built from the workload's own
//! deck (rank count, threads and code version included), and records it
//! as a span. A probe simulation is separate from the timed jobs, so it
//! may perturb its own state; it never feeds a checked hash.

use crate::stats::median;
use crate::trace::Tracer;
use gpusim::{DeviceSpec, Traffic};
use mas_config::Deck;
use mas_grid::{IndexSpace3, Stagger};
use mas_mhd::physics::advect;
use mas_mhd::solvers::pcg;
use mas_mhd::{checkpoint, step, Simulation};
use mas_serve::journal::{Journal, Record};
use minimpi::{ReduceOp, World};
use std::path::Path;
use std::time::Instant;
use stdpar::{CodeVersion, Site};

/// The benchmark's own kernel site for the empty-launch probe.
static EMPTY_SITE: Site = Site::par3("perfbench_empty_launch");

/// Medians of the mhd, stdpar, minimpi and io probes (rank 0's view).
#[derive(Clone, Debug, Default)]
pub struct MhdProbe {
    /// `Simulation::try_build`, ms.
    pub setup_ms: f64,
    /// `step::advance`, ms.
    pub step_ms: f64,
    /// The three `pcg::solve_viscosity` calls of one step, ms.
    pub pcg_ms: f64,
    /// Their iterations.
    pub pcg_iters: f64,
    /// `step::cfl_dt`, µs.
    pub cfl_us: f64,
    /// `advect::mass_fluxes` + `advect::continuity`, µs.
    pub continuity_us: f64,
    /// `HaloExchanger::exchange` of the 8-array state, µs.
    pub halo_us: f64,
    /// Bytes one such exchange ships per rank (both neighbours).
    pub halo_bytes: f64,
    /// `checkpoint::save`, ms.
    pub save_ms: f64,
    /// Dump size, bytes.
    pub save_bytes: f64,
    /// `mas_io::validate_dump` on that dump, ms.
    pub validate_ms: f64,
    /// One-value `Comm::allreduce`, µs.
    pub allreduce_us: f64,
    /// `Comm::barrier`, µs.
    pub barrier_us: f64,
    /// `Par::loop3` over one point with an empty body, µs.
    pub empty_launch_us: f64,
}

/// Calls per repetition of the microsecond-scale probes.
const MICRO_CALLS: usize = 200;

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Build the deck's simulation on every rank and time each layer call
/// `reps` times (after one warm-up step). Rank 0 records spans.
pub fn mhd_probes(
    deck: &Deck,
    version: CodeVersion,
    ranks: usize,
    seed: u64,
    reps: usize,
    run_dir: &Path,
    tracer: &Tracer,
) -> Result<MhdProbe, String> {
    let results = World::run(ranks, |comm| -> Result<Option<MhdProbe>, String> {
        let rank = comm.rank();
        let lead = rank == 0;
        let span = |name: &str, cat: &'static str, t0: Instant, t1: Instant, rep: usize| {
            if lead {
                tracer.record(name, cat, t0, t1, rep as u64, None, 0);
            }
        };
        let t0 = Instant::now();
        let mut sim = Simulation::builder(deck)
            .version(version)
            .device(DeviceSpec::a100_40gb())
            .rank(rank)
            .world(ranks)
            .seed(seed)
            .try_build()?;
        let t1 = Instant::now();
        span("mhd.Simulation::try_build", "mhd", t0, t1, 0);
        let mut p = MhdProbe {
            setup_ms: us(t0, t1) / 1e3,
            halo_bytes: 2.0 * sim.hx_state.bytes_per_direction() as f64,
            ..MhdProbe::default()
        };
        sim.begin_compute(&comm);
        step::advance(&mut sim, &comm);

        let phys = deck.physics;
        let (nr, nt, np) = (sim.grid.nr, sim.grid.nt, sim.grid.np);
        let spaces = [
            IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0)),
            IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0)),
            IndexSpace3::interior(Stagger::FaceP, nr, nt, np),
        ];
        let one_point = IndexSpace3 {
            i0: 1,
            i1: 2,
            j0: 1,
            j1: 2,
            k0: 1,
            k1: 2,
        };
        let ckpt = run_dir.join(format!("probe-rank{rank}.dump"));
        let mut s: [Vec<f64>; 13] = Default::default();
        for rep in 0..reps {
            comm.barrier(&mut sim.par.ctx);

            let a = Instant::now();
            let info = step::advance(&mut sim, &comm);
            let b = Instant::now();
            span("mhd.step::advance", "mhd", a, b, rep);
            s[0].push(us(a, b) / 1e3);

            // The step's three viscosity solves, once more with its dt.
            let nu_dt = phys.visc * info.dt;
            let (tol, max_iter) = (deck.solver.pcg_tol, deck.solver.pcg_max_iter);
            let a = Instant::now();
            let st = &mut sim.state;
            let iters = pcg::solve_viscosity(
                &mut sim.par,
                &comm,
                &sim.lap_r,
                spaces[0],
                &mut st.v.r,
                &mut st.pcg_r,
                &mut sim.hx_vr,
                nu_dt,
                tol,
                max_iter,
            )
            .iters
                + pcg::solve_viscosity(
                    &mut sim.par,
                    &comm,
                    &sim.lap_t,
                    spaces[1],
                    &mut st.v.t,
                    &mut st.pcg_t,
                    &mut sim.hx_vt,
                    nu_dt,
                    tol,
                    max_iter,
                )
                .iters
                + pcg::solve_viscosity(
                    &mut sim.par,
                    &comm,
                    &sim.lap_p,
                    spaces[2],
                    &mut st.v.p,
                    &mut st.pcg_p,
                    &mut sim.hx_vp,
                    nu_dt,
                    tol,
                    max_iter,
                )
                .iters;
            let b = Instant::now();
            span("mhd.pcg::solve_viscosity x3", "mhd", a, b, rep);
            s[1].push(us(a, b) / 1e3);
            s[2].push(iters as f64);

            let a = Instant::now();
            let dt = step::cfl_dt(
                &mut sim.par,
                &comm,
                &sim.grid,
                &sim.state,
                phys.gamma,
                phys.eta,
                deck.time.cfl,
                deck.time.dt_max,
                None,
            );
            let b = Instant::now();
            std::hint::black_box(dt);
            span("mhd.step::cfl_dt", "mhd", a, b, rep);
            s[3].push(us(a, b));

            // dt = 0 leaves ρ bit-for-bit unchanged at the same cost.
            let a = Instant::now();
            let st = &mut sim.state;
            advect::mass_fluxes(&mut sim.par, &sim.grid, &mut st.flux, &st.rho, &st.v);
            advect::continuity(
                &mut sim.par,
                &sim.grid,
                &sim.divg,
                &mut st.rho,
                &st.flux,
                0.0,
            );
            let b = Instant::now();
            span("mhd.advect::mass_fluxes+continuity", "mhd", a, b, rep);
            s[4].push(us(a, b));

            let a = Instant::now();
            let st = &mut sim.state;
            let bufs = st.state_buf_ids();
            let mut arrays = [
                &mut st.rho.data,
                &mut st.temp.data,
                &mut st.v.r.data,
                &mut st.v.t.data,
                &mut st.v.p.data,
                &mut st.b.r.data,
                &mut st.b.t.data,
                &mut st.b.p.data,
            ];
            sim.hx_state
                .exchange(&mut sim.par, &comm, &mut arrays, &bufs);
            let b = Instant::now();
            span("mhd.HaloExchanger::exchange", "mhd", a, b, rep);
            s[5].push(us(a, b));

            let a = Instant::now();
            for _ in 0..MICRO_CALLS {
                let mut v = [1.0];
                comm.allreduce(ReduceOp::Sum, &mut v, &mut sim.par.ctx);
                std::hint::black_box(v);
            }
            let b = Instant::now();
            span("minimpi.Comm::allreduce xN", "minimpi", a, b, rep);
            s[6].push(us(a, b) / MICRO_CALLS as f64);

            let a = Instant::now();
            for _ in 0..MICRO_CALLS {
                comm.barrier(&mut sim.par.ctx);
            }
            let b = Instant::now();
            span("minimpi.Comm::barrier xN", "minimpi", a, b, rep);
            s[7].push(us(a, b) / MICRO_CALLS as f64);

            let a = Instant::now();
            for _ in 0..MICRO_CALLS {
                sim.par.loop3(
                    &EMPTY_SITE,
                    one_point,
                    Traffic::new(0, 0, 0),
                    &[],
                    &[],
                    |i, j, k| {
                        std::hint::black_box((i, j, k));
                    },
                );
            }
            let b = Instant::now();
            span("stdpar.Par::loop3 empty xN", "stdpar", a, b, rep);
            s[8].push(us(a, b) / MICRO_CALLS as f64);

            let a = Instant::now();
            checkpoint::save(&mut sim, &ckpt).map_err(|e| format!("checkpoint save: {e}"))?;
            let b = Instant::now();
            span("mhd.checkpoint::save", "io", a, b, rep);
            s[9].push(us(a, b) / 1e3);
            s[10].push(std::fs::metadata(&ckpt).map_err(|e| e.to_string())?.len() as f64);

            let a = Instant::now();
            mas_io::validate_dump(&ckpt).map_err(|e| format!("validate dump: {e}"))?;
            let b = Instant::now();
            span("io.dump::validate_dump", "io", a, b, rep);
            s[11].push(us(a, b) / 1e3);
        }
        let _ = std::fs::remove_file(&ckpt);
        p.step_ms = median(&s[0]);
        p.pcg_ms = median(&s[1]);
        p.pcg_iters = median(&s[2]);
        p.cfl_us = median(&s[3]);
        p.continuity_us = median(&s[4]);
        p.halo_us = median(&s[5]);
        p.allreduce_us = median(&s[6]);
        p.barrier_us = median(&s[7]);
        p.empty_launch_us = median(&s[8]);
        p.save_ms = median(&s[9]);
        p.save_bytes = median(&s[10]);
        p.validate_ms = median(&s[11]);
        Ok(lead.then_some(p))
    });
    let mut lead = None;
    for r in results {
        if let Some(p) = r? {
            lead = Some(p);
        }
    }
    lead.ok_or_else(|| "rank 0 returned no probe".into())
}

/// `Journal::append` of a fsync'd `Submitted` record, µs (median of
/// `reps`), in a scratch journal under `dir`.
pub fn journal_append_us(
    spec: &mas_serve::JobSpec,
    reps: usize,
    dir: &Path,
    tracer: &Tracer,
) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("journal.log");
    let (mut journal, _) = Journal::open(&path).map_err(|e| format!("journal open: {e}"))?;
    let rec = Record::submitted(1, spec);
    let mut v = Vec::with_capacity(reps);
    for rep in 0..reps {
        let a = Instant::now();
        journal
            .append(0, &rec)
            .map_err(|e| format!("journal append: {e}"))?;
        let b = Instant::now();
        tracer.record("serve.Journal::append", "serve", a, b, rep as u64, None, 0);
        v.push(us(a, b));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&v))
}

/// `wire::parse_request` of the submit line for `spec` (which includes
/// `Deck::parse`), µs (median over `reps` batches).
pub fn parse_submit_us(
    spec: &mas_serve::JobSpec,
    reps: usize,
    tracer: &Tracer,
) -> Result<f64, String> {
    let line = mas_serve::wire::encode_submit(spec);
    let mut v = Vec::with_capacity(reps);
    for rep in 0..reps {
        let a = Instant::now();
        for _ in 0..MICRO_CALLS / 10 {
            let req = mas_serve::wire::parse_request(std::hint::black_box(&line))?;
            std::hint::black_box(req);
        }
        let b = Instant::now();
        tracer.record(
            "serve.wire::parse_request xN",
            "serve",
            a,
            b,
            rep as u64,
            None,
            0,
        );
        v.push(us(a, b) / (MICRO_CALLS / 10) as f64);
    }
    Ok(median(&v))
}
