//! The `Par` executor: physics loops written once, executed under the
//! active code version's policy.
//!
//! The solver never talks to `gpusim` directly; it declares loop sites and
//! calls [`Par::loop3`], [`Par::reduce_scalar`], [`Par::reduce_array`] etc.
//! `Par` runs the body (real numerics, executed by the host
//! [`Engine`](crate::engine::Engine) — tiled over the outermost axis and
//! spread across worker threads when profitable) and charges the virtual
//! device according to the version policy — launch mode, fusion, reduction
//! strategy, data mode. It also feeds the [`SiteRegistry`] that the
//! directive audit consumes.
//!
//! # Determinism
//!
//! Results are **independent of the host thread count**: the tile
//! decomposition and the reduction-combine order are fixed by the
//! iteration space alone (see `engine` module docs), so a run with
//! `MAS_HOST_THREADS=1` and one with `=16` produce bit-identical state,
//! reductions, audits, and virtual-clock timings.

use crate::engine::{default_host_threads, Engine, SyncSlice};
use crate::race::{RaceAudit, RaceAuditor};
use crate::site::{LoopClass, RegionId, Site, SiteId, SiteRegistry, Tiling};
use crate::version::{ArrayReduceStrategy, CodeVersion, LoopStyle, Policy};
use gpusim::{BufferId, DeviceContext, DeviceSpec, LaunchMode, Traffic};
use mas_grid::IndexSpace3;
use minimpi::ReduceOp;
use std::collections::HashMap;

/// Environment variable enabling the dynamic race auditor (`1`/`true`/
/// `on`/`yes`, case-insensitive). [`ParBuilder::audit`] overrides it.
pub const PAR_AUDIT_ENV: &str = "MAS_PAR_AUDIT";

/// Whether `MAS_PAR_AUDIT` asks for audit mode.
fn audit_env_default() -> bool {
    std::env::var(PAR_AUDIT_ENV)
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false)
}

/// Environment variable forcing the engine tile size in k-planes
/// (`0` = adaptive). Overrides [`ParBuilder::tile_k`] (the deck's
/// `tile_k` key). Garbage values abort loudly at build time.
pub const TILE_K_ENV: &str = "MAS_TILE_K";

/// Strict parse of the [`TILE_K_ENV`] override (same idiom as the
/// engine's `MAS_PAR_MIN_POINTS`): unset means "no override", anything
/// set must be a whole non-negative integer (`0` = adaptive).
fn parse_tile_k(raw: Result<String, std::env::VarError>) -> Result<Option<usize>, String> {
    match raw {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!(
            "{TILE_K_ENV} is set but not valid unicode; expected a \
             non-negative integer k-plane count"
        )),
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!(
                "{TILE_K_ENV}={s:?} is not a non-negative integer k-plane \
                 count (0 = adaptive)"
            )),
        },
    }
}

/// Points a dispatch chunk should carry before per-chunk overhead
/// (claim-counter hop + closure call) stops mattering. Drives the
/// adaptive [`auto_tile_k`] grouping.
const TILE_TARGET_POINTS: usize = 2048;

/// The adaptive tile size in k-planes for `space` on an engine of width
/// `threads`: group planes until a chunk carries [`TILE_TARGET_POINTS`]
/// points (small planes starve per-plane dispatch), and coarsen further
/// when there are many more planes than threads (fewer claim hops).
/// **Execution-side only** — chunking groups whole k-planes, executed in
/// ascending plane order within each chunk, and reductions keep one
/// partial per *plane* combined in plane order, so results are
/// bit-identical for every tile size and thread count.
fn auto_tile_k(space: IndexSpace3, threads: usize, override_k: usize) -> usize {
    let nk = space.k1.saturating_sub(space.k0);
    if nk <= 1 {
        return 1;
    }
    if override_k > 0 {
        return override_k.min(nk);
    }
    let plane = (space.i1.saturating_sub(space.i0) * space.j1.saturating_sub(space.j0)).max(1);
    let by_work = TILE_TARGET_POINTS.div_ceil(plane);
    let by_balance = (nk / (4 * threads.max(1))).max(1);
    by_work.max(by_balance).clamp(1, nk)
}

/// Execution-time penalty of the loop-flip array reduction (Listing 5):
/// the compiler serializes the inner `reduce` loop, which costs a little
/// parallel efficiency on the affected kernels (paper §IV-E; the global
/// effect is small because array reductions are a small runtime fraction).
const LOOP_FLIP_PENALTY: f64 = 1.35;

/// Execution-time penalty of atomic array updates relative to a plain
/// streaming loop (contended f64 atomics on the A100 are cheap but not
/// free).
const ATOMIC_PENALTY: f64 = 1.10;

/// Kernel-execution efficiency of `do concurrent` offload relative to the
/// hand-tuned OpenACC kernels — the "different compiler offload
/// parameters between the OpenACC and DC kernels" the paper lists among
/// the AD-vs-A performance gaps (§V-C).
const DC_KERNEL_EFFICIENCY: f64 = 0.975;

/// The cost-model extrapolation scales: the numerics run on a scaled
/// test grid while the device model charges production-size traffic.
/// Bulk (3-D) kernels are charged at `volume`; boundary/halo (2-D plane)
/// kernels at `area` — switch between them with [`Par::with_area_scale`].
///
/// An immutable value type: a `Par` is built with one `CostScales`
/// ([`ParBuilder::scales`]) and temporary overrides are *scoped*
/// ([`Par::with_scales`]), so a boundary operator can no longer leak an
/// area scale into the next bulk kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostScales {
    /// Multiplier for 3-D bulk kernels (the default active scale).
    pub volume: f64,
    /// Multiplier for 2-D plane/halo kernels.
    pub area: f64,
}

impl CostScales {
    /// No extrapolation: charge what actually ran.
    pub const IDENTITY: CostScales = CostScales {
        volume: 1.0,
        area: 1.0,
    };

    /// Validated constructor (both scales must be ≥ 1 and finite).
    pub fn new(volume: f64, area: f64) -> Self {
        assert!(
            volume >= 1.0 && volume.is_finite() && area >= 1.0 && area.is_finite(),
            "bad cost scales ({volume}, {area})"
        );
        CostScales { volume, area }
    }
}

impl Default for CostScales {
    fn default() -> Self {
        CostScales::IDENTITY
    }
}

/// Builder for [`Par`] — replaces the old positional
/// `Par::new(spec, version, rank, seed)` constructor.
///
/// ```
/// use stdpar::{CodeVersion, CostScales, Par};
/// use gpusim::DeviceSpec;
///
/// let par = Par::builder(DeviceSpec::a100_40gb())
///     .version(CodeVersion::Ad2xu)
///     .rank(0)
///     .seed(42)
///     .threads(2)
///     .scales(CostScales::new(8.0, 4.0))
///     .build();
/// assert_eq!(par.host_threads(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ParBuilder {
    spec: DeviceSpec,
    version: CodeVersion,
    rank: usize,
    seed: u64,
    threads: Option<usize>,
    scales: CostScales,
    audit: Option<bool>,
    tile_k: usize,
}

impl ParBuilder {
    /// Code version to execute under (default: [`CodeVersion::A`]).
    pub fn version(mut self, v: CodeVersion) -> Self {
        self.version = v;
        self
    }

    /// MPI-style rank of this executor (default 0).
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Seed for the device model's timing jitter (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Host engine width. Default: `MAS_HOST_THREADS` env if set, else
    /// the machine's available parallelism. Results never depend on this
    /// — only wall-clock does.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Cost-model extrapolation scales (default [`CostScales::IDENTITY`]).
    pub fn scales(mut self, scales: CostScales) -> Self {
        self.scales = scales;
        self
    }

    /// Enable (or force off) the dynamic race auditor. Default: the
    /// [`PAR_AUDIT_ENV`] environment variable. In audit mode, the first
    /// launch of every [`Tiling::Outer`] site per iteration-space shape
    /// runs serially under instrumented `ParView3` handles and is checked
    /// against the `do concurrent` iteration-independence contract; see
    /// [`crate::race`]. Results are bit-identical to audit-off runs.
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = Some(on);
        self
    }

    /// Force the engine tile size to `n` k-planes per dispatch chunk
    /// (`0`, the default, keeps the adaptive per-site choice). The
    /// [`TILE_K_ENV`] environment variable overrides this. Purely an
    /// execution knob: results are bit-identical for every value.
    pub fn tile_k(mut self, n: usize) -> Self {
        self.tile_k = n;
        self
    }

    /// Construct the executor.
    pub fn build(self) -> Par {
        let policy = self.version.policy();
        let ctx = DeviceContext::new(self.spec, policy.data_mode, self.rank, self.seed);
        let threads = self.threads.unwrap_or_else(default_host_threads);
        let audit_on = self.audit.unwrap_or_else(audit_env_default);
        let tile_k = match parse_tile_k(std::env::var(TILE_K_ENV)) {
            Ok(Some(n)) => n,
            Ok(None) => self.tile_k,
            Err(e) => panic!("{e}"),
        };
        Par {
            ctx,
            policy,
            registry: SiteRegistry::new(),
            engine: Engine::new(threads),
            point_scale: self.scales.volume,
            scales: self.scales,
            tile_k_override: tile_k,
            plans: HashMap::new(),
            audit: RaceAuditor::new(audit_on),
            scratch: Vec::new(),
        }
    }
}

/// Cached per-site execution plan: the interned registry slot plus the
/// last iteration bounds and scaled launch cost, so steady-state steps
/// (same site, same bounds, same scale — the overwhelmingly common case)
/// skip the registry's string-keyed map entirely.
#[derive(Clone, Copy, Debug)]
struct Plan {
    slot: usize,
    /// The site's interned name (for surfacing the plan in run reports).
    name: &'static str,
    space: IndexSpace3,
    point_scale: f64,
    scaled: usize,
    /// Learned engine tile size in k-planes (see [`auto_tile_k`]).
    tile_k: usize,
}

/// Plan-cache key: the site name's address + length. Site names are
/// `&'static str`, so the address is stable for the process lifetime,
/// and two *different* strings can never share both start address and
/// length. Two distinct literals with equal text may get separate
/// entries — harmless, they intern to the same registry slot.
type PlanKey = (usize, usize);

fn plan_key(site: &Site) -> PlanKey {
    (site.name.as_ptr() as usize, site.name.len())
}

/// One rank's executor: virtual device + policy + site registry + host
/// execution engine.
pub struct Par {
    /// The virtual device (clock, memory model, profiler).
    pub ctx: DeviceContext,
    /// Active code-version policy.
    pub policy: Policy,
    /// Site registry feeding the directive audit.
    pub registry: SiteRegistry,
    /// Host-parallel execution engine (tile scheduler + worker pool).
    engine: Engine,
    /// The currently *active* cost-model multiplier applied to every
    /// launch's point count (normally `scales.volume`; `scales.area`
    /// inside a [`Par::with_area_scale`] scope).
    point_scale: f64,
    /// The configured scale pair.
    scales: CostScales,
    /// Forced engine tile size in k-planes (0 = adaptive per site).
    tile_k_override: usize,
    /// Per-site plan cache (see [`Plan`]).
    plans: HashMap<PlanKey, Plan>,
    /// Dynamic race auditor (no-op unless audit mode is on).
    audit: RaceAuditor,
    /// Reusable reduction-partials buffer shared by [`Par::reduce_scalar`]
    /// and [`Par::reduce_array`] (they never nest) — steady-state
    /// reductions allocate nothing.
    scratch: Vec<f64>,
}

impl Par {
    /// Start building an executor for a device described by `spec`.
    pub fn builder(spec: DeviceSpec) -> ParBuilder {
        ParBuilder {
            spec,
            version: CodeVersion::A,
            rank: 0,
            seed: 1,
            threads: None,
            scales: CostScales::IDENTITY,
            audit: None,
            tile_k: 0,
        }
    }

    /// The active code version.
    pub fn version(&self) -> CodeVersion {
        self.policy.version
    }

    /// Width of the host execution engine (1 = serial).
    pub fn host_threads(&self) -> usize {
        self.engine.threads()
    }

    /// The race-audit summary accumulated so far (all-zero and
    /// `enabled: false` when audit mode is off). See [`crate::race`].
    pub fn race_audit(&self) -> &RaceAudit {
        self.audit.audit()
    }

    /// Current cost-model point scale.
    pub fn point_scale(&self) -> f64 {
        self.point_scale
    }

    /// The configured scale pair.
    pub fn scales(&self) -> CostScales {
        self.scales
    }

    /// Run `f` with `scales` installed (active scale = `scales.volume`),
    /// restoring the previous configuration afterwards — scale changes
    /// cannot leak across operators.
    pub fn with_scales<R>(&mut self, scales: CostScales, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = (self.scales, self.point_scale);
        self.scales = scales;
        self.point_scale = scales.volume;
        let r = f(self);
        (self.scales, self.point_scale) = prev;
        r
    }

    /// Run `f` with the *area* scale active — the boundary/halo form of
    /// [`Par::with_scales`]: plane kernels inside the scope are charged
    /// at `scales.area` instead of `scales.volume`.
    pub fn with_area_scale<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.point_scale;
        self.point_scale = self.scales.area;
        let r = f(self);
        self.point_scale = prev;
        r
    }

    /// Scale a launch's point count by the active model scale.
    fn scaled(&self, n: usize) -> usize {
        (n as f64 * self.point_scale).round() as usize
    }

    /// Look up (or build) the execution plan for `site` over `space`:
    /// the interned registry slot, the cached scaled launch cost, and
    /// the learned engine tile size for this (shape, thread count).
    fn plan(&mut self, site: &Site, space: IndexSpace3) -> (usize, usize, usize) {
        let key = plan_key(site);
        if let Some(p) = self.plans.get(&key) {
            if p.space == space && p.point_scale == self.point_scale {
                return (p.slot, p.scaled, p.tile_k);
            }
            let slot = p.slot;
            let scaled = self.scaled(space.len());
            let tile_k = auto_tile_k(space, self.engine.threads(), self.tile_k_override);
            self.plans.insert(
                key,
                Plan { slot, name: site.name, space, point_scale: self.point_scale, scaled, tile_k },
            );
            return (slot, scaled, tile_k);
        }
        let slot = self.registry.slot_of(site);
        let scaled = self.scaled(space.len());
        let tile_k = auto_tile_k(space, self.engine.threads(), self.tile_k_override);
        self.plans.insert(
            key,
            Plan { slot, name: site.name, space, point_scale: self.point_scale, scaled, tile_k },
        );
        (slot, scaled, tile_k)
    }

    /// The cached tile plans, one `(site, nk, tile_k)` entry per tiled
    /// site (single-plane spaces never dispatch and are omitted), sorted
    /// by site name. Surfaced in `mas-mhd`'s `RunReport` so the chosen
    /// plan is visible alongside the perf numbers.
    pub fn tile_plans(&self) -> Vec<(&'static str, usize, usize)> {
        let mut v: Vec<_> = self
            .plans
            .values()
            .filter(|p| p.space.k1.saturating_sub(p.space.k0) > 1)
            .map(|p| (p.name, p.space.k1 - p.space.k0, p.tile_k))
            .collect();
        v.sort_unstable();
        v
    }

    /// Apply the launch mode for `site` and return whether it is DC-style.
    fn prepare_launch(&mut self, site: &Site) -> LoopStyle {
        let style = self.policy.loop_style(site.class);
        let mode = if style == LoopStyle::Acc && self.policy.async_for(site.class) {
            LaunchMode::Async
        } else {
            LaunchMode::Sync
        };
        self.ctx.set_launch_mode(mode);
        // The DC offload-parameter penalty is a GPU-codegen artifact; on
        // CPU targets `do concurrent` compiles to the very same loops
        // (Table III: Codes 1 and 2 time identically on the EPYC nodes).
        let is_gpu = self.ctx.spec.launch_overhead_us > 0.0;
        self.ctx.set_exec_derate(match style {
            LoopStyle::Dc if is_gpu => DC_KERNEL_EFFICIENCY,
            _ => 1.0,
        });
        style
    }

    /// An OpenACC `parallel` region holding several independent loops.
    ///
    /// Under Code 1 (A) the compiler fuses the loops into one kernel (one
    /// launch overhead); every DC version fissions them (paper §IV-B).
    pub fn region<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let fuse = self.policy.fuse_regions;
        if fuse {
            self.ctx.begin_region();
        }
        let r = f(self);
        if fuse {
            self.ctx.end_region();
        }
        r
    }

    /// Execute `body` over `space` under the site's tiling: Serial sites
    /// and single-tile spaces run in Fortran order on the caller (the
    /// unified serial fast path — no tile census, matching the reduction
    /// forms); Outer sites run one k-plane per tile, dispatched to the
    /// engine when large enough, or serially under instrumentation when
    /// the race auditor claims the launch. Charges the engine's tile
    /// census to the profiler (thread-count independent).
    ///
    /// Generic over the body (`?Sized` included) so the per-*point* call
    /// is monomorphized — the body inlines into the tile loops and can
    /// vectorize. Only the per-*tile* hop through the engine is erased.
    /// Instantiating with `F = dyn Fn(..)` reproduces the historical
    /// per-point indirect dispatch; `loop3` does exactly that under the
    /// legacy-hot-path toggle so the benchmark can measure it.
    fn execute_tiles<F>(&mut self, site: &Site, space: IndexSpace3, tile_k: usize, body: &F)
    where
        F: Fn(usize, usize, usize) + Sync + ?Sized,
    {
        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            space.for_each(body);
            return;
        }
        self.ctx.prof.note_host_tiles(nk as u64);
        let k0 = space.k0;
        let plane = |t: usize| {
            let k = k0 + t;
            for j in space.j0..space.j1 {
                for i in space.i0..space.i1 {
                    body(i, j, k);
                }
            }
        };
        if self.audit.wants(site, space, nk) {
            // The audit always observes per-plane footprints; the engine
            // chunking below is invisible to it (and to the census).
            self.audit.run_audited_tiles(site.name, k0, nk, &plane);
        } else {
            dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), &plane);
        }
    }

    /// A plain (or routine-calling / atomic-scatter) parallel loop nest.
    ///
    /// `body(i, j, k)` is invoked for every point of `space`; `traffic`
    /// describes per-point memory traffic for the model; `reads`/`writes`
    /// are the model buffers touched (for UM paging).
    ///
    /// # Iteration-independence contract
    /// Like a Fortran `do concurrent` body: on a [`Tiling::Outer`] site,
    /// distinct iterations must not write the same element, and must not
    /// read, at a *different k*, an array any iteration writes. Bodies
    /// with k-neighbour recurrences declare [`Site::serial`].
    pub fn loop3<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        body: F,
    ) where
        F: Fn(usize, usize, usize) + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::Parallel | LoopClass::CallsRoutine | LoopClass::AtomicUpdate
        ));
        let tile_k = self.charge_launch(site, space, traffic, reads, writes);
        if crate::perf::legacy_alloc() {
            // Historical dispatch: body erased to `dyn Fn`, one indirect
            // call per grid point (identical iteration order and FP
            // results — only the call overhead differs). Chunking is
            // disabled too: the historical engine dispatched per plane.
            self.execute_tiles(site, space, 1, &body as &(dyn Fn(usize, usize, usize) + Sync));
        } else {
            self.execute_tiles(site, space, tile_k, &body);
        }
    }

    /// The row-sliced form of [`Par::loop3`]: `body(j, k)` is invoked
    /// once per innermost-axis **row** of `space` instead of once per
    /// point, and is expected to process the full `space.i0..space.i1`
    /// window of that row through the row accessors
    /// (`ParView3::row_mut` / `Array3::row`), so the compiler sees
    /// contiguous `&[f64]` slices it can autovectorize — the host
    /// analogue of the paper's requirement that `do concurrent` bodies
    /// expose contiguous innermost access to the optimizer.
    ///
    /// Everything else is identical to `loop3`: same launch charge, same
    /// site census, same host-tile census, same per-k-plane tiling (row
    /// bodies that evaluate the same per-point expressions produce
    /// bit-identical state), and the same iteration-independence
    /// contract — on a [`Tiling::Outer`] site each `(j, k)` row must
    /// write only rows it owns and read no row another k-plane writes.
    /// The race auditor observes the row path at element granularity
    /// (row accessors record per-element footprints).
    pub fn loop3_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        body: F,
    ) where
        F: Fn(usize, usize) + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::Parallel | LoopClass::CallsRoutine | LoopClass::AtomicUpdate
        ));
        let tile_k = self.charge_launch(site, space, traffic, reads, writes);
        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            // Unified serial fast path: rows in Fortran order (k outer,
            // j inner), matching `for_each`'s plane/row order.
            for k in space.k0..space.k1 {
                for j in space.j0..space.j1 {
                    body(j, k);
                }
            }
        } else {
            self.ctx.prof.note_host_tiles(nk as u64);
            let k0 = space.k0;
            let plane = |t: usize| {
                let k = k0 + t;
                for j in space.j0..space.j1 {
                    body(j, k);
                }
            };
            if self.audit.wants(site, space, nk) {
                self.audit.run_audited_tiles(site.name, k0, nk, &plane);
            } else {
                dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), &plane);
            }
        }
    }

    /// The model half of a [`Par::loop3`] launch without its host body:
    /// the same launch mode, plan, clock charge and site census, but no
    /// host execution and so no host-tile census. A fused host pass calls
    /// it once per original site it absorbs, in the original launch
    /// order, before its own launch, so the virtual device still sees
    /// every kernel the unfused code issues.
    pub fn charge(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
    ) {
        debug_assert!(matches!(
            site.class,
            LoopClass::Parallel | LoopClass::CallsRoutine | LoopClass::AtomicUpdate
        ));
        self.charge_launch(site, space, traffic, reads, writes);
    }

    /// Prepare, plan, charge and census one launch of `site` over
    /// `space`; returns the plan's engine tile size for the host body.
    fn charge_launch(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> usize {
        self.prepare_launch(site);
        let (slot, scaled, tile_k) = self.plan(site, space);
        let exec = self.ctx.launch(site.name, scaled, traffic, reads, writes);
        self.registry.note_slot(slot, space.len(), exec);
        tile_k
    }

    /// The deterministic tiled reduction: one partial per k-plane tile
    /// (computed in-tile in Fortran order), combined *in tile order* on
    /// the calling thread. The decomposition depends only on `space`, so
    /// the result is bit-identical for every engine width.
    fn fold_tiled<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        tile_k: usize,
        op: ReduceOp,
        init: f64,
        body: &F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync + ?Sized,
    {
        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            // Unified serial fast path (also taken at nk == 1, where a
            // single tile cannot race and dispatch would only add
            // overhead): plain Fortran-order fold, no tile census —
            // consistent with `execute_tiles` and `reduce_array`.
            let mut acc = init;
            space.for_each(|i, j, k| acc = op_apply(op, acc, body(i, j, k)));
            return acc;
        }
        let ident = op_identity(op);
        // Steady state reuses the shared scratch buffer; the legacy toggle
        // reinstates the historical per-launch allocation for the
        // benchmark harness's before/after measurement.
        let legacy = crate::perf::legacy_alloc();
        let mut partials;
        if legacy {
            partials = vec![ident; nk];
        } else {
            partials = std::mem::take(&mut self.scratch);
            partials.clear();
            partials.resize(nk, ident);
        }
        {
            let ps = SyncSlice::new(&mut partials);
            self.ctx.prof.note_host_tiles(nk as u64);
            let k0 = space.k0;
            // One partial per *plane* regardless of engine chunking, so
            // the combine order below is fixed by the space alone.
            let tile = |t: usize| {
                let k = k0 + t;
                let mut acc = ident;
                for j in space.j0..space.j1 {
                    for i in space.i0..space.i1 {
                        acc = op_apply(op, acc, body(i, j, k));
                    }
                }
                ps.set(t, acc);
            };
            if self.audit.wants(site, space, nk) {
                // The audited pass *is* the launch: tiles run serially
                // under capture, writing the same per-tile partials, so
                // the combine below keeps the engine's exact FP order.
                self.audit.run_audited_tiles(site.name, k0, nk, &tile);
            } else {
                dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), &tile);
            }
        }
        let mut acc = init;
        for &p in partials.iter() {
            acc = op_apply(op, acc, p);
        }
        if !legacy {
            self.scratch = partials;
        }
        acc
    }

    /// Row-sliced fold (see [`Par::reduce_scalar_rows`]): `body(acc, j, k)`
    /// folds the row's `space.i0..space.i1` window into `acc` itself —
    /// applying the op per element in ascending `i` — and returns the
    /// updated accumulator. The per-plane partial and plane-order combine
    /// are identical to [`Par::fold_tiled`], so a row body that applies
    /// the same per-point expressions reduces bit-identically to the
    /// scalar path.
    fn fold_tiled_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        tile_k: usize,
        op: ReduceOp,
        init: f64,
        body: &F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            let mut acc = init;
            for k in space.k0..space.k1 {
                for j in space.j0..space.j1 {
                    acc = body(acc, j, k);
                }
            }
            return acc;
        }
        let ident = op_identity(op);
        let legacy = crate::perf::legacy_alloc();
        let mut partials;
        if legacy {
            partials = vec![ident; nk];
        } else {
            partials = std::mem::take(&mut self.scratch);
            partials.clear();
            partials.resize(nk, ident);
        }
        {
            let ps = SyncSlice::new(&mut partials);
            self.ctx.prof.note_host_tiles(nk as u64);
            let k0 = space.k0;
            let tile = |t: usize| {
                let k = k0 + t;
                let mut acc = ident;
                for j in space.j0..space.j1 {
                    acc = body(acc, j, k);
                }
                ps.set(t, acc);
            };
            if self.audit.wants(site, space, nk) {
                self.audit.run_audited_tiles(site.name, k0, nk, &tile);
            } else {
                dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), &tile);
            }
        }
        let mut acc = init;
        for &p in partials.iter() {
            acc = op_apply(op, acc, p);
        }
        if !legacy {
            self.scratch = partials;
        }
        acc
    }

    /// Scalar reduction over a loop nest (CFL minima, PCG dot products).
    ///
    /// OpenACC `reduction` clause through Code 3; DC2X `reduce` from
    /// Code 4 on — numerically identical here because the combine order
    /// is the fixed tile order (see `engine` docs), unlike the real
    /// code's atomic orderings which reproduce only to round-off.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scalar<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::ScalarReduction | LoopClass::KernelsIntrinsic
        ));
        self.reduce_scalar_unchecked(site, space, traffic, reads, op, init, body)
    }

    /// The row-sliced form of [`Par::reduce_scalar`]: `body(acc, j, k)`
    /// folds the `space.i0..space.i1` window of row `(j, k)` into `acc`
    /// — applying `op` per element **in ascending `i`**, e.g.
    /// `row.iter().fold(acc, |a, &v| a + term(v))` for a sum — and
    /// returns the updated accumulator. Because the fold order within a
    /// row and the per-plane/plane-order combine are exactly the scalar
    /// path's, a row body evaluating the same per-point expressions
    /// reduces bit-identically. Launch charge, census, and traffic are
    /// identical to `reduce_scalar`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scalar_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::ScalarReduction | LoopClass::KernelsIntrinsic
        ));
        let tile_k = self.charge_launch(site, space, traffic, reads, &[]);
        self.fold_tiled_rows(site, space, tile_k, op, init, &body)
    }

    /// Array reduction: each point contributes `(target, value)` and the
    /// contributions accumulate into `out[target]`.
    ///
    /// Strategy per version (paper Listings 3–5): ACC atomics, DC+atomics,
    /// or the flipped outer-DC/inner-reduce form. All three use the same
    /// tile decomposition here, so results are bitwise identical across
    /// versions *and* thread counts — the real code's atomic orderings
    /// differ at round-off, which the paper also absorbs in its
    /// "validated within solver tolerances" statement.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_array<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        out: &mut [f64],
        body: F,
    ) where
        F: Fn(usize, usize, usize) -> (usize, f64) + Sync,
    {
        debug_assert_eq!(site.class as u8, LoopClass::ArrayReduction as u8);
        let penalty = match self.policy.array_reduce {
            ArrayReduceStrategy::AccAtomic | ArrayReduceStrategy::DcAtomic => ATOMIC_PENALTY,
            ArrayReduceStrategy::LoopFlip => LOOP_FLIP_PENALTY,
        };
        // Charge the penalized traffic by inflating the per-point cost.
        let eff = Traffic {
            reads: ((traffic.reads as f64) * penalty).ceil() as u32,
            writes: traffic.writes,
            flops: traffic.flops,
        };
        let tile_k = self.charge_launch(site, space, eff, reads, writes);

        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            // Unified serial fast path (see `fold_tiled`): direct
            // accumulation, no tile census.
            space.for_each(|i, j, k| {
                let (t, v) = body(i, j, k);
                out[t] += v;
            });
        } else {
            // One dense partial row per tile, accumulated in-tile in
            // Fortran order, then combined row-by-row in tile order.
            // Scratch reuse / legacy churn as in `fold_tiled`; legacy
            // mode also keeps the historical per-plane dispatch.
            let width = out.len();
            let legacy = crate::perf::legacy_alloc();
            let tile_k = if legacy { 1 } else { tile_k };
            let mut partials;
            if legacy {
                partials = vec![0.0; nk * width];
            } else {
                partials = std::mem::take(&mut self.scratch);
                partials.clear();
                partials.resize(nk * width, 0.0);
            }
            {
                let ps = SyncSlice::new(&mut partials);
                self.ctx.prof.note_host_tiles(nk as u64);
                let k0 = space.k0;
                let tile = |t: usize| {
                    let k = k0 + t;
                    let row = t * width;
                    for j in space.j0..space.j1 {
                        for i in space.i0..space.i1 {
                            let (target, v) = body(i, j, k);
                            debug_assert!(target < width);
                            ps.add(row + target, v);
                        }
                    }
                };
                if self.audit.wants(site, space, nk) {
                    self.audit.run_audited_tiles(site.name, k0, nk, &tile);
                } else {
                    dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), &tile);
                }
            }
            for t in 0..nk {
                let row = &partials[t * width..(t + 1) * width];
                for (o, &p) in out.iter_mut().zip(row) {
                    *o += p;
                }
            }
            if !legacy {
                self.scratch = partials;
            }
        }
    }

    /// An OpenACC `kernels` region wrapping a Fortran intrinsic reduction
    /// (e.g. `MINVAL`). Executes like a scalar reduction; classified
    /// separately because Codes 5–6 must expand it by hand (paper §IV-E).
    #[allow(clippy::too_many_arguments)]
    pub fn kernels_intrinsic<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        debug_assert_eq!(site.class as u8, LoopClass::KernelsIntrinsic as u8);
        self.reduce_scalar_unchecked(site, space, traffic, reads, op, init, body)
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_scalar_unchecked<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        let tile_k = self.charge_launch(site, space, traffic, reads, &[]);
        if crate::perf::legacy_alloc() {
            // Historical dispatch (see `loop3`): per-point `dyn` calls,
            // per-plane engine dispatch.
            self.fold_tiled(
                site,
                space,
                1,
                op,
                init,
                &body as &(dyn Fn(usize, usize, usize) -> f64 + Sync),
            )
        } else {
            self.fold_tiled(site, space, tile_k, op, init, &body)
        }
    }

    /// Array-creation wrapper: allocation-time zero-initialization of a
    /// work array. The **numerical effect** — the array starts at zero —
    /// is version-independent (every version's allocation produces
    /// defined storage), so `zero` always runs. What is version-gated is
    /// the **cost**: only Code 6 (D2XAd)'s wrapper routines, which
    /// replaced raw `allocate`+`enter data`, issue an extra
    /// zero-initialization *kernel* the original code did not have
    /// (§IV-F) — that launch is charged only under
    /// `policy.wrapper_init_kernels`. `n_points` is the array's storage
    /// size in values.
    pub fn wrapper_alloc(
        &mut self,
        name: &'static str,
        buf: BufferId,
        n_points: usize,
        zero: impl FnOnce(),
    ) {
        zero();
        if self.policy.wrapper_init_kernels {
            self.ctx.set_launch_mode(LaunchMode::Sync);
            self.ctx
                .launch(name, self.scaled(n_points), Traffic::new(0, 1, 0), &[], &[buf]);
        }
    }

    /// Intern a directive call-site label — the handle for
    /// [`Par::update_host`] / [`Par::update_device`] / [`Par::wait_point`].
    pub fn site_id(&mut self, label: &'static str) -> SiteId {
        self.registry.site_id(label)
    }

    /// Intern a data-region label — the handle for [`Par::data_region`].
    pub fn region_id(&mut self, label: &'static str) -> RegionId {
        self.registry.region_id(label)
    }

    /// Declare a manual data region: all `bufs` are copied in (manual
    /// mode) or lazily paged (UM). Registered for the audit either way —
    /// the audit decides per version whether the directives survive.
    pub fn data_region(&mut self, region: RegionId, bufs: &[BufferId]) {
        self.registry.note_data_region(region, bufs.len());
        for &b in bufs {
            self.ctx.enter_data(b);
        }
    }

    /// `!$acc update host` call site.
    pub fn update_host(&mut self, at: SiteId, buf: BufferId) {
        self.registry.note_update(at);
        self.ctx.update_host(buf);
    }

    /// `!$acc update device` call site.
    pub fn update_device(&mut self, at: SiteId, buf: BufferId) {
        self.registry.note_update(at);
        self.ctx.update_device(buf);
    }

    /// Host code touches a buffer (after `update_host` in manual mode;
    /// triggers paging under UM).
    pub fn host_access(&mut self, buf: BufferId, write: bool) {
        self.ctx.host_touch(buf, write);
    }

    /// Derived-type structure placed on the device (needed even under UM —
    /// static data does not page; paper §IV-C).
    pub fn derived_type_region(&mut self, label: &'static str) {
        self.registry.note_derived_type(label);
    }

    /// Module variable used inside a device routine (`!$acc declare`).
    pub fn declare_site(&mut self, label: &'static str) {
        self.registry.note_declare(label);
    }

    /// `!$acc wait` flush point (before MPI, before host reads).
    pub fn wait_point(&mut self, at: SiteId) {
        self.registry.note_wait(at);
        // Model: execution is already serialized on the virtual clock, so
        // the wait itself costs nothing extra.
    }

    /// MPI buffer exposed via `host_data use_device` (CUDA-aware path).
    pub fn host_data_site(&mut self, label: &'static str) {
        self.registry.note_host_data(label);
    }
}

/// Dispatch `nk` per-plane tasks to the engine, grouped into chunks of
/// `tile_k` consecutive planes (the adaptive tile plan). Each chunk
/// executes its planes in ascending order, so for any `tile_k` every
/// plane-level task runs exactly once with the same per-plane effect —
/// chunking changes scheduling granularity, never results.
fn dispatch_chunked(
    engine: &mut Engine,
    nk: usize,
    tile_k: usize,
    n_points: usize,
    plane: &(dyn Fn(usize) + Sync),
) {
    if tile_k <= 1 {
        engine.run_tiles(nk, n_points, plane);
        return;
    }
    let n_chunks = nk.div_ceil(tile_k);
    let chunk = |c: usize| {
        let t0 = c * tile_k;
        let t1 = (t0 + tile_k).min(nk);
        for t in t0..t1 {
            plane(t);
        }
    };
    engine.run_tiles(n_chunks, n_points, &chunk);
}

#[inline(always)]
fn op_apply(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
    }
}

#[inline(always)]
fn op_identity(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Min => f64::INFINITY,
        ReduceOp::Max => f64::NEG_INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DataMode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PLAIN: Site = Site::par3("plain");
    static PLAIN2: Site = Site::par3("plain2");
    static RED: Site = Site::new("red", LoopClass::ScalarReduction, 3);
    static ARED: Site = Site::new("ared", LoopClass::ArrayReduction, 2);
    static SWEEP: Site = Site::par3("sweep").serial();

    fn space(n: usize) -> IndexSpace3 {
        IndexSpace3 {
            i0: 0,
            i1: n,
            j0: 0,
            j1: n,
            k0: 0,
            k1: n,
        }
    }

    fn par(v: CodeVersion) -> Par {
        par_threads(v, 1)
    }

    fn par_threads(v: CodeVersion, threads: usize) -> Par {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut p = Par::builder(spec).version(v).threads(threads).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        p
    }

    #[test]
    fn loop3_runs_body_everywhere() {
        let mut p = par(CodeVersion::A);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        let count = AtomicUsize::new(0);
        p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 64);
        assert_eq!(p.registry.total_invocations(), 1);
    }

    #[test]
    fn version_a_fuses_ad_fissions() {
        let wall = |v: CodeVersion| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 64, "x");
            p.ctx.enter_data(b);
            let t0 = p.ctx.clock.now_us();
            p.region(|p| {
                for _ in 0..6 {
                    p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
                }
            });
            p.ctx.clock.now_us() - t0
        };
        let a = wall(CodeVersion::A);
        let ad = wall(CodeVersion::Ad);
        // A: one async-ish overhead; AD: six sync overheads.
        assert!(ad > a + 4.0 * 8.0, "a={a} ad={ad}");
    }

    #[test]
    fn reduce_scalar_deterministic_across_versions() {
        let run = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            p.ctx.enter_data(b);
            p.reduce_scalar(
                &RED,
                space(3),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.0,
                |i, j, k| (i + 10 * j + 100 * k) as f64,
            )
        };
        let a = run(CodeVersion::A);
        for v in CodeVersion::ALL {
            assert_eq!(run(v), a, "{v:?}");
        }
    }

    #[test]
    fn reduce_array_same_result_all_strategies() {
        let run = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            let o = p.ctx.mem.register(8 * 3, "out");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let mut out = vec![0.0; 3];
            p.reduce_array(
                &ARED,
                space(3),
                Traffic::new(2, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, j, k| (i, (j + k) as f64),
            );
            out
        };
        let a = run(CodeVersion::A);
        for v in CodeVersion::ALL {
            assert_eq!(run(v), a, "{v:?}");
        }
    }

    #[test]
    fn loop_flip_charges_more_than_plain_but_same_result() {
        let cost = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            let o = p.ctx.mem.register(8 * 3, "o");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let mut out = vec![0.0; 3];
            let t0 = p.ctx.clock.now_us();
            p.reduce_array(
                &ARED,
                space(3),
                Traffic::new(4, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, _, _| (i, 1.0),
            );
            p.ctx.clock.now_us() - t0
        };
        assert!(cost(CodeVersion::D2xu) > cost(CodeVersion::Ad2xu));
    }

    /// Regression test for the wrapper-init bug: the caller's `zero()`
    /// closure must run under *every* code version (the work arrays are
    /// zero-initialized host state, not a Code 6 artifact); only the
    /// modeled zero-fill *kernel launch* is D2XAd-specific.
    #[test]
    fn wrapper_alloc_zeroes_under_every_version_charges_only_d2xad() {
        for v in CodeVersion::ALL {
            let mut p = par(v);
            let b = p.ctx.mem.register(800, "tmp");
            if p.policy.data_mode == DataMode::Manual {
                p.ctx.enter_data(b);
            }
            let launches_before = p.ctx.prof.kernel_launches;
            let mut zeroed = false;
            p.wrapper_alloc("tmp_init", b, 100, || zeroed = true);
            assert!(zeroed, "{v:?}: work arrays must be zeroed in every version");
            let launched = p.ctx.prof.kernel_launches - launches_before;
            assert_eq!(
                launched,
                u64::from(v == CodeVersion::D2xad),
                "{v:?}: only Code 6 charges the wrapper init kernel"
            );
        }
    }

    #[test]
    fn data_region_registers_and_copies_in_manual_mode() {
        let mut p = par(CodeVersion::Ad);
        let b1 = p.ctx.mem.register(1 << 20, "a");
        let b2 = p.ctx.mem.register(1 << 20, "b");
        let state = p.region_id("state");
        p.data_region(state, &[b1, b2]);
        assert_eq!(p.registry.n_data_arrays(), 2);
        assert!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::MemcpyH2D) > 0.0);
        // Kernel may now touch them.
        p.loop3(&PLAIN2, space(2), Traffic::new(2, 0, 0), &[b1, b2], &[], |_, _, _| {});
    }

    #[test]
    fn um_data_region_registers_but_does_not_copy() {
        let mut p = par(CodeVersion::Adu);
        let b = p.ctx.mem.register(1 << 20, "a");
        let state = p.region_id("state");
        p.data_region(state, &[b]);
        assert_eq!(p.registry.n_data_arrays(), 1);
        assert_eq!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::MemcpyH2D), 0.0);
        // First kernel touch pages it in instead.
        p.loop3(&PLAIN, space(2), Traffic::new(1, 0, 0), &[b], &[], |_, _, _| {});
        assert!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::PageMigration) > 0.0);
    }

    #[test]
    fn with_scales_restores_on_exit() {
        let mut p = par(CodeVersion::A);
        assert_eq!(p.scales(), CostScales::IDENTITY);
        let inner = p.with_scales(CostScales::new(8.0, 2.0), |p| {
            assert_eq!(p.point_scale(), 8.0);
            p.with_area_scale(|p| p.point_scale())
        });
        assert_eq!(inner, 2.0);
        assert_eq!(p.point_scale(), 1.0, "scales cannot leak out of the scope");
        assert_eq!(p.scales(), CostScales::IDENTITY);
    }

    #[test]
    fn builder_scales_set_initial_point_scale() {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let p = Par::builder(spec).scales(CostScales::new(64.0, 16.0)).build();
        assert_eq!(p.point_scale(), 64.0);
        assert_eq!(p.scales().area, 16.0);
    }

    /// The tentpole determinism guarantee at unit scope: every kernel
    /// form produces bit-identical results for any engine width.
    #[test]
    fn results_bitwise_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut p = par_threads(CodeVersion::Ad2xu, threads);
            let b = p.ctx.mem.register(8 * 4096, "x");
            let o = p.ctx.mem.register(8 * 16, "o");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let n = 16;
            let sum = p.reduce_scalar(
                &RED,
                space(n),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.25,
                |i, j, k| 1.0 / (1.0 + (i + 3 * j + 7 * k) as f64),
            );
            let mut out = vec![0.0; n];
            p.reduce_array(
                &ARED,
                space(n),
                Traffic::new(2, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, j, k| (i, ((j * 31 + k) as f64).sin()),
            );
            (sum.to_bits(), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), p.ctx.clock.now_us().to_bits())
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn serial_site_runs_in_order_even_on_wide_engines() {
        // A sweep body whose result depends on execution order: running
        // it tiled would corrupt it; the Serial tiling must preserve the
        // exact Fortran-order fold.
        let run = |threads: usize| {
            let mut p = par_threads(CodeVersion::D2xu, threads);
            let b = p.ctx.mem.register(8 * 4096, "x");
            p.ctx.enter_data(b);
            p.reduce_scalar(
                &SWEEP_RED,
                space(16),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.0,
                |i, j, k| ((i + 2 * j + 3 * k) as f64).sqrt(),
            )
        };
        static SWEEP_RED: Site = Site::new("sweep_red", LoopClass::ScalarReduction, 3).serial();
        assert_eq!(run(1).to_bits(), run(8).to_bits());
        // And loop3 on a serial site still covers every point.
        let mut p = par_threads(CodeVersion::A, 8);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        let count = AtomicUsize::new(0);
        p.loop3(&SWEEP, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 64);
    }

    #[test]
    fn plan_cache_hits_on_steady_state_relaunch() {
        let mut p = par(CodeVersion::A);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        for _ in 0..3 {
            p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        }
        assert_eq!(p.plans.len(), 1, "one cached plan");
        assert_eq!(p.registry.total_invocations(), 3);
        // A different space on the same site revalidates but keeps one entry.
        p.loop3(&PLAIN, space(3), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        assert_eq!(p.plans.len(), 1);
        assert_eq!(p.registry.total_invocations(), 4);
    }

    /// A fused pass — `charge(A)` then a reduction `B` whose body also
    /// does `A`'s work — is indistinguishable on the model from launching
    /// `A` then `B`: same clock bits, launch count and per-site census,
    /// same values. Only the host-tile census differs: `A` never ran on
    /// the host, so its tiles are not noted.
    #[test]
    fn charge_then_fused_launch_matches_separate_launches() {
        use mas_field::Array3;
        static FILL: Site = Site::par3("charge_fill");
        static DOT: Site = Site::new("charge_dot", LoopClass::ScalarReduction, 3);
        let sp = IndexSpace3 {
            i0: 1,
            i1: 7,
            j0: 1,
            j1: 6,
            k0: 1,
            k1: 5,
        };
        let point = |i: usize, j: usize, k: usize| (1.0 + (i + 3 * j + 7 * k) as f64).sqrt();
        let run = |fused: bool| {
            let mut p = par_threads(CodeVersion::D2xu, 2);
            let b = p.ctx.mem.register(8 * 8 * 7 * 6, "x");
            let mut a = Array3::zeros(8, 7, 6);
            let v = a.par_view_as::<false>();
            let traffic = Traffic::new(0, 1, 1);
            let dot = if fused {
                p.charge(&FILL, sp, traffic, &[], &[b]);
                p.reduce_scalar_rows(
                    &DOT,
                    sp,
                    Traffic::new(1, 0, 2),
                    &[b],
                    ReduceOp::Sum,
                    0.0,
                    |mut acc, j, k| {
                        for (n, x) in v.row_mut(sp.i0, sp.i1, j, k).iter_mut().enumerate() {
                            *x = point(sp.i0 + n, j, k);
                            acc += *x * *x;
                        }
                        acc
                    },
                )
            } else {
                p.loop3_rows(&FILL, sp, traffic, &[], &[b], |j, k| {
                    for (n, x) in v.row_mut(sp.i0, sp.i1, j, k).iter_mut().enumerate() {
                        *x = point(sp.i0 + n, j, k);
                    }
                });
                p.reduce_scalar_rows(
                    &DOT,
                    sp,
                    Traffic::new(1, 0, 2),
                    &[b],
                    ReduceOp::Sum,
                    0.0,
                    |mut acc, j, k| {
                        for &x in v.row(sp.i0, sp.i1, j, k) {
                            acc += x * x;
                        }
                        acc
                    },
                )
            };
            let census: Vec<_> = p
                .registry
                .sites()
                .map(|s| (s.site.name, s.invocations, s.points, s.model_us.to_bits()))
                .collect();
            let model = (
                p.ctx.wall_us().to_bits(),
                p.ctx.prof.kernel_launches,
                census,
                dot.to_bits(),
            );
            (model, p.ctx.prof.host_tiles, a)
        };
        let (separate, separate_tiles, a_sep) = run(false);
        let (fused, fused_tiles, a_fused) = run(true);
        assert_eq!(fused, separate);
        assert_eq!(separate.1, 2);
        assert_eq!(a_fused.as_slice(), a_sep.as_slice());
        let nk = (sp.k1 - sp.k0) as u64;
        assert_eq!(
            (separate_tiles, fused_tiles),
            (2 * nk, nk),
            "the charged site notes no host tiles"
        );
    }

    /// Single-tile (nk == 1) spaces take the serial fast path in every
    /// kernel form — no engine dispatch, no host-tile census — while
    /// nk > 1 spaces are always counted. Regression test for the old
    /// asymmetry where `fold_tiled`/`reduce_array` still dispatched
    /// nk == 1 through the engine without counting it.
    #[test]
    fn single_tile_spaces_take_serial_path_with_no_census() {
        let thin = IndexSpace3 {
            i0: 0,
            i1: 8,
            j0: 0,
            j1: 8,
            k0: 3,
            k1: 4,
        };
        let mut p = par_threads(CodeVersion::D2xu, 4);
        let b = p.ctx.mem.register(8 * 64, "x");
        let o = p.ctx.mem.register(8 * 8, "o");
        p.ctx.enter_data(b);
        p.ctx.enter_data(o);
        p.loop3(&PLAIN, thin, Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let s = p.reduce_scalar(
            &RED,
            thin,
            Traffic::new(1, 0, 1),
            &[b],
            ReduceOp::Sum,
            0.0,
            |i, j, k| (i + j + k) as f64,
        );
        assert_eq!(s, (0..8).flat_map(|j| (0..8).map(move |i| i + j + 3)).sum::<usize>() as f64);
        let mut out = vec![0.0; 8];
        p.reduce_array(
            &ARED,
            thin,
            Traffic::new(2, 1, 2),
            &[b],
            &[o],
            &mut out,
            |i, _, _| (i, 1.0),
        );
        assert_eq!(out, vec![8.0; 8]);
        assert_eq!(p.ctx.prof.host_tiles, 0, "nk == 1 must not enter the tile census");
        // A taller space is censused in all three forms.
        p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        assert_eq!(p.ctx.prof.host_tiles, 4);
        p.reduce_scalar(&RED, space(4), Traffic::new(1, 0, 1), &[b], ReduceOp::Sum, 0.0, |_, _, _| 1.0);
        assert_eq!(p.ctx.prof.host_tiles, 8);
        let mut out4 = vec![0.0; 4];
        p.reduce_array(&ARED, space(4), Traffic::new(2, 1, 2), &[b], &[o], &mut out4, |i, _, _| (i, 1.0));
        assert_eq!(p.ctx.prof.host_tiles, 12);
    }

    /// The tentpole bit-exactness claim at unit scope: a row-sliced body
    /// computing the same per-point expressions as a scalar body yields
    /// bit-identical arrays and reductions, for any thread count and any
    /// forced tile size.
    #[test]
    fn row_path_matches_scalar_path_bitwise() {
        use mas_field::Array3;
        static FILL_S: Site = Site::par3("row_vs_scalar_fill_s");
        static FILL_R: Site = Site::par3("row_vs_scalar_fill_r");
        static RED_S: Site = Site::new("row_vs_scalar_red_s", LoopClass::ScalarReduction, 3);
        static RED_R: Site = Site::new("row_vs_scalar_red_r", LoopClass::ScalarReduction, 3);

        let run = |threads: usize, tile_k: usize, rows: bool| {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut p = Par::builder(spec)
                .version(CodeVersion::D2xu)
                .threads(threads)
                .tile_k(tile_k)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let b = p.ctx.mem.register(8 * 8192, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(12, 10, 14);
            let sp = IndexSpace3 {
                i0: 1,
                i1: a.s1 - 1,
                j0: 1,
                j1: a.s2 - 1,
                k0: 1,
                k1: a.s3 - 1,
            };
            let point = |i: usize, j: usize, k: usize| {
                (1.0 + (i + 3 * j + 7 * k) as f64).sqrt().sin()
            };
            let (sum, tiles) = {
                let v = a.par_view_as::<false>();
                if rows {
                    p.loop3_rows(&FILL_R, sp, Traffic::new(1, 1, 2), &[b], &[b], |j, k| {
                        let row = v.row_mut(sp.i0, sp.i1, j, k);
                        for (t, x) in row.iter_mut().enumerate() {
                            *x = point(sp.i0 + t, j, k);
                        }
                    });
                    let s = p.reduce_scalar_rows(
                        &RED_R,
                        sp,
                        Traffic::new(1, 0, 1),
                        &[b],
                        ReduceOp::Sum,
                        0.25,
                        |acc, j, k| {
                            v.row(sp.i0, sp.i1, j, k)
                                .iter()
                                .fold(acc, |a, &x| a + x * x)
                        },
                    );
                    (s, p.ctx.prof.host_tiles)
                } else {
                    p.loop3(&FILL_S, sp, Traffic::new(1, 1, 2), &[b], &[b], |i, j, k| {
                        v.set(i, j, k, point(i, j, k));
                    });
                    let s = p.reduce_scalar(
                        &RED_S,
                        sp,
                        Traffic::new(1, 0, 1),
                        &[b],
                        ReduceOp::Sum,
                        0.25,
                        |i, j, k| {
                            let x = v.get(i, j, k);
                            x * x
                        },
                    );
                    (s, p.ctx.prof.host_tiles)
                }
            };
            let hash = a
                .as_slice()
                .iter()
                .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits());
            (hash, sum.to_bits(), tiles)
        };

        let reference = run(1, 0, false);
        for threads in [1usize, 2, 4, 7] {
            for tile_k in [0usize, 1, 3, 64] {
                assert_eq!(
                    run(threads, tile_k, false),
                    reference,
                    "scalar path t={threads} tile_k={tile_k}"
                );
                assert_eq!(
                    run(threads, tile_k, true),
                    reference,
                    "row path t={threads} tile_k={tile_k}"
                );
            }
        }
    }

    #[test]
    fn tile_plans_are_learned_cached_and_overridable() {
        let mut p = par_threads(CodeVersion::D2xu, 4);
        let b = p.ctx.mem.register(8 * 8192, "x");
        p.ctx.enter_data(b);
        p.loop3(&PLAIN, space(8), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let plans = p.tile_plans();
        assert_eq!(plans.len(), 1);
        let (name, nk, tile_k) = plans[0];
        assert_eq!(name, "plain");
        assert_eq!(nk, 8);
        // 8x8 planes = 64 points; the adaptive plan groups planes toward
        // TILE_TARGET_POINTS, clamped to nk.
        assert_eq!(tile_k, auto_tile_k(space(8), 4, 0));
        assert!(tile_k > 1, "small planes must be grouped");

        // The builder override (deck `tile_k`) wins over the heuristic.
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut p2 = Par::builder(spec)
            .version(CodeVersion::D2xu)
            .threads(4)
            .tile_k(3)
            .build();
        p2.ctx.set_phase(gpusim::Phase::Compute);
        let b2 = p2.ctx.mem.register(8 * 8192, "x");
        p2.ctx.enter_data(b2);
        p2.loop3(&PLAIN2, space(8), Traffic::new(1, 1, 0), &[b2], &[b2], |_, _, _| {});
        assert_eq!(p2.tile_plans(), vec![("plain2", 8, 3)]);
        // Single-plane spaces never dispatch and are not reported.
        let thin = IndexSpace3 { i0: 0, i1: 8, j0: 0, j1: 8, k0: 0, k1: 1 };
        p2.loop3(&RED0, thin, Traffic::new(1, 1, 0), &[b2], &[b2], |_, _, _| {});
        assert_eq!(p2.tile_plans().len(), 1);
        static RED0: Site = Site::par3("thin_site");
    }

    #[test]
    fn auto_tile_k_scales_with_plane_size_and_width() {
        let sp = |ni: usize, nk: usize| IndexSpace3 {
            i0: 0,
            i1: ni,
            j0: 0,
            j1: ni,
            k0: 0,
            k1: nk,
        };
        // Tiny planes: group many planes per chunk.
        assert!(auto_tile_k(sp(8, 64), 4, 0) >= 16);
        // Huge planes: one plane is already plenty of work.
        assert_eq!(auto_tile_k(sp(128, 64), 64, 0), 1);
        // Deep k on a narrow engine coarsens for fewer claim hops.
        assert!(auto_tile_k(sp(128, 512), 2, 0) >= 64);
        // Override wins, clamped to nk.
        assert_eq!(auto_tile_k(sp(8, 64), 4, 7), 7);
        assert_eq!(auto_tile_k(sp(8, 4), 4, 100), 4);
        // Degenerate spaces stay serial.
        assert_eq!(auto_tile_k(sp(8, 1), 4, 0), 1);
    }

    #[test]
    fn audit_off_instruments_nothing() {
        let mut p = par_threads(CodeVersion::Ad, 2);
        let b = p.ctx.mem.register(8 * 4096, "x");
        p.ctx.enter_data(b);
        p.loop3(&PLAIN, space(8), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let a = p.race_audit();
        assert!(!a.enabled);
        assert_eq!(a.launches_audited, 0);
        assert!(a.is_clean());
    }

    #[test]
    fn audit_mode_flags_a_cross_tile_read() {
        use mas_field::Array3;
        static SHIFT: Site = Site::par3("shift_k_read");
        static OWN: Site = Site::par3("own_point_only");

        let run = |audit: bool| {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut p = Par::builder(spec)
                .version(CodeVersion::D2xu)
                .threads(2)
                .audit(audit)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let b = p.ctx.mem.register(8 * 1000, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(6, 6, 6);
            let sp = IndexSpace3 {
                i0: 0,
                i1: a.s1,
                j0: 0,
                j1: a.s2,
                k0: 0,
                k1: a.s3,
            };
            {
                let v = a.par_view();
                // Legal: each iteration writes only its own point.
                p.loop3(&OWN, sp, Traffic::new(1, 1, 0), &[b], &[b], |i, j, k| {
                    v.set(i, j, k, (i + j + k) as f64);
                });
                // Illegal: reads the written array at k-1 (a recurrence
                // mistakenly declared Tiling::Outer).
                let sp1 = IndexSpace3 { k0: 1, ..sp };
                p.loop3(&SHIFT, sp1, Traffic::new(2, 1, 0), &[b], &[b], |i, j, k| {
                    let up = v.get(i, j, k - 1);
                    v.set(i, j, k, up + 1.0);
                });
            }
            p.race_audit().clone()
        };

        let a_off = run(false);
        assert_eq!(a_off.launches_audited, 0);
        let a_on = run(true);
        assert!(a_on.enabled);
        assert_eq!(a_on.launches_audited, 2, "both tiled launches audited");
        assert!(
            a_on.violations.iter().all(|v| v.site == "shift_k_read"),
            "only the recurrence site is flagged"
        );
        assert!(!a_on.is_clean());
        assert!(a_on
            .violations
            .iter()
            .any(|v| v.kind == crate::race::RaceKind::ReadWrite));
        let report = a_on.report();
        assert!(report.contains("shift_k_read"));
        assert!(report.contains("Site::serial"));
    }

    /// Audit-on and audit-off runs are bit-identical on contract-clean
    /// sites: the audited pass executes the very same body once per
    /// point and keeps the engine's tile-order partial combine.
    #[test]
    fn audit_mode_is_bit_identical_on_clean_sites() {
        use mas_field::Array3;
        static FILL: Site = Site::par3("audit_fill");
        static FILL_RED: Site = Site::new("audit_fill_red", LoopClass::ScalarReduction, 3);

        let run = |audit: bool| {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut p = Par::builder(spec)
                .version(CodeVersion::Ad2xu)
                .threads(4)
                .audit(audit)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let b = p.ctx.mem.register(8 * 8192, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(16, 16, 16);
            let sp = IndexSpace3 {
                i0: 0,
                i1: a.s1,
                j0: 0,
                j1: a.s2,
                k0: 0,
                k1: a.s3,
            };
            {
                let v = a.par_view();
                p.loop3(&FILL, sp, Traffic::new(1, 1, 0), &[b], &[b], |i, j, k| {
                    v.set(i, j, k, 1.0 / (1.0 + (i + 3 * j + 7 * k) as f64));
                });
            }
            let s = p.reduce_scalar(
                &FILL_RED,
                sp,
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.25,
                |i, j, k| a.get(i, j, k).sin(),
            );
            let hash = a
                .as_slice()
                .iter()
                .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits());
            (hash, s.to_bits(), p.ctx.prof.host_tiles)
        };
        assert_eq!(run(false), run(true));
    }
}
