//! Umbrella perf toggle for the benchmark harness.
//!
//! `bench_baseline` measures the allocation-free hot path against the
//! historical per-step allocation pattern in a single process. Switching
//! [`set_legacy_hot_path`] on reinstates every legacy cost at once — the
//! solver-side churn gated here plus the executor
//! ([`stdpar::perf::set_legacy_alloc`]) and transport
//! ([`minimpi::set_legacy_alloc`]) costs — while producing bit-identical
//! physics; only wall-clock changes.

use std::sync::atomic::{AtomicBool, Ordering};

static LEGACY_HOT_PATH: AtomicBool = AtomicBool::new(false);
static ROW_PATH: AtomicBool = AtomicBool::new(true);

/// Toggle the legacy (pre-reuse) hot path across the whole stack:
/// solver-side per-step allocations, executor scratch reuse, and the
/// pooled halo/collective transport buffers.
pub fn set_legacy_hot_path(on: bool) {
    LEGACY_HOT_PATH.store(on, Ordering::SeqCst);
    stdpar::perf::set_legacy_alloc(on);
    minimpi::set_legacy_alloc(on);
    // Historical per-access capture gate in ParView3 (views constructed
    // while legacy mode is on check the global gate on every access).
    mas_field::set_legacy_gate(on);
}

/// Whether the solver-side legacy hot path is active.
pub fn legacy_hot_path() -> bool {
    LEGACY_HOT_PATH.load(Ordering::Relaxed)
}

/// Toggle the row-sliced kernel path (default on). Kernels that have a
/// row-sliced variant pick it when this is set; the scalar per-point
/// bodies remain the reference implementation and the two must stay
/// bit-identical — the cross-version determinism matrix runs both.
pub fn set_row_path(on: bool) {
    ROW_PATH.store(on, Ordering::SeqCst);
}

/// Whether migrated kernels should take the row-sliced path. Legacy mode
/// pins the historical scalar bodies so `bench_baseline`'s "legacy" lane
/// measures the pre-optimization code, not a hybrid — except in the PCG
/// viscosity solver, which has only its fused row bodies and never reads
/// this switch.
pub fn row_path() -> bool {
    ROW_PATH.load(Ordering::Relaxed) && !legacy_hot_path()
}
