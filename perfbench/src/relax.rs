//! The `relax-*` workloads: repeated supervised runs of the quickstart
//! relaxation, timed step by step from rank 0's progress events.
//!
//! A job is one call to [`mas_mhd::run_supervised_with_progress`] with a
//! fixed step count, so every job of a run has the same state hash and
//! is checked against it. The progress sink only stamps the host clock.

use crate::stats::{self, MIN_SAMPLES_P90};
use crate::steal;
use crate::trace::Tracer;
use gpusim::DeviceSpec;
use mas_bench::baseline::fold_hashes;
use mas_config::{Deck, GridCfg};
use mas_mhd::{progress_fn, run_supervised_with_progress, MultiRankReport, ProgressEvent};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stdpar::CodeVersion;

/// The seed whose state hashes are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// BENCH_7's 1-rank hash of the 20×16×24 quickstart deck after 10 steps
/// (its `state_hash`, the [`fold_hashes`] of the rank hashes).
pub const BENCH7_HASH: &str = "9b8592cc36c27c36";

/// One relax workload's shape.
#[derive(Clone, Debug)]
pub struct Relax {
    /// Global grid (nr, nt, np).
    pub grid: (usize, usize, usize),
    /// Ranks (threads of one process, one φ slab each).
    pub ranks: usize,
    /// Host threads per rank.
    pub threads: usize,
    /// Steps per job.
    pub steps: usize,
    /// Checkpoint cadence in steps (0 = none).
    pub ckpt_interval: usize,
    /// Rank state hashes of one job at [`DEFAULT_SEED`], comma-joined.
    pub pin: &'static str,
}

/// The code version every timed job runs under.
pub const VERSION: CodeVersion = CodeVersion::D2xu;

/// The shape of `workload`, or `None` for a non-relax workload. `tiny`
/// shrinks it for the benchmark's self-test.
pub fn config(workload: &str, tiny: bool) -> Option<Relax> {
    let cfg = match (workload, tiny) {
        // BENCH_7's cache-resident deck: dispatch, minimpi, supervisor
        // and checkpoint I/O dominate. 21 steps give 20 step intervals,
        // four of which carry a checkpoint (after steps 5, 10, 15, 20).
        ("relax-small", false) => Relax {
            grid: (20, 16, 24),
            ranks: 2,
            threads: 1,
            steps: 21,
            ckpt_interval: 5,
            pin: "77afcc67a8bb70b2,c99b70c817386edc",
        },
        ("relax-small", true) => Relax {
            grid: (12, 10, 12),
            ranks: 2,
            threads: 1,
            steps: 6,
            ckpt_interval: 5,
            pin: "27de6339a0f270b6,496f6f0440e92b78",
        },
        // Every cell array is larger than a core's L2 and one step's
        // arrays together exceed L3: kernel bytes, PCG and engine tiling
        // dominate. φ is 48 (not 96) so that a 20 s run still times more
        // than 110 step intervals on a 2-core host.
        ("relax-large", false) => Relax {
            grid: (96, 64, 48),
            ranks: 1,
            threads: 2,
            steps: 20,
            ckpt_interval: 0,
            pin: "9de8455113528061",
        },
        ("relax-large", true) => Relax {
            grid: (16, 12, 16),
            ranks: 1,
            threads: 2,
            steps: 4,
            ckpt_interval: 0,
            pin: "3f9ebc7512d61706",
        },
        _ => return None,
    };
    Some(cfg)
}

/// The inner-boundary shear amplitude the seed selects: 0, 0.01, …, 0.05.
pub fn perturb(seed: u64) -> f64 {
    0.01 * (seed % 6) as f64
}

/// The workload's deck for `seed`, checkpointing (if at all) under
/// `ckpt_dir`.
pub fn deck(cfg: &Relax, seed: u64, ckpt_dir: &Path) -> Deck {
    let mut d = Deck::preset_quickstart();
    let (nr, nt, np) = cfg.grid;
    d.grid = GridCfg {
        nr,
        nt,
        np,
        rmax: 10.0,
    };
    d.time.n_steps = cfg.steps;
    d.output.hist_interval = 0;
    d.host_threads = cfg.threads;
    d.physics.perturb = perturb(seed);
    d.checkpoint.interval = cfg.ckpt_interval;
    d.checkpoint.dir = ckpt_dir.to_string_lossy().into_owned();
    d
}

/// Rank state hashes of a finished run, comma-joined in rank order.
pub fn hashes(report: &MultiRankReport) -> String {
    report
        .ranks
        .iter()
        .map(|r| format!("{:016x}", r.state_hash))
        .collect::<Vec<_>>()
        .join(",")
}

/// One host-clock observation from rank 0's progress stream.
#[derive(Clone, Copy, Debug)]
enum Mark {
    Step,
    Checkpoint,
}

/// Shortest span of consecutive step intervals the steal gate judges as
/// one segment: long enough to hold ~20 scheduler ticks on two CPUs.
const SEGMENT: Duration = Duration::from_millis(100);

/// One finished job.
pub struct Job {
    /// The run's report, or its error.
    pub result: Result<MultiRankReport, String>,
    marks: Vec<(Mark, Instant, steal::Ticks)>,
}

impl Job {
    fn steps(&self) -> Vec<(Instant, steal::Ticks)> {
        self.marks
            .iter()
            .filter(|(m, ..)| matches!(m, Mark::Step))
            .map(|&(_, t, ticks)| (t, ticks))
            .collect()
    }

    /// Host intervals between rank 0's consecutive step events, in ms.
    pub fn step_intervals_ms(&self) -> Vec<f64> {
        Self::intervals_ms(&self.steps())
    }

    fn intervals_ms(steps: &[(Instant, steal::Ticks)]) -> Vec<f64> {
        steps
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
            .collect()
    }

    /// The step intervals cut into steal-gate segments, each with its
    /// steal share: consecutive intervals form one segment until it spans
    /// [`SEGMENT`] (the job's last segment may be shorter).
    pub fn step_segments(&self) -> Vec<(f64, Vec<f64>)> {
        let steps = self.steps();
        let mut segments = Vec::new();
        let mut first = 0;
        for i in 1..steps.len() {
            if steps[i].0 - steps[first].0 >= SEGMENT || i + 1 == steps.len() {
                segments.push((
                    steps[first].1.share_until(steps[i].1),
                    Self::intervals_ms(&steps[first..=i]),
                ));
                first = i;
            }
        }
        segments
    }
}

/// Where a traced job's spans go: the tracer and the job's group id.
pub type JobTrace = (Arc<Tracer>, u64);

/// Run `deck` once under `version`, stamping rank 0's progress events.
/// With `trace`, the progress sink also records each step and checkpoint
/// commit as a span as it happens (so the tracer's cost falls inside the
/// timed step intervals), under one `mhd.run_supervised` span.
pub fn run_job(
    deck: &Deck,
    version: CodeVersion,
    ranks: usize,
    seed: u64,
    trace: Option<JobTrace>,
) -> Job {
    let start = Instant::now();
    let job_span = trace
        .as_ref()
        .map(|(t, id)| t.begin("mhd.run_supervised", "mhd", start, *id, None, 0));
    let marks: Arc<Mutex<Vec<(Mark, Instant, steal::Ticks)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(deck.time.n_steps + 8)));
    let sink = {
        let marks = Arc::clone(&marks);
        let trace = trace.clone();
        progress_fn(move |ev| {
            let (mark, step) = match ev {
                ProgressEvent::Step { rank: 0, step, .. } => (Mark::Step, *step),
                ProgressEvent::CheckpointCommitted { rank: 0, step, .. } => {
                    (Mark::Checkpoint, *step)
                }
                _ => return true,
            };
            let (now, ticks) = (Instant::now(), steal::Ticks::now());
            let mut marks = marks.lock().expect("mark list poisoned by a panicked rank");
            if let Some((tracer, id)) = &trace {
                let prev = marks
                    .iter()
                    .rev()
                    .find(|(m, ..)| matches!(m, Mark::Step))
                    .map(|&(_, t, _)| t);
                let (name, cat) = match (mark, prev) {
                    (Mark::Step, None) => (format!("setup+step {step}"), "mhd"),
                    (Mark::Step, Some(_)) => (format!("step {step}"), "mhd"),
                    (Mark::Checkpoint, _) => (format!("checkpoint {step}"), "io"),
                };
                tracer.record(name, cat, prev.unwrap_or(start), now, *id, job_span, 0);
            }
            marks.push((mark, now, ticks));
            true
        })
    };
    let result = run_supervised_with_progress(
        deck,
        version,
        DeviceSpec::a100_40gb(),
        ranks,
        seed,
        false,
        Some(sink),
    )
    .map_err(|e| e.to_string());
    if let (Some((tracer, _)), Some(span)) = (&trace, job_span) {
        tracer.end(span, Instant::now());
    }
    let marks = std::mem::take(&mut *marks.lock().expect("mark list poisoned by a panicked rank"));
    Job { result, marks }
}

/// Setup-probe child: run the workload's deck for one step and print
/// `first-step` on stdout as soon as rank 0 completes it.
pub fn setup_probe_child(cfg: &Relax, seed: u64, run_dir: &Path) -> Result<(), String> {
    use std::io::Write as _;
    let mut d = deck(cfg, seed, &run_dir.join("ckpt-setup"));
    d.time.n_steps = 1;
    let sink = progress_fn(|ev| {
        if let ProgressEvent::Step {
            rank: 0, step: 1, ..
        } = ev
        {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "first-step");
            let _ = out.flush();
        }
        true
    });
    run_supervised_with_progress(
        &d,
        VERSION,
        DeviceSpec::a100_40gb(),
        cfg.ranks,
        seed,
        false,
        Some(sink),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// The state hashes every timed job must reproduce: the pin at the
/// default seed (or `pin_override`), otherwise one untimed reference run
/// under version A with one host thread.
pub fn expected_hashes(
    cfg: &Relax,
    seed: u64,
    pin_override: Option<&str>,
    run_dir: &Path,
) -> Result<String, String> {
    if let Some(pin) = pin_override {
        return Ok(pin.to_string());
    }
    if seed == DEFAULT_SEED {
        return Ok(cfg.pin.to_string());
    }
    let dir = run_dir.join("ckpt-reference");
    let mut d = deck(cfg, seed, &dir);
    d.host_threads = 1;
    let job = run_job(&d, CodeVersion::A, cfg.ranks, seed, None);
    let _ = std::fs::remove_dir_all(&dir);
    job.result
        .map(|r| hashes(&r))
        .map_err(|e| format!("reference run failed: {e}"))
}

/// BENCH_7 continuity: the relax-small deck without the seed's shear,
/// run at 1 rank for 10 steps without checkpointing.
pub fn bench7_check() -> Result<(), String> {
    let cfg = config("relax-small", false).expect("relax-small is a relax workload");
    let mut d = deck(&cfg, 0, Path::new(""));
    d.time.n_steps = 10;
    d.checkpoint.interval = 0;
    let job = run_job(&d, VERSION, 1, DEFAULT_SEED, None);
    let got = job.result.map(|r| {
        let ranks: Vec<u64> = r.ranks.iter().map(|r| r.state_hash).collect();
        fold_hashes(&ranks)
    })?;
    if got == BENCH7_HASH {
        Ok(())
    } else {
        Err(format!("BENCH_7 deck hash {got}, expected {BENCH7_HASH}"))
    }
}

/// Step intervals and job durations a run counts.
#[derive(Default)]
pub struct Timed {
    /// Step intervals of untraced jobs, ms.
    pub plain_ms: Vec<f64>,
    /// Step intervals of traced jobs, ms (empty without a tracer).
    pub traced_ms: Vec<f64>,
    /// Wall time of each job that produced the expected hashes, ms.
    pub job_ms: Vec<f64>,
}

/// What the timed loop measured.
pub struct Loop {
    /// The step intervals and jobs the steal gate counts.
    pub timed: Timed,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored or produced the wrong hashes.
    pub failed: u64,
    /// Wall time of the loop.
    pub window: Duration,
    /// The last good job's report (its counters feed the per-layer view).
    pub last_report: Option<MultiRankReport>,
}

/// Run jobs back to back for at least `seconds` and, unless `tiny`, until
/// at least [`MIN_SAMPLES_P90`] steal-free step intervals are timed, within
/// a cap of twice `seconds`. The steal gate ([`steal::Segments::pick`])
/// judges step intervals in segments of at least [`SEGMENT`], and each job
/// as a whole for the job times. With a tracer, every other job is traced.
pub fn timed_loop(
    cfg: &Relax,
    seed: u64,
    expected: &str,
    seconds: f64,
    tiny: bool,
    run_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Loop {
    let ckpt = run_dir.join("ckpt");
    let d = deck(cfg, seed, &ckpt);
    // Warm-up: code, allocator and thread pool, before the clock starts.
    {
        let mut w = d.clone();
        w.time.n_steps = 2;
        let _ = run_job(&w, VERSION, cfg.ranks, seed, None);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    let min_samples = if tiny { 1 } else { MIN_SAMPLES_P90 };
    // Step segments are (traced, intervals).
    let enough = |segments: Vec<&(bool, Vec<f64>)>| {
        let count = |traced: bool| -> usize {
            segments
                .iter()
                .filter(|s| s.0 == traced)
                .map(|s| s.1.len())
                .sum()
        };
        count(false) >= min_samples && (tracer.is_none() || count(true) >= min_samples)
    };
    let mut steps: steal::Segments<(bool, Vec<f64>)> = steal::Segments::default();
    let mut jobs: steal::Segments<f64> = steal::Segments::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_report = None;
    let start = Instant::now();
    loop {
        let trace = tracer
            .filter(|_| attempted % 2 == 1)
            .map(|t| (Arc::clone(t), attempted + 1));
        let traced = trace.is_some();
        let (t0, ticks) = (Instant::now(), steal::Ticks::now());
        let job = run_job(&d, VERSION, cfg.ranks, seed, trace);
        let job_ms = t0.elapsed().as_secs_f64() * 1e3;
        let job_share = ticks.share_until(steal::Ticks::now());
        let _ = std::fs::remove_dir_all(&ckpt);
        attempted += 1;
        let good = match &job.result {
            Ok(report) if hashes(report) == expected => true,
            Ok(report) => {
                if failed < 3 {
                    eprintln!(
                        "perfbench: job {attempted} hashes {} != expected {expected}",
                        hashes(report)
                    );
                }
                false
            }
            Err(e) => {
                if failed < 3 {
                    eprintln!("perfbench: job {attempted} failed: {e}");
                }
                false
            }
        };
        failed += u64::from(!good);
        for (share, intervals) in job.step_segments() {
            steps.push(share, (traced, intervals));
        }
        if good {
            jobs.push(job_share, job_ms);
        }
        if let Ok(report) = job.result {
            last_report = Some(report);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && enough(steps.clean().collect()))
            || elapsed >= 2.0 * seconds.max(1.0)
        {
            break;
        }
    }
    let mut timed = Timed {
        job_ms: jobs.pick("jobs", |p| p.len() >= 3),
        ..Timed::default()
    };
    for (traced, intervals) in steps.pick("step segments", |p| enough(p.iter().collect())) {
        if traced {
            timed.traced_ms.extend(intervals);
        } else {
            timed.plain_ms.extend(intervals);
        }
    }
    if timed.plain_ms.len() < min_samples {
        eprintln!(
            "perfbench: only {} step intervals timed; p90 has {} beyond it",
            timed.plain_ms.len(),
            if timed.plain_ms.is_empty() {
                0
            } else {
                stats::beyond(&timed.plain_ms, 0.9)
            }
        );
    }
    Loop {
        timed,
        attempted,
        failed,
        window: start.elapsed(),
        last_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_selects_perturbation_in_range() {
        for seed in 0..20 {
            let p = perturb(seed);
            assert!((0.0..=0.05 + 1e-12).contains(&p));
        }
        assert_eq!(perturb(0), 0.0);
    }

    #[test]
    fn tiny_relax_small_pin_holds_for_every_version_and_thread_count() {
        let cfg = config("relax-small", true).unwrap();
        let d = deck(&cfg, DEFAULT_SEED, Path::new(""));
        let mut d = d;
        d.checkpoint.interval = 0;
        for version in CodeVersion::ALL {
            for threads in [1, 2] {
                d.host_threads = threads;
                let job = run_job(&d, version, cfg.ranks, DEFAULT_SEED, None);
                let got = hashes(&job.result.unwrap());
                assert_eq!(got, cfg.pin, "{} with {threads} thread(s)", version.tag());
            }
        }
    }

    #[test]
    fn perturbed_decks_stay_finite() {
        let cfg = config("relax-small", true).unwrap();
        for seed in [0, 2, 5] {
            let mut d = deck(&cfg, seed, Path::new(""));
            d.checkpoint.interval = 0;
            d.output.hist_interval = 1;
            let job = run_job(&d, VERSION, cfg.ranks, seed, None);
            assert_eq!(job.step_intervals_ms().len(), cfg.steps - 1);
            let report = job.result.unwrap();
            let hist = report.hist();
            assert_eq!(hist.len(), cfg.steps);
            for h in hist {
                let d = h.diag;
                for x in [d.mass, d.ekin, d.emag, d.etherm, d.temp_min, d.speed_max] {
                    assert!(
                        x.is_finite(),
                        "perturb {} step {}: {d:?}",
                        perturb(seed),
                        h.step
                    );
                }
            }
        }
    }
}
