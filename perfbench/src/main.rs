//! `perfbench` — the repository's benchmark: end-to-end step and job
//! latency of the `mas` solver and the `mas_serve` job server, plus a
//! traced run that times each layer's public calls.
//!
//! ```text
//! perfbench --workload relax-small|relax-large|serve-mix --seed N --seconds S
//!           --trace 0|1 --mas-serve PATH [--tiny] [--pin HASHES]
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). A `{"host": …}` line before it records the machine and
//! the deck's working set. A wrong state hash, a failed run or a failed
//! job makes the command exit 1. `--tiny` shrinks every workload for the
//! self-test; `--pin` replaces the pinned hashes of the default seed.
//! See `README.md` in this directory for the workloads and metrics.

mod probes;
mod relax;
mod serve;
mod stats;
mod steal;
mod trace;

use stats::{median, percentile};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["relax-small", "relax-large", "serve-mix"];

/// Set-ups kept per run for `setup_s`: fresh processes for a relax
/// workload, journaled server restarts for `serve-mix`.
const SETUP_SAMPLES: usize = 24;

/// Set-ups timed back to back as one steal-gated segment.
const SETUP_ROUND: usize = 4;

/// Rounds after which [`setup_samples`] stops with what it has.
const SETUP_MAX_ROUNDS: usize = 8;

/// Time set-ups with `sample` in rounds of [`SETUP_ROUND`] until the
/// steal-free rounds hold [`SETUP_SAMPLES`] or [`SETUP_MAX_ROUNDS`] rounds
/// have run; the steal gate ([`steal::Segments::pick`]) chooses the rounds
/// that count. A round's steal share is that of a 100 ms [`steal::spin`]
/// just before it: set-ups leave the CPUs mostly idle and wake them often,
/// and the steal they accrue reads high on any host.
pub fn setup_samples(mut sample: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let mut rounds = steal::Segments::default();
    for _ in 0..SETUP_MAX_ROUNDS {
        let t = steal::Ticks::now();
        steal::spin(Duration::from_millis(100));
        let share = t.share_until(steal::Ticks::now());
        let round = (0..SETUP_ROUND)
            .map(|_| sample())
            .collect::<Result<Vec<f64>, String>>()?;
        rounds.push(share, round);
        if rounds.clean().map(Vec::len).sum::<usize>() >= SETUP_SAMPLES {
            break;
        }
    }
    let picked = rounds.pick("setup rounds", |p| {
        p.iter().map(Vec::len).sum::<usize>() >= SETUP_SAMPLES
    });
    Ok(picked.concat())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mas_serve: Option<PathBuf>,
    tiny: bool,
    pin: Option<String>,
    setup_probe: bool,
    run_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: relax::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        mas_serve: None,
        tiny: false,
        pin: None,
        setup_probe: false,
        run_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut val = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--mas-serve" => a.mas_serve = Some(PathBuf::from(val()?)),
            "--tiny" => a.tiny = true,
            "--pin" => a.pin = Some(val()?),
            "--setup-probe" => a.setup_probe = true,
            "--run-dir" => a.run_dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one invocation reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Size in bytes of the first unified or data cache at `level` of CPU 0.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let lvl: Option<u32> = read("level").and_then(|s| s.trim().parse().ok());
        let kind = read("type").unwrap_or_default();
        if lvl == Some(level) && kind.trim() != "Instruction" {
            let size = read("size")?;
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(n) => (n, 1024),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1024 * 1024),
                    None => (size, 1),
                },
            };
            return num.parse::<u64>().ok().map(|n| n * mult);
        }
    }
    None
}

/// The deck, rank count and thread count a workload runs; the serve deck
/// for `serve-mix`.
fn workload_deck(args: &Args, run_dir: &Path) -> (mas_config::Deck, usize, usize) {
    match relax::config(&args.workload, args.tiny) {
        Some(cfg) => (
            relax::deck(&cfg, args.seed, &run_dir.join("ckpt")),
            cfg.ranks,
            cfg.threads,
        ),
        None => (serve::job_deck(), 1, 1),
    }
}

/// Print the host line: CPUs, caches, and the deck's computed working set
/// against L3. Refuses a workload that generates more threads than this
/// process may run at once (`nproc`).
fn host_line(args: &Args, run_dir: &Path) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machine = mas_bench::baseline::machine_fingerprint();
    let (deck, ranks, threads) = workload_deck(args, run_dir);
    let generating = if args.workload == "serve-mix" {
        serve::CLIENTS
    } else {
        ranks * threads
    };
    if generating > nproc {
        return Err(format!(
            "{} generates {generating} threads but this host has nproc = {nproc}",
            args.workload
        ));
    }
    let sim = mas_mhd::Simulation::builder(&deck)
        .world(ranks)
        .try_build()?;
    let array = sim.state.rho.data.as_slice().len() * 8;
    let step = sim.par.ctx.mem.total_bytes();
    let l2 = cache_bytes(2).unwrap_or(0);
    let l3 = cache_bytes(3).unwrap_or(0);
    let ratio = |x: usize, c: u64| if c > 0 { x as f64 / c as f64 } else { 0.0 };
    println!(
        "{{\"host\": {{\"cpu\": \"{}\", \"nproc\": {nproc}, \"ncpu\": {}, \"l2_bytes\": {l2}, \
         \"l3_bytes\": {l3}, \"workload\": \"{}\", \"grid\": [{}, {}, {}], \"ranks\": {ranks}, \
         \"threads_per_rank\": {threads}, \"generating_threads\": {generating}, \
         \"array_bytes_per_rank\": {array}, \"array_vs_l2\": {:.3}, \
         \"step_working_set_bytes_per_rank\": {step}, \"step_working_set_vs_l3\": {:.3}}}}}",
        machine.cpu.replace(['"', '\\'], ""),
        machine.ncpu,
        args.workload,
        deck.grid.nr,
        deck.grid.nt,
        deck.grid.np,
        ratio(array, l2),
        ratio(step, l3),
    );
    Ok(())
}

/// Spawn this binary as a setup-probe child and time launch → its
/// `first-step` line.
fn relax_setup_sample(args: &Args, run_dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--setup-probe",
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .arg("--run-dir")
    .arg(run_dir)
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn setup probe: {e}"))?;
    let mut line = String::new();
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let got = out
        .read_line(&mut line)
        .map(|_| line.trim() == "first-step")
        .unwrap_or(false);
    let setup = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    if got && status.success() {
        Ok(setup)
    } else {
        Err(format!("setup probe failed ({status})"))
    }
}

/// Removes the per-invocation scratch directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn relax_e2e(args: &Args, cfg: &relax::Relax, run_dir: &Path) -> Result<Outcome, String> {
    let setup = setup_samples(|| relax_setup_sample(args, run_dir))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    if args.workload == "relax-small" {
        attempted += 1;
        if let Err(e) = relax::bench7_check() {
            eprintln!("perfbench: {e}");
            correct = false;
            failed += 1;
        }
    }
    let expected = relax::expected_hashes(cfg, args.seed, args.pin.as_deref(), run_dir)?;
    let l = relax::timed_loop(
        cfg,
        args.seed,
        &expected,
        args.seconds,
        args.tiny,
        run_dir,
        None,
    );
    attempted += l.attempted;
    failed += l.failed;
    let t = &l.timed;
    correct &= l.failed == 0 && !t.plain_ms.is_empty();
    if t.plain_ms.is_empty() {
        return Err("no step intervals were timed".into());
    }
    let total_s: f64 = t.plain_ms.iter().sum::<f64>() / 1e3;
    let peak = mas_bench::baseline::peak_rss_kb() as f64 / 1024.0;
    if peak <= 0.0 {
        return Err("cannot read this process's peak RSS".into());
    }
    eprintln!(
        "perfbench: {} seed {}: {} jobs, {} step intervals in {:.1} s; p50 {:.3} ms, p90 {:.3} ms",
        args.workload,
        args.seed,
        t.job_ms.len(),
        t.plain_ms.len(),
        l.window.as_secs_f64(),
        median(&t.plain_ms),
        percentile(&t.plain_ms, 0.9),
    );
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics: vec![
            metric("steps_per_s", t.plain_ms.len() as f64 / total_s, "steps/s"),
            // No job counts when every job failed.
            metric(
                "jobs_per_s",
                if t.job_ms.is_empty() {
                    0.0
                } else {
                    1e3 / median(&t.job_ms)
                },
                "jobs/s",
            ),
            metric("latency_ms_p50", median(&t.plain_ms), "ms"),
            metric("latency_ms_p90", percentile(&t.plain_ms, 0.9), "ms"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", peak, "MB"),
        ],
    })
}

fn serve_exe(args: &Args) -> Result<&Path, String> {
    args.mas_serve
        .as_deref()
        .filter(|p| p.is_file())
        .ok_or_else(|| "serve needs --mas-serve PATH to a built mas_serve binary".into())
}

fn serve_pin(args: &Args) -> String {
    args.pin.clone().unwrap_or_else(|| serve::PIN.to_string())
}

fn serve_e2e(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let exe = serve_exe(args)?;
    let m = serve::run_mix(
        exe,
        args.seed,
        args.seconds,
        args.tiny,
        &serve_pin(args),
        run_dir,
        None,
    )?;
    let miss: Vec<f64> = m
        .samples
        .iter()
        .filter(|s| !s.cached)
        .map(|s| s.total_ms)
        .collect();
    let hit: Vec<f64> = m
        .samples
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.total_ms)
        .collect();
    if miss.is_empty() || hit.is_empty() {
        if m.failed == 0 {
            return Err("the load window completed no hit or no miss".into());
        }
        // Nothing to time: report the failures.
        let zeros = [
            "steps_per_s",
            "jobs_per_s",
            "latency_ms_p50",
            "latency_ms_p90",
            "setup_s",
            "peak_rss_mb",
        ];
        let units = ["steps/s", "jobs/s", "ms", "ms", "s", "MB"];
        return Ok(Outcome {
            attempted: m.attempted,
            failed: m.failed,
            correct: false,
            metrics: zeros
                .iter()
                .zip(units)
                .map(|(n, u)| metric(n, 0.0, u))
                .collect(),
        });
    }
    let win = m.counted_s;
    eprintln!(
        "perfbench: serve-mix seed {}: {} jobs in {:.1} s counted ({} hits p50 {:.3} / p90 {:.3} ms, \
         {} misses p50 {:.3} / p90 {:.3} ms)",
        args.seed,
        m.samples.len(),
        win,
        hit.len(),
        median(&hit),
        percentile(&hit, 0.9),
        miss.len(),
        median(&miss),
        percentile(&miss, 0.9),
    );
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        correct: m.failed == 0,
        metrics: vec![
            // Every miss runs the job deck's steps; a hit runs none.
            metric(
                "steps_per_s",
                (miss.len() * serve::job_deck().time.n_steps) as f64 / win,
                "steps/s",
            ),
            metric("jobs_per_s", m.samples.len() as f64 / win, "jobs/s"),
            metric("latency_ms_p50", median(&miss), "ms"),
            metric("latency_ms_p90", percentile(&miss, 0.9), "ms"),
            metric("setup_s", median(&m.setup_s), "s"),
            metric("peak_rss_mb", m.peak_rss_mb, "MB"),
        ],
    })
}

/// Per-layer serve readings from client samples and counter deltas.
fn serve_layer(
    samples: &[serve::Sample],
    d: serve::Stats,
    rtt_ms: (f64, f64),
) -> Result<Vec<Metric>, String> {
    let pick = |cached: bool, f: fn(&serve::Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.cached == cached)
            .map(f)
            .collect()
    };
    let hit_submit = pick(true, |s| s.submit_ms);
    let miss_submit = pick(false, |s| s.submit_ms);
    let miss_wait = pick(false, |s| s.wait_ms);
    let hit_total = pick(true, |s| s.total_ms);
    if hit_submit.is_empty() || miss_submit.is_empty() {
        return Err("serve probe saw no hit or no miss".into());
    }
    let lookups = (d.cache_hits + d.cache_misses).max(1) as f64;
    Ok(vec![
        metric("serve.submit_hit_ms_p50", median(&hit_submit), "ms"),
        metric("serve.submit_miss_ms_p50", median(&miss_submit), "ms"),
        metric("serve.wait_miss_ms_p50", median(&miss_wait), "ms"),
        metric("serve.hit_ms_p50", median(&hit_total), "ms"),
        metric("serve.hit_ms_p90", percentile(&hit_total, 0.9), "ms"),
        metric(
            "serve.cache_hit_ratio",
            d.cache_hits as f64 / lookups,
            "ratio",
        ),
        metric("serve.cache_hits", d.cache_hits as f64, "count"),
        metric("serve.cache_misses", d.cache_misses as f64, "count"),
        metric("serve.steps_run", d.total_steps as f64, "count"),
        metric("serve.wire.keepalive_rtt_ms", rtt_ms.0, "ms"),
        metric("serve.wire.fresh_conn_rtt_ms", rtt_ms.1, "ms"),
    ])
}

fn delta(a: serve::Stats, b: serve::Stats) -> serve::Stats {
    serve::Stats {
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        total_steps: b.total_steps - a.total_steps,
    }
}

/// The traced run: the workload with every other job traced, then the
/// per-layer probes on the workload's deck.
fn traced(args: &Args, run_dir: &Path, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let exe = serve_exe(args)?;
    let reps = if args.tiny { 2 } else { 7 };
    let (deck, ranks, _) = workload_deck(args, run_dir);
    let (attempted, failed, overhead_pct, serve_metrics, report, step_ms);
    match relax::config(&args.workload, args.tiny) {
        Some(cfg) => {
            let expected = relax::expected_hashes(&cfg, args.seed, args.pin.as_deref(), run_dir)?;
            let l = relax::timed_loop(
                &cfg,
                args.seed,
                &expected,
                args.seconds / 2.0,
                args.tiny,
                run_dir,
                Some(tracer),
            );
            let t = l.timed;
            if t.plain_ms.is_empty() || t.traced_ms.is_empty() {
                return Err("no step intervals were timed".into());
            }
            (attempted, failed) = (l.attempted, l.failed);
            overhead_pct = 100.0 * (median(&t.traced_ms) / median(&t.plain_ms) - 1.0);
            step_ms = median(&[t.plain_ms, t.traced_ms].concat());
            report = l.last_report.ok_or("no job succeeded")?;
            // The relax workloads bypass the server: its layers are read
            // from a short exchange with the serve deck.
            let probe = serve::probe_exchange(
                exe,
                args.seed,
                if args.tiny { 2 } else { 6 },
                serve::PIN,
                run_dir,
                tracer,
            )?;
            serve_metrics = serve_layer(&probe.samples, probe.stats, probe.rtt_ms)?;
        }
        None => {
            let pin = serve_pin(args);
            let mix = serve::run_mix(
                exe,
                args.seed,
                args.seconds / 2.0,
                args.tiny,
                &pin,
                run_dir,
                Some(tracer),
            )?;
            (attempted, failed) = (mix.attempted, mix.failed);
            let hits = |traced: bool| -> Vec<f64> {
                mix.samples
                    .iter()
                    .filter(|s| s.cached && s.traced == traced)
                    .map(|s| s.total_ms)
                    .collect()
            };
            let (on, off) = (hits(true), hits(false));
            if on.is_empty() || off.is_empty() {
                return Err("the traced load window completed too few hits".into());
            }
            overhead_pct = 100.0 * (median(&on) / median(&off) - 1.0);
            let rtt = mix
                .rtt_ms
                .ok_or("a traced load window measures round trips")?;
            serve_metrics = serve_layer(&mix.samples, delta(mix.before, mix.after), rtt)?;
            // The job itself, in-process: its kernel counters and host
            // step time.
            let job = relax::run_job(&deck, relax::VERSION, 1, args.seed, None);
            let intervals = job.step_intervals_ms();
            report = job.result?;
            if relax::hashes(&report) != pin {
                return Err(format!(
                    "in-process serve job hashes {}",
                    relax::hashes(&report)
                ));
            }
            step_ms = median(&intervals);
        }
    }
    let steps = report.ranks[0].steps.max(1) as f64;
    let r0 = &report.ranks[0];
    let all_bytes: f64 = report.ranks.iter().map(|r| r.kernel_bytes).sum();
    let p = probes::mhd_probes(
        &deck,
        relax::VERSION,
        ranks,
        args.seed,
        reps,
        run_dir,
        tracer,
    )?;
    let spec = serve::job_spec(&deck, args.seed, "probe");
    let mut m = vec![
        metric(
            "stdpar.launches_per_step",
            r0.kernel_launches as f64 / steps,
            "count",
        ),
        metric(
            "stdpar.tiles_per_step",
            r0.host_tiles as f64 / steps,
            "count",
        ),
        metric("stdpar.empty_launch_us", p.empty_launch_us, "us"),
        metric(
            "gpusim.sim_minutes",
            report
                .ranks
                .iter()
                .map(|r| r.wall_minutes())
                .fold(0.0, f64::max),
            "min",
        ),
        metric(
            "gpusim.kernel_bytes_per_step",
            r0.kernel_bytes / steps,
            "bytes",
        ),
        metric(
            "mhd.computed_gbps",
            all_bytes / steps / (step_ms / 1e3) / 1e9,
            "GB/s",
        ),
        metric("mhd.pcg.iters_per_step", p.pcg_iters, "count"),
        metric(
            "mhd.pcg.us_per_iter",
            1e3 * p.pcg_ms / p.pcg_iters.max(1.0),
            "us",
        ),
        metric("mhd.pcg.share", p.pcg_ms / p.step_ms, "ratio"),
        metric("mhd.advect.continuity_us", p.continuity_us, "us"),
        metric("mhd.cfl_dt_us", p.cfl_us, "us"),
        metric("mhd.halo.exchange_us", p.halo_us, "us"),
        metric("mhd.halo.bytes", p.halo_bytes, "bytes"),
        metric("mhd.checkpoint.save_ms", p.save_ms, "ms"),
        metric("mhd.checkpoint.bytes", p.save_bytes, "bytes"),
        metric("mhd.setup_ms", p.setup_ms, "ms"),
        metric("minimpi.allreduce_us", p.allreduce_us, "us"),
        metric("minimpi.barrier_us", p.barrier_us, "us"),
        metric("io.dump.validate_ms", p.validate_ms, "ms"),
        metric(
            "serve.journal.append_us",
            probes::journal_append_us(
                &spec,
                if args.tiny { 5 } else { 50 },
                &run_dir.join("journal-probe"),
                tracer,
            )?,
            "us",
        ),
        metric(
            "serve.wire.parse_submit_us",
            probes::parse_submit_us(&spec, reps * 5, tracer)?,
            "us",
        ),
    ];
    m.extend(serve_metrics);
    m.push(metric("trace.overhead_pct", overhead_pct, "%"));
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: m,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_run");
    let run_dir = RunDir(root.join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&run_dir.0)
        .map_err(|e| format!("create {}: {e}", run_dir.0.display()))?;
    host_line(args, &run_dir.0)?;
    if !args.trace {
        return match relax::config(&args.workload, args.tiny) {
            Some(cfg) => relax_e2e(args, &cfg, &run_dir.0),
            None => serve_e2e(args, &run_dir.0),
        };
    }
    let tracer = Arc::new(Tracer::new());
    let outcome = traced(args, &run_dir.0, &tracer)?;
    let path = root
        .join("traces")
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    tracer
        .write_chrome_trace(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let cfg = relax::config(&args.workload, args.tiny);
        let dir = args.run_dir.clone().unwrap_or_default();
        return match cfg.map(|c| relax::setup_probe_child(&c, args.seed, &dir)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("perfbench: setup probe: {e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    match run(&args) {
        Ok(mut out) => {
            if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not finite", m.name);
                out.correct = false;
                out.metrics
                    .iter_mut()
                    .filter(|m| !m.value.is_finite())
                    .for_each(|m| m.value = 0.0);
            }
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: outputs are NOT correct ({} of {} operations failed)",
                    out.failed, out.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
