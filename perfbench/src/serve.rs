//! The `serve-mix` workload: the real `mas_serve` binary, journaled
//! (`--state-dir`, so every state transition is fsync'd), driven over
//! loopback TCP by two closed-loop clients.
//!
//! Each client is a [`RemoteClient`], as users of the server run it: a
//! fresh connection per request. It submits a job, waits for it, fetches
//! its result and checks the hash, then sends the next. Of each client's
//! consecutive pair of submissions, one (in seeded order) repeats a
//! recently completed spec (a cache hit: wire + journal only) and the
//! other carries a fresh seed (a cache miss: queue, run and journal).

use crate::stats::{median, MIN_SAMPLES_P90};
use crate::steal;
use crate::trace::Tracer;
use mas_config::{Deck, GridCfg};
use mas_serve::{wire, JobSpec, RemoteClient};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stdpar::CodeVersion;

/// State hash of every serve-mix job (the jitter seed does not touch the
/// physics, so every job of the deck has it).
pub const PIN: &str = "99d1152caca0d6a4";

/// Clients of the load phase (the generating side), each with at most one
/// connection open at a time.
pub const CLIENTS: usize = 2;

/// Completed specs a hit may repeat (well inside the server's 256-entry
/// result cache, so a repeat is still cached).
const RECENT: usize = 32;

/// Failed submissions after which the load phase stops early.
const MAX_FAILURES: u64 = 10;

/// `stats` round trips per connection style in [`stats_rtt_ms`].
const RTT_SAMPLES: usize = 20;

/// A segment of the load window's steal gate.
const SLICE: Duration = Duration::from_millis(500);

/// Jobs completed before the restarts, so each restart replays a journal.
const PRELUDE_JOBS: u64 = 4;

/// Jobs of the load window after which the server's peak RSS is read.
/// The server keeps a record of every job it has run, so its memory grows
/// with the jobs done; reading it at a fixed count keeps a faster server
/// from reading as a larger one.
const RSS_AT_JOBS: u64 = 300;

/// The job every submission carries: quickstart physics on a 12×10×12
/// grid, 10 steps, one rank with one host thread.
pub fn job_deck() -> Deck {
    let mut d = Deck::preset_quickstart();
    d.grid = GridCfg {
        nr: 12,
        nt: 10,
        np: 12,
        rmax: 8.0,
    };
    d.time.n_steps = 10;
    d.output.hist_interval = 0;
    d.host_threads = 1;
    d
}

/// The spec for one submission.
pub fn job_spec(deck: &Deck, seed: u64, tenant: &str) -> JobSpec {
    JobSpec::new(deck.clone())
        .version(CodeVersion::D2xu)
        .ranks(1)
        .seed(seed)
        .tenant(tenant)
}

/// SplitMix64: the client-side decision stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A `mas_serve` child process on an ephemeral loopback port.
pub struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn a journaled 2-device, 2-worker server over `state_dir` and
    /// wait until it announces its address.
    pub fn spawn(exe: &Path, state_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--devices",
                "2",
                "--workers",
                "2",
                "--state-dir",
            ])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("mas_serve exited before announcing its address".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        // Keep the pipe drained so the server never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// A client of this server with the default retry policy.
    pub fn client(&self) -> RemoteClient {
        RemoteClient::connect(self.addr.clone())
    }

    /// The server's peak resident set (`VmHWM` of its `/proc` status;
    /// `mas_bench::baseline::peak_rss_kb` reads only the calling
    /// process), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Ask the server to shut down and wait for it to exit (killing it if
    /// it has not within 30 s).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("mas_serve exited with {s}")),
            None => Err("mas_serve did not exit after shutdown".into()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// One finished submission, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The server answered from its result cache.
    pub cached: bool,
    /// Submit sent → `ok id=` received, ms.
    pub submit_ms: f64,
    /// `wait` sent → terminal status received, ms.
    pub wait_ms: f64,
    /// Submit sent → terminal status received, ms.
    pub total_ms: f64,
    /// Whether this job was traced.
    pub traced: bool,
    /// When the terminal status arrived.
    pub end: Instant,
}

/// Outcome of one submission.
enum Done {
    Ok(Sample),
    Failed(String),
}

/// Submit the job for `seed`, wait for it and check its result hash. A
/// traced job records its spans while the clock runs, so their cost is
/// part of the times it reports.
fn one_job(
    client: &RemoteClient,
    deck: &Deck,
    seed: u64,
    tenant: &str,
    expected: &str,
    tracer: Option<(&Tracer, usize)>,
) -> Done {
    let t0 = Instant::now();
    let id = match client.submit(&job_spec(deck, seed, tenant)) {
        Ok(id) => id,
        Err(e) => return Done::Failed(format!("submit: {e}")),
    };
    let job = tracer.map(|(t, lane)| {
        let job = t.begin("serve.job", "serve", t0, id, None, lane);
        t.record(
            "serve.submit",
            "serve",
            t0,
            Instant::now(),
            id,
            Some(job),
            lane,
        );
        job
    });
    let t1 = Instant::now();
    let status = match client.wait(id) {
        Ok(status) => status,
        Err(e) => return Done::Failed(format!("wait id={id}: {e}")),
    };
    if let (Some((t, lane)), Some(job)) = (tracer, job) {
        let now = Instant::now();
        t.record("serve.wait", "serve", t1, now, id, Some(job), lane);
        t.end(job, now);
    }
    let t2 = Instant::now();
    if RemoteClient::field(&status, "state").as_deref() != Ok("done") {
        return Done::Failed(format!("job {id}: {status}"));
    }
    match client.result(id) {
        Ok(result) if RemoteClient::field(&result, "hashes").as_deref() == Ok(expected) => {}
        Ok(result) => {
            return Done::Failed(format!(
                "job {id}: result {result}, expected hashes={expected}"
            ))
        }
        Err(e) => return Done::Failed(format!("result id={id}: {e}")),
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Done::Ok(Sample {
        cached: RemoteClient::field(&status, "cached").as_deref() == Ok("true"),
        submit_ms: ms(t0, t1),
        wait_ms: ms(t1, t2),
        total_ms: ms(t0, t2),
        traced: tracer.is_some(),
        end: t2,
    })
}

/// The server's counters from one `stats` request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Simulation steps executed by all jobs.
    pub total_steps: u64,
}

/// Fetch the server's counters.
pub fn stats(client: &RemoteClient) -> Result<Stats, String> {
    let reply = client.stats()?;
    let num = |k: &str| {
        RemoteClient::field(&reply, k)
            .and_then(|v| v.parse::<u64>().map_err(|e| format!("{k}: {e}")))
    };
    Ok(Stats {
        cache_hits: num("cache_hits")?,
        cache_misses: num("cache_misses")?,
        total_steps: num("total_steps")?,
    })
}

/// Median round trip of a `stats` request, ms: on one kept-alive
/// connection, and through [`RemoteClient`] (a fresh connection per
/// request). The first shows what a client that reuses its connection
/// would pay per reply.
pub fn stats_rtt_ms(server: &Server, n: usize) -> Result<(f64, f64), String> {
    let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = &stream;
    let client = server.client();
    let mut kept = Vec::with_capacity(n);
    let mut fresh = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        writer
            .write_all(b"stats\n")
            .map_err(|e| format!("send: {e}"))?;
        match wire::read_request_line(&mut reader).map_err(|e| format!("recv: {e}"))? {
            wire::WireRead::Line(_) => kept.push(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(format!("bad stats reply: {other:?}")),
        }
        let t = Instant::now();
        client.stats()?;
        fresh.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&kept), median(&fresh)))
}

/// What a serve-mix run measured.
pub struct Mix {
    /// The successful submissions of the slices the steal gate counts.
    pub samples: Vec<Sample>,
    /// Wall time of the slices `samples` come from, s.
    pub counted_s: f64,
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions rejected, failed, or with the wrong hash.
    pub failed: u64,
    /// Counters at the start of the load window.
    pub before: Stats,
    /// Counters at the end of the load window.
    pub after: Stats,
    /// Spawn → first `stats` reply of each timed restart, s.
    pub setup_s: Vec<f64>,
    /// Peak RSS of the load-phase server after [`RSS_AT_JOBS`] jobs (or at
    /// the end of a window that completed fewer), MB.
    pub peak_rss_mb: f64,
    /// [`stats_rtt_ms`] after a traced load window.
    pub rtt_ms: Option<(f64, f64)>,
}

/// One client's successful samples, submissions tried, and failures.
type Client = (Vec<Sample>, u64, u64);

/// What [`probe_exchange`] measured.
pub struct ProbeExchange {
    /// Every submission, alternately new and repeated.
    pub samples: Vec<Sample>,
    /// The server's counters after the exchange.
    pub stats: Stats,
    /// [`stats_rtt_ms`] after the exchange.
    pub rtt_ms: (f64, f64),
}

/// Seed of the `n`-th fresh (cache-missing) job of a run.
fn fresh_seed(workload_seed: u64, n: u64) -> u64 {
    (workload_seed << 24).wrapping_add(n)
}

/// Run the serve-mix workload: journal prelude, timed restarts, then the
/// closed-loop load for at least `seconds`. With a tracer, every other
/// job of each client is traced.
///
/// The load window is cut into [`SLICE`]s, the segments of the steal gate
/// ([`steal::Segments::pick`]); a submission belongs to the slice it
/// completed in. The window lasts until the steal-free slices hold enough
/// hits and misses, within a cap of twice `seconds`.
pub fn run_mix(
    exe: &Path,
    seed: u64,
    seconds: f64,
    tiny: bool,
    expected: &str,
    run_dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<Mix, String> {
    let deck = job_deck();
    let state: PathBuf = run_dir.join("state");
    let fresh = AtomicU64::new(0);
    let recent: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Prelude: a journal with completed jobs for every restart to replay.
    {
        let server = Server::spawn(exe, &state)?;
        let client = server.client();
        for _ in 0..PRELUDE_JOBS {
            let s = fresh_seed(seed, fresh.fetch_add(1, Ordering::SeqCst));
            attempted += 1;
            match one_job(&client, &deck, s, "prelude", expected, None) {
                Done::Ok(_) => recent.lock().expect("recent list poisoned").push(s),
                Done::Failed(e) => {
                    failed += 1;
                    eprintln!("perfbench: {e}");
                }
            }
        }
        server.stop()?;
    }

    let setup_s = crate::setup_samples(|| {
        let t0 = Instant::now();
        let server = Server::spawn(exe, &state)?;
        stats(&server.client())?;
        let setup = t0.elapsed().as_secs_f64();
        server.stop()?;
        Ok(setup)
    })?;

    let server = Server::spawn(exe, &state)?;
    let before = stats(&server.client())?;
    // Traced runs split each class in two halves.
    let need = if tiny { 1 } else { MIN_SAMPLES_P90 as u64 } * if tracer.is_some() { 2 } else { 1 };
    let stop = AtomicBool::new(false);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let rss_jobs = if tiny { 10 } else { RSS_AT_JOBS };
    let rss_at: Mutex<Option<f64>> = Mutex::new(None);
    let start = Instant::now();
    // (steal share, start, end) of each slice.
    let mut slices: Vec<(f64, Instant, Instant)> = Vec::new();
    let results: Vec<Result<Client, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, deck, fresh, recent, stop, hits, misses, failures, done, rss_at) = (
                    &server, &deck, &fresh, &recent, &stop, &hits, &misses, &failures, &done,
                    &rss_at,
                );
                scope.spawn(move || -> Result<Client, String> {
                    let client = server.client();
                    let mut rng = Rng::new(seed ^ (0x5eed_0000 + c as u64));
                    let tenant = format!("client{c}");
                    let (mut samples, mut tried, mut bad) = (Vec::new(), 0u64, 0u64);
                    let mut repeat_first = false;
                    while !stop.load(Ordering::SeqCst) {
                        // Each pair of submissions holds one repeat and one
                        // new spec, in seeded order: exactly half repeat.
                        if tried % 2 == 0 {
                            repeat_first = rng.next_u64().is_multiple_of(2);
                        }
                        let repeat = if repeat_first == (tried % 2 == 0) {
                            let r = recent.lock().expect("recent list poisoned");
                            (!r.is_empty()).then(|| r[(rng.next_u64() % r.len() as u64) as usize])
                        } else {
                            None
                        };
                        let job_seed = repeat.unwrap_or_else(|| {
                            fresh_seed(seed, fresh.fetch_add(1, Ordering::SeqCst))
                        });
                        let traced = tracer.filter(|_| tried % 2 == 1).map(|t| (t, c));
                        tried += 1;
                        match one_job(&client, deck, job_seed, &tenant, expected, traced) {
                            Done::Ok(s) => {
                                if s.cached {
                                    hits.fetch_add(1, Ordering::SeqCst);
                                } else {
                                    misses.fetch_add(1, Ordering::SeqCst);
                                    let mut r = recent.lock().expect("recent list poisoned");
                                    if r.len() == RECENT {
                                        r.remove(0);
                                    }
                                    r.push(job_seed);
                                }
                                samples.push(s);
                                if done.fetch_add(1, Ordering::SeqCst) + 1 == rss_jobs {
                                    *rss_at.lock().expect("rss reading poisoned") =
                                        server.peak_rss_mb();
                                }
                            }
                            Done::Failed(e) => {
                                bad += 1;
                                failures.fetch_add(1, Ordering::SeqCst);
                                if bad <= 3 {
                                    eprintln!("perfbench: {e}");
                                }
                            }
                        }
                    }
                    Ok((samples, tried, bad))
                })
            })
            .collect();
        // This thread keeps the slices and decides when the window ends.
        let (mut from, mut ticks) = (start, steal::Ticks::now());
        let (mut last_hits, mut last_misses) = (0, 0);
        let (mut kept_hits, mut kept_misses) = (0, 0);
        loop {
            std::thread::sleep(SLICE);
            let (to, now) = (Instant::now(), steal::Ticks::now());
            let (h, m) = (hits.load(Ordering::SeqCst), misses.load(Ordering::SeqCst));
            let share = ticks.share_until(now);
            slices.push((share, from, to));
            if share <= steal::MAX_STEAL {
                kept_hits += h - last_hits;
                kept_misses += m - last_misses;
            }
            (from, ticks, last_hits, last_misses) = (to, now, h, m);
            let elapsed = (to - start).as_secs_f64();
            let enough = kept_hits >= need && kept_misses >= need;
            // A failing server has already failed the run.
            let broken = failures.load(Ordering::SeqCst) >= MAX_FAILURES;
            if (elapsed >= seconds && enough) || elapsed >= 2.0 * seconds.max(1.0) || broken {
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        let (s, tried, bad) = r?;
        all.extend(s);
        attempted += tried;
        failed += bad;
    }
    // A submission belongs to the slice it completed in.
    let mut segments = steal::Segments::default();
    for &(share, from, to) in &slices {
        let done: Vec<Sample> = all
            .iter()
            .filter(|s| s.end > from && s.end <= to)
            .copied()
            .collect();
        segments.push(share, (to - from, done));
    }
    let count = |p: &[(Duration, Vec<Sample>)], cached: bool| -> u64 {
        p.iter()
            .map(|(_, v)| v.iter().filter(|s| s.cached == cached).count() as u64)
            .sum()
    };
    let picked = segments.pick("slices", |p| {
        count(p, true) >= need && count(p, false) >= need
    });
    let counted_s = picked.iter().map(|(d, _)| d.as_secs_f64()).sum();
    let samples = picked.into_iter().flat_map(|(_, v)| v).collect();
    let after = stats(&server.client())?;
    let peak_rss_mb = rss_at
        .into_inner()
        .expect("rss reading poisoned")
        .or_else(|| server.peak_rss_mb())
        .ok_or("cannot read the server's VmHWM")?;
    let rtt_ms = match tracer {
        Some(_) => Some(stats_rtt_ms(&server, RTT_SAMPLES)?),
        None => None,
    };
    server.stop()?;
    Ok(Mix {
        samples,
        counted_s,
        attempted,
        failed,
        before,
        after,
        setup_s,
        peak_rss_mb,
        rtt_ms,
    })
}

/// A short single-client exchange with a fresh server — alternately a new
/// job and a repeat of it — for the per-layer serve readings of the
/// workloads that bypass the server.
pub fn probe_exchange(
    exe: &Path,
    seed: u64,
    pairs: u64,
    expected: &str,
    run_dir: &Path,
    tracer: &Tracer,
) -> Result<ProbeExchange, String> {
    let deck = job_deck();
    let server = Server::spawn(exe, &run_dir.join("probe-state"))?;
    let client = server.client();
    let mut samples = Vec::new();
    for n in 0..pairs {
        let s = fresh_seed(seed, n);
        for _ in 0..2 {
            match one_job(&client, &deck, s, "probe", expected, Some((tracer, 0))) {
                Done::Ok(sample) => samples.push(sample),
                Done::Failed(e) => return Err(e),
            }
        }
    }
    let st = stats(&client)?;
    let rtt = stats_rtt_ms(&server, RTT_SAMPLES)?;
    server.stop()?;
    Ok(ProbeExchange {
        samples,
        stats: st,
        rtt_ms: rtt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_balanced() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        let xs: Vec<u64> = (0..1000).map(|_| a.next_u64()).collect();
        assert!(xs.iter().all(|&x| x == b.next_u64()));
        let odd = xs.iter().filter(|&&x| x % 2 == 1).count();
        assert!((450..=550).contains(&odd), "{odd}");
    }

    #[test]
    fn fresh_seeds_are_distinct() {
        let s: std::collections::BTreeSet<u64> = (0..1000).map(|n| fresh_seed(7, n)).collect();
        assert_eq!(s.len(), 1000);
    }
}
