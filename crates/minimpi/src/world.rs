//! World construction: spawn one thread per rank, wire up the channels.
//!
//! Two execution modes share the wiring:
//!
//! * [`World::run`] / [`World::try_run`] — the classic mode: the master
//!   channel handles are dropped after construction so a dead rank is
//!   observable as a hang-up on its peers.
//! * [`World::run_resilient`] — the ULFM-style mode: the master handles
//!   are **retained**, a heartbeat monitor watches every rank, and a rank
//!   that dies (panic or heartbeat loss) is respawned as a fresh
//!   incarnation wired into the same mesh. Survivors and the replacement
//!   meet at [`Comm::epoch_fence`], which drains dead-incarnation traffic
//!   and advances the communicator epoch so stragglers are rejected.

use crate::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::comm::{BcastMsg, Comm, CommFailure, Msg, RecvFailure, RootMsg, WorldCtl};
use crate::detector::{BeatWatch, Beater, HeartbeatCfg};
use std::sync::Arc;

/// One rank's panic, captured as data instead of cascading: which rank
/// died and what its panic payload said.
#[derive(Clone, Debug)]
pub struct RankPanic {
    /// The rank whose closure panicked.
    pub rank: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// [`CommFailure`] payloads via `Display`, anything else a
    /// placeholder).
    pub message: String,
    /// The structured communication failure, when the panic payload was
    /// a typed [`CommFailure`] (resilient paths) — lets the run
    /// supervisor distinguish "rank died" from "rank hit a bug".
    pub failure: Option<CommFailure>,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<CommFailure>() {
        c.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn rank_panic(rank: usize, payload: &(dyn std::any::Any + Send)) -> RankPanic {
    RankPanic {
        rank,
        message: panic_message(payload),
        failure: payload.downcast_ref::<CommFailure>().cloned(),
    }
}

/// Resilience policy for [`World::run_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct Resilience {
    /// Heartbeat interval and miss budget for the failure detector.
    pub heartbeat: HeartbeatCfg,
    /// How many rank respawns the world will perform before letting a
    /// death become a terminal per-rank failure.
    pub max_respawns: usize,
}

impl Default for Resilience {
    fn default() -> Self {
        Self {
            heartbeat: HeartbeatCfg::default(),
            max_respawns: 1,
        }
    }
}

/// One respawn performed by the resilient world.
#[derive(Clone, Debug)]
pub struct RespawnEvent {
    /// The rank that was replaced.
    pub rank: usize,
    /// The incarnation number of the replacement (1 = first respawn).
    pub incarnation: usize,
    /// The communicator epoch the dead incarnation was running under.
    pub epoch: u64,
    /// Why the rank was declared dead (panic message or heartbeat).
    pub cause: String,
}

/// What a resilient run produced: per-rank results (from the final
/// incarnation of each rank), the respawn history, and envelope-level
/// counters.
#[derive(Debug)]
pub struct ResilientReport<T> {
    /// Final per-rank results in rank order.
    pub results: Vec<Result<T, RankPanic>>,
    /// Every respawn performed, in order of death.
    pub respawns: Vec<RespawnEvent>,
    /// Final communicator epoch (number of completed fences).
    pub epoch: u64,
    /// Stale-epoch envelopes rejected or drained, world total.
    pub stale_rejected: u64,
}

/// The full channel mesh plus the shared control block — retained by the
/// resilient world so a replacement incarnation can be wired in at any
/// time (both channel halves are cloneable).
struct Endpoints {
    n: usize,
    /// `senders[src][dst]`.
    senders: Vec<Vec<Sender<Msg>>>,
    /// `receivers[dst][src]` (master clones).
    receivers: Vec<Vec<Receiver<Msg>>>,
    to_root_tx: Sender<RootMsg>,
    to_root_rx: Arc<Receiver<RootMsg>>,
    root_to_rank_txs: Vec<Sender<BcastMsg>>,
    root_to_rank_rxs: Vec<Receiver<BcastMsg>>,
    ctl: Arc<WorldCtl>,
}

impl Endpoints {
    fn build(n: usize) -> Self {
        // Point-to-point mesh: channel[src][dst].
        let mut senders: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            let mut row = Vec::with_capacity(n);
            for dst_row in receivers.iter_mut() {
                let (tx, rx) = unbounded();
                row.push(tx);
                dst_row[src] = Some(rx);
            }
            senders.push(row);
        }
        let receivers = receivers
            .into_iter()
            .map(|row| row.into_iter().map(|o| o.expect("receiver wired")).collect())
            .collect();

        // Collective star: ranks → root, root → ranks.
        let (to_root_tx, to_root_rx) = unbounded();
        let to_root_rx = Arc::new(to_root_rx);
        let mut root_to_rank_txs = Vec::with_capacity(n);
        let mut root_to_rank_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            root_to_rank_txs.push(tx);
            root_to_rank_rxs.push(rx);
        }

        Self {
            n,
            senders,
            receivers,
            to_root_tx,
            to_root_rx,
            root_to_rank_txs,
            root_to_rank_rxs,
            ctl: WorldCtl::new(n),
        }
    }

    fn make_comm(&self, rank: usize, incarnation: usize) -> Comm {
        Comm::new(
            rank,
            self.n,
            incarnation,
            self.senders[rank].clone(),
            self.receivers[rank].to_vec(),
            self.to_root_tx.clone(),
            if rank == 0 {
                Some(self.to_root_rx.clone())
            } else {
                None
            },
            self.root_to_rank_rxs[rank].clone(),
            if rank == 0 {
                self.root_to_rank_txs.clone()
            } else {
                Vec::new()
            },
            self.ctl.clone(),
        )
    }
}

/// Factory for rank teams.
pub struct World;

impl World {
    /// Run `f(comm)` on `n_ranks` threads; returns the per-rank results in
    /// rank order. Panics in any rank propagate (the whole world aborts),
    /// which is the moral equivalent of `MPI_Abort`. Fault-tolerant
    /// callers use [`World::try_run`] instead.
    pub fn run<T, F>(n_ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        World::try_run(n_ranks, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("{p}"),
            })
            .collect()
    }

    /// Run `f(comm)` on `n_ranks` threads, converting each rank's panic
    /// into a per-rank [`RankPanic`] record instead of aborting the
    /// caller. Surviving ranks' results are returned alongside the
    /// failures, in rank order — the structured-failure substrate the
    /// `mas-mhd` run supervisor builds on. (The channel mutexes recover
    /// from poisoning, so one rank's death surfaces on its peers as an
    /// orderly "rank N hung up" — itself captured here — rather than an
    /// opaque `"channel poisoned"` cascade.)
    pub fn try_run<T, F>(n_ranks: usize, f: F) -> Vec<Result<T, RankPanic>>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n_ranks >= 1, "need at least one rank");

        let endpoints = Endpoints::build(n_ranks);
        let comms: Vec<Comm> = (0..n_ranks).map(|r| endpoints.make_comm(r, 0)).collect();
        // Drop the master handles so hang-ups are detectable.
        drop(endpoints);

        let f = &f;
        let mut results: Vec<Option<Result<T, RankPanic>>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n_ranks);
            for comm in comms.into_iter() {
                handles.push(s.spawn(move || f(comm)));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] =
                    Some(h.join().map_err(|payload| rank_panic(rank, payload.as_ref())));
            }
        });
        results.into_iter().map(|o| o.expect("rank result")).collect()
    }

    /// Run `f(comm)` on `n_ranks` threads under a heartbeat monitor that
    /// **respawns dead ranks**. A rank dies by panicking out of `f` or by
    /// its heartbeat going quiet ([`HeartbeatCfg::miss_budget`] missed
    /// polls); either way the monitor fences out the dead incarnation
    /// (its `Comm` handle turns every further operation into a structured
    /// [`CommFailure`] panic) and spawns a replacement running the same
    /// closure — `f` can tell it is a replacement via
    /// [`Comm::incarnation`]. Recovery is cooperative: survivors and the
    /// replacement must meet at [`Comm::epoch_fence`], which drains
    /// stale traffic and advances the epoch.
    ///
    /// Respawns stop after [`Resilience::max_respawns`]; further deaths
    /// become terminal per-rank failures in the report (survivors then
    /// fail their fence with a structured timeout).
    ///
    /// Limitation: a thread cannot be killed, only abandoned — a
    /// heartbeat-declared zombie keeps running until its next
    /// communication operation panics it out (or it observes
    /// [`Comm::fenced_out`]); the world does not return until every
    /// thread, zombies included, has exited.
    pub fn run_resilient<T, F>(n_ranks: usize, cfg: Resilience, f: F) -> ResilientReport<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n_ranks >= 1, "need at least one rank");
        let endpoints = Endpoints::build(n_ranks);
        let ctl = endpoints.ctl.clone();
        let f = &f;

        let mut results: Vec<Option<Result<T, RankPanic>>> = (0..n_ranks).map(|_| None).collect();
        let mut respawns: Vec<RespawnEvent> = Vec::new();

        type Done<T> = (usize, usize, Result<T, Box<dyn std::any::Any + Send>>);
        let (done_tx, done_rx) = unbounded::<Done<T>>();

        std::thread::scope(|s| {
            let spawn_worker = |rank: usize, incarnation: usize| {
                let comm = endpoints.make_comm(rank, incarnation);
                let done = done_tx.clone();
                let liveness = ctl.liveness.clone();
                let interval = cfg.heartbeat.interval;
                s.spawn(move || {
                    let _beater = Beater::spawn(liveness, rank, interval);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                    // Never unwind out of a scoped thread: the result —
                    // panic payload included — travels by channel.
                    let _ = done.send((rank, incarnation, r));
                });
            };

            for rank in 0..n_ranks {
                spawn_worker(rank, 0);
            }

            let mut watches = vec![BeatWatch::default(); n_ranks];
            let mut cur_inc = vec![0usize; n_ranks];
            let mut respawns_used = 0usize;
            let mut pending = n_ranks;

            // One death declaration: fence out the old incarnation, then
            // either respawn or record the terminal failure.
            let declare_dead =
                |rank: usize,
                 cause: RankPanic,
                 cur_inc: &mut [usize],
                 watches: &mut [BeatWatch],
                 results: &mut [Option<Result<T, RankPanic>>],
                 respawns: &mut Vec<RespawnEvent>,
                 respawns_used: &mut usize,
                 pending: &mut usize| {
                    cur_inc[rank] += 1;
                    ctl.incarnations[rank]
                        .store(cur_inc[rank], std::sync::atomic::Ordering::SeqCst);
                    ctl.liveness.0.clear_halt(rank);
                    watches[rank].reset();
                    if *respawns_used < cfg.max_respawns {
                        *respawns_used += 1;
                        respawns.push(RespawnEvent {
                            rank,
                            incarnation: cur_inc[rank],
                            epoch: ctl.epoch.load(std::sync::atomic::Ordering::SeqCst),
                            cause: cause.message.clone(),
                        });
                        spawn_worker(rank, cur_inc[rank]);
                    } else {
                        results[rank] = Some(Err(cause));
                        ctl.liveness.0.mark_finished(rank);
                        *pending -= 1;
                    }
                };

            while pending > 0 {
                match done_rx.recv_timeout(cfg.heartbeat.interval) {
                    Ok((rank, inc, res)) => {
                        if inc != cur_inc[rank] {
                            continue; // a fenced-out zombie finally exited
                        }
                        match res {
                            Ok(v) => {
                                results[rank] = Some(Ok(v));
                                ctl.liveness.0.mark_finished(rank);
                                pending -= 1;
                            }
                            Err(payload) => declare_dead(
                                rank,
                                rank_panic(rank, payload.as_ref()),
                                &mut cur_inc,
                                &mut watches,
                                &mut results,
                                &mut respawns,
                                &mut respawns_used,
                                &mut pending,
                            ),
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        for rank in 0..n_ranks {
                            if ctl.liveness.0.is_finished(rank) || results[rank].is_some() {
                                continue;
                            }
                            let beats = ctl.liveness.0.beats(rank);
                            if beats == 0 {
                                continue; // beater not scheduled yet — be patient
                            }
                            if watches[rank].observe(beats, cfg.heartbeat.miss_budget) {
                                let failure = CommFailure {
                                    rank,
                                    epoch: ctl.epoch.load(std::sync::atomic::Ordering::SeqCst),
                                    failure: RecvFailure::HeartbeatLost {
                                        rank,
                                        missed: cfg.heartbeat.miss_budget,
                                    },
                                };
                                declare_dead(
                                    rank,
                                    RankPanic {
                                        rank,
                                        message: failure.to_string(),
                                        failure: Some(failure),
                                    },
                                    &mut cur_inc,
                                    &mut watches,
                                    &mut results,
                                    &mut respawns,
                                    &mut respawns_used,
                                    &mut pending,
                                );
                            }
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("monitor holds a live done_tx clone")
                    }
                }
            }
        });

        use std::sync::atomic::Ordering;
        ResilientReport {
            results: results.into_iter().map(|o| o.expect("rank result")).collect(),
            respawns,
            epoch: ctl.epoch.load(Ordering::SeqCst),
            stale_rejected: ctl.stale_rejected.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{NetFault, NetPath, ReduceOp};
    use crate::scaled_ms;
    use gpusim::{DataMode, DeviceContext, DeviceSpec, Phase};
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    fn ctx(rank: usize) -> DeviceContext {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut c = DeviceContext::new(spec, DataMode::Manual, rank, 1);
        c.set_phase(Phase::Compute);
        c
    }

    #[test]
    fn ring_exchange_delivers_neighbor_data() {
        let vals = World::run(4, |comm| {
            let mut c = ctx(comm.rank());
            let (lo, hi) = comm.phi_neighbors();
            comm.send(hi, 7, vec![comm.rank() as f64], NetPath::DeviceP2P, &c);
            let got = comm.recv(lo, 7, &mut c);
            got[0]
        });
        assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn self_send_works_on_one_rank() {
        let vals = World::run(1, |comm| {
            let mut c = ctx(0);
            let (lo, hi) = comm.phi_neighbors();
            assert_eq!((lo, hi), (0, 0));
            comm.send(hi, 1, vec![42.0], NetPath::DeviceP2P, &c);
            comm.recv(lo, 1, &mut c)[0]
        });
        assert_eq!(vals, vec![42.0]);
    }

    #[test]
    fn allreduce_sum_min_max() {
        let vals = World::run(3, |comm| {
            let mut c = ctx(comm.rank());
            let mut v = [comm.rank() as f64 + 1.0, -(comm.rank() as f64)];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
            let mut w = [comm.rank() as f64];
            comm.allreduce(ReduceOp::Min, &mut w, &mut c);
            let mut x = [comm.rank() as f64];
            comm.allreduce(ReduceOp::Max, &mut x, &mut c);
            (v[0], v[1], w[0], x[0])
        });
        for &(s, n, mn, mx) in &vals {
            assert_eq!(s, 6.0);
            assert_eq!(n, -3.0);
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 2.0);
        }
    }

    #[test]
    fn allreduce_synchronizes_clocks_and_books_mpi_time() {
        let walls = World::run(2, |comm| {
            let mut c = ctx(comm.rank());
            // Rank 1 is "ahead" by 100 µs of compute.
            if comm.rank() == 1 {
                c.charge(100.0, gpusim::TimeCategory::Kernel, "imbalance");
            }
            let mut v = [1.0];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
            (
                c.clock.now_us(),
                c.prof.phase_total_us(Phase::Mpi),
            )
        });
        // Both ranks end at the same virtual time.
        assert!((walls[0].0 - walls[1].0).abs() < 1e-9);
        // Rank 0 waited ~100 µs; rank 1 only paid the collective cost.
        assert!(walls[0].1 > walls[1].1 + 90.0);
    }

    #[test]
    fn recv_books_transfer_time_by_path() {
        let res = World::run(2, |comm| {
            let mut c = ctx(comm.rank());
            let peer = 1 - comm.rank();
            let data = vec![0.0; 1 << 16]; // 512 KiB
            comm.send(peer, 3, data, NetPath::DeviceP2P, &c);
            let _ = comm.recv(peer, 3, &mut c);
            c.prof.cat_total_us(gpusim::TimeCategory::P2P)
        });
        let bytes = ((1 << 16) * 8) as f64;
        let expect = DeviceSpec::a100_40gb().p2p_time_us(bytes);
        for &p2p in &res {
            assert!((p2p - expect).abs() < 1e-6, "p2p={p2p} expect={expect}");
        }
    }

    #[test]
    fn host_path_is_slower_than_p2p() {
        let run = |path| {
            World::run(2, move |comm| {
                let mut c = ctx(comm.rank());
                let peer = 1 - comm.rank();
                comm.send(peer, 9, vec![0.0; 4096], path, &c);
                let _ = comm.recv(peer, 9, &mut c);
                c.prof.phase_total_us(Phase::Mpi)
            })[0]
        };
        assert!(run(NetPath::Host) > run(NetPath::DeviceP2P));
    }

    #[test]
    fn gather_to_root_collects_in_rank_order() {
        let res = World::run(3, |comm| {
            let c = ctx(comm.rank());
            comm.gather_to_root(vec![comm.rank() as f64 * 2.0], &c)
        });
        let root = res[0].as_ref().expect("root gets data");
        assert_eq!(root[0], vec![0.0]);
        assert_eq!(root[1], vec![2.0]);
        assert_eq!(root[2], vec![4.0]);
        assert!(res[1].is_none());
    }

    #[test]
    fn barrier_completes() {
        let n = World::run(4, |comm| {
            let mut c = ctx(comm.rank());
            comm.barrier(&mut c);
            comm.barrier(&mut c);
            1usize
        });
        assert_eq!(n.iter().sum::<usize>(), 4);
    }

    #[test]
    fn oversubscribed_world_completes_allreduce_and_halo_rounds_exactly() {
        // More ranks than this 2-CPU host has cores: polling receivers must
        // yield to the peers they wait on instead of starving them. Every
        // sum is of small integers, so it must come out exact.
        const ROUNDS: usize = 300;
        let n = 4;
        let out = World::run(n, |comm| {
            let mut c = ctx(comm.rank());
            let (lo, hi) = comm.phi_neighbors();
            let r = comm.rank() as f64;
            for round in 0..ROUNDS {
                let k = round as f64;
                // Halo ping-pong: a plane each way round the ring.
                comm.send(hi, 1, vec![r + k; 64], NetPath::DeviceP2P, &c);
                comm.send(lo, 2, vec![-(r + k); 64], NetPath::DeviceP2P, &c);
                let from_lo = comm.recv(lo, 1, &mut c);
                let from_hi = comm.recv(hi, 2, &mut c);
                assert!(from_lo.iter().all(|&v| v == lo as f64 + k));
                assert!(from_hi.iter().all(|&v| v == -(hi as f64 + k)));
                let mut v = [r + k, 1.0];
                comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
                assert_eq!(v, [6.0 + 4.0 * k, 4.0], "round {round}");
                if round % 50 == 0 {
                    comm.barrier(&mut c);
                }
            }
            ROUNDS
        });
        assert_eq!(out, vec![ROUNDS; n]);
    }

    #[test]
    fn try_run_records_per_rank_failures() {
        let res = World::try_run(3, |comm| {
            if comm.rank() == 1 {
                panic!("injected fault on rank 1");
            }
            comm.rank() * 10
        });
        assert_eq!(res[0].as_ref().unwrap(), &0);
        assert_eq!(res[2].as_ref().unwrap(), &20);
        let p = res[1].as_ref().unwrap_err();
        assert_eq!(p.rank, 1);
        assert!(p.message.contains("injected fault"), "{}", p.message);
        assert!(p.failure.is_none(), "plain panic carries no CommFailure");
    }

    #[test]
    fn rank_death_surfaces_as_hang_up_not_poison_on_peers() {
        // Rank 1 dies before sending; rank 0 blocks on the recv and must
        // observe a diagnosable "hung up" panic (captured by try_run),
        // never a "channel poisoned" cascade.
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 1 {
                panic!("rank 1 died");
            }
            let _ = comm.recv(1, 5, &mut c);
        });
        let p0 = res[0].as_ref().unwrap_err();
        assert!(p0.message.contains("hung up"), "rank 0 saw: {}", p0.message);
        assert!(!p0.message.contains("poisoned"));
        let p1 = res[1].as_ref().unwrap_err();
        assert!(p1.message.contains("rank 1 died"));
    }

    #[test]
    fn dropped_message_times_out_with_deadline() {
        // De-flaked: rank 0 stays alive by *blocking* on a handshake from
        // rank 1 (no sleeps to race against), and the deadline scales
        // with MAS_TEST_TIME_SCALE for loaded CI machines. Rank 1 asserts
        // on the failure text of the legacy panic path.
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Drop);
                comm.send(1, 4, vec![1.0], NetPath::DeviceP2P, &c);
                // Block until rank 1 has finished timing out: its failure
                // must be a timeout (lost message), never a disconnect.
                let _ = comm.recv(1, 5, &mut c);
                String::new()
            } else {
                comm.set_recv_deadline(Some(scaled_ms(50)));
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| comm.recv(0, 4, &mut c)));
                comm.set_recv_deadline(None);
                comm.send(0, 5, vec![], NetPath::DeviceP2P, &c);
                match r {
                    Ok(_) => "delivered?!".to_string(),
                    Err(p) => super::panic_message(p.as_ref()),
                }
            }
        });
        let msg = res[1].as_ref().unwrap();
        assert!(msg.contains("timed out"), "{msg}");
        assert!(msg.contains("message lost"), "{msg}");
    }

    #[test]
    fn dropped_message_yields_structured_timeout() {
        // The verified path reports the failure *kind* — no string or
        // elapsed-time matching anywhere.
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Drop);
                comm.send(1, 4, vec![1.0], NetPath::DeviceP2P, &c);
                let _ = comm.recv(1, 5, &mut c);
                Ok(vec![])
            } else {
                let r = comm.try_recv(0, 4, &mut c, scaled_ms(50));
                comm.send(0, 5, vec![], NetPath::DeviceP2P, &c);
                r
            }
        });
        match res[1].as_ref().unwrap() {
            Err(RecvFailure::Timeout { src: 0, tag: 4, .. }) => {}
            other => panic!("want structured timeout, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_fault_poisons_payload_once() {
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Corrupt);
            }
            let peer = 1 - comm.rank();
            comm.send(peer, 4, vec![1.0, 2.0], NetPath::DeviceP2P, &c);
            let first = comm.recv(peer, 4, &mut c);
            // Second exchange is clean: faults fire once.
            comm.send(peer, 5, vec![3.0], NetPath::DeviceP2P, &c);
            let second = comm.recv(peer, 5, &mut c);
            (first, second)
        });
        let (first, second) = res[1].as_ref().unwrap();
        assert!(first[1].is_nan(), "corrupted middle value");
        assert_eq!(first[0], 1.0, "rest of payload intact");
        assert_eq!(second[0], 3.0, "fault disarmed after firing");
        let (clean, _) = res[0].as_ref().unwrap();
        assert_eq!(clean[1], 2.0, "only the armed rank corrupts");
    }

    #[test]
    fn try_recv_detects_corruption_by_crc() {
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Corrupt);
                comm.send(1, 4, vec![1.0, 2.0], NetPath::DeviceP2P, &c);
                comm.send(1, 4, vec![3.0, 4.0], NetPath::DeviceP2P, &c);
                let _ = comm.recv(1, 5, &mut c);
                (Ok(vec![]), Ok(vec![]))
            } else {
                let bad = comm.try_recv(0, 4, &mut c, scaled_ms(2000));
                let good = comm.try_recv(0, 4, &mut c, scaled_ms(2000));
                comm.send(0, 5, vec![], NetPath::DeviceP2P, &c);
                (bad, good)
            }
        });
        let (bad, good) = res[1].as_ref().unwrap();
        match bad {
            Err(RecvFailure::Corrupt { src: 0, tag: 4, seq: 0 }) => {}
            other => panic!("want CRC failure, got {other:?}"),
        }
        assert_eq!(good.as_ref().unwrap(), &vec![3.0, 4.0], "clean resend delivered");
    }

    #[test]
    fn stale_epoch_envelope_is_rejected_structured() {
        // A straggler stamped with a pre-fence epoch must be rejected
        // with a structured error, never delivered (acceptance test).
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.advance_epoch(); // world is now in epoch 1
                comm.force_send_epoch(0); // forge a dead-incarnation envelope
                comm.send(1, 9, vec![1.0], NetPath::DeviceP2P, &c);
                comm.send(1, 9, vec![2.0], NetPath::DeviceP2P, &c);
                let _ = comm.recv(1, 10, &mut c);
                (None, 0.0, 0)
            } else {
                while comm.epoch() == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let stale = comm.try_recv(0, 9, &mut c, scaled_ms(2000)).err();
                let fresh = comm.try_recv(0, 9, &mut c, scaled_ms(2000)).unwrap();
                let count = comm.stale_rejected();
                comm.send(0, 10, vec![], NetPath::DeviceP2P, &c);
                (stale, fresh[0], count)
            }
        });
        let (stale, fresh, count) = res[1].as_ref().unwrap();
        match stale {
            Some(RecvFailure::StaleEpoch { src: 0, got: 0, current: 1 }) => {}
            other => panic!("want stale-epoch rejection, got {other:?}"),
        }
        assert_eq!(*fresh, 2.0, "current-epoch message still delivered");
        assert!(*count >= 1, "rejection was counted");
    }

    #[test]
    fn legacy_recv_discards_stale_silently() {
        let res = World::try_run(2, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.advance_epoch();
                comm.force_send_epoch(0);
                comm.send(1, 9, vec![1.0], NetPath::DeviceP2P, &c);
                comm.send(1, 9, vec![2.0], NetPath::DeviceP2P, &c);
                let _ = comm.recv(1, 10, &mut c);
                0.0
            } else {
                while comm.epoch() == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let v = comm.recv(0, 9, &mut c);
                comm.send(0, 10, vec![], NetPath::DeviceP2P, &c);
                v[0]
            }
        });
        assert_eq!(
            *res[1].as_ref().unwrap(),
            2.0,
            "blocking recv skips the stale envelope and delivers the fresh one"
        );
    }

    #[test]
    fn tag_mismatch_panics() {
        // try_run keeps the failure contained; the message documents both
        // tags so a protocol bug is diagnosable.
        let res = World::try_run(1, |comm| {
            let mut c = ctx(0);
            comm.send(0, 1, vec![1.0], NetPath::DeviceP2P, &c);
            let _ = comm.recv(0, 2, &mut c);
        });
        let p = res[0].as_ref().unwrap_err();
        assert!(p.message.contains("tag mismatch"), "{}", p.message);
    }

    #[test]
    fn resilient_run_respawns_after_panic() {
        let cfg = Resilience {
            heartbeat: HeartbeatCfg {
                interval: Duration::from_millis(5),
                miss_budget: 4,
            },
            max_respawns: 1,
        };
        let out = World::run_resilient(2, cfg, |comm| {
            if comm.rank() == 1 && comm.incarnation() == 0 {
                panic!("first life lost");
            }
            (comm.rank(), comm.incarnation())
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &(0, 0));
        assert_eq!(
            out.results[1].as_ref().unwrap(),
            &(1, 1),
            "the replacement incarnation delivers the result"
        );
        assert_eq!(out.respawns.len(), 1);
        assert_eq!(out.respawns[0].rank, 1);
        assert!(out.respawns[0].cause.contains("first life lost"));
    }

    #[test]
    fn resilient_fence_recovers_ring_exchange() {
        let cfg = Resilience {
            heartbeat: HeartbeatCfg {
                interval: Duration::from_millis(10),
                miss_budget: 6,
            },
            max_respawns: 1,
        };
        let fence_t = scaled_ms(5000);
        let out = World::run_resilient(3, cfg, move |comm| {
            let mut c = ctx(comm.rank());
            comm.set_recv_deadline(Some(scaled_ms(300)));
            let exchange = |comm: &Comm, c: &mut DeviceContext| {
                let (lo, hi) = comm.phi_neighbors();
                comm.send(hi, 7, vec![comm.rank() as f64], NetPath::DeviceP2P, c);
                comm.recv(lo, 7, c)[0]
            };
            if comm.incarnation() == 0 {
                if comm.rank() == 2 {
                    panic!("rank 2 lost mid-step");
                }
                // Survivors: the step may or may not fail locally (rank 1's
                // neighbour is alive), but recovery is collective — every
                // survivor abandons the step and meets at the fence.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| exchange(&comm, &mut c)));
                let epoch = comm.epoch_fence(fence_t).expect("fence forms");
                assert_eq!(epoch, 1);
                exchange(&comm, &mut c)
            } else {
                // Replacement: join the fence, then redo the step.
                let epoch = comm.epoch_fence(fence_t).expect("fence forms");
                assert_eq!(epoch, 1);
                exchange(&comm, &mut c)
            }
        });
        let got: Vec<f64> = out.results.iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(got, vec![2.0, 0.0, 1.0], "post-recovery ring is correct");
        assert_eq!(out.respawns.len(), 1);
        assert_eq!(out.epoch, 1, "fence advanced the epoch");
    }

    #[test]
    fn halted_heartbeat_declares_death_and_respawns() {
        let cfg = Resilience {
            heartbeat: HeartbeatCfg {
                interval: Duration::from_millis(5),
                miss_budget: 3,
            },
            max_respawns: 1,
        };
        let out = World::run_resilient(2, cfg, |comm| {
            if comm.rank() == 1 && comm.incarnation() == 0 {
                // Zombie: alive but heart stopped. Exits only once fenced.
                comm.halt_heartbeat();
                while !comm.fenced_out() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return -1.0;
            }
            comm.rank() as f64 * 10.0
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &0.0);
        assert_eq!(
            out.results[1].as_ref().unwrap(),
            &10.0,
            "zombie's late result is ignored; replacement's wins"
        );
        assert_eq!(out.respawns.len(), 1);
        assert!(
            out.respawns[0].cause.contains("heartbeat"),
            "{}",
            out.respawns[0].cause
        );
    }

    #[test]
    fn respawn_budget_exhausted_reports_failure() {
        let out = World::run_resilient(
            2,
            Resilience {
                heartbeat: HeartbeatCfg::default(),
                max_respawns: 0,
            },
            |comm| {
                if comm.rank() == 1 {
                    panic!("boom with no lives left");
                }
                comm.rank()
            },
        );
        assert_eq!(out.results[0].as_ref().unwrap(), &0);
        let p = out.results[1].as_ref().unwrap_err();
        assert!(p.message.contains("boom"), "{}", p.message);
        assert!(out.respawns.is_empty());
    }
}
