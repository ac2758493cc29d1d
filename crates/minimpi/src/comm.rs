//! The per-rank communicator: point-to-point and collective operations.
//!
//! Every message travels in an **envelope**: the communicator epoch it
//! was sent under, a per-pair sequence number, and a CRC32 of the
//! payload. The epoch is the ULFM-style fencing device — after a rank
//! death and respawn the world advances its epoch at a collective
//! [`Comm::epoch_fence`], and anything still in flight from the dead
//! incarnation is rejected instead of corrupting state. Every send stamps
//! the CRC (the workspace's one CRC-32, [`mas_io::dump::crc32_f64`]), but
//! only the *verified* receive path ([`Comm::try_recv`]) used by retrying
//! transports checks it; the legacy [`Comm::recv`] stays bit-for-bit
//! compatible (it delivers corrupted payloads — detecting them is the
//! health check's job on that path).
//!
//! Data-plane receives (point-to-point, the collective gather/bcast legs,
//! and so the barrier) poll for a short budget (`chan::POLL_BUDGET`,
//! 50 µs) before they park on the channel's condvar. Receive deadlines
//! include the polling time.

use crate::chan::{Receiver, RecvTimeoutError, Sender, POLL_BUDGET};
use crate::detector::{Liveness, LivenessHandle};
use gpusim::{DeviceContext, Phase, TimeCategory};
use mas_io::dump::crc32_f64;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When set, collectives reinstate the pre-pooling allocation behaviour
/// (`to_vec` per contribution, `clone` per broadcast fan-out) so the
/// benchmark harness can measure the pooling optimization's before/after
/// in a single process. Results are bit-exact either way — only the
/// allocation pattern changes.
static LEGACY_ALLOC: AtomicBool = AtomicBool::new(false);

/// Toggle the legacy (pre-pooling) collective allocation behaviour.
pub fn set_legacy_alloc(on: bool) {
    LEGACY_ALLOC.store(on, Ordering::SeqCst);
}

/// Whether the legacy collective allocation path is active.
pub fn legacy_alloc() -> bool {
    LEGACY_ALLOC.load(Ordering::Relaxed)
}

/// Message tag (the solver uses a small fixed set; tags are asserted, not
/// matched out of order — all communication patterns in MAS are
/// deterministic per-pair FIFO).
pub type Tag = u32;

/// Reduction operator for [`Comm::allreduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Which hardware path a point-to-point transfer takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetPath {
    /// GPU peer-to-peer DMA (CUDA-aware MPI + manual data management).
    DeviceP2P,
    /// Through host memory (what unified memory forces; also the CPU-run
    /// path, where it is simply the interconnect).
    Host,
}

/// An armed point-to-point fault: applied to the **next** matching
/// [`Comm::send`], then cleared (or repeated, see
/// [`Comm::arm_net_fault_n`]). Fault injection is compiled in but
/// completely inert until armed — an unarmed `Cell<Option<…>>` check is
/// one branch per send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Corrupt the payload in flight (the middle element becomes NaN —
    /// the bit-flip-on-the-wire / bad-DMA failure mode).
    Corrupt,
    /// Silently drop the message (lost packet / dead NIC). The matching
    /// receive will only terminate if a receive deadline is armed via
    /// [`Comm::set_recv_deadline`].
    Drop,
}

/// Why a verified receive ([`Comm::try_recv`]) did not deliver a payload.
/// This is the structured vocabulary the retrying halo transport and the
/// run supervisor act on — kind, not string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvFailure {
    /// The deadline elapsed with no (fresh) message — lost packet or
    /// dead/slow peer.
    Timeout {
        /// Source rank that never delivered.
        src: usize,
        /// Tag that was awaited.
        tag: Tag,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// The source's channel fully disconnected (rank thread gone with no
    /// resilient world holding the wiring open).
    Disconnected {
        /// Source rank that hung up.
        src: usize,
    },
    /// Payload failed its CRC32 — corrupted on the wire.
    Corrupt {
        /// Source rank of the corrupt message.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Envelope sequence number.
        seq: u64,
    },
    /// The envelope's epoch predates the current communicator epoch: a
    /// straggler from a dead incarnation, rejected un-delivered.
    StaleEpoch {
        /// Source rank of the stale message.
        src: usize,
        /// Epoch stamped on the envelope.
        got: u64,
        /// Current communicator epoch.
        current: u64,
    },
    /// A message arrived with an unexpected tag (consumed, not delivered).
    TagMismatch {
        /// Source rank.
        src: usize,
        /// Tag found on the message.
        got: Tag,
        /// Tag that was awaited.
        want: Tag,
    },
    /// This `Comm` belongs to a superseded incarnation: the world fenced
    /// it out after declaring its rank dead (zombie protection).
    FencedOut {
        /// The fenced-out rank.
        rank: usize,
        /// The superseded incarnation number.
        incarnation: usize,
    },
    /// The monitor declared the rank dead after its heartbeat went quiet.
    HeartbeatLost {
        /// The rank whose heart stopped.
        rank: usize,
        /// Consecutive monitor polls with no beat.
        missed: u32,
    },
    /// A collective epoch fence did not complete: some participant never
    /// arrived (rank already finished, or respawn budget exhausted).
    FenceTimeout {
        /// The rank that gave up waiting.
        rank: usize,
        /// How long it waited at the fence.
        waited: Duration,
    },
}

impl std::fmt::Display for RecvFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvFailure::Timeout { src, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for tag {tag} from rank {src} — message lost?"
            ),
            RecvFailure::Disconnected { src } => write!(f, "rank {src} hung up"),
            RecvFailure::Corrupt { src, tag, seq } => write!(
                f,
                "payload from rank {src} (tag {tag}, seq {seq}) failed CRC — corrupted in flight"
            ),
            RecvFailure::StaleEpoch { src, got, current } => write!(
                f,
                "stale envelope from rank {src}: epoch {got} < current epoch {current} — rejected"
            ),
            RecvFailure::TagMismatch { src, got, want } => {
                write!(f, "tag mismatch from rank {src}: got {got}, want {want}")
            }
            RecvFailure::FencedOut { rank, incarnation } => write!(
                f,
                "rank {rank} incarnation {incarnation} fenced out by respawn"
            ),
            RecvFailure::HeartbeatLost { rank, missed } => write!(
                f,
                "rank {rank} declared dead: heartbeat lost for {missed} polls"
            ),
            RecvFailure::FenceTimeout { rank, waited } => write!(
                f,
                "rank {rank}: epoch fence timed out after {waited:?} — peer missing"
            ),
        }
    }
}

/// Typed panic payload used by the resilient communication paths: carries
/// the failing rank, the epoch it failed under, and the structured
/// failure. [`crate::World::try_run`] downcasts this back out so the run
/// supervisor can distinguish "rank died" from "rank hit a bug".
#[derive(Clone, Debug)]
pub struct CommFailure {
    /// The rank that observed (or suffered) the failure.
    pub rank: usize,
    /// Communicator epoch at failure time.
    pub epoch: u64,
    /// What went wrong.
    pub failure: RecvFailure,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: {} (epoch {})", self.rank, self.failure, self.epoch)
    }
}

/// A message in flight: payload plus the virtual time at which the data
/// becomes available at the destination, wrapped in the resilience
/// envelope (epoch, sequence number, payload CRC).
pub(crate) struct Msg {
    pub tag: Tag,
    /// Payload. `Arc`-backed so a pooled sender (the halo exchanger, the
    /// collective buffer pool) can put a buffer on the wire without
    /// copying it; the slot becomes reusable when the receiver drops its
    /// reference.
    pub data: Arc<Vec<f64>>,
    /// Sender's virtual send time, µs.
    pub t_send: f64,
    /// Payload bytes (for the receiver-side transfer-time computation).
    pub bytes: f64,
    /// Transfer path chosen by the sender.
    pub path: NetPath,
    /// Communicator epoch the sender lived in.
    pub epoch: u64,
    /// Per-(src,dst) sequence number within the epoch.
    pub seq: u64,
    /// CRC32 of the pristine payload (computed before any injected wire
    /// fault, so corruption is detectable on the verified path).
    pub crc: u32,
}

/// Payload of a rank→root collective message:
/// (rank, values, send time, epoch).
pub(crate) type RootMsg = (usize, Arc<Vec<f64>>, f64, u64);
/// Root→rank broadcast payload: (values, sync time, epoch).
pub(crate) type BcastMsg = (Arc<Vec<f64>>, f64, u64);
/// Root-side receiver of rank→root collective traffic (shared by root).
pub(crate) type FromRanks = Option<Arc<Receiver<RootMsg>>>;

/// Two-phase drain barrier used by [`Comm::epoch_fence`]: phase 1
/// quiesces every live incarnation, phase 2 (after each rank drained its
/// own inboxes) releases them into the next epoch.
pub(crate) struct Fence {
    state: Mutex<FenceState>,
    cv: Condvar,
}

struct FenceState {
    count: usize,
    gen: u64,
}

impl Fence {
    fn new() -> Self {
        Self {
            state: Mutex::new(FenceState { count: 0, gen: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Generation barrier over `n` participants; the last arriver runs
    /// `leader` before releasing the rest. Returns `Err(())` on timeout
    /// (the arrival is rolled back so a later fence can still form).
    fn wait(&self, n: usize, timeout: Duration, leader: impl FnOnce()) -> Result<(), ()> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let my_gen = st.gen;
        st.count += 1;
        if st.count == n {
            st.count = 0;
            leader();
            st.gen += 1;
            drop(st);
            self.cv.notify_all();
            return Ok(());
        }
        while st.gen == my_gen {
            let now = Instant::now();
            if now >= deadline {
                st.count -= 1;
                return Err(());
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
        Ok(())
    }
}

/// One rank's allreduce contribution as gathered at the root: the shared
/// payload plus the contributor's sync time.
type Contribution = (Arc<Vec<f64>>, f64);

/// World-level shared control block: the communicator epoch, the current
/// incarnation of every rank (zombie fencing), liveness slots for the
/// heartbeat detector, and the fence. One per world, shared by every
/// `Comm` through an `Arc`.
pub(crate) struct WorldCtl {
    pub(crate) epoch: AtomicU64,
    pub(crate) incarnations: Vec<AtomicUsize>,
    pub(crate) stale_rejected: AtomicU64,
    pub(crate) seq_gaps: AtomicU64,
    pub(crate) liveness: Arc<LivenessHandle>,
    pub(crate) fence: Fence,
}

impl WorldCtl {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: AtomicU64::new(0),
            incarnations: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            stale_rejected: AtomicU64::new(0),
            seq_gaps: AtomicU64::new(0),
            liveness: Arc::new(LivenessHandle(Liveness::new(n))),
            fence: Fence::new(),
        })
    }
}

/// One rank's handle into the world.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Which incarnation of the rank this handle belongs to (0 for the
    /// original worker; bumped on every respawn).
    incarnation: usize,
    /// `to[d]` sends to rank d (None at `d == rank` is avoided by using a
    /// real channel to self — self-sends are how the periodic wrap works
    /// on one rank).
    to: Vec<Sender<Msg>>,
    /// `from[s]` receives from rank s.
    from: Vec<Receiver<Msg>>,
    /// Shared collective scratchpad channels: every rank → root, root → every rank.
    pub(crate) to_root: Sender<RootMsg>,
    pub(crate) from_ranks: FromRanks,
    pub(crate) from_root: Receiver<BcastMsg>,
    pub(crate) to_ranks: Vec<Sender<BcastMsg>>,
    /// World-shared control block (epoch, incarnations, liveness, fence).
    pub(crate) ctl: Arc<WorldCtl>,
    /// Collective latency per tree stage, µs.
    pub coll_latency_us: f64,
    /// Collective bandwidth, bytes/µs.
    pub coll_bw: f64,
    /// Armed point-to-point fault (consumed by sends while `armed_count`
    /// lasts).
    armed_fault: Cell<Option<NetFault>>,
    /// How many more sends the armed fault applies to.
    armed_count: Cell<u32>,
    /// Next send is stamped with this epoch instead of the current one —
    /// test hook for proving stale-envelope rejection.
    forced_epoch: Cell<Option<u64>>,
    /// Per-destination send sequence numbers (reset at each fence).
    send_seq: Vec<Cell<u64>>,
    /// Per-source expected receive sequence numbers.
    recv_seq: Vec<Cell<u64>>,
    /// Wall-clock receive deadline; `None` = block forever (the default,
    /// zero-overhead path). Armed by the run supervisor alongside fault
    /// injection so a lost message becomes a diagnosable failure.
    recv_deadline: Cell<Option<Duration>>,
    /// Reusable collective payload buffers (see [`Comm::pooled_payload`]).
    payload_pool: RefCell<Vec<Arc<Vec<f64>>>>,
    /// Root-side gather scratch for [`Comm::allreduce`], reused per call.
    contribs_scratch: RefCell<Vec<Option<Contribution>>>,
    /// Root-side fold accumulator for [`Comm::allreduce`], reused per call.
    reduce_scratch: RefCell<Vec<f64>>,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        incarnation: usize,
        to: Vec<Sender<Msg>>,
        from: Vec<Receiver<Msg>>,
        to_root: Sender<RootMsg>,
        from_ranks: FromRanks,
        from_root: Receiver<BcastMsg>,
        to_ranks: Vec<Sender<BcastMsg>>,
        ctl: Arc<WorldCtl>,
    ) -> Self {
        Self {
            rank,
            size,
            incarnation,
            to,
            from,
            to_root,
            from_ranks,
            from_root,
            to_ranks,
            ctl,
            coll_latency_us: 6.0,
            coll_bw: 20.0e3, // 20 GB/s effective for small collectives
            armed_fault: Cell::new(None),
            armed_count: Cell::new(0),
            forced_epoch: Cell::new(None),
            send_seq: (0..size).map(|_| Cell::new(0)).collect(),
            recv_seq: (0..size).map(|_| Cell::new(0)).collect(),
            recv_deadline: Cell::new(None),
            payload_pool: RefCell::new(Vec::new()),
            contribs_scratch: RefCell::new(Vec::new()),
            reduce_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Acquire a pooled payload buffer filled with `vals`. A slot is
    /// reusable once every receiver has dropped its `Arc` (strong count
    /// back to 1 — only the pool's own reference left), so steady-state
    /// collective traffic recycles a handful of buffers instead of
    /// allocating per call.
    fn pooled_payload(&self, vals: &[f64]) -> Arc<Vec<f64>> {
        let mut pool = self.payload_pool.borrow_mut();
        for slot in pool.iter_mut() {
            if let Some(buf) = Arc::get_mut(slot) {
                buf.clear();
                buf.extend_from_slice(vals);
                return Arc::clone(slot);
            }
        }
        let fresh = Arc::new(vals.to_vec());
        pool.push(Arc::clone(&fresh));
        fresh
    }

    /// Arm `fault` for the next point-to-point send from this rank. The
    /// fault fires once and disarms. Used by the fault-injection plan.
    pub fn arm_net_fault(&self, fault: NetFault) {
        self.arm_net_fault_n(fault, 1);
    }

    /// Arm `fault` for the next `count` point-to-point sends — the
    /// repeated-loss scenario that exhausts a bounded retry budget.
    pub fn arm_net_fault_n(&self, fault: NetFault, count: u32) {
        self.armed_fault.set(if count == 0 { None } else { Some(fault) });
        self.armed_count.set(count);
    }

    /// The currently-armed (not yet fired) fault, if any.
    pub fn armed_net_fault(&self) -> Option<NetFault> {
        self.armed_fault.get()
    }

    /// Bound every subsequent [`Comm::recv`] by a wall-clock `deadline`
    /// (`None` restores unbounded blocking). With a deadline armed, a
    /// message that never arrives panics with a diagnosable timeout
    /// message instead of deadlocking the rank forever.
    pub fn set_recv_deadline(&self, deadline: Option<Duration>) {
        self.recv_deadline.set(deadline);
    }

    /// The currently-armed receive deadline, if any.
    pub fn recv_deadline(&self) -> Option<Duration> {
        self.recv_deadline.get()
    }

    /// Current communicator epoch (0 until the first respawn fence).
    pub fn epoch(&self) -> u64 {
        self.ctl.epoch.load(Ordering::SeqCst)
    }

    /// Which incarnation of this rank the handle belongs to (0 = the
    /// original worker, `n` = the n-th respawn).
    pub fn incarnation(&self) -> usize {
        self.incarnation
    }

    /// Messages rejected for carrying a pre-fence epoch (world total).
    pub fn stale_rejected(&self) -> u64 {
        self.ctl.stale_rejected.load(Ordering::SeqCst)
    }

    /// Sequence gaps observed on receives (world total) — each gap is a
    /// message that was sent but never arrived.
    pub fn seq_gaps(&self) -> u64 {
        self.ctl.seq_gaps.load(Ordering::SeqCst)
    }

    /// `true` once the world has respawned this rank: this handle belongs
    /// to a dead incarnation and every further operation on it panics
    /// with a structured [`CommFailure`]. A zombie thread polls this to
    /// exit cleanly.
    pub fn fenced_out(&self) -> bool {
        self.ctl.incarnations[self.rank].load(Ordering::SeqCst) != self.incarnation
    }

    /// Test hook: advance the world epoch without a fence. Returns the
    /// new epoch. Real recovery advances the epoch inside
    /// [`Comm::epoch_fence`], where every rank is quiesced.
    pub fn advance_epoch(&self) -> u64 {
        self.ctl.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Test hook: stamp the **next** send with `epoch` instead of the
    /// current one — forges a straggler from a dead incarnation.
    pub fn force_send_epoch(&self, epoch: u64) {
        self.forced_epoch.set(Some(epoch));
    }

    /// Test hook: freeze this rank's heartbeat so the monitor declares it
    /// dead while the thread is still running (the zombie scenario).
    pub fn halt_heartbeat(&self) {
        self.ctl.liveness.0.halt(self.rank);
    }

    fn check_fenced(&self) {
        if self.fenced_out() {
            std::panic::panic_any(CommFailure {
                rank: self.rank,
                epoch: self.epoch(),
                failure: RecvFailure::FencedOut {
                    rank: self.rank,
                    incarnation: self.incarnation,
                },
            });
        }
    }

    /// Collective recovery point. All `size` live incarnations must call
    /// this; the barrier quiesces the world, every rank drains its own
    /// inboxes of dead-incarnation traffic, sequence numbers reset, and
    /// the last arriver advances the epoch. Returns the new epoch, or a
    /// structured failure if some participant never arrived (rank
    /// already finished, or the respawn budget was exhausted so no
    /// replacement is coming).
    pub fn epoch_fence(&self, timeout: Duration) -> Result<u64, RecvFailure> {
        self.check_fenced();
        let n = self.size;
        // Phase 1: arrive. Once all n are here nothing is in flight.
        self.ctl
            .fence
            .wait(n, timeout, || {})
            .map_err(|_| RecvFailure::FenceTimeout {
                rank: self.rank,
                waited: timeout,
            })?;
        // Drain own inboxes: everything still queued was sent by (or to)
        // a dead incarnation under the old epoch.
        let mut drained = 0u64;
        for rx in &self.from {
            while rx.try_recv().is_some() {
                drained += 1;
            }
        }
        if let Some(rx) = &self.from_ranks {
            while rx.try_recv().is_some() {
                drained += 1;
            }
        }
        while self.from_root.try_recv().is_some() {
            drained += 1;
        }
        if drained > 0 {
            self.ctl.stale_rejected.fetch_add(drained, Ordering::SeqCst);
        }
        for c in &self.send_seq {
            c.set(0);
        }
        for c in &self.recv_seq {
            c.set(0);
        }
        // Phase 2: the last arriver bumps the epoch; all resume in it.
        let ctl = self.ctl.clone();
        self.ctl
            .fence
            .wait(n, timeout, move || {
                ctl.epoch.fetch_add(1, Ordering::SeqCst);
            })
            .map_err(|_| RecvFailure::FenceTimeout {
                rank: self.rank,
                waited: timeout,
            })?;
        Ok(self.epoch())
    }

    /// Receive on a collective star channel, honouring the armed
    /// [`Comm::set_recv_deadline`] and discarding stale-epoch envelopes.
    /// Collectives are where a dead peer is felt: the star channels never
    /// disconnect (every live rank holds sender clones), so without a
    /// deadline the survivors block forever.
    fn recv_collective<T>(&self, rx: &Receiver<T>, what: &str, epoch_of: impl Fn(&T) -> u64) -> T {
        loop {
            let m = match self.recv_deadline.get() {
                None => rx
                    .recv_polled(POLL_BUDGET)
                    .unwrap_or_else(|_| panic!("rank {}: {} peer hung up", self.rank, what)),
                Some(deadline) => match rx.recv_timeout_polled(deadline, POLL_BUDGET) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Disconnected) => {
                        panic!("rank {}: {} peer hung up", self.rank, what)
                    }
                    Err(RecvTimeoutError::Timeout) => panic!(
                        "rank {}: timed out after {:?} in {} — peer rank lost?",
                        self.rank, deadline, what
                    ),
                },
            };
            if epoch_of(&m) < self.epoch() {
                self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            return m;
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Neighbour ranks for the periodic 1-D φ decomposition:
    /// `(low, high)` = `(rank-1 mod P, rank+1 mod P)`.
    pub fn phi_neighbors(&self) -> (usize, usize) {
        let p = self.size;
        ((self.rank + p - 1) % p, (self.rank + 1) % p)
    }

    /// Non-blocking send of `data` to `dst`. The sender's current virtual
    /// time stamps the message; P2P DMA costs the sender nothing (the
    /// transfer time is accounted on the receive side, where it can
    /// overlap the receiver's other work).
    pub fn send(&self, dst: usize, tag: Tag, data: Vec<f64>, path: NetPath, ctx: &DeviceContext) {
        let bytes = (data.len() * 8) as f64;
        self.send_with_cost(dst, tag, data, path, ctx, bytes);
    }

    /// Like [`Comm::send`], but with an explicit model byte count for the
    /// transfer cost — used by the paper-scale extrapolation, where the
    /// payload is the scaled test problem but the wire cost must reflect
    /// the production problem's halo size.
    pub fn send_with_cost(
        &self,
        dst: usize,
        tag: Tag,
        data: Vec<f64>,
        path: NetPath,
        ctx: &DeviceContext,
        cost_bytes: f64,
    ) {
        self.send_payload(dst, tag, Arc::new(data), path, ctx, cost_bytes);
    }

    /// Zero-copy send of an `Arc`-backed payload — the pooled-buffer fast
    /// path used by the halo exchanger. The caller keeps its reference;
    /// the buffer goes on the wire without a copy and the caller can
    /// detect the receiver finishing with it via `Arc::get_mut` (the
    /// strong count drops back when the receiver drops the message).
    pub fn send_pooled(
        &self,
        dst: usize,
        tag: Tag,
        data: Arc<Vec<f64>>,
        path: NetPath,
        ctx: &DeviceContext,
        cost_bytes: f64,
    ) {
        self.send_payload(dst, tag, data, path, ctx, cost_bytes);
    }

    fn send_payload(
        &self,
        dst: usize,
        tag: Tag,
        mut data: Arc<Vec<f64>>,
        path: NetPath,
        ctx: &DeviceContext,
        cost_bytes: f64,
    ) {
        self.check_fenced();
        // Envelope fields are computed over the pristine payload: the CRC
        // models an end-to-end checksum stamped before the wire, so
        // injected in-flight corruption is detectable by the receiver.
        let crc = crc32_f64(&data);
        let seq = self.send_seq[dst].get();
        self.send_seq[dst].set(seq + 1);
        let epoch = self.forced_epoch.take().unwrap_or_else(|| self.epoch());
        if let Some(fault) = self.armed_fault.get() {
            let left = self.armed_count.get();
            if left <= 1 {
                self.armed_fault.set(None);
                self.armed_count.set(0);
            } else {
                self.armed_count.set(left - 1);
            }
            match fault {
                NetFault::Corrupt => {
                    // Bad DMA / truncated packet: the payload arrives
                    // with its second half garbled. (Not just one corner
                    // element — a halo pack's element 0 is a ghost-ghost
                    // corner no interior stencil reads, so a single
                    // corrupted value there would be invisible.)
                    // `make_mut` clones only if the sender still holds the
                    // buffer — the corruption happens in flight, the
                    // sender's pooled copy stays pristine for the retry.
                    let buf = Arc::make_mut(&mut data);
                    let n = buf.len();
                    for v in &mut buf[n / 2..] {
                        *v = f64::NAN;
                    }
                }
                NetFault::Drop => {
                    // Lost packet: the message never enters the channel
                    // (the sequence number it consumed becomes a gap).
                    return;
                }
            }
        }
        let msg = Msg {
            tag,
            data,
            t_send: ctx.clock.now_us(),
            bytes: cost_bytes,
            path,
            epoch,
            seq,
            crc,
        };
        self.to[dst]
            .send(msg)
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Control-plane send: like [`Comm::send`] but **immune to armed
    /// network faults**. The fault model targets payload-bearing halo
    /// messages (bulk DMA on the data path); tiny protocol messages —
    /// the retrying transport's ACK/NACK verdicts — ride a modeled
    /// reliable control channel, exactly as a real transport protects its
    /// headers with link-level retransmit while payload corruption leaks
    /// through to the end-to-end checksum.
    pub fn send_ctl(&self, dst: usize, tag: Tag, data: Vec<f64>, ctx: &DeviceContext) {
        self.check_fenced();
        let crc = crc32_f64(&data);
        let seq = self.send_seq[dst].get();
        self.send_seq[dst].set(seq + 1);
        let epoch = self.forced_epoch.take().unwrap_or_else(|| self.epoch());
        let bytes = (data.len() * 8) as f64;
        let msg = Msg {
            tag,
            data: Arc::new(data),
            t_send: ctx.clock.now_us(),
            bytes,
            path: NetPath::Host,
            epoch,
            seq,
            crc,
        };
        self.to[dst]
            .send(msg)
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Track receive sequence continuity: a forward jump means messages
    /// were lost in between (counted, not fatal — the verified transport
    /// recovers them by retry, the legacy path by the health check).
    fn note_seq(&self, src: usize, seq: u64) {
        let expect = self.recv_seq[src].get();
        if seq > expect {
            self.ctl.seq_gaps.fetch_add(seq - expect, Ordering::SeqCst);
        }
        self.recv_seq[src].set(seq.max(expect) + 1);
    }

    /// Charge the receive-side wait + transfer time into the MPI phase.
    fn book_transfer(&self, msg: &Msg, ctx: &mut DeviceContext) {
        let transfer_us = match msg.path {
            NetPath::DeviceP2P => ctx.spec.p2p_time_us(msg.bytes),
            // Host path uses the same physical link but adds the staging
            // copy latency on both ends; under UM the page-migration costs
            // are charged separately by the memory manager.
            NetPath::Host => ctx.spec.p2p_time_us(msg.bytes) + 2.0 * ctx.spec.h2d_latency_us,
        };
        let t_avail = msg.t_send + transfer_us;
        let now = ctx.clock.now_us();
        let prev = ctx.set_phase(Phase::Mpi);
        if t_avail > now {
            // Receiver idles until the data lands: split into the wire time
            // (categorized by path) and pure waiting (sender imbalance).
            let wire = transfer_us.min(t_avail - now);
            let wait = (t_avail - now) - wire;
            if wait > 0.0 {
                ctx.charge(wait, TimeCategory::MpiWait, "recv_wait");
            }
            let cat = match msg.path {
                NetPath::DeviceP2P => TimeCategory::P2P,
                NetPath::Host => TimeCategory::MemcpyD2H,
            };
            ctx.charge(wire, cat, "recv_transfer");
        }
        ctx.set_phase(prev);
    }

    /// Blocking receive from `src`; reconciles the virtual clock and books
    /// the wait + transfer into the MPI phase.
    ///
    /// Stale-epoch envelopes are discarded (counted) without delivery;
    /// everything else is delivered as-is — this legacy path does **not**
    /// verify the CRC, so in-flight corruption reaches the caller exactly
    /// like a real unchecksummed transport. Verified receives go through
    /// [`Comm::try_recv`].
    ///
    /// Returns the payload.
    pub fn recv(&self, src: usize, tag: Tag, ctx: &mut DeviceContext) -> Vec<f64> {
        let data = self.recv_shared(src, tag, ctx);
        // Fresh (non-pooled) sends keep no reference, so this is a move,
        // not a copy — recv stays zero-cost for the common case.
        Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone())
    }

    /// Like [`Comm::recv`], but hands back the `Arc`-backed payload
    /// without unwrapping it. The pooled halo path uses this: copy out of
    /// the shared buffer, then drop it so the sender's pool slot frees.
    pub fn recv_shared(&self, src: usize, tag: Tag, ctx: &mut DeviceContext) -> Arc<Vec<f64>> {
        self.check_fenced();
        let msg = loop {
            let m = match self.recv_deadline.get() {
                None => self.from[src]
                    .recv_polled(POLL_BUDGET)
                    .unwrap_or_else(|_| panic!("rank {src} hung up")),
                Some(deadline) => match self.from[src].recv_timeout_polled(deadline, POLL_BUDGET) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Disconnected) => panic!("rank {src} hung up"),
                    Err(RecvTimeoutError::Timeout) => panic!(
                        "rank {}: timed out after {:?} waiting for tag {} from rank {} — message lost?",
                        self.rank, deadline, tag, src
                    ),
                },
            };
            if m.epoch < self.epoch() {
                self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            break m;
        };
        self.note_seq(src, msg.seq);
        assert_eq!(
            msg.tag, tag,
            "tag mismatch on rank {} receiving from {}: got {}, want {}",
            self.rank, src, msg.tag, tag
        );
        self.book_transfer(&msg, ctx);
        msg.data
    }

    /// Verified receive with an explicit deadline: checks the envelope
    /// (epoch, tag, CRC) and returns a structured [`RecvFailure`] instead
    /// of panicking. A stale or mismatched message is **consumed** but
    /// not delivered — the caller decides whether to retry. This is the
    /// substrate of the retrying halo transport.
    pub fn try_recv(
        &self,
        src: usize,
        tag: Tag,
        ctx: &mut DeviceContext,
        deadline: Duration,
    ) -> Result<Vec<f64>, RecvFailure> {
        self.check_fenced();
        let msg = match self.from[src].recv_timeout_polled(deadline, POLL_BUDGET) {
            Ok(m) => m,
            Err(RecvTimeoutError::Disconnected) => return Err(RecvFailure::Disconnected { src }),
            Err(RecvTimeoutError::Timeout) => {
                return Err(RecvFailure::Timeout {
                    src,
                    tag,
                    waited: deadline,
                })
            }
        };
        let current = self.epoch();
        if msg.epoch < current {
            self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
            return Err(RecvFailure::StaleEpoch {
                src,
                got: msg.epoch,
                current,
            });
        }
        self.note_seq(src, msg.seq);
        if msg.tag != tag {
            return Err(RecvFailure::TagMismatch {
                src,
                got: msg.tag,
                want: tag,
            });
        }
        if crc32_f64(&msg.data) != msg.crc {
            return Err(RecvFailure::Corrupt {
                src,
                tag,
                seq: msg.seq,
            });
        }
        self.book_transfer(&msg, ctx);
        Ok(Arc::try_unwrap(msg.data).unwrap_or_else(|a| (*a).clone()))
    }

    /// Like [`Comm::try_recv`], but accepts any of `tags` from `src` and
    /// returns which one arrived. The per-pair FIFO reorders two logical
    /// streams the moment one message is lost (the follower arrives in
    /// the dropped one's place); a receiver insisting on one specific
    /// tag would consume-and-drop its peer's healthy message. Matching
    /// against the full outstanding set makes the verified transport
    /// order-tolerant.
    pub fn try_recv_any(
        &self,
        src: usize,
        tags: &[Tag],
        ctx: &mut DeviceContext,
        deadline: Duration,
    ) -> Result<(Tag, Vec<f64>), RecvFailure> {
        self.try_recv_any_shared(src, tags, ctx, deadline)
            .map(|(t, d)| (t, Arc::try_unwrap(d).unwrap_or_else(|a| (*a).clone())))
    }

    /// [`Comm::try_recv_any`] without unwrapping the shared payload — the
    /// verified pooled-halo path copies out of the `Arc` and drops it.
    pub fn try_recv_any_shared(
        &self,
        src: usize,
        tags: &[Tag],
        ctx: &mut DeviceContext,
        deadline: Duration,
    ) -> Result<(Tag, Arc<Vec<f64>>), RecvFailure> {
        self.check_fenced();
        let msg = match self.from[src].recv_timeout_polled(deadline, POLL_BUDGET) {
            Ok(m) => m,
            Err(RecvTimeoutError::Disconnected) => return Err(RecvFailure::Disconnected { src }),
            Err(RecvTimeoutError::Timeout) => {
                return Err(RecvFailure::Timeout {
                    src,
                    tag: tags.first().copied().unwrap_or_default(),
                    waited: deadline,
                })
            }
        };
        let current = self.epoch();
        if msg.epoch < current {
            self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
            return Err(RecvFailure::StaleEpoch {
                src,
                got: msg.epoch,
                current,
            });
        }
        self.note_seq(src, msg.seq);
        if !tags.contains(&msg.tag) {
            return Err(RecvFailure::TagMismatch {
                src,
                got: msg.tag,
                want: tags.first().copied().unwrap_or_default(),
            });
        }
        if crc32_f64(&msg.data) != msg.crc {
            return Err(RecvFailure::Corrupt {
                src,
                tag: msg.tag,
                seq: msg.seq,
            });
        }
        self.book_transfer(&msg, ctx);
        Ok((msg.tag, msg.data))
    }

    /// Barrier: synchronize data-free; all clocks advance to the max plus
    /// one collective latency.
    pub fn barrier(&self, ctx: &mut DeviceContext) {
        let mut none: [f64; 0] = [];
        self.allreduce(ReduceOp::Max, &mut none, ctx);
    }

    /// In-place allreduce over `vals` (deterministic rank-order reduction
    /// at rank 0, then broadcast). Clock rule: every rank ends at
    /// `max_i(t_i) + cost(P, bytes)`.
    ///
    /// Steady state is allocation-free: contributions and the broadcast
    /// result ride pooled `Arc` buffers that return to their pool when the
    /// receiver drops them, and the root folds into reusable scratch.
    /// [`set_legacy_alloc`] reinstates the historical per-call
    /// `to_vec`/`clone` churn for before/after benchmarking — bit-exact
    /// either way.
    pub fn allreduce(&self, op: ReduceOp, vals: &mut [f64], ctx: &mut DeviceContext) {
        self.check_fenced();
        let legacy = legacy_alloc();
        let t_now = ctx.clock.now_us();
        let epoch = self.epoch();
        let contribution = if legacy {
            Arc::new(vals.to_vec())
        } else {
            self.pooled_payload(vals)
        };
        self.to_root
            .send((self.rank, contribution, t_now, epoch))
            .expect("root hung up");
        if let Some(rx) = &self.from_ranks {
            if legacy {
                // I am root: collect all contributions in rank order,
                // allocating per call as the pre-pooling code did.
                let mut contribs: Vec<Option<(Arc<Vec<f64>>, f64)>> = vec![None; self.size];
                let mut got = 0;
                while got < self.size {
                    let (r, v, t, _e) = self.recv_collective(rx, "allreduce(gather)", |m| m.3);
                    if contribs[r].is_none() {
                        got += 1;
                    }
                    contribs[r] = Some((v, t));
                }
                let mut acc: Option<Vec<f64>> = None;
                let mut t_sync = 0.0_f64;
                for c in contribs.into_iter() {
                    let (v, t) = c.expect("missing contribution");
                    t_sync = t_sync.max(t);
                    let v = Arc::try_unwrap(v).unwrap_or_else(|a| (*a).clone());
                    acc = Some(match acc {
                        None => v,
                        Some(mut a) => {
                            for (ai, &vi) in a.iter_mut().zip(&v) {
                                *ai = op.apply(*ai, vi);
                            }
                            a
                        }
                    });
                }
                let result = acc.expect("size >= 1");
                for s in &self.to_ranks {
                    s.send((Arc::new(result.clone()), t_sync, epoch))
                        .expect("rank hung up");
                }
            } else {
                // I am root: gather into reusable scratch, fold in rank
                // order into the reusable accumulator, broadcast a pooled
                // buffer shared by every rank.
                let mut contribs = self.contribs_scratch.borrow_mut();
                contribs.clear();
                contribs.resize_with(self.size, || None);
                let mut got = 0;
                while got < self.size {
                    let (r, v, t, _e) = self.recv_collective(rx, "allreduce(gather)", |m| m.3);
                    if contribs[r].is_none() {
                        got += 1;
                    }
                    contribs[r] = Some((v, t));
                }
                let mut acc = self.reduce_scratch.borrow_mut();
                acc.clear();
                let mut t_sync = 0.0_f64;
                for (i, c) in contribs.iter().enumerate() {
                    let (v, t) = c.as_ref().expect("missing contribution");
                    t_sync = t_sync.max(*t);
                    if i == 0 {
                        acc.extend_from_slice(v);
                    } else {
                        for (ai, &vi) in acc.iter_mut().zip(v.iter()) {
                            *ai = op.apply(*ai, vi);
                        }
                    }
                }
                // Release the contribution Arcs before acquiring the
                // broadcast buffer so their pool slots become reusable.
                contribs.clear();
                let out = self.pooled_payload(&acc);
                for s in &self.to_ranks {
                    s.send((Arc::clone(&out), t_sync, epoch)).expect("rank hung up");
                }
            }
        }
        let (result, t_sync, _e) = self.recv_collective(&self.from_root, "allreduce(bcast)", |m| m.2);
        vals.copy_from_slice(&result);
        drop(result);

        // Timing: wait to the sync point, then pay the tree cost.
        let stages = (self.size as f64).log2().ceil().max(1.0);
        let bytes = (vals.len() * 8) as f64;
        let cost = stages * (self.coll_latency_us + bytes / self.coll_bw);
        let now = ctx.clock.now_us();
        let prev = ctx.set_phase(Phase::Mpi);
        if t_sync > now {
            ctx.charge(t_sync - now, TimeCategory::MpiWait, "allreduce_wait");
        }
        ctx.charge(cost, TimeCategory::Collective, "allreduce");
        ctx.set_phase(prev);
    }

    /// Gather each rank's payload to rank 0 (no timing charges — used for
    /// diagnostics/reporting only). Returns `Some(payloads)` on rank 0.
    pub fn gather_to_root(&self, data: Vec<f64>, ctx: &DeviceContext) -> Option<Vec<Vec<f64>>> {
        self.check_fenced();
        let epoch = self.epoch();
        self.to_root
            .send((self.rank, Arc::new(data), ctx.clock.now_us(), epoch))
            .expect("root hung up");
        if let Some(rx) = &self.from_ranks {
            let mut out: Vec<Option<Vec<f64>>> = vec![None; self.size];
            let mut got = 0;
            while got < self.size {
                let (r, v, _, _e) = self.recv_collective(rx, "gather_to_root", |m| m.3);
                if out[r].is_none() {
                    got += 1;
                }
                out[r] = Some(Arc::try_unwrap(v).unwrap_or_else(|a| (*a).clone()));
            }
            // Release the non-root ranks (they wait on from_root for sync).
            let empty = Arc::new(Vec::new());
            for s in &self.to_ranks {
                s.send((Arc::clone(&empty), 0.0, epoch)).expect("rank hung up");
            }
            let res = out.into_iter().map(|o| o.expect("missing")).collect();
            let _ = self.from_root.recv_polled(POLL_BUDGET);
            Some(res)
        } else {
            let _ = self.from_root.recv_polled(POLL_BUDGET);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    // Comm is only constructible through World; its behaviour is tested in
    // `world.rs` where ranks exist.
    #[test]
    fn reduce_op_semantics() {
        use super::ReduceOp::*;
        assert_eq!(Sum.apply(1.0, 2.0), 3.0);
        assert_eq!(Min.apply(1.0, 2.0), 1.0);
        assert_eq!(Max.apply(1.0, 2.0), 2.0);
    }

    #[test]
    fn crc_is_stable_and_sensitive() {
        let a = super::crc32_f64(&[1.0, 2.0, 3.0]);
        let b = super::crc32_f64(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b, "deterministic");
        let c = super::crc32_f64(&[1.0, 2.0, 3.0000000001]);
        assert_ne!(a, c, "sensitive to any bit");
        assert_ne!(super::crc32_f64(&[]), super::crc32_f64(&[0.0]));
    }

    #[test]
    fn fence_releases_all_and_runs_leader_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let fence = std::sync::Arc::new(super::Fence::new());
        let bumps = std::sync::Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let f = fence.clone();
                let b = bumps.clone();
                s.spawn(move || {
                    f.wait(4, std::time::Duration::from_secs(5), || {
                        b.fetch_add(1, Ordering::SeqCst);
                    })
                    .expect("fence forms");
                });
            }
        });
        assert_eq!(bumps.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    #[test]
    fn fence_times_out_when_short_handed() {
        let fence = super::Fence::new();
        let r = fence.wait(2, std::time::Duration::from_millis(20), || {});
        assert!(r.is_err(), "lone participant must time out");
    }
}
