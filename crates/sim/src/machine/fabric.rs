//! The synchronization fabric: how sync-variable writes reach the
//! global state and every processor's local image.
//!
//! The paper's §6 argues for a **dedicated** synchronization bus with
//! per-processor local images. Every bus transport here is one engine
//! over an array of **broadcast domains** — each a bus with its own
//! FIFO and arbiter serving a contiguous processor range — plus an
//! optional **bridge** that joins the domains:
//!
//! * [`DedicatedBus`] — the paper's hardware and the default: one
//!   domain spanning every processor, no bridge. Posted broadcasts,
//!   local-image spinning at zero traffic.
//! * [`SharedDataBus`] — no dedicated hardware: the same one-domain
//!   engine, but its broadcasts arbitrate against data traffic for the
//!   one physical bus (data has priority, and a broadcast in flight
//!   blocks data grants). Quantifies what §6's dedicated bus buys.
//! * [`FabricKind::Clustered`] — the two-level hierarchy for large P:
//!   the dedicated-bus engine over one domain per cluster, arbitrating
//!   independently, plus the bridge. A completed domain broadcast
//!   delivers to its own cluster's images and submits the variable to
//!   the bridge, which folds same-variable updates within a coalescing
//!   window and forwards one broadcast to every image. Because sync
//!   variables are monotone counters and a forward re-reads the global
//!   value at delivery, folding partial barrier/SC/PC counts into one
//!   forward is lossless — the aggregation that keeps the bridge off
//!   the critical path at P=1024+.
//! * [`IdealFabric`] — a zero-latency oracle: posts and RMWs perform
//!   globally and in every image the instant they issue, at zero
//!   occupancy and immune to sync-path faults. It never queues, so its
//!   domain stays empty. The upper bound any interconnect could
//!   approach.
//!
//! Backends are stateless: all transport state (global values, images,
//! the domains, the bridge, deferred image updates, sequence tags)
//! lives in [`SyncState`], owned by the machine, so the fast-forward and
//! reference steppers dispatch through one interface and the
//! equivalence suite proves them bit-identical per fabric. Sync-path
//! fault injection (drops, delays, reorders, stale/lost images) and the
//! NACK/retransmit recovery path operate on the domain buses, so they
//! apply to every bus fabric and not to the oracle; the per-image
//! loss/stale faults also hit bridge deliveries, so the recovery ladder
//! is exercised across the bridge too.

use super::Machine;
use crate::config::FabricKind;
use crate::events::SimEventKind;
use crate::faults::FaultClass;
use crate::program::SyncVar;
use std::collections::VecDeque;

/// A queued synchronization operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SyncReq {
    Post { proc: usize, var: SyncVar, val: u64 },
    Rmw { proc: usize, var: SyncVar },
}

/// A sync-bus message with its fault-injection bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedSync {
    pub(crate) req: SyncReq,
    /// Issue-order tag. Broadcast hardware stamps messages so a stale
    /// redelivery or reordered grant of an *older* write can be
    /// recognized and discarded instead of clobbering a newer value
    /// (sync variables are monotonic counters in every scheme; a
    /// regression would wedge every waiter past the lost value).
    pub(crate) seq: u64,
    /// Times this message was dropped and re-queued (capped by
    /// `FaultPlan::max_redeliveries`, so delivery is eventual).
    pub(crate) redeliveries: u32,
    /// Cycle of the first grant — or, for a message overtaken by a
    /// reordered grant, the cycle it *would* have been granted — used to
    /// measure recovery latency.
    pub(crate) first_grant: Option<u64>,
    /// Whether any fault touched this message (only faulted messages
    /// contribute to recovery-latency stats).
    pub(crate) faulted: bool,
    /// A NACK-triggered re-broadcast. A refresh carries no payload of
    /// its own: it re-reads the *current* global value at delivery time
    /// (a value captured at NACK time could be overtaken by an RMW
    /// granted in between and would regress the variable), and it is
    /// never a coalescing target (folding a real post into a refresh
    /// would discard the post's value).
    pub(crate) refresh: bool,
}

impl QueuedSync {
    pub(crate) fn new(req: SyncReq, seq: u64) -> Self {
        Self { req, seq, redeliveries: 0, first_grant: None, faulted: false, refresh: false }
    }
}

/// Per-variable synchronization state in struct-of-arrays layout: one
/// lane per field, indexed by [`SyncVar`].
#[derive(Debug)]
pub(crate) struct VarLanes {
    /// Globally-performed value of each synchronization variable.
    pub(crate) global: Vec<u64>,
    /// Per-variable tag of the last applied sync write; an arriving
    /// message with an older tag is a stale redelivery and is discarded.
    pub(crate) applied_seq: Vec<u64>,
}

/// One broadcast domain: a sync bus with its own arbiter, serving a
/// contiguous processor range (see [`SyncState::domain_range`]).
#[derive(Debug, Default)]
pub(crate) struct Domain {
    /// Broadcasts waiting for this domain's bus.
    pub(crate) queue: VecDeque<QueuedSync>,
    /// The broadcast holding the bus, with its end cycle.
    pub(crate) active: Option<(QueuedSync, u64)>,
}

/// The bridge joining the domains of a [`FabricKind::Clustered`]
/// fabric. Its pipeline per completed domain broadcast: coalescing
/// `window` (folds same-variable followers) → `queue` → `active` (one
/// forward at a time, delivering the *current* global value to every
/// image).
#[derive(Debug)]
pub(crate) struct Bridge {
    /// Cycles the bridge holds its channel per forward.
    pub(crate) latency: u64,
    /// Cycles a first submission waits for same-variable followers.
    pub(crate) coalesce_window: u64,
    /// Coalescing window: `(var, flush_cycle)` in submission order.
    /// Flush cycles are non-decreasing (every entry waits the same
    /// window), so the front is always the earliest.
    pub(crate) window: VecDeque<(SyncVar, u64)>,
    /// Variables flushed from the window, waiting for the bridge.
    pub(crate) queue: VecDeque<SyncVar>,
    /// The forward holding the bridge, with its end cycle.
    pub(crate) active: Option<(SyncVar, u64)>,
    /// Per-variable flag: a forward of this variable is pending
    /// somewhere in window/queue/active, so a new submission folds into
    /// it (O(1) membership instead of scanning the pipeline).
    pub(crate) pending: Vec<bool>,
}

impl Bridge {
    /// Earliest window flush cycle (`u64::MAX` when the window is
    /// empty).
    #[inline]
    pub(crate) fn window_min(&self) -> u64 {
        self.window.front().map_or(u64::MAX, |&(_, flush)| flush)
    }
}

/// All synchronization-transport state: the authoritative global
/// values, per-processor local images, the broadcast domains and
/// bridge, and the deferred-image and sequence-tag machinery faults
/// and recovery hang off. Owned by the machine; backends are stateless.
///
/// Local images live in one flat **var-major** block
/// (`images[var * procs + p]`), so a broadcast delivery to all P
/// consumers is one contiguous lane fill instead of P strided stores —
/// see [`Machine::deliver_images`].
#[derive(Debug)]
pub(crate) struct SyncState {
    /// Per-variable lanes (global values, applied sequence tags).
    pub(crate) vars: VarLanes,
    /// Flat var-major per-processor local images.
    images: Vec<u64>,
    /// Processor count (the images' minor stride).
    procs: usize,
    /// The broadcast domains: one on flat fabrics, one per cluster on
    /// [`FabricKind::Clustered`].
    pub(crate) domains: Vec<Domain>,
    /// Processors per domain.
    domain_size: usize,
    /// The bridge between domains ([`FabricKind::Clustered`] only).
    pub(crate) bridge: Option<Bridge>,
    /// Total entries across every domain's queue and active slot and
    /// the bridge's window, queue and active slot — 0 iff the whole
    /// transport is idle, giving `finished`/`deadlocked`/the
    /// fast-forward horizon an O(1) idle check.
    pub(crate) inflight: usize,
    /// Next sync-message issue tag (see [`QueuedSync::seq`]).
    pub(crate) seq: u64,
    /// Deferred local-image updates per processor: `(apply_cycle, var,
    /// val)` in FIFO order, so one image always sees writes in the order
    /// they were performed globally, just late.
    pub(crate) defer: Vec<VecDeque<(u64, SyncVar, u64)>>,
    /// Total entries across all `defer` queues; 0 lets
    /// [`Machine::deliver_images`] take the batched lane-fill path.
    defer_len: usize,
    /// Earliest due cycle across all `defer` queues (`u64::MAX` when
    /// every queue is empty), so quiescent processors cost nothing in
    /// [`Machine::apply_deferred_images`].
    pub(crate) due_min: u64,
    /// Set when the [`IdealFabric`] oracle rewrites every image
    /// mid-cycle (during the processor loop): wakes cached by
    /// already-stepped spinners may now be too late, so the stepper must
    /// re-arm them. Cleared by the stepper each cycle.
    pub(crate) images_touched: bool,
}

impl SyncState {
    /// Fresh transport state for `p` processors and `n_vars` variables
    /// on `fabric`: one domain per cluster plus the bridge when
    /// clustered, one domain spanning every processor otherwise.
    pub(crate) fn new(p: usize, n_vars: usize, fabric: FabricKind) -> Self {
        let (domains, bridge) = match fabric {
            FabricKind::Clustered { clusters, bridge_latency, coalesce_window } => {
                let bridge = Bridge {
                    latency: u64::from(bridge_latency.max(1)),
                    coalesce_window: u64::from(coalesce_window),
                    window: VecDeque::new(),
                    queue: VecDeque::new(),
                    active: None,
                    pending: vec![false; n_vars], // alloc-ok: setup
                };
                ((clusters as usize).max(1), Some(bridge))
            }
            _ => (1, None),
        };
        debug_assert!(p.is_multiple_of(domains), "validate() guarantees clusters divides P");
        Self {
            vars: VarLanes { global: vec![0; n_vars], applied_seq: vec![0; n_vars] }, // alloc-ok: setup
            images: vec![0; n_vars * p], // alloc-ok: setup
            procs: p,
            domains: (0..domains).map(|_| Domain::default()).collect(), // alloc-ok: setup
            domain_size: p / domains,
            bridge,
            inflight: 0,
            seq: 0,
            defer: vec![VecDeque::new(); p], // alloc-ok: setup
            defer_len: 0,
            due_min: u64::MAX,
            images_touched: false,
        }
    }

    /// Number of synchronization variables.
    pub(crate) fn n_vars(&self) -> usize {
        self.vars.global.len()
    }

    /// The domain whose bus carries processor `p`'s broadcasts.
    #[inline]
    pub(crate) fn domain_of(&self, p: usize) -> usize {
        p / self.domain_size
    }

    /// The processors `lo..hi` whose images domain `d` delivers to.
    #[inline]
    pub(crate) fn domain_range(&self, d: usize) -> (usize, usize) {
        (d * self.domain_size, (d + 1) * self.domain_size)
    }

    /// Queues a broadcast on `proc`'s domain bus. Recovery
    /// retransmissions go through here too, so a NACKing processor's
    /// refresh rides its own domain and heals that domain's images.
    pub(crate) fn enqueue(&mut self, proc: usize, msg: QueuedSync) {
        let d = self.domain_of(proc);
        self.domains[d].queue.push_back(msg);
        self.inflight += 1;
    }

    /// Processor `p`'s local image of `var`.
    #[inline]
    pub(crate) fn image(&self, p: usize, var: SyncVar) -> u64 {
        self.images[var * self.procs + p]
    }

    #[inline]
    pub(crate) fn set_image(&mut self, p: usize, var: SyncVar, val: u64) {
        self.images[var * self.procs + p] = val;
    }

    /// All P images of `var` as one contiguous lane.
    #[inline]
    pub(crate) fn var_images_mut(&mut self, var: SyncVar) -> &mut [u64] {
        let p = self.procs;
        &mut self.images[var * p..(var + 1) * p]
    }

    /// Grows the per-variable lanes (and the image block) to `n` vars.
    pub(crate) fn resize_vars(&mut self, n: usize) {
        self.vars.global.resize(n, 0); // alloc-ok: setup
        self.vars.applied_seq.resize(n, 0); // alloc-ok: setup
        self.images.resize(n * self.procs, 0); // alloc-ok: setup
        if let Some(bridge) = &mut self.bridge {
            bridge.pending.resize(n, false); // alloc-ok: setup
        }
    }

    /// Queues a deferred image update, maintaining the count and the
    /// due-time minimum. All deferral paths must go through here so the
    /// batched-broadcast guard (`defer_len == 0`) stays truthful.
    pub(crate) fn push_defer(&mut self, p: usize, when: u64, var: SyncVar, val: u64) {
        self.defer[p].push_back((when, var, val));
        self.defer_len += 1;
        self.due_min = self.due_min.min(when);
    }

    /// Pops processor `p`'s oldest deferred update, if any (callers
    /// recompute `due_min` when they stop popping).
    pub(crate) fn pop_defer(&mut self, p: usize) -> Option<(u64, SyncVar, u64)> {
        let e = self.defer[p].pop_front();
        if e.is_some() {
            self.defer_len -= 1;
        }
        e
    }
}

/// A synchronization-fabric backend: the transport that carries
/// dedicated-transport sync operations (posted writes and atomic
/// fetch-increments) to the global state and the local images.
///
/// Backends are stateless unit structs ([`FabricKind::backend`] hands
/// out `&'static` instances); all mutable transport state lives in the
/// machine's [`SyncState`]. The provided methods are the domain engine
/// every bus fabric shares. Every method runs only at stepped
/// (non-quiet) cycles, which is what keeps the fast-forward and
/// reference steppers bit-identical per fabric.
pub trait SyncFabric: std::fmt::Debug + Sync {
    /// The configuration tag this backend implements.
    fn kind(&self) -> FabricKind;

    /// Whether sync grants contend with data traffic for one physical
    /// bus (no dedicated sync hardware).
    fn shares_data_bus(&self) -> bool {
        false
    }

    /// Issues a posted write of `val` to `var` from `proc`. Posted
    /// writes never block the issuing processor.
    fn post(&self, m: &mut Machine<'_>, proc: usize, var: SyncVar, val: u64) {
        m.post_sync_write(proc, var, val);
    }

    /// Issues an atomic fetch-increment on `var` from `proc`. Returns
    /// `true` when the operation completed instantly (the processor
    /// does not block on the sync bus).
    fn rmw(&self, m: &mut Machine<'_>, proc: usize, var: SyncVar) -> bool {
        m.enqueue_rmw(proc, var);
        false
    }

    /// Arbitrates pending broadcasts for this cycle, granting at most
    /// one per domain bus and one bridge forward.
    fn grant(&self, m: &mut Machine<'_>) {
        m.grant_sync(false);
    }

    /// Completes the broadcasts whose tenure ends this cycle,
    /// delivering each (or re-queueing it under an injected drop).
    fn complete(&self, m: &mut Machine<'_>) {
        m.complete_sync();
    }
}

/// The paper's §6 hardware: a dedicated synchronization bus, physically
/// separate from the data bus, broadcasting posted writes to
/// per-processor local images. Also the engine behind
/// [`FabricKind::Clustered`], whose per-cluster domains and bridge live
/// in the machine's transport state.
#[derive(Debug)]
pub struct DedicatedBus;

impl SyncFabric for DedicatedBus {
    fn kind(&self) -> FabricKind {
        FabricKind::Dedicated
    }
}

/// No dedicated hardware: broadcasts ride the one physical bus and
/// arbitrate against data traffic (data has priority; an in-flight
/// broadcast blocks data grants and vice versa). A granted broadcast's
/// tenure is charged to both bus-occupancy counters — there is only one
/// bus, and those cycles are unavailable to data traffic.
#[derive(Debug)]
pub struct SharedDataBus;

impl SyncFabric for SharedDataBus {
    fn kind(&self) -> FabricKind {
        FabricKind::Shared
    }

    fn shares_data_bus(&self) -> bool {
        true
    }

    fn grant(&self, m: &mut Machine<'_>) {
        // Data traffic was granted first this cycle (priority); the
        // bus must be entirely free for a broadcast to start.
        if m.mem.active.is_some() {
            return;
        }
        m.grant_sync(true);
    }
}

/// A zero-latency oracle: posts and RMWs perform globally and in every
/// local image the instant they issue. No queue, no occupancy, no RNG
/// draws, immune to sync-path faults — the upper bound on what any sync
/// interconnect could achieve.
#[derive(Debug)]
pub struct IdealFabric;

impl SyncFabric for IdealFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Ideal
    }

    fn post(&self, m: &mut Machine<'_>, _proc: usize, var: SyncVar, val: u64) {
        m.metrics.sync_vars[var].posts += 1;
        m.apply_instantly(var, val);
    }

    fn rmw(&self, m: &mut Machine<'_>, _proc: usize, var: SyncVar) -> bool {
        let val = m.sync.vars.global[var] + 1;
        m.stats.rmw_ops += 1;
        m.apply_instantly(var, val);
        true
    }

    fn grant(&self, m: &mut Machine<'_>) {
        debug_assert_eq!(m.sync.inflight, 0, "the oracle never queues broadcasts");
    }

    fn complete(&self, m: &mut Machine<'_>) {
        debug_assert_eq!(m.sync.inflight, 0, "the oracle never holds a bus");
    }
}

static DEDICATED: DedicatedBus = DedicatedBus;
static SHARED: SharedDataBus = SharedDataBus;
static IDEAL: IdealFabric = IdealFabric;

impl FabricKind {
    /// The stateless backend instance implementing this kind. A
    /// clustered geometry runs the dedicated-bus engine: its domains
    /// and bridge are transport state ([`SyncState::new`]), not backend
    /// behaviour.
    pub(crate) fn backend(self) -> &'static dyn SyncFabric {
        match self {
            FabricKind::Dedicated | FabricKind::Clustered { .. } => &DEDICATED,
            FabricKind::Shared => &SHARED,
            FabricKind::Ideal => &IDEAL,
        }
    }
}

impl<'a> Machine<'a> {
    pub(crate) fn next_sync_seq(&mut self) -> u64 {
        self.sync.seq += 1;
        self.sync.seq
    }

    /// Queues a posted sync write on the issuing processor's domain
    /// bus, coalescing into an already-queued post to the same variable
    /// from the same processor when enabled (Section 6 optimization).
    pub(crate) fn post_sync_write(&mut self, proc: usize, var: SyncVar, val: u64) {
        self.metrics.sync_vars[var].posts += 1;
        self.stats.sync_ops_issued += 1;
        let seq = self.next_sync_seq();
        if self.config.coalesce_sync_writes {
            let d = self.sync.domain_of(proc);
            for pending in self.sync.domains[d].queue.iter_mut() {
                if pending.refresh {
                    // Never fold a real post into a refresh: the refresh
                    // re-reads global at delivery and would drop `val`.
                    continue;
                }
                if let SyncReq::Post { proc: p, var: v, val: pv } = &mut pending.req {
                    if *p == proc && *v == var {
                        *pv = val;
                        // The coalesced message now carries the newest
                        // write: retag it so it is not discarded as stale.
                        pending.seq = seq;
                        self.stats.coalesced_writes += 1;
                        return;
                    }
                }
            }
        }
        self.sync.enqueue(proc, QueuedSync::new(SyncReq::Post { proc, var, val }, seq));
    }

    /// Queues an atomic fetch-increment broadcast from `proc`.
    pub(crate) fn enqueue_rmw(&mut self, proc: usize, var: SyncVar) {
        self.stats.sync_ops_issued += 1;
        let seq = self.next_sync_seq();
        self.sync.enqueue(proc, QueuedSync::new(SyncReq::Rmw { proc, var }, seq));
    }

    /// Performs a sync write instantly — globally and in every image —
    /// for the [`IdealFabric`] oracle. Bypasses the queue, the faults
    /// and the deferral machinery entirely (the oracle cannot lose or
    /// lag an update), but still counts the delivery so traffic columns
    /// stay comparable across fabrics.
    pub(crate) fn apply_instantly(&mut self, var: SyncVar, val: u64) {
        self.stats.sync_ops_issued += 1;
        self.stats.sync_broadcasts += 1;
        self.sync.vars.global[var] = val;
        self.sync.var_images_mut(var).fill(val);
        self.sync.images_touched = true;
        self.events
            .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
        self.note_progress();
    }

    /// One arbitration pass of the domain engine: flush the bridge's
    /// coalescing window, grant each idle domain bus in index order,
    /// then grant the bridge. Domains arbitrate independently — with
    /// more than one, this is where the flat bus's P-wide serialization
    /// disappears. With `shared_bus`, each grant's tenure is also
    /// charged to the data-bus occupancy counter — it is the same
    /// physical bus.
    pub(crate) fn grant_sync(&mut self, shared_bus: bool) {
        if self.sync.inflight == 0 {
            return;
        }
        self.flush_bridge_window();
        for d in 0..self.sync.domains.len() {
            self.grant_domain(d, shared_bus);
        }
        self.grant_bridge();
    }

    /// Grants domain `d`'s bus to its next queued broadcast, modelling
    /// the faulty-arbiter reordering and injected grant delays (each
    /// domain has its own arbiter and draws its own faults).
    fn grant_domain(&mut self, d: usize, shared_bus: bool) {
        if self.sync.domains[d].active.is_some() {
            return;
        }
        let f = self.config.faults;
        let queued = self.sync.domains[d].queue.len();
        let picked = if f.broadcast_reorder_pct > 0
            && queued >= 2
            && self.rng.chance_pct(f.broadcast_reorder_pct)
        {
            // Faulty arbiter: grant a younger message. The overtaken
            // head is marked faulted with its counterfactual grant
            // cycle, so its recovery latency is measured end-to-end.
            self.stats.faults.reordered_broadcasts += 1;
            self.record_fault(None, FaultClass::BroadcastReorder, 0);
            let cycle = self.cycle;
            let ix = self.rng.range_usize(1, queued - 1);
            let queue = &mut self.sync.domains[d].queue;
            if let Some(head) = queue.front_mut() {
                head.faulted = true;
                head.first_grant.get_or_insert(cycle);
            }
            queue.remove(ix)
        } else {
            self.sync.domains[d].queue.pop_front()
        };
        let Some(mut entry) = picked else { return };
        // Recovery refreshes occupy the bus but are not counted as
        // broadcasts: they re-deliver an already-performed value, and
        // counting them would break the conservation identity (issued ==
        // broadcasts + coalesced) whenever a legitimate fault-free NACK
        // fires.
        if !entry.refresh {
            self.stats.sync_broadcasts += 1;
        }
        if let SyncReq::Rmw { .. } = entry.req {
            self.stats.rmw_ops += 1;
        }
        entry.first_grant.get_or_insert(self.cycle);
        let mut dur = u64::from(self.config.sync_bus_latency);
        if f.broadcast_delay_pct > 0 && self.rng.chance_pct(f.broadcast_delay_pct) {
            let extra = u64::from(self.rng.range_u32(1, f.broadcast_delay_max));
            dur += extra;
            entry.faulted = true;
            self.stats.faults.delayed_broadcasts += 1;
            self.stats.faults.delay_cycles += extra;
            self.record_fault(None, FaultClass::BroadcastDelay, extra);
        }
        let (var, rmw) = match entry.req {
            SyncReq::Post { var, .. } => (var, false),
            SyncReq::Rmw { var, .. } => (var, true),
        };
        // Summed over parallel domain buses (can exceed makespan, like
        // bank_busy).
        self.metrics.sync_bus_busy += dur;
        if shared_bus {
            // One physical bus: these cycles are lost to data traffic
            // too.
            self.metrics.data_bus_busy += dur;
        }
        self.events.record(self.cycle, SimEventKind::SyncGrant { var, rmw, dur });
        self.sync.domains[d].active = Some((entry, self.cycle + dur));
        self.note_progress();
    }

    /// Moves window entries whose coalescing window has elapsed to the
    /// bridge queue (in submission order).
    fn flush_bridge_window(&mut self) {
        let cycle = self.cycle;
        let Some(bridge) = self.sync.bridge.as_mut() else { return };
        while let Some(&(var, flush)) = bridge.window.front() {
            if flush > cycle {
                break;
            }
            bridge.window.pop_front();
            bridge.queue.push_back(var);
        }
    }

    /// Grants the bridge to the next flushed variable. One forward at a
    /// time: the bridge is a single shared channel, but aggregation
    /// (see [`Machine::bridge_submit`]) keeps its queue short.
    fn grant_bridge(&mut self) {
        let cycle = self.cycle;
        let Some(bridge) = self.sync.bridge.as_mut() else { return };
        if bridge.active.is_some() {
            return;
        }
        let Some(var) = bridge.queue.pop_front() else { return };
        let dur = bridge.latency;
        bridge.active = Some((var, cycle + dur));
        self.stats.bridge_broadcasts += 1;
        self.metrics.bridge_busy += dur;
        self.events.record(cycle, SimEventKind::BridgeForward { var, dur });
        self.note_progress();
    }

    /// Completes every broadcast whose tenure ends this cycle: each
    /// domain bus in index order (deterministic in both stepping
    /// modes), then the bridge — so a forward ending this cycle
    /// delivers a global value that already includes this cycle's
    /// domain completions.
    pub(crate) fn complete_sync(&mut self) {
        if self.sync.inflight == 0 {
            return;
        }
        for d in 0..self.sync.domains.len() {
            match self.sync.domains[d].active {
                Some((entry, end)) if end == self.cycle => {
                    self.sync.domains[d].active = None;
                    self.complete_entry(d, entry);
                }
                _ => {}
            }
        }
        self.complete_bridge();
    }

    /// Terminal handling of domain `d`'s broadcast: re-queue it under an
    /// injected drop, discard it as stale if a newer write already
    /// performed, or deliver it to the domain's images (a refresh
    /// re-reading the current global value) — then, on a bridged
    /// fabric, submit the variable to the bridge.
    fn complete_entry(&mut self, d: usize, entry: QueuedSync) {
        let f = self.config.faults;
        if f.broadcast_drop_pct > 0
            && entry.redeliveries < f.max_redeliveries
            && self.rng.chance_pct(f.broadcast_drop_pct)
        {
            // Lost broadcast: re-queue for (bounded) redelivery. It is
            // still in flight, so `inflight` is unchanged.
            self.stats.faults.dropped_broadcasts += 1;
            self.record_fault(None, FaultClass::BroadcastDrop, 0);
            self.sync.domains[d].queue.push_back(QueuedSync {
                redeliveries: entry.redeliveries + 1,
                faulted: true,
                ..entry
            });
            return;
        }
        if entry.faulted {
            if let Some(first) = entry.first_grant {
                let fault_free = first + u64::from(self.config.sync_bus_latency);
                let rec = self.cycle.saturating_sub(fault_free);
                self.stats.faults.recovery_cycles += rec;
                self.stats.faults.recovery_max = self.stats.faults.recovery_max.max(rec);
            }
        }
        let (lo, hi) = self.sync.domain_range(d);
        match entry.req {
            SyncReq::Post { var, .. } if entry.refresh => {
                // A refresh heals this domain's images from the *current*
                // global value (a payload captured at NACK time could
                // have been overtaken by an RMW granted since, and
                // re-applying it would regress the counter) and never
                // crosses the bridge. It is not a write: it never
                // advances `applied_seq` — a refresh outrunning an
                // older-seq real post still in flight (routine across
                // domains: an idle domain bus beats a busy one) would
                // otherwise get that post discarded as stale, losing the
                // write — and cannot itself be stale.
                let val = self.sync.vars.global[var];
                self.events
                    .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
                self.deliver_images(var, val, lo, hi);
            }
            SyncReq::Post { var, val, .. } => {
                let stale = entry.seq <= self.sync.vars.applied_seq[var];
                self.events.record(self.cycle, SimEventKind::SyncDeliver { var, val, stale });
                if !stale {
                    self.sync.vars.applied_seq[var] = entry.seq;
                    self.sync.vars.global[var] = val;
                    self.deliver_images(var, val, lo, hi);
                } else if entry.faulted || self.sync.bridge.is_none() {
                    // A drop, reorder or coalescing retag let a newer
                    // write to this variable perform first: this late
                    // delivery is stale and must be discarded, not
                    // applied (sync variables are monotonic counters;
                    // regressing one would wedge every waiter past the
                    // lost value). A bridged fabric counts only faulted
                    // discards: there an older post completing after a
                    // newer one on another domain's bus is routine
                    // overtaking, harmless and not a fault.
                    self.stats.faults.stale_deliveries_discarded += 1;
                }
                // Delivered or stale, every real completion submits to
                // the bridge: this keeps the two-level conservation
                // identity exact on fault-free runs (sync_broadcasts ==
                // bridge_broadcasts + bridge_coalesced).
                self.bridge_submit(var);
            }
            SyncReq::Rmw { proc, var } => {
                self.sync.vars.applied_seq[var] = self.sync.vars.applied_seq[var].max(entry.seq);
                let v = self.sync.vars.global[var] + 1;
                self.events
                    .record(self.cycle, SimEventKind::SyncDeliver { var, val: v, stale: false });
                self.sync.vars.global[var] = v;
                self.deliver_images(var, v, lo, hi);
                self.unblock(proc);
                self.bridge_submit(var);
            }
        }
        self.sync.inflight -= 1;
        self.note_progress();
    }

    /// Submits a variable to the bridge (if any) after a domain-bus
    /// completion. If a forward of the same variable is already pending
    /// anywhere in the bridge pipeline, the submission folds into it —
    /// the barrier/SC/PC aggregation that collapses P partial-count
    /// updates into one global broadcast.
    fn bridge_submit(&mut self, var: SyncVar) {
        let cycle = self.cycle;
        let Some(bridge) = self.sync.bridge.as_mut() else { return };
        if bridge.pending[var] {
            self.stats.bridge_coalesced += 1;
            return;
        }
        bridge.pending[var] = true;
        bridge.window.push_back((var, cycle + bridge.coalesce_window));
        self.sync.inflight += 1;
    }

    /// Completes the bridge forward ending this cycle, if any. The
    /// forward carries no payload: it re-reads the current global
    /// value, so every update folded into it since it was submitted is
    /// delivered too (monotone counters make the newer value satisfy
    /// every waiter of the older ones).
    fn complete_bridge(&mut self) {
        let Some(bridge) = self.sync.bridge.as_mut() else { return };
        let Some((var, end)) = bridge.active else { return };
        if end != self.cycle {
            return;
        }
        bridge.active = None;
        bridge.pending[var] = false;
        self.sync.inflight -= 1;
        let val = self.sync.vars.global[var];
        self.events
            .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
        self.write_sync(var, val);
        self.note_progress();
    }

    /// Performs a sync write globally and broadcasts it to every local
    /// image.
    pub(crate) fn write_sync(&mut self, var: SyncVar, val: u64) {
        self.sync.vars.global[var] = val;
        let procs = self.sync.procs;
        self.deliver_images(var, val, 0, procs);
    }

    /// Delivers `val` to the local images of processors `lo..hi` (a
    /// broadcast domain, or `0..procs` for a bridge forward), subject to
    /// the per-image loss and staleness faults.
    ///
    /// With no image faults armed and no deferred update pending
    /// anywhere, every image takes the value unconditionally: the
    /// delivery is one batched fill of the variable's contiguous image
    /// lane, and the fault stream is untouched (the faulted path draws
    /// zero RNG under the same conditions, so the two are bit-identical).
    pub(crate) fn deliver_images(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        let f = self.config.faults;
        if f.broadcast_loss_pct == 0 && f.stale_image_pct == 0 && self.sync.defer_len == 0 {
            self.sync.var_images_mut(var)[lo..hi].fill(val);
            return;
        }
        self.deliver_images_faulted(var, val, lo, hi);
    }

    /// The per-processor delivery walk for runs with image faults armed
    /// or deferred updates in flight. Not `#[cold]`: chaos sweeps live
    /// here.
    fn deliver_images_faulted(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        let f = self.config.faults;
        for p in lo..hi {
            if f.broadcast_loss_pct > 0 && self.rng.chance_pct(f.broadcast_loss_pct) {
                // The write performed globally but this processor's image
                // tap missed it *permanently* — the one unbounded fault.
                // Only the recovery ladder (NACK refresh or watchdog
                // repair) can re-deliver the value to this image.
                self.stats.faults.lost_image_updates += 1;
                self.record_fault(Some(p), FaultClass::BroadcastLoss, 0);
                continue;
            }
            let pending = self.sync.defer[p].back().map(|&(when, _, _)| when);
            if f.stale_image_pct > 0 && self.rng.chance_pct(f.stale_image_pct) {
                // This image lags the global write by a bounded window.
                let window = u64::from(self.rng.range_u32(1, f.stale_window_max));
                let when = (self.cycle + window).max(pending.unwrap_or(0));
                self.stats.faults.stale_image_updates += 1;
                self.record_fault(Some(p), FaultClass::StaleImage, window);
                self.sync.push_defer(p, when, var, val);
            } else if let Some(pending) = pending {
                // A fresh update must not overtake an older deferred one:
                // queue behind it so each image sees writes in global
                // order, merely late.
                self.sync.push_defer(p, pending, var, val);
            } else {
                self.sync.set_image(p, var, val);
            }
        }
    }

    /// Applies deferred (stale-window) local-image updates that are due.
    /// `due_min` makes this O(1) whenever nothing is due (due times are
    /// non-decreasing within each queue, so fronts are the minima).
    pub(crate) fn apply_deferred_images(&mut self) {
        if self.sync.due_min > self.cycle {
            return;
        }
        let mut next_due = u64::MAX;
        for p in 0..self.sync.defer.len() {
            while let Some(&(when, var, val)) = self.sync.defer[p].front() {
                if when > self.cycle {
                    break;
                }
                self.sync.pop_defer(p);
                self.sync.set_image(p, var, val);
                self.note_progress();
            }
            if let Some(&(when, _, _)) = self.sync.defer[p].front() {
                next_due = next_due.min(when);
            }
        }
        self.sync.due_min = next_due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_resolves_to_its_backend() {
        for kind in FabricKind::ALL {
            assert_eq!(kind.backend().kind(), kind);
        }
        assert!(!FabricKind::Dedicated.backend().shares_data_bus());
        assert!(FabricKind::Shared.backend().shares_data_bus());
        assert!(!FabricKind::Ideal.backend().shares_data_bus());
        // Any clustered geometry runs the dedicated-bus engine: the
        // domains and bridge are per-machine transport state.
        let b =
            FabricKind::Clustered { clusters: 8, bridge_latency: 3, coalesce_window: 0 }.backend();
        assert_eq!(b.kind(), FabricKind::Dedicated);
        assert!(!b.shares_data_bus());
    }

    #[test]
    fn cluster_state_geometry_and_idle_tracking() {
        // A flat fabric is one domain spanning every processor, no
        // bridge, and counts its in-flight broadcasts like any other.
        let rmw = |proc| QueuedSync::new(SyncReq::Rmw { proc, var: 1 }, 1);
        let mut flat = SyncState::new(8, 2, FabricKind::Dedicated);
        assert_eq!(flat.domains.len(), 1);
        assert!(flat.bridge.is_none());
        assert_eq!(flat.domain_range(0), (0, 8));
        assert!((0..8).all(|p| flat.domain_of(p) == 0));
        assert_eq!(flat.inflight, 0);
        flat.enqueue(5, rmw(5));
        assert_eq!((flat.inflight, flat.domains[0].queue.len()), (1, 1));

        let mut s = SyncState::new(8, 2, FabricKind::clustered(4));
        assert_eq!(s.inflight, 0);
        assert_eq!(s.domains.len(), 4);
        assert_eq!(s.domain_of(0), 0);
        assert_eq!(s.domain_of(1), 0);
        assert_eq!(s.domain_of(2), 1);
        assert_eq!(s.domain_of(7), 3);
        assert_eq!(s.domain_range(3), (6, 8));
        assert_eq!(s.bridge.as_ref().unwrap().window_min(), u64::MAX);
        // Growing the variable space grows the bridge-pending lane too.
        s.resize_vars(5);
        assert_eq!(s.bridge.as_ref().unwrap().pending.len(), 5);
        s.enqueue(7, rmw(7));
        assert_eq!((s.inflight, s.domains[3].queue.len()), (1, 1));
        s.bridge.as_mut().unwrap().window.push_back((3, 17));
        s.inflight += 1;
        assert_eq!(s.bridge.as_ref().unwrap().window_min(), 17);
        assert_eq!(s.inflight, 2);
    }

    #[test]
    fn sync_state_starts_quiescent() {
        let s = SyncState::new(3, 2, FabricKind::Dedicated);
        assert_eq!(s.vars.global, vec![0, 0]);
        assert_eq!(s.n_vars(), 2);
        for p in 0..3 {
            for var in 0..2 {
                assert_eq!(s.image(p, var), 0);
            }
        }
        assert_eq!(s.inflight, 0);
        assert!(s.domains.iter().all(|d| d.queue.is_empty() && d.active.is_none()));
        assert_eq!(s.due_min, u64::MAX);
        assert_eq!(s.vars.applied_seq, vec![0, 0]);
    }

    #[test]
    fn image_lanes_are_var_major_and_resizable() {
        let mut s = SyncState::new(2, 1, FabricKind::Dedicated);
        s.set_image(1, 0, 7);
        assert_eq!((s.image(0, 0), s.image(1, 0)), (0, 7));
        s.resize_vars(3);
        assert_eq!(s.n_vars(), 3);
        // Existing images survive the resize; new vars start zeroed.
        assert_eq!((s.image(0, 0), s.image(1, 0)), (0, 7));
        s.var_images_mut(2).fill(9);
        assert_eq!((s.image(0, 2), s.image(1, 2)), (9, 9));
        assert_eq!((s.image(0, 1), s.image(1, 1)), (0, 0));
    }
}
