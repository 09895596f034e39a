//! The cycle-driven machine model, decomposed into layered subsystems.
//!
//! A [`Machine`] simulates `P` processors sharing a **data bus** (to the
//! memory modules) and, optionally, a **dedicated synchronization bus**
//! with a local image of every synchronization variable in each processor
//! (Section 6 of the paper). The model is deliberately simple — a single
//! arbitrated transaction at a time per bus — because that is exactly the
//! regime in which the paper's claims about traffic, hot-spots and
//! busy-waiting live.
//!
//! The machine is a thin conductor over its subsystems, each in its own
//! module and separately testable:
//!
//! * [`fabric`] — the **synchronization fabric**: global sync values,
//!   per-processor local images, and one broadcast engine over an array
//!   of bus domains plus an optional bridge (one domain for the
//!   dedicated and shared buses, one per cluster for the clustered
//!   fabric), behind the pluggable [`SyncFabric`] backend that also
//!   admits the ideal oracle;
//! * `memory` — the **memory system**: data-bus arbitration, interleaved
//!   banks and the globally-performed effects of data-path requests;
//! * `dispatch` — the **dispatcher**: self-scheduling or static
//!   iteration hand-out;
//! * `recovery_engine` — the **recovery engine**: the self-healing
//!   ladder (gap NACKs, refresh retransmission, watchdog repair) and the
//!   per-processor wait-episode bookkeeping it hangs off;
//! * `exec` — the per-processor execution step that drives all of the
//!   above through one instruction at a time;
//! * `schedule` — the **event schedule**: a calendar (bucket) queue over
//!   per-processor wake deadlines, so the fast-forward kernel finds its
//!   next event in O(occupied-buckets) instead of an O(P) scan;
//! * `fast_forward` — the **fast-forward kernel**: the channel horizon,
//!   per-processor wakes and their refresh, the quiet-span jump, and
//!   the debug linear-scan oracle.
//!
//! Data layout is struct-of-arrays: per-processor state lives in
//! [`ProcLanes`] (one lane per field, not a `Vec` of processor structs)
//! and per-variable sync state in [`fabric::VarLanes`] plus one flat
//! var-major image block, so the hot loops walk contiguous memory and a
//! broadcast delivery to P consumers is one batched lane fill.
//!
//! Determinism: processors are stepped in id order and bus queues are
//! FIFO, so a run is a pure function of the configuration and workload.
//! Fault injection ([`crate::faults::FaultPlan`]) preserves this: every
//! fault decision comes from a splitmix64 stream seeded by the plan, so
//! a faulted run is reproducible byte-for-byte from its configuration.
//!
//! Stepping: per-cycle stepping ([`StepMode::Reference`]) is the
//! executable specification, but the default execution engine is an
//! **event-driven fast-forward kernel** ([`StepMode::FastForward`]) that
//! jumps over *quiet* cycles — cycles in which the machine provably does
//! nothing but tick stat counters — directly to the next observable
//! event (transaction completion, bank completion, deferred image due
//! time, compute retirement, spin-backoff expiry, stall boundary), bulk
//! charging the skipped cycles to the same per-processor stat buckets
//! the reference stepper would have ticked. Every RNG draw and trace
//! write happens only at non-quiet cycles, so the two modes produce
//! **bit-for-bit identical** [`RunStats`], [`Trace`] and `sync_final`
//! (enforced by the equivalence tests) — under every fabric backend,
//! because both modes drive the same subsystem interfaces.
//!
//! The next observable event comes from two sources: the
//! O(banks + domains) [`Machine::channel_horizon`] over the buses,
//! banks, fabric domains, bridge and deferred-image due time, and the
//! [`schedule::Calendar`] over per-processor wake deadlines, each
//! refreshed in O(1) as its processor steps. A cached
//! wake is always a **lower bound** on the processor's true next event:
//! waking too early merely steps a quiet cycle (bit-identical by the
//! quiet-cycle invariant), while waking late would miss an event — so
//! every mutation that can pull an event earlier (a program completing,
//! an oracle broadcast touching every image, a recovery rung) re-arms
//! the affected wakes. Debug builds cross-check every jump against the
//! retained linear-scan oracle ([`Machine::scan_horizon`]).
//!
//! Liveness under faults: on top of the precise [`Machine::deadlocked`]
//! check, a **progress watchdog** tracks the last cycle on which the
//! machine did anything observable (retired an instruction, performed a
//! transaction, applied an image update, dispatched). If no progress is
//! made for a bound derived from the configured latencies and fault
//! magnitudes, the run fails with [`SimError::Deadlock`] describing the
//! livelock — so even runs the precise checker cannot classify (e.g.
//! processors spinning on images that faults keep stale) terminate
//! detectably rather than burning cycles until `max_cycles`.

mod cache;
mod dispatch;
mod exec;
pub mod fabric;
mod fast_forward;
mod memory;
mod recovery_engine;
mod schedule;
mod workload;

pub use fabric::{DedicatedBus, IdealFabric, SharedDataBus, SyncFabric};
pub use workload::{DispatchMode, Workload};

use crate::config::{FabricKind, MachineConfig, MemoryModel};
use crate::events::{EventRing, SimEventKind};
use crate::faults::FaultClass;
use crate::metrics::RunMetrics;
use crate::program::{Pred, SyncVar};
use crate::rng::SplitMix64;
use crate::stats::{ProcBreakdown, RunStats};
use crate::trace::Trace;
use cache::CacheSystem;
use dispatch::Dispatcher;
use fabric::SyncState;
use memory::{DataReqKind, MemorySystem};
use recovery_engine::RecoveryEngine;
use schedule::Calendar;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No processor can ever make progress again.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Processors stuck spinning.
        spinning: Vec<usize>,
        /// Human-readable description of each stuck processor.
        detail: Vec<String>,
    },
    /// `max_cycles` exceeded.
    Timeout {
        /// The configured cap.
        max_cycles: u64,
    },
    /// Invalid configuration.
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, spinning, detail } => {
                write!(
                    f,
                    "deadlock at cycle {cycle}: processors {spinning:?} spin forever ({})",
                    detail.join("; ")
                )
            }
            SimError::Timeout { max_cycles } => write!(f, "exceeded {max_cycles} cycles"),
            SimError::BadConfig(msg) => write!(f, "invalid machine config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The note trace.
    pub trace: Trace,
    /// Final values of all synchronization variables.
    pub sync_final: Vec<u64>,
    /// Derived metrics (always collected; see [`RunMetrics`]).
    pub metrics: RunMetrics,
    /// Structured events — empty unless recording was turned on with
    /// [`Machine::enable_events`].
    pub events: EventRing,
}

/// Runs a workload to completion on a machine.
///
/// # Errors
///
/// Returns [`SimError::BadConfig`] for invalid configurations,
/// [`SimError::Deadlock`] when synchronization can never be satisfied and
/// [`SimError::Timeout`] past `max_cycles`.
pub fn run(config: &MachineConfig, workload: &Workload) -> Result<RunOutcome, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    Machine::new(config, workload).run_to_completion()
}

/// Runs a workload with the per-cycle reference stepper (the executable
/// specification the fast-forward kernel must match bit for bit).
///
/// # Errors
///
/// See [`run`].
pub fn run_reference(config: &MachineConfig, workload: &Workload) -> Result<RunOutcome, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    let mut m = Machine::new(config, workload);
    m.set_mode(StepMode::Reference);
    m.run_to_completion()
}

/// How the run loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Event-driven: jump over provably-quiet cycles directly to the
    /// next observable event, bulk-charging the skipped cycles to the
    /// correct stat buckets. Bit-identical to [`StepMode::Reference`].
    #[default]
    FastForward,
    /// One cycle per step — the executable specification. Kept for the
    /// equivalence tests and as the trusted baseline for `datasync perf`.
    Reference,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpinPhase {
    WaitingResult,
    Backoff { until: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Idle,
    Ready,
    Computing {
        remaining: u32,
    },
    BlockedData,
    BlockedSync,
    SpinLocal {
        var: SyncVar,
        pred: Pred,
    },
    /// Busy-wait through shared memory: `retry` is re-issued after each
    /// backoff until it succeeds.
    SpinMem {
        retry: DataReqKind,
        phase: SpinPhase,
    },
}

/// Per-processor state in struct-of-arrays layout: one lane per field,
/// so the per-cycle loops and the fast-forward bulk-charge walk
/// contiguous memory instead of striding over a `Vec` of processor
/// structs.
///
/// The `state` and `dead` lanes are private: every transition must go
/// through [`ProcLanes::set_state`] / [`ProcLanes::set_current`] /
/// [`ProcLanes::kill`], which maintain the cached population counters
/// (`engaged`, `active`, `computing`) that make [`Machine::finished`],
/// [`Machine::deadlocked`] and the watchdog's progressing test O(1) on
/// the fast path.
#[derive(Debug)]
pub(crate) struct ProcLanes {
    state: Vec<ProcState>,
    current: Vec<Option<usize>>,
    pub(crate) ip: Vec<usize>,
    /// Index of the instruction execution would resume from if this
    /// program had to move to another processor right now: everything
    /// before it has fully retired (re-running it would duplicate side
    /// effects), nothing at or after it has (skipping it would lose
    /// work). Maintained at dispatch and at every instruction issue;
    /// the fail-stop rescue rung reads it when reclaiming work.
    pub(crate) resume_ip: Vec<usize>,
    pub(crate) stats: Vec<ProcBreakdown>,
    /// Per-processor injected-stall end cycle (0 = not stalled).
    pub(crate) stall_until: Vec<u64>,
    /// Per-processor cycle of the next stall onset (`u64::MAX` when
    /// stalls are disabled).
    pub(crate) next_stall: Vec<u64>,
    /// Per-processor planned fail-stop cycle (`u64::MAX` = never).
    pub(crate) fail_at: Vec<u64>,
    /// Fail-stop flag: a dead processor never steps, dispatches or
    /// answers the sync bus again; its cycles accrue to `dead`.
    dead: Vec<bool>,
    /// One bit per processor: set when a lane write may have moved the
    /// processor's wake deadline, cleared when the fast-forward stepper
    /// re-arms it. Wakes are *absolute* cycles (a computing processor's
    /// retire cycle, a spinner's NACK deadline), so a processor whose
    /// bit is clear still has a live, correct calendar entry — the
    /// stepper only recomputes wakes for dirtied processors instead of
    /// all P every cycle.
    wake_dirty: Vec<u64>,
    /// Processors (dead or alive) that are not (`Idle` with no program):
    /// 0 is the processor side of [`Machine::finished`].
    engaged: usize,
    /// Live processors in `Ready`/`Computing`/`Blocked*` — states that
    /// by themselves rule out a deadlock verdict.
    active: usize,
    /// Live processors in `Computing` — each notes progress every
    /// cycle, which is what the watchdog's progressing test wants.
    computing: usize,
}

impl ProcLanes {
    fn new(p: usize, next_stall: Vec<u64>, fail_at: Vec<u64>) -> Self {
        // Every bit starts dirty so the first stepped cycle arms every
        // wake (processors that never transition — idle with no work —
        // would otherwise keep their initial cycle-0 deadline forever).
        let mut wake_dirty = vec![u64::MAX; p.div_ceil(64)];
        if !p.is_multiple_of(64) {
            *wake_dirty.last_mut().expect("at least one word") = (1u64 << (p % 64)) - 1;
        }
        Self {
            state: vec![ProcState::Idle; p],
            current: vec![None; p],
            ip: vec![0; p],
            resume_ip: vec![0; p],
            stats: vec![ProcBreakdown::default(); p],
            stall_until: vec![0; p],
            next_stall,
            fail_at,
            dead: vec![false; p],
            wake_dirty,
            engaged: 0,
            active: 0,
            computing: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    #[inline]
    pub(crate) fn state(&self, p: usize) -> ProcState {
        self.state[p]
    }

    #[inline]
    pub(crate) fn current(&self, p: usize) -> Option<usize> {
        self.current[p]
    }

    #[inline]
    pub(crate) fn is_dead(&self, p: usize) -> bool {
        self.dead[p]
    }

    /// This processor's contribution to the cached counters under its
    /// current lanes.
    #[inline]
    fn contrib(&self, p: usize) -> (usize, usize, usize) {
        let engaged =
            usize::from(!(matches!(self.state[p], ProcState::Idle) && self.current[p].is_none()));
        if self.dead[p] {
            return (engaged, 0, 0);
        }
        match self.state[p] {
            ProcState::Ready | ProcState::BlockedData | ProcState::BlockedSync => (engaged, 1, 0),
            ProcState::Computing { .. } => (engaged, 1, 1),
            _ => (engaged, 0, 0),
        }
    }

    #[inline]
    fn retract(&mut self, p: usize) {
        let (e, a, c) = self.contrib(p);
        self.engaged -= e;
        self.active -= a;
        self.computing -= c;
    }

    #[inline]
    fn restore(&mut self, p: usize) {
        let (e, a, c) = self.contrib(p);
        self.engaged += e;
        self.active += a;
        self.computing += c;
    }

    /// Flags `p`'s wake deadline as needing recomputation at the end of
    /// the current stepped cycle.
    #[inline]
    pub(crate) fn mark_wake(&mut self, p: usize) {
        self.wake_dirty[p / 64] |= 1 << (p % 64);
    }

    #[inline]
    pub(crate) fn set_state(&mut self, p: usize, s: ProcState) {
        self.mark_wake(p);
        self.retract(p);
        self.state[p] = s;
        self.restore(p);
    }

    /// Advances a `Computing` processor to `left` remaining cycles
    /// (reaching `Ready` at zero). Both transitions keep the processor
    /// engaged and active, so only the `computing` counter can change —
    /// this is the hottest state write in both stepping modes, and it
    /// skips the full retract/restore recount of [`Self::set_state`].
    /// It also leaves the wake bit clean: the processor's wake is the
    /// absolute cycle it issues again (retire + 1 while computing, the
    /// same cycle once `Ready`), which ticking never moves.
    #[inline]
    pub(crate) fn tick_computing(&mut self, p: usize, left: u32) {
        debug_assert!(matches!(self.state[p], ProcState::Computing { .. }));
        if left == 0 {
            self.state[p] = ProcState::Ready;
            self.computing -= usize::from(!self.dead[p]);
        } else {
            self.state[p] = ProcState::Computing { remaining: left };
        }
    }

    #[inline]
    pub(crate) fn set_current(&mut self, p: usize, cur: Option<usize>) {
        self.mark_wake(p);
        self.retract(p);
        self.current[p] = cur;
        self.restore(p);
    }

    /// Marks processor `p` fail-stopped (never un-killed).
    pub(crate) fn kill(&mut self, p: usize) {
        self.mark_wake(p);
        self.retract(p);
        self.dead[p] = true;
        self.restore(p);
    }
}

/// The machine state (see [`run`] for the one-shot entry point).
///
/// Borrows its configuration and workload: sweeps running thousands of
/// configurations share one `Workload` without re-allocating every
/// `Program` vector per run.
#[derive(Debug)]
pub struct Machine<'a> {
    pub(crate) config: &'a MachineConfig,
    pub(crate) workload: &'a Workload,
    mode: StepMode,
    pub(crate) cycle: u64,
    /// Per-processor state, one lane per field (see [`ProcLanes`]).
    pub(crate) procs: ProcLanes,
    /// The synchronization-fabric backend (stateless; selected by
    /// `config.sync_fabric`).
    pub(crate) fabric: &'static dyn SyncFabric,
    /// Synchronization-transport state (global values, images, queue).
    pub(crate) sync: SyncState,
    /// Data-bus arbitration state and the memory banks behind it.
    pub(crate) mem: MemorySystem,
    /// Private per-processor caches in front of the bus (inert under
    /// [`crate::config::CacheModel::None`]).
    pub(crate) cache: CacheSystem,
    /// Iteration dispatch state.
    pub(crate) disp: Dispatcher,
    /// Self-healing ladder state and wait-episode bookkeeping.
    pub(crate) rec: RecoveryEngine,
    /// Calendar queue over per-processor wake deadlines — the
    /// fast-forward kernel's next-event index (unused by the reference
    /// stepper).
    sched: Calendar,
    pub(crate) stats: RunStats,
    pub(crate) trace: Trace,
    /// Fault-decision stream (seeded by `config.faults.seed`; untouched
    /// on fault-free runs, so they remain bit-identical to a machine
    /// without fault support).
    pub(crate) rng: SplitMix64,
    /// Last cycle on which the machine observably progressed.
    last_progress: u64,
    /// Progress-watchdog bound (cycles of silence tolerated).
    watchdog_limit: u64,
    /// Always-on derived metrics (cheap counters, no allocation per
    /// event). Updated only at stepped cycles — part of the equivalence
    /// contract.
    pub(crate) metrics: RunMetrics,
    /// Structured event ring; disabled (capacity 0) unless
    /// [`Machine::enable_events`] was called.
    pub(crate) events: EventRing,
}

impl<'a> Machine<'a> {
    /// Builds a machine with all processors idle.
    pub fn new(config: &'a MachineConfig, workload: &'a Workload) -> Self {
        let p = config.processors;
        let n_vars = workload.n_sync_vars();
        let n_banks = match config.memory_model {
            MemoryModel::BusHeld => 0,
            MemoryModel::Banked { banks } => banks,
        };
        let f = config.faults;
        let mut rng = SplitMix64::new(f.seed);
        let next_stall: Vec<u64> = (0..p)
            .map(|_| {
                if f.stall_mean_interval > 0 {
                    1 + rng.below(2 * u64::from(f.stall_mean_interval))
                } else {
                    u64::MAX
                }
            })
            .collect();
        // Fail-stop victims and kill cycles, drawn only when the class
        // is armed (plans without it leave the fault stream untouched).
        // The victim count is clamped to P - 1 so at least one processor
        // always survives to run the rescued work.
        let mut fail_at = vec![u64::MAX; p];
        if f.fail_stop_procs > 0 && p > 1 {
            let victims = (f.fail_stop_procs as usize).min(p - 1);
            let window = u64::from(f.fail_stop_window.max(1));
            let mut chosen = 0;
            while chosen < victims {
                let v = rng.below(p as u64) as usize;
                if fail_at[v] == u64::MAX {
                    fail_at[v] = 1 + rng.below(window);
                    chosen += 1;
                }
            }
        }
        // Longest legitimate silent stretch: a held (possibly delayed /
        // jittered) transaction, a spin backoff, a stall or a stale
        // window. Generously padded — tripping it means livelock. The
        // P-scaled term covers queue-drain at scale: with P processors
        // contending, a single waiter can legitimately sit behind P
        // whole bus transactions, so the silence bound must grow with
        // the machine, not stay flat.
        // Two-level delivery stretches legitimate silences and delivery
        // paths by the coalescing window plus the bridge tenure (and a
        // cross-cluster waiter can sit behind a bridge queue that grows
        // with the cluster count).
        let (n_clusters, bridge_path) = match config.sync_fabric {
            FabricKind::Clustered { clusters, bridge_latency, coalesce_window } => {
                (u64::from(clusters.max(1)), u64::from(bridge_latency + coalesce_window))
            }
            _ => (1, 0),
        };
        let watchdog_limit = 256
            + 8 * (u64::from(
                config.spin_retry
                    + config.dispatch_latency
                    + config.data_bus_latency
                    + config.memory_latency
                    + config.sync_bus_latency
                    + f.broadcast_delay_max
                    + f.data_jitter_max
                    + f.stall_max
                    + f.stale_window_max,
            ) + bridge_path)
            + 2 * (p as u64)
                * u64::from(
                    config.sync_bus_latency + config.data_bus_latency + config.memory_latency,
                );
        // A waiter suspects a gap only after the longest legitimate
        // delivery path (bus grant + injected delay + stale window, plus
        // the window-flush + bridge hop and its queueing when clustered)
        // has comfortably elapsed; by construction this is well under
        // the watchdog limit, so all NACK tries fit before escalation.
        let nack_delay = 32
            + 4 * (u64::from(config.sync_bus_latency + f.broadcast_delay_max + f.stale_window_max)
                + bridge_path)
            + 2 * (n_clusters - 1);
        Self {
            procs: ProcLanes::new(p, next_stall, fail_at),
            cycle: 0,
            fabric: config.sync_fabric.backend(),
            sync: SyncState::new(p, n_vars, config.sync_fabric),
            mem: MemorySystem::new(n_banks),
            cache: CacheSystem::new(&config.cache, p, config.memory_latency),
            disp: Dispatcher::new(workload, p),
            rec: RecoveryEngine::new(p, nack_delay, config.recovery.repairs()),
            sched: Calendar::new(p),
            stats: RunStats { procs: vec![ProcBreakdown::default(); p], ..Default::default() },
            trace: Trace::new(),
            metrics: RunMetrics::new(p, n_vars),
            events: EventRing::disabled(),
            rng,
            last_progress: 0,
            watchdog_limit,
            mode: StepMode::FastForward,
            config,
            workload,
        }
    }

    /// Selects the stepping strategy (fast-forward by default).
    pub fn set_mode(&mut self, mode: StepMode) {
        self.mode = mode;
    }

    /// Turns on structured event recording, keeping the most recent
    /// `capacity` events (0 leaves it disabled). Recording changes
    /// nothing observable: stats, trace, metrics and final sync values
    /// are bit-identical with it on or off.
    ///
    /// # Panics
    ///
    /// Panics if the machine already ran.
    pub fn enable_events(&mut self, capacity: usize) {
        assert_eq!(self.cycle, 0, "enable_events must be called before running");
        self.events = EventRing::with_capacity(capacity);
    }

    /// The progress watchdog's silence bound (cycles without observable
    /// progress tolerated before the run fails as a livelock).
    pub fn watchdog_limit(&self) -> u64 {
        self.watchdog_limit
    }

    /// Marks the current cycle as having made observable progress.
    pub(crate) fn note_progress(&mut self) {
        self.last_progress = self.cycle;
    }

    /// Overrides the initial value of a synchronization variable
    /// (before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or the machine already ran.
    pub fn preset_sync(&mut self, var: SyncVar, val: u64) {
        assert_eq!(self.cycle, 0, "preset_sync must be called before running");
        if var >= self.sync.n_vars() {
            self.sync.resize_vars(var + 1);
            self.metrics.sync_vars.resize(var + 1, Default::default());
        }
        self.sync.vars.global[var] = val;
        self.sync.var_images_mut(var).fill(val);
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`run`].
    pub fn run_to_completion(mut self) -> Result<RunOutcome, SimError> {
        self.events
            .record(self.cycle, SimEventKind::WatchdogArm { limit: self.watchdog_limit });
        loop {
            if self.finished() {
                let mut stats = std::mem::take(&mut self.stats);
                stats.makespan = self.cycle;
                stats.procs.copy_from_slice(&self.procs.stats);
                return Ok(RunOutcome {
                    stats,
                    trace: std::mem::take(&mut self.trace),
                    sync_final: std::mem::take(&mut self.sync.vars.global),
                    metrics: std::mem::take(&mut self.metrics),
                    events: std::mem::take(&mut self.events),
                });
            }
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Timeout { max_cycles: self.config.max_cycles });
            }
            if let Some(dead) = self.deadlocked() {
                // Before declaring the wedge fatal, try the rescue rung:
                // unretired work stranded on fail-stopped processors (or
                // already sitting in the rescue pool) can be reclaimed
                // and reissued to the survivor quorum. This hangs off the
                // precise detector, not just watchdog silence, because
                // memory-polling survivors keep the bus busy — their
                // polls count as progress — so a dead producer under the
                // shared-memory transport never trips the watchdog.
                if self.rec.on && self.watchdog_rescue() {
                    self.refresh_all_wakes_now();
                    continue;
                }
                if self.rec.on && self.rescue_settling() {
                    // Rescued work is pending but every would-be swap
                    // victim still has a busy-wait poll queued or in
                    // flight (unsafe to preempt: the late completion
                    // would clobber its new state). Step until the polls
                    // settle into backoff — bounded by the bus service
                    // latency — then the rescue is retried.
                    match self.mode {
                        StepMode::Reference => self.step(),
                        StepMode::FastForward => self.fast_step(),
                    }
                    continue;
                }
                let mut detail = self.stuck_detail(&dead);
                if self.rec.on {
                    // Unhealable by construction (deadlocked() treats
                    // globally-satisfied spins as healable): attach the
                    // wait-for proof so the caller can justify degrading.
                    detail.extend(self.wait_diagnosis().iter().map(ToString::to_string));
                }
                return Err(SimError::Deadlock { cycle: self.cycle, spinning: dead, detail });
            }
            if self.cycle.saturating_sub(self.last_progress) > self.watchdog_limit {
                // The escalation point: with recovery armed, try the
                // repair rung first — force-sync healable images from the
                // global state and keep running instead of failing.
                if self.rec.on && self.watchdog_repair() {
                    self.refresh_all_wakes_now();
                    continue;
                }
                // Repair can't help (no gapped-but-satisfied image). If
                // the diagnosis says the producer is *dead* rather than
                // the value lost in flight, take the rescue rung:
                // reclaim the fail-stopped processors' unretired work
                // and reissue it to the survivor quorum.
                if self.rec.on && self.watchdog_rescue() {
                    self.refresh_all_wakes_now();
                    continue;
                }
                // Livelock: cycles are being burned (spins, redeliveries,
                // stalls) but nothing observable has happened for longer
                // than any legitimate quiet period. Upgrade to a detected
                // deadlock instead of burning until max_cycles.
                self.events.record(
                    self.cycle,
                    SimEventKind::WatchdogFire { silent_for: self.cycle - self.last_progress },
                );
                let spinning: Vec<usize> = (0..self.procs.len())
                    .filter(|&i| {
                        matches!(
                            self.procs.state(i),
                            ProcState::SpinLocal { .. } | ProcState::SpinMem { .. }
                        )
                    })
                    .collect();
                let mut detail = vec![format!(
                    "livelock: no forward progress for {} cycles (watchdog limit)",
                    self.cycle - self.last_progress
                )];
                if self.rec.on {
                    detail.extend(self.wait_diagnosis().iter().map(ToString::to_string));
                }
                detail.extend(self.stuck_detail(&spinning));
                return Err(SimError::Deadlock { cycle: self.cycle, spinning, detail });
            }
            match self.mode {
                StepMode::Reference => self.step(),
                StepMode::FastForward => self.fast_step(),
            }
        }
    }

    /// Human-readable description of each stuck processor.
    fn stuck_detail(&self, stuck: &[usize]) -> Vec<String> {
        stuck
            .iter()
            .map(|&i| {
                let at = if self.procs.is_dead(i) {
                    "fail-stopped (unretired work stranded)".to_string()
                } else {
                    match self.procs.state(i) {
                        ProcState::SpinLocal { var, pred } => {
                            format!(
                                "waiting {var} {pred} (image {}, global {})",
                                self.sync.image(i, var),
                                self.sync.vars.global[var]
                            )
                        }
                        ProcState::SpinMem { retry, .. } => format!("retrying {retry:?}"),
                        _ => "?".to_string(),
                    }
                };
                format!(
                    "proc {i}: program {:?} ip {} {at}",
                    self.procs.current(i),
                    self.procs.ip[i]
                )
            })
            .collect()
    }

    fn finished(&self) -> bool {
        // `engaged == 0` is the cached form of "every processor is Idle
        // with no program" — O(1) instead of an O(P) scan per loop turn.
        self.procs.engaged == 0
            && self.mem.active.is_none()
            && self.mem.queue.is_empty()
            && self.sync.inflight == 0
            && self.cache.pending_count == 0
            && !self.mem.banks_pending()
            && !self.disp.dynamic_left(self.workload)
            && self.disp.all_drained()
    }

    /// If the machine can provably never progress, the spinning culprits.
    fn deadlocked(&self) -> Option<Vec<usize>> {
        // O(1) early-outs first, so the O(P + banks) scans below only run
        // at genuinely quiet points: a held transaction, a queued
        // broadcast or a deferred image update still in flight is pending
        // activity, not deadlock. The exception is a *futile* spin
        // re-issue — a poll or keyed attempt whose condition fails even
        // on the authoritative global state. Memory-transport waiters
        // whose producer fail-stopped re-poll forever, keeping the bus
        // busy; treating those as activity would hide the wedge until
        // the cycle cap. A satisfiable poll still suppresses the verdict
        // via the per-processor scan below.
        let futile_spin = |kind: DataReqKind| match kind {
            DataReqKind::Poll { var, pred } => !pred.eval(self.sync.vars.global[var]),
            DataReqKind::KeyedAttempt { var, geq } => self.sync.vars.global[var] < geq,
            _ => false,
        };
        if self.sync.inflight > 0 || self.sync.due_min != u64::MAX {
            return None;
        }
        // A live Ready/Computing/Blocked processor rules the verdict out
        // before any per-processor walk — the cached counter keeps the
        // no-fault fast path O(1) here.
        if self.procs.active > 0 {
            return None;
        }
        if self.mem.active.is_some_and(|(req, _)| !futile_spin(req.kind)) {
            return None;
        }
        let any_active = self.mem.queue.iter().any(|r| !futile_spin(r.kind))
            || self.mem.banks.iter().any(|b| {
                b.active.is_some_and(|(req, _)| !futile_spin(req.kind))
                    || b.queue.iter().any(|r| !futile_spin(r.kind))
            });
        if any_active {
            return None;
        }
        // Cache-hit completions still pending are activity unless they
        // are themselves futile polls (a spinner hitting forever in its
        // own cache burns no bus traffic but also makes no progress —
        // the per-processor scan below diagnoses its SpinMem state).
        if self.cache.pending_count > 0
            && self.cache.pending.iter().flatten().any(|&(req, _)| !futile_spin(req.kind))
        {
            return None;
        }
        let mut spinning = Vec::new();
        for i in 0..self.procs.len() {
            // A dead processor neither progresses nor blocks others from
            // being diagnosed; skip it (stranded work is handled below).
            if self.procs.is_dead(i) {
                continue;
            }
            match self.procs.state(i) {
                // A spin whose condition already holds will succeed on its
                // next check — that is progress, not deadlock.
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.image(i, var)) {
                        return None;
                    }
                    // With recovery armed, a spin satisfied *globally* is
                    // a healable sequence gap, not a deadlock: the NACK /
                    // watchdog-repair ladder will refresh the image.
                    if self.rec.on && pred.eval(self.sync.vars.global[var]) {
                        return None;
                    }
                    spinning.push(i);
                }
                ProcState::SpinMem { retry, .. } => {
                    let satisfiable = match retry {
                        DataReqKind::Poll { var, pred } => pred.eval(self.sync.vars.global[var]),
                        DataReqKind::KeyedAttempt { var, geq } => self.sync.vars.global[var] >= geq,
                        _ => true,
                    };
                    if satisfiable {
                        return None;
                    }
                    spinning.push(i);
                }
                ProcState::Idle if !self.disp.can_claim(i, self.workload) => {}
                // `active == 0` above rules out Ready/Computing/Blocked;
                // only a claimable Idle reaches here.
                _ => return None,
            }
        }
        // Pending polls only re-read values no one will write again.
        // Unretired work stranded on dead processors wedges the run
        // even with every survivor idle; dead holders are reported as
        // culprits alongside any spinning survivors. (With recovery on,
        // the caller's rescue rung reclaims the stranded work instead
        // of failing.)
        let mut stranded: Vec<usize> = (0..self.procs.len())
            .filter(|&i| {
                self.procs.is_dead(i)
                    && (self.procs.current(i).is_some() || !self.disp.queues[i].is_empty())
            })
            .collect();
        if spinning.is_empty() && stranded.is_empty() {
            None
        } else {
            spinning.append(&mut stranded);
            Some(spinning)
        }
    }

    /// `true` when a rescue is pending (work in the pool) but some live
    /// survivor is mid-poll: the deadlock verdict should wait for the
    /// poll to settle into backoff so the rescue rung gets a safe swap
    /// victim. Once the rescue rung has exhausted its futility budget it
    /// can never act again, so settling would defer the verdict until
    /// the cycle cap — report unsettled and let the wedge surface.
    fn rescue_settling(&self) -> bool {
        !self.disp.rescue.is_empty()
            && self.rec.rescue_futile < self.rescue_cap()
            && (0..self.procs.len()).any(|i| {
                !self.procs.is_dead(i)
                    && matches!(
                        self.procs.state(i),
                        ProcState::SpinMem { phase: SpinPhase::WaitingResult, .. }
                    )
            })
    }

    fn step(&mut self) {
        self.apply_deferred_images();
        self.complete_transactions();
        self.grant_transactions();
        let ff = matches!(self.mode, StepMode::FastForward);
        self.disp.dirty = false;
        self.sync.images_touched = false;
        for p in 0..self.procs.len() {
            self.step_proc(p);
        }
        if ff {
            if self.disp.dirty || self.sync.images_touched {
                // A program completed (making parked work claimable) or an
                // oracle broadcast rewrote every image mid-loop: wakes
                // cached before the change could now be too late — re-arm
                // them all.
                self.refresh_all_wakes();
            } else {
                // Only processors whose lanes were written this cycle can
                // have moved their (absolute) wake deadline.
                self.drain_dirty_wakes();
            }
        }
        self.cycle += 1;
    }

    /// Data-path completions first, then the fabric's broadcast
    /// completion — the same per-cycle order the monolithic stepper had.
    fn complete_transactions(&mut self) {
        self.complete_data();
        let fabric = self.fabric;
        fabric.complete(self);
    }

    /// Data grant first (data traffic has priority on a shared bus),
    /// then the fabric's broadcast grant.
    fn grant_transactions(&mut self) {
        self.grant_data();
        let fabric = self.fabric;
        fabric.grant(self);
    }

    pub(crate) fn unblock(&mut self, proc: usize) {
        self.close_wait(proc);
        self.procs.set_state(proc, ProcState::Ready);
        if self.procs.is_dead(proc) {
            // An in-flight transaction still performs after its issuer
            // fail-stops (it was already in the interconnect), but the
            // dead processor never steps again to witness it: record
            // its trailing trace notes at the completion cycle, exactly
            // when a live processor would have retired them.
            self.drain_notes(proc);
        }
    }

    /// Records an injected fault in both the note trace and the event
    /// ring.
    #[cold]
    #[inline(never)]
    pub(crate) fn record_fault(&mut self, proc: Option<usize>, class: FaultClass, magnitude: u64) {
        self.trace.record_fault(self.cycle, proc, class, magnitude);
        self.events.record(self.cycle, SimEventKind::Fault { class, proc, magnitude });
    }
}

#[cfg(test)]
mod fabric_tests;
#[cfg(test)]
mod tests;
