//! Deterministic fault injection for the simulated machine.
//!
//! The paper's Section 6 hardware is only attractive if its *imperfect*
//! behaviour — broadcasts that arrive late or out of order, local images
//! that lag the global value, processors that stall, a data bus with
//! jitter — still lets every synchronization scheme either complete
//! correctly or fail *detectably*. A [`FaultPlan`] describes how hard to
//! shake the machine; the [`crate::machine::Machine`] draws every fault
//! decision from a splitmix64 stream seeded by [`FaultPlan::seed`], so a
//! faulted run is still a pure function of `(config, workload)` and any
//! failure reproduces byte-for-byte from its seed.
//!
//! Fault classes (see [`FaultClass`]):
//!
//! * **BroadcastDelay** — a granted sync-bus broadcast holds the bus for
//!   extra cycles before performing.
//! * **BroadcastReorder** — the sync-bus arbiter grants a queued
//!   broadcast that is not the oldest one.
//! * **BroadcastDrop** — a performed broadcast is lost and re-queued for
//!   redelivery; redelivery is *bounded* per message, so delivery is
//!   eventually guaranteed (the machine never silently loses a wakeup
//!   forever — it degrades, detectably).
//! * **StaleImage** — a processor's local image of a sync variable lags
//!   the globally-performed write by a bounded window (updates to one
//!   image still apply in order).
//! * **ProcStall** — a processor freezes for a bounded interval (models
//!   an interrupt, a TLB walk, a slow micro-op drain).
//! * **DataJitter** — a data-bus/bank transaction takes extra cycles.
//! * **BroadcastLoss** — a performed broadcast updates the global
//!   variable but a processor's local-image update is *permanently*
//!   lost (a lossy sync-bus tap; the paper's §6 image coherence
//!   silently broken for one listener).
//! * **ProcFailStop** — at a planned cycle a processor permanently
//!   stops: it never dispatches, retires or answers the sync bus again.
//!   Its unretired iterations are stranded until the recovery ladder's
//!   rescue rung reclaims and reissues them to survivors.
//!
//! All classes except `BroadcastLoss` and `ProcFailStop` are *bounded*:
//! delivery, image freshness and stalls have hard caps, which is what
//! makes the outcome classification of `datasync_schemes::robustness`
//! total — a faulted run completes, is detected as
//! deadlocked/livelocked, times out at `max_cycles`, or produces an
//! order violation that the trace validator reports. There is no silent
//! fifth outcome. The *unbounded* classes never resolve on their own:
//! a lost image update (`BroadcastLoss`) never arrives, so a
//! local-image spinner wedges — promptly detected (and proven) with
//! recovery off, and healed by the gap-detection / NACK /
//! watchdog-repair ladder with [`crate::recovery::RecoveryPolicy`]
//! enabled; a fail-stopped processor (`ProcFailStop`) never retires its
//! claimed work, wedging every consumer of its values — detected with
//! recovery off, survived via work reclamation (the rescue rung) with
//! recovery on.

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Extra sync-bus hold cycles before a broadcast performs.
    BroadcastDelay,
    /// Out-of-order grant from the sync-bus queue.
    BroadcastReorder,
    /// Lost broadcast, re-queued with bounded redelivery.
    BroadcastDrop,
    /// Bounded lag between a global sync write and a local image update.
    StaleImage,
    /// Bounded processor freeze.
    ProcStall,
    /// Extra data-bus cycles per transaction.
    DataJitter,
    /// Permanent loss of one processor's local-image update (the global
    /// write still performs). Unbounded: without recovery a local-image
    /// waiter wedges and is detected as a deadlock.
    BroadcastLoss,
    /// Permanent processor death at a planned cycle: the victim stops
    /// dispatching, retiring and answering the sync bus forever.
    /// Unbounded: without recovery its unretired work strands every
    /// consumer, detected as a deadlock; with recovery the rescue rung
    /// reclaims the work and reissues it to survivors.
    ProcFailStop,
}

impl FaultClass {
    /// All classes, in matrix-column order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::BroadcastDelay,
        FaultClass::BroadcastReorder,
        FaultClass::BroadcastDrop,
        FaultClass::StaleImage,
        FaultClass::ProcStall,
        FaultClass::DataJitter,
        FaultClass::BroadcastLoss,
        FaultClass::ProcFailStop,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::BroadcastDelay => "bcast-delay",
            FaultClass::BroadcastReorder => "bcast-reorder",
            FaultClass::BroadcastDrop => "bcast-drop",
            FaultClass::StaleImage => "stale-image",
            FaultClass::ProcStall => "proc-stall",
            FaultClass::DataJitter => "data-jitter",
            FaultClass::BroadcastLoss => "bcast-loss",
            FaultClass::ProcFailStop => "proc-failstop",
        }
    }

    /// `true` when injected faults are guaranteed to resolve on their
    /// own (capped redeliveries, bounded windows). `BroadcastLoss`
    /// (a wakeup lost forever) and `ProcFailStop` (a participant lost
    /// forever) are the classes where they are not.
    pub fn bounded(self) -> bool {
        !matches!(self, FaultClass::BroadcastLoss | FaultClass::ProcFailStop)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic fault-injection plan.
///
/// Probabilities are percentages (0 disables a class); magnitudes are
/// hard caps in cycles. [`FaultPlan::none`] (the [`Default`]) injects
/// nothing and adds no per-cycle cost to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the splitmix64 stream every fault decision draws from.
    pub seed: u64,
    /// Percent chance a granted broadcast is delayed.
    pub broadcast_delay_pct: u32,
    /// Max extra hold cycles per delayed broadcast.
    pub broadcast_delay_max: u32,
    /// Percent chance the arbiter grants out of queue order.
    pub broadcast_reorder_pct: u32,
    /// Percent chance a performed broadcast is dropped and re-queued.
    pub broadcast_drop_pct: u32,
    /// Hard cap on redeliveries per broadcast (eventual delivery).
    pub max_redeliveries: u32,
    /// Percent chance a local-image update is deferred.
    pub stale_image_pct: u32,
    /// Max deferral window in cycles.
    pub stale_window_max: u32,
    /// Mean cycles between stall onsets per processor (0 = never).
    pub stall_mean_interval: u32,
    /// Max stall length in cycles.
    pub stall_max: u32,
    /// Percent chance a data transaction takes extra cycles.
    pub data_jitter_pct: u32,
    /// Max extra cycles per jittered transaction.
    pub data_jitter_max: u32,
    /// Percent chance a performed broadcast's update to one processor's
    /// local image is lost forever (drawn independently per processor;
    /// the global variable still updates).
    pub broadcast_loss_pct: u32,
    /// Processors that permanently fail-stop during the run (0 = none).
    /// Victims and their planned kill cycles are drawn from the fault
    /// stream at machine construction; at least one processor always
    /// survives (the count is clamped to `P - 1`).
    pub fail_stop_procs: u32,
    /// Upper bound on the planned kill cycle of each fail-stop victim
    /// (kills land in `1..=fail_stop_window`; must be >= 1 when
    /// `fail_stop_procs > 0`).
    pub fail_stop_window: u32,
}

/// One fault-plan knob on the wire: its field name and its slot.
pub type FaultKnob = (&'static str, fn(&mut FaultPlan) -> &mut u32);

impl FaultPlan {
    /// Every knob of the plan besides its seed, by wire name, in
    /// reproducer order: the one table each reader and writer of a plan
    /// goes through, so adding a knob touches this file alone.
    pub const KNOBS: [FaultKnob; 14] = [
        ("broadcast_delay_pct", |p| &mut p.broadcast_delay_pct),
        ("broadcast_delay_max", |p| &mut p.broadcast_delay_max),
        ("broadcast_reorder_pct", |p| &mut p.broadcast_reorder_pct),
        ("broadcast_drop_pct", |p| &mut p.broadcast_drop_pct),
        ("max_redeliveries", |p| &mut p.max_redeliveries),
        ("stale_image_pct", |p| &mut p.stale_image_pct),
        ("stale_window_max", |p| &mut p.stale_window_max),
        ("stall_mean_interval", |p| &mut p.stall_mean_interval),
        ("stall_max", |p| &mut p.stall_max),
        ("data_jitter_pct", |p| &mut p.data_jitter_pct),
        ("data_jitter_max", |p| &mut p.data_jitter_max),
        ("broadcast_loss_pct", |p| &mut p.broadcast_loss_pct),
        ("fail_stop_procs", |p| &mut p.fail_stop_procs),
        ("fail_stop_window", |p| &mut p.fail_stop_window),
    ];
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No faults at all.
    pub const fn none() -> Self {
        Self {
            seed: 0,
            broadcast_delay_pct: 0,
            broadcast_delay_max: 0,
            broadcast_reorder_pct: 0,
            broadcast_drop_pct: 0,
            max_redeliveries: 0,
            stale_image_pct: 0,
            stale_window_max: 0,
            stall_mean_interval: 0,
            stall_max: 0,
            data_jitter_pct: 0,
            data_jitter_max: 0,
            broadcast_loss_pct: 0,
            fail_stop_procs: 0,
            fail_stop_window: 0,
        }
    }

    /// `true` if any class can fire.
    pub fn is_active(&self) -> bool {
        self.broadcast_delay_pct > 0
            || self.broadcast_reorder_pct > 0
            || self.broadcast_drop_pct > 0
            || self.stale_image_pct > 0
            || self.stall_mean_interval > 0
            || self.data_jitter_pct > 0
            || self.broadcast_loss_pct > 0
            || self.fail_stop_procs > 0
    }

    /// A plan that exercises exactly one class at the given intensity
    /// (0..=100). Magnitudes scale with intensity so that `intensity`
    /// reads as "how hard is this class shaken".
    pub fn only(class: FaultClass, seed: u64, intensity: u32) -> Self {
        let mut plan = Self { seed, ..Self::none() };
        let pct = intensity.min(100);
        let mag = 4 + pct;
        match class {
            FaultClass::BroadcastDelay => {
                plan.broadcast_delay_pct = pct;
                plan.broadcast_delay_max = mag;
            }
            FaultClass::BroadcastReorder => {
                plan.broadcast_reorder_pct = pct;
            }
            FaultClass::BroadcastDrop => {
                plan.broadcast_drop_pct = pct;
                plan.max_redeliveries = 3;
            }
            FaultClass::StaleImage => {
                plan.stale_image_pct = pct;
                plan.stale_window_max = mag;
            }
            FaultClass::ProcStall => {
                if let Some(interval) = 4000u32.checked_div(pct) {
                    plan.stall_mean_interval = interval.max(20);
                    plan.stall_max = 2 * mag;
                }
            }
            FaultClass::DataJitter => {
                plan.data_jitter_pct = pct;
                plan.data_jitter_max = mag;
            }
            FaultClass::BroadcastLoss => {
                plan.broadcast_loss_pct = pct;
            }
            FaultClass::ProcFailStop => {
                if pct > 0 {
                    // One victim; a second at high intensity. Kills land
                    // early (more intensity = tighter window) so the dead
                    // processor strands as much unretired work as possible.
                    plan.fail_stop_procs = if pct >= 75 { 2 } else { 1 };
                    plan.fail_stop_window = 64 + 16 * (100 - pct);
                }
            }
        }
        plan
    }

    /// A plan with every *bounded* class active at the same intensity —
    /// the "chaos mode" used for worst-case shaking. The unbounded
    /// classes (`BroadcastLoss`, `ProcFailStop`) are excluded: chaos
    /// keeps the eventual-delivery and full-quorum guarantees so that
    /// chaos runs remain classifiable without recovery; permanent loss
    /// and fail-stop are swept as their own matrix rows.
    pub fn chaos(seed: u64, intensity: u32) -> Self {
        FaultClass::ALL
            .iter()
            .filter(|c| c.bounded())
            .fold(Self { seed, ..Self::none() }, |plan, &class| {
                plan.merge(Self::only(class, seed, intensity))
            })
    }

    /// Composes two plans knob by knob, keeping the larger value of
    /// each and this plan's seed.
    #[must_use]
    pub fn merge(mut self, mut other: Self) -> Self {
        for (_, knob) in Self::KNOBS {
            let theirs = *knob(&mut other);
            let ours = knob(&mut self);
            *ours = (*ours).max(theirs);
        }
        self
    }

    /// Returns the plan with a different seed (same intensities).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Counts and magnitudes of injected faults in one run, recorded in
/// [`crate::stats::RunStats::faults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Broadcasts granted with extra hold cycles.
    pub delayed_broadcasts: u64,
    /// Total extra hold cycles across delayed broadcasts.
    pub delay_cycles: u64,
    /// Out-of-order sync-bus grants.
    pub reordered_broadcasts: u64,
    /// Broadcast deliveries dropped (each is re-queued).
    pub dropped_broadcasts: u64,
    /// Local-image updates deferred past the global write.
    pub stale_image_updates: u64,
    /// Stall intervals begun.
    pub stalls: u64,
    /// Total cycles processors spent frozen by injected stalls.
    pub stall_cycles: u64,
    /// Data transactions that drew extra cycles.
    pub jittered_transactions: u64,
    /// Total extra data-path cycles.
    pub jitter_cycles: u64,
    /// Sum over faulted sync ops of (actual perform cycle − first grant
    /// cycle) − the fault-free service time: the total recovery latency.
    pub recovery_cycles: u64,
    /// Largest single recovery latency observed.
    pub recovery_max: u64,
    /// Broadcasts that finally delivered *after* a newer write to the
    /// same variable had already performed (possible under drops and
    /// reorders); recognized by their issue tag and discarded instead of
    /// regressing the variable.
    pub stale_deliveries_discarded: u64,
    /// Local-image updates permanently lost (`BroadcastLoss`): the
    /// global write performed but this processor's image never saw it.
    pub lost_image_updates: u64,
    /// Processors that permanently fail-stopped (`ProcFailStop`).
    pub fail_stops: u64,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.delayed_broadcasts
            + self.reordered_broadcasts
            + self.dropped_broadcasts
            + self.stale_image_updates
            + self.stalls
            + self.jittered_transactions
            + self.lost_image_updates
            + self.fail_stops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }

    #[test]
    fn only_activates_one_class() {
        for class in FaultClass::ALL {
            let plan = FaultPlan::only(class, 1, 50);
            assert!(plan.is_active(), "{class} at 50 must be active");
            let zero = FaultPlan::only(class, 1, 0);
            assert!(!zero.is_active(), "{class} at 0 must be inert");
        }
        let p = FaultPlan::only(FaultClass::BroadcastDrop, 9, 30);
        assert_eq!(p.broadcast_drop_pct, 30);
        assert!(p.max_redeliveries > 0, "drops must be bounded");
        assert_eq!(p.stale_image_pct, 0);
    }

    #[test]
    fn chaos_covers_every_bounded_class() {
        let p = FaultPlan::chaos(7, 40);
        assert!(p.broadcast_delay_pct > 0);
        assert!(p.broadcast_reorder_pct > 0);
        assert!(p.broadcast_drop_pct > 0 && p.max_redeliveries > 0);
        assert!(p.stale_image_pct > 0);
        assert!(p.stall_mean_interval > 0);
        assert!(p.data_jitter_pct > 0);
        assert_eq!(p.broadcast_loss_pct, 0, "chaos keeps eventual delivery");
        assert_eq!(p.seed, 7);
        assert_eq!(p.with_seed(8).seed, 8);
    }

    #[test]
    fn loss_and_failstop_are_the_unbounded_classes() {
        let unbounded: Vec<FaultClass> =
            FaultClass::ALL.into_iter().filter(|c| !c.bounded()).collect();
        assert_eq!(unbounded, vec![FaultClass::BroadcastLoss, FaultClass::ProcFailStop]);
        let p = FaultPlan::only(FaultClass::BroadcastLoss, 3, 60);
        assert_eq!(p.broadcast_loss_pct, 60);
        assert!(p.is_active());
        assert_eq!(p.broadcast_drop_pct, 0);
    }

    #[test]
    fn failstop_plans_are_windowed_and_leave_a_survivor_count() {
        let p = FaultPlan::only(FaultClass::ProcFailStop, 5, 50);
        assert_eq!(p.fail_stop_procs, 1);
        assert!(p.fail_stop_window >= 1, "kills need a nonempty window");
        assert!(p.is_active());
        let hard = FaultPlan::only(FaultClass::ProcFailStop, 5, 100);
        assert_eq!(hard.fail_stop_procs, 2, "high intensity kills two");
        assert!(
            hard.fail_stop_window <= p.fail_stop_window,
            "harder plans kill earlier, stranding more work"
        );
        let chaos = FaultPlan::chaos(5, 80);
        assert_eq!(chaos.fail_stop_procs, 0, "chaos keeps a full quorum");
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = FaultClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultClass::ALL.len());
    }

    #[test]
    fn counts_total() {
        let c = FaultCounts { delayed_broadcasts: 2, stalls: 3, ..Default::default() };
        assert_eq!(c.total(), 5);
    }
}
