//! The event-driven fast-forward kernel ([`StepMode::FastForward`]):
//! per-cycle work proportional to the processors that act, not to P.
//!
//! A cycle is *quiet* when the machine provably does nothing in it but
//! tick stat counters. The kernel finds the next non-quiet cycle as the
//! minimum of two sources — the O(banks + domains)
//! [`Machine::channel_horizon`] over the buses, banks, fabric domains,
//! bridge and deferred-image due time, and the [`super::schedule::Calendar`]
//! over per-processor wake deadlines — and jumps there in O(1): nobody
//! is charged for the skipped cycles yet. Each processor keeps a
//! "charged up to" cycle and pays its quiet cycles into its state's
//! bucket in one addition when it is next visited, before any
//! transition made from outside its own step, and at run end (see
//! [`super::lanes::ProcLanes::charge`]); a computing processor's retire
//! cycle is simply `charged_to + remaining`.
//!
//! A stepped cycle runs the channel phases, then visits in id order
//! only the **active set**: the processors the calendar has due this
//! cycle plus every processor marked in the `wake_dirty` bitset by this
//! cycle's completions, grants, deliveries or by processors stepped
//! before it — O(due + P/64) to assemble. A mark at or above the loop
//! cursor is visited this cycle; one behind it (the cursor already
//! passed) only re-arms that processor's wake for the next. Debug
//! builds cross-check every jump against the retained linear-scan
//! oracle ([`Machine::scan_horizon`]) and every stepped cycle against
//! the skipped-processor oracle, so a missed wake fails at the cycle
//! it happens.

use super::{Machine, ProcState, SpinPhase, StepMode};
use crate::program::{Pred, SyncVar};

/// One deadline's contribution to the horizon: `None` when it is due
/// at or before `c` (the cycle must be stepped), else the deadline.
#[inline]
fn due(at: u64, c: u64) -> Option<u64> {
    (at > c).then_some(at)
}

/// One arbitrated channel's contribution to the horizon: a completion
/// is an event, and an idle channel with queued work grants this cycle.
#[inline]
fn channel<T>(active: &Option<(T, u64)>, queued: bool, c: u64) -> Option<u64> {
    match active {
        Some((_, end)) => due(*end, c),
        None if queued => None,
        None => Some(u64::MAX),
    }
}

/// The smallest value that can satisfy `pred` (both predicates need at
/// least their operand).
#[inline]
fn threshold(pred: Pred) -> u64 {
    match pred {
        Pred::Geq(n) | Pred::Eq(n) => n,
    }
}

/// The bits of the bitset word starting at processor `base` that fall
/// inside `lo..hi`.
#[inline]
fn span_mask(base: usize, lo: usize, hi: usize) -> u64 {
    // Callers walk words from `lo / 64` up to the one holding `hi - 1`,
    // so `lo - base < 64` and `hi > base`.
    let from = lo.saturating_sub(base);
    let to = (hi - base).min(64);
    let upto = if to == 64 { u64::MAX } else { (1u64 << to) - 1 };
    upto & (u64::MAX << from)
}

impl Machine<'_> {
    /// The channel half of the quiet test: `None` when a bus, bank,
    /// bridge or deferred-image update acts this cycle, else the
    /// earliest future cycle one will (`u64::MAX` if all idle).
    /// O(banks + domains), no per-proc walk — processor wakes live in
    /// the calendar.
    pub(super) fn channel_horizon(&self) -> Option<u64> {
        let c = self.cycle;
        // Deferred image updates wake local spinners when due; pending
        // cache-hit completions likewise.
        let mut next = due(self.sync.due_min, c)?.min(due(self.cache.pending_min, c)?);
        // Data bus, then the memory banks.
        next = next.min(channel(&self.mem.active, !self.mem.queue.is_empty(), c)?);
        for b in &self.mem.banks {
            next = next.min(channel(&b.active, !b.queue.is_empty(), c)?);
        }
        // The sync fabric: every domain bus, then the bridge's
        // coalescing window and channel. `inflight` gates the walk, so
        // an idle fabric costs one branch here.
        if self.sync.inflight > 0 {
            for d in &self.sync.domains {
                next = next.min(channel(&d.active, !d.queue.is_empty(), c)?);
            }
            if let Some(bridge) = &self.sync.bridge {
                next = next.min(due(bridge.window_min(), c)?);
                next = next.min(channel(&bridge.active, !bridge.queue.is_empty(), c)?);
            }
        }
        Some(next)
    }

    /// The earliest cycle at or after `c1` at which processor `p` can do
    /// anything observable — `u64::MAX` if it never will on its own.
    /// `c1` is the first cycle the wake could land on: `cycle + 1` when
    /// evaluated during or after a stepped cycle (the per-visit and
    /// end-of-cycle refreshes), `cycle` itself when the current cycle
    /// has not been stepped yet (a recovery rung healed state) or is
    /// being checked by the skipped-processor oracle. It mirrors
    /// [`Machine::scan_horizon`]'s per-processor clauses; every quantity
    /// it reads is either owned by `p`'s own step or marks `p` in
    /// `wake_dirty` when something else changes it (see the module
    /// docs).
    fn proc_wake(&self, p: usize, c1: u64) -> u64 {
        if self.procs.is_dead(p) {
            return u64::MAX;
        }
        let mut wake = self.procs.fail_at[p];
        if self.config.faults.stall_mean_interval > 0 {
            let until = self.procs.stall_until[p];
            if c1 <= until {
                // Frozen mid-stall: wake at the thaw cycle, which is
                // always visited (it takes the processor out of the
                // frozen-compute count). Only a Ready processor (which
                // drains trace notes every stalled cycle) steps sooner.
                if matches!(self.procs.state(p), ProcState::Ready) {
                    return wake.min(c1);
                }
                return wake.min(until);
            }
            wake = wake.min(self.procs.next_stall[p]);
        }
        match self.procs.state(p) {
            ProcState::Idle => {
                if self.disp.can_claim(p, self.workload) {
                    wake.min(c1)
                } else {
                    wake
                }
            }
            ProcState::Ready => wake.min(c1),
            ProcState::Computing { remaining } => {
                wake.min(self.procs.charged_to[p] + u64::from(remaining))
            }
            ProcState::BlockedData | ProcState::BlockedSync => wake,
            ProcState::SpinLocal { var, pred } => {
                if pred.eval(self.sync.image(p, var)) {
                    wake.min(c1)
                } else {
                    // The gap check may have come due while this
                    // processor was frozen in a stall: it runs at the
                    // first unfrozen cycle, never in the past.
                    wake.min(self.rec.nack_due[p].max(c1))
                }
            }
            ProcState::SpinMem { phase, .. } => match phase {
                // A backoff that expired during a stall freeze re-issues
                // at the first unfrozen cycle (same clamp as above).
                SpinPhase::Backoff { until } => wake.min(until.max(c1)),
                // The pending transaction bounds the next event; the
                // channel horizon carries it.
                SpinPhase::WaitingResult => wake,
            },
        }
    }

    #[inline]
    fn refresh_wake(&mut self, p: usize) {
        let wake = self.proc_wake(p, self.cycle + 1);
        self.sched.schedule(p, wake);
    }

    /// Re-arms the wake deadline of every processor still marked at the
    /// end of a stepped cycle — the ones touched after the loop cursor
    /// passed them: a clean bit means the processor's wake is an
    /// absolute deadline (retire cycle, NACK due cycle, stall end) that
    /// the cycle did not move, so its calendar entry is still live and
    /// exact.
    fn drain_dirty_wakes(&mut self) {
        for w in 0..self.procs.wake_dirty.len() {
            let mut word = std::mem::take(&mut self.procs.wake_dirty[w]);
            while word != 0 {
                let p = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.refresh_wake(p);
            }
        }
    }

    /// Re-arms every wake from *outside* a step — after a recovery rung
    /// (watchdog repair / rescue) healed images or moved work wholesale
    /// at a cycle that has not been stepped yet, so a satisfied spinner
    /// must wake this very cycle, not the next. Cold.
    pub(super) fn refresh_all_wakes_now(&mut self) {
        if !matches!(self.mode, StepMode::FastForward) {
            return;
        }
        self.procs.wake_dirty.fill(0);
        for p in 0..self.procs.len() {
            let wake = self.proc_wake(p, self.cycle);
            self.sched.schedule(p, wake);
        }
    }

    /// The retained linear-scan oracle: recomputes the quiet horizon the
    /// way the pre-calendar kernel did, in O(P). `None` means the cycle
    /// must be stepped; `Some(next)` that nothing observable happens
    /// before `next`. Debug builds cross-check every fast-forward jump
    /// against it.
    #[cfg(debug_assertions)]
    pub(super) fn scan_horizon(&self) -> Option<u64> {
        let c = self.cycle;
        let mut next = self.channel_horizon()?;
        let stalls_on = self.config.faults.stall_mean_interval > 0;
        for p in 0..self.procs.len() {
            // Dead processors contribute no events: their stalls, spins
            // and compute remainders can never perform. A *pending* kill
            // is an event — it must land at a stepped cycle so both step
            // modes record it identically.
            if self.procs.is_dead(p) {
                continue;
            }
            if self.procs.fail_at[p] <= c {
                return None; // the fail-stop lands this cycle
            }
            next = next.min(self.procs.fail_at[p]);
            if stalls_on {
                if c >= self.procs.stall_until[p] && c >= self.procs.next_stall[p] {
                    return None; // stall onset draws RNG this cycle
                }
                if c < self.procs.stall_until[p] {
                    // Frozen until the stall ends — except that a stalled
                    // Ready processor drains trace notes every cycle.
                    if matches!(self.procs.state(p), ProcState::Ready) {
                        return None;
                    }
                    next = next.min(self.procs.stall_until[p]);
                    continue;
                }
                next = next.min(self.procs.next_stall[p]);
            }
            match self.procs.state(p) {
                ProcState::Idle => {
                    if self.disp.can_claim(p, self.workload) {
                        return None;
                    }
                }
                ProcState::Ready => return None,
                ProcState::Computing { remaining } => {
                    next = next.min(self.procs.charged_to[p] + u64::from(remaining));
                }
                ProcState::BlockedData | ProcState::BlockedSync => {}
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.image(p, var)) {
                        return None; // the spin succeeds this cycle
                    }
                    if self.rec.nack_due[p] <= c {
                        return None; // the gap check runs this cycle
                    }
                    next = next.min(self.rec.nack_due[p]);
                }
                ProcState::SpinMem { phase, .. } => {
                    if let SpinPhase::Backoff { until } = phase {
                        if c >= until {
                            return None; // re-issues the poll this cycle
                        }
                        next = next.min(until);
                    }
                    // WaitingResult: the pending transaction bounds `next`.
                }
            }
        }
        Some(next)
    }

    /// The skipped-processor oracle, run after every stepped cycle in
    /// debug builds: a processor the active set did not visit must have
    /// been quiet this cycle — no due wake, no satisfied local spin,
    /// nothing claimable — unless it was marked after the loop cursor
    /// passed it (then the reference stepper also saw it quiet at its
    /// turn, and its wake is re-armed for the next cycle).
    #[cfg(debug_assertions)]
    fn assert_no_skipped_event(&self, visited: &[u64]) {
        let c = self.cycle;
        for p in 0..self.procs.len() {
            let (w, bit) = (p / 64, 1u64 << (p % 64));
            if (visited[w] | self.procs.wake_dirty[w]) & bit != 0 {
                continue;
            }
            let wake = self.proc_wake(p, c);
            assert!(
                wake > c,
                "active set skipped processor {p} at cycle {c} with a due wake {wake} ({:?})",
                self.procs.state(p)
            );
        }
    }

    /// Whether some live, unfrozen processor computes this cycle — the
    /// watchdog's progressing test (each one notes progress every cycle
    /// under the reference stepper). O(1) from the cached counters;
    /// debug builds check them against a scan.
    fn computing_progress(&self) -> bool {
        debug_assert_eq!(
            self.procs.frozen_computing,
            (0..self.procs.len())
                .filter(|&p| {
                    !self.procs.is_dead(p)
                        && self.cycle < self.procs.stall_until[p]
                        && matches!(self.procs.state(p), ProcState::Computing { .. })
                })
                .count(),
            "frozen-compute count drifted at cycle {}",
            self.cycle
        );
        self.procs.computing > self.procs.frozen_computing
    }

    /// One fast-forward advance: step the active set through an event
    /// cycle, or jump a whole quiet span at once. The next event is the
    /// minimum of the channel horizon and the calendar's earliest
    /// processor wake — no O(P) scan, and no per-processor work for the
    /// skipped cycles (they are charged lazily).
    pub(super) fn fast_step(&mut self) {
        let cal_next = self.sched.earliest(self.cycle);
        let channels = self.channel_horizon();
        #[cfg(debug_assertions)]
        {
            let fast = match channels {
                _ if cal_next <= self.cycle => None,
                None => None,
                Some(h) => Some(cal_next.min(h)),
            };
            match (fast, self.scan_horizon()) {
                (Some(_), None) => {
                    unreachable!("fast-forward would skip an event at cycle {}", self.cycle)
                }
                (Some(t), Some(h)) => {
                    debug_assert!(t <= h, "fast-forward overshoots the horizon: {t} > {h}");
                }
                (None, _) => {}
            }
        }
        let next_event = match channels {
            // Nothing due now: a quiet span up to the next event.
            Some(h) if cal_next > self.cycle => cal_next.min(h),
            // A processor wake or a channel is due: step the cycle.
            _ => {
                self.active_step();
                return;
            }
        };
        // Land exactly on `max_cycles` so the timeout check fires with
        // the same cycle as per-cycle stepping.
        let mut target = next_event.min(self.config.max_cycles);
        // A computing processor notes progress every cycle; only when
        // none is running can the watchdog's silence bound bind. Every
        // processor counted as computing retires at or after `target`.
        let progressing = self.computing_progress();
        if progressing {
            self.last_progress = target - 1;
        } else {
            target = target.min(self.last_progress.saturating_add(self.watchdog_limit + 1));
        }
        debug_assert!(target > self.cycle, "quiet horizon must move time forward");
        self.kernel.quiet_jumps += 1;
        self.cycle = target;
    }

    /// One stepped cycle of the fast-forward kernel: the channel phases,
    /// then the active set in id order (see the module docs). Visited
    /// processors have their wakes re-armed as they step; processors
    /// marked behind the cursor are re-armed at the end.
    fn active_step(&mut self) {
        self.channel_phases();
        self.sched.take_due(self.cycle, &mut self.procs.wake_dirty);
        #[cfg(debug_assertions)]
        let mut visited = vec![0u64; self.procs.wake_dirty.len()]; // alloc-ok: debug oracle only
        let (mut w, mut from) = (0, 0);
        while w < self.procs.wake_dirty.len() {
            // Re-read the word each time: processors stepped earlier may
            // have marked later ones in it.
            let word = self.procs.wake_dirty[w] & (u64::MAX << from);
            if word == 0 {
                (w, from) = (w + 1, 0);
                continue;
            }
            let b = word.trailing_zeros();
            let p = w * 64 + b as usize;
            self.step_proc(p);
            self.procs.wake_dirty[w] &= !(1u64 << b);
            self.refresh_wake(p);
            #[cfg(debug_assertions)]
            {
                visited[w] |= 1u64 << b;
            }
            (w, from) = if b == 63 { (w + 1, 0) } else { (w, b + 1) };
        }
        // Skipped computing processors tick this cycle too.
        if self.computing_progress() {
            self.note_progress();
        }
        #[cfg(debug_assertions)]
        self.assert_no_skipped_event(&visited);
        self.drain_dirty_wakes();
        self.cycle += 1;
    }

    /// Marks every local spinner in the whole domains `lo..hi` (whose
    /// images of `var` all just became `val`) whose predicate now
    /// holds, so the stepper visits it. A domain whose spinners all
    /// wait for more than `val` (its `need_min` bound) costs O(1);
    /// otherwise its spinner bits are scanned, stale ones dropped and
    /// the bound recomputed from the spinners still waiting on `var`.
    pub(crate) fn wake_spinners(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        let domains = self.sync.domains.len();
        for d in self.sync.domain_of(lo)..=self.sync.domain_of(hi - 1) {
            let slot = var * domains + d;
            if val < self.sync.need_min[slot] {
                continue;
            }
            let (dlo, dhi) = self.sync.domain_range(d);
            let mut need = u64::MAX;
            for w in dlo / 64..dhi.div_ceil(64) {
                let base = w * 64;
                let mut word = self.procs.local_spin[w] & span_mask(base, dlo, dhi);
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    word ^= bit;
                    let p = base + bit.trailing_zeros() as usize;
                    match self.procs.state(p) {
                        ProcState::SpinLocal { var: v, pred } if v == var => {
                            if pred.eval(val) {
                                self.procs.mark_wake(p);
                            }
                            // Still spinning until its visit: keep it
                            // in the bound (a lower bound may be low).
                            need = need.min(threshold(pred));
                        }
                        ProcState::SpinLocal { .. } => {}
                        _ => self.procs.local_spin[w] &= !bit,
                    }
                }
            }
            self.sync.need_min[slot] = need;
        }
    }

    /// Marks processor `p` if it spins locally on `var` and its image
    /// now satisfies it — the per-image form of
    /// [`Machine::wake_spinners`] for the faulted and deferred paths.
    #[inline]
    pub(super) fn wake_if_satisfied(&mut self, p: usize, var: SyncVar) {
        if let ProcState::SpinLocal { var: v, pred } = self.procs.state(p) {
            if v == var && pred.eval(self.sync.image(p, var)) {
                self.procs.mark_wake(p);
            }
        }
    }

    /// Parks processor `p` in a local-image spin on `var`, lowering its
    /// domain's threshold bound so deliveries that could satisfy it
    /// find it.
    pub(crate) fn spin_local(&mut self, p: usize, var: SyncVar, pred: Pred) {
        let slot = var * self.sync.domains.len() + self.sync.domain_of(p);
        self.sync.need_min[slot] = self.sync.need_min[slot].min(threshold(pred));
        self.procs.note_local_spin(p);
        self.procs.set_state(p, ProcState::SpinLocal { var, pred });
    }
}
