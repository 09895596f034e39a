//! The event-driven fast-forward kernel ([`StepMode::FastForward`]).
//!
//! A cycle is *quiet* when the machine provably does nothing in it but
//! tick stat counters. The kernel finds the next non-quiet cycle as the
//! minimum of two sources — the O(banks + domains)
//! [`Machine::channel_horizon`] over the buses, banks, fabric domains,
//! bridge and deferred-image due time, and the [`super::schedule::Calendar`]
//! over per-processor wake deadlines — and jumps there, bulk-charging
//! the skipped cycles to exactly the stat buckets the reference stepper
//! would have ticked one by one. Debug builds cross-check every jump
//! against the retained linear-scan oracle ([`Machine::scan_horizon`]).

use super::{Machine, ProcState, SpinPhase, StepMode};

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
    /// evaluated at the end of a stepped cycle (the per-step refresh),
    /// `cycle` itself when the current cycle has not been stepped yet (a
    /// recovery rung healed state mid-loop). It mirrors
    /// [`Machine::scan_horizon`]'s per-processor clauses; every quantity
    /// it reads is either owned by `p`'s own step or re-armed by the
    /// dirty-flag refreshes in [`Machine::step`].
    fn proc_wake(&self, p: usize, c1: u64) -> u64 {
        if self.procs.is_dead(p) {
            return u64::MAX;
        }
        let mut wake = self.procs.fail_at[p];
        if self.config.faults.stall_mean_interval > 0 {
            let until = self.procs.stall_until[p];
            if c1 < until {
                // Frozen mid-stall; only a Ready processor (which drains
                // trace notes every stalled cycle) steps sooner.
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
            ProcState::Computing { remaining } => wake.min(c1 + u64::from(remaining)),
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

    /// Re-arms the wake deadline of every processor whose lanes were
    /// written this cycle (and only those): a clean bit means the
    /// processor's wake is an absolute deadline (retire cycle, NACK due
    /// cycle, stall end) that the cycle did not move, so its calendar
    /// entry is still live and exact.
    pub(super) fn drain_dirty_wakes(&mut self) {
        for w in 0..self.procs.wake_dirty.len() {
            let mut word = std::mem::take(&mut self.procs.wake_dirty[w]);
            while word != 0 {
                let p = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.refresh_wake(p);
            }
        }
    }

    /// Clears every wake-dirty bit — called by the refresh-all paths,
    /// which recompute every processor's wake unconditionally.
    fn clear_wake_dirty(&mut self) {
        self.procs.wake_dirty.fill(0);
    }

    /// Re-arms every processor's wake deadline at the end of a stepped
    /// cycle — the companion to the dirty-bit refresh for mid-loop
    /// dirtying events (a program completing, an oracle broadcast) that
    /// mutate state for processors that already stepped this cycle.
    pub(super) fn refresh_all_wakes(&mut self) {
        if !matches!(self.mode, StepMode::FastForward) {
            return;
        }
        self.clear_wake_dirty();
        for p in 0..self.procs.len() {
            self.refresh_wake(p);
        }
    }

    /// Re-arms every wake from *outside* a step — after a recovery rung
    /// (watchdog repair / rescue) healed state at a cycle that has not
    /// been stepped yet, so a satisfied spinner must wake this very
    /// cycle, not the next.
    pub(super) fn refresh_all_wakes_now(&mut self) {
        if !matches!(self.mode, StepMode::FastForward) {
            return;
        }
        self.clear_wake_dirty();
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
                ProcState::Computing { remaining } => next = next.min(c + u64::from(remaining)),
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

    /// One fast-forward advance: step normally through event cycles, and
    /// jump a whole quiet span at once, bulk-charging the skipped cycles
    /// to exactly the stat buckets the reference stepper would have
    /// ticked one by one. The next event is the minimum of the channel
    /// horizon and the calendar's earliest processor wake — no O(P)
    /// scan.
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
            _ if cal_next <= self.cycle => {
                // A processor wake is due now: step the cycle for real.
                self.step();
                return;
            }
            None => {
                self.step();
                return;
            }
            Some(h) => cal_next.min(h),
        };
        // Land exactly on `max_cycles` so the timeout check fires with
        // the same cycle as per-cycle stepping.
        let mut target = next_event.min(self.config.max_cycles);
        // A computing processor notes progress every cycle; only when
        // none is running can the watchdog's silence bound bind. A dead
        // processor's frozen Computing state is not progress. Without
        // stall injection the cached counter answers in O(1); with it,
        // stalled computing processors must be excluded the slow way.
        let stalls_on = self.config.faults.stall_mean_interval > 0;
        let progressing = if stalls_on {
            (0..self.procs.len()).any(|p| {
                !self.procs.is_dead(p)
                    && self.cycle >= self.procs.stall_until[p]
                    && matches!(self.procs.state(p), ProcState::Computing { .. })
            })
        } else {
            self.procs.computing > 0
        };
        if !progressing {
            target = target.min(self.last_progress.saturating_add(self.watchdog_limit + 1));
        }
        debug_assert!(target > self.cycle, "quiet horizon must move time forward");
        let delta = target - self.cycle;
        for p in 0..self.procs.len() {
            if self.procs.is_dead(p) {
                self.procs.stats[p].dead += delta;
                continue;
            }
            if self.cycle < self.procs.stall_until[p] {
                self.procs.stats[p].stalled += delta;
                continue;
            }
            match self.procs.state(p) {
                ProcState::Idle => self.procs.stats[p].idle += delta,
                ProcState::Computing { remaining } => {
                    self.procs.stats[p].busy += delta;
                    // delta <= remaining by the horizon bound.
                    self.procs.tick_computing(p, remaining - delta as u32);
                }
                ProcState::BlockedData | ProcState::BlockedSync => {
                    self.procs.stats[p].blocked += delta;
                }
                ProcState::SpinLocal { .. } | ProcState::SpinMem { .. } => {
                    self.procs.stats[p].spin += delta;
                }
                ProcState::Ready => unreachable!("a ready processor is never quiet"),
            }
        }
        if progressing {
            self.last_progress = target - 1;
        }
        self.cycle = target;
    }
}
