//! Per-processor state in struct-of-arrays layout, plus the lazy
//! quiet-cycle charging and the wake bitsets the fast-forward kernel's
//! active set is built from.

use super::ProcState;
use crate::stats::ProcBreakdown;

/// Per-processor state in struct-of-arrays layout: one lane per field,
/// so the per-cycle loops walk contiguous memory instead of striding
/// over a `Vec` of processor structs.
///
/// The `state` and `dead` lanes are private: every transition must go
/// through [`ProcLanes::set_state`] / [`ProcLanes::set_current`] /
/// [`ProcLanes::kill`], which maintain the cached population counters
/// (`engaged`, `active`, `computing`) that make the machine's finished,
/// deadlock and watchdog tests O(1) on the fast path.
///
/// Stat charging is **lazy**: `charged_to[p]` is the first cycle not
/// yet charged to `p`'s breakdown, and every cycle in
/// `charged_to[p]..now` was spent in `p`'s current state (frozen by a
/// stall up to `stall_until[p]`, or dead). [`ProcLanes::charge`] pays
/// that span into the state's bucket in one addition — when the
/// processor is next visited, before any transition made from outside
/// its own step, and at run end — so a quiet cycle costs the kernel
/// nothing for a processor that does not act in it.
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
    /// First cycle not yet charged to `stats` (see the type docs). A
    /// `Computing` state's `remaining` counts from this cycle, so the
    /// processor retires at `charged_to + remaining`.
    pub(crate) charged_to: Vec<u64>,
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
    /// One bit per processor: set when something may have moved the
    /// processor's wake deadline or made it act this cycle. The
    /// fast-forward stepper visits every set bit at or above its loop
    /// cursor in the current cycle and re-arms the wakes of bits set
    /// behind the cursor at the end of it. Wakes are *absolute* cycles
    /// (a computing processor's retire cycle, a spinner's NACK
    /// deadline), so a processor whose bit is clear still has a live,
    /// correct calendar entry.
    pub(super) wake_dirty: Vec<u64>,
    /// One bit per processor that entered a local-image spin since its
    /// domain's spinners were last scanned. Set on entry, cleared
    /// lazily by the scan once the processor has moved on, so image
    /// deliveries find their candidate waiters in O(P/64 + spinners).
    pub(super) local_spin: Vec<u64>,
    /// Processors (dead or alive) that are not (`Idle` with no program):
    /// 0 is the processor side of the machine's finished test.
    pub(super) engaged: usize,
    /// Live processors in `Ready`/`Computing`/`Blocked*` — states that
    /// by themselves rule out a deadlock verdict.
    pub(super) active: usize,
    /// Live processors in `Computing` — each notes progress every
    /// cycle, which is what the watchdog's progressing test wants.
    pub(super) computing: usize,
    /// Live processors an injected stall froze mid-compute: counted in
    /// `computing` but making no progress until they thaw.
    pub(super) frozen_computing: usize,
}

impl ProcLanes {
    pub(super) fn new(p: usize, next_stall: Vec<u64>, fail_at: Vec<u64>) -> Self {
        // Every bit starts dirty so the first stepped cycle visits every
        // processor and arms every wake (processors that never
        // transition — idle with no work — would otherwise keep their
        // initial cycle-0 deadline forever).
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
            charged_to: vec![0; p],
            stall_until: vec![0; p],
            next_stall,
            fail_at,
            dead: vec![false; p],
            local_spin: vec![0; wake_dirty.len()],
            wake_dirty,
            engaged: 0,
            active: 0,
            computing: 0,
            frozen_computing: 0,
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

    /// Flags `p` as touched this cycle: the fast-forward stepper visits
    /// it if its loop cursor has not passed it yet, and re-arms its
    /// wake deadline at the end of the cycle either way.
    #[inline]
    pub(crate) fn mark_wake(&mut self, p: usize) {
        self.wake_dirty[p / 64] |= 1 << (p % 64);
    }

    /// Records that `p` entered a local-image spin (see `local_spin`).
    #[inline]
    pub(super) fn note_local_spin(&mut self, p: usize) {
        self.local_spin[p / 64] |= 1 << (p % 64);
    }

    /// Charges `p`'s uncharged cycles `charged_to[p]..now` to the
    /// buckets the reference stepper would have ticked one by one:
    /// `dead` for a fail-stopped processor, `stalled` up to the end of
    /// an injected stall, then the current state's bucket — advancing a
    /// `Computing` countdown by the same span. A no-op when `now` is
    /// not past `charged_to[p]` (the processor already stepped).
    #[inline]
    pub(crate) fn charge(&mut self, p: usize, now: u64) {
        let from = self.charged_to[p];
        if now <= from {
            return;
        }
        self.charged_to[p] = now;
        let span = now - from;
        if self.dead[p] {
            self.stats[p].dead += span;
            return;
        }
        let frozen = self.stall_until[p].clamp(from, now) - from;
        self.stats[p].stalled += frozen;
        let live = span - frozen;
        if live == 0 {
            return;
        }
        match self.state[p] {
            ProcState::Idle => self.stats[p].idle += live,
            ProcState::Computing { remaining } => {
                // A computing processor is visited at its retire cycle,
                // so a span never runs past the countdown.
                debug_assert!(live <= u64::from(remaining), "charge overran a compute");
                self.stats[p].busy += live;
                self.tick_computing(p, remaining - live as u32);
            }
            ProcState::BlockedData | ProcState::BlockedSync => self.stats[p].blocked += live,
            ProcState::SpinLocal { .. } | ProcState::SpinMem { .. } => {
                self.stats[p].spin += live;
            }
            ProcState::Ready => unreachable!("a ready processor is visited every cycle"),
        }
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
    /// absolute cycle it issues again (`charged_to + remaining`), which
    /// ticking never moves.
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

    /// Counts `p` into `frozen_computing` if the stall that just froze it
    /// caught it computing.
    pub(crate) fn freeze(&mut self, p: usize) {
        if !self.dead[p] && matches!(self.state[p], ProcState::Computing { .. }) {
            self.frozen_computing += 1;
        }
    }

    /// Takes `p` out of `frozen_computing` when its stall ends (its thaw
    /// visit) or it fail-stops while frozen. A frozen processor never
    /// changes state — it does not execute, and nothing outside its
    /// step moves a computing processor — so it computes now exactly
    /// when [`Self::freeze`] counted it.
    pub(crate) fn thaw(&mut self, p: usize) {
        if !self.dead[p] && matches!(self.state[p], ProcState::Computing { .. }) {
            self.frozen_computing -= 1;
        }
    }

    /// Marks processor `p` fail-stopped (never un-killed).
    pub(crate) fn kill(&mut self, p: usize) {
        self.mark_wake(p);
        self.retract(p);
        self.dead[p] = true;
        self.restore(p);
    }
}
