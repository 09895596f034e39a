//! Per-processor execution: the per-cycle processor step and the
//! instruction-issue path that drives the dispatch, memory, fabric and
//! recovery subsystems.

use super::memory::{retry_addr, DataReq, DataReqKind};
use super::{Machine, ProcState, SpinPhase};
use crate::config::SyncTransport;
use crate::faults::FaultClass;
use crate::program::{Instr, Pred};

impl<'a> Machine<'a> {
    /// Executes instructions for processor `p` in the current cycle.
    /// "Free" instructions (notes, posted writes, satisfied waits,
    /// zero-cost computes) retire in the same cycle; the first costly one
    /// decides how the cycle is accounted. Cycles the processor was not
    /// visited in since its last step are charged first (always none
    /// under the reference stepper, which visits every cycle).
    pub(crate) fn step_proc(&mut self, p: usize) {
        self.kernel.proc_visits += 1;
        self.procs.charge(p, self.cycle);
        // Every path below charges this cycle itself.
        self.procs.charged_to[p] = self.cycle + 1;
        if self.procs.is_dead(p) {
            self.procs.stats[p].dead += 1;
            return;
        }
        if self.cycle >= self.procs.fail_at[p] {
            // Fail-stop onset: this processor permanently stops
            // dispatching, retiring and answering the sync bus. Its
            // gap detector is disarmed (a dead processor NACKs nothing);
            // its unretired work stays claimed until the watchdog's
            // rescue rung reclaims it. Trace notes witnessing work that
            // already completed (a keyed access whose transaction
            // performed last cycle, say) retire for free on a live
            // processor; record them before the stop so the order the
            // hardware actually enforced is not re-stamped late by the
            // rescue path.
            self.drain_notes(p);
            if self.cycle <= self.procs.stall_until[p] {
                // Frozen (or due to thaw this very cycle): it stops
                // counting as frozen mid-compute.
                self.procs.thaw(p);
            }
            self.procs.kill(p);
            self.rec.nack_due[p] = u64::MAX;
            self.stats.faults.fail_stops += 1;
            self.record_fault(Some(p), FaultClass::ProcFailStop, 0);
            self.procs.stats[p].dead += 1;
            return;
        }
        if self.config.faults.stall_mean_interval > 0 {
            if self.cycle >= self.procs.stall_until[p] && self.cycle >= self.procs.next_stall[p] {
                // Stall onset: freeze this processor for a bounded
                // interval and schedule the next onset.
                let len = u64::from(self.rng.range_u32(1, self.config.faults.stall_max));
                self.procs.stall_until[p] = self.cycle + len;
                let mean = u64::from(self.config.faults.stall_mean_interval);
                self.procs.next_stall[p] = self.procs.stall_until[p] + 1 + self.rng.below(2 * mean);
                self.procs.freeze(p);
                self.procs.mark_wake(p);
                self.stats.faults.stalls += 1;
                self.stats.faults.stall_cycles += len;
                self.record_fault(Some(p), FaultClass::ProcStall, len);
            }
            if self.cycle < self.procs.stall_until[p] {
                // A stall freezes real work, but trace notes are
                // bookkeeping, not machine work: an instruction that
                // already completed (e.g. a keyed access whose
                // transaction performed this cycle) must still be
                // witnessed now, or the trace would misreport the order
                // the hardware actually enforced.
                self.drain_notes(p);
                self.procs.stats[p].stalled += 1;
                // A frozen `Ready` processor drains notes every stalled
                // cycle (its wake is "next cycle" until the freeze ends),
                // so its deadline must be re-armed each cycle.
                self.procs.mark_wake(p);
                return;
            }
            if self.cycle == self.procs.stall_until[p] {
                // Thaw cycle: the wake cached during the freeze (the
                // freeze's own end) expires now, and the processor may
                // step on without any lane write — re-arm against its
                // real deadlines (next stall onset, NACK due, ...).
                self.procs.mark_wake(p);
                self.procs.thaw(p);
            }
        }
        loop {
            match self.procs.state(p) {
                ProcState::Idle => {
                    if !self.try_dispatch(p) {
                        self.procs.stats[p].idle += 1;
                        return;
                    }
                    // Dispatch may impose latency (state becomes Computing)
                    // or leave the proc Ready; loop to handle either.
                }
                ProcState::Computing { remaining } => {
                    self.procs.stats[p].busy += 1;
                    self.note_progress();
                    self.procs.tick_computing(p, remaining - 1);
                    return;
                }
                ProcState::BlockedData | ProcState::BlockedSync => {
                    self.procs.stats[p].blocked += 1;
                    return;
                }
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.image(p, var)) {
                        self.close_wait(p);
                        self.procs.set_state(p, ProcState::Ready);
                        // The successful check still costs this cycle.
                        self.procs.stats[p].spin += 1;
                        return;
                    }
                    if self.cycle >= self.rec.nack_due[p] {
                        // `check_gap` re-arms (or parks) the NACK
                        // deadline this wake is keyed on.
                        self.procs.mark_wake(p);
                        self.check_gap(p, var, pred);
                    }
                    self.procs.stats[p].spin += 1;
                    return;
                }
                ProcState::SpinMem { retry, phase } => {
                    if let SpinPhase::Backoff { until } = phase {
                        if self.cycle >= until {
                            self.issue_data(DataReq::new(p, retry, retry_addr(retry)));
                            self.procs.set_state(
                                p,
                                ProcState::SpinMem { retry, phase: SpinPhase::WaitingResult },
                            );
                        }
                    }
                    self.procs.stats[p].spin += 1;
                    return;
                }
                ProcState::Ready => {
                    // Issue the next instruction; cost (if any) is applied
                    // by the state branch on the next loop pass, so issuing
                    // does not add a cycle of its own.
                    self.execute_next_instr(p);
                }
            }
        }
    }

    /// Records any immediately-pending trace notes of a stalled (but
    /// otherwise ready) processor. Notes retire for free in normal
    /// stepping; draining them here keeps that invariant across stall
    /// onsets so completion events are never reported late.
    pub(crate) fn drain_notes(&mut self, p: usize) {
        while matches!(self.procs.state(p), ProcState::Ready) {
            let Some(prog_ix) = self.procs.current(p) else { return };
            let ip = self.procs.ip[p];
            let program = &self.workload.programs[prog_ix];
            if ip >= program.instrs.len() {
                return;
            }
            let Instr::Note(label) = program.instrs[ip] else { return };
            self.procs.ip[p] += 1;
            self.trace.record(self.cycle, p, label);
        }
    }

    /// Issues the next instruction; any cost shows up as a state change
    /// handled by [`Machine::step_proc`] in the same cycle. Sync
    /// operations on the dedicated transport go through the configured
    /// [`super::SyncFabric`] backend.
    pub(crate) fn execute_next_instr(&mut self, p: usize) {
        let prog_ix = match self.procs.current(p) {
            Some(ix) => ix,
            None => {
                self.procs.set_state(p, ProcState::Idle);
                return;
            }
        };
        let ip = self.procs.ip[p];
        let program = &self.workload.programs[prog_ix];
        if ip >= program.instrs.len() {
            self.disp.done[prog_ix] = true;
            self.wake_claimants(prog_ix);
            self.procs.set_current(p, None);
            self.procs.ip[p] = 0;
            self.procs.set_state(p, ProcState::Idle);
            return;
        }
        let instr = program.instrs[ip];
        // Everything before `ip` has retired; `instr` has not (a wait
        // that parks the processor re-executes from here, and KeyedAccess
        // rewinds `ip` itself). This is the provably-safe resume point
        // the rescue rung reads if this processor fail-stops mid-flight.
        self.procs.resume_ip[p] = ip;
        self.procs.ip[p] += 1;
        self.note_progress();
        let fabric = self.fabric;
        match instr {
            Instr::Compute(0) => {}
            Instr::Compute(c) => {
                self.procs.set_state(p, ProcState::Computing { remaining: c });
            }
            Instr::Note(label) => {
                self.trace.record(self.cycle, p, label);
            }
            Instr::Access { addr, write } => {
                self.issue_data(DataReq::new(p, DataReqKind::Access { write }, addr));
                self.procs.set_state(p, ProcState::BlockedData);
            }
            Instr::SyncSet { var, val } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    fabric.post(self, p, var, val);
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].posts += 1;
                    self.issue_data(DataReq::new(
                        p,
                        DataReqKind::SyncWrite { var, val },
                        var as u64,
                    ));
                    self.procs.set_state(p, ProcState::BlockedData);
                }
            },
            Instr::SyncRmw { var } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    self.metrics.sync_vars[var].rmws += 1;
                    if !fabric.rmw(self, p, var) {
                        self.procs.set_state(p, ProcState::BlockedSync);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].rmws += 1;
                    self.issue_data(DataReq::new(p, DataReqKind::SyncRmw { var }, var as u64));
                    self.procs.set_state(p, ProcState::BlockedData);
                }
            },
            Instr::SyncWait { var, pred } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    self.metrics.sync_vars[var].waits += 1;
                    if !pred.eval(self.sync.image(p, var)) {
                        self.begin_wait(p, var, false);
                        self.spin_local(p, var, pred);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].waits += 1;
                    self.begin_wait(p, var, true);
                    let kind = DataReqKind::Poll { var, pred };
                    self.issue_data(DataReq::new(p, kind, var as u64));
                    self.procs.set_state(
                        p,
                        ProcState::SpinMem { retry: kind, phase: SpinPhase::WaitingResult },
                    );
                }
            },
            Instr::SyncSetIfGeq { var, guard, val } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    if self.sync.image(p, var) >= guard {
                        fabric.post(self, p, var, val);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.issue_data(DataReq::new(
                        p,
                        DataReqKind::ReadCheck { var, guard, val },
                        var as u64,
                    ));
                    self.procs.set_state(p, ProcState::BlockedData);
                }
            },
            Instr::KeyedAccess { var, geq } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    if self.sync.image(p, var) >= geq {
                        self.metrics.sync_vars[var].rmws += 1;
                        if !fabric.rmw(self, p, var) {
                            self.procs.set_state(p, ProcState::BlockedSync);
                        }
                    } else {
                        // Spin on the local image, then re-issue this
                        // instruction once the key advances.
                        self.begin_wait(p, var, false);
                        self.procs.ip[p] -= 1;
                        self.spin_local(p, var, Pred::Geq(geq));
                    }
                }
                SyncTransport::SharedMemory => {
                    self.begin_wait(p, var, true);
                    let kind = DataReqKind::KeyedAttempt { var, geq };
                    self.issue_data(DataReq::new(p, kind, var as u64));
                    self.procs.set_state(
                        p,
                        ProcState::SpinMem { retry: kind, phase: SpinPhase::WaitingResult },
                    );
                }
            },
        }
    }
}
