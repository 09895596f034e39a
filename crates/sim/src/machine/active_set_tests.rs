//! Active-set equivalence at scale: every hazard the fast-forward
//! kernel's visit-only-who-acts stepping creates, each at P >= 128 (the
//! calendar's ring regime, above its linear-scan threshold), asserting
//! stats, trace, metrics, `sync_final` and the event stream
//! bit-identical to the per-cycle reference stepper.

use super::tests::{assert_equivalent, cfg, chain_workload};
use super::*;
use crate::config::FabricKind;
use crate::faults::FaultPlan;
use crate::program::{Instr, Label, Program};

/// Processors in every scenario: twice the calendar's scan threshold.
const P: usize = 128;

fn note(pid: usize, start: bool) -> Instr {
    Instr::Note(Label { pid: pid as u64, stmt: 0, start })
}

/// Runs `w` in both step modes with events recorded, after `setup`
/// prepared each machine identically, and asserts every observable
/// output bit-identical. Returns the fast-forward outcome, whose
/// kernel must also have visited fewer processors than the reference.
fn assert_modes_agree(
    config: &MachineConfig,
    w: &Workload,
    setup: impl Fn(&mut Machine<'_>),
) -> RunOutcome {
    let go = |mode| {
        let mut m = Machine::new(config, w);
        m.set_mode(mode);
        m.enable_events(1 << 18);
        setup(&mut m);
        m.run_to_completion().expect("scenario completes")
    };
    let fast = go(StepMode::FastForward);
    let slow = go(StepMode::Reference);
    assert_eq!(fast.stats, slow.stats, "stats diverge");
    assert_eq!(fast.trace, slow.trace, "trace diverges");
    assert_eq!(fast.sync_final, slow.sync_final, "sync_final diverges");
    assert_eq!(fast.metrics, slow.metrics, "metrics diverge");
    assert_eq!(fast.events, slow.events, "event streams diverge");
    assert!(
        fast.kernel.proc_visits < slow.kernel.proc_visits,
        "the active set must skip quiet processors: {:?} vs {:?}",
        fast.kernel,
        slow.kernel
    );
    fast
}

/// A barrier hot-spot: `rounds` of compute -> RMW one counter -> wait
/// for the round total, with staggered compute so arrivals spread.
fn barrier_rounds(p: usize, rounds: u64) -> Workload {
    let programs = (0..p)
        .map(|i| {
            let mut instrs = vec![note(i, true)];
            for r in 1..=rounds {
                instrs.push(Instr::Compute(5 + (i as u32 * 7) % 23));
                instrs.push(Instr::SyncRmw { var: 0 });
                instrs.push(Instr::SyncWait { var: 0, pred: Pred::Geq(r * p as u64) });
            }
            instrs.push(note(i, false));
            Program::from_instrs(instrs)
        })
        .collect();
    Workload::static_assigned(programs, (0..p).map(|i| vec![i]).collect())
}

/// One producer (processor `producer`) posting 1, 2, 3 to var 0; every
/// other processor waits for one of those values, then computes.
fn fan_out(producer: usize) -> Workload {
    let programs = (0..P)
        .map(|i| {
            if i == producer {
                return Program::from_instrs(vec![
                    Instr::Compute(40),
                    Instr::SyncSet { var: 0, val: 1 },
                    Instr::Compute(40),
                    Instr::SyncSet { var: 0, val: 2 },
                    Instr::Compute(40),
                    Instr::SyncSet { var: 0, val: 3 },
                ]);
            }
            Program::from_instrs(vec![
                Instr::SyncWait { var: 0, pred: Pred::Geq(1 + (i % 3) as u64) },
                note(i, true),
                Instr::Compute(1 + (i % 5) as u32),
                note(i, false),
            ])
        })
        .collect();
    Workload::static_assigned(programs, (0..P).map(|i| vec![i]).collect())
}

/// Independent long computes: processors spend most cycles computing,
/// so stalls freeze them mid-compute and kills land on frozen ones.
fn long_computes() -> Workload {
    let programs = (0..P)
        .map(|i| {
            Program::from_instrs(vec![
                Instr::Compute(150 + (i as u32 * 13) % 61),
                note(i, false),
                Instr::Compute(90),
            ])
        })
        .collect();
    Workload::static_assigned(programs, (0..P).map(|i| vec![i]).collect())
}

#[test]
fn bridge_forward_wakes_remote_spinners() {
    // The producer sits in cluster 0; spinners in the other three
    // clusters can only be satisfied by the bridge's forward, which
    // must wake exactly them (and those of cluster 0 by the domain
    // delivery before it).
    let kind = FabricKind::Clustered { clusters: 4, bridge_latency: 3, coalesce_window: 5 };
    let out = assert_modes_agree(&cfg(P).fabric(kind), &fan_out(0), |_| {});
    assert_eq!(out.sync_final[0], 3);
    assert!(out.stats.bridge_broadcasts >= 1, "the forward must cross the bridge");
    assert_equivalent(&cfg(P).fabric(kind), &barrier_rounds(P, 3));
}

#[test]
fn deferred_image_without_a_fault_plan_wakes_its_spinner() {
    // Nobody posts var 0: every waiter is released only by a deferred
    // image update queued before the run, with no fault plan armed —
    // so the application, not a delivery, must wake the spinner.
    let w = Workload::static_assigned(
        (0..P)
            .map(|i| {
                Program::from_instrs(vec![
                    Instr::SyncWait { var: 0, pred: Pred::Geq(1 + (i % 2) as u64) },
                    note(i, true),
                    Instr::Compute(3),
                ])
            })
            .collect(),
        (0..P).map(|i| vec![i]).collect(),
    );
    let out = assert_modes_agree(&cfg(P), &w, |m| {
        for p in 0..P {
            let when = 30 + (p as u64 % 7) * 13;
            m.sync.push_defer(p, when, 0, 1);
            m.sync.push_defer(p, when + 5 + p as u64 % 3, 0, 2);
        }
    });
    assert_eq!(out.trace.events().len(), P, "every waiter was released");
}

#[test]
fn completion_mid_loop_frees_work_for_a_higher_processor() {
    // Programs 128 and 129 sit in the rescue pool chained behind
    // program 5, which finishes last. When processor 5 completes it,
    // it claims 128 itself and processor 6 — idle for a long time,
    // parked with no wake — claims 129 in the very same cycle.
    let mut programs: Vec<Program> = (0..P)
        .map(|i| {
            let c = if i == 5 { 300 } else { 10 + (i as u32 % 9) };
            Program::from_instrs(vec![Instr::Compute(c), note(i, false)])
        })
        .collect();
    programs.push(Program::from_instrs(vec![note(128, true), Instr::Compute(4)]));
    programs.push(Program::from_instrs(vec![note(129, true), Instr::Compute(6)]));
    let w = Workload::static_assigned(programs, (0..P).map(|i| vec![i]).collect());
    let out = assert_modes_agree(&cfg(P), &w, |m| {
        for extra in [128, 129] {
            m.disp.chain_pred[extra] = Some(5);
            m.disp.rescue.push_back((extra, 0));
        }
    });
    let dispatches: Vec<(u64, usize, usize)> = out
        .events
        .iter()
        .filter_map(|e| match e.kind {
            SimEventKind::Dispatch { proc, program } if program >= 128 => {
                Some((e.cycle, proc, program))
            }
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), 2, "{dispatches:?}");
    assert_eq!(dispatches[0].0, dispatches[1].0, "both claims land in one cycle");
    assert_eq!((dispatches[0].1, dispatches[1].1), (5, 6), "{dispatches:?}");
}

#[test]
fn ideal_broadcast_mid_loop_wakes_both_sides_of_the_cursor() {
    // Processor 64 posts through the zero-latency oracle while the
    // stepper is inside its loop: spinners above it act this cycle,
    // spinners below it next cycle, exactly as per-cycle stepping.
    let ideal = cfg(P).fabric(FabricKind::Ideal);
    let out = assert_modes_agree(&ideal, &fan_out(64), |_| {});
    assert_eq!(out.sync_final[0], 3);
    assert_equivalent(&ideal, &barrier_rounds(P, 3));
}

#[test]
fn spinner_behind_the_cursor_is_charged_its_extra_spin_cycle() {
    // Processor 100 releases processors 3 and 120 through the oracle
    // at cycle `c`. Processor 120 steps after it and leaves its spin at
    // `c`; processor 3 already stepped at `c`, so its successful check
    // is at `c + 1` — one more spin cycle, charged to the spin bucket
    // although the kernel never visited it in between.
    let programs = (0..P)
        .map(|i| match i {
            100 => {
                Program::from_instrs(vec![Instr::Compute(500), Instr::SyncSet { var: 0, val: 1 }])
            }
            3 | 120 => Program::from_instrs(vec![
                Instr::SyncWait { var: 0, pred: Pred::Geq(1) },
                Instr::Compute(2),
            ]),
            _ => Program::from_instrs(vec![Instr::Compute(1)]),
        })
        .collect();
    let w = Workload::static_assigned(programs, (0..P).map(|i| vec![i]).collect());
    let out = assert_modes_agree(&cfg(P).fabric(FabricKind::Ideal), &w, |_| {});
    let at = |want: fn(&SimEventKind) -> bool| {
        out.events.iter().find(|e| want(&e.kind)).map(|e| e.cycle).expect("event")
    };
    let post = at(|k| matches!(k, SimEventKind::SyncDeliver { .. }));
    let begin = at(|k| matches!(k, SimEventKind::WaitBegin { proc: 3, .. }));
    assert_eq!(begin, at(|k| matches!(k, SimEventKind::WaitBegin { proc: 120, .. })));
    assert_eq!(out.stats.procs[120].spin, post - begin + 1, "released in the post's cycle");
    assert_eq!(out.stats.procs[3].spin, post - begin + 2, "released one cycle later");
}

#[test]
fn stall_and_fail_stop_plans_agree_at_scale() {
    let clustered = FabricKind::Clustered { clusters: 8, bridge_latency: 2, coalesce_window: 4 };
    for seed in [1u64, 7] {
        let stall = FaultPlan::only(FaultClass::ProcStall, seed, 90);
        let fail_stop = FaultPlan::only(FaultClass::ProcFailStop, seed, 90);
        // Both at once: kills can land on processors frozen mid-compute.
        let both = FaultPlan { fail_stop_procs: 2, fail_stop_window: 400, ..stall };
        for plan in [stall, fail_stop, both] {
            assert_equivalent(&cfg(P).with_faults(plan), &long_computes());
            assert_equivalent(&cfg(P).with_faults(plan), &chain_workload(P + 32));
            assert_equivalent(&cfg(P).with_faults(plan), &barrier_rounds(P, 2));
            assert_equivalent(&cfg(P).fabric(clustered).with_faults(plan), &barrier_rounds(P, 2));
        }
    }
}

#[test]
fn image_fault_plans_agree_at_scale() {
    // The per-image delivery path (losses, stale windows, deferred
    // queues) wakes spinners one image at a time.
    for class in [FaultClass::StaleImage, FaultClass::BroadcastLoss, FaultClass::BroadcastDrop] {
        let plan = FaultPlan::only(class, 3, 60);
        assert_equivalent(&cfg(P).with_faults(plan), &barrier_rounds(P, 2));
        assert_equivalent(&cfg(P).with_faults(plan), &fan_out(70));
    }
}
