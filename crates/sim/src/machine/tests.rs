//! Machine-level integration tests: correctness of the instruction set,
//! determinism, fault injection, fast-forward/reference equivalence and
//! recovery. The fabric backends are tested in the sibling
//! `fabric_tests` module, which shares the helpers here.

use super::*;
use crate::config::SyncTransport;
use crate::program::{pack_pc, Instr, Label, Program};

pub(super) fn cfg(p: usize) -> MachineConfig {
    MachineConfig::with_processors(p)
}

#[test]
fn single_compute_program_runs() {
    let w = Workload::dynamic(vec![Program::from_instrs(vec![Instr::Compute(10)])]);
    let out = run(&cfg(1), &w).unwrap();
    // dispatch_latency (2) + compute (10), all busy.
    assert_eq!(out.stats.procs[0].busy, 12);
    assert_eq!(out.stats.dispatched, 1);
    assert!(out.stats.makespan >= 12);
}

#[test]
fn notes_are_free_and_traced() {
    let l1 = Label { pid: 0, stmt: 0, start: true };
    let l2 = Label { pid: 0, stmt: 0, start: false };
    let w = Workload::dynamic(vec![Program::from_instrs(vec![
        Instr::Note(l1),
        Instr::Compute(5),
        Instr::Note(l2),
    ])]);
    let out = run(&cfg(1), &w).unwrap();
    let ev = out.trace.events();
    assert_eq!(ev.len(), 2);
    assert_eq!(ev[1].cycle - ev[0].cycle, 5);
}

#[test]
fn data_accesses_serialize_on_the_bus() {
    // Two processors each issue one access at the same time; the second
    // must wait for the first to release the bus.
    let prog = Program::from_instrs(vec![Instr::Access { addr: 0, write: true }]);
    let w = Workload::static_assigned(vec![prog.clone(), prog], vec![vec![0], vec![1]]);
    let mut c = cfg(2);
    c.dispatch_latency = 0;
    let out = run(&c, &w).unwrap();
    assert_eq!(out.stats.data_transactions, 2);
    // Total service time = 2 * (bus 2 + mem 4) = 12 > single access 6.
    assert!(out.stats.makespan >= 12);
    // The loser blocked longer than the winner.
    let blocked: Vec<u64> = out.stats.procs.iter().map(|p| p.blocked).collect();
    assert_ne!(blocked[0], blocked[1]);
}

#[test]
fn dedicated_bus_wait_satisfied_by_broadcast() {
    // Proc 0 computes then posts var0 = 1; proc 1 waits for it.
    let producer =
        Program::from_instrs(vec![Instr::Compute(20), Instr::SyncSet { var: 0, val: 1 }]);
    let consumer = Program::from_instrs(vec![
        Instr::SyncWait { var: 0, pred: Pred::Geq(1) },
        Instr::Compute(1),
    ]);
    let w = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
    let out = run(&cfg(2), &w).unwrap();
    assert_eq!(out.stats.sync_broadcasts, 1);
    assert_eq!(out.stats.spin_polls, 0, "local-image spinning makes no traffic");
    assert!(out.stats.procs[1].spin > 0);
    assert_eq!(out.sync_final[0], 1);
}

#[test]
fn shared_memory_wait_costs_polls() {
    let producer =
        Program::from_instrs(vec![Instr::Compute(60), Instr::SyncSet { var: 0, val: 1 }]);
    let consumer = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let w = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
    let c = cfg(2).transport(SyncTransport::SharedMemory);
    let out = run(&c, &w).unwrap();
    assert!(out.stats.spin_polls > 2, "polling traffic expected, got {}", out.stats.spin_polls);
}

#[test]
fn coalescing_merges_queued_writes() {
    // Saturate the sync bus with a competing stream so proc 0's two
    // posted writes to the same var are both queued simultaneously.
    let noisy = Program::from_instrs(vec![
        Instr::SyncSet { var: 1, val: 1 },
        Instr::SyncSet { var: 2, val: 1 },
        Instr::SyncSet { var: 3, val: 1 },
    ]);
    let writer = Program::from_instrs(vec![
        Instr::SyncSet { var: 0, val: 1 },
        Instr::SyncSet { var: 0, val: 2 },
    ]);
    let w = Workload::static_assigned(vec![noisy, writer], vec![vec![0], vec![1]]);
    let on = run(&cfg(2).coalescing(true), &w).unwrap();
    assert_eq!(on.stats.coalesced_writes, 1);
    assert_eq!(on.sync_final[0], 2, "latest value must win");
    let off = run(&cfg(2).coalescing(false), &w).unwrap();
    assert_eq!(off.stats.coalesced_writes, 0);
    assert_eq!(off.stats.sync_broadcasts, on.stats.sync_broadcasts + 1);
    assert_eq!(off.sync_final[0], 2);
}

#[test]
fn rmw_increments_atomically() {
    let prog = Program::from_instrs(vec![Instr::SyncRmw { var: 0 }, Instr::SyncRmw { var: 0 }]);
    let w = Workload::static_assigned(vec![prog.clone(), prog], vec![vec![0], vec![1]]);
    for transport in [SyncTransport::DedicatedBus, SyncTransport::SharedMemory] {
        let out = run(&cfg(2).transport(transport), &w).unwrap();
        assert_eq!(out.sync_final[0], 4, "transport {transport:?}");
        assert_eq!(out.stats.rmw_ops, 4);
    }
}

#[test]
fn deadlock_detected() {
    let stuck = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let w = Workload::dynamic(vec![stuck]);
    match run(&cfg(1), &w) {
        Err(SimError::Deadlock { spinning, .. }) => assert_eq!(spinning, vec![0]),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn shared_memory_deadlock_detected() {
    let stuck = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let w = Workload::dynamic(vec![stuck]);
    let c = cfg(1).transport(SyncTransport::SharedMemory);
    match run(&c, &w) {
        Err(SimError::Deadlock { .. }) | Err(SimError::Timeout { .. }) => {}
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn dynamic_dispatch_claims_in_order() {
    // 4 programs, 2 procs: all get executed, dispatched == 4.
    let prog = Program::from_instrs(vec![Instr::Compute(5)]);
    let w = Workload::dynamic(vec![prog.clone(), prog.clone(), prog.clone(), prog]);
    let out = run(&cfg(2), &w).unwrap();
    assert_eq!(out.stats.dispatched, 4);
    assert!(out.stats.makespan < 4 * (5 + 2) + 4, "two procs should overlap");
}

#[test]
fn preset_sync_applies_to_images() {
    let consumer =
        Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(pack_pc(1, 0)) }]);
    let w = Workload::dynamic(vec![consumer]);
    let c = cfg(1);
    let mut m = Machine::new(&c, &w);
    m.preset_sync(0, pack_pc(1, 0));
    let out = m.run_to_completion().unwrap();
    assert_eq!(out.sync_final[0], pack_pc(1, 0));
}

#[test]
fn determinism_same_run_same_stats() {
    let prog =
        |c| Program::from_instrs(vec![Instr::Compute(c), Instr::Access { addr: 1, write: true }]);
    let w = Workload::dynamic(vec![prog(3), prog(9), prog(1), prog(7), prog(5)]);
    let a = run(&cfg(3), &w).unwrap();
    let b = run(&cfg(3), &w).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn keyed_access_orders_and_increments() {
    // Proc 1's keyed access (rank 1) must wait for proc 0's (rank 0).
    let first = Program::from_instrs(vec![
        Instr::Compute(30),
        Instr::KeyedAccess { var: 0, geq: 0 },
        Instr::SyncSet { var: 1, val: 1 },
    ]);
    let second = Program::from_instrs(vec![Instr::KeyedAccess { var: 0, geq: 1 }]);
    let w = Workload::static_assigned(vec![first, second], vec![vec![0], vec![1]]);
    for transport in [SyncTransport::DedicatedBus, SyncTransport::SharedMemory] {
        let out = run(&cfg(2).transport(transport), &w).unwrap();
        assert_eq!(out.sync_final[0], 2, "both accesses increment ({transport:?})");
        assert!(out.stats.rmw_ops >= 2);
    }
}

#[test]
fn keyed_access_failed_attempts_cost_memory_traffic() {
    let slow =
        Program::from_instrs(vec![Instr::Compute(100), Instr::KeyedAccess { var: 0, geq: 0 }]);
    let eager = Program::from_instrs(vec![Instr::KeyedAccess { var: 0, geq: 1 }]);
    let w = Workload::static_assigned(vec![slow, eager], vec![vec![0], vec![1]]);
    let out = run(&cfg(2).transport(SyncTransport::SharedMemory), &w).unwrap();
    // The eager processor's failed attempts are bus transactions.
    assert!(out.stats.data_transactions > 3, "got {}", out.stats.data_transactions);
}

#[test]
fn banked_memory_overlaps_accesses() {
    use crate::config::MemoryModel;
    // 4 procs each make 4 accesses to different banks: with banking
    // the memory latencies overlap, so the banked makespan beats the
    // bus-held one.
    let progs: Vec<Program> = (0..4u64)
        .map(|p| {
            Program::from_instrs(
                (0..4).map(|k| Instr::Access { addr: p * 4 + k, write: false }).collect(),
            )
        })
        .collect();
    let w = Workload::static_assigned(progs, (0..4).map(|p| vec![p]).collect());
    let mut held = cfg(4);
    held.dispatch_latency = 0;
    let mut banked = held.clone();
    banked.memory_model = MemoryModel::Banked { banks: 8 };
    let out_held = run(&held, &w).unwrap();
    let out_banked = run(&banked, &w).unwrap();
    assert!(
        out_banked.stats.makespan < out_held.stats.makespan,
        "banked {} should beat bus-held {}",
        out_banked.stats.makespan,
        out_held.stats.makespan
    );
    assert_eq!(out_banked.stats.data_transactions, 16);
}

#[test]
fn single_bank_conflicts_serialize() {
    use crate::config::MemoryModel;
    // All accesses hit bank 0: banking cannot help beyond the bus
    // pipelining of the request phase.
    let progs: Vec<Program> = (0..2u64)
        .map(|_| {
            Program::from_instrs(
                (0..3).map(|k| Instr::Access { addr: k * 4, write: true }).collect(),
            )
        })
        .collect();
    let w = Workload::static_assigned(progs, vec![vec![0], vec![1]]);
    let mut c = cfg(2);
    c.dispatch_latency = 0;
    c.memory_model = MemoryModel::Banked { banks: 4 };
    let out = run(&c, &w).unwrap();
    // 6 accesses through one bank: at least 6 * memory_latency cycles.
    assert!(out.stats.makespan >= 6 * 4, "makespan {}", out.stats.makespan);
}

#[test]
fn banked_sync_ops_still_correct() {
    use crate::config::MemoryModel;
    let producer =
        Program::from_instrs(vec![Instr::Compute(30), Instr::SyncSet { var: 3, val: 1 }]);
    let consumer = Program::from_instrs(vec![
        Instr::SyncWait { var: 3, pred: Pred::Geq(1) },
        Instr::SyncRmw { var: 3 },
    ]);
    let w = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
    let c = cfg(2).transport(SyncTransport::SharedMemory);
    let mut c = c;
    c.memory_model = MemoryModel::Banked { banks: 4 };
    let out = run(&c, &w).unwrap();
    assert_eq!(out.sync_final[3], 2);
}

#[test]
fn cyclic_and_blocked_assignments_cover_everything() {
    let prog = |c| Program::from_instrs(vec![Instr::Compute(c)]);
    let programs: Vec<Program> = (1..=7).map(prog).collect();
    for w in [
        Workload::static_cyclic(programs.clone(), 3),
        Workload::static_blocked(programs.clone(), 3),
    ] {
        let out = run(&cfg(3), &w).unwrap();
        assert_eq!(out.stats.dispatched, 7);
    }
}

#[test]
fn per_proc_cycle_accounting_conserves() {
    // Every processor ticks exactly one breakdown category per cycle,
    // so busy + spin + blocked + idle == makespan for each.
    let prog = |c| {
        Program::from_instrs(vec![
            Instr::Compute(c),
            Instr::Access { addr: u64::from(c), write: true },
            Instr::SyncSet { var: 0, val: u64::from(c) },
        ])
    };
    let w = Workload::dynamic((1..12).map(prog).collect());
    let out = run(&cfg(3), &w).unwrap();
    for (i, p) in out.stats.procs.iter().enumerate() {
        assert_eq!(p.total(), out.stats.makespan, "proc {i}: {p:?}");
    }
}

#[test]
fn timeout_enforced() {
    let mut c = cfg(1);
    c.max_cycles = 5;
    let w = Workload::dynamic(vec![Program::from_instrs(vec![Instr::Compute(100)])]);
    assert!(matches!(run(&c, &w), Err(SimError::Timeout { .. })));
}

// ---- fault injection ----

use crate::faults::FaultPlan;

/// A producer/consumer chain that exercises broadcasts, waits and
/// data accesses.
pub(super) fn chain_workload(n: usize) -> Workload {
    let progs = (0..n)
        .map(|i| {
            let mut instrs = Vec::new();
            if i > 0 {
                instrs.push(Instr::SyncWait { var: 0, pred: Pred::Geq(i as u64) });
            }
            instrs.push(Instr::Compute(3));
            instrs.push(Instr::Access { addr: i as u64, write: true });
            instrs.push(Instr::SyncSet { var: 0, val: i as u64 + 1 });
            Program::from_instrs(instrs)
        })
        .collect();
    Workload::dynamic(progs)
}

#[test]
fn fault_free_run_unchanged_by_fault_support() {
    // A zero plan injects nothing: all fault counters stay zero.
    let out = run(&cfg(3), &chain_workload(8)).unwrap();
    assert_eq!(out.stats.faults.total(), 0);
    assert_eq!(out.stats.faults.recovery_cycles, 0);
    assert!(out.trace.fault_events().is_empty());
    assert!(out.stats.procs.iter().all(|p| p.stalled == 0));
}

#[test]
fn faulted_run_is_deterministic() {
    let c = cfg(3).with_faults(FaultPlan::chaos(42, 60));
    let a = run(&c, &chain_workload(10)).unwrap();
    let b = run(&c, &chain_workload(10)).unwrap();
    assert_eq!(a.stats, b.stats, "same seed must give byte-identical stats");
    assert_eq!(a.trace, b.trace);
    assert!(a.stats.faults.total() > 0, "chaos at 60 must inject something");
    // A different seed shakes the machine differently.
    let c2 = cfg(3).with_faults(FaultPlan::chaos(43, 60));
    let other = run(&c2, &chain_workload(10)).unwrap();
    assert_ne!(a.stats.faults, other.stats.faults, "seeds 42/43 should differ");
}

#[test]
fn dropped_broadcasts_are_redelivered() {
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::BroadcastDrop, 7, 80));
    let out = run(&c, &chain_workload(8)).unwrap();
    assert!(out.stats.faults.dropped_broadcasts > 0, "80% drop must fire");
    assert_eq!(out.sync_final[0], 8, "every broadcast must eventually deliver");
    assert!(out.stats.faults.recovery_cycles > 0, "drops have recovery latency");
}

#[test]
fn delayed_broadcasts_cost_recovery_latency() {
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::BroadcastDelay, 3, 100));
    let out = run(&c, &chain_workload(6)).unwrap();
    assert!(out.stats.faults.delayed_broadcasts > 0);
    assert!(out.stats.faults.delay_cycles > 0);
    assert!(out.stats.faults.recovery_max >= 1);
    assert_eq!(out.sync_final[0], 6);
}

#[test]
fn stale_images_preserve_per_image_write_order() {
    // The consumer leaves only once its (lagging) image reaches the
    // final value; order-preserving deferral means it never sees a
    // newer value before an older one, and the run still completes.
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::StaleImage, 11, 90));
    let out = run(&c, &chain_workload(8)).unwrap();
    assert!(out.stats.faults.stale_image_updates > 0);
    assert_eq!(out.sync_final[0], 8);
}

#[test]
fn stalls_freeze_and_account() {
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::ProcStall, 5, 80));
    let out = run(&c, &chain_workload(8)).unwrap();
    assert!(out.stats.faults.stalls > 0);
    let stalled: u64 = out.stats.procs.iter().map(|p| p.stalled).sum();
    // A stall that straddles the end of the run is charged in full to
    // stall_cycles but only partially ticked.
    assert!(stalled > 0 && stalled <= out.stats.faults.stall_cycles);
    for (i, p) in out.stats.procs.iter().enumerate() {
        assert_eq!(p.total(), out.stats.makespan, "proc {i} conservation with stalls");
    }
}

#[test]
fn data_jitter_slows_the_data_path() {
    let plain = run(&cfg(2), &chain_workload(8)).unwrap();
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::DataJitter, 9, 100));
    let out = run(&c, &chain_workload(8)).unwrap();
    assert!(out.stats.faults.jittered_transactions > 0);
    assert!(out.stats.faults.jitter_cycles > 0);
    assert!(out.stats.makespan > plain.stats.makespan, "jitter must cost cycles");
}

#[test]
fn reorder_still_delivers_everything() {
    // Six processors post simultaneously so the sync queue is deep at
    // grant time; every variable must still reach its value.
    let writers: Vec<Program> = (0..6)
        .map(|v| Program::from_instrs(vec![Instr::SyncSet { var: v, val: 1 }]))
        .collect();
    let assign: Vec<Vec<usize>> = (0..6).map(|p| vec![p]).collect();
    let w = Workload::static_assigned(writers, assign);
    let mut c = cfg(6).with_faults(FaultPlan::only(FaultClass::BroadcastReorder, 13, 100));
    c.coalesce_sync_writes = false;
    let out = run(&c, &w).unwrap();
    assert!(out.stats.faults.reordered_broadcasts > 0);
    assert_eq!(out.sync_final, vec![1; 6]);
}

#[test]
fn deadlock_still_detected_under_chaos() {
    // An unsatisfiable wait must be *detected* (deadlock), not burn
    // until max_cycles, even while faults keep shaking the machine.
    let stuck = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(9) }]);
    let mut c = cfg(1).with_faults(FaultPlan::chaos(21, 50));
    c.max_cycles = 2_000_000;
    match run(&c, &Workload::dynamic(vec![stuck])) {
        Err(SimError::Deadlock { cycle, .. }) => {
            assert!(cycle < 100_000, "detection must be prompt, took {cycle}");
        }
        other => panic!("expected detected deadlock, got {other:?}"),
    }
}

// ---- fast-forward vs reference equivalence ----

/// Runs with an explicit step mode and event recording on.
pub(super) fn run_mode(
    config: &MachineConfig,
    w: &Workload,
    mode: StepMode,
    capacity: usize,
) -> Result<RunOutcome, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    let mut m = Machine::new(config, w);
    m.set_mode(mode);
    m.enable_events(capacity);
    m.run_to_completion()
}

/// Asserts the fast-forward kernel is bit-identical to per-cycle
/// stepping — stats, trace, metrics, final sync values — and that
/// turning event recording on changes nothing observable while
/// producing the same event sequence in both modes.
pub(super) fn assert_equivalent(config: &MachineConfig, w: &Workload) {
    let fast = run(config, w);
    let slow = run_reference(config, w);
    match (fast, slow) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.stats, b.stats, "stats diverge");
            assert_eq!(a.trace, b.trace, "trace diverges");
            assert_eq!(a.sync_final, b.sync_final, "sync_final diverges");
            assert_eq!(a.metrics, b.metrics, "metrics diverge");
            let ta = run_mode(config, w, StepMode::FastForward, 1 << 16).unwrap();
            let tb = run_mode(config, w, StepMode::Reference, 1 << 16).unwrap();
            assert_eq!(ta.events, tb.events, "event streams diverge");
            assert_eq!(ta.stats, a.stats, "recording must not change stats");
            assert_eq!(tb.stats, b.stats, "recording must not change stats");
            assert_eq!(ta.metrics, a.metrics, "recording must not change metrics");
            assert_eq!(ta.trace, a.trace, "recording must not change the trace");
        }
        (fast, slow) => assert_eq!(fast.err(), slow.err(), "outcomes diverge"),
    }
}

#[test]
fn fast_forward_matches_reference_fault_free() {
    for procs in [1, 2, 3] {
        assert_equivalent(&cfg(procs), &chain_workload(10));
    }
    let mut banked = cfg(3);
    banked.memory_model = crate::config::MemoryModel::Banked { banks: 4 };
    assert_equivalent(&banked, &chain_workload(10));
    assert_equivalent(&cfg(2).transport(SyncTransport::SharedMemory), &chain_workload(6));
}

#[test]
fn fast_forward_matches_reference_under_every_fault_class() {
    for class in FaultClass::ALL {
        for seed in [1u64, 7, 42] {
            let c = cfg(3).with_faults(FaultPlan::only(class, seed, 70));
            assert_equivalent(&c, &chain_workload(8));
        }
    }
    for seed in [3u64, 11] {
        assert_equivalent(&cfg(3).with_faults(FaultPlan::chaos(seed, 55)), &chain_workload(8));
    }
}

#[test]
fn fast_forward_matches_reference_on_failures() {
    // Deadlock: both modes must report the same detection cycle.
    let stuck = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    assert_equivalent(&cfg(1), &Workload::dynamic(vec![stuck.clone()]));
    // Livelock via the watchdog (shared-memory re-polling forever).
    let c = cfg(1).transport(SyncTransport::SharedMemory);
    assert_equivalent(&c, &Workload::dynamic(vec![stuck]));
    // Timeout at an arbitrary cap.
    let mut t = cfg(1);
    t.max_cycles = 37;
    assert_equivalent(
        &t,
        &Workload::dynamic(vec![Program::from_instrs(vec![Instr::Compute(500)])]),
    );
}

#[test]
fn fast_forward_jumps_long_spins() {
    // One producer computes 100k cycles while the consumer spins on
    // its local image: the reference stepper burns a cycle per spin,
    // the kernel jumps the whole span — results must match exactly.
    let producer =
        Program::from_instrs(vec![Instr::Compute(100_000), Instr::SyncSet { var: 0, val: 1 }]);
    let consumer = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let w = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
    let config = cfg(2);
    assert_equivalent(&config, &w);
    let out = run(&config, &w).unwrap();
    assert!(out.stats.procs[1].spin > 90_000, "consumer must spin through the compute");
    for (i, p) in out.stats.procs.iter().enumerate() {
        assert_eq!(p.total(), out.stats.makespan, "proc {i} conservation after jumps");
    }
}

// ---- observability: events, metrics, watchdog boundary ----

#[test]
fn watchdog_fires_at_exactly_limit_plus_one_in_both_modes() {
    // One processor spins on a local image whose update is deferred
    // to `due`. due == limit is the last cycle the watchdog
    // tolerates; due == limit + 1 loses the race by exactly one
    // cycle — in BOTH step modes, at the same cycle.
    let wait = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let w = Workload::dynamic(vec![wait]);
    let mut c = cfg(1);
    c.dispatch_latency = 0;
    let limit = Machine::new(&c, &w).watchdog_limit();
    for mode in [StepMode::FastForward, StepMode::Reference] {
        // due == limit: the image applies just in time.
        let mut m = Machine::new(&c, &w);
        m.set_mode(mode);
        m.sync.push_defer(0, limit, 0, 1);
        let out = m.run_to_completion().unwrap_or_else(|e| panic!("{mode:?} at limit: {e}"));
        assert!(out.stats.makespan > limit, "{mode:?}: spun through the quiet span");
        // due == limit + 1: the watchdog fires first, at limit + 1.
        let mut m = Machine::new(&c, &w);
        m.set_mode(mode);
        m.sync.push_defer(0, limit + 1, 0, 1);
        match m.run_to_completion() {
            Err(SimError::Deadlock { cycle, detail, .. }) => {
                assert_eq!(cycle, limit + 1, "{mode:?} watchdog fire cycle");
                assert!(detail[0].contains("livelock"), "{mode:?}: {detail:?}");
            }
            other => panic!("{mode:?}: expected watchdog deadlock, got {other:?}"),
        }
    }
}

#[test]
fn event_recording_does_not_perturb_stats() {
    for transport in [SyncTransport::DedicatedBus, SyncTransport::SharedMemory] {
        let c = cfg(3).transport(transport);
        let w = chain_workload(8);
        let plain = run(&c, &w).unwrap();
        let traced = run_mode(&c, &w, StepMode::FastForward, 4096).unwrap();
        assert_eq!(plain.stats, traced.stats, "{transport:?}");
        assert_eq!(plain.metrics, traced.metrics, "{transport:?}");
        assert_eq!(plain.sync_final, traced.sync_final, "{transport:?}");
        assert!(plain.events.is_empty(), "recording is off by default");
        assert!(!traced.events.is_empty());
    }
}

#[test]
fn event_ring_captures_run_lifecycle() {
    let c = cfg(2);
    let w = chain_workload(4);
    let out = run_mode(&c, &w, StepMode::FastForward, 1 << 12).unwrap();
    assert_eq!(out.events.dropped(), 0, "ring large enough for the whole run");
    let kinds: Vec<SimEventKind> = out.events.iter().map(|e| e.kind).collect();
    assert!(matches!(kinds[0], SimEventKind::WatchdogArm { .. }), "arm comes first");
    for probe in [
        |k: &SimEventKind| matches!(k, SimEventKind::Dispatch { .. }),
        |k: &SimEventKind| matches!(k, SimEventKind::DataGrant { .. }),
        |k: &SimEventKind| matches!(k, SimEventKind::SyncGrant { .. }),
        |k: &SimEventKind| matches!(k, SimEventKind::SyncDeliver { .. }),
        |k: &SimEventKind| matches!(k, SimEventKind::WaitBegin { .. }),
        |k: &SimEventKind| matches!(k, SimEventKind::WaitEnd { .. }),
    ] {
        assert!(kinds.iter().any(probe), "missing event kind in {kinds:?}");
    }
    let cycles: Vec<u64> = out.events.iter().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "events are time-ordered");
}

#[test]
fn metrics_account_buses_and_waits() {
    let out = run(&cfg(2), &chain_workload(6)).unwrap();
    assert!(out.metrics.data_bus_busy > 0);
    assert!(out.metrics.sync_bus_busy > 0);
    assert!(out.metrics.data_bus_occupancy(out.stats.makespan) <= 1.0);
    let t = out.metrics.sync_traffic_total();
    assert_eq!(t.posts, 6, "each chain link posts once");
    assert_eq!(t.waits, 5, "every link but the first waits");
    assert_eq!(t.rmws, 0);
    assert_eq!(t.polls, 0, "local-image spinning makes no poll traffic");
    assert!(out.metrics.wait_episodes() >= 5, "consumers wait on the chain");
    assert!(out.metrics.wait_max() >= out.metrics.wait_mean() as u64);
}

#[test]
fn shared_memory_polls_are_counted_per_var() {
    let c = cfg(2).transport(SyncTransport::SharedMemory);
    let out = run(&c, &chain_workload(4)).unwrap();
    let t = out.metrics.sync_traffic_total();
    assert_eq!(t.polls, out.stats.spin_polls, "poll traffic matches the global stat");
    assert!(t.polls > 0);
}

#[test]
fn bank_conflicts_show_in_metrics() {
    use crate::config::MemoryModel;
    let progs: Vec<Program> = (0..2u64)
        .map(|_| {
            Program::from_instrs(
                (0..3).map(|k| Instr::Access { addr: k * 4, write: true }).collect(),
            )
        })
        .collect();
    let w = Workload::static_assigned(progs, vec![vec![0], vec![1]]);
    let mut c = cfg(2);
    c.dispatch_latency = 0;
    c.memory_model = MemoryModel::Banked { banks: 4 };
    let out = run(&c, &w).unwrap();
    assert!(out.metrics.bank_conflicts > 0, "everything hits bank 0");
    assert_eq!(out.metrics.bank_busy, 6 * 4, "six requests at memory_latency 4");
}

#[test]
fn event_streams_are_seed_deterministic() {
    let c = cfg(3).with_faults(FaultPlan::chaos(42, 60));
    let w = chain_workload(10);
    let a = run_mode(&c, &w, StepMode::FastForward, 1 << 14).unwrap();
    let b = run_mode(&c, &w, StepMode::FastForward, 1 << 14).unwrap();
    assert_eq!(a.events, b.events, "same seed must give the same event sequence");
    assert!(a.events.iter().any(|e| matches!(e.kind, SimEventKind::Fault { .. })));
    let other =
        run_mode(&cfg(3).with_faults(FaultPlan::chaos(43, 60)), &w, StepMode::FastForward, 1 << 14)
            .unwrap();
    assert_ne!(a.events, other.events, "different seeds shake differently");
}

#[test]
fn fault_events_traced() {
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::DataJitter, 2, 100));
    let out = run(&c, &chain_workload(4)).unwrap();
    assert!(!out.trace.fault_events().is_empty());
    assert!(out
        .trace
        .fault_events()
        .iter()
        .all(|e| e.class == FaultClass::DataJitter && e.magnitude >= 1));
}

// ---- self-healing: gap NACKs, retransmission, watchdog repair ----

use crate::recovery::RecoveryPolicy;

#[test]
fn lost_broadcasts_wedge_without_recovery() {
    // Total image loss with the ladder disarmed: the first waiter's
    // image never sees the posted value and the machine must *detect*
    // the wedge (promptly, with the gap visible in the detail), not
    // burn to the timeout.
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 5, 100));
    match run(&c, &chain_workload(6)) {
        Err(SimError::Deadlock { cycle, detail, .. }) => {
            assert!(cycle < 100_000, "detection must be prompt, took {cycle}");
            assert!(
                detail.iter().any(|d| d.contains("image") && d.contains("global")),
                "detail must expose the image/global gap: {detail:?}"
            );
        }
        other => panic!("expected wedge without recovery, got {other:?}"),
    }
}

#[test]
fn nack_retransmission_heals_moderate_loss() {
    // At 60% loss most refreshes get through: the run completes on
    // NACK retransmissions alone or with occasional watchdog help,
    // and the healed episodes are accounted.
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 5, 60))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &chain_workload(8)).unwrap();
    assert_eq!(out.sync_final[0], 8, "the chain must complete");
    assert!(out.stats.faults.lost_image_updates > 0, "60% loss must fire");
    assert!(out.stats.recovery.gap_nacks > 0, "gaps must be NACKed");
    assert!(out.stats.recovery.retransmits >= out.stats.recovery.gap_nacks);
    assert!(out.stats.recovery.healed_waits > 0);
    assert!(out.stats.recovery.heal_latency_max >= 1);
}

#[test]
fn watchdog_repair_rescues_total_loss() {
    // 100% loss kills every broadcast *including the retransmissions*:
    // each waiter exhausts its NACK budget, falls silent, and the
    // watchdog's repair rung force-syncs the images. The full ladder
    // must be visible: NACKs, then repairs, then completion.
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &chain_workload(6)).unwrap();
    assert_eq!(out.sync_final[0], 6);
    assert!(out.stats.recovery.gap_nacks > 0);
    assert!(out.stats.recovery.watchdog_repairs > 0, "silence must escalate to repair");
    assert!(out.stats.recovery.images_repaired > 0);
    assert!(out.stats.recovery.healed_waits > 0);
}

#[test]
fn recovery_actions_emit_trace_events() {
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run_mode(&c, &chain_workload(4), StepMode::FastForward, 1 << 14).unwrap();
    let kinds: Vec<SimEventKind> = out.events.iter().map(|e| e.kind).collect();
    assert!(kinds.iter().any(|k| matches!(k, SimEventKind::GapNack { .. })), "{kinds:?}");
    assert!(kinds.iter().any(|k| matches!(k, SimEventKind::Retransmit { .. })));
    assert!(kinds.iter().any(|k| matches!(k, SimEventKind::WatchdogRepair { .. })));
}

#[test]
fn recovery_is_inert_on_fault_free_runs() {
    // Arming the ladder without faults must change nothing observable:
    // gap checks never prove a gap (images track the global exactly),
    // so stats, trace and metrics stay bit-identical to recovery off.
    let w = chain_workload(10);
    let off = run(&cfg(3), &w).unwrap();
    let on = run(&cfg(3).with_recovery(RecoveryPolicy::Full), &w).unwrap();
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.trace, on.trace);
    assert_eq!(off.metrics, on.metrics);
    assert_eq!(on.stats.recovery.actions(), 0);
}

#[test]
fn fast_forward_matches_reference_with_recovery_enabled() {
    // The ladder draws no RNG and acts only at stepped cycles, so the
    // equivalence contract must hold under every fault class with
    // recovery armed — including total loss where repairs fire.
    for class in FaultClass::ALL {
        for seed in [1u64, 7] {
            let c = cfg(3)
                .with_faults(FaultPlan::only(class, seed, 70))
                .with_recovery(RecoveryPolicy::RepairOnly);
            assert_equivalent(&c, &chain_workload(8));
        }
    }
    let total = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    assert_equivalent(&total, &chain_workload(6));
    for seed in [3u64, 11] {
        let c = cfg(3)
            .with_faults(FaultPlan::chaos(seed, 55))
            .with_recovery(RecoveryPolicy::RepairOnly);
        assert_equivalent(&c, &chain_workload(8));
    }
}

#[test]
fn unhealable_wedge_still_detected_with_recovery_on() {
    // A wait that is unsatisfied even *globally* is beyond the
    // ladder: it must still be detected promptly, and the failure
    // must carry the unhealable wait-for proof.
    let stuck = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(9) }]);
    let c = cfg(1).with_recovery(RecoveryPolicy::Full);
    match run(&c, &Workload::dynamic(vec![stuck])) {
        Err(SimError::Deadlock { cycle, detail, .. }) => {
            assert!(cycle < 100_000, "took {cycle}");
            assert!(
                detail.iter().any(|d| d.contains("unhealable")),
                "proof must mark the edge unhealable: {detail:?}"
            );
        }
        other => panic!("expected detected deadlock, got {other:?}"),
    }
}

#[test]
fn refresh_never_regresses_a_counter() {
    // Waiters NACK while other processors keep advancing the counter
    // through RMWs: because a refresh re-reads the global value at
    // delivery time, no late retransmission can regress it. Heavy
    // loss + a barrier-style RMW workload exercises exactly the
    // overtaking window.
    let n = 4usize;
    let progs: Vec<Program> = (0..n)
        .map(|i| {
            Program::from_instrs(vec![
                Instr::Compute(3 * (i as u32 + 1)),
                Instr::SyncRmw { var: 0 },
                Instr::SyncWait { var: 0, pred: Pred::Geq(n as u64) },
            ])
        })
        .collect();
    let w = Workload::static_assigned(progs, (0..n).map(|p| vec![p]).collect());
    let c = cfg(n)
        .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 17, 70))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &w).unwrap();
    assert_eq!(out.sync_final[0], n as u64, "every increment must survive recovery");
}

// ---- fail-stop survival: reclamation, reissue, reconfiguration ----

#[test]
fn fail_stop_wedges_without_recovery() {
    // A processor dies holding unretired chain links: with the ladder
    // disarmed the machine must *detect* the wedge promptly and name
    // the dead processor, not burn to the timeout.
    let c = cfg(2).with_faults(FaultPlan::only(FaultClass::ProcFailStop, 5, 100));
    match run(&c, &chain_workload(8)) {
        Err(SimError::Deadlock { cycle, detail, .. }) => {
            assert!(cycle < 100_000, "detection must be prompt, took {cycle}");
            assert!(
                detail.iter().any(|d| d.contains("fail-stopped")),
                "detail must name the dead processor: {detail:?}"
            );
        }
        other => panic!("expected wedge without recovery, got {other:?}"),
    }
}

#[test]
fn fail_stop_rescue_completes_the_chain() {
    // Same kill, ladder armed: the rescue rung reclaims the dead
    // processor's unretired work, survivors finish the chain, and the
    // run is marked reconfigured. Cycle accounting must conserve
    // through the participant loss (the dead bucket).
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::ProcFailStop, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &chain_workload(8)).unwrap();
    assert_eq!(out.sync_final[0], 8, "the chain must complete on the survivor");
    assert_eq!(out.stats.faults.fail_stops, 1);
    assert!(out.stats.recovery.fail_stop_rescues > 0, "the rescue rung must fire");
    assert!(out.stats.recovery.programs_reclaimed > 0);
    assert!(out.stats.recovery.reconfigured());
    assert!(out.stats.procs.iter().any(|p| p.dead > 0), "dead cycles must be charged");
    for (i, p) in out.stats.procs.iter().enumerate() {
        assert_eq!(p.total(), out.stats.makespan, "proc {i} conservation with a dead proc");
    }
}

#[test]
fn fail_stop_rescue_reclaims_static_queues() {
    // Under static dispatch the dead processor also strands its
    // never-started queue entries; the rescue pool must pick those up
    // and survivors must run them to completion.
    // Long computes keep the run well past the kill window, so the
    // victim dies holding most of its queue.
    let prog =
        |c: u32| Program::from_instrs(vec![Instr::Compute(40 * c), Instr::SyncRmw { var: 0 }]);
    let w = Workload::static_cyclic((1..=8).map(prog).collect(), 2);
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::ProcFailStop, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &w).unwrap();
    assert_eq!(out.stats.faults.fail_stops, 1, "the kill must land mid-run");
    assert_eq!(out.sync_final[0], 8, "every iteration must still increment");
    assert!(
        out.stats.recovery.programs_reclaimed >= 2,
        "the in-flight program plus queued assignments must be reclaimed, got {}",
        out.stats.recovery.programs_reclaimed
    );
}

#[test]
fn fail_stop_rescue_works_through_shared_memory() {
    // Memory-polling survivors keep the bus busy, so the watchdog never
    // sees silence: the rescue must hang off the precise deadlock
    // detector instead. The swap path (preempting a polling survivor in
    // backoff) is exercised when no survivor is idle.
    let c = cfg(2)
        .transport(SyncTransport::SharedMemory)
        .with_faults(FaultPlan::only(FaultClass::ProcFailStop, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &chain_workload(8)).unwrap();
    assert_eq!(out.sync_final[0], 8);
    assert!(out.stats.recovery.fail_stop_rescues > 0);
}

#[test]
fn fail_stop_rescue_emits_trace_events() {
    let c = cfg(2)
        .with_faults(FaultPlan::only(FaultClass::ProcFailStop, 5, 100))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let out = run_mode(&c, &chain_workload(8), StepMode::FastForward, 1 << 14).unwrap();
    let kinds: Vec<SimEventKind> = out.events.iter().map(|e| e.kind).collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, SimEventKind::Fault { class: FaultClass::ProcFailStop, .. })),
        "{kinds:?}"
    );
    assert!(kinds.iter().any(|k| matches!(k, SimEventKind::WorkReclaimed { .. })));
    assert!(kinds.iter().any(|k| matches!(k, SimEventKind::WatchdogRescue { .. })));
}

#[test]
fn fail_stop_rescue_is_seed_deterministic() {
    let c = cfg(3)
        .with_faults(FaultPlan::only(FaultClass::ProcFailStop, 9, 80))
        .with_recovery(RecoveryPolicy::RepairOnly);
    let a = run(&c, &chain_workload(10)).unwrap();
    let b = run(&c, &chain_workload(10)).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.sync_final, b.sync_final);
}

#[test]
fn fail_stop_combined_with_loss_survives() {
    // The hardest mix the ladder supports: broadcasts are lost *and* a
    // producer dies. Repair heals the gapped images, rescue reissues
    // the dead processor's work, and the chain still completes.
    let mut f = FaultPlan::only(FaultClass::BroadcastLoss, 5, 60);
    f.fail_stop_procs = 1;
    f.fail_stop_window = 200;
    let c = cfg(3).with_faults(f).with_recovery(RecoveryPolicy::RepairOnly);
    let out = run(&c, &chain_workload(8)).unwrap();
    assert_eq!(out.sync_final[0], 8);
    assert!(out.stats.faults.fail_stops > 0);
}
