//! Fabric-backend tests: every bus fabric runs one domain engine, so
//! these pin the per-kind behaviour (shared-bus tenure, the oracle, the
//! clustered bridge) and the one rule in which flat and bridged
//! completions still differ.

use super::tests::{assert_equivalent, cfg, chain_workload, run_mode};
use super::*;
use crate::config::FabricKind;
use crate::faults::FaultPlan;
use crate::program::{Instr, Program};
use crate::recovery::RecoveryPolicy;

#[test]
fn fabric_backends_agree_on_final_state_and_order_by_cost() {
    // All three backends must drive the chain to the same final value;
    // the dedicated bus can only help against the shared one, and the
    // zero-latency oracle can only help against the dedicated bus.
    let w = chain_workload(8);
    let mut makespan = Vec::new();
    for kind in FabricKind::ALL {
        let out = run(&cfg(3).fabric(kind), &w).unwrap();
        assert_eq!(out.sync_final[0], 8, "{kind} must complete the chain");
        makespan.push((kind, out.stats.makespan));
    }
    let by = |k: FabricKind| makespan.iter().find(|(kk, _)| *kk == k).unwrap().1;
    assert!(
        by(FabricKind::Dedicated) <= by(FabricKind::Shared),
        "a dedicated sync bus must not lose to sharing the data bus: {makespan:?}"
    );
    assert!(
        by(FabricKind::Ideal) <= by(FabricKind::Dedicated),
        "the oracle must not lose to real hardware: {makespan:?}"
    );
}

#[test]
fn shared_fabric_never_overlaps_bus_tenures() {
    // One physical bus: the grant intervals of data transactions and
    // sync broadcasts must never overlap in time.
    let c = cfg(3).fabric(FabricKind::Shared);
    let out = run_mode(&c, &chain_workload(8), StepMode::FastForward, 1 << 14).unwrap();
    let mut tenures: Vec<(u64, u64, bool)> = Vec::new();
    for e in out.events.iter() {
        match e.kind {
            SimEventKind::DataGrant { dur, .. } => tenures.push((e.cycle, e.cycle + dur, false)),
            SimEventKind::SyncGrant { dur, .. } => tenures.push((e.cycle, e.cycle + dur, true)),
            _ => {}
        }
    }
    assert!(tenures.iter().any(|t| t.2) && tenures.iter().any(|t| !t.2));
    for (i, a) in tenures.iter().enumerate() {
        for b in &tenures[i + 1..] {
            assert!(a.1 <= b.0 || b.1 <= a.0, "bus tenures overlap: {a:?} vs {b:?}");
        }
    }
    // And every broadcast's tenure is charged to both occupancy counters.
    assert_eq!(
        out.metrics.data_bus_busy,
        run(&cfg(3), &chain_workload(8)).unwrap().metrics.data_bus_busy + out.metrics.sync_bus_busy,
        "shared grants must charge the one physical bus for sync tenures too"
    );
}

#[test]
fn ideal_fabric_is_instant_and_occupancy_free() {
    let out = run(&cfg(3).fabric(FabricKind::Ideal), &chain_workload(8)).unwrap();
    assert_eq!(out.metrics.sync_bus_busy, 0, "the oracle holds no bus");
    assert_eq!(out.stats.coalesced_writes, 0, "nothing queues, nothing coalesces");
    assert_eq!(out.stats.sync_broadcasts, 8, "one instant delivery per post");
    assert_eq!(out.sync_final[0], 8);
    // RMWs neither block nor broadcast: a two-way increment race settles
    // in issue order.
    let prog = Program::from_instrs(vec![Instr::SyncRmw { var: 0 }, Instr::SyncRmw { var: 0 }]);
    let w = Workload::static_assigned(vec![prog.clone(), prog], vec![vec![0], vec![1]]);
    let out = run(&cfg(2).fabric(FabricKind::Ideal), &w).unwrap();
    assert_eq!(out.sync_final[0], 4);
    assert_eq!(out.stats.rmw_ops, 4);
}

#[test]
fn ideal_fabric_shrugs_off_sync_faults() {
    // 100% broadcast loss wedges the dedicated bus (detected deadlock
    // without recovery) but cannot touch the oracle: it has no queue or
    // image tap to fault.
    let w = chain_workload(6);
    let faults = FaultPlan::only(FaultClass::BroadcastLoss, 5, 100);
    assert!(matches!(run(&cfg(2).with_faults(faults), &w), Err(SimError::Deadlock { .. })));
    let out = run(&cfg(2).fabric(FabricKind::Ideal).with_faults(faults), &w).unwrap();
    assert_eq!(out.sync_final[0], 6);
    assert_eq!(out.stats.faults.lost_image_updates, 0);
}

#[test]
fn fast_forward_matches_reference_for_every_fabric() {
    for kind in FabricKind::ALL {
        assert_equivalent(&cfg(3).fabric(kind), &chain_workload(10));
        assert_equivalent(
            &cfg(3).fabric(kind).with_faults(FaultPlan::chaos(9, 55)),
            &chain_workload(8),
        );
        assert_equivalent(
            &cfg(3)
                .fabric(kind)
                .with_faults(FaultPlan::chaos(5, 60))
                .with_recovery(RecoveryPolicy::RepairOnly),
            &chain_workload(8),
        );
    }
}

/// Representative two-level geometries for a given P: a square-ish
/// split, one lone cluster (pure bridge overhead), and per-processor
/// clusters (every broadcast bridges).
fn clustered_kinds(p: u32) -> Vec<FabricKind> {
    let mut v = vec![
        FabricKind::Clustered { clusters: 1, bridge_latency: 2, coalesce_window: 4 },
        FabricKind::Clustered { clusters: p, bridge_latency: 1, coalesce_window: 0 },
    ];
    if p.is_multiple_of(2) {
        v.push(FabricKind::Clustered { clusters: p / 2, bridge_latency: 3, coalesce_window: 6 });
    }
    v
}

#[test]
fn fast_forward_matches_reference_on_the_clustered_fabric() {
    for p in [2usize, 4] {
        for kind in clustered_kinds(p as u32) {
            assert_equivalent(&cfg(p).fabric(kind), &chain_workload(10));
            assert_equivalent(
                &cfg(p).fabric(kind).with_faults(FaultPlan::chaos(9, 55)),
                &chain_workload(8),
            );
            assert_equivalent(
                &cfg(p)
                    .fabric(kind)
                    .with_faults(FaultPlan::chaos(5, 60))
                    .with_recovery(RecoveryPolicy::RepairOnly),
                &chain_workload(8),
            );
        }
    }
}

#[test]
fn clustered_equivalence_under_every_fault_class() {
    let kind = FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 };
    for class in FaultClass::ALL {
        for seed in [1u64, 7, 42] {
            let c = cfg(4).fabric(kind).with_faults(FaultPlan::only(class, seed, 70));
            assert_equivalent(&c, &chain_workload(8));
            let r = c.with_recovery(RecoveryPolicy::RepairOnly);
            assert_equivalent(&r, &chain_workload(8));
        }
    }
}

#[test]
fn clustered_fabric_completes_chains_and_bridges_every_update() {
    // The chain crosses clusters, so every link rides the bridge; with a
    // zero-width coalescing window nothing can fold and the extended
    // conservation identity pins each level exactly.
    let kind = FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 0 };
    let out = run(&cfg(4).fabric(kind), &chain_workload(8)).unwrap();
    assert_eq!(out.sync_final[0], 8, "chain must complete across clusters");
    assert_eq!(
        out.stats.sync_ops_issued,
        out.stats.sync_broadcasts + out.stats.coalesced_writes,
        "level 1: issued = local broadcasts + coalesced"
    );
    assert_eq!(
        out.stats.sync_broadcasts,
        out.stats.bridge_broadcasts + out.stats.bridge_coalesced,
        "level 2: broadcasts = bridged + aggregated"
    );
    assert!(out.stats.bridge_broadcasts > 0, "cross-cluster chain must use the bridge");
    assert!(out.metrics.bridge_busy > 0, "bridge tenure must be charged");
    // Flat fabrics never touch the bridge counters.
    for kind in FabricKind::ALL {
        let flat = run(&cfg(4).fabric(kind), &chain_workload(8)).unwrap();
        assert_eq!(flat.stats.bridge_broadcasts, 0, "{kind}: flat fabrics have no bridge");
        assert_eq!(flat.stats.bridge_coalesced, 0, "{kind}: flat fabrics aggregate nothing");
        assert_eq!(flat.metrics.bridge_busy, 0, "{kind}: flat fabrics hold no bridge");
    }
}

#[test]
fn clustered_bridge_aggregates_same_variable_bursts() {
    // Every processor posts a distinct value to the same variable inside
    // one coalescing window: cluster buses serialize locally, and the
    // bridge folds the concurrent submissions into far fewer global
    // forwards. Conservation still holds level by level.
    let posts: Vec<Program> = (0..4)
        .map(|i| Program::from_instrs(vec![Instr::SyncSet { var: 0, val: i + 1 }]))
        .collect();
    let w = Workload::static_assigned(posts, (0..4).map(|i| vec![i]).collect());
    let kind = FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 16 };
    let out = run(&cfg(4).fabric(kind), &w).unwrap();
    assert!(out.stats.bridge_coalesced > 0, "same-variable burst must fold at the bridge");
    assert_eq!(
        out.stats.sync_broadcasts,
        out.stats.bridge_broadcasts + out.stats.bridge_coalesced,
        "aggregation must conserve broadcasts"
    );
    // The bridge forwards the *current* global value, so the final image
    // everywhere equals the last write the cluster buses applied.
    assert!(out.sync_final[0] >= 1 && out.sync_final[0] <= 4);
}

#[test]
fn clustered_rmw_serializes_globally() {
    // Increment races resolved through per-cluster buses still serialize
    // on the shared global: every RMW lands, none are lost to bridging.
    let prog = Program::from_instrs(vec![Instr::SyncRmw { var: 0 }, Instr::SyncRmw { var: 0 }]);
    let w = Workload::static_assigned(
        vec![prog.clone(), prog.clone(), prog.clone(), prog],
        vec![vec![0], vec![1], vec![2], vec![3]],
    );
    let kind = FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 };
    let out = run(&cfg(4).fabric(kind), &w).unwrap();
    assert_eq!(out.sync_final[0], 8, "all 8 increments must land exactly once");
    assert_eq!(out.stats.rmw_ops, 8);
}

#[test]
fn default_fabric_is_the_dedicated_bus() {
    let w = chain_workload(6);
    let default = run(&cfg(3), &w).unwrap();
    let explicit = run(&cfg(3).fabric(FabricKind::Dedicated), &w).unwrap();
    assert_eq!(default.stats, explicit.stats);
    assert_eq!(default.metrics, explicit.metrics);
    assert_eq!(default.trace, explicit.trace);
}

#[test]
fn unfaulted_stale_posts_count_only_without_a_bridge() {
    // Proc 0 keeps the sync bus busy so proc 1's first post to var 0 is
    // still queued when its second one issues. On the one-domain bus the
    // second post coalesces into the first and retags it newer than
    // proc 2's post, so proc 2's post completes stale: a fault-free
    // discard, counted. With one cluster per processor nothing queues
    // behind anything and the bridge re-reads the global value; a
    // bridged fabric counts only faulted discards, so the count is 0.
    let noisy =
        Program::from_instrs((1..=3).map(|var| Instr::SyncSet { var, val: 1 }).collect::<Vec<_>>());
    let twice = Program::from_instrs(vec![
        Instr::SyncSet { var: 0, val: 1 },
        Instr::Compute(1),
        Instr::SyncSet { var: 0, val: 3 },
    ]);
    let once = Program::from_instrs(vec![Instr::SyncSet { var: 0, val: 2 }]);
    let w = Workload::static_assigned(vec![noisy, twice, once], vec![vec![0], vec![1], vec![2]]);
    let flat = run(&cfg(3), &w).unwrap();
    assert_eq!(flat.stats.coalesced_writes, 1, "the second post must coalesce");
    assert_eq!(flat.stats.faults.stale_deliveries_discarded, 1);
    assert_eq!(flat.sync_final[0], 3);
    let kind = FabricKind::Clustered { clusters: 3, bridge_latency: 2, coalesce_window: 4 };
    let clustered = run(&cfg(3).fabric(kind), &w).unwrap();
    assert_eq!(clustered.stats.faults.stale_deliveries_discarded, 0);
    assert_eq!(clustered.sync_final[0], 3);

    // Cross-domain overtaking: proc 0's post to var 0 waits behind two
    // slow broadcasts on its own cluster bus, so proc 1's newer post
    // completes first on the other bus and proc 0's arrives stale,
    // unfaulted. The bridged fabric discards it without counting it.
    let kind = FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 };
    let mut slow = cfg(2).fabric(kind);
    slow.sync_bus_latency = 4;
    let behind = Program::from_instrs(vec![
        Instr::SyncSet { var: 1, val: 1 },
        Instr::SyncSet { var: 2, val: 1 },
        Instr::SyncSet { var: 0, val: 1 },
    ]);
    let ahead = Program::from_instrs(vec![Instr::Compute(3), Instr::SyncSet { var: 0, val: 2 }]);
    let w = Workload::static_assigned(vec![behind, ahead], vec![vec![0], vec![1]]);
    let out = run_mode(&slow, &w, StepMode::FastForward, 1 << 10).unwrap();
    let stale = |e: &crate::events::SimEvent| {
        matches!(e.kind, SimEventKind::SyncDeliver { var: 0, stale: true, .. })
    };
    assert!(out.events.iter().any(stale), "the older post must complete stale");
    assert_eq!(out.stats.faults.stale_deliveries_discarded, 0);
    assert_eq!(out.sync_final[0], 2);
}
