//! The two large-P simulator workloads: `doacross-p1024` (flat sync bus
//! plus data bus and memory) and `hotspot-p4096-clustered` (two-level
//! sync fabric, no data traffic).
//!
//! Each sample is one *cell*: a simulation whose result the user sees.
//! Even samples are cold (analyze + compile + `Machine::new` + run); odd
//! samples are warm (the compiled program is reused: `Machine::new` +
//! run), which is how sweeps re-run one compilation.

use std::time::Instant;

use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::{CompiledLoop, Scheme, SyncStorage};
use datasync_schemes::ProcessOriented;
use datasync_sim::{
    FabricKind, Instr, Machine, MachineConfig, Pred, Program, RunOutcome, SimEventKind, StepMode,
    Workload,
};

use crate::gen;
use crate::measure::{fnv1a, median, peak_rss_mb, quantile, Sheet};
use crate::trace::Tracer;

/// Event-ring capacity for traced samples: above the event count of
/// either workload, so per-kind counts are complete.
const EVENT_CAPACITY: usize = 1 << 23;

/// Statement cost the Doacross costs are drawn around (cycles).
const DOACROSS_COST: u32 = 2_000;

/// Per-round compute the hot-spot draws around (cycles).
const HOTSPOT_COMPUTE: u32 = 200;

/// Which simulator workload, at which size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Fig 2.1 Doacross, process-oriented (X = 2P), 2P iterations,
    /// dedicated flat sync bus, fault-free.
    Doacross {
        /// Processors (1024 in the benchmark).
        procs: usize,
    },
    /// Barrier hot-spot: compute → `SyncRmw` → `SyncWait` per round on
    /// the clustered fabric with P/32 clusters.
    Hotspot {
        /// Processors (4096 in the benchmark).
        procs: usize,
        /// Rounds per processor (64 in the benchmark).
        rounds: usize,
    },
}

impl SimWorkload {
    /// Processor count.
    pub fn procs(self) -> usize {
        match self {
            SimWorkload::Doacross { procs } | SimWorkload::Hotspot { procs, .. } => procs,
        }
    }

    /// The same generator at a small size, for the Reference spot check.
    fn downsized(self) -> SimWorkload {
        match self {
            SimWorkload::Doacross { .. } => SimWorkload::Doacross { procs: 32 },
            SimWorkload::Hotspot { .. } => SimWorkload::Hotspot { procs: 64, rounds: 8 },
        }
    }
}

/// Seeded inputs of one workload instance.
enum Inputs {
    Doacross(Vec<Vec<u32>>),
    Hotspot(Vec<Vec<u32>>),
}

fn generate(w: SimWorkload, seed: u64) -> Inputs {
    match w {
        SimWorkload::Doacross { procs } => {
            let stmts = fig21_loop(1).stmts().count();
            Inputs::Doacross(gen::doacross_costs(seed, stmts, 2 * procs, DOACROSS_COST))
        }
        SimWorkload::Hotspot { procs, rounds } => {
            Inputs::Hotspot(gen::hotspot_compute(seed, procs, rounds, HOTSPOT_COMPUTE))
        }
    }
}

fn config(w: SimWorkload) -> MachineConfig {
    match w {
        SimWorkload::Doacross { procs } => MachineConfig {
            sync_transport: ProcessOriented::new(2 * procs).natural_transport(),
            ..MachineConfig::with_processors(procs)
        },
        SimWorkload::Hotspot { procs, .. } => MachineConfig {
            sync_fabric: FabricKind::Clustered {
                clusters: (procs / 32).max(2) as u32,
                bridge_latency: 2,
                coalesce_window: 4,
            },
            ..MachineConfig::with_processors(procs)
        },
    }
}

/// The set-up a cold cell pays: analyze + compile (Doacross) or program
/// construction (hot-spot), each in its own span.
fn build(w: SimWorkload, inputs: &Inputs, tr: &mut Tracer) -> CompiledLoop {
    match (w, inputs) {
        (SimWorkload::Doacross { procs }, Inputs::Doacross(costs)) => {
            let nest = fig21_loop(2 * procs as i64);
            let graph = tr.span("loopir.analyze", || analyze(&nest));
            let space = IterSpace::of(&nest);
            let scheme = ProcessOriented::new(2 * procs);
            let cost = |s: datasync_loopir::ir::StmtId, pid: u64| costs[s.0][pid as usize];
            tr.span("schemes.compile", || scheme.compile_with(&nest, &graph, &space, Some(&cost)))
        }
        (SimWorkload::Hotspot { procs, rounds }, Inputs::Hotspot(compute)) => {
            let workload = tr.span("sim.workload_build", || {
                let programs = compute
                    .iter()
                    .map(|per_round| {
                        let mut instrs = Vec::with_capacity(3 * rounds);
                        for (r, &c) in per_round.iter().enumerate() {
                            instrs.push(Instr::Compute(c));
                            instrs.push(Instr::SyncRmw { var: 0 });
                            let total = (r as u64 + 1) * procs as u64;
                            instrs.push(Instr::SyncWait { var: 0, pred: Pred::Geq(total) });
                        }
                        Program::from_instrs(instrs)
                    })
                    .collect();
                Workload::static_assigned(programs, (0..procs).map(|i| vec![i]).collect())
            });
            CompiledLoop {
                workload,
                storage: SyncStorage::default(),
                presets: Vec::new(),
                validation_arcs: Vec::new(),
                instance_pairs: Vec::new(),
            }
        }
        _ => unreachable!("inputs generated for another workload"),
    }
}

/// A machine ready to run `compiled` (the `sim.machine_new` layer).
fn machine<'a>(
    config: &'a MachineConfig,
    compiled: &'a CompiledLoop,
    mode: StepMode,
    events: bool,
) -> Machine<'a> {
    let mut m = Machine::new(config, &compiled.workload);
    m.set_mode(mode);
    if events {
        m.enable_events(EVENT_CAPACITY);
    }
    for &(var, val) in &compiled.presets {
        m.preset_sync(var, val);
    }
    m
}

/// Digest of everything a run computes that a speed-only change must
/// keep: the stats, the final sync values and the note trace.
pub fn digest(out: &RunOutcome) -> u64 {
    fnv1a(format!("{:?}|{:?}|{:?}", out.stats, out.sync_final, out.trace).as_bytes())
}

/// Every correctness rule a completed run must satisfy; the first
/// broken one, if any.
pub fn check_outcome(w: SimWorkload, compiled: &CompiledLoop, out: &RunOutcome) -> Option<String> {
    let s = &out.stats;
    if let Some(first) = compiled.validate(out).into_iter().next() {
        return Some(format!("dependence order violated: {first}"));
    }
    if s.sync_ops_issued != s.sync_broadcasts + s.coalesced_writes {
        return Some(format!(
            "sync-op conservation broken: issued {} != broadcasts {} + coalesced {}",
            s.sync_ops_issued, s.sync_broadcasts, s.coalesced_writes
        ));
    }
    if let SimWorkload::Hotspot { procs, rounds } = w {
        if s.sync_broadcasts != s.bridge_broadcasts + s.bridge_coalesced {
            return Some(format!(
                "bridge conservation broken: broadcasts {} != bridged {} + folded {}",
                s.sync_broadcasts, s.bridge_broadcasts, s.bridge_coalesced
            ));
        }
        let want = (procs * rounds) as u64;
        if out.sync_final.first() != Some(&want) {
            return Some(format!(
                "hot-spot counter ends at {:?}, want {want}",
                out.sync_final.first()
            ));
        }
    }
    if s.procs.iter().any(|p| p.total() != s.makespan) {
        return Some("a processor's cycle breakdown does not sum to the makespan".into());
    }
    None
}

/// FastForward against Reference on a downsized instance of the same
/// generator and seed: stats, final values, trace and event stream must
/// be bit-identical. Reference at full size is too slow to run each time.
fn spot_check(w: SimWorkload, seed: u64, sheet: &mut Sheet) {
    let small = w.downsized();
    let inputs = generate(small, seed);
    let compiled = build(small, &inputs, &mut Tracer::new(false));
    let config = config(small);
    let fast = machine(&config, &compiled, StepMode::FastForward, true).run_to_completion();
    let slow = machine(&config, &compiled, StepMode::Reference, true).run_to_completion();
    match (fast, slow) {
        (Ok(f), Ok(r)) => {
            sheet.check(digest(&f) == digest(&r), || {
                format!("FastForward and Reference diverge on P={}", small.procs())
            });
            sheet.check(f.events == r.events, || {
                format!("event streams diverge between modes on P={}", small.procs())
            });
            let wrong = check_outcome(small, &compiled, &f);
            sheet.check(wrong.is_none(), || {
                format!("downsized run is wrong: {}", wrong.unwrap_or_default())
            });
            sheet
                .digests
                .insert("spot_check_p_small".into(), format!("{:016x}", digest(&f)));
        }
        (f, r) => sheet.check(false, || {
            format!("downsized spot check failed: fast {:?} / reference {:?}", f.err(), r.err())
        }),
    }
}

/// Simulated-hardware counters summed over one or more runs.
#[derive(Debug, Default)]
pub struct SimTotals {
    runs: u64,
    run_ns: f64,
    makespan: u64,
    proc_cycles: u64,
    exec: [u64; 5],
    sync_ops_issued: u64,
    sync_broadcasts: u64,
    coalesced_writes: u64,
    bridge_broadcasts: u64,
    bridge_coalesced: u64,
    spin_polls: u64,
    sync_bus_busy: u64,
    bridge_busy: u64,
    data_transactions: u64,
    rmw_ops: u64,
    bank_conflicts: u64,
    data_bus_busy: u64,
    dispatched: u64,
    cache_hits: u64,
    cache_misses: u64,
    invalidations: u64,
    writebacks: u64,
    gap_nacks: u64,
    retransmits: u64,
    watchdog_repairs: u64,
    healed_waits: u64,
    events: [u64; EVENT_KINDS.len()],
    events_dropped: u64,
}

/// Metric suffix of every `SimEventKind`, in declaration order.
pub const EVENT_KINDS: [&str; 18] = [
    "data_grant",
    "bank_conflict",
    "bank_service",
    "sync_grant",
    "bridge_forward",
    "sync_deliver",
    "wait_begin",
    "wait_end",
    "dispatch",
    "fault",
    "watchdog_arm",
    "watchdog_fire",
    "gap_nack",
    "retransmit",
    "watchdog_repair",
    "work_reclaimed",
    "work_reissued",
    "watchdog_rescue",
];

fn kind_index(k: &SimEventKind) -> usize {
    match k {
        SimEventKind::DataGrant { .. } => 0,
        SimEventKind::BankConflict { .. } => 1,
        SimEventKind::BankService { .. } => 2,
        SimEventKind::SyncGrant { .. } => 3,
        SimEventKind::BridgeForward { .. } => 4,
        SimEventKind::SyncDeliver { .. } => 5,
        SimEventKind::WaitBegin { .. } => 6,
        SimEventKind::WaitEnd { .. } => 7,
        SimEventKind::Dispatch { .. } => 8,
        SimEventKind::Fault { .. } => 9,
        SimEventKind::WatchdogArm { .. } => 10,
        SimEventKind::WatchdogFire { .. } => 11,
        SimEventKind::GapNack { .. } => 12,
        SimEventKind::Retransmit { .. } => 13,
        SimEventKind::WatchdogRepair { .. } => 14,
        SimEventKind::WorkReclaimed { .. } => 15,
        SimEventKind::WorkReissued { .. } => 16,
        SimEventKind::WatchdogRescue { .. } => 17,
    }
}

impl SimTotals {
    /// Adds one run (recorded with events on) that took `run_ns` of host time.
    pub fn add(&mut self, out: &RunOutcome, run_ns: f64) {
        let s = &out.stats;
        let m = &out.metrics;
        self.runs += 1;
        self.run_ns += run_ns;
        self.makespan += s.makespan;
        self.proc_cycles += s.makespan * s.procs.len() as u64;
        for p in &s.procs {
            for (slot, v) in
                self.exec.iter_mut().zip([p.busy, p.spin, p.blocked, p.idle, p.stalled])
            {
                *slot += v;
            }
        }
        self.sync_ops_issued += s.sync_ops_issued;
        self.sync_broadcasts += s.sync_broadcasts;
        self.coalesced_writes += s.coalesced_writes;
        self.bridge_broadcasts += s.bridge_broadcasts;
        self.bridge_coalesced += s.bridge_coalesced;
        self.spin_polls += s.spin_polls;
        self.sync_bus_busy += m.sync_bus_busy;
        self.bridge_busy += m.bridge_busy;
        self.data_transactions += s.data_transactions;
        self.rmw_ops += s.rmw_ops;
        self.bank_conflicts += m.bank_conflicts;
        self.data_bus_busy += m.data_bus_busy;
        self.dispatched += s.dispatched;
        self.cache_hits += m.cache.hits;
        self.cache_misses += m.cache.misses;
        self.invalidations += m.cache.invalidations;
        self.writebacks += m.cache.writebacks;
        self.gap_nacks += s.recovery.gap_nacks;
        self.retransmits += s.recovery.retransmits;
        self.watchdog_repairs += s.recovery.watchdog_repairs;
        self.healed_waits += s.recovery.healed_waits;
        for e in out.events.iter() {
            self.events[kind_index(&e.kind)] += 1;
        }
        self.events_dropped += out.events.dropped();
    }

    /// Writes the `sim.*` per-layer counters, ratios and per-event costs.
    pub fn put(&self, sheet: &mut Sheet) {
        let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let events: u64 = self.events.iter().sum::<u64>() + self.events_dropped;
        sheet.check(self.events_dropped == 0, || {
            format!("event ring dropped {} events; per-kind counts incomplete", self.events_dropped)
        });
        sheet.count("sim.events", events);
        for (name, n) in EVENT_KINDS.iter().zip(self.events) {
            sheet.count(format!("sim.events.{name}"), n);
        }
        let run_ns = self.run_ns;
        let n = self.runs as usize;
        sheet.put("sim.ns_per_event", run_ns / events.max(1) as f64, "ns", n);
        sheet.put("sim.ns_per_proc_cycle", run_ns / self.proc_cycles.max(1) as f64, "ns", n);
        for (name, v) in ["busy", "spin", "blocked", "idle", "stalled"].iter().zip(self.exec) {
            sheet.put(format!("sim.exec.{name}_frac"), frac(v, self.proc_cycles), "fraction", 1);
        }
        sheet.count("sim.fabric.sync_ops_issued", self.sync_ops_issued);
        sheet.count("sim.fabric.sync_broadcasts", self.sync_broadcasts);
        sheet.count("sim.fabric.coalesced_writes", self.coalesced_writes);
        sheet.count("sim.fabric.bridge_broadcasts", self.bridge_broadcasts);
        sheet.count("sim.fabric.bridge_coalesced", self.bridge_coalesced);
        sheet.count("sim.fabric.spin_polls", self.spin_polls);
        sheet.put(
            "sim.fabric.sync_bus_busy_frac",
            frac(self.sync_bus_busy, self.makespan),
            "fraction",
            1,
        );
        sheet.put(
            "sim.fabric.bridge_busy_frac",
            frac(self.bridge_busy, self.makespan),
            "fraction",
            1,
        );
        sheet.count("sim.memory.data_transactions", self.data_transactions);
        sheet.count("sim.memory.rmw_ops", self.rmw_ops);
        sheet.count("sim.memory.bank_conflicts", self.bank_conflicts);
        sheet.put(
            "sim.memory.data_bus_busy_frac",
            frac(self.data_bus_busy, self.makespan),
            "fraction",
            1,
        );
        sheet.count("sim.dispatch.dispatched", self.dispatched);
        let accesses = self.cache_hits + self.cache_misses;
        sheet.put("sim.cache.hit_ratio", frac(self.cache_hits, accesses), "fraction", 1);
        sheet.count("sim.cache.misses", self.cache_misses);
        sheet.count("sim.cache.invalidations", self.invalidations);
        sheet.count("sim.cache.writebacks", self.writebacks);
        sheet.count("sim.recovery.gap_nacks", self.gap_nacks);
        sheet.count("sim.recovery.retransmits", self.retransmits);
        sheet.count("sim.recovery.watchdog_repairs", self.watchdog_repairs);
        sheet.count("sim.recovery.healed_waits", self.healed_waits);
    }
}

/// Host times of one sample (ms), split by layer.
#[derive(Debug, Default, Clone, Copy)]
struct Sample {
    build: f64,
    machine_new: f64,
    run: f64,
}

/// Runs a simulator workload for `seconds` and fills `sheet`. With
/// `trace`, samples alternate in pairs between untraced and traced
/// (spans plus the simulator's event ring), so the run measures its own
/// tracing overhead.
pub fn run(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sheet: &mut Sheet,
    tr: &mut Tracer,
) {
    let inputs = generate(w, seed);
    let config = config(w);
    if let Err(why) = config.validate() {
        sheet.check(false, || format!("invalid machine config: {why}"));
        return;
    }
    spot_check(w, seed, sheet);

    let started = Instant::now();
    let mut cold: Vec<Sample> = Vec::new();
    let mut warm: Vec<Sample> = Vec::new();
    let mut traced_run_ms: Vec<f64> = Vec::new();
    let mut totals = SimTotals::default();
    let mut first: Option<u64> = None;
    let mut compiled: Option<CompiledLoop> = None;
    let mut i = 0u64;
    // At least two pairs of samples, so each median has both kinds.
    while i < 4 || started.elapsed().as_secs_f64() < seconds {
        let is_cold = i.is_multiple_of(2);
        let traced = trace && (i / 2) % 2 == 1;
        tr.set_on(traced);
        tr.request(i);
        let root = tr.begin("bench.cell");
        let t0 = Instant::now();
        if is_cold {
            // Free the previous program before building the next one.
            drop(compiled.take());
            compiled = Some(build(w, &inputs, tr));
        }
        let c = compiled.as_ref().expect("the first sample is cold");
        let t1 = Instant::now();
        let open = tr.begin("sim.machine_new");
        let m = machine(&config, c, StepMode::FastForward, traced);
        tr.end(open);
        let t2 = Instant::now();
        let open = tr.begin("sim.run");
        let result = m.run_to_completion();
        tr.end(open);
        let t3 = Instant::now();
        sheet.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                sheet.failed += 1;
                sheet.check(false, || format!("simulation failed: {e}"));
                tr.end(root);
                break;
            }
        };
        let open = tr.begin("schemes.validate");
        let wrong = check_outcome(w, c, &out);
        tr.end(open);
        tr.end(root);
        sheet.check(wrong.is_none(), || wrong.unwrap_or_default());
        let d = digest(&out);
        match first {
            None => {
                first = Some(d);
                sheet.digests.insert("run_stats_sync_final".into(), format!("{d:016x}"));
                sheet.put("makespan_cycles", out.stats.makespan as f64, "cycles", 1);
            }
            Some(d0) => sheet.check(d == d0, || {
                format!("sample {i} digest {d:016x} differs from the first {d0:016x}")
            }),
        }
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let sample = Sample { build: ms(t0, t1), machine_new: ms(t1, t2), run: ms(t2, t3) };
        if traced {
            traced_run_ms.push(sample.run);
            if totals.runs == 0 {
                totals.add(&out, 0.0);
            }
        } else if is_cold {
            cold.push(sample);
        } else {
            warm.push(sample);
        }
        i += 1;
    }
    tr.set_on(trace);

    let all: Vec<Sample> = cold.iter().chain(&warm).copied().collect();
    let run_ms: Vec<f64> = all.iter().map(|s| s.run).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|s| s.build + s.machine_new + s.run).collect();
    let warm_ms: Vec<f64> = warm.iter().map(|s| s.machine_new + s.run).collect();
    let setup_s: Vec<f64> = cold.iter().map(|s| (s.build + s.machine_new) / 1e3).collect();
    sheet.put("setup_s", median(&setup_s), "s", setup_s.len());
    sheet.put("sim_ms_p50", median(&run_ms), "ms", run_ms.len());
    sheet.put("cold_cells_per_s", 1e3 / median(&cold_ms), "cells/s", cold_ms.len());
    sheet.put("warm_cells_per_s", 1e3 / median(&warm_ms), "cells/s", warm_ms.len());
    sheet.put("cold_first_cell_ms_p50", median(&cold_ms), "ms", cold_ms.len());
    sheet.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);

    sheet.put("sim.run_ms_p50", median(&run_ms), "ms", run_ms.len());
    sheet.put("sim.run_ms_p90", quantile(&run_ms, 0.9), "ms", run_ms.len());
    let new_ms: Vec<f64> = all.iter().map(|s| s.machine_new).collect();
    sheet.put("sim.machine_new_ms", median(&new_ms), "ms", new_ms.len());
    if trace {
        totals.run_ns = median(&run_ms) * 1e6;
        totals.put(sheet);
        let overhead = median(&traced_run_ms) / median(&run_ms) - 1.0;
        sheet.put("trace_overhead_frac", overhead, "fraction", traced_run_ms.len());
    }
}

/// Self-test: a correct hot-spot run with its final counter or its
/// sync-op conservation corrupted must each be rejected.
pub fn corrupted_outputs_rejected(w: SimWorkload) -> (bool, bool) {
    let inputs = generate(w, 3);
    let compiled = build(w, &inputs, &mut Tracer::new(false));
    let config = config(w);
    let Ok(out) = machine(&config, &compiled, StepMode::FastForward, false).run_to_completion()
    else {
        return (false, false);
    };
    let mut bad_counter = out.clone();
    bad_counter.sync_final[0] -= 1;
    let mut bad_conservation = out.clone();
    bad_conservation.stats.sync_broadcasts += 1;
    (
        check_outcome(w, &compiled, &out).is_none()
            && check_outcome(w, &compiled, &bad_counter).is_some(),
        check_outcome(w, &compiled, &bad_conservation).is_some(),
    )
}
