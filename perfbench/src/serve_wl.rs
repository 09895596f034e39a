//! The `serve-sweep` workload: an in-process `datasync serve` on a fresh
//! state directory, driven closed-loop by one client connection at a
//! time (each sweep waits for its whole stream before the next is sent).
//!
//! One round is: boot on an empty state directory → **cold** (every
//! grid once; every cell computes and is journaled) → **warm** (every
//! grid resubmitted several times; every cell is a cache hit) →
//! **restart** (the server is stopped and booted over the journal
//! several times; each boot is timed until `/healthz` answers) → a
//! final resubmission. Rounds repeat until the run's time is up.
//!
//! Before the rounds, every grid cell is computed once directly through
//! `run_cell`, with no service around it: that is the per-cell
//! simulation time, and the records it yields must equal the served
//! ones byte for byte.
//!
//! With tracing on, each sweep is also replayed in-process through the
//! service's layer functions (parse, expand + hash, lookup, journal,
//! encode) against a shadow store, each in its own span, and each cell
//! is re-simulated layer by layer for the `sim.*` counters. The server
//! itself is not instrumented: spans sit around the benchmark's own
//! calls.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::Scheme;
use datasync_schemes::{
    BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented,
};
use datasync_serve::spec::{CellSpec, SweepSpec};
use datasync_serve::{hash, json, run_cell, CellRecord, RunStore, ServeConfig, Server};
use datasync_sim::{Machine, MachineConfig, RecoveryPolicy, StepMode};

use crate::gen::{self, GridShape, GRID_CELLS};
use crate::measure::{fnv1a, median, peak_rss_mb, quantile, Sheet};
use crate::sims::SimTotals;
use crate::trace::Tracer;

/// Size of the serve-sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    /// Grid shape and count.
    pub shape: GridShape,
    /// Warm resubmissions of every grid per round.
    pub warm_repeats: usize,
    /// Timed boots over the journal per round.
    pub restarts: usize,
}

/// One answered sweep.
#[derive(Debug, Default, Clone)]
pub struct Reply {
    /// HTTP status (0 when the exchange itself failed).
    pub status: u16,
    /// The `cell` object of every streamed cell line, in order.
    pub cells: Vec<String>,
    /// Whether each cell line said `"cached":true`.
    pub cached: Vec<bool>,
    /// The summary line.
    pub summary: String,
    /// Send → last byte, ms.
    pub wall_ms: f64,
    /// Send → first cell line, ms.
    pub first_cell_ms: f64,
}

impl Reply {
    /// A `u64` field of the summary line, if present.
    pub fn summary_u64(&self, key: &str) -> Option<u64> {
        let rest = self.summary.split(&format!("\"{key}\":")).nth(1)?;
        rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
    }

    /// The summary's aggregate hash.
    pub fn aggregate_hash(&self) -> String {
        self.summary
            .split("\"aggregate_hash\":\"")
            .nth(1)
            .map(|rest| rest.chars().take(16).collect())
            .unwrap_or_default()
    }

    /// Every rule a reply to a `cells`-cell sweep must satisfy: 200,
    /// one line per cell, a summary that agrees, and `computed` cells
    /// computed fresh (`None` = any split). The first broken rule, if any.
    pub fn problem(&self, cells: usize, computed: Option<u64>) -> Option<String> {
        if self.status != 200 {
            return Some(format!("sweep answered {} instead of 200", self.status));
        }
        if self.cells.len() != cells || self.summary_u64("cells") != Some(cells as u64) {
            return Some(format!(
                "sweep streamed {} cell lines (summary says {:?}), want {cells}",
                self.cells.len(),
                self.summary_u64("cells")
            ));
        }
        if let Some(want) = computed {
            let got = self.summary_u64("computed");
            if got != Some(want) || self.cached.iter().filter(|c| !**c).count() as u64 != want {
                return Some(format!("sweep computed {got:?} cells, want {want}"));
            }
        }
        if self.summary_u64("quarantined") != Some(0) {
            return Some(format!("sweep quarantined cells: {}", self.summary));
        }
        None
    }
}

/// One HTTP/1.1 request on a fresh connection, reading the NDJSON
/// stream line by line.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let started = Instant::now();
    let mut reply = Reply::default();
    let Ok(mut stream) = TcpStream::connect(addr) else { return reply };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    if stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .is_err()
    {
        return reply;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut in_body = false;
    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
        let text = line.trim_end();
        if !in_body {
            if reply.status == 0 {
                reply.status = text.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            in_body = text.is_empty();
        } else if let Some(rest) = text.strip_prefix("{\"cell\":") {
            if reply.cells.is_empty() {
                reply.first_cell_ms = started.elapsed().as_secs_f64() * 1e3;
            }
            let (cell, cached) = match rest.rsplit_once(",\"cached\":") {
                Some((cell, flag)) => (cell, flag.starts_with("true")),
                None => (rest, false),
            };
            reply.cells.push(cell.to_string());
            reply.cached.push(cached);
        } else {
            reply.summary = text.to_string();
        }
        line.clear();
    }
    reply.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    reply
}

/// Boots a server over `state` and polls `/healthz` until it answers.
fn boot(state: &Path) -> Result<datasync_serve::ServerHandle, String> {
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state.to_path_buf(),
        ..ServeConfig::default()
    })?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while request(handle.addr(), "GET", "/healthz", "").status != 200 {
        if Instant::now() > deadline {
            handle.stop();
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(handle)
}

/// The serve runner's cell compilation, rebuilt from public parts so
/// the traced run can time analyze, compile, `Machine::new`, run and
/// validate separately. Its makespans are checked against the served
/// records, which keeps it honest.
fn shadow_cell(
    spec: &CellSpec,
    record: &CellRecord,
    tr: &mut Tracer,
    totals: &mut SimTotals,
    sheet: &mut Sheet,
) {
    let nest = fig21_loop(spec.iterations);
    let graph = tr.span("loopir.analyze", || analyze(&nest));
    let space = IterSpace::of(&nest);
    let x = spec.processors.max(2);
    let scheme: Box<dyn Scheme> = match spec.scheme.as_str() {
        "reference" => Box::new(ReferenceBased::new()),
        "instance" => Box::new(InstanceBased::new()),
        "statement" => Box::new(StatementOriented::new()),
        "process" => Box::new(ProcessOriented::new(x)),
        _ => Box::new(BarrierPhased::new(spec.processors)),
    };
    let compiled = tr.span("schemes.compile", || scheme.compile(&nest, &graph, &space));
    let mut config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        sync_fabric: spec.fabric,
        recovery: RecoveryPolicy::Full,
        cache: spec.cache,
        faults: spec.fault_plan(),
        ..MachineConfig::with_processors(spec.processors)
    };
    config.max_cycles = datasync_serve::runner::base_budget(spec, &compiled, &config);
    let open = tr.begin("sim.machine_new");
    let mut m = Machine::new(&config, &compiled.workload);
    m.set_mode(StepMode::FastForward);
    m.enable_events(1 << 20);
    for &(var, val) in &compiled.presets {
        m.preset_sync(var, val);
    }
    tr.end(open);
    let t = Instant::now();
    let open = tr.begin("sim.run");
    let result = m.run_to_completion();
    tr.end(open);
    let run_ns = t.elapsed().as_secs_f64() * 1e9;
    // Only a first-attempt record comes from exactly this run.
    if record.attempts != 1 {
        return;
    }
    match result {
        Ok(out) => {
            let problems = tr.span("schemes.validate", || compiled.validate(&out));
            sheet.check(problems.is_empty(), || format!("cell {} violates order", record.hash));
            sheet.check(out.stats.makespan == record.makespan, || {
                format!(
                    "shadow of cell {} ran {} cycles, the service reported {}",
                    record.hash, out.stats.makespan, record.makespan
                )
            });
            totals.add(&out, run_ns);
        }
        Err(e) => sheet.check(false, || format!("shadow of cell {} failed: {e}", record.hash)),
    }
}

/// Per-layer timings the traced shadow pipeline collects.
#[derive(Debug, Default)]
struct Shadow {
    store: Option<RunStore>,
    /// Warm request: HTTP wall minus the shadow's layer time, ms.
    residual_ms: Vec<f64>,
    /// Shadow pipeline wall with spans off / on, ms (warm requests).
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

/// Replays one answered sweep through the service's layers against the
/// shadow store; returns the layers' total time in ms and checks the
/// aggregate hash against the served one.
fn shadow_sweep(
    body: &str,
    served: &Reply,
    records: &std::collections::HashMap<String, CellRecord>,
    store: &mut RunStore,
    tr: &mut Tracer,
    sheet: &mut Sheet,
) -> f64 {
    let t = Instant::now();
    let root = tr.begin("serve.pipeline");
    let sweep = tr.span("serve.parse", || json::parse(body).and_then(|d| SweepSpec::from_json(&d)));
    let Ok(sweep) = sweep else {
        tr.end(root);
        sheet.check(false, || "the benchmark's own sweep body does not parse".into());
        return 0.0;
    };
    let (cells, hashes) = tr.span("serve.expand", || {
        let cells = sweep.expand();
        let hashes: Vec<String> = cells.iter().map(CellSpec::content_hash).collect();
        (cells, hashes)
    });
    let misses: Vec<usize> = tr.span("serve.lookup", || {
        hashes
            .iter()
            .enumerate()
            .filter(|(_, h)| store.get(h).is_none())
            .map(|(i, _)| i)
            .collect()
    });
    if !misses.is_empty() {
        tr.span("serve.journal", || {
            for &i in &misses {
                if let Some(rec) = records.get(&hashes[i]) {
                    let _ = store.insert(rec.clone());
                }
            }
        });
    }
    let aggregate = tr.span("serve.encode", || {
        let mut aggregate = hash::fnv1a_seed();
        for h in &hashes {
            let text = store.get(h).map(CellRecord::to_json).unwrap_or_default();
            aggregate = hash::fold(aggregate, text.as_bytes());
            aggregate = hash::fold(aggregate, b"\n");
        }
        aggregate
    });
    tr.end(root);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    sheet.check(format!("{aggregate:016x}") == served.aggregate_hash(), || {
        format!("{} cells: shadow aggregate differs from the served one", cells.len())
    });
    ms
}

/// Computes every cell of one grid directly through `run_cell`, each in
/// a `serve.compute` span: (spec, record, host ms) in grid order.
fn direct_grid(
    body: &str,
    tr: &mut Tracer,
    sheet: &mut Sheet,
) -> Option<Vec<(CellSpec, CellRecord, f64)>> {
    let Ok(sweep) = json::parse(body).and_then(|d| SweepSpec::from_json(&d)) else {
        sheet.check(false, || format!("grid does not parse: {body}"));
        return None;
    };
    let cells = sweep
        .expand()
        .into_iter()
        .map(|spec| {
            let t = Instant::now();
            let run = tr.span("serve.compute", || run_cell(&spec));
            (spec, run.record, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    Some(cells)
}

/// Per-grid compute time, and for each 64-cell chunk (the server's
/// scheduling unit, which waits for its slowest cell) max ÷ mean.
fn grid_timings(cell_ms: &[f64], chunk_ratio: &mut Vec<f64>, grid_ms: &mut Vec<f64>) {
    for chunk in cell_ms.chunks(64) {
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        chunk_ratio.push(chunk.iter().copied().fold(0.0, f64::max) / mean);
    }
    grid_ms.push(cell_ms.iter().sum());
}

/// Runs the serve-sweep workload for `seconds` and fills `sheet`.
pub fn run(
    scale: ServeScale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    sheet: &mut Sheet,
    tr: &mut Tracer,
) {
    let started = Instant::now();
    let bodies = gen::sweep_bodies(seed, scale.shape);

    // Direct phase: every cell once through `run_cell`, no service.
    let mut records = std::collections::HashMap::new();
    let mut cell_ms = Vec::new();
    let mut chunk_ratio = Vec::new();
    let mut grid_compute_ms = Vec::new();
    let mut makespan = 0u64;
    let mut retries = 0u64;
    let mut totals = SimTotals::default();
    for (k, body) in bodies.iter().enumerate() {
        tr.request(k as u64);
        let Some(cells) = direct_grid(body, tr, sheet) else { return };
        for (spec, rec, ms) in cells {
            sheet.check(!rec.is_poisoned(), || format!("cell {} was {}", rec.hash, rec.status));
            makespan += rec.makespan;
            retries += u64::from(rec.attempts.saturating_sub(1));
            if trace {
                shadow_cell(&spec, &rec, tr, &mut totals, sheet);
            }
            records.insert(rec.hash.clone(), rec);
            cell_ms.push(ms);
        }
        grid_timings(
            &cell_ms[cell_ms.len() - GRID_CELLS..],
            &mut chunk_ratio,
            &mut grid_compute_ms,
        );
    }
    sheet.put("makespan_cycles", makespan as f64, "cycles", records.len());

    let mut cold_rate = Vec::new();
    let mut first_cell = Vec::new();
    let mut warm_rate = Vec::new();
    let mut warm_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut replay_ms = Vec::new();
    let mut journal_bytes = 0u64;
    let mut served_cells = 0u64;
    let mut cached_cells = 0u64;
    let mut shed = 0u64;
    let mut cold_hashes: Vec<String> = Vec::new();
    let mut shadow = Shadow::default();
    let state: PathBuf = out_dir.join(format!("serve-state-{}", std::process::id()));
    let shadow_dir: PathBuf = out_dir.join(format!("serve-shadow-{}", std::process::id()));
    let mut round = 0u64;
    'rounds: while round == 0 || started.elapsed().as_secs_f64() < seconds {
        if round > 0 {
            // Re-time one grid per round, so per-cell times are sampled
            // across the whole run; the records must not change.
            let k = round as usize % bodies.len();
            tr.set_on(false);
            let again = direct_grid(&bodies[k], tr, sheet).unwrap_or_default();
            tr.set_on(trace);
            for (_, rec, ms) in &again {
                let same = records.get(&rec.hash).map(CellRecord::to_json) == Some(rec.to_json());
                sheet.check(same, || format!("cell {} changed between runs", rec.hash));
                cell_ms.push(*ms);
            }
            let times: Vec<f64> = again.iter().map(|c| c.2).collect();
            grid_timings(&times, &mut chunk_ratio, &mut grid_compute_ms);
        }
        let _ = std::fs::remove_dir_all(&state);
        if trace {
            let _ = std::fs::remove_dir_all(&shadow_dir);
            shadow.store = RunStore::open(&shadow_dir).ok();
        }
        sheet.attempted += 1;
        let mut handle = match boot(&state) {
            Ok(h) => h,
            Err(why) => {
                sheet.failed += 1;
                sheet.check(false, || why);
                break;
            }
        };
        let mut answer = |body: &str, computed: Option<u64>, sheet: &mut Sheet, tr: &mut Tracer| {
            let reply = request(handle.addr(), "POST", "/sweep", body);
            sheet.attempted += 1;
            let problem = reply.problem(GRID_CELLS, computed);
            if problem.is_some() {
                sheet.failed += 1;
            }
            sheet.check(problem.is_none(), || problem.unwrap_or_default());
            served_cells += reply.cells.len() as u64;
            cached_cells += reply.cached.iter().filter(|c| **c).count() as u64;
            if let Some(store) = shadow.store.as_mut() {
                tr.request(sheet.attempted);
                if computed == Some(0) {
                    // Warm: the pipeline once with spans and once
                    // without, in alternating order, for the overhead.
                    let plain_first = shadow.plain_ms.len() % 2 == 0;
                    let mut timed = |on: bool, tr: &mut Tracer, sheet: &mut Sheet| {
                        tr.set_on(on);
                        let ms = shadow_sweep(body, &reply, &records, store, tr, sheet);
                        tr.set_on(true);
                        ms
                    };
                    let (plain, traced) = if plain_first {
                        let p = timed(false, tr, sheet);
                        (p, timed(true, tr, sheet))
                    } else {
                        let t = timed(true, tr, sheet);
                        (timed(false, tr, sheet), t)
                    };
                    shadow.residual_ms.push(reply.wall_ms - plain);
                    shadow.plain_ms.push(plain);
                    shadow.traced_ms.push(traced);
                } else {
                    shadow_sweep(body, &reply, &records, store, tr, sheet);
                }
            }
            reply
        };
        for (k, body) in bodies.iter().enumerate() {
            let reply = answer(body, Some(GRID_CELLS as u64), sheet, tr);
            cold_rate.push(GRID_CELLS as f64 / (reply.wall_ms / 1e3));
            first_cell.push(reply.first_cell_ms);
            if round == 0 {
                for cell in &reply.cells {
                    let same = CellRecord::parse(cell)
                        .ok()
                        .and_then(|r| records.get(&r.hash).map(|d| d.to_json() == *cell));
                    sheet.check(same == Some(true), || {
                        format!("served cell differs from its direct run: {cell}")
                    });
                }
                cold_hashes.push(reply.aggregate_hash());
            } else {
                sheet.check(reply.aggregate_hash() == cold_hashes[k], || {
                    format!("round {round} grid {k}: cold aggregate changed between rounds")
                });
            }
        }
        for _ in 0..scale.warm_repeats {
            for (k, body) in bodies.iter().enumerate() {
                let reply = answer(body, Some(0), sheet, tr);
                warm_rate.push(GRID_CELLS as f64 / (reply.wall_ms / 1e3));
                warm_ms.push(reply.wall_ms);
                sheet.check(reply.aggregate_hash() == cold_hashes[k], || {
                    format!("grid {k}: warm aggregate differs from cold")
                });
            }
        }
        for _ in 0..scale.restarts {
            handle.stop();
            journal_bytes = std::fs::metadata(state.join("journal.log")).map_or(0, |m| m.len());
            if trace {
                let t = Instant::now();
                let store = tr.span("serve.replay", || RunStore::open(&state));
                replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let replayed = store.map(|s| s.len()).unwrap_or(0);
                sheet.check(replayed == records.len(), || {
                    format!("journal replays {replayed} records, want {}", records.len())
                });
            }
            let t = Instant::now();
            sheet.attempted += 1;
            handle = match boot(&state) {
                Ok(h) => h,
                Err(why) => {
                    sheet.failed += 1;
                    sheet.check(false, || why);
                    break 'rounds;
                }
            };
            setup_s.push(t.elapsed().as_secs_f64());
        }
        for (k, body) in bodies.iter().enumerate() {
            let reply = request(handle.addr(), "POST", "/sweep", body);
            sheet.attempted += 1;
            let problem = reply.problem(GRID_CELLS, Some(0));
            let same = reply.aggregate_hash() == cold_hashes[k];
            if problem.is_some() || !same {
                sheet.failed += 1;
            }
            sheet.check(problem.is_none(), || {
                format!("after restart: {}", problem.unwrap_or_default())
            });
            sheet.check(same, || format!("grid {k}: post-restart aggregate differs from cold"));
            served_cells += reply.cells.len() as u64;
            cached_cells += reply.cached.iter().filter(|c| **c).count() as u64;
        }
        let summary = handle.stop();
        sheet.check(summary.drained_clean, || "server did not drain cleanly".into());
        shed += summary.shed;
        round += 1;
    }
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&shadow_dir);

    let digest = fnv1a(cold_hashes.join(",").as_bytes());
    sheet.digests.insert("serve_aggregate_hashes".into(), format!("{digest:016x}"));
    sheet.put("sim_ms_p50", median(&cell_ms), "ms", cell_ms.len());
    sheet.put("setup_s", median(&setup_s), "s", setup_s.len());
    sheet.put("cold_cells_per_s", median(&cold_rate), "cells/s", cold_rate.len());
    sheet.put("warm_cells_per_s", median(&warm_rate), "cells/s", warm_rate.len());
    sheet.put("cold_first_cell_ms_p50", median(&first_cell), "ms", first_cell.len());
    sheet.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);

    sheet.put("serve.warm_request_ms_p50", median(&warm_ms), "ms", warm_ms.len());
    sheet.put("serve.warm_request_ms_p90", quantile(&warm_ms, 0.9), "ms", warm_ms.len());
    sheet.put("serve.cell_ms_p50", median(&cell_ms), "ms", cell_ms.len());
    sheet.put("serve.cell_ms_p90", quantile(&cell_ms, 0.9), "ms", cell_ms.len());
    sheet.put("serve.compute_ms", median(&grid_compute_ms), "ms", grid_compute_ms.len());
    sheet.put("serve.chunk_max_over_mean", median(&chunk_ratio), "ratio", chunk_ratio.len());
    sheet.put("serve.hit_ratio", cached_cells as f64 / served_cells.max(1) as f64, "fraction", 1);
    sheet.count("serve.retries", retries);
    sheet.count("serve.quarantined", records.values().filter(|r| r.is_poisoned()).count() as u64);
    sheet.put("serve.journal_bytes", journal_bytes as f64, "bytes", 1);
    sheet.count("serve.shed", shed);
    sheet.count("serve.rounds", round);
    if trace {
        totals.put(sheet);
        let runs: Vec<f64> = tr.self_ms().remove("sim.run").unwrap_or_default();
        sheet.put("sim.run_ms_p50", median(&runs), "ms", runs.len());
        sheet.put("sim.run_ms_p90", quantile(&runs, 0.9), "ms", runs.len());
        sheet.put("serve.replay_ms", median(&replay_ms), "ms", replay_ms.len());
        sheet.put(
            "serve.http_residual_ms",
            median(&shadow.residual_ms),
            "ms",
            shadow.residual_ms.len(),
        );
        let overhead = median(&shadow.traced_ms) / median(&shadow.plain_ms) - 1.0;
        sheet.put("trace_overhead_frac", overhead, "fraction", shadow.plain_ms.len());
    }
}

/// Self-test: a served sweep that is not 200, is missing a cell, or
/// recomputed on a warm pass must each be rejected.
pub fn corrupted_replies_rejected() -> (bool, bool, bool) {
    let good = Reply {
        status: 200,
        cells: vec!["{}".into(); 2],
        cached: vec![true; 2],
        summary: "{\"summary\":{\"cells\":2,\"computed\":0,\"cached\":2,\"quarantined\":0}}".into(),
        ..Reply::default()
    };
    let mut not_200 = good.clone();
    not_200.status = 500;
    let mut short = good.clone();
    short.cells.pop();
    short.cached.pop();
    let mut recomputed = good.clone();
    recomputed.cached[1] = false;
    recomputed.summary = good.summary.replace("\"computed\":0", "\"computed\":1");
    let rejected = |r: &Reply| r.problem(2, Some(0)).is_some();
    (!rejected(&good) && rejected(&not_200), rejected(&short), rejected(&recomputed))
}
