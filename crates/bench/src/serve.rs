//! Load generator for the sweep service: the `BENCH_serve.json`
//! artifact behind `serve_bench`.
//!
//! Four phases against in-process servers (raw `TcpStream` clients, one
//! request per connection — the service speaks `Connection: close`
//! HTTP/1.1):
//!
//! 1. **cold** — a grid the cache has never seen; every cell computes.
//! 2. **warm** — the same grid resubmitted repeatedly; every cell must
//!    come from the memo cache, and the best repeat's throughput is the
//!    headline cells/sec figure (min-of-N wall time: the honest floor
//!    claim on a host with noisy vCPU phases).
//! 3. **storm** — a `queue_cap = 1` server held busy by one slow sweep
//!    while a loop hammers it: sheds must come back as 429 +
//!    `Retry-After`, never as a wedge.
//! 4. **resume** — the warm server is drained, a new server replays its
//!    journal, and the grid is resubmitted: zero recomputation and a
//!    byte-identical aggregate hash.

use datasync_serve::json::{self, Json};
use datasync_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Throughput measurement for one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Cells streamed back.
    pub cells: u64,
    /// Wall-clock seconds (best repeat for the warm phase).
    pub wall_seconds: f64,
    /// Cells per wall-clock second.
    pub cells_per_sec: f64,
}

/// Results of one load-generator run (`BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Grid description.
    pub workload: String,
    /// Cold-cache phase: every cell computes.
    pub cold: PhaseStats,
    /// Warm-cache phase: every cell is a memo hit (best of N repeats).
    pub warm: PhaseStats,
    /// Cache hit rate observed on the final warm repeat (must be 1.0).
    pub warm_hit_rate: f64,
    /// Requests fired at the storm server.
    pub storm_requests: u64,
    /// Of those, 429 sheds (the rest streamed normally).
    pub storm_shed: u64,
    /// p99 request latency in microseconds, from the server's `/stats`.
    pub p99_latency_us: u64,
    /// Cells recomputed after the crash-resume drill (must be 0).
    pub resume_recomputed: u64,
    /// Whether the resumed aggregate hash matched the cold run's.
    pub resume_hash_matches: bool,
}

impl ServeBenchReport {
    /// Hand-rolled JSON rendering for `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseStats| {
            format!(
                "{{\"cells\": {}, \"wall_seconds\": {:.6}, \"cells_per_sec\": {:.0}}}",
                p.cells, p.wall_seconds, p.cells_per_sec
            )
        };
        format!(
            "{{\n  \"schema_version\": 1,\n  \"workload\": \"{}\",\n  \"cold\": {},\n  \
             \"warm\": {},\n  \"warm_hit_rate\": {:.3},\n  \"storm_requests\": {},\n  \
             \"storm_shed\": {},\n  \"p99_latency_us\": {},\n  \"resume_recomputed\": {},\n  \
             \"resume_hash_matches\": {}\n}}\n",
            self.workload,
            phase(&self.cold),
            phase(&self.warm),
            self.warm_hit_rate,
            self.storm_requests,
            self.storm_shed,
            self.p99_latency_us,
            self.resume_recomputed,
            self.resume_hash_matches
        )
    }

    /// Human-readable phase summary.
    pub fn summary(&self) -> String {
        format!(
            "serve load generator: {}\n\
             cold:   {:>8.0} cells/sec ({} cells in {:.3}s)\n\
             warm:   {:>8.0} cells/sec ({} cells, hit rate {:.0}%, best of N)\n\
             storm:  {} of {} requests shed with 429 (rest streamed)\n\
             p99:    {} us per request\n\
             resume: {} cells recomputed, aggregate hash {}\n",
            self.workload,
            self.cold.cells_per_sec,
            self.cold.cells,
            self.cold.wall_seconds,
            self.warm.cells_per_sec,
            self.warm.cells,
            self.warm_hit_rate * 100.0,
            self.storm_shed,
            self.storm_requests,
            self.p99_latency_us,
            self.resume_recomputed,
            if self.resume_hash_matches { "matches" } else { "DIVERGED" }
        )
    }
}

/// One raw HTTP/1.1 request; returns the full response (head + body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send request");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

/// Reads `key` from the response's last line: a sweep's `summary`
/// object, or the `/stats` document itself.
fn summary_field(response: &str, key: &str) -> Option<Json> {
    let doc = json::parse(response.lines().last()?).ok()?;
    doc.get("summary").unwrap_or(&doc).get(key).cloned()
}

/// A numeric summary field (`u64::MAX` when missing).
fn summary_u64(response: &str, key: &str) -> u64 {
    summary_field(response, key).and_then(|v| v.as_u64()).unwrap_or(u64::MAX)
}

/// The aggregate hash from the summary line (empty when missing).
fn aggregate_hash(response: &str) -> String {
    summary_field(response, "aggregate_hash")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_default()
}

/// Polls `/stats` until the server reports an admitted sweep
/// (`in_flight >= 1`) or `holder` has already finished, so the storm
/// fired next cannot win the admission race against the holder it is
/// meant to be shed behind.
fn await_admission(addr: SocketAddr, holder: &std::thread::JoinHandle<String>) {
    while !holder.is_finished() {
        let stats = request(addr, "GET", "/stats", "");
        if summary_u64(&stats, "in_flight") >= 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("datasync-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Runs the load generator. `quick` shrinks the grid and repeat counts
/// for smoke runs; the full run sizes the warm phase to demonstrate the
/// >= 1000 cells/sec cached-throughput claim.
///
/// # Panics
///
/// Panics if a server fails to start or a phase's invariant (all-cached
/// warm repeats, zero-recompute resume) is violated — a broken service
/// must fail the bench, not report garbage numbers.
pub fn run(quick: bool) -> ServeBenchReport {
    let (iters_axis, seeds, warm_repeats) = if quick {
        ((4..12).collect::<Vec<i64>>(), 1u64, 3usize)
    } else {
        ((4..36).collect::<Vec<i64>>(), 4, 8)
    };
    let schemes = ["process", "reference", "instance", "statement"];
    let iters: Vec<String> = iters_axis.iter().map(ToString::to_string).collect();
    let grid_cells = schemes.len() as u64 * iters_axis.len() as u64 * seeds;
    let seeds_json: Vec<String> = (0..seeds).map(|s| (100 + s).to_string()).collect();
    // One request per seed keeps request latency bounded while the grid
    // stays big enough to measure.
    let bodies: Vec<String> = seeds_json
        .iter()
        .map(|seed| {
            format!(
                "{{\"schemes\": [{}], \"iterations\": [{}], \"seed\": {seed}}}",
                schemes.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", "),
                iters.join(", ")
            )
        })
        .collect();
    let workload = format!(
        "{} schemes x {} iteration counts x {} seeds = {} cells",
        schemes.len(),
        iters_axis.len(),
        seeds,
        grid_cells
    );

    let state = temp_dir("main");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::spawn(cfg.clone()).expect("bench server");
    let addr = handle.addr();

    // Phase 1: cold.
    let started = Instant::now();
    let mut cold_hashes = Vec::new();
    for body in &bodies {
        let resp = request(addr, "POST", "/sweep", body);
        assert!(resp.starts_with("HTTP/1.1 200"), "cold sweep failed: {resp}");
        cold_hashes.push(aggregate_hash(&resp));
    }
    let cold_wall = started.elapsed().as_secs_f64();
    let cold = PhaseStats {
        cells: grid_cells,
        wall_seconds: cold_wall,
        cells_per_sec: grid_cells as f64 / cold_wall,
    };

    // Phase 2: warm — best of N repeats (min wall time), all cache hits.
    let mut best_wall = f64::INFINITY;
    let mut warm_hit_rate = 0.0;
    for _ in 0..warm_repeats {
        let started = Instant::now();
        let mut cached = 0u64;
        for body in &bodies {
            let resp = request(addr, "POST", "/sweep", body);
            assert_eq!(summary_u64(&resp, "computed"), 0, "warm repeat recomputed: {resp}");
            cached += summary_u64(&resp, "cached");
        }
        let wall = started.elapsed().as_secs_f64();
        best_wall = best_wall.min(wall);
        warm_hit_rate = cached as f64 / grid_cells as f64;
    }
    let warm = PhaseStats {
        cells: grid_cells,
        wall_seconds: best_wall,
        cells_per_sec: grid_cells as f64 / best_wall,
    };
    let stats = request(addr, "GET", "/stats", "");
    let p99_latency_us = summary_u64(&stats, "p99_latency_us");
    handle.stop();

    // Phase 3: storm against a queue_cap = 1 server.
    let storm_state = temp_dir("storm");
    let storm = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: storm_state.clone(),
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("storm server");
    let storm_addr = storm.addr();
    let holder = std::thread::spawn(move || {
        request(storm_addr, "POST", "/sweep", "{\"iterations\": [80], \"processors\": [8]}")
    });
    await_admission(storm_addr, &holder);
    let storm_requests = if quick { 20u64 } else { 60 };
    let mut storm_shed = 0u64;
    for i in 0..storm_requests {
        let resp =
            request(storm_addr, "POST", "/sweep", &format!("{{\"iterations\": [{}]}}", 4 + i % 8));
        if resp.starts_with("HTTP/1.1 429") {
            assert!(resp.contains("Retry-After"), "shed without Retry-After: {resp}");
            storm_shed += 1;
        } else {
            assert!(resp.starts_with("HTTP/1.1 200"), "storm neither shed nor served: {resp}");
        }
    }
    let held = holder.join().expect("holder thread");
    assert!(held.starts_with("HTTP/1.1 200"), "held sweep must still stream: {held}");
    storm.stop();
    let _ = std::fs::remove_dir_all(&storm_state);

    // Phase 4: resume — a fresh server over the same journal recomputes
    // nothing and reproduces the cold aggregate hashes byte-exactly.
    let resumed = Server::spawn(cfg).expect("resume server");
    let mut resume_recomputed = 0u64;
    let mut resume_hash_matches = true;
    for (body, cold_hash) in bodies.iter().zip(&cold_hashes) {
        let resp = request(resumed.addr(), "POST", "/sweep", body);
        resume_recomputed += summary_u64(&resp, "computed");
        resume_hash_matches &= aggregate_hash(&resp) == *cold_hash;
    }
    resumed.stop();
    let _ = std::fs::remove_dir_all(&state);

    ServeBenchReport {
        workload,
        cold,
        warm,
        warm_hit_rate,
        storm_requests,
        storm_shed,
        p99_latency_us,
        resume_recomputed,
        resume_hash_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_load_run_holds_every_service_invariant() {
        let r = run(true);
        assert_eq!(r.warm_hit_rate, 1.0, "warm repeats must be pure cache hits");
        assert_eq!(r.resume_recomputed, 0, "resume must recompute nothing");
        assert!(r.resume_hash_matches, "resumed aggregates must match cold bytes");
        assert!(r.cold.cells_per_sec > 0.0);
        assert!(
            r.warm.cells_per_sec > r.cold.cells_per_sec,
            "cache hits must beat cold compute: warm {} vs cold {}",
            r.warm.cells_per_sec,
            r.cold.cells_per_sec
        );
        let json = r.to_json();
        for key in [
            "\"schema_version\"",
            "\"cold\"",
            "\"warm\"",
            "\"warm_hit_rate\"",
            "\"storm_shed\"",
            "\"p99_latency_us\"",
            "\"resume_recomputed\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let s = r.summary();
        assert!(s.contains("resume: 0 cells recomputed"), "{s}");
    }

    #[test]
    fn serve_reproducers_keep_their_machine_and_replay() {
        // A quarantined cell's reproducer must name the machine the cell
        // ran on: replayed through the chaos harness, it rebuilds the
        // same fabric (cluster geometry included), cache and fault plan,
        // and every machine invariant holds.
        use crate::chaos::run_case;
        use datasync_schemes::RunCell;
        use datasync_serve::spec::CellSpec;
        use datasync_sim::FabricKind;
        let starved =
            CellSpec { iterations: 8, deadline_cycles: 1, seed: 5, ..CellSpec::default() };
        let cells = [
            // A geometry away from every parse default.
            CellSpec {
                fabric: FabricKind::Clustered {
                    clusters: 2,
                    bridge_latency: 1,
                    coalesce_window: 0,
                },
                processors: 8,
                ..starved.clone()
            },
            // The default cluster count (4) does not divide P = 2.
            CellSpec { fabric: FabricKind::clustered(2), processors: 2, ..starved.clone() },
            // A flat faulted cell.
            CellSpec { fault_pct: 35, seed: 13, ..starved },
        ];
        for spec in cells {
            let run = datasync_serve::run_cell(&spec);
            assert_eq!(run.record.status, "quarantined", "{:?}", run.record);
            let doc = run.reproducer.expect("quarantined cells carry a reproducer");
            let cell = RunCell::from_json(&doc).expect("serve reproducers parse as run cells");
            assert_eq!(cell.fabric, spec.fabric, "{doc}");
            assert_eq!(cell, RunCell::from(&spec), "{doc}");
            run_case(&cell).expect("replayed cell holds machine invariants");
        }
    }
}
