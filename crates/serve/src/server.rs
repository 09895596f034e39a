//! The sweep-as-a-service server: accept loop, routing, streaming.
//!
//! One `TcpListener` in non-blocking mode is polled by the accept loop
//! (so SIGTERM is noticed within ~15 ms even with no traffic); each
//! accepted connection gets a worker thread that reads exactly one
//! request and answers it — no async runtime, in line with the
//! workspace's thread-per-unit-of-work pattern (`core/par.rs` runs the
//! cells themselves). Routes:
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /healthz` | `{"ok":true}` liveness probe |
//! | `GET /stats` | counters, cache/journal state, admission level |
//! | `POST /sweep` | streamed NDJSON: one line per cell, then a summary |
//! | `POST /shutdown` | begins a graceful drain (as SIGTERM does) |
//!
//! A sweep body is a [`SweepSpec`] grid. Cells stream in deterministic
//! grid order; each line is `{"cell": <record>, "cached": bool}` and
//! the final line carries the sweep summary with an `aggregate_hash` —
//! FNV-1a folded over the serialized records in cell order, so two runs
//! of the same sweep (cached, resumed, or cold) can be compared for
//! byte identity with one string.
//!
//! Graceful drain: the accept loop stops taking connections, in-flight
//! requests run to completion (every completed cell is already
//! journaled before its line is streamed), then the server returns its
//! summary. A `kill -9` instead loses at most the journal line being
//! written — the store tolerates that as a truncated tail on restart.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datasync_core::par::par_map;

use crate::http::{self, Request};
use crate::json;
use crate::queue::Admission;
use crate::record::CellRecord;
use crate::runner::run_cell;
use crate::spec::SweepSpec;
use crate::store::RunStore;
use crate::{hash, signal};

/// Version stamp on `/stats` bodies and sweep summary lines.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Cells dispatched to the thread pool per scheduling chunk: small
/// enough that lines stream steadily and admission slots free up as
/// work completes, large enough to keep every core busy.
const CHUNK_CELLS: usize = 64;

/// How long the accept loop sleeps when idle (also the SIGTERM
/// detection latency floor).
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Hard ceiling on the post-drain wait for in-flight connections.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8787` (`:0` picks a free port).
    pub addr: String,
    /// State directory (journal + quarantine reproducers).
    pub state_dir: PathBuf,
    /// Admission cap: cells in flight across all requests.
    pub queue_cap: usize,
    /// Hard cap on cells a single sweep may expand to (413 past it).
    pub max_cells: usize,
    /// Whether the accept loop also honors the process-global
    /// SIGTERM/SIGINT flag (the CLI's drain path). In-process servers —
    /// tests, the load-generator bench — leave this off so a signal
    /// test elsewhere in the process cannot drain them.
    pub watch_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".into(),
            state_dir: PathBuf::from(".datasync-serve"),
            queue_cap: 4096,
            max_cells: 4096,
            watch_signals: false,
        }
    }
}

/// Lifetime counters, all monotone (reported by `/stats` and folded
/// into the final [`ServeSummary`]).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    sweeps: AtomicU64,
    cells_computed: AtomicU64,
    cells_cached: AtomicU64,
    cells_quarantined: AtomicU64,
    poison_skips: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    latencies_us: Mutex<VecDeque<u64>>,
}

impl Counters {
    fn record_latency(&self, us: u64) {
        let mut ring = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= 4096 {
            ring.pop_front();
        }
        ring.push_back(us);
    }

    fn p99_us(&self) -> u64 {
        let ring = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if ring.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = ring.iter().copied().collect();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 99 / 100]
    }
}

/// What a server did over its lifetime (returned when the drain ends).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Requests answered (any route, errors included).
    pub requests: u64,
    /// Sweeps admitted.
    pub sweeps: u64,
    /// Cells computed fresh.
    pub cells_computed: u64,
    /// Cells served from the memo cache.
    pub cells_cached: u64,
    /// Cells newly poisoned.
    pub cells_quarantined: u64,
    /// Requests shed with 429.
    pub shed: u64,
    /// True when every in-flight connection finished inside the drain
    /// window.
    pub drained_clean: bool,
}

#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    store: Mutex<RunStore>,
    admission: Admission,
    counters: Counters,
    local_shutdown: AtomicBool,
    open_conns: AtomicUsize,
}

impl Shared {
    fn draining(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst)
            || (self.config.watch_signals && signal::shutdown_requested())
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A handle to a server running on a background thread (tests and the
/// load-generator bench; the CLI runs [`Server::run`] on its own
/// thread).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain and waits for the server to finish.
    pub fn stop(self) -> ServeSummary {
        self.shared.local_shutdown.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or(ServeSummary {
            requests: 0,
            sweeps: 0,
            cells_computed: 0,
            cells_cached: 0,
            cells_quarantined: 0,
            shed: 0,
            drained_clean: false,
        })
    }
}

impl Server {
    /// Opens the state directory (replaying the journal) and binds the
    /// listen socket.
    ///
    /// # Errors
    ///
    /// Reports store and bind failures human-readably.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let store = RunStore::open(&config.state_dir)
            .map_err(|e| format!("cannot open state dir '{}': {e}", config.state_dir.display()))?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind '{}': {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set non-blocking accept: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let admission = Admission::new(config.queue_cap);
        let shared = Arc::new(Shared {
            admission,
            store: Mutex::new(store),
            counters: Counters::default(),
            local_shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            config,
        });
        Ok(Server { listener, addr, shared })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One line of boot telemetry for the operator: cache size and any
    /// journal damage found on replay.
    pub fn boot_report(&self) -> String {
        let store = self.shared.store.lock().unwrap_or_else(|e| e.into_inner());
        let load = store.load_report();
        let mut line = format!(
            "listening on {} — {} cached records ({} poisoned) replayed",
            self.addr,
            store.len(),
            store.poisoned()
        );
        if load.corrupt_lines > 0 || load.integrity_failures > 0 {
            line.push_str(&format!(
                ", {} corrupt lines and {} integrity failures skipped",
                load.corrupt_lines, load.integrity_failures
            ));
        }
        if load.truncated_tail {
            line.push_str(", truncated tail tolerated");
        }
        line
    }

    /// Runs the accept loop until a drain is requested, drains, and
    /// returns the lifetime summary.
    pub fn run(self) -> ServeSummary {
        let Server { listener, shared, .. } = self;
        loop {
            if shared.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(false);
                    shared.open_conns.fetch_add(1, Ordering::SeqCst);
                    let conn_shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let _guard = ConnGuard(&conn_shared.open_conns);
                        handle_connection(&conn_shared, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Drain: no new connections; let in-flight requests finish.
        let deadline = Instant::now() + DRAIN_WAIT;
        while shared.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained_clean = shared.open_conns.load(Ordering::SeqCst) == 0;
        let c = &shared.counters;
        ServeSummary {
            requests: c.requests.load(Ordering::SeqCst),
            sweeps: c.sweeps.load(Ordering::SeqCst),
            cells_computed: c.cells_computed.load(Ordering::SeqCst),
            cells_cached: c.cells_cached.load(Ordering::SeqCst),
            cells_quarantined: c.cells_quarantined.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            drained_clean,
        }
    }

    /// Binds and runs on a background thread; the handle stops it.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures.
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
        let server = Server::bind(config)?;
        let addr = server.addr();
        let shared = Arc::clone(&server.shared);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, shared, thread })
    }
}

/// Decrements the open-connection count when the worker exits, panic
/// included (a leaked count would make every future drain hang).
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
            http::respond_error(&mut stream, e.status(), &e.detail(), None);
            return;
        }
    };
    route(shared, &mut stream, &request);
}

fn route(shared: &Shared, stream: &mut TcpStream, request: &Request) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => http::respond(stream, 200, "application/json", "{\"ok\":true}\n"),
        ("GET", "/stats") => {
            let body = stats_json(shared);
            http::respond(stream, 200, "application/json", &body);
        }
        ("POST", "/shutdown") => {
            shared.local_shutdown.store(true, Ordering::SeqCst);
            http::respond(stream, 200, "application/json", "{\"ok\":true,\"draining\":true}\n");
        }
        ("POST", "/sweep") => handle_sweep(shared, stream, &request.body),
        _ => http::respond_error(
            stream,
            404,
            &format!("no route for {} {}", request.method, request.path),
            None,
        ),
    }
}

fn stats_json(shared: &Shared) -> String {
    let (records, poisoned, load) = {
        let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        let load = store.load_report().clone();
        (store.len(), store.poisoned(), load)
    };
    let c = &shared.counters;
    format!(
        "{{\"schema_version\":{SERVE_SCHEMA_VERSION},\"cache_records\":{records},\
         \"poisoned\":{poisoned},\"in_flight\":{},\"queue_cap\":{},\
         \"max_cells_per_request\":{},\"requests\":{},\"sweeps\":{},\"cells_computed\":{},\
         \"cells_cached\":{},\"cells_quarantined\":{},\"poison_skips\":{},\"shed\":{},\
         \"bad_requests\":{},\"p99_latency_us\":{},\"journal\":{{\"replayed\":{},\
         \"corrupt_lines\":{},\"integrity_failures\":{},\"truncated_tail\":{}}}}}\n",
        shared.admission.in_flight(),
        shared.admission.cap(),
        shared.config.max_cells,
        c.requests.load(Ordering::SeqCst),
        c.sweeps.load(Ordering::SeqCst),
        c.cells_computed.load(Ordering::SeqCst),
        c.cells_cached.load(Ordering::SeqCst),
        c.cells_quarantined.load(Ordering::SeqCst),
        c.poison_skips.load(Ordering::SeqCst),
        c.shed.load(Ordering::SeqCst),
        c.bad_requests.load(Ordering::SeqCst),
        c.p99_us(),
        load.replayed,
        load.corrupt_lines,
        load.integrity_failures,
        load.truncated_tail,
    )
}

fn handle_sweep(shared: &Shared, stream: &mut TcpStream, body: &str) {
    let started = Instant::now();
    let sweep = match json::parse(body).and_then(|doc| SweepSpec::from_json(&doc)) {
        Ok(s) => s,
        Err(why) => {
            shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
            http::respond_error(stream, 400, &why, None);
            return;
        }
    };
    // Cap-check on the axis lengths alone (`cell_count` saturates on
    // overflow) — expansion only happens for grids already under the
    // cap, so a small body cross-multiplying into billions of cells
    // costs nothing before its 413.
    let cell_count = sweep.cell_count();
    if cell_count > shared.config.max_cells {
        shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
        http::respond_error(
            stream,
            413,
            &format!(
                "sweep expands to {cell_count} cells, per-request cap is {} — split the grid",
                shared.config.max_cells
            ),
            None,
        );
        return;
    }
    let cells = sweep.expand();
    let Some(mut ticket) = shared.admission.try_admit(cells.len()) else {
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        http::respond_error(
            stream,
            429,
            &format!(
                "admission queue full ({} of {} cells in flight)",
                shared.admission.in_flight(),
                shared.admission.cap()
            ),
            Some(1),
        );
        return;
    };
    shared.counters.sweeps.fetch_add(1, Ordering::SeqCst);
    if http::start_ndjson(stream).is_err() {
        return;
    }
    let mut computed = 0u64;
    let mut cached = 0u64;
    let mut quarantined = 0u64;
    let mut aggregate = hash::fnv1a_seed();
    let mut client_gone = false;
    for chunk in cells.chunks(CHUNK_CELLS) {
        // Pass 1 (under the store lock): serve cache hits, collect misses.
        let mut lines: Vec<Option<(CellRecord, bool)>> = vec![None; chunk.len()];
        let mut misses: Vec<(usize, crate::spec::CellSpec)> = Vec::new();
        {
            let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            for (i, spec) in chunk.iter().enumerate() {
                match store.get(&spec.content_hash()) {
                    Some(rec) => {
                        if rec.is_poisoned() {
                            shared.counters.poison_skips.fetch_add(1, Ordering::SeqCst);
                        }
                        lines[i] = Some((rec.clone(), true));
                    }
                    None => misses.push((i, spec.clone())),
                }
            }
        }
        // Pass 2 (no lock): compute the misses across cores.
        let runs = par_map(misses, |(i, spec)| (i, run_cell(&spec)));
        // Pass 3 (under the lock): journal before streaming — a line a
        // client has seen is always durable.
        {
            let mut store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            for (i, run) in runs {
                if let Some(reproducer) = &run.reproducer {
                    let _ = store.write_reproducer(&run.record.hash, reproducer);
                }
                // A failed journal append (disk full?) skips the cache
                // insert inside `insert` itself; the result still
                // streams — memory never outruns disk.
                let _ = store.insert(run.record.clone());
                lines[i] = Some((run.record, false));
            }
        }
        // Pass 4: stream the chunk in cell order and free its slots.
        for entry in &lines {
            let Some((record, was_cached)) = entry else { continue };
            if *was_cached {
                cached += 1;
            } else {
                computed += 1;
            }
            if record.is_poisoned() {
                if !*was_cached {
                    shared.counters.cells_quarantined.fetch_add(1, Ordering::SeqCst);
                }
                quarantined += 1;
            }
            let rec_json = record.to_json();
            aggregate = hash::fold(aggregate, rec_json.as_bytes());
            aggregate = hash::fold(aggregate, b"\n");
            if !client_gone {
                let line = format!("{{\"cell\":{rec_json},\"cached\":{was_cached}}}\n");
                use std::io::Write as _;
                if stream.write_all(line.as_bytes()).is_err() {
                    // The client hung up mid-stream. Finish nothing more
                    // for it, but everything computed so far is journaled
                    // — a resubmission will be pure cache hits.
                    client_gone = true;
                }
            }
        }
        ticket.release(chunk.len());
        if client_gone {
            break;
        }
    }
    shared.counters.cells_computed.fetch_add(computed, Ordering::SeqCst);
    shared.counters.cells_cached.fetch_add(cached, Ordering::SeqCst);
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.counters.record_latency(elapsed_us);
    if !client_gone {
        use std::io::Write as _;
        let summary = format!(
            "{{\"summary\":{{\"schema_version\":{SERVE_SCHEMA_VERSION},\"cells\":{},\
             \"computed\":{computed},\"cached\":{cached},\"quarantined\":{quarantined},\
             \"aggregate_hash\":\"{:016x}\",\"elapsed_us\":{elapsed_us}}}}}\n",
            cells.len(),
            aggregate
        );
        let _ = stream.write_all(summary.as_bytes());
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "datasync-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn config(tag: &str) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: temp_dir(tag),
            ..ServeConfig::default()
        }
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    /// Polls `/stats` until the server reports an admitted sweep
    /// (`in_flight >= 1`) or `holder` has already finished, so a storm
    /// fired next cannot win the admission race against the holder.
    fn await_admission(addr: SocketAddr, holder: &std::thread::JoinHandle<String>) {
        while !holder.is_finished() {
            let stats = request(addr, "GET", "/stats", "");
            let doc = json::parse(body_of(&stats)).expect("stats JSON");
            if doc.get("in_flight").and_then(json::Json::as_u64).expect("in_flight") >= 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn healthz_stats_and_404_routes_answer() {
        let cfg = config("routes");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let ok = request(handle.addr(), "GET", "/healthz", "");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(body_of(&ok).contains("\"ok\":true"));
        let stats = request(handle.addr(), "GET", "/stats", "");
        assert!(body_of(&stats).contains("\"schema_version\":1"), "{stats}");
        assert!(body_of(&stats).contains("\"cache_records\":0"));
        let missing = request(handle.addr(), "GET", "/nope", "");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let summary = handle.stop();
        assert!(summary.drained_clean);
        assert_eq!(summary.requests, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_streams_cells_then_caches_them() {
        let cfg = config("sweep");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let body = r#"{"schemes": ["process", "instance"], "iterations": [6, 8], "seed": 3}"#;
        let first = request(handle.addr(), "POST", "/sweep", body);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let lines: Vec<&str> = body_of(&first).lines().collect();
        assert_eq!(lines.len(), 5, "4 cells + summary:\n{first}");
        assert!(lines[..4].iter().all(|l| l.contains("\"cached\":false")));
        let summary1 = lines[4];
        assert!(summary1.contains("\"computed\":4"), "{summary1}");
        assert!(summary1.contains("\"cached\":0"));
        // Resubmission: pure cache hits, byte-identical aggregate.
        let second = request(handle.addr(), "POST", "/sweep", body);
        let lines2: Vec<&str> = body_of(&second).lines().collect();
        assert!(lines2[..4].iter().all(|l| l.contains("\"cached\":true")));
        assert!(lines2[4].contains("\"computed\":0"), "{}", lines2[4]);
        assert!(lines2[4].contains("\"cached\":4"));
        let hash_of = |s: &str| s.split("\"aggregate_hash\":\"").nth(1).unwrap()[..16].to_string();
        assert_eq!(hash_of(summary1), hash_of(lines2[4]), "cached results must be byte-identical");
        let summary = handle.stop();
        assert_eq!(summary.cells_computed, 4);
        assert_eq!(summary.cells_cached, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_cells_survive_a_server_restart() {
        let cfg = config("restart");
        let dir = cfg.state_dir.clone();
        let body = r#"{"iterations": [5, 7, 9], "seed": 11}"#;
        let (first_hash, first_summary);
        {
            let handle = Server::spawn(cfg.clone()).expect("spawn");
            let resp = request(handle.addr(), "POST", "/sweep", body);
            first_hash = body_of(&resp)
                .lines()
                .last()
                .unwrap()
                .split("\"aggregate_hash\":\"")
                .nth(1)
                .unwrap()[..16]
                .to_string();
            first_summary = handle.stop();
        }
        assert_eq!(first_summary.cells_computed, 3);
        // A new server process over the same state dir: zero recompute,
        // same aggregate bytes.
        let handle = Server::spawn(cfg).expect("respawn");
        let resp = request(handle.addr(), "POST", "/sweep", body);
        let last = body_of(&resp).lines().last().unwrap().to_string();
        assert!(last.contains("\"computed\":0"), "{last}");
        assert!(last.contains(&format!("\"aggregate_hash\":\"{first_hash}\"")), "{last}");
        let second_summary = handle.stop();
        assert_eq!(second_summary.cells_computed, 0);
        assert_eq!(second_summary.cells_cached, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_oversized_sweeps_are_rejected() {
        let cfg = ServeConfig { max_cells: 4, ..config("reject") };
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let garbage = request(handle.addr(), "POST", "/sweep", "not json");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        let unknown = request(handle.addr(), "POST", "/sweep", r#"{"speed": 9}"#);
        assert!(unknown.starts_with("HTTP/1.1 400"), "{unknown}");
        assert!(body_of(&unknown).contains("speed"));
        let big = request(
            handle.addr(),
            "POST",
            "/sweep",
            r#"{"iterations": [1, 2, 3, 4, 5], "seed": 1}"#,
        );
        assert!(big.starts_with("HTTP/1.1 413"), "{big}");
        // A small body whose axes cross-multiply into millions of cells
        // is shed by the cap before any expansion allocates.
        let iterations: Vec<String> = (1..=1000).map(|i| i.to_string()).collect();
        let fault_pcts: Vec<String> = (0..=100).map(|p| p.to_string()).collect();
        let hostile = format!(
            r#"{{"schemes": ["reference", "instance", "statement", "process"],
                "fabrics": ["dedicated", "shared", "ideal"],
                "iterations": [{}], "processors": [2, 4, 8, 16],
                "caches": ["none", "mesi", "dragon"], "fault_pcts": [{}]}}"#,
            iterations.join(","),
            fault_pcts.join(",")
        );
        let started = std::time::Instant::now();
        let storm = request(handle.addr(), "POST", "/sweep", &hostile);
        assert!(storm.starts_with("HTTP/1.1 413"), "{storm}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the cap must fire before grid expansion"
        );
        let summary = handle.stop();
        assert_eq!(summary.sweeps, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_queue_sheds_with_retry_after() {
        let cfg = ServeConfig { queue_cap: 1, ..config("shed") };
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        // Hold the only slot with a slow streaming request...
        let addr = handle.addr();
        let holder = std::thread::spawn(move || {
            request(addr, "POST", "/sweep", r#"{"iterations": [64], "processors": [8]}"#)
        });
        // ...then, once it is admitted, storm the valve until a shed is
        // observed.
        await_admission(addr, &holder);
        let mut saw_shed = false;
        for _ in 0..200 {
            let resp = request(addr, "POST", "/sweep", r#"{"iterations": [6]}"#);
            if resp.starts_with("HTTP/1.1 429") {
                assert!(resp.contains("Retry-After: 1"), "{resp}");
                assert!(body_of(&resp).contains("\"retry_after_s\":1"));
                saw_shed = true;
                break;
            }
            // The holder may have finished already; re-arm by busying
            // the valve again is unnecessary — just assert it streamed.
            if resp.starts_with("HTTP/1.1 200") {
                break;
            }
        }
        let held = holder.join().unwrap();
        assert!(held.starts_with("HTTP/1.1 200"), "{held}");
        let summary = handle.stop();
        if saw_shed {
            assert!(summary.shed >= 1);
        }
        assert!(summary.drained_clean, "shedding must not wedge the drain");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
