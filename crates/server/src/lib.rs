#![warn(missing_docs)]
//! # srs-serve — the batching network daemon over [`ServingEngine`]
//!
//! A long-lived process that loads one `.srs` snapshot (heap or
//! mmap-backed, of any shard count), owns a [`ServingEngine`], and
//! answers top-k SimRank queries over HTTP/1.1 + JSON. The design goal is to put the engine's *batch* path — where its
//! throughput lives — behind a *single-query* network API without giving
//! up either: concurrent requests are **coalesced** into engine waves by
//! a bounded-queue dispatcher ([`dispatch::Coalescer`]), so N concurrent
//! clients produce engine batches of ~N instead of N serialized
//! single-vertex calls.
//!
//! Everything is `std` — no async runtime, no HTTP crate (the workspace
//! is offline). Threads are cheap at this concurrency (hundreds, not
//! millions, of connections), blocking I/O composes with the engine's
//! blocking batch calls, and the absence of a runtime keeps the
//! dependency closure empty; see DESIGN.md §5i for the full argument.
//!
//! Endpoints:
//!
//! | route | method | behavior |
//! |---|---|---|
//! | `/query?u=V[&k=K]` | GET | coalesced top-k query, JSON hits |
//! | `/metrics` | GET | Prometheus text (OpenMetrics + exemplars via `Accept`) |
//! | `/healthz` | GET | liveness probe |
//! | `/info` | GET | snapshot + engine facts, JSON |
//! | `/debug/traces` | GET | sampled traces (JSON span trees) |
//! | `/debug/slow` | GET | slow-query log (JSON span trees) |
//! | `/debug/trace?id=HEX` | GET | one trace by ID |
//! | `/admin/ingest` | POST | apply an edit batch online (delta chain grows) |
//! | `/admin/reload` | POST | hot-swap the snapshot + replay the delta chain (also on SIGHUP) |
//! | `/admin/quit` | POST | graceful drain and exit |
//!
//! ## Tracing
//!
//! Every `/query` carries a 64-bit trace ID — client-assigned via the
//! `x-srs-trace-id` header or server-assigned — and the ID is echoed in
//! the response's `x-srs-trace-id` header either way. With tracing
//! enabled (`--trace-sample N` and/or `--slow-query-ms T`), a sampled
//! or slow request leaves a span tree in the in-memory
//! [`srs_obs::TraceStore`]: a root `request` span covering service time
//! (parse completion → answer, the window the slow-query threshold and
//! the latency histogram both measure) with `queue_linger` and
//! `wave_exec` → per-stage engine children, plus an informational
//! top-level `socket_read` span (which includes keep-alive idle wait),
//! and attributes like `wave_width`, `candidates`, and `waves`.
//! Sampling is a deterministic hash of the trace ID (`splitmix64(id) % N == 0`) — no
//! RNG is consulted, so results are bit-identical with tracing on or
//! off, and replaying a workload reproduces the sample set. When
//! tracing is disabled the per-request cost is one relaxed atomic load
//! plus one branch.
//!
//! Reload is zero-downtime: the new snapshot loads and verifies off to
//! the side, then [`ServingEngine::swap`] switches generations atomically
//! — in-flight waves finish on the old dataset, new waves see the new
//! one, and no request ever fails *spuriously* because a reload happened
//! (a request whose vertex no longer exists in a smaller snapshot gets a
//! clean 400, re-validated against the generation its wave actually
//! pinned — never a panic or a hang). Quit is a drain: accepted queries
//! are answered, new ones get 503, and `run` waits for connection
//! threads to finish writing before returning.

pub mod client;
pub mod dispatch;
pub mod http;
pub mod metrics;
mod signal;
mod sync;

pub use client::{HttpClient, Response};
pub use dispatch::{Coalescer, QueryAnswer, SubmitError};
pub use metrics::ServerMetrics;

use srs_graph::container::{fnv1a64_extend, fold_fingerprints};
use srs_graph::{GraphDelta, VertexId};
use srs_obs::{AttrValue, Trace, TraceIdGen, TraceStore};
use srs_search::engine::WaveQuery;
use srs_search::obs::STAGE_SPANS;
use srs_search::persist::PersistError;
use srs_search::{load_chain, ChainInfo, LoadOptions, QueryOptions, ServingEngine, TopKResult};
use std::collections::HashMap;
use std::io;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted `k` on the query API.
pub const MAX_K: usize = 10_000;

/// Everything `srs serve` configures.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the `.srs` snapshot to serve (also the reload source).
    pub snapshot: PathBuf,
    /// Ordered delta chain to replay on top of the snapshot at startup
    /// (files previously written by `/admin/ingest` or `srs delta`).
    pub deltas: Vec<PathBuf>,
    /// Dilation depth for online ingest (`/admin/ingest`). `None` means
    /// full depth (`T − 1`): every applied delta is bit-identical to a
    /// rebuild. Smaller depths trade freshness-adjacent accuracy for
    /// cheaper applies (see DESIGN.md §5m).
    pub staleness_depth: Option<u32>,
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Engine worker threads (0 = all available parallelism).
    pub threads: usize,
    /// Most queries coalesced into one wave.
    pub max_batch: usize,
    /// Most queries waiting in the dispatch queue before 503.
    pub queue_capacity: usize,
    /// Result-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// `k` used when a query omits the parameter.
    pub default_k: usize,
    /// Per-read socket timeout on accepted connections — an idle
    /// keep-alive peer is closed after this long instead of pinning an
    /// OS thread forever ([`Duration::ZERO`] disables the timeout).
    pub read_timeout: Duration,
    /// Most connections served concurrently; above this, new connections
    /// answer 503 and close instead of spawning unbounded threads.
    pub max_connections: usize,
    /// Deterministic trace sampling: keep 1 in `trace_sample` requests
    /// (0 disables sampling, 1 keeps everything). Keyed on the trace ID
    /// hash, never an RNG.
    pub trace_sample: u64,
    /// Always keep a trace for requests slower than this many
    /// milliseconds (0 disables the slow-query log).
    pub slow_query_ms: u64,
    /// Capacity of the sampled-trace ring.
    pub trace_capacity: usize,
    /// Capacity of the always-keep slow-query ring.
    pub slow_capacity: usize,
    /// Serve the snapshot from a memory map instead of reading it onto
    /// the heap: O(1) startup, pages fault in from the page cache on
    /// demand, and resident cost stays near zero until queries touch
    /// the data. Checksums verify lazily (a background thread sweeps
    /// them off the query path) unless `verify_on_load` is set.
    pub mmap: bool,
    /// With `mmap`, verify every section checksum *before* serving
    /// (trades the O(1) startup for eager corruption detection).
    /// Ignored for heap loads, which always verify eagerly.
    pub verify_on_load: bool,
    /// With `mmap`, touch every mapped page at load time so first
    /// queries never pay major-fault latency (costs startup time
    /// proportional to the snapshot size).
    pub prefault: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            snapshot: PathBuf::new(),
            deltas: Vec::new(),
            staleness_depth: None,
            addr: "127.0.0.1:7171".to_string(),
            threads: 0,
            max_batch: 64,
            queue_capacity: 1024,
            cache_capacity: 4096,
            default_k: 20,
            read_timeout: Duration::from_secs(60),
            max_connections: 1024,
            trace_sample: 0,
            slow_query_ms: 0,
            trace_capacity: 256,
            slow_capacity: 64,
            mmap: false,
            verify_on_load: false,
            prefault: false,
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, address parse).
    Io(io::Error),
    /// The snapshot failed to load or verify.
    Snapshot(PersistError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server i/o error: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot load failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// The served delta chain: which files extend the base snapshot, and the
/// fingerprints that link them. Mutated only under the reload lock (by
/// `/admin/ingest`); reload replays exactly these paths so a restarted or
/// reloaded server serves the same state the chain describes.
struct ChainState {
    /// Delta files in application order (startup chain + ingested).
    paths: Vec<PathBuf>,
    /// Running left-fold over every artifact fingerprint, base first.
    /// [`fold_fingerprints`] is a left fold, so chaining one more delta
    /// is a single [`fnv1a64_extend`] — no need to keep the whole list.
    fold_acc: u64,
    /// The serving-state fingerprint `/info` reports: the base container
    /// fingerprint at depth 0, the fold at depth ≥ 1 — exactly what
    /// [`load_chain`] would compute for this chain.
    fingerprint: u64,
    /// Fingerprint of the last artifact (the next delta's parent).
    tip: u64,
    /// Total recomputed rows across the chain's deltas.
    dirty_total: u64,
    /// Minimum staleness depth across the chain (`u32::MAX` = empty).
    min_staleness_depth: u32,
}

impl ChainState {
    fn from_info(paths: Vec<PathBuf>, chain: &ChainInfo) -> ChainState {
        // At depth ≥ 1 the chain fingerprint *is* the fold accumulator;
        // at depth 0 it is the bare base fingerprint, one fold step shy.
        let fold_acc =
            if chain.depth == 0 { fold_fingerprints([chain.fingerprint]) } else { chain.fingerprint };
        ChainState {
            paths,
            fold_acc,
            fingerprint: chain.fingerprint,
            tip: chain.tip_fingerprint,
            dirty_total: chain.dirty_total,
            min_staleness_depth: chain.min_staleness_depth,
        }
    }

    /// Records one ingested delta at the end of the chain.
    fn push(&mut self, path: PathBuf, delta_fingerprint: u64, recomputed: u64, depth: u32) {
        self.paths.push(path);
        self.fold_acc = fnv1a64_extend(self.fold_acc, &delta_fingerprint.to_le_bytes());
        self.fingerprint = self.fold_acc;
        self.tip = delta_fingerprint;
        self.dirty_total += recomputed;
        self.min_staleness_depth = self.min_staleness_depth.min(depth);
    }

    fn depth(&self) -> u32 {
        self.paths.len() as u32
    }
}

/// The open-connection registry: stream clones keyed by connection id,
/// so shutdown can unblock idle readers and `run` can wait for writers.
#[derive(Default)]
struct ConnTable {
    next_id: u64,
    open: HashMap<u64, TcpStream>,
}

/// State shared by the accept loop, connection threads, the dispatcher,
/// and the SIGHUP watcher.
struct Shared {
    engine: Arc<ServingEngine>,
    coalescer: Arc<Coalescer>,
    metrics: ServerMetrics,
    snapshot: PathBuf,
    /// How the snapshot was loaded at bind time; reloads reuse the same
    /// options so a server started with `--mmap` stays mmap-backed.
    load_opts: LoadOptions,
    /// Whether the serving snapshot is memory-mapped (what the load
    /// actually produced, rendered in `/info`).
    mapped: bool,
    /// Serializes reloads (endpoint + SIGHUP can race).
    reload_lock: Mutex<()>,
    shutdown: AtomicBool,
    started: Instant,
    default_k: usize,
    default_opts: Arc<QueryOptions>,
    /// The bound address, for the self-connect that wakes `accept`.
    addr: SocketAddr,
    /// Per-read socket timeout for accepted connections (ZERO = none).
    read_timeout: Duration,
    /// Concurrent-connection cap (see [`ServerConfig::max_connections`]).
    max_connections: usize,
    conns: Mutex<ConnTable>,
    /// Signaled whenever a connection deregisters (drain waits on this).
    conn_closed: Condvar,
    /// Sampled traces + slow-query log ([`TraceStore::enabled`] is the
    /// whole disabled-path cost).
    traces: TraceStore,
    /// Server-assigned trace IDs (used when the client sends none).
    trace_ids: TraceIdGen,
    /// FNV-1a 64 content hash of the serving state — the base snapshot's
    /// fingerprint, or the folded chain fingerprint once deltas apply
    /// (updated on reload and ingest; rendered in `/info`).
    fingerprint: AtomicU64,
    /// Shard count of the loaded base snapshot's manifest (updated on
    /// reload; rendered in `/info`). Every count serves as one dataset.
    shards: AtomicU32,
    /// The served delta chain (startup chain + `/admin/ingest` appends).
    /// Mutated only under `reload_lock`.
    chain: Mutex<ChainState>,
    /// Dilation depth `/admin/ingest` applies deltas at (`None` = full
    /// depth, `T − 1`).
    ingest_depth: Option<u32>,
}

impl Shared {
    /// Registers an accepted connection, enforcing the cap. Returns the
    /// connection id, or `None` when the server is at capacity (or the
    /// stream handle cannot be duplicated for shutdown bookkeeping).
    fn register_conn(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut conns = sync::lock(&self.conns);
        if conns.open.len() >= self.max_connections {
            return None;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.open.insert(id, clone);
        Some(id)
    }

    fn deregister_conn(&self, id: u64) {
        sync::lock(&self.conns).open.remove(&id);
        self.conn_closed.notify_all();
    }

    /// Unblocks every connection thread parked in a read: half-closing
    /// the read side makes `fill_buf` return EOF, while responses still
    /// in flight keep their intact write side.
    fn shutdown_conn_reads(&self) {
        for stream in sync::lock(&self.conns).open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Waits until every registered connection has deregistered, up to
    /// `grace` — so a response being written when quit lands is flushed
    /// before `run` returns, but a wedged peer cannot hold up exit.
    fn await_connections(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        let mut conns = sync::lock(&self.conns);
        while !conns.open.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = sync::wait_timeout(&self.conn_closed, conns, deadline - now);
            conns = guard;
        }
    }
}

/// The daemon: a bound listener plus everything the request path shares.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Loads the snapshot, builds the engine + dispatcher, and binds the
    /// listen socket. Nothing runs until [`Server::run`].
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        let load_opts = LoadOptions {
            mmap: config.mmap,
            verify_on_load: config.verify_on_load,
            prefault: config.prefault,
        };
        let (dataset, info, chain_info, verifier) = load_chain(&config.snapshot, &config.deltas, &load_opts)?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
        } else {
            config.threads
        };
        let engine = Arc::new(ServingEngine::with_threads(dataset, threads));
        engine.metrics().record_snapshot_load(&info);
        engine.metrics().chain_depth.set(chain_info.depth as u64);
        engine.set_cache_capacity(config.cache_capacity);
        if let Some(verifier) = verifier {
            spawn_background_verify(Arc::clone(&engine), verifier);
        }
        let metrics = ServerMetrics::register_on(engine.metrics().registry());
        metrics.generation.set(engine.generation());
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let coalescer = Arc::new(Coalescer::new(config.queue_capacity, config.max_batch));
        let shared = Arc::new(Shared {
            engine,
            coalescer,
            metrics,
            snapshot: config.snapshot,
            load_opts,
            mapped: info.mapped,
            reload_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            default_k: config.default_k.clamp(1, MAX_K),
            default_opts: Arc::new(QueryOptions::default()),
            addr,
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            conns: Mutex::new(ConnTable::default()),
            conn_closed: Condvar::new(),
            traces: TraceStore::new(
                config.trace_capacity,
                config.slow_capacity,
                config.trace_sample,
                config.slow_query_ms.saturating_mul(1_000_000),
            ),
            trace_ids: TraceIdGen::new(),
            fingerprint: AtomicU64::new(info.fingerprint),
            shards: AtomicU32::new(info.shards),
            chain: Mutex::new(ChainState::from_info(config.deltas, &chain_info)),
            ingest_depth: config.staleness_depth,
        });
        Ok(Server { listener, shared })
    }

    /// The address the server is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving engine (tests compare served answers against direct
    /// engine calls through this).
    pub fn engine(&self) -> Arc<ServingEngine> {
        Arc::clone(&self.shared.engine)
    }

    /// Serves until `POST /admin/quit`: spawns the dispatcher and SIGHUP
    /// watcher, then accepts connections (one thread each, up to the
    /// configured cap). On quit the dispatcher drains every accepted
    /// query, and `run` then waits (bounded grace) for connection threads
    /// to finish writing their responses before returning.
    pub fn run(self) -> io::Result<()> {
        signal::install();
        let dispatcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("srs-dispatch".to_string())
                .spawn(move || shared.coalescer.run(&shared.engine, &shared.metrics))?
        };
        let watcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new().name("srs-sighup".to_string()).spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    if signal::take_pending() {
                        let _ = reload(&shared);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })?
        };
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            self.shared.metrics.connections.inc();
            let Some(id) = self.shared.register_conn(&stream) else {
                // At capacity (or the handle could not be duplicated):
                // shed load with a one-shot 503 instead of spawning.
                self.shared.metrics.response(503);
                let mut stream = stream;
                let _ = http::write_response(
                    &mut stream,
                    503,
                    "application/json",
                    b"{\"error\":\"too many connections\"}",
                    false,
                );
                continue;
            };
            self.shared.metrics.connections_active.inc();
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("srs-conn".to_string())
                .spawn(move || handle_connection(shared, stream, id));
            if spawned.is_err() {
                self.shared.deregister_conn(id);
                self.shared.metrics.connections_active.dec();
            }
        }
        self.shared.coalescer.close();
        let _ = dispatcher.join();
        let _ = watcher.join();
        // Every accepted query has been answered by now; give the
        // connection threads a bounded grace to flush those responses so
        // process exit cannot truncate a drained query's answer.
        self.shared.await_connections(Duration::from_secs(5));
        Ok(())
    }
}

/// One computed response, plus whether it triggers the drain.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    quit: bool,
    /// Trace ID echoed as an `x-srs-trace-id` response header (0 = no
    /// header; only `/query` replies carry one).
    trace_id: u64,
}

fn json_reply(status: u16, body: String) -> Reply {
    Reply { status, content_type: "application/json", body, quit: false, trace_id: 0 }
}

fn error_reply(status: u16, message: &str) -> Reply {
    json_reply(status, format!("{{\"error\":{}}}", json_escape(message)))
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    if !shared.read_timeout.is_zero() {
        // An idle keep-alive (or slowloris) peer hits this and the read
        // errors out below, closing the connection — threads are only
        // pinned by peers actually talking.
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
    }
    let mut reader = BufReader::new(stream);
    // The one tracing branch the untraced path pays (the load inside
    // `enabled` is the one atomic). The store's config is immutable, so
    // hoisting the check out of the loop is sound.
    let tracing = shared.traces.enabled();
    loop {
        // With tracing on, this timestamp anchors the `socket_read`
        // span; on a keep-alive connection it also counts the idle wait
        // for the next request, which is exactly what a client-side
        // stall looks like and is worth seeing in the trace. It is
        // informational only: the slow-query threshold and the trace's
        // root duration start at parse completion, so pooled-connection
        // idle time can never mark a request slow.
        let read_start_ns = if tracing { srs_obs::now_ns() } else { 0 };
        match http::read_request(&mut reader) {
            Ok(None) | Err(http::ParseError::Io(_)) => break,
            Err(http::ParseError::Malformed(reason)) => {
                // Malformed framing: answer 400 and close — the stream
                // position is unreliable after a parse failure.
                let reply = error_reply(400, reason);
                let _ = write_reply(&shared, reader.get_mut(), &reply, false);
                break;
            }
            Ok(Some(req)) => {
                let reply = route(&shared, &req, read_start_ns);
                let keep = req.keep_alive && !reply.quit && !shared.shutdown.load(Ordering::SeqCst);
                let written = write_reply(&shared, reader.get_mut(), &reply, keep);
                if reply.quit {
                    begin_shutdown(&shared);
                }
                if written.is_err() || !keep {
                    break;
                }
            }
        }
    }
    shared.deregister_conn(conn_id);
    shared.metrics.connections_active.dec();
}

fn write_reply(shared: &Shared, w: &mut TcpStream, reply: &Reply, keep_alive: bool) -> io::Result<()> {
    shared.metrics.response(reply.status);
    if reply.trace_id != 0 {
        let id = srs_obs::format_trace_id(reply.trace_id);
        return http::write_response_ext(
            w,
            reply.status,
            reply.content_type,
            reply.body.as_bytes(),
            keep_alive,
            &[("x-srs-trace-id", &id)],
        );
    }
    http::write_response(w, reply.status, reply.content_type, reply.body.as_bytes(), keep_alive)
}

/// Flags the drain, wakes the blocking `accept` with a self-connect so
/// `run` can observe the flag, and half-closes the read side of every
/// open connection so threads parked on an idle keep-alive read exit
/// promptly (their write sides stay intact for in-flight responses).
/// Idempotent.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.coalescer.close();
    shared.shutdown_conn_reads();
    let _ = TcpStream::connect(shared.addr);
}

fn route(shared: &Shared, req: &http::Request, read_start_ns: u64) -> Reply {
    shared.metrics.requests.inc();
    match req.path.as_str() {
        "/query" => match req.method.as_str() {
            "GET" => query_reply(shared, req, read_start_ns),
            _ => error_reply(405, "use GET /query"),
        },
        "/metrics" => match req.method.as_str() {
            "GET" => {
                shared.metrics.uptime.set(shared.started.elapsed().as_secs());
                let snapshot = shared.engine.metrics().snapshot();
                // Exemplars are only legal in OpenMetrics, so the
                // scraper opts in via `Accept`; the legacy text format
                // stays exemplar-free or a real Prometheus scrape of it
                // would fail outright.
                let (content_type, body) = if req.wants_openmetrics {
                    ("application/openmetrics-text; version=1.0.0; charset=utf-8", snapshot.to_openmetrics())
                } else {
                    ("text/plain; version=0.0.4", snapshot.to_prometheus())
                };
                Reply { status: 200, content_type, body, quit: false, trace_id: 0 }
            }
            _ => error_reply(405, "use GET /metrics"),
        },
        "/healthz" => match req.method.as_str() {
            "GET" => Reply {
                status: 200,
                content_type: "text/plain",
                body: "ok\n".to_string(),
                quit: false,
                trace_id: 0,
            },
            _ => error_reply(405, "use GET /healthz"),
        },
        "/info" => match req.method.as_str() {
            "GET" => json_reply(200, info_json(shared)),
            _ => error_reply(405, "use GET /info"),
        },
        "/debug/traces" => match req.method.as_str() {
            "GET" => json_reply(200, TraceStore::render_json(&shared.traces.traces())),
            _ => error_reply(405, "use GET /debug/traces"),
        },
        "/debug/slow" => match req.method.as_str() {
            "GET" => json_reply(200, TraceStore::render_json(&shared.traces.slow())),
            _ => error_reply(405, "use GET /debug/slow"),
        },
        "/debug/trace" => match req.method.as_str() {
            "GET" => {
                let id =
                    req.params.iter().find(|(k, _)| k == "id").and_then(|(_, v)| srs_obs::parse_trace_id(v));
                match id {
                    None => error_reply(400, "missing or malformed id parameter (16 hex digits)"),
                    Some(id) => match shared.traces.find(id) {
                        Some(t) => json_reply(200, t.to_json()),
                        None => error_reply(404, "no trace with that id (evicted or never sampled)"),
                    },
                }
            }
            _ => error_reply(405, "use GET /debug/trace"),
        },
        "/admin/ingest" => match req.method.as_str() {
            "POST" => ingest_reply(shared, req),
            _ => error_reply(405, "use POST /admin/ingest"),
        },
        "/admin/reload" => match req.method.as_str() {
            "POST" => match reload(shared) {
                Ok(generation) => json_reply(200, format!("{{\"generation\":{generation}}}")),
                Err(message) => error_reply(500, &message),
            },
            _ => error_reply(405, "use POST /admin/reload"),
        },
        "/admin/quit" => match req.method.as_str() {
            "POST" => Reply {
                status: 200,
                content_type: "application/json",
                body: "{\"draining\":true}".to_string(),
                quit: true,
                trace_id: 0,
            },
            _ => error_reply(405, "use POST /admin/quit"),
        },
        _ => error_reply(404, "no such endpoint"),
    }
}

fn query_reply(shared: &Shared, req: &http::Request, read_start_ns: u64) -> Reply {
    let tracing = shared.traces.enabled();
    // The request's trace ID: the client's if it sent one (so it can
    // pre-share the ID with `/debug/trace`), a fresh server ID when
    // tracing is on, or 0 (no ID, no header) on the untraced fast path.
    let trace_id = req.trace_id.unwrap_or_else(|| if tracing { shared.trace_ids.next_id() } else { 0 });
    let mut reply = query_reply_inner(shared, req, trace_id, read_start_ns);
    reply.trace_id = trace_id;
    reply
}

fn query_reply_inner(shared: &Shared, req: &http::Request, trace_id: u64, read_start_ns: u64) -> Reply {
    let started = Instant::now();
    let tracing = shared.traces.enabled();
    let parsed_ns = if tracing { srs_obs::now_ns() } else { 0 };
    let mut vertex: Option<u64> = None;
    let mut k = shared.default_k;
    for (key, value) in &req.params {
        match key.as_str() {
            "u" | "vertex" => match value.parse::<u64>() {
                Ok(v) => vertex = Some(v),
                Err(_) => return error_reply(400, "parameter u must be a non-negative vertex id"),
            },
            "k" => match value.parse::<usize>() {
                Ok(v) if (1..=MAX_K).contains(&v) => k = v,
                _ => return error_reply(400, "parameter k must be an integer in 1..=10000"),
            },
            other => return error_reply(400, &format!("unknown parameter: {other}")),
        }
    }
    let Some(vertex) = vertex else {
        return error_reply(400, "missing required parameter u");
    };
    // Fast-path validation against the current dataset. This check is
    // advisory only — a reload can swap in a smaller snapshot between
    // here and the wave — so the engine re-validates against the
    // generation the wave actually pins (`QueryAnswer::out_of_range`).
    let vertices = shared.engine.dataset().graph().num_vertices() as u64;
    if vertex >= vertices {
        return error_reply(400, &format!("vertex {vertex} out of range (graph has {vertices} vertices)"));
    }
    let m = &shared.metrics;
    m.inflight.inc();
    let submitted = shared.coalescer.submit(WaveQuery {
        vertex: vertex as VertexId,
        k,
        opts: Arc::clone(&shared.default_opts),
    });
    // Nonzero only once a span tree for this request is actually in the
    // store — the latency exemplar must name an ID that resolves.
    let mut recorded_id = 0u64;
    let reply = match submitted {
        Err(SubmitError::Full) => error_reply(503, "dispatch queue full"),
        Err(SubmitError::Closed) => error_reply(503, "server is draining"),
        Ok(rx) => match rx.recv() {
            Ok(answer) if answer.out_of_range => error_reply(
                400,
                &format!("vertex {vertex} out of range (snapshot generation {})", answer.generation),
            ),
            // The generation is the one the answering wave pinned, so a
            // reload landing mid-request can never mislabel old-dataset
            // hits with the new generation number.
            Ok(answer) => {
                // Span assembly happens here, *after* the answer is
                // computed — tracing reads durations the pipeline
                // already measured; it never sits on the compute path.
                if tracing {
                    let done_ns = srs_obs::now_ns();
                    // The slow threshold measures service time (parse
                    // completion → answer), matching the latency
                    // histogram — the idle wait a pooled keep-alive
                    // connection spends between requests is visible in
                    // the informational `socket_read` span but must
                    // never mark the next request slow.
                    let service_ns = done_ns.saturating_sub(parsed_ns);
                    if shared.traces.wants(trace_id, service_ns) {
                        shared.traces.record(build_trace(
                            trace_id,
                            read_start_ns,
                            parsed_ns,
                            done_ns,
                            &answer,
                            vertex,
                            k,
                        ));
                        recorded_id = trace_id;
                    }
                }
                json_reply(200, query_json(vertex, k, answer.generation, &answer.result))
            }
            Err(_) => error_reply(500, "dispatcher dropped the query"),
        },
    };
    m.inflight.dec();
    // The max-latency observation carries the trace ID as an exemplar,
    // so the p99 outlier on the histogram names the trace explaining it.
    // `recorded_id` is 0 unless this request's span tree was actually
    // stored: error replies, sampled-out requests, and client-supplied
    // IDs on an untraced server (tracing off) leave the exemplar alone,
    // so the exemplar always points at a retrievable trace and a client
    // header can never steer `/metrics` output.
    m.request_latency.observe_exemplar(started.elapsed().as_nanos() as u64, recorded_id);
    reply
}

/// Assembles the span tree for one answered query.
///
/// The root `request` span covers *service time* — parse completion to
/// answer — so `Trace::duration_ns` (what the slow log thresholds
/// against and `/debug` reports) agrees with the request latency
/// histogram. `socket_read` is a top-level sibling, not part of the
/// root: on a keep-alive connection it includes the idle wait for the
/// request's first byte, which is client time worth *seeing* in a trace
/// but never server time to alarm on.
///
/// Span durations are real measurements: the request/socket/linger/wave
/// windows come from `now_ns` reads on this thread and the dispatcher,
/// and the engine-stage durations are the same `Instant` reads that
/// feed `srs_query_stage_ns`. Stage *offsets* inside the wave are
/// synthesized sequentially from the wave start — within a wave the
/// engine interleaves many queries' stages across workers, so only the
/// durations (not the absolute stage start times) are faithful.
fn build_trace(
    trace_id: u64,
    read_start_ns: u64,
    parsed_ns: u64,
    done_ns: u64,
    answer: &QueryAnswer,
    vertex: u64,
    k: usize,
) -> Trace {
    let mut t = Trace::new(trace_id);
    let root = t.push_span("request", parsed_ns, done_ns.saturating_sub(parsed_ns), None);
    t.attr(root, "vertex", AttrValue::U64(vertex));
    t.attr(root, "k", AttrValue::U64(k as u64));
    t.attr(root, "generation", AttrValue::U64(answer.generation));
    t.push_span("socket_read", read_start_ns, parsed_ns.saturating_sub(read_start_ns), None);
    t.push_span("queue_linger", parsed_ns, answer.wave_started_ns.saturating_sub(parsed_ns), Some(root));
    let wave = t.push_span(
        "wave_exec",
        answer.wave_started_ns,
        answer.wave_ended_ns.saturating_sub(answer.wave_started_ns),
        Some(root),
    );
    let stats = &answer.result.stats;
    t.attr(wave, "wave_width", AttrValue::U64(answer.wave_width as u64));
    t.attr(wave, "candidates", AttrValue::U64(stats.candidates));
    t.attr(wave, "waves", AttrValue::U64(stats.waves));
    let mut cursor = answer.wave_started_ns;
    for (name, &ns) in STAGE_SPANS.iter().zip(&answer.result.timings.stages) {
        t.push_span(name, cursor, ns, Some(wave));
        cursor += ns;
    }
    t
}

/// Sweeps a lazily-loaded snapshot's checksums on a detached thread, so
/// corruption surfaces promptly without ever sitting on the query path.
/// On success the sections gauge catches up to the verified count; on
/// failure the verdict is logged (queries stay structurally safe either
/// way — load-time range validation already bounded every array).
fn spawn_background_verify(engine: Arc<ServingEngine>, verifier: srs_search::SnapshotVerifier) {
    let spawned = std::thread::Builder::new().name("srs-verify".to_string()).spawn(move || {
        match verifier.verify_all() {
            Ok(n) => engine.metrics().snapshot_sections.set(n as u64),
            Err(e) => eprintln!("srs-serve: background snapshot verification failed: {e}"),
        }
    });
    if let Err(e) = spawned {
        eprintln!("srs-serve: could not spawn background verifier: {e}");
    }
}

/// The path `/admin/ingest` persists chain link `k` (1-based) under:
/// the base snapshot path with a `.d{k:04}` suffix appended, so chain
/// files sort in application order next to their base.
fn delta_path(base: &std::path::Path, k: u32) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".d{k:04}"));
    PathBuf::from(name)
}

/// `POST /admin/ingest`: applies one edit batch to the served graph.
///
/// The body is either the [`GraphDelta`] text format (`+ u v` / `- u v` /
/// `grow n` lines) or the `SRSEDIT1` binary serialization (sniffed by
/// magic). An optional `depth=N` query parameter overrides the server's
/// configured staleness depth for this batch. The whole operation runs
/// under the reload lock: the index is repaired incrementally
/// ([`ServingEngine::apply_delta`]), the delta bundle is persisted next to
/// the base snapshot, and the chain state advances — so a concurrent (or
/// later) reload replays exactly what is now serving. In-flight queries
/// drain against the pre-edit generation; nothing is dropped.
fn ingest_reply(shared: &Shared, req: &http::Request) -> Reply {
    let mut depth_override = None;
    for (key, value) in &req.params {
        match key.as_str() {
            "depth" => match value.parse::<u32>() {
                Ok(d) => depth_override = Some(d),
                Err(_) => return error_reply(400, "parameter depth must be a non-negative integer"),
            },
            other => return error_reply(400, &format!("unknown parameter: {other}")),
        }
    }
    let batch = if req.body.starts_with(srs_graph::delta::EDIT_MAGIC) {
        GraphDelta::from_bytes(&req.body)
    } else {
        match std::str::from_utf8(&req.body) {
            Ok(text) => GraphDelta::parse_text(text),
            Err(_) => return error_reply(400, "body is neither SRSEDIT1 binary nor UTF-8 edit text"),
        }
    };
    let batch = match batch {
        Ok(b) if b.is_empty() => return error_reply(400, "empty edit batch"),
        Ok(b) => b,
        Err(e) => return error_reply(400, &format!("bad edit batch: {e}")),
    };

    let _guard = sync::lock(&shared.reload_lock);
    let mut chain = sync::lock(&shared.chain);
    let depth = depth_override.or(shared.ingest_depth).unwrap_or_else(|| {
        let t = shared.engine.dataset().index().params().t;
        t.saturating_sub(1)
    });
    let applied = match shared.engine.apply_delta(&batch, depth, chain.tip) {
        Ok(a) => a,
        Err(e) => {
            shared.metrics.ingest_failures.inc();
            return error_reply(400, &format!("ingest failed: {e}"));
        }
    };
    // The engine is already serving the edited graph; persist the chain
    // link so reloads and restarts replay it. A write failure leaves the
    // served state ahead of the on-disk chain — report it loudly (a
    // reload would revert the batch) and do not advance the chain.
    let path = delta_path(&shared.snapshot, chain.depth() + 1);
    if let Err(e) = std::fs::write(&path, &applied.bytes) {
        shared.metrics.ingest_failures.inc();
        return error_reply(
            500,
            &format!(
                "edits applied in memory (generation {}) but persisting {} failed: {e}; \
                 reload will revert this batch",
                applied.generation,
                path.display()
            ),
        );
    }
    let recomputed = applied.stats.appended as u64 + applied.stats.dirty as u64;
    chain.push(path.clone(), applied.fingerprint, recomputed, depth);
    shared.fingerprint.store(chain.fingerprint, Ordering::Relaxed);
    shared.engine.metrics().chain_depth.set(chain.depth() as u64);
    shared.metrics.generation.set(applied.generation);
    shared.metrics.ingests.inc();
    json_reply(
        200,
        format!(
            "{{\"generation\":{},\"chain_depth\":{},\"staleness_depth\":{depth},\"appended\":{},\"dirty\":{},\"reused\":{},\"fingerprint\":\"{:016x}\",\"delta\":{}}}",
            applied.generation,
            chain.depth(),
            applied.stats.appended,
            applied.stats.dirty,
            applied.stats.reused,
            chain.fingerprint,
            json_escape(&path.display().to_string()),
        ),
    )
}

/// Reloads the snapshot from disk (with the same load options as bind),
/// replays the current delta chain on top, and hot-swaps the engine.
/// Serialized — concurrent reload requests (endpoint + SIGHUP) apply one
/// at a time, and never interleave with an ingest. The shard count may
/// change across a reload. On failure the old dataset keeps serving
/// untouched.
fn reload(shared: &Shared) -> Result<u64, String> {
    let _guard = sync::lock(&shared.reload_lock);
    let chain_paths = sync::lock(&shared.chain).paths.clone();
    let swapped = load_chain(&shared.snapshot, &chain_paths, &shared.load_opts).map(
        |(dataset, info, chain_info, verifier)| {
            shared.engine.swap(dataset);
            (info, chain_info, verifier)
        },
    );
    match swapped {
        Ok((info, chain_info, verifier)) => {
            // The base file may have been replaced: the chain state (the
            // next delta's parent above all) follows what was loaded.
            *sync::lock(&shared.chain) = ChainState::from_info(chain_paths, &chain_info);
            shared.engine.metrics().record_snapshot_load(&info);
            shared.engine.metrics().chain_depth.set(chain_info.depth as u64);
            if let Some(verifier) = verifier {
                spawn_background_verify(Arc::clone(&shared.engine), verifier);
            }
            shared.fingerprint.store(info.fingerprint, Ordering::Relaxed);
            shared.shards.store(info.shards, Ordering::Relaxed);
            let generation = shared.engine.generation();
            shared.metrics.generation.set(generation);
            shared.metrics.reloads.inc();
            Ok(generation)
        }
        Err(e) => {
            shared.metrics.reload_failures.inc();
            Err(format!("snapshot reload failed: {e}"))
        }
    }
}

fn query_json(vertex: u64, k: usize, generation: u64, result: &TopKResult) -> String {
    let mut out = format!("{{\"vertex\":{vertex},\"k\":{k},\"generation\":{generation},\"hits\":[");
    for (i, hit) in result.hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"vertex\":{},\"score\":{}}}", hit.vertex, hit.score));
    }
    out.push_str("]}");
    out
}

fn info_json(shared: &Shared) -> String {
    let dataset = shared.engine.dataset();
    let (chain_depth, tip, dirty_total, min_depth) = {
        let chain = sync::lock(&shared.chain);
        (chain.depth(), chain.tip, chain.dirty_total, chain.min_staleness_depth)
    };
    // `u32::MAX` marks an empty chain — render it as null, not a number.
    let min_depth_json = if min_depth == u32::MAX { "null".to_string() } else { min_depth.to_string() };
    format!(
        "{{\"vertices\":{},\"edges\":{},\"generation\":{},\"threads\":{},\"shards\":{},\"mapped\":{},\"cache_capacity\":{},\"snapshot\":{},\"uptime_s\":{},\"version\":{},\"fingerprint\":\"{:016x}\",\"chain_depth\":{chain_depth},\"tip_fingerprint\":\"{tip:016x}\",\"chain_dirty_total\":{dirty_total},\"min_staleness_depth\":{min_depth_json},\"trace_sample\":{},\"slow_query_ms\":{}}}",
        dataset.graph().num_vertices(),
        dataset.graph().num_edges(),
        shared.engine.generation(),
        shared.engine.threads(),
        shared.shards.load(Ordering::Relaxed),
        shared.mapped,
        shared.engine.cache_capacity(),
        json_escape(&shared.snapshot.display().to_string()),
        shared.started.elapsed().as_secs(),
        json_escape(env!("CARGO_PKG_VERSION")),
        shared.fingerprint.load(Ordering::Relaxed),
        shared.traces.sample_n(),
        shared.traces.slow_threshold_ns() / 1_000_000,
    )
}

/// JSON string literal (quotes included) with minimal escaping.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_search::Hit;

    #[test]
    fn query_json_shape() {
        let result = TopKResult {
            hits: vec![Hit { vertex: 3, score: 0.5 }, Hit { vertex: 9, score: 0.125 }],
            ..Default::default()
        };
        let json = query_json(7, 2, 4, &result);
        assert_eq!(
            json,
            "{\"vertex\":7,\"k\":2,\"generation\":4,\"hits\":[{\"vertex\":3,\"score\":0.5},{\"vertex\":9,\"score\":0.125}]}"
        );
        let empty = query_json(0, 5, 1, &TopKResult::default());
        assert_eq!(empty, "{\"vertex\":0,\"k\":5,\"generation\":1,\"hits\":[]}");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn poisoned_locks_do_not_take_the_daemon_down() {
        let g = srs_graph::gen::copying_web(200, 4, 0.8, 8);
        let params = srs_search::SimRankParams { r_bounds: 2_000, ..Default::default() };
        let idx = srs_search::TopKIndex::build(&g, &params, 7);
        let snapshot = std::env::temp_dir().join(format!("srs_serve_{}_poison.srs", std::process::id()));
        std::fs::write(&snapshot, srs_search::snapshot::pack_to_bytes(&g, &idx)).unwrap();
        let config = ServerConfig {
            snapshot: snapshot.clone(),
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).unwrap();
        // A thread panics while holding the connection table (taken by
        // every connection) and the delta chain (taken by `/info`).
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _conns = sync::lock(&shared.conns);
            let _chain = sync::lock(&shared.chain);
            panic!("poisoning the connection table and the chain");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.conns.is_poisoned() && server.shared.chain.is_poisoned());
        let engine = server.engine();
        let expected = query_json(5, 3, engine.generation(), &engine.query(5, 3, &QueryOptions::default()));
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut c = HttpClient::connect(addr).unwrap();
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        let r = c.get("/query?u=5&k=3").unwrap();
        assert_eq!((r.status, r.body_str().into_owned()), (200, expected));
        assert_eq!(c.get("/info").unwrap().status, 200);
        assert_eq!(c.post("/admin/quit").unwrap().status, 200);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&snapshot);
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert_eq!(c.addr, "127.0.0.1:7171");
        assert_eq!(c.max_batch, 64);
        assert!(c.queue_capacity >= c.max_batch);
        assert!(c.cache_capacity > 0);
        assert!((1..=MAX_K).contains(&c.default_k));
        assert_eq!(c.trace_sample, 0, "tracing is opt-in");
        assert_eq!(c.slow_query_ms, 0, "slow log is opt-in");
        assert!(c.trace_capacity > 0 && c.slow_capacity > 0);
    }

    #[test]
    fn build_trace_covers_every_layer() {
        let answer = QueryAnswer {
            result: TopKResult {
                hits: vec![Hit { vertex: 2, score: 0.25 }],
                stats: srs_search::QueryStats { candidates: 10, waves: 3, ..Default::default() },
                timings: srs_search::StageTimings { stages: [100, 200, 300, 50] },
                ..Default::default()
            },
            generation: 4,
            out_of_range: false,
            wave_started_ns: 2_000,
            wave_ended_ns: 9_000,
            wave_width: 5,
        };
        let t = build_trace(0xabc, 1_000, 1_500, 10_000, &answer, 7, 3);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "request",
                "socket_read",
                "queue_linger",
                "wave_exec",
                "stage:enumerate",
                "stage:bounds",
                "stage:scan",
                "stage:collect"
            ],
            "one span per layer, four engine stages"
        );
        assert_eq!(t.duration_ns(), 8_500, "root covers parse → answer (service time)");
        assert_eq!(t.spans[0].start_ns, 1_500, "root starts at parse completion");
        // socket_read is an informational top-level sibling (it includes
        // keep-alive idle wait, which must not count as service time);
        // queue_linger + wave_exec partition the root.
        assert_eq!(t.spans[1].dur_ns, 500);
        assert_eq!(t.spans[1].parent, None, "socket_read is not part of the request window");
        assert_eq!(t.spans[2].dur_ns, 500, "parse → wave start is the linger");
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].dur_ns, 7_000);
        // Stage spans tile the wave sequentially with real durations.
        assert_eq!(t.spans[4].start_ns, 2_000);
        assert_eq!(t.spans[5].start_ns, 2_100);
        assert!(t.spans[4..].iter().all(|s| s.parent == Some(3)));
        let json = t.to_json();
        for attr in ["\"wave_width\": 5", "\"candidates\": 10", "\"waves\": 3"] {
            assert!(json.contains(attr), "missing {attr} in {json}");
        }
    }
}
