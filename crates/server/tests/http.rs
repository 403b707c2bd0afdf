//! End-to-end tests over a real listening socket: served answers must be
//! bit-identical to direct engine calls, queued queries must coalesce
//! into full waves, and a snapshot reload under sustained traffic must
//! drop nothing.

use srs_graph::gen;
use srs_search::{snapshot, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use srs_serve::{HttpClient, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn write_snapshot(path: &Path, n: u32) {
    let g = gen::copying_web(n, 4, 0.8, 8);
    let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
    let idx = TopKIndex::build(&g, &params, 7);
    let f = std::fs::File::create(path).unwrap();
    snapshot::pack(&g, &idx, 1, std::io::BufWriter::new(f)).unwrap();
}

fn fixture_snapshot(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("srs_serve_{}_{name}.srs", std::process::id()));
    write_snapshot(&path, 300);
    path
}

fn config(snapshot: &Path) -> ServerConfig {
    ServerConfig { snapshot: snapshot.to_path_buf(), addr: "127.0.0.1:0".into(), ..ServerConfig::default() }
}

struct Running {
    addr: SocketAddr,
    engine: Arc<ServingEngine>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServerConfig) -> Running {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr();
    let engine = server.engine();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, engine, handle }
}

fn quit(r: Running) {
    let mut c = HttpClient::connect(r.addr.to_string()).unwrap();
    assert_eq!(c.post("/admin/quit").unwrap().status, 200);
    r.handle.join().unwrap().unwrap();
}

/// The exact body `/query` must answer, built from a direct engine call
/// (the server adds nothing but JSON framing — same seeds, same walks).
fn expected_body(engine: &ServingEngine, u: u32, k: usize) -> String {
    let result = engine.query(u, k, &QueryOptions::default());
    let mut body = format!("{{\"vertex\":{u},\"k\":{k},\"generation\":{},\"hits\":[", engine.generation());
    for (i, h) in result.hits.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"vertex\":{},\"score\":{}}}", h.vertex, h.score));
    }
    body.push_str("]}");
    body
}

#[test]
fn concurrent_clients_match_direct_engine_calls() {
    let snap = fixture_snapshot("identical");
    let r = start(config(&snap));
    let engine = Arc::clone(&r.engine);
    let addr = r.addr;
    // 6 clients, each querying its own slice concurrently over keep-alive
    // connections; every body must equal the direct engine answer.
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        for w in 0..clients {
            let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr.to_string()).unwrap();
                barrier.wait();
                for i in 0..20u32 {
                    let u = (w as u32 * 41 + i * 7) % 300;
                    let k = 3 + (i as usize % 3) * 4;
                    let resp = c.get(&format!("/query?u={u}&k={k}")).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    assert_eq!(resp.body_str(), expected_body(&engine, u, k), "u={u} k={k}");
                }
            });
        }
    });
    // The same vertex was asked repeatedly across clients, so the
    // generation-keyed result cache must have hits by now.
    let m = engine.metrics().snapshot();
    assert!(m.counter_total("srs_cache_hits_total") > 0, "cache never hit");
    quit(r);
    std::fs::remove_file(&snap).ok();
}

#[test]
fn concurrent_requests_coalesce_into_waves() {
    let snap = fixture_snapshot("coalesce");
    let mut cfg = config(&snap);
    cfg.max_batch = 64;
    let r = start(cfg);
    let engine = Arc::clone(&r.engine);
    let addr = r.addr;
    let clients = 8;
    let rounds = 4u32;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        for w in 0..clients {
            let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr.to_string()).unwrap();
                for i in 0..rounds {
                    barrier.wait();
                    let u = (w as u32 * 37 + i * 11) % 300;
                    let resp = c.get(&format!("/query?u={u}&k=5")).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    assert_eq!(resp.body_str(), expected_body(&engine, u, 5), "u={u}");
                }
            });
        }
    });
    // How the 32 queries split into waves depends on arrival timing;
    // `queued_submissions_coalesce_into_full_waves` pins the split. Here
    // every query went through exactly one wave.
    let total = (clients as u64) * (rounds as u64);
    let m = r.engine.metrics().snapshot();
    let waves = m.counter_total("srs_server_waves_total");
    assert!((1..=total).contains(&waves), "{total} queries in {waves} waves");
    let prom = m.to_prometheus();
    assert!(prom.contains(&format!("srs_server_queue_wait_ns_count {total}\n")), "{prom}");
    assert!(prom.contains("srs_server_wave_size"), "missing wave-size family:\n{prom}");
    quit(r);
    std::fs::remove_file(&snap).ok();
}

/// Batch while busy, without racing the dispatcher: queries queued
/// before it runs are served in ⌈N / max_batch⌉ full waves, and a query
/// arriving at an idle dispatcher is served at once as a wave of 1.
#[test]
fn queued_submissions_coalesce_into_full_waves() {
    use srs_search::engine::WaveQuery;
    use srs_serve::{Coalescer, ServerMetrics};

    let snap = fixture_snapshot("waves");
    let (dataset, _info) = srs_search::Dataset::load(&snap).unwrap();
    let engine = Arc::new(ServingEngine::new(dataset));
    let metrics = ServerMetrics::register_on(engine.metrics().registry());
    let max_batch = 4;
    let coalescer = Arc::new(Coalescer::new(64, max_batch));
    let opts = Arc::new(QueryOptions::default());
    // Two k values, so a wave splits into two engine batches while its
    // width still counts every query in it.
    let queries: Vec<(u32, usize)> = (0..10u32).map(|i| ((i * 29) % 300, 5 + 5 * (i as usize % 2))).collect();
    let pending: Vec<_> = queries
        .iter()
        .map(|&(vertex, k)| coalescer.submit(WaveQuery { vertex, k, opts: Arc::clone(&opts) }).unwrap())
        .collect();
    assert_eq!(coalescer.depth(), queries.len());
    let dispatcher = {
        let (coalescer, engine) = (Arc::clone(&coalescer), Arc::clone(&engine));
        std::thread::spawn(move || coalescer.run(&engine, &metrics))
    };
    let same_bits = |got: &srs_search::TopKResult, vertex: u32, k: usize| {
        let solo = engine.query(vertex, k, &QueryOptions::default());
        let bits = |r: &srs_search::TopKResult| -> Vec<(u32, u64)> {
            r.hits.iter().map(|h| (h.vertex, h.score.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(&solo), "u={vertex} k={k}");
    };
    let mut widths = Vec::new();
    for (rx, &(vertex, k)) in pending.iter().zip(&queries) {
        let answer = rx.recv_timeout(Duration::from_secs(10)).expect("queued query never answered");
        assert!(!answer.out_of_range);
        same_bits(&answer.result, vertex, k);
        widths.push(answer.wave_width);
    }
    assert_eq!(widths, [4, 4, 4, 4, 4, 4, 4, 4, 2, 2]);
    let m = engine.metrics().snapshot();
    assert_eq!(m.counter_total("srs_server_waves_total"), queries.len().div_ceil(max_batch) as u64);

    let lone = coalescer.submit(WaveQuery { vertex: 7, k: 5, opts }).unwrap();
    let answer = lone.recv_timeout(Duration::from_secs(10)).expect("lone query never answered");
    assert_eq!(answer.wave_width, 1);
    same_bits(&answer.result, 7, 5);
    let m = engine.metrics().snapshot();
    assert_eq!(m.counter_total("srs_server_waves_total"), 4);
    assert!(m.to_prometheus().contains("srs_server_queue_wait_ns_count 11\n"));
    coalescer.close();
    dispatcher.join().unwrap();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn reload_under_traffic_drops_nothing() {
    let snap = fixture_snapshot("reload");
    let r = start(config(&snap));
    let addr = r.addr;
    let generation_before = r.engine.generation();
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let reloads = 3u64;
    std::thread::scope(|scope| {
        // 4 clients hammer /query until told to stop; every response must
        // be a 200 — a reload may never surface as an error.
        for w in 0..4u32 {
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr.to_string()).unwrap();
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let u = (w * 53 + i * 13) % 300;
                    let resp = c.get(&format!("/query?u={u}&k=5")).unwrap();
                    assert_eq!(resp.status, 200, "query failed during reload: {}", resp.body_str());
                    i += 1;
                }
                served.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        // Meanwhile: repeated hot reloads of the same snapshot file.
        let mut admin = HttpClient::connect(addr.to_string()).unwrap();
        for _ in 0..reloads {
            std::thread::sleep(Duration::from_millis(40));
            let resp = admin.post("/admin/reload").unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
        }
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(served.load(Ordering::Relaxed) > 0, "traffic threads never got a query through");
    assert_eq!(r.engine.generation(), generation_before + reloads, "each reload advances the generation");
    let m = r.engine.metrics().snapshot();
    assert_eq!(m.counter_total("srs_server_reloads_total"), reloads);
    assert_eq!(m.counter_total("srs_server_responses_total"), {
        // Every recorded response so far is a 200 (traffic + admin).
        m.to_prometheus()
            .lines()
            .filter_map(|l| l.strip_prefix("srs_server_responses_total{code=\"200\"} "))
            .map(|v| v.parse::<u64>().unwrap())
            .sum()
    });
    quit(r);
    std::fs::remove_file(&snap).ok();
}

/// The TOCTOU regression: a vertex validated against one generation can
/// reach the dispatcher after a reload shrank the graph. The wave must
/// flag it (never index out of range), and the dispatcher must stay
/// alive for every later query.
#[test]
fn dispatcher_survives_stale_vertex_validation() {
    use srs_search::engine::WaveQuery;
    use srs_serve::{Coalescer, ServerMetrics};

    let snap = fixture_snapshot("stale");
    let (dataset, _info) = srs_search::Dataset::load(&snap).unwrap();
    let engine = Arc::new(ServingEngine::new(dataset));
    let metrics = ServerMetrics::register_on(engine.metrics().registry());
    let coalescer = Arc::new(Coalescer::new(16, 8));
    let dispatcher = {
        let (coalescer, engine) = (Arc::clone(&coalescer), Arc::clone(&engine));
        std::thread::spawn(move || coalescer.run(&engine, &metrics))
    };
    let opts = Arc::new(QueryOptions::default());
    // Simulates a submitter whose validation raced a shrinking reload:
    // the vertex is far beyond the 300-vertex graph.
    let stale = coalescer.submit(WaveQuery { vertex: 1_000_000, k: 5, opts: Arc::clone(&opts) }).unwrap();
    let answer = stale.recv_timeout(Duration::from_secs(10)).expect("dispatcher must answer, not die");
    assert!(answer.out_of_range);
    assert!(answer.result.hits.is_empty());
    // The dispatcher is still serving: a valid query answers normally.
    let ok = coalescer.submit(WaveQuery { vertex: 7, k: 5, opts }).unwrap();
    let answer = ok.recv_timeout(Duration::from_secs(10)).expect("dispatcher died after stale vertex");
    assert!(!answer.out_of_range);
    assert_eq!(answer.generation, 1);
    assert_eq!(answer.result.hits, engine.query(7, 5, &QueryOptions::default()).hits);
    coalescer.close();
    dispatcher.join().unwrap();
    std::fs::remove_file(&snap).ok();
}

/// A reload that swaps in a *smaller* snapshot under traffic targeting
/// the old, larger vertex range: requests may answer 200 or 400, but the
/// server must never 500, hang, or die — and it must keep serving
/// afterwards.
#[test]
fn shrinking_reload_never_hangs_the_query_path() {
    let snap = fixture_snapshot("shrink");
    let r = start(config(&snap));
    let addr = r.addr;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Traffic across the FULL old range 0..300, so after the shrink
        // to 120 vertices many requests target ids that no longer exist —
        // including ones already sitting in the dispatch queue.
        for w in 0..4u32 {
            let stop = &stop;
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr.to_string()).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(10)));
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let u = (w * 53 + i * 13) % 300;
                    let resp = c.get(&format!("/query?u={u}&k=5")).expect("query hung or errored");
                    assert!(
                        resp.status == 200 || resp.status == 400,
                        "u={u} answered {}: {}",
                        resp.status,
                        resp.body_str()
                    );
                    i += 1;
                }
            });
        }
        let mut admin = HttpClient::connect(addr.to_string()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        write_snapshot(&snap, 120);
        assert_eq!(admin.post("/admin/reload").unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(60));
        // Grow it back, still under traffic.
        write_snapshot(&snap, 300);
        assert_eq!(admin.post("/admin/reload").unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::Relaxed);
    });
    // The query path survived both swaps: a fresh query still answers.
    let mut c = HttpClient::connect(addr.to_string()).unwrap();
    let resp = c.get("/query?u=250&k=5").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let m = r.engine.metrics().snapshot();
    let prom = m.to_prometheus();
    let fives: u64 = prom
        .lines()
        .filter_map(|l| l.strip_prefix("srs_server_responses_total{code=\"500\"} "))
        .map(|v| v.parse::<u64>().unwrap())
        .sum();
    assert_eq!(fives, 0, "500s during shrinking reload:\n{prom}");
    assert_eq!(m.counter_total("srs_server_wave_panics_total"), 0, "no wave may panic");
    quit(r);
    std::fs::remove_file(&snap).ok();
}

#[test]
fn bad_requests_answer_4xx_and_admin_surface_works() {
    let snap = fixture_snapshot("errors");
    let r = start(config(&snap));
    let addr = r.addr;
    let mut c = HttpClient::connect(addr.to_string()).unwrap();

    // Parameter validation.
    for (path, needle) in [
        ("/query", "missing required parameter u"),
        ("/query?u=abc", "non-negative vertex id"),
        ("/query?u=999999", "out of range"),
        ("/query?u=1&k=0", "1..=10000"),
        ("/query?u=1&bogus=1", "unknown parameter"),
    ] {
        let resp = c.get(path).unwrap();
        assert_eq!(resp.status, 400, "{path}");
        assert!(resp.body_str().contains(needle), "{path} -> {}", resp.body_str());
    }
    // Routing.
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.post("/query?u=1").unwrap().status, 405);
    assert_eq!(c.get("/admin/reload").unwrap().status, 405);
    assert_eq!(c.get("/healthz").unwrap().body_str(), "ok\n");
    let info = c.get("/info").unwrap();
    assert_eq!(info.status, 200);
    assert!(info.body_str().contains("\"vertices\":300"), "{}", info.body_str());

    // A metrics scrape exposes engine and server families side by side.
    let prom = c.get("/metrics").unwrap();
    assert_eq!(prom.status, 200);
    let text = prom.body_str().to_string();
    for family in [
        "srs_server_requests_total",
        "srs_server_responses_total",
        "srs_server_connections_total",
        "srs_server_snapshot_generation",
        "srs_queries_total",
    ] {
        assert!(text.contains(family), "missing {family} in scrape");
    }

    // Malformed framing on a raw socket: one 400, then the connection is
    // closed (the server never panics).
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET /query?u=1 HTTP/4.2\r\n\r\n").unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 400 "), "{buf}");
    assert!(buf.contains("Connection: close"), "{buf}");

    // A 16-byte ingest asking for 4e9 vertices, as text or as SRSEDIT1
    // bytes, is refused before any array is sized; the served graph and
    // its answers are unchanged.
    let huge = srs_graph::GraphDelta::parse_text("grow 4000000000").unwrap();
    for body in [b"grow 4000000000".to_vec(), huge.to_bytes()] {
        let resp = c.post_body("/admin/ingest", &body).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body_str());
        assert!(resp.body_str().contains("vertex-count limit"), "{}", resp.body_str());
        // The batch is at fault, not any index file.
        assert!(resp.body_str().contains("ingest failed: edit batch rejected: "), "{}", resp.body_str());
        assert!(!resp.body_str().contains("index format"), "{}", resp.body_str());
    }
    // An edge to a vertex the graph does not have is the same kind of
    // rejected batch.
    let resp = c.post_body("/admin/ingest", b"+ 5 900").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(resp.body_str().contains("edit batch rejected: "), "{}", resp.body_str());
    assert!(c.get("/info").unwrap().body_str().contains("\"vertices\":300"));
    let resp = c.get("/query?u=7&k=5").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), expected_body(&r.engine, 7, 5));

    // The server is still healthy afterwards.
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    quit(r);
    std::fs::remove_file(&snap).ok();
}

#[test]
fn quit_drains_and_rejects_new_work() {
    let snap = fixture_snapshot("drain");
    let r = start(config(&snap));
    let addr = r.addr;
    let mut c = HttpClient::connect(addr.to_string()).unwrap();
    assert_eq!(c.get("/query?u=5&k=3").unwrap().status, 200);
    // quit() asserts the 200 handshake and that run() returns Ok — i.e.
    // the accept loop, dispatcher, and watcher all wound down.
    quit(r);
    // New work is refused: the pooled connection (if its thread is still
    // winding down) answers 503 draining, a fresh connect is refused.
    if let Ok(resp) = c.get("/query?u=5&k=3") {
        assert_eq!(resp.status, 503, "{}", resp.body_str());
    }
    std::fs::remove_file(&snap).ok();
}

/// The acceptance loop for online ingestion: edit batches land over
/// `/admin/ingest` while query traffic hammers the same socket. Every
/// response — traffic and admin alike — must be a 200, each batch must
/// be visible to queries the moment its POST answers (the new vertex
/// ranks its engineered twin), and the persisted chain must replay the
/// same state on a reload.
#[test]
fn ingest_under_concurrent_traffic_drops_nothing() {
    let snap = fixture_snapshot("ingest");
    let r = start(config(&snap));
    let addr = r.addr;
    // The fixture graph, rebuilt locally to engineer the batches: each
    // ingest appends one vertex wired with exactly the in-neighbour set
    // of an existing low-in-degree vertex, making the pair near-twins
    // (they meet their random surfers at distance one), so the twin must
    // show up in the new vertex's top-k immediately after the POST.
    let g = gen::copying_web(300, 4, 0.8, 8);
    let twins: Vec<u32> =
        (0..300u32).rev().filter(|&v| (1..=4).contains(&g.in_neighbors(v).len())).take(5).collect();
    assert_eq!(twins.len(), 5, "fixture graph must offer five low-in-degree twins");

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr.to_string()).unwrap();
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let u = (w * 53 + i * 13) % 300;
                    let resp = c.get(&format!("/query?u={u}&k=5")).unwrap();
                    assert_eq!(resp.status, 200, "query failed during ingest: {}", resp.body_str());
                    i += 1;
                }
                served.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        let mut admin = HttpClient::connect(addr.to_string()).unwrap();
        for (i, &twin) in twins.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(20));
            let fresh = 300 + i as u32;
            let mut batch = format!("grow {}\n", fresh + 1);
            for &src in g.in_neighbors(twin) {
                batch.push_str(&format!("+ {src} {fresh}\n"));
            }
            let resp = admin.post_body("/admin/ingest", batch.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "ingest {i}: {}", resp.body_str());
            assert!(
                resp.body_str().contains(&format!("\"chain_depth\":{}", i + 1)),
                "ingest {i}: {}",
                resp.body_str()
            );
            // Freshness: the POST has answered, so the very next query
            // must see the new vertex and rank its twin.
            let seen = admin.get(&format!("/query?u={fresh}&k=10")).unwrap();
            assert_eq!(seen.status, 200, "{}", seen.body_str());
            assert!(
                seen.body_str().contains(&format!("{{\"vertex\":{twin},")),
                "ingest {i}: twin {twin} missing from {}",
                seen.body_str()
            );
        }
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(served.load(Ordering::Relaxed) > 0, "traffic threads never got a query through");

    let mut c = HttpClient::connect(addr.to_string()).unwrap();
    let info = c.get("/info").unwrap();
    assert!(info.body_str().contains("\"chain_depth\":5"), "{}", info.body_str());
    assert!(info.body_str().contains("\"vertices\":305"), "{}", info.body_str());

    // Zero non-200s, fleet-wide: every recorded response was a 200.
    let m = r.engine.metrics().snapshot();
    assert_eq!(m.counter_total("srs_server_responses_total"), {
        m.to_prometheus()
            .lines()
            .filter_map(|l| l.strip_prefix("srs_server_responses_total{code=\"200\"} "))
            .map(|v| v.parse::<u64>().unwrap())
            .sum()
    });

    // A reload replays the persisted chain: same vertex count, same
    // chain depth, and the grown vertex still answers with its twin.
    assert_eq!(c.post("/admin/reload").unwrap().status, 200);
    let info = c.get("/info").unwrap();
    assert!(info.body_str().contains("\"chain_depth\":5"), "{}", info.body_str());
    assert!(info.body_str().contains("\"vertices\":305"), "{}", info.body_str());
    let seen = c.get("/query?u=304&k=10").unwrap();
    assert_eq!(seen.status, 200);
    assert!(seen.body_str().contains(&format!("{{\"vertex\":{},", twins[4])), "{}", seen.body_str());

    quit(r);
    std::fs::remove_file(&snap).ok();
    for i in 1..=5u32 {
        let mut name = snap.as_os_str().to_os_string();
        name.push(format!(".d{i:04}"));
        std::fs::remove_file(PathBuf::from(name)).ok();
    }
}

/// A bundle of any shard count serves as one dataset: the same answers,
/// the result cache, and online ingest. A reload may change the shard
/// count.
#[test]
fn sharded_bundles_cache_and_accept_ingest() {
    let g = gen::copying_web(300, 4, 0.8, 8);
    let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
    let idx = TopKIndex::build(&g, &params, 7);
    let packed = |shards: u32| {
        let mut bytes = Vec::new();
        snapshot::pack(&g, &idx, shards, &mut bytes).unwrap();
        bytes
    };
    let mut bodies = Vec::new();
    for (shards, reshaped) in [(1u32, 4u32), (4, 1)] {
        let snap = std::env::temp_dir().join(format!("srs_serve_{}_shards{shards}.srs", std::process::id()));
        std::fs::write(&snap, packed(shards)).unwrap();
        let r = start(config(&snap));
        let mut c = HttpClient::connect(r.addr.to_string()).unwrap();
        let info = c.get("/info").unwrap().body_str().to_string();
        assert!(info.contains(&format!("\"shards\":{shards}")), "{info}");
        assert!(info.contains("\"cache_capacity\":4096"), "{info}");
        for _ in 0..2 {
            let resp = c.get("/query?u=7&k=5").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_str(), expected_body(&r.engine, 7, 5));
            bodies.push(resp.body_str().to_string());
        }
        let m = r.engine.metrics().snapshot();
        assert!(m.counter_total("srs_cache_hits_total") > 0, "shards={shards}: cache never hit");
        // Reloading a bundle of another shard count re-shapes the engine.
        std::fs::write(&snap, packed(reshaped)).unwrap();
        assert_eq!(c.post("/admin/reload").unwrap().status, 200);
        assert!(c.get("/info").unwrap().body_str().contains(&format!("\"shards\":{reshaped}")));
        let ingest = c.post_body("/admin/ingest", b"+ 3 9").unwrap();
        assert_eq!(ingest.status, 200, "shards={reshaped}: {}", ingest.body_str());
        assert_eq!(c.post("/admin/reload").unwrap().status, 200);
        assert!(c.get("/info").unwrap().body_str().contains("\"chain_depth\":1"));
        let resp = c.get("/query?u=7&k=5").unwrap();
        assert_eq!(resp.status, 200);
        bodies.push(resp.body_str().to_string());
        quit(r);
        let mut delta = snap.as_os_str().to_os_string();
        delta.push(".d0001");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(PathBuf::from(delta)).ok();
    }
    // Same answers, generation by generation, whatever the shard count.
    let (one, four) = bodies.split_at(bodies.len() / 2);
    assert_eq!(one, four);
}
