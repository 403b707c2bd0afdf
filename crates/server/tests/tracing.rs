//! End-to-end tracing tests over a real socket: a client-assigned trace
//! ID must ride the whole pipeline (response header → trace store →
//! `/debug/trace` span tree → `/metrics` exemplar), and tracing must be
//! invisible to results — the same query answers byte-identically on a
//! traced and an untraced server.

use srs_graph::gen;
use srs_search::{snapshot, SimRankParams, TopKIndex};
use srs_serve::{HttpClient, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

fn fixture_snapshot(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("srs_trace_{}_{name}.srs", std::process::id()));
    let g = gen::copying_web(250, 4, 0.8, 8);
    let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
    let idx = TopKIndex::build(&g, &params, 7);
    let f = std::fs::File::create(&path).unwrap();
    snapshot::pack(&g, &idx, 1, std::io::BufWriter::new(f)).unwrap();
    path
}

struct Running {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(snapshot: &Path, trace_sample: u64, slow_query_ms: u64) -> Running {
    let server = Server::bind(ServerConfig {
        snapshot: snapshot.to_path_buf(),
        addr: "127.0.0.1:0".into(),
        trace_sample,
        slow_query_ms,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

fn quit(r: Running) {
    let mut c = HttpClient::connect(r.addr.to_string()).unwrap();
    assert_eq!(c.post("/admin/quit").unwrap().status, 200);
    r.handle.join().unwrap().unwrap();
}

#[test]
fn explicit_trace_id_is_explainable_end_to_end() {
    let snap = fixture_snapshot("explicit");
    let r = start(&snap, 1, 1);
    let mut c = HttpClient::connect(r.addr.to_string()).unwrap();

    // The client pre-assigns the trace ID and the response echoes it.
    let id: u64 = 0xfeed_face_cafe_0001;
    let resp = c.get_traced("/query?u=5&k=4", id).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.trace_id, Some(id), "response must echo x-srs-trace-id");

    // The span tree is retrievable by that ID and covers every layer.
    let resp = c.get("/debug/trace?id=feedfacecafe0001").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let tree = resp.body_str().to_string();
    for span in ["\"request\"", "\"socket_read\"", "\"queue_linger\"", "\"wave_exec\"", "stage:"] {
        assert!(tree.contains(span), "span {span} missing from {tree}");
    }
    // One span per engine stage.
    assert!(tree.matches("stage:").count() >= 4, "want >= 4 engine stages in {tree}");
    assert!(tree.contains("\"wave_width\""), "wave membership attr missing");

    // The sampled ring (sample 1/1) holds it too, and /debug/slow is
    // well-formed JSON whether or not this run crossed the 1 ms bar.
    let all = c.get("/debug/traces").unwrap();
    assert_eq!(all.status, 200);
    assert!(all.body_str().contains("feedfacecafe0001"));
    let slow = c.get("/debug/slow").unwrap();
    assert_eq!(slow.status, 200);
    assert!(slow.body_str().starts_with('['));

    // The legacy text exposition (what plain Prometheus scrapes) must
    // stay exemplar-free — the syntax is invalid there and fails the
    // whole scrape.
    let metrics = c.get("/metrics").unwrap().body_str().to_string();
    assert!(!metrics.contains("trace_id="), "exemplar leaked into the legacy text format");
    // Negotiating OpenMetrics via Accept gets the exemplar (on the +Inf
    // bucket line) and the mandatory # EOF terminator.
    let om = c
        .request_with_headers("GET", "/metrics", &[("accept", "application/openmetrics-text")])
        .unwrap()
        .body_str()
        .to_string();
    assert!(om.trim_end().ends_with("# EOF"), "OpenMetrics exposition must close with # EOF");
    let bucket_line = om
        .lines()
        .find(|l| l.starts_with("srs_server_request_latency_ns_bucket") && l.contains("+Inf"))
        .expect("latency +Inf bucket line");
    assert!(bucket_line.contains("# {trace_id=\""), "exemplar missing from {bucket_line:?}");
    // The exemplar names a trace that was actually recorded, so the
    // documented copy-into-/debug/trace workflow resolves.
    let ex_id = bucket_line.split("trace_id=\"").nth(1).unwrap().split('"').next().unwrap().to_string();
    let found = c.get(&format!("/debug/trace?id={ex_id}")).unwrap();
    assert_eq!(found.status, 200, "exemplar id {ex_id} must resolve: {}", found.body_str());

    // Unknown and malformed IDs answer 404 / 400 rather than 200-empty.
    assert_eq!(c.get("/debug/trace?id=00000000000000aa").unwrap().status, 404);
    assert_eq!(c.get("/debug/trace?id=zz").unwrap().status, 400);
    assert_eq!(c.get("/debug/trace").unwrap().status, 400);

    quit(r);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn server_assigns_ids_when_client_sends_none() {
    let snap = fixture_snapshot("assigned");
    let r = start(&snap, 1, 0);
    let mut c = HttpClient::connect(r.addr.to_string()).unwrap();
    let resp = c.get("/query?u=9").unwrap();
    assert_eq!(resp.status, 200);
    let id = resp.trace_id.expect("tracing on: server must assign and echo an id");
    let found = c.get(&format!("/debug/trace?id={id:016x}")).unwrap();
    assert_eq!(found.status, 200, "assigned id must resolve: {}", found.body_str());
    // Distinct requests get distinct IDs.
    let resp2 = c.get("/query?u=9").unwrap();
    assert_ne!(resp2.trace_id, resp.trace_id);
    quit(r);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn tracing_is_result_neutral_and_off_by_default() {
    let snap = fixture_snapshot("neutral");
    let traced = start(&snap, 1, 5_000);
    let plain = start(&snap, 0, 0);
    let mut ct = HttpClient::connect(traced.addr.to_string()).unwrap();
    let mut cp = HttpClient::connect(plain.addr.to_string()).unwrap();

    for u in [0u32, 3, 42, 111, 249] {
        let a = ct.get_traced(&format!("/query?u={u}&k=6"), 0x1000 + u as u64).unwrap();
        let b = cp.get(&format!("/query?u={u}&k=6")).unwrap();
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);
        assert_eq!(a.body, b.body, "u={u}: tracing must not change the answer bytes");
    }

    // Untraced server: no ID assigned, nothing stored...
    let resp = cp.get("/query?u=1").unwrap();
    assert_eq!(resp.trace_id, None, "tracing off: no x-srs-trace-id header invented");
    assert_eq!(cp.get("/debug/traces").unwrap().body_str().trim(), "[]");
    assert_eq!(cp.get("/debug/slow").unwrap().body_str().trim(), "[]");
    // ...but a client-sent ID is still echoed for correlation.
    let resp = cp.get_traced("/query?u=1", 0xabcd).unwrap();
    assert_eq!(resp.trace_id, Some(0xabcd));
    assert_eq!(cp.get("/debug/trace?id=000000000000abcd").unwrap().status, 404, "echoed but not stored");
    // A client-sent ID on an untraced server must not steer /metrics:
    // no exemplar appears in either exposition.
    let text = cp.get("/metrics").unwrap().body_str().to_string();
    assert!(!text.contains("trace_id="), "client header altered the untraced text exposition");
    let om = cp
        .request_with_headers("GET", "/metrics", &[("accept", "application/openmetrics-text")])
        .unwrap()
        .body_str()
        .to_string();
    assert!(!om.contains("trace_id="), "client header altered the untraced OpenMetrics exposition");
    assert!(om.trim_end().ends_with("# EOF"), "negotiation works with tracing off too");

    // /info reports the tracing + identity facts.
    let info_t = ct.get("/info").unwrap().body_str().to_string();
    let info_p = cp.get("/info").unwrap().body_str().to_string();
    assert!(info_t.contains("\"trace_sample\":1"));
    assert!(info_p.contains("\"trace_sample\":0"));
    for info in [&info_t, &info_p] {
        assert!(info.contains("\"uptime_s\":"), "{info}");
        assert!(info.contains("\"version\":\""), "{info}");
        assert!(info.contains("\"fingerprint\":\""), "{info}");
    }
    // Same snapshot file → same fingerprint on both servers.
    let fp = |s: &str| s.split("\"fingerprint\":\"").nth(1).unwrap().split('"').next().unwrap().to_string();
    assert_eq!(fp(&info_t), fp(&info_p));
    assert_ne!(fp(&info_t), "0000000000000000");

    quit(traced);
    quit(plain);
    let _ = std::fs::remove_file(&snap);
}
