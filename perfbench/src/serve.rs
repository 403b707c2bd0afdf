//! `srs serve` as a black box: process control, a minimal HTTP/1.1
//! client, the open-loop load generator, and the `/metrics` and
//! `/debug/traces` scrapes of a traced run.

use crate::counters::{self, Counters};
use crate::json::{self, Value};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting it timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// One running `srs serve --threads 1` on an ephemeral port.
pub struct Server {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the server on `snap` and returns it with the time from
    /// spawn until `/healthz` answered: the moment the first query can be
    /// answered.
    pub fn start(srs: &Path, dir: &Path, snap: &str, traced: bool) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut args = vec!["serve", "--snapshot", snap, "--threads", "1", "--addr", "127.0.0.1:0"];
        if traced {
            args.extend(["--trace-sample", "1"]);
        }
        let mut child = Command::new(srs)
            .args(&args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn srs serve: {e}"))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("srs serve exited before it started listening".into());
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest.split_whitespace().next().unwrap_or_default().to_string();
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        });
        let server = Server { child, addr, drain: Some(drain) };
        loop {
            if let Ok(mut c) = Conn::connect(&server.addr) {
                if matches!(c.request("GET", "/healthz", &[], b""), Ok((200, _))) {
                    break;
                }
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("srs serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server through `/admin/quit` and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.request("POST", "/admin/quit", &[], b"");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("srs serve did not drain within 20 s of /admin/quit".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn { stream: BufReader::new(s) })
    }

    /// Sends one request and reads the whole response: status and body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<(u16, String)> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
        if method == "POST" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        let mut buf = head.into_bytes();
        buf.extend_from_slice(body);
        self.stream.get_mut().write_all(&buf)?;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.stream.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status: u16 =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.stream.read_line(&mut line)? == 0 {
                return Err(bad("headers cut short"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// A `/query` body's generation and hits, the hits rendered the way
/// `batch-query --hits-out` renders them (`v:score` joined by tabs, the
/// score text untouched) so the two compare byte for byte.
pub fn served_hits(body: &str) -> Option<(u64, String)> {
    let generation =
        body.split("\"generation\":").nth(1)?.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()?;
    let start = body.find("\"hits\":[")? + "\"hits\":[".len();
    let inner = &body[start..body.rfind(']')?];
    if inner.is_empty() {
        return Some((generation, String::new()));
    }
    let mut hits = Vec::new();
    for item in inner.trim_start_matches('{').trim_end_matches('}').split("},{") {
        let (v, s) = item.strip_prefix("\"vertex\":")?.split_once(",\"score\":")?;
        hits.push(format!("{v}:{s}"));
    }
    Some((generation, hits.join("\t")))
}

/// One read as the generator saw it. Times are seconds since the
/// measured phase began; `status` 0 is a transport error or timeout.
#[derive(Debug, Clone)]
pub struct ReadRec {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    pub vertex: u32,
    pub trace_id: u64,
    pub body: String,
}

/// One `POST /admin/ingest` as the writer saw it.
#[derive(Debug, Clone)]
pub struct WriteRec {
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    pub body: String,
}

/// The open-loop schedule: reader connection `c` sends its `i`-th
/// request at `(i · readers + c) / rate`; the writer posts batch `j` at
/// `(j + ½) · period`. Each connection keeps one request in flight, so a
/// stalled response delays that connection's next send — the lateness
/// the report shows — but never its due time, from which latency is
/// measured.
pub struct Plan<'a> {
    pub addr: &'a str,
    pub seconds: f64,
    pub rate: f64,
    pub streams: &'a [Vec<u32>],
    pub edits: &'a [String],
    pub edit_period: f64,
    pub traced: bool,
    /// The server's pid, whose CPU time the phase is charged.
    pub server_pid: u32,
}

fn sleep_until(t0: Instant, at: f64) {
    let now = t0.elapsed().as_secs_f64();
    if at > now {
        std::thread::sleep(Duration::from_secs_f64(at - now));
    }
}

fn trace_id(conn: usize, i: usize) -> u64 {
    let mut r = crate::inputs::Rng::new(((conn as u64) << 32) | i as u64);
    r.next_u64() | 1
}

/// Moves the calling thread to Linux's `SCHED_IDLE` policy: it runs only
/// when no other thread of the machine wants its CPU, and a thread that
/// wakes preempts it at once. Unprivileged. Where the call is refused,
/// the thread keeps its policy; the spinners still yield.
fn sched_idle() {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: the glibc wrapper of the syscall; pid 0 is the calling
    // thread and `param` outlives the call.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 });
    }
}

/// What one run of the plan observed.
pub struct Driven {
    pub reads: Vec<ReadRec>,
    pub writes: Vec<WriteRec>,
    pub traces: HashMap<u64, TraceRec>,
    /// Server CPU seconds (user + sys) spent while the plan ran.
    pub cpu_s: f64,
}

fn server_cpu(pid: u32) -> f64 {
    crate::procfs::cpu_times(&pid.to_string()).map(|t| t.own_s).unwrap_or(f64::NAN)
}

/// Runs the plan. Meanwhile this thread, for a traced plan, sweeps
/// `/debug/traces` so the server's bounded trace ring loses nothing.
pub fn drive(plan: &Plan) -> Driven {
    let t0 = Instant::now();
    let readers = plan.streams.len();
    let mut traces = HashMap::new();
    let cpu0 = server_cpu(plan.server_pid);
    let stop = std::sync::atomic::AtomicBool::new(false);
    /// Stops the spinners however the scope ends, so a panicking reader
    /// cannot leave the scope waiting on them forever.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let (reads, writes) = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        // Keep every vCPU runnable while the phase lasts: an idle vCPU of a
        // shared VM is handed back to the host, and waking it again costs
        // milliseconds of steal that would land on the measured requests.
        // The spinners run at idle priority, so they never take CPU from
        // a real thread: a server with a backlog keeps its whole CPU.
        let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for _ in 0..ncpu {
            s.spawn(|| {
                sched_idle();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let reader_handles: Vec<_> = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || {
                    let mut conn = Conn::connect(plan.addr).ok();
                    let mut recs = Vec::with_capacity(stream.len());
                    for (i, &vertex) in stream.iter().enumerate() {
                        let due = (i * readers + c) as f64 / plan.rate;
                        if due >= plan.seconds {
                            break;
                        }
                        sleep_until(t0, due);
                        let id = if plan.traced { trace_id(c, i) } else { 0 };
                        let headers =
                            if plan.traced { vec![("x-srs-trace-id", format!("{id:016x}"))] } else { vec![] };
                        let sent = t0.elapsed().as_secs_f64();
                        let path = format!("/query?u={vertex}");
                        let result = match conn.as_mut() {
                            Some(cn) => cn.request("GET", &path, &headers, b""),
                            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
                        };
                        let done = t0.elapsed().as_secs_f64();
                        let (status, body) = result.unwrap_or_else(|_| {
                            conn = Conn::connect(plan.addr).ok();
                            (0, String::new())
                        });
                        recs.push(ReadRec { due, sent, done, status, vertex, trace_id: id, body });
                    }
                    recs
                })
            })
            .collect();
        let writer = (!plan.edits.is_empty()).then(|| {
            s.spawn(move || {
                let mut conn = Conn::connect(plan.addr).ok();
                let mut recs = Vec::new();
                for (j, batch) in plan.edits.iter().enumerate() {
                    let due = (j as f64 + 0.5) * plan.edit_period;
                    if due >= plan.seconds {
                        break;
                    }
                    sleep_until(t0, due);
                    let sent = t0.elapsed().as_secs_f64();
                    let result = match conn.as_mut() {
                        Some(cn) => cn.request("POST", "/admin/ingest", &[], batch.as_bytes()),
                        None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
                    };
                    let done = t0.elapsed().as_secs_f64();
                    let (status, body) = result.unwrap_or_else(|_| {
                        conn = Conn::connect(plan.addr).ok();
                        (0, String::new())
                    });
                    recs.push(WriteRec { sent, done, status, body });
                }
                recs
            })
        });
        while plan.traced && reader_handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(400));
            sweep_traces(plan.addr, &mut traces);
        }
        let reads: Vec<ReadRec> =
            reader_handles.into_iter().flat_map(|h| h.join().expect("reader thread panicked")).collect();
        let writes = writer.map(|w| w.join().expect("writer thread panicked")).unwrap_or_default();
        (reads, writes)
    });
    let cpu_s = server_cpu(plan.server_pid) - cpu0;
    if plan.traced {
        sweep_traces(plan.addr, &mut traces);
    }
    Driven { reads, writes, traces, cpu_s }
}

/// The span durations of one server trace, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceRec {
    pub request: f64,
    pub queue_linger: f64,
    pub wave_exec: f64,
}

/// Adds every trace currently in the server's ring to `into`.
pub fn sweep_traces(addr: &str, into: &mut HashMap<u64, TraceRec>) {
    let Ok(mut c) = Conn::connect(addr) else { return };
    let Ok((200, body)) = c.request("GET", "/debug/traces", &[], b"") else { return };
    let Ok(doc) = json::parse(&body) else { return };
    for t in doc.as_array() {
        let Some(id) =
            t.get("trace_id").and_then(Value::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let mut rec = TraceRec::default();
        for span in t.get("spans").map(Value::as_array).unwrap_or(&[]) {
            let dur = span.get("dur_ns").and_then(Value::as_f64).unwrap_or(0.0);
            match span.get("name").and_then(Value::as_str) {
                Some("request") => rec.request = dur,
                Some("queue_linger") => rec.queue_linger = dur,
                Some("wave_exec") => rec.wave_exec = dur,
                _ => {}
            }
        }
        into.insert(id, rec);
    }
}

/// Scrapes `/metrics` into flat counters.
pub fn scrape(addr: &str) -> Result<Counters, String> {
    let mut c = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match c.request("GET", "/metrics", &[], b"") {
        Ok((200, body)) => Ok(counters::parse_prometheus(&body)),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_run_at_idle_priority() {
        extern "C" {
            fn sched_getscheduler(pid: i32) -> i32;
        }
        // SAFETY: reads the calling thread's policy.
        let policy = std::thread::spawn(|| {
            sched_idle();
            unsafe { sched_getscheduler(0) }
        })
        .join()
        .unwrap();
        assert_eq!(policy, 5, "SCHED_IDLE");
    }

    #[test]
    fn served_hits_render_like_hits_out() {
        let body = "{\"vertex\":7,\"k\":2,\"generation\":4,\"hits\":[{\"vertex\":3,\"score\":0.5},{\"vertex\":9,\"score\":0.125}]}";
        assert_eq!(served_hits(body), Some((4, "3:0.5\t9:0.125".to_string())));
        assert_eq!(
            served_hits("{\"vertex\":0,\"k\":5,\"generation\":1,\"hits\":[]}"),
            Some((1, String::new()))
        );
        assert_eq!(served_hits("{\"error\":\"x\"}"), None);
    }
}
