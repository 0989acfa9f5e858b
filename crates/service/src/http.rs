//! A hand-rolled `std::net` HTTP/1.1 front end for the evaluation
//! service.
//!
//! The workspace is hermetic — no network crates — and the protocol
//! surface the service needs is tiny: `GET` with a query string,
//! `Connection: close` responses, four routes. So the server is ~200
//! lines over [`std::net::TcpListener`]:
//!
//! * `GET /healthz` — liveness probe, `200 ok`;
//! * `GET /evaluate?nodes=..&ppn=..[&iters=..&ck=..&families=table2|full]`
//!   — the ranked scheme comparison (deterministic JSON; `400` on a
//!   malformed query, so a typo never silently returns a default, and on
//!   a job past `MAX_RANKS` = 4 096 ranks
//!   counting encoders, `nodes × (ppn+1)`, or past
//!   `MAX_ITERATIONS` = 10⁶
//!   iterations, so one request can neither exhaust memory nor hold a
//!   worker for weeks);
//! * `GET /cache` — trace-cache, response-memo and layout-stage counters
//!   as JSON;
//! * `GET /metrics` — the full process-global telemetry snapshot.
//!
//! `threads` acceptor workers share the listener (`try_clone`), so slow
//! requests (a cold paper-scale trace takes seconds) don't block health
//! checks. Shutdown is cooperative: flip a flag, then poke one
//! connection per worker to unblock `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hcft_telemetry::Registry;

use crate::request::EvalRequest;
use crate::service::EvalService;

/// Cap on the request head (request line + headers). Anything larger is
/// rejected with `431` — our longest legitimate request line is well
/// under 200 bytes.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled client cannot pin an
/// acceptor worker forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running evaluation server. Dropping the handle without calling
/// [`Server::shutdown`] leaves the acceptor threads serving until the
/// process exits (the always-on mode); `shutdown` stops them cleanly.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock and join every worker. In-flight
    /// requests finish first (workers check the flag between
    /// connections).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.workers.len() {
            // Wake a worker blocked in accept(); the connection is
            // closed immediately once the flag is seen.
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `svc` on `threads`
/// acceptor workers (minimum 1).
pub fn serve(
    addr: impl ToSocketAddrs,
    svc: Arc<EvalService>,
    threads: usize,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Registry::global().counter("service.http.requests");
    let errors = Registry::global().counter("service.http.errors");
    let workers = (0..threads.max(1))
        .map(|i| {
            let listener = listener.try_clone().expect("clone listener");
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            let errors = Arc::clone(&errors);
            std::thread::Builder::new()
                .name(format!("hcft-http-{i}"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let (stream, _) = match listener.accept() {
                            Ok(conn) => conn,
                            Err(_) => continue,
                        };
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        requests.inc();
                        if handle_connection(stream, &svc).is_err() {
                            errors.inc();
                        }
                    }
                })
                .expect("spawn http worker")
        })
        .collect();
    Ok(Server {
        addr,
        stop,
        workers,
    })
}

fn handle_connection(mut stream: TcpStream, svc: &EvalService) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let timer = std::time::Instant::now();

    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(status) => return write_response(&mut stream, status, "text/plain", status),
    };
    let (status, content_type, body) = route(&head, svc);
    let r = write_response(&mut stream, status, content_type, &body);
    Registry::global()
        .histogram("service.http.latency_ns")
        .observe(u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX));
    r
}

/// Read until the blank line ending the request head; reject oversized
/// or abruptly closed requests.
fn read_head(stream: &mut TcpStream) -> Result<String, &'static str> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err("431 Request Header Fields Too Large");
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("400 Bad Request"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err("408 Request Timeout"),
        }
    }
    String::from_utf8(buf).map_err(|_| "400 Bad Request")
}

/// Dispatch a parsed head to a route. Returns
/// `(status line, content type, body)`.
fn route(head: &str, svc: &EvalService) -> (&'static str, &'static str, String) {
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            return (
                "400 Bad Request",
                "text/plain",
                "malformed request line\n".into(),
            )
        }
    };
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".into(),
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => ("200 OK", "text/plain", "ok\n".into()),
        "/metrics" => (
            "200 OK",
            "application/json",
            Registry::global().snapshot().to_json() + "\n",
        ),
        "/cache" => ("200 OK", "application/json", cache_stats(svc)),
        "/evaluate" => match EvalRequest::from_query(query).and_then(|r| svc.evaluate(&r)) {
            Ok(body) => ("200 OK", "application/json", (*body).clone()),
            Err(e) => ("400 Bad Request", "text/plain", format!("{e}\n")),
        },
        _ => (
            "404 Not Found",
            "text/plain",
            "routes: /healthz /evaluate /cache /metrics\n".into(),
        ),
    }
}

fn cache_stats(svc: &EvalService) -> String {
    let (hits, misses, evictions) = svc.trace_cache().stats();
    let (memo_hits, memo_misses) = svc.memo_stats();
    format!(
        "{{\"trace\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}, \
         \"entries\": {}, \"capacity\": {}, \"bytes\": {}}}, \
         \"memo\": {{\"hits\": {memo_hits}, \"misses\": {memo_misses}}}, \
         \"layouts\": {{\"entries\": {}, \"bytes\": {}}}}}\n",
        svc.trace_cache().len(),
        svc.trace_cache().capacity(),
        svc.trace_cache().resident_bytes(),
        svc.layout_stage().len(),
        svc.layout_stage().resident_bytes()
    )
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_end_to_end() {
        let svc = Arc::new(EvalService::new(4, 4));
        let server = serve("127.0.0.1:0", Arc::clone(&svc), 2).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/evaluate?nodes=2&ppn=2");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"ranking\": ["), "{body}");

        // Warm request: byte-identical body.
        let (_, warm) = get(addr, "/evaluate?nodes=2&ppn=2");
        assert_eq!(body, warm, "warm response must be byte-identical");

        let (head, cache) = get(addr, "/cache");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(cache.contains("\"trace\""), "{cache}");
        assert!(cache.contains("\"layouts\": {\"entries\": "), "{cache}");

        let (head, metrics) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(metrics.contains("service.memo.hits"), "{metrics}");
        assert!(metrics.contains("core.trace.composed"), "{metrics}");

        let (head, _) = get(addr, "/evaluate?nodes=2&ppn=2&bogus=1");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");

        // Oversized jobs are refused before anything is allocated or
        // traced, and the server keeps serving.
        for query in ["nodes=100000&ppn=16", "nodes=2&ppn=2&iters=4000000000"] {
            let (head, body) = get(addr, &format!("/evaluate?{query}"));
            assert!(head.starts_with("HTTP/1.1 400"), "{query}: {head}");
            assert!(body.contains("more than"), "{query}: {body}");
        }
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        // After shutdown nothing is listening any more.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // A racing TIME_WAIT accept can still connect; reads then
                // see EOF instead of a response.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut line = String::new();
                std::io::BufReader::new(&mut s)
                    .read_line(&mut line)
                    .map(|n| n == 0)
                    .unwrap_or(true)
            }
        );
    }

    #[test]
    fn full_family_sweeps_answer_on_uneven_node_counts() {
        let svc = Arc::new(EvalService::new(4, 4));
        let server = serve("127.0.0.1:0", svc, 2).unwrap();
        let addr = server.local_addr();
        // Node counts no exactly-4-node L1 clustering can tile.
        for nodes in [5, 6, 9] {
            let (head, body) = get(
                addr,
                &format!("/evaluate?nodes={nodes}&ppn=2&families=full"),
            );
            assert!(head.starts_with("HTTP/1.1 200"), "nodes={nodes}: {head}");
            assert!(body.contains("\"ranking\": ["), "nodes={nodes}: {body}");
        }
        // Every worker is still alive.
        for target in ["/healthz", "/evaluate?nodes=4&ppn=2", "/healthz"] {
            let (head, _) = get(addr, target);
            assert!(head.starts_with("HTTP/1.1 200"), "{target}: {head}");
        }
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let svc = Arc::new(EvalService::new(2, 2));
        let server = serve("127.0.0.1:0", svc, 1).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST /evaluate HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
    }
}
