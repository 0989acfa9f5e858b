//! The evaluation service must serve byte-identical responses at any
//! rayon thread count — the family fan-out is an order-preserving fold,
//! so parallelism is a latency knob, never a semantic one.
//!
//! The compat rayon pool latches `RAYON_NUM_THREADS` once per process,
//! so each thread count is a separate `repro serve` child on an
//! ephemeral port (Cargo exports the binary path as
//! `CARGO_BIN_EXE_repro`), asked over HTTP like any client would.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the `repro serve` child on every exit path, failed asserts
/// included.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `repro serve` with the rayon pool pinned to `threads`, GET each
/// `/evaluate` query once, and return the response bodies.
fn serve_and_get(queries: &[&str], threads: &str) -> Vec<String> {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env("RAYON_NUM_THREADS", threads)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn repro serve"),
    );
    // First stdout line: "serving on http://ADDR (…)"; the listener is
    // bound before it is printed. The reader stays open to the end so
    // the child's later prints never hit a closed pipe.
    let mut banner = String::new();
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut banner).expect("read serve banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("repro serve printed no address: {banner:?}"))
        .to_string();
    queries
        .iter()
        .map(|query| {
            let mut stream = TcpStream::connect(&addr).expect("connect to repro serve");
            stream
                .write_all(
                    format!("GET /evaluate?{query} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
                )
                .expect("write request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
            assert!(head.starts_with("HTTP/1.1 200"), "{query}: {head}\n{body}");
            body.to_string()
        })
        .collect()
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    let queries = [
        "nodes=8&ppn=4&families=table2",
        "nodes=8&ppn=4&families=full",
    ];
    let serial = serve_and_get(&queries, "1");
    let parallel = serve_and_get(&queries, "4");
    for ((query, serial), parallel) in queries.iter().zip(&serial).zip(&parallel) {
        assert!(
            serial.contains("\"ranking\": ["),
            "{query}: not a ranked response: {serial}"
        );
        assert_eq!(
            serial, parallel,
            "{query} response differs between RAYON_NUM_THREADS=1 and =4"
        );
    }
}
