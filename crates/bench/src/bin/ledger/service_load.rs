//! The four service workloads: HTTP against a real `repro serve` child
//! process, one closed-loop client per connection, a fresh connection
//! per request (what a scheduler's `curl` does). The four differ only
//! in existing `repro serve` flags and in the request mix.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::harness::{CacheCounters, ProgramCounters, Workload};
use crate::json::Json;
use crate::stats::{zipf_pass, SplitMix64};

/// A `repro serve` child. Dropping it kills the process and waits for
/// it, on every exit path.
pub struct Server {
    child: Child,
    // Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `repro serve` on an ephemeral port with the given
    /// `(--trace-cap, --memo-cap)` (`None`: the program's defaults) and
    /// wait until `/healthz` answers.
    pub fn spawn(repro: &Path, caps: Option<(usize, usize)>) -> Result<Server, String> {
        let mut command = Command::new(repro);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some((trace_cap, memo_cap)) = caps {
            command.args(["--trace-cap", &trace_cap.to_string()]);
            command.args(["--memo-cap", &memo_cap.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let addr = stdout
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("repro serve printed no address: {banner:?}"));
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match get(addr, "/healthz") {
                Ok((200, _)) => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(format!("/healthz never answered 200: {other:?}")),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// GET a route that must answer 200 with a JSON body.
    pub fn json(&self, target: &str) -> Result<Json, String> {
        match get(self.addr, target)? {
            (200, body) => Json::parse(&body).map_err(|e| format!("{target}: {e}")),
            (status, body) => Err(format!("{target}: HTTP {status}: {}", body.trim())),
        }
    }

    /// The `/cache` counters.
    pub fn cache(&self) -> Result<CacheCounters, String> {
        let doc = self.json("/cache")?;
        let n = |path: &[&str]| doc.num_at(path) as u64;
        Ok(CacheCounters {
            trace_hits: n(&["trace", "hits"]),
            trace_misses: n(&["trace", "misses"]),
            trace_evictions: n(&["trace", "evictions"]),
            trace_bytes: n(&["trace", "bytes"]),
            memo_hits: n(&["memo", "hits"]),
            memo_misses: n(&["memo", "misses"]),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `GET` on a fresh connection: `(status, body)`.
pub fn get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("GET {target}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: ledger\r\n\r\n").as_bytes())
        .map_err(io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {target}: incomplete response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("GET {target}: no status line"))?;
    Ok((status, body.to_string()))
}

/// An `/evaluate` body must parse, rank 1..N with N = `schemes`, put
/// the safest scheme first (`p_catastrophic` non-decreasing) and name
/// rank 1 as `best`.
pub fn check_ranking(body: &str) -> Result<(), String> {
    let doc = Json::parse(body)?;
    let ranking = doc
        .get("ranking")
        .and_then(Json::as_arr)
        .ok_or("no ranking array")?;
    if ranking.is_empty() || doc.num_at(&["schemes"]) != ranking.len() as f64 {
        return Err(format!(
            "schemes {} vs {} ranked rows",
            doc.num_at(&["schemes"]),
            ranking.len()
        ));
    }
    let mut last_p = f64::NEG_INFINITY;
    for (i, row) in ranking.iter().enumerate() {
        if row.num_at(&["rank"]) != (i + 1) as f64 {
            return Err(format!("row {i} carries rank {}", row.num_at(&["rank"])));
        }
        let p = row
            .get("p_catastrophic")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {i} has no p_catastrophic"))?;
        if p < last_p {
            return Err(format!("p_catastrophic falls at rank {}", i + 1));
        }
        last_p = p;
    }
    if doc.get("best").and_then(Json::as_str) != ranking[0].get("name").and_then(Json::as_str) {
        return Err("best is not the rank-1 scheme".to_string());
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every request misses both cache tiers.
    Cold,
    /// Trace hit, memo miss every time.
    Warm,
    /// Memo hit every time.
    Memo,
    /// Zipf passes over a working set three times both cache caps.
    Churn,
}

/// The paper machine of §V as a query string, with the checkpoint
/// cadence as the knob that changes the trace key and nothing else:
/// every cadence in 21..=25 checkpoints four times in 100 iterations.
fn paper_query(ck: u64, families: &str) -> String {
    format!("/evaluate?nodes=64&ppn=16&iters=100&ck={ck}&families={families}")
}

/// The 12 churn keys: 6 trace keys × 2 family grids, in a fixed
/// popularity order — a working set three times the server's trace cap
/// of 2 and memo cap of 4. The checkpoint cadence `ck` (21..=25, by
/// seed) changes every trace key and no request's cost: each of these
/// iteration counts checkpoints twice at any such cadence.
pub fn churn_keys(ck: u64) -> Vec<String> {
    let mut keys = Vec::with_capacity(12);
    for iters in [50, 55, 60] {
        for nodes in [16, 32] {
            for families in ["table2", "full"] {
                keys.push(format!(
                    "/evaluate?nodes={nodes}&ppn=8&iters={iters}&ck={ck}&families={families}"
                ));
            }
        }
    }
    keys
}

/// One churn operation: a pass over the keys with Zipf(1.0) repeat
/// counts (16 requests), as indices into [`churn_keys`]. Single
/// requests range from a 0.1 ms memo hit to a cold build, so they have
/// no stable quantile; a pass is the same requests every time.
///
/// The order is one fixed shuffle, rotated by the seed: how requests
/// for one trace key sit next to each other decides how many cold
/// builds a pass costs, so a fresh shuffle per seed would make every
/// seed a different workload. Passes repeat back to back, so a rotation
/// changes where the cycle is entered and nothing else.
pub fn churn_pass(seed: u64) -> Vec<usize> {
    let mut pass = zipf_pass(0x5eed, 12, 12);
    let by = (seed % pass.len() as u64) as usize;
    pass.rotate_left(by);
    pass
}

/// Two distinct checkpoint cadences out of 21..=25, by seed.
pub fn cold_cadences(seed: u64) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let a = 21 + rng.below(5);
    let b = 21 + (a - 21 + 1 + rng.below(4)) % 5;
    (a, b)
}

pub struct ServiceLoad {
    server: Server,
    mix: Mix,
    /// Request targets an operation chooses from.
    targets: Vec<String>,
    /// First body seen per target; every later one must equal it.
    expected: Vec<OnceLock<String>>,
    /// Churn only: the seeded pass over `targets`.
    pass: Vec<usize>,
    baseline: Mutex<CacheCounters>,
}

impl ServiceLoad {
    /// Boot the server shape for `mix`, warm it to the state the
    /// measured phase needs, and run the cross-tier identity checks.
    pub fn setup(repro: &Path, mix: Mix, seed: u64) -> Result<ServiceLoad, String> {
        let caps = match mix {
            Mix::Cold => Some((1, 1)),
            Mix::Warm => Some((2, 1)),
            Mix::Memo => None,
            Mix::Churn => Some((2, 4)),
        };
        let (a, b) = cold_cadences(seed);
        let targets = match mix {
            Mix::Cold => vec![paper_query(a, "full"), paper_query(b, "full")],
            Mix::Warm => vec![paper_query(a, "table2"), paper_query(a, "full")],
            Mix::Memo => vec![paper_query(a, "full")],
            Mix::Churn => churn_keys(a),
        };
        let load = ServiceLoad {
            server: Server::spawn(repro, caps)?,
            mix,
            expected: targets.iter().map(|_| OnceLock::new()).collect(),
            targets,
            pass: if mix == Mix::Churn {
                churn_pass(seed)
            } else {
                Vec::new()
            },
            baseline: Mutex::new(CacheCounters::default()),
        };
        match mix {
            // Both bodies cold; they are the reference for every
            // measured (equally cold) request.
            Mix::Cold => {
                load.request(0)?;
                load.request(1)?;
            }
            // table2 cold, full trace-warm, table2 again trace-warm
            // (the 1-entry memo was evicted), table2 memo-warm: one
            // request seen byte-identical through all three paths.
            Mix::Warm => {
                for target in [0, 1, 0, 0] {
                    load.request(target)?;
                }
                let c = load.server.cache()?;
                if (c.trace_misses, c.trace_hits, c.memo_hits) != (1, 2, 1) {
                    return Err(format!("warm-up did not walk cold/trace/memo: {c:?}"));
                }
            }
            Mix::Memo => {
                load.request(0)?;
                load.request(0)?;
            }
            Mix::Churn => {
                load.churn_pass(0)?;
            }
        }
        Ok(load)
    }

    /// One request; its body must equal the first body this target
    /// ever returned (which itself must be a valid ranking). Returns
    /// the request's seconds.
    fn request(&self, target: usize) -> Result<f64, String> {
        let t = Instant::now();
        let (status, body) = get(self.server.addr, &self.targets[target])?;
        let secs = t.elapsed().as_secs_f64();
        if status != 200 {
            return Err(format!("HTTP {status}: {}", body.trim()));
        }
        let mut first = false;
        let expected = self.expected[target].get_or_init(|| {
            first = true;
            body.clone()
        });
        if first {
            check_ranking(&body).map_err(|e| format!("{}: {e}", self.targets[target]))?;
        } else if *expected != body {
            return Err(format!("{}: body changed", self.targets[target]));
        }
        Ok(secs)
    }

    /// One pass; the second client walks the same pass half a list
    /// ahead, so the two ask for the same key at the same moment only
    /// by chance (single-flight waits do happen, just not every time).
    fn churn_pass(&self, client: usize) -> Result<f64, String> {
        let offset = client * self.pass.len() / 2;
        (0..self.pass.len())
            .map(|j| self.request(self.pass[(offset + j) % self.pass.len()]))
            .sum()
    }
}

impl Workload for ServiceLoad {
    fn clients(&self) -> usize {
        match self.mix {
            Mix::Cold | Mix::Warm => 1,
            Mix::Memo | Mix::Churn => 2,
        }
    }

    fn pid(&self) -> u32 {
        self.server.pid()
    }

    fn begin(&self) -> Result<(), String> {
        *self.baseline.lock().expect("baseline") = self.server.cache()?;
        Ok(())
    }

    fn op(&self, client: usize, index: u64) -> Result<f64, String> {
        match self.mix {
            Mix::Cold => self.request(index as usize % 2),
            // One operation is the pair: a 0.05 s and a 0.16 s request
            // alternating would have no stable median. The warm-up left
            // table2 in the 1-entry memo, so full goes first.
            Mix::Warm => Ok(self.request(1)? + self.request(0)?),
            Mix::Memo => self.request(0),
            Mix::Churn => self.churn_pass(client),
        }
    }

    /// The bypass proofs: which cache counters moved, and by how much.
    fn end(&self, ops: u64) -> Result<(), String> {
        let before = *self.baseline.lock().expect("baseline");
        let now = self.server.cache()?;
        let moved = (
            now.trace_misses - before.trace_misses,
            now.trace_hits - before.trace_hits,
            now.memo_hits - before.memo_hits,
        );
        let ok = match self.mix {
            Mix::Cold => moved == (ops, 0, 0),
            Mix::Warm => moved == (0, 2 * ops, 0),
            Mix::Memo => moved == (0, 0, ops),
            // All three paths and the eviction path must interleave.
            Mix::Churn => {
                moved.0 > 0
                    && moved.1 > 0
                    && moved.2 > 0
                    && now.trace_evictions > before.trace_evictions
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{:?}: over {ops} ops the cache moved (trace misses, trace hits, memo hits) = {moved:?}",
                self.mix
            ))
        }
    }

    fn program_counters(&self) -> Result<ProgramCounters, String> {
        let metrics = self.server.json("/metrics")?;
        Ok(ProgramCounters {
            simmpi_messages: metrics.num_at(&["counters", "simmpi.mailbox.messages"]) as u64,
            cache: self.server.cache()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadences_are_distinct_in_range_and_seeded() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let (a, b) = cold_cadences(seed);
            assert!((21..=25).contains(&a) && (21..=25).contains(&b), "{a} {b}");
            assert_ne!(a, b);
            assert_eq!((a, b), cold_cadences(seed));
            // Same work per request: four checkpoint rounds in 100 steps.
            assert_eq!(100 / a, 4);
            assert_eq!(100 / b, 4);
            seen.insert((a, b));
        }
        assert!(seen.len() > 4, "the seed must move the cadences");
    }

    #[test]
    fn churn_inputs_are_seeded() {
        let keys = churn_keys(23);
        assert_eq!(keys.len(), 12);
        let distinct: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), 12);
        let trace_keys: std::collections::BTreeSet<&str> = keys
            .iter()
            .map(|k| k.split("&families").next().unwrap())
            .collect();
        assert_eq!(trace_keys.len(), 6, "working set is 3x the trace cap of 2");
        assert!(keys.iter().all(|k| !churn_keys(24).contains(k)));
        // Two checkpoints per traced job at every cadence a seed can pick.
        for iters in [50, 55, 60] {
            assert!((21..=25).all(|ck| iters / ck == 2));
        }
        assert_eq!(churn_pass(5), churn_pass(5));
        assert_ne!(churn_pass(5), churn_pass(6));
        assert_eq!(churn_pass(5).len(), 16);
        // Every seed enters the same cycle: same requests, same neighbours.
        let (mut a, b) = (churn_pass(5), churn_pass(6));
        a.rotate_left(1);
        assert_eq!(a, b);
    }

    #[test]
    fn ranking_check_accepts_served_shape_and_rejects_damage() {
        let good = "{\n  \"request\": {\"nodes\": 4},\n  \"schemes\": 2,\n  \"ranking\": [\n    \
                    {\"rank\": 1, \"name\": \"a\", \"p_catastrophic\": 0.000001},\n    \
                    {\"rank\": 2, \"name\": \"b\", \"p_catastrophic\": 0.5}\n  ],\n  \"best\": \"a\"\n}\n";
        check_ranking(good).unwrap();
        for (from, to) in [
            ("\"rank\": 2", "\"rank\": 3"),
            ("0.5", "0.0000001"),
            ("\"schemes\": 2", "\"schemes\": 3"),
            ("\"best\": \"a\"", "\"best\": \"b\""),
            ("\"ranking\": [", "\"ranking\": "),
        ] {
            assert!(
                check_ranking(&good.replace(from, to)).is_err(),
                "{from} -> {to}"
            );
        }
    }
}
