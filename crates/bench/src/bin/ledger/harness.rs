//! The measured phase every workload shares: closed-loop clients for a
//! fixed time, every operation timed, the phase cut into rounds with
//! the program's CPU time read between them, and an end-to-end summary
//! built to hold still on a machine that does not.
//!
//! This VM's noise is contention the guest cannot see: a register-only
//! calibration spin runs flat (±2 %) for minutes while the campaign
//! kernel and a cold evaluate — identical work each time — swing by
//! 1.6× in wall clock *and* in CPU time, with `/proc/stat` reporting no
//! steal. The disturbance is one-sided (it only ever adds time) and
//! comes in bursts of seconds to a minute, so within a ten-second phase
//! some operations and some rounds run nearly undisturbed. The summary
//! therefore reads the fast end of each distribution — run-to-run
//! spread 1–6 % where the median's is 15–45 % — and says how far the two
//! halves of the phase disagree about that fast end, which is the noise
//! indicator a run can observe about itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::procfs;
use crate::stats;

/// The quantile every timing reads: the 10th percentile of operation
/// times and of the rounds' CPU per operation, the 90th of the rounds'
/// throughput.
pub const FAST_QUANTILE: f64 = 0.10;
/// Least length of a round. A round ends when every client has finished
/// the operation that was running as this much time had passed, so
/// nothing is in flight when the CPU clock is read. Short, because on
/// this machine a shorter window is more often an undisturbed one (the
/// fastest tenth of 0.04 ms operations repeats within 1 %, of 1 s
/// rounds within 5 %); not shorter, because the CPU clock of
/// `/proc/<pid>/stat` ticks at 10 ms, and because a round should hold
/// every kind of operation the workload alternates between.
pub const ROUND_SECONDS: f64 = 0.5;
/// A run whose two half-phases disagree about the fast end by more than
/// this is `noisy`, and `ledger repeat` reports its timing metrics as
/// unresolved.
pub const NOISY_DISAGREEMENT: f64 = 0.10;

/// The trace-cache and response-memo counters a `repro serve` child
/// reports on `/cache`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheCounters {
    pub trace_hits: u64,
    pub trace_misses: u64,
    pub trace_evictions: u64,
    pub trace_bytes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

/// Counters of the program under test that show which layers a
/// workload reached: read from `/metrics` and `/cache` of the `repro
/// serve` child, or from this process's registry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgramCounters {
    /// `simmpi.mailbox.messages`: messages the simulated MPI runtime
    /// delivered.
    pub simmpi_messages: u64,
    /// All zero for the in-process workloads, which have no cache.
    pub cache: CacheCounters,
}

/// One workload, set up and ready for measured phases. Dropping it
/// stops whatever it started.
pub trait Workload: Sync {
    /// Closed-loop client threads driving the load.
    fn clients(&self) -> usize {
        1
    }

    /// The program under test: the `repro serve` child for the service
    /// workloads, this process otherwise.
    fn pid(&self) -> u32 {
        std::process::id()
    }

    /// Called once before each measured phase.
    fn begin(&self) -> Result<(), String> {
        Ok(())
    }

    /// Run operation `index` as client `client`, check its output, and
    /// return the seconds its timed span took.
    fn op(&self, client: usize, index: u64) -> Result<f64, String>;

    /// Called after a phase that completed `ops` operations: checks
    /// that need the whole phase (cache counters that must or must not
    /// have moved).
    fn end(&self, ops: u64) -> Result<(), String> {
        let _ = ops;
        Ok(())
    }

    fn program_counters(&self) -> Result<ProgramCounters, String>;
}

/// One round of a phase: the operations that ran between two moments
/// at which no client had one in flight.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Round {
    /// Operations that succeeded.
    pub ops: u64,
    /// Sum of their timed spans, in seconds.
    pub op_s: f64,
    /// CPU seconds the program under test used over the round.
    pub cpu_s: f64,
}

/// What one measured phase recorded.
pub struct Phase {
    /// Seconds of every operation that succeeded.
    pub samples: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub clients: usize,
    /// In the order they ran.
    pub rounds: Vec<Round>,
    /// Wall seconds from the first operation's start to the last one's
    /// end.
    pub wall_s: f64,
    /// Share of the machine's CPU time the hypervisor reported stolen.
    pub steal_share: f64,
}

/// What the clients of a phase share between rounds.
struct Rounds {
    open: Round,
    closed: Vec<Round>,
    /// CPU seconds of the program when the open round began.
    cpu_mark: f64,
    round_start: Instant,
    error: Option<String>,
}

/// Drive `w` for `seconds`. Every client starts operations until its
/// round is [`ROUND_SECONDS`] old, then waits for the others; with
/// nothing in flight the program's CPU clock is read and the next round
/// begins, until `seconds` have passed (the last round runs to
/// completion). Operation indices come from `next`, shared by the
/// clients and across phases, so seeded input lists continue where the
/// previous phase stopped.
pub fn measure(w: &dyn Workload, seconds: f64, next: &AtomicU64) -> Result<Phase, String> {
    w.begin()?;
    let clients = w.clients();
    let samples = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let attempted = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let done = AtomicBool::new(false);
    let machine_before = procfs::cpu_times()?;
    let start = Instant::now();
    let rounds = Mutex::new(Rounds {
        open: Round::default(),
        closed: Vec::new(),
        cpu_mark: procfs::process_cpu_seconds(w.pid())?,
        round_start: start,
        error: None,
    });
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (samples, failures, attempted) = (&samples, &failures, &attempted);
            let (rounds, barrier, done) = (&rounds, &barrier, &done);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let round_start = rounds.lock().expect("rounds").round_start;
                    let first = mine.len();
                    while round_start.elapsed().as_secs_f64() < ROUND_SECONDS {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        attempted.fetch_add(1, Ordering::Relaxed);
                        match w.op(client, index) {
                            Ok(secs) => mine.push(secs),
                            Err(e) => failures
                                .lock()
                                .expect("failure list")
                                .push(format!("op {index}: {e}")),
                        }
                    }
                    {
                        let mut r = rounds.lock().expect("rounds");
                        r.open.ops += (mine.len() - first) as u64;
                        r.open.op_s += mine[first..].iter().sum::<f64>();
                    }
                    if barrier.wait().is_leader() {
                        let mut r = rounds.lock().expect("rounds");
                        match procfs::process_cpu_seconds(w.pid()) {
                            Ok(cpu) => {
                                r.open.cpu_s = cpu - r.cpu_mark;
                                r.cpu_mark = cpu;
                            }
                            Err(e) => r.error = Some(e),
                        }
                        let closed = std::mem::take(&mut r.open);
                        r.closed.push(closed);
                        r.round_start = Instant::now();
                        let over = start.elapsed().as_secs_f64() >= seconds || r.error.is_some();
                        done.store(over, Ordering::Release);
                    }
                    barrier.wait();
                }
                samples.lock().expect("sample list").extend(mine);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal_share = procfs::cpu_times()?.steal_share_since(&machine_before);
    let rounds = rounds.into_inner().expect("rounds");
    if let Some(e) = rounds.error {
        return Err(e);
    }
    let samples = samples.into_inner().expect("sample list");
    let mut failures = failures.into_inner().expect("failure list");
    if let Err(e) = w.end(samples.len() as u64) {
        failures.push(format!("after the phase: {e}"));
    }
    Ok(Phase {
        samples,
        attempted: attempted.into_inner(),
        failures,
        clients,
        rounds: rounds.closed,
        wall_s,
        steal_share,
    })
}

/// The end-to-end numbers of one phase.
#[derive(Clone, Debug)]
pub struct Summary {
    /// 10th percentile of operation time over the phase.
    pub op_p10_ms: f64,
    /// CPU time of the program under test ÷ operations, per round; the
    /// 10th percentile of the rounds.
    pub cpu_ms_per_op: f64,
    /// Operations ÷ the time the clients spent in them × clients, per
    /// round (clients ÷ the round's mean operation time: throughput
    /// while the loop is closed, without the harness's own work between
    /// operations); the 90th percentile of the rounds.
    pub ops_per_s: f64,
    /// Operations ÷ wall seconds of the whole phase, disturbances and
    /// harness work included: what happened this time. Context.
    pub observed_ops_per_s: f64,
    /// How far the best rounds of the phase's two halves disagree on
    /// throughput, as a share of the better one.
    pub round_disagreement: f64,
    pub noisy: bool,
    pub steal_share: f64,
    pub samples: usize,
    pub rounds: usize,
}

/// See the module comment for why the fast end is read. Unlike
/// `op_p10_ms`, the two per-round metrics see every operation of the
/// rounds they come from: a change that slows only the slower
/// operations, or adds CPU time to some of them, moves them.
pub fn summarise(phase: &Phase) -> Result<Summary, String> {
    let rounds: Vec<&Round> = phase.rounds.iter().filter(|r| r.ops > 0).collect();
    if phase.samples.is_empty() || rounds.is_empty() {
        return Err("no operation succeeded".to_string());
    }
    let mut sorted = phase.samples.clone();
    sorted.sort_by(f64::total_cmp);
    let ascending = |f: &dyn Fn(&Round) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let throughput = |r: &Round| phase.clients as f64 * r.ops as f64 / r.op_s;
    let best = |half: &[&Round]| half.iter().map(|r| throughput(r)).fold(0.0, f64::max);
    let (early, late) = rounds.split_at(rounds.len() / 2);
    let (a, b) = (best(early), best(late));
    // One round has no halves to compare: nothing established.
    let round_disagreement = if early.is_empty() {
        1.0
    } else {
        (a - b).abs() / a.max(b)
    };
    Ok(Summary {
        op_p10_ms: stats::quantile(&sorted, FAST_QUANTILE) * 1e3,
        cpu_ms_per_op: stats::quantile(
            &ascending(&|r| r.cpu_s / r.ops as f64 * 1e3),
            FAST_QUANTILE,
        ),
        ops_per_s: stats::quantile(&ascending(&throughput), 1.0 - FAST_QUANTILE),
        observed_ops_per_s: sorted.len() as f64 / phase.wall_s,
        round_disagreement,
        noisy: round_disagreement > NOISY_DISAGREEMENT,
        steal_share: phase.steal_share,
        samples: sorted.len(),
        rounds: rounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, op_s: f64, cpu_s: f64) -> Round {
        Round { ops, op_s, cpu_s }
    }

    fn phase(samples: Vec<f64>, rounds: Vec<Round>) -> Phase {
        Phase {
            attempted: samples.len() as u64,
            samples,
            failures: Vec::new(),
            clients: 2,
            rounds,
            wall_s: 4.0,
            steal_share: 0.0,
        }
    }

    #[test]
    fn summary_reads_the_fast_end() {
        // Half the operations were disturbed and slow, and so was the
        // second round; the summary must not be dragged by them.
        let samples = [0.1, 0.9].repeat(10);
        let rounds = vec![
            round(8, 0.8, 1.2),
            round(4, 3.6, 2.0),
            round(8, 0.8, 1.2),
            round(0, 0.0, 0.1),
        ];
        let s = summarise(&phase(samples, rounds)).unwrap();
        assert_eq!((s.samples, s.rounds), (20, 3));
        assert!((s.op_p10_ms - 100.0).abs() < 1e-9);
        // 1.2 CPU seconds over 8 operations in the quiet rounds.
        assert!((s.cpu_ms_per_op - 150.0).abs() < 1e-9);
        // 2 clients ÷ 0.1 s mean operation time.
        assert!((s.ops_per_s - 20.0).abs() < 1e-9);
        // What happened includes the slow half.
        assert!((s.observed_ops_per_s - 5.0).abs() < 1e-9);
        // Both halves reached the same best round.
        assert_eq!(s.round_disagreement, 0.0);
        assert!(!s.noisy);
    }

    #[test]
    fn per_round_metrics_see_every_operation() {
        // Every other operation got twice as slow and twice as dear:
        // the fastest tenth does not move, the round quotients do.
        let before = phase(vec![0.1; 20], vec![round(10, 1.0, 1.0); 2]);
        let after = phase([0.1, 0.2].repeat(10), vec![round(10, 1.5, 1.5); 2]);
        let (b, a) = (summarise(&before).unwrap(), summarise(&after).unwrap());
        assert_eq!(b.op_p10_ms, a.op_p10_ms);
        assert!((a.cpu_ms_per_op / b.cpu_ms_per_op - 1.5).abs() < 1e-9);
        assert!((b.ops_per_s / a.ops_per_s - 1.5).abs() < 1e-9);
    }

    #[test]
    fn halves_that_disagree_mark_the_run() {
        // The first half never saw the speed the second half reached.
        let rounds = vec![
            round(5, 1.0, 1.0),
            round(5, 1.0, 1.0),
            round(10, 1.0, 1.0),
            round(10, 1.0, 1.0),
        ];
        let s = summarise(&phase(vec![0.1; 30], rounds)).unwrap();
        assert!((s.round_disagreement - 0.5).abs() < 1e-9);
        assert!(s.noisy);
        // A single round establishes nothing.
        let s = summarise(&phase(vec![3.0, 2.0], vec![round(2, 5.0, 1.0)])).unwrap();
        assert!((s.op_p10_ms - 2100.0).abs() < 1e-9);
        assert!(s.noisy);
    }

    #[test]
    fn a_phase_without_successes_is_an_error() {
        assert!(summarise(&phase(Vec::new(), vec![round(0, 0.0, 0.1)])).is_err());
        assert!(summarise(&phase(Vec::new(), Vec::new())).is_err());
    }

    #[derive(Default)]
    struct Sleeper {
        ran: [AtomicU64; 2],
    }
    impl Workload for Sleeper {
        fn clients(&self) -> usize {
            2
        }
        fn op(&self, client: usize, index: u64) -> Result<f64, String> {
            self.ran[client].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(50));
            if index == 3 {
                return Err("injected".into());
            }
            Ok(0.05)
        }
        fn program_counters(&self) -> Result<ProgramCounters, String> {
            Ok(ProgramCounters::default())
        }
    }

    #[test]
    fn measure_counts_attempts_failures_and_rounds() {
        let next = AtomicU64::new(0);
        let sleeper = Sleeper::default();
        let phase = measure(&sleeper, 1.5 * ROUND_SECONDS, &next).unwrap();
        assert_eq!(phase.failures.len(), 1);
        assert_eq!(phase.attempted, next.load(Ordering::Relaxed));
        assert_eq!(phase.samples.len() as u64 + 1, phase.attempted);
        assert!(phase.wall_s >= 2.0 * ROUND_SECONDS, "whole rounds only");
        assert_eq!(phase.rounds.len(), 2);
        // Every success is in exactly one round.
        let in_rounds: u64 = phase.rounds.iter().map(|r| r.ops).sum();
        assert_eq!(in_rounds, phase.samples.len() as u64);
        let op_s: f64 = phase.rounds.iter().map(|r| r.op_s).sum();
        assert!((op_s - 0.05 * phase.samples.len() as f64).abs() < 1e-9);
        let ran: Vec<u64> = sleeper
            .ran
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert!(
            ran.iter().all(|&n| n > 0),
            "both clients drive load: {ran:?}"
        );
        assert_eq!(ran.iter().sum::<u64>(), phase.attempted);
    }
}
