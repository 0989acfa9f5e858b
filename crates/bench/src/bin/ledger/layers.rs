//! The traced run: the workload once more with client-side spans, then
//! one timed probe per layer through the crates' public functions.
//!
//! End-to-end numbers never come from here — they come from the
//! untraced run. This run produces the per-layer table, writes the
//! spans as `<target>/ledger/trace.json` (Chrome trace), and reports
//! what tracing itself cost (`workload.trace_overhead_pct`).
//!
//! Every probe is workload-independent (same inputs in every traced
//! run, so a layer's number can be followed across PRs whichever
//! workload was traced); only the `workload.*`, `core.trace_cache.*`
//! (bar `hit_us`) and `service.memo.hit_share` rows are read from the
//! program under test while the traced workload runs, and read 0 for a
//! workload that has no such component.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hcft_checkpoint::{CheckpointStore, Level, MultilevelCheckpointer};
use hcft_cluster::{distributed, Evaluator, SchemeIndex, StrategyContext};
use hcft_core::campaign::{CampaignConfig, CampaignKernel};
use hcft_core::experiment::{run_traced_world, TracedWorld};
use hcft_core::scenario::FaultScenario;
use hcft_core::{evaluate_family_sweep, SchemeFamilySpec, TraceResult};
use hcft_erasure::{gf256, EncodingModel, ReedSolomon};
use hcft_graph::WeightedGraph;
use hcft_msglog::HybridProtocol;
use hcft_partition::{MultilevelConfig, MultilevelPartitioner, SizeBounds};
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, FailureArrivals, ReliabilityModel};
use hcft_service::{serve, EvalRequest, EvalService};
use hcft_telemetry::Registry;
use hcft_topology::{NodeId, Placement};
use hcft_tsunami::sequential::SequentialSim;
use hcft_tsunami::TsunamiParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{measure, summarise, ProgramCounters, Workload};
use crate::inproc_load::{
    campaign_grid, replay_engine, REPLAY_KILL_STEP, REPLAY_NODES, REPLAY_PPN, REPLAY_STEPS,
};
use crate::json::Json;
use crate::service_load::get;
use crate::spans::{chrome_trace, Recorder, Span};
use crate::{procfs, setup, stats, RunResult, Site};

/// Every per-layer metric the traced run prints: `(name, unit, better)`.
/// `BENCHMARK.json`'s `per_layer` is this table (a unit test holds them
/// together). Counts marked *exact* in the README repeat bit-for-bit.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workload.traced_op_p10_ms", "ms", "lower"),
    ("workload.trace_overhead_pct", "%", "lower"),
    ("workload.simmpi_messages", "count", "lower"),
    ("workload.trace_builds", "count", "lower"),
    ("core.trace_cache.hit_share", "share", "higher"),
    ("core.trace_cache.evictions", "count", "lower"),
    ("core.trace_cache.resident_mb", "MB", "lower"),
    ("service.memo.hit_share", "share", "higher"),
    ("core.evaluate_ms", "ms", "lower"),
    ("core.evaluate_coverage_pct", "%", "higher"),
    ("core.trace_job_ms", "ms", "lower"),
    ("core.trace_job_share_pct", "%", "lower"),
    ("core.sweep_ms", "ms", "lower"),
    ("core.sweep_share_pct", "%", "lower"),
    ("core.sweep_parallel_x", "x", "higher"),
    ("simmpi.trace_run_ms", "ms", "lower"),
    ("simmpi.msgs_per_s", "1/s", "higher"),
    ("simmpi.byte_matrix_ms", "ms", "lower"),
    ("simmpi.messages", "count", "lower"),
    ("simmpi.bytes", "count", "lower"),
    ("simmpi.sched.busy_share", "share", "higher"),
    ("simmpi.sched.preemptions", "count", "lower"),
    ("simmpi.sched.steal_hits", "count", "higher"),
    ("simmpi.pool.hit_share", "share", "higher"),
    ("simmpi.mailbox.contended_share", "share", "lower"),
    ("tsunami.cell_updates_per_s", "1/s", "higher"),
    ("tsunami.share_of_trace", "share", "lower"),
    ("graph.project_ms", "ms", "lower"),
    ("graph.aggregate_ms", "ms", "lower"),
    ("partition.l1_build_ms", "ms", "lower"),
    ("partition.edge_cut", "count", "lower"),
    ("partition.torus16k_ms", "ms", "lower"),
    ("cluster.build_ms", "ms", "lower"),
    ("cluster.evaluator_new_ms", "ms", "lower"),
    ("cluster.score_ms", "ms", "lower"),
    ("cluster.schemes", "count", "higher"),
    ("msglog.stats_ms", "ms", "lower"),
    ("msglog.restart_ms", "ms", "lower"),
    ("msglog.logged_share_hier", "share", "lower"),
    ("reliability.p_cat_ms", "ms", "lower"),
    ("reliability.p_cat_share_pct", "%", "lower"),
    ("reliability.arrivals_ns_per_sample", "ns", "lower"),
    ("reliability.draw_ns", "ns", "lower"),
    ("core.campaign.kernel_trials_per_s_1t", "1/s", "higher"),
    ("core.campaign.index_build_ms", "ms", "lower"),
    ("core.campaign.parallel_x", "x", "higher"),
    ("core.campaign.events_per_trial", "count", "lower"),
    ("core.trace_cache.hit_us", "us", "lower"),
    ("core.replay.reference_ms", "ms", "lower"),
    ("core.replay.overhead_x", "x", "lower"),
    ("core.replay.messages_replayed", "count", "lower"),
    ("core.replay.bytes_replayed", "count", "lower"),
    ("core.replay.bytes_restored", "count", "lower"),
    ("core.replay.catchup_steps", "count", "lower"),
    ("core.replay.restart_share", "share", "lower"),
    ("checkpoint.encode_ms", "ms", "lower"),
    ("checkpoint.encode_mib_per_s", "MiB/s", "higher"),
    ("checkpoint.local_write_ms", "ms", "lower"),
    ("checkpoint.recover_ms", "ms", "lower"),
    ("checkpoint.rebuilt_bytes", "count", "lower"),
    ("checkpoint.scratch_pool.hit_share", "share", "higher"),
    ("erasure.encode_gb_per_s", "GB/s", "higher"),
    ("erasure.reconstruct_gb_per_s", "GB/s", "higher"),
    ("erasure.mul_acc_gb_per_s", "GB/s", "higher"),
    ("erasure.decode_cache.hit_share", "share", "higher"),
    ("service.parse_us", "us", "lower"),
    ("service.memo_hit_us", "us", "lower"),
    ("service.http_overhead_us", "us", "lower"),
    ("service.healthz_us", "us", "lower"),
    ("service.render_ms", "ms", "lower"),
    ("service.http.tail_ms", "ms", "lower"),
    ("service.http.tail_pct", "%", "higher"),
    ("service.http.errors", "count", "lower"),
    ("telemetry.counter_inc_ns", "ns", "lower"),
    ("telemetry.histogram_observe_ns", "ns", "lower"),
    ("telemetry.snapshot_ms", "ms", "lower"),
    ("bench.repro_small_all_s", "s", "lower"),
];

/// The cold request every evaluate probe uses: the paper machine, full
/// family grid — `eval_cold`'s request at the default cadence.
const PAPER_QUERY: &str = "nodes=64&ppn=16&iters=100&families=full";
const PAPER_QUERY_TABLE2: &str = "nodes=64&ppn=16&iters=100&families=table2";

/// Collected metric values by name, plus the guards that failed and
/// the timing expectations that were missed.
#[derive(Default)]
struct Table {
    values: Vec<(&'static str, f64)>,
    guards_checked: u64,
    failures: Vec<String>,
    /// Not failures: a guard checks an output of the program, which is
    /// right or wrong; a ratio of two timings on a shared host is only
    /// ever likely. Printed on stderr and on the context line.
    warnings: Vec<String>,
}

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not declared in PER_LAYER"
        );
        self.values.push((name, value));
    }

    fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.guards_checked += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Seconds per call of `f`, calling it in batches of `batch` until at
/// least `budget_s` has been spent.
fn per_call_seconds(budget_s: f64, batch: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let spent = start.elapsed().as_secs_f64();
        if spent >= budget_s {
            return spent / calls as f64;
        }
    }
}

/// Wraps a workload so every operation leaves a span; what the traced
/// half of the workload phase runs.
struct Traced<'a> {
    inner: &'a dyn Workload,
    epoch: Instant,
    ops: Mutex<Vec<(u64, u64, u64)>>,
}

impl Workload for Traced<'_> {
    fn clients(&self) -> usize {
        self.inner.clients()
    }
    fn pid(&self) -> u32 {
        self.inner.pid()
    }
    fn begin(&self) -> Result<(), String> {
        self.inner.begin()
    }
    fn op(&self, client: usize, index: u64) -> Result<f64, String> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = self.inner.op(client, index);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.ops.lock().expect("op spans").push((index, start, end));
        out
    }
    fn end(&self, ops: u64) -> Result<(), String> {
        self.inner.end(ops)
    }
    fn program_counters(&self) -> Result<ProgramCounters, String> {
        self.inner.program_counters()
    }
}

/// The workload part: a quarter of `seconds` untraced, a quarter with a
/// span per operation, and the program's own counters over the traced
/// quarter.
fn trace_workload(
    site: &Site,
    name: &str,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    table: &mut Table,
) -> Result<u64, String> {
    let workload = setup(site, name, seed)?;
    let next = AtomicU64::new(0);
    let plain = measure(workload.as_ref(), seconds / 4.0, &next)?;
    let before = workload.program_counters()?;
    let traced = Traced {
        inner: workload.as_ref(),
        epoch: rec.epoch(),
        ops: Mutex::new(Vec::new()),
    };
    let phase = measure(&traced, seconds / 4.0, &next)?;
    let after = workload.program_counters()?;
    for (index, start_ns, end_ns) in traced.ops.into_inner().expect("op spans") {
        rec.add(Span {
            name: format!("workload.{name}.op"),
            start_ns,
            end_ns,
            parent: None,
            request_id: index,
        });
    }
    let plain_p10 = summarise(&plain)?.op_p10_ms;
    let traced_p10 = summarise(&phase)?.op_p10_ms;
    table.set("workload.traced_op_p10_ms", traced_p10);
    table.set(
        "workload.trace_overhead_pct",
        (traced_p10 - plain_p10) / plain_p10 * 100.0,
    );
    table.set(
        "workload.simmpi_messages",
        (after.simmpi_messages - before.simmpi_messages) as f64,
    );
    let (b, a) = (before.cache, after.cache);
    table.set(
        "workload.trace_builds",
        (a.trace_misses - b.trace_misses) as f64,
    );
    table.set(
        "core.trace_cache.hit_share",
        share(a.trace_hits - b.trace_hits, a.trace_misses - b.trace_misses),
    );
    table.set(
        "core.trace_cache.evictions",
        (a.trace_evictions - b.trace_evictions) as f64,
    );
    table.set("core.trace_cache.resident_mb", a.trace_bytes as f64 / 1e6);
    table.set(
        "service.memo.hit_share",
        share(a.memo_hits - b.memo_hits, a.memo_misses - b.memo_misses),
    );
    table.failures.extend(plain.failures);
    table.failures.extend(phase.failures);
    Ok(plain.attempted + phase.attempted)
}

fn describe(e: hcft_telemetry::HcftError) -> String {
    e.to_string()
}

/// What the level-1 tiling leaves for the probes after it.
struct ColdEvaluate {
    /// The service of the last round: `PAPER_QUERY` traced and memoized.
    svc: EvalService,
    /// The body both cold evaluates returned.
    body: Arc<String>,
    trace: TraceResult,
    spec: SchemeFamilySpec,
    evaluate_ms: f64,
    sweep_ms: f64,
}

/// Level-1 coverage the tiling should reach: the ROADMAP's 95 %, and no
/// more than 105 % (tiles that overshoot the evaluate they tile are
/// timing something else). Outside it the run warns and still counts as
/// correct: tiles and evaluate are separate executions, and across
/// traced runs on this VM the ratio of their minima sits at 100–104 %
/// with a tail past either edge.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.95..=1.05;
/// Rounds the tiling may take to get there. Every piece is timed by its
/// minimum over the rounds, which only falls towards the undisturbed
/// time; two rounds usually do.
const TILING_ROUNDS: std::ops::RangeInclusive<u64> = 2..=8;

/// A cold paper-machine evaluate, tiled at level 1: the real in-process
/// `EvalService::evaluate` for the wall clock, then the same work
/// through the public functions it is made of — `service.parse` →
/// `core.trace_job` (`simmpi.run_traced_world`, `simmpi.byte_matrix`,
/// `graph.project`) → `core.family_sweep`. Repeated until the minima of
/// the tiles cover the minimum of the evaluate within [`COVERAGE`].
fn tile_cold_evaluate(rec: &mut Recorder, table: &mut Table) -> Result<ColdEvaluate, String> {
    let registry = Registry::global();
    let counters = [
        "simmpi.sched.busy_nanos",
        "simmpi.sched.idle_nanos",
        "simmpi.sched.preemptions",
        "simmpi.sched.steal_hits",
        "runtime.pool.hits",
        "runtime.pool.misses",
        "simmpi.mailbox.send_contended",
        "simmpi.mailbox.messages",
    ]
    .map(|name| registry.counter(name));
    let mut last = None;
    let mut bodies = Vec::new();
    let mut messages = 0;
    let mut coverage = 0.0f64;
    for round in 0..*TILING_ROUNDS.end() {
        rec.set_request(1_000 + round);
        let svc = EvalService::new(2, 1);
        let req = EvalRequest::from_query(PAPER_QUERY).map_err(describe)?;
        bodies.push(
            rec.span("service.evaluate", |_| svc.evaluate(&req))
                .map_err(describe)?,
        );

        rec.set_request(1_100 + round);
        let (cfg, spec) = rec
            .span("service.parse", |_| {
                let req = EvalRequest::from_query(PAPER_QUERY)?;
                black_box(req.memo_key()?);
                Ok((req.job_config()?, req.family_spec()))
            })
            .map_err(describe)?;
        let before = counters.each_ref().map(|c| c.get());
        let (trace, recorder, after) = rec.span("core.trace_job", |rec| {
            let TracedWorld {
                layout,
                process_grid,
                trace: recorder,
            } = rec.span("simmpi.run_traced_world", |_| run_traced_world(&cfg));
            let after = counters.each_ref().map(|c| c.get());
            let full = rec.span("simmpi.byte_matrix", |_| recorder.byte_matrix());
            let app = rec.span("graph.project", |_| {
                full.project(&layout.application_ranks())
            });
            let trace = TraceResult {
                layout,
                process_grid,
                full,
                app,
                app_events: Vec::new(),
            };
            (trace, recorder, after)
        });
        if round == 0 {
            let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            messages = recorder.total_messages();
            table.set("simmpi.messages", messages as f64);
            table.set("simmpi.bytes", recorder.total_bytes() as f64);
            table.set("simmpi.sched.busy_share", share(d[0], d[1]));
            table.set("simmpi.sched.preemptions", d[2] as f64);
            table.set("simmpi.sched.steal_hits", d[3] as f64);
            table.set("simmpi.pool.hit_share", share(d[4], d[5]));
            table.set(
                "simmpi.mailbox.contended_share",
                d[6] as f64 / d[7].max(1) as f64,
            );
        }
        rec.span("core.family_sweep", |_| {
            evaluate_family_sweep(&trace, &spec)
        })
        .map_err(describe)?;
        last = Some((svc, trace, spec));
        let tiles = ["service.parse", "core.trace_job", "core.family_sweep"];
        let covered: f64 = tiles.iter().map(|name| rec.min_ms(name)).sum();
        coverage = covered / rec.min_ms("service.evaluate");
        if round + 1 >= *TILING_ROUNDS.start() && COVERAGE.contains(&coverage) {
            break;
        }
    }
    let (svc, trace, spec) = last.expect("at least two rounds ran");
    table.guard(bodies.iter().all(|b| *b == bodies[0]), || {
        "cold in-process evaluates of one request returned different bodies".into()
    });

    let evaluate_ms = rec.min_ms("service.evaluate");
    let trace_job_ms = rec.min_ms("core.trace_job");
    let sweep_ms = rec.min_ms("core.family_sweep");
    let run_ms = rec.min_ms("simmpi.run_traced_world");
    table.set("core.evaluate_ms", evaluate_ms);
    table.set("core.evaluate_coverage_pct", coverage * 100.0);
    table.set("core.trace_job_ms", trace_job_ms);
    table.set(
        "core.trace_job_share_pct",
        trace_job_ms / evaluate_ms * 100.0,
    );
    table.set("core.sweep_ms", sweep_ms);
    table.set("core.sweep_share_pct", sweep_ms / evaluate_ms * 100.0);
    table.set("simmpi.trace_run_ms", run_ms);
    table.set("simmpi.msgs_per_s", messages as f64 / (run_ms / 1e3));
    table.set("simmpi.byte_matrix_ms", rec.min_ms("simmpi.byte_matrix"));
    table.set("graph.project_ms", rec.min_ms("graph.project"));
    if !COVERAGE.contains(&coverage) {
        table.warnings.push(format!(
            "level-1 spans cover {:.1} % of a cold in-process evaluate after {} rounds ({:.0}-{:.0} % wanted)",
            coverage * 100.0,
            bodies.len(),
            COVERAGE.start() * 100.0,
            COVERAGE.end() * 100.0
        ));
    }
    Ok(ColdEvaluate {
        svc,
        body: bodies.swap_remove(0),
        trace,
        spec,
        evaluate_ms,
        sweep_ms,
    })
}

/// Level 2: the family sweep again, serially, one public call at a
/// time, and the guard that what it computed is what was served.
fn reenact_sweep(rec: &mut Recorder, table: &mut Table, cold: &ColdEvaluate) -> Result<(), String> {
    rec.set_request(1_200);
    let trace = &cold.trace;
    let placement = trace.layout.app_placement();
    let node_graph = rec.span("graph.aggregate", |_| {
        WeightedGraph::from_comm_matrix(&trace.app.aggregate_by_node(&placement))
    });
    let ctx = StrategyContext {
        placement: &placement,
        node_graph: &node_graph,
    };
    let mut schemes = Vec::new();
    for (family, strategy) in cold.spec.strategies() {
        let name = if family == "hierarchical" {
            "partition.l1_build"
        } else {
            "cluster.build.flat"
        };
        let scheme = rec.span(name, |_| strategy.build(&ctx)).map_err(describe)?;
        schemes.push((family, scheme));
    }
    let evaluator = rec.span("cluster.evaluator_new", |_| {
        Evaluator::new(trace.app.clone(), placement.clone())
    });
    let encoding = EncodingModel::tsubame2();
    let reliability = ReliabilityModel::new(placement.nodes(), EventDistribution::fti_calibrated());
    let served = Json::parse(&cold.body)?;
    let ranking = served
        .get("ranking")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    table.guard(ranking.len() == schemes.len(), || {
        format!(
            "served ranking has {} rows, re-enactment {}",
            ranking.len(),
            schemes.len()
        )
    });
    let mut hier_seen = false;
    for (i, (family, scheme)) in schemes.iter().enumerate() {
        rec.set_request(1_300 + i as u64);
        rec.span("cluster.score", |_| black_box(evaluator.evaluate(scheme)));
        let protocol = HybridProtocol::new(scheme.l1.clone());
        let log = rec.span("msglog.stats", |_| {
            protocol.stats_from_matrix(evaluator.matrix())
        });
        let restart = rec.span("msglog.restart", |_| {
            protocol.expected_restart_fraction(&placement)
        });
        let p_cat = rec.span("reliability.p_cat", |_| {
            reliability.p_catastrophic(&scheme.l2, &placement, &fti_tolerance)
        });
        if *family == "hierarchical" && !hier_seen {
            hier_seen = true;
            // Node → L1 cluster, then the partitioner's objective on
            // the node graph it was given.
            let part: Vec<usize> = (0..placement.nodes())
                .map(|n| scheme.l1.cluster_of(placement.ranks_on(NodeId::from(n))[0]))
                .collect();
            table.set("partition.edge_cut", node_graph.cut_weight(&part) as f64);
            table.set("msglog.logged_share_hier", log.logged_fraction());
        }
        let scores = [
            ("logging_fraction", log.logged_fraction()),
            ("restart_fraction", restart),
            (
                "encode_s_per_gb",
                encoding.seconds_per_gb(scheme.l2.max_size()),
            ),
            ("p_catastrophic", p_cat),
        ];
        let row = ranking
            .iter()
            .find(|row| row.get("name").and_then(Json::as_str) == Some(&scheme.name));
        let same = row.is_some_and(|row| scores.iter().all(|&(key, v)| row.num_at(&[key]) == v));
        table.guard(same, || {
            format!(
                "re-enacted scores of {:?} differ from the served ranking",
                scheme.name
            )
        });
    }
    let l1_ms = rec.sum_ms("partition.l1_build");
    let score_ms = rec.sum_ms("cluster.score");
    let p_cat_ms = rec.sum_ms("reliability.p_cat");
    let aggregate_ms = rec.last_ms("graph.aggregate");
    let build_ms = l1_ms + rec.sum_ms("cluster.build.flat");
    let new_ms = rec.last_ms("cluster.evaluator_new");
    table.set("graph.aggregate_ms", aggregate_ms);
    table.set("partition.l1_build_ms", l1_ms);
    table.set("cluster.build_ms", build_ms);
    table.set("cluster.evaluator_new_ms", new_ms);
    table.set("cluster.score_ms", score_ms);
    table.set("cluster.schemes", schemes.len() as f64);
    table.set("msglog.stats_ms", rec.sum_ms("msglog.stats"));
    table.set("msglog.restart_ms", rec.sum_ms("msglog.restart"));
    table.set("reliability.p_cat_ms", p_cat_ms);
    table.set(
        "reliability.p_cat_share_pct",
        p_cat_ms / cold.evaluate_ms * 100.0,
    );
    // Serial scoring time over the time the real sweep had left for
    // scoring once its serial prefix is taken out.
    table.set(
        "core.sweep_parallel_x",
        score_ms / (cold.sweep_ms - aggregate_ms - build_ms - new_ms).max(1e-3),
    );
    Ok(())
}

/// The warm paths of the service the tiling left behind: a trace-warm
/// evaluate minus its sweep (memo bookkeeping + ranking + rendering),
/// the trace cache's hit path, then the memo-hit and HTTP probes.
fn probe_warm_paths(
    rec: &mut Recorder,
    table: &mut Table,
    cold: ColdEvaluate,
) -> Result<(), String> {
    rec.set_request(1_400);
    let ColdEvaluate { svc, body, .. } = cold;
    let full = EvalRequest::from_query(PAPER_QUERY).map_err(describe)?;
    let table2 = EvalRequest::from_query(PAPER_QUERY_TABLE2).map_err(describe)?;
    // Evicts `full` from the 1-entry memo; its trace stays.
    svc.evaluate(&table2).map_err(describe)?;
    let warm = rec.span("service.evaluate.trace_warm", |_| svc.evaluate(&full));
    table.guard(warm.map_err(describe)? == body, || {
        "trace-warm body differs from the cold body".into()
    });
    let cfg = full.job_config().map_err(describe)?;
    let cached = svc.trace_cache().get_or_trace(&cfg);
    rec.span("core.family_sweep.warm", |_| {
        evaluate_family_sweep(&cached, &full.family_spec())
    })
    .map_err(describe)?;
    table.set(
        "service.render_ms",
        (rec.last_ms("service.evaluate.trace_warm") - rec.last_ms("core.family_sweep.warm"))
            .max(0.0),
    );
    table.set(
        "core.trace_cache.hit_us",
        per_call_seconds(0.05, 1_000, || {
            black_box(svc.trace_cache().get_or_trace(&cfg));
        }) * 1e6,
    );
    probe_service(rec, table, svc, &full, &body)
}

/// Request parsing, the memo-hit path in process and over HTTP, and
/// the cheapest route, against an in-process server.
fn probe_service(
    rec: &mut Recorder,
    table: &mut Table,
    svc: EvalService,
    full: &EvalRequest,
    expected: &str,
) -> Result<(), String> {
    rec.set_request(1_500);
    table.set(
        "service.parse_us",
        per_call_seconds(0.05, 200, || {
            let req = EvalRequest::from_query(PAPER_QUERY).expect("valid query");
            black_box(req.memo_key().expect("valid shape"));
        }) * 1e6,
    );
    svc.evaluate(full).map_err(|e| e.to_string())?;
    let memo_hit_us = per_call_seconds(0.05, 1_000, || {
        black_box(svc.evaluate(full).expect("memo hit"));
    }) * 1e6;
    table.set("service.memo_hit_us", memo_hit_us);

    let errors = Registry::global().counter("service.http.errors");
    let errors_before = errors.get();
    let server = serve("127.0.0.1:0", Arc::new(svc), 4).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let target = format!("/evaluate?{PAPER_QUERY}");
    let timed = |target: &str, n: usize| -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                let (status, body) = get(addr, target)?;
                let secs = t.elapsed().as_secs_f64();
                if status != 200 || (target.len() > 8 && body != expected) {
                    return Err(format!("GET {target}: HTTP {status} or a changed body"));
                }
                Ok(secs)
            })
            .collect()
    };
    let result = rec.span("service.http.probe", |_| {
        Ok::<_, String>((timed("/healthz", 500)?, timed(&target, 2_000)?))
    });
    server.shutdown();
    let (healthz, memo) = result?;
    table.set("service.healthz_us", stats::median(&healthz) * 1e6);
    table.set(
        "service.http_overhead_us",
        stats::median(&memo) * 1e6 - memo_hit_us,
    );
    let (pct, tail_s) = stats::tail(&memo).expect("2000 samples have a tail");
    table.set("service.http.tail_ms", tail_s * 1e3);
    table.set("service.http.tail_pct", pct);
    table.set("service.http.errors", (errors.get() - errors_before) as f64);
    Ok(())
}

/// The stencil alone on the `eval_cold` grid, and the partitioner at a
/// scale the paper machine never reaches.
fn probe_kernels(rec: &mut Recorder, table: &mut Table) {
    rec.set_request(2_000);
    // The solver grid of a nodes=64&ppn=16&iters=100 request.
    let (nx, ny, iters) = (1024usize, 512usize, 100u64);
    rec.span("tsunami.sequential", |_| {
        let mut sim = SequentialSim::new(TsunamiParams::stable(nx, ny));
        sim.run(iters);
        black_box(&sim.eta);
    });
    let stencil_ms = rec.last_ms("tsunami.sequential");
    table.set(
        "tsunami.cell_updates_per_s",
        (nx * ny) as f64 * iters as f64 / (stencil_ms / 1e3),
    );
    table.set(
        "tsunami.share_of_trace",
        stencil_ms / rec.min_ms("simmpi.run_traced_world"),
    );

    let torus = hcft_topology::synthetic::torus2d(128, 128, 1);
    let mut graph = WeightedGraph::new(torus.nodes);
    for &(u, v, w) in &torus.edges {
        graph.add_edge(u as usize, v as usize, w);
    }
    let cfg = MultilevelConfig::new(graph.n() / 64, SizeBounds::new(16, 256));
    rec.span("partition.torus16k", |_| {
        black_box(MultilevelPartitioner::new(cfg).partition(&graph));
    });
    table.set("partition.torus16k_ms", rec.last_ms("partition.torus16k"));
}

/// The campaign kernel on one thread against the grid on all of them,
/// over the same cells, and the two samplers underneath.
fn probe_campaign(rec: &mut Recorder, table: &mut Table, seed: u64) -> Result<(), String> {
    rec.set_request(3_000);
    const TRIALS: u64 = 8_192;
    let grid = campaign_grid(seed, TRIALS);
    let mut events = 0u64;
    let mut index_ms = 0.0;
    let mut serial_s = 0.0;
    for strategy in &grid.strategies {
        for &mtbf_h in &grid.mtbfs_h {
            let placement = Placement::block(grid.machine_nodes[0], grid.ppn);
            let scheme = strategy
                .build(&placement, grid.cluster_sizes[0])
                .map_err(|e| e.to_string())?;
            let cfg = CampaignConfig {
                arrivals: FailureArrivals::exponential(mtbf_h),
                ..grid.base.clone()
            };
            let sampler = cfg.events.sampler();
            let index = rec.span("core.campaign.index_build", |_| {
                SchemeIndex::new(&scheme, &placement)
            });
            index_ms += rec.last_ms("core.campaign.index_build");
            let mut kernel = CampaignKernel::new(&index, &sampler, &cfg, placement.nprocs());
            rec.span("core.campaign.kernel_1t", |_| {
                for trial in 0..TRIALS {
                    events += kernel.run_trial(trial).failures;
                }
            });
            serial_s += rec.last_ms("core.campaign.kernel_1t") / 1e3;
        }
    }
    let cells = grid.cells() as u64;
    rec.span("core.campaign.grid", |_| grid.run())
        .map_err(|e| e.to_string())?;
    table.set(
        "core.campaign.kernel_trials_per_s_1t",
        (cells * TRIALS) as f64 / serial_s,
    );
    table.set("core.campaign.index_build_ms", index_ms);
    table.set(
        "core.campaign.parallel_x",
        serial_s / (rec.last_ms("core.campaign.grid") / 1e3),
    );
    table.set(
        "core.campaign.events_per_trial",
        events as f64 / (cells * TRIALS) as f64,
    );

    // One call samples a month of arrivals at a 6 h MTBF (~120 of them).
    let arrivals = FailureArrivals::exponential(6.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut sampled = 0usize;
    let t = Instant::now();
    for _ in 0..2_000 {
        arrivals.sample_times_into(30.0 * 24.0, &mut rng, &mut times);
        sampled += times.len();
    }
    table.set(
        "reliability.arrivals_ns_per_sample",
        t.elapsed().as_secs_f64() * 1e9 / sampled as f64,
    );
    let sampler = EventDistribution::fti_calibrated().sampler();
    table.set(
        "reliability.draw_ns",
        per_call_seconds(0.05, 10_000, || {
            black_box(sampler.draw(rng.random::<f64>()));
        }) * 1e9,
    );
    Ok(())
}

/// The uninterrupted run against one kill-and-recover of the same run.
fn probe_replay(site: &Site, rec: &mut Recorder, table: &mut Table) -> Result<(), String> {
    rec.set_request(4_000);
    let store = site
        .scratch
        .join(format!("probe-replay-{}", std::process::id()));
    let engine = replay_engine(&store);
    let reference = rec.span("core.replay.reference", |_| engine.reference(REPLAY_STEPS));
    let scenario = FaultScenario::at(REPLAY_KILL_STEP).l1_cluster(3).build();
    let outcome = rec.span("core.replay.kill", |_| engine.run(&scenario, REPLAY_STEPS));
    crate::inproc_load::remove_store(&store);
    let outcome = outcome.map_err(|e| e.to_string())?;
    table.guard(
        outcome.matches(&reference) && outcome.messages_replayed > 0,
        || "probe kill did not recover the reference state from logged messages".into(),
    );
    let reference_ms = rec.last_ms("core.replay.reference");
    table.set("core.replay.reference_ms", reference_ms);
    table.set(
        "core.replay.overhead_x",
        rec.last_ms("core.replay.kill") / reference_ms,
    );
    table.set(
        "core.replay.messages_replayed",
        outcome.messages_replayed as f64,
    );
    table.set("core.replay.bytes_replayed", outcome.bytes_replayed as f64);
    table.set("core.replay.bytes_restored", outcome.bytes_restored as f64);
    table.set("core.replay.catchup_steps", outcome.catchup_steps as f64);
    table.set(
        "core.replay.restart_share",
        outcome.restart_set.len() as f64 / (REPLAY_NODES * REPLAY_PPN) as f64,
    );
    Ok(())
}

/// Multi-level checkpointing of 64 ranks × 1 MiB on real files (a
/// quarter of the 256 ranks a paper-machine node group would write: the
/// full size spends six seconds in the page cache), and the codes
/// underneath it in memory.
fn probe_checkpoint(site: &Site, rec: &mut Recorder, table: &mut Table) -> Result<(), String> {
    rec.set_request(5_000);
    const RANKS_PER_NODE: usize = 4;
    const NODES: usize = 16;
    const PAYLOAD: usize = 1 << 20;
    let root = site
        .scratch
        .join(format!("probe-ckpt-{}", std::process::id()));
    let placement = Placement::block(NODES, RANKS_PER_NODE);
    // L2 groups of 4 ranks, each on a distinct node.
    let groups = distributed(&placement, 4).l2;
    let registry = Registry::new();
    let result = (|| {
        let store = CheckpointStore::create(&root, NODES).map_err(|e| e.to_string())?;
        let ckpt = MultilevelCheckpointer::with_telemetry(
            store,
            groups,
            placement.clone(),
            registry.clone(),
        );
        let payloads: Vec<Vec<u8>> = (0..placement.nprocs())
            .map(|r| (0..PAYLOAD).map(|b| ((r * 31 + b) % 251) as u8).collect())
            .collect();
        let err = |e: hcft_telemetry::HcftError| e.to_string();
        // Epoch 1 fills the directory tree and the scratch pools.
        ckpt.checkpoint(1, Level::Encoded, &payloads).map_err(err)?;
        rec.span("checkpoint.local_write", |_| {
            ckpt.checkpoint(2, Level::Local, &payloads)
        })
        .map_err(err)?;
        rec.span("checkpoint.encode", |_| {
            ckpt.checkpoint(3, Level::Encoded, &payloads)
        })
        .map_err(err)?;
        let rebuilt = rec
            .span("checkpoint.recover", |_| {
                ckpt.store().fail_node(NodeId(5))?;
                ckpt.recover(3)
            })
            .map_err(err)?;
        Ok::<bool, String>(rebuilt == payloads)
    })();
    crate::inproc_load::remove_store(&root);
    table.guard(result?, || {
        "checkpoint recovery after a node loss did not return the payloads".into()
    });
    let encode_ms = rec.last_ms("checkpoint.encode");
    table.set("checkpoint.encode_ms", encode_ms);
    table.set(
        "checkpoint.encode_mib_per_s",
        (NODES * RANKS_PER_NODE) as f64 / (encode_ms / 1e3),
    );
    table.set(
        "checkpoint.local_write_ms",
        rec.last_ms("checkpoint.local_write"),
    );
    table.set("checkpoint.recover_ms", rec.last_ms("checkpoint.recover"));
    table.set(
        "checkpoint.rebuilt_bytes",
        registry.counter("checkpoint.rebuilt_payload_bytes").get() as f64,
    );
    table.set(
        "checkpoint.scratch_pool.hit_share",
        share(
            registry.counter("checkpoint.scratch_pool.hits").get(),
            registry.counter("checkpoint.scratch_pool.misses").get(),
        ),
    );

    // In memory: computed bytes (data shards in) per second.
    let rs = ReedSolomon::fti_for_group(4);
    let data: Vec<Vec<u8>> = (0..rs.data_shards())
        .map(|s| (0..PAYLOAD).map(|b| ((s * 17 + b) % 253) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    let mut parity = vec![vec![0u8; PAYLOAD]; rs.parity_shards()];
    let data_bytes = (rs.data_shards() * PAYLOAD) as f64;
    let encode_s = per_call_seconds(0.1, 4, || {
        rs.encode_into(&refs, parity.iter_mut().map(|p| &mut p[..]).collect());
    });
    table.set("erasure.encode_gb_per_s", data_bytes / encode_s / 1e9);
    let full: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
    let mut work = full.clone();
    let mut rebuilt_ok = true;
    let reconstruct_s = per_call_seconds(0.1, 4, || {
        work[1] = None;
        rebuilt_ok &= rs.reconstruct(&mut work).is_ok();
    });
    table.guard(rebuilt_ok && work == full, || {
        "Reed-Solomon reconstruction of one lost shard failed".into()
    });
    table.set(
        "erasure.reconstruct_gb_per_s",
        PAYLOAD as f64 / reconstruct_s / 1e9,
    );
    let cache = rs.decode_cache_stats();
    table.set(
        "erasure.decode_cache.hit_share",
        share(cache.hits, cache.misses),
    );
    let mut acc = vec![0u8; PAYLOAD];
    let mul_acc_s = per_call_seconds(0.1, 16, || {
        gf256::mul_acc(&mut acc, &data[0], 0x1d);
    });
    black_box(&acc);
    table.set("erasure.mul_acc_gb_per_s", PAYLOAD as f64 / mul_acc_s / 1e9);
    Ok(())
}

/// The telemetry hot paths and the `/metrics` body, on the registry the
/// probes above have filled.
fn probe_telemetry(table: &mut Table) {
    let registry = Registry::new();
    let counter = registry.counter("ledger.probe.counter");
    table.set(
        "telemetry.counter_inc_ns",
        per_call_seconds(0.03, 100_000, || counter.inc()) * 1e9,
    );
    let histogram = registry.histogram("ledger.probe.histogram");
    let mut v = 1u64;
    table.set(
        "telemetry.histogram_observe_ns",
        per_call_seconds(0.03, 100_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.observe(v >> 40);
        }) * 1e9,
    );
    table.set(
        "telemetry.snapshot_ms",
        per_call_seconds(0.03, 4, || {
            black_box(Registry::global().snapshot().to_json());
        }) * 1e3,
    );
}

/// `repro --scale small all` once, as a subprocess, into the scratch
/// directory. Not a workload: its time is the `eval_cold` trace plus
/// sweeps other workloads cover, and one figure embeds a timing, so its
/// output cannot be checked byte for byte.
fn probe_repro_all(site: &Site, table: &mut Table) -> Result<(), String> {
    let out = site
        .scratch
        .join(format!("probe-repro-all-{}", std::process::id()));
    let t = Instant::now();
    let status = Command::new(&site.repro)
        .args(["--scale", "small", "--out"])
        .arg(&out)
        .arg("all")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn repro all: {e}"));
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&out);
    table.guard(status?.success(), || {
        "repro --scale small all exited with a failure".into()
    });
    table.set("bench.repro_small_all_s", secs);
    Ok(())
}

/// The traced run of workload `name`.
pub fn run_traced(site: &Site, name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut rec = Recorder::new();
    let mut table = Table::default();
    let attempted = trace_workload(site, name, seed, seconds, &mut rec, &mut table)?;
    let cold = tile_cold_evaluate(&mut rec, &mut table)?;
    reenact_sweep(&mut rec, &mut table, &cold)?;
    probe_warm_paths(&mut rec, &mut table, cold)?;
    probe_kernels(&mut rec, &mut table);
    probe_campaign(&mut rec, &mut table, seed)?;
    probe_replay(site, &mut rec, &mut table)?;
    probe_checkpoint(site, &mut rec, &mut table)?;
    probe_telemetry(&mut table);
    probe_repro_all(site, &mut table)?;

    let trace_path = site.scratch.join("trace.json");
    std::fs::write(&trace_path, chrome_trace(rec.spans()).to_string())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            table
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| (name.to_string(), v, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for warning in &table.warnings {
        eprintln!("ledger: warning: {warning}");
    }
    Ok(RunResult {
        attempted: attempted + table.guards_checked,
        failures: table.failures,
        metrics,
        info: Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(seed)),
            (
                "warnings",
                Json::Arr(table.warnings.into_iter().map(Json::Str).collect()),
            ),
            ("trace_json", Json::Str(trace_path.display().to_string())),
            ("spans", Json::from(rec.spans().len() as u64)),
            ("fingerprint", procfs::fingerprint(&site.root)),
        ]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert!(names.len() <= 128);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "duplicate metric name");
        for (name, unit, better) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(matches!(*better, "higher" | "lower"), "{better}");
        }
    }

    #[test]
    fn per_call_seconds_divides_by_the_calls_made() {
        let mut calls = 0u64;
        let per = per_call_seconds(0.02, 10, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(calls % 10, 0);
        assert!((0.001..0.02).contains(&per), "{per}");
    }

    #[test]
    fn shares_are_zero_when_nothing_happened() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(3, 1), 0.75);
    }
}
