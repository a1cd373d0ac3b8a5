//! The end-to-end benchmark of the serving stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ingest|replica> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs one workload, so its
//! set-up time and peak memory belong to that workload alone. The
//! program under test is driven in-process through its public API:
//! `LiveRelation::build`, `DurableLiveRelation::{create, apply_batch,
//! checkpoint, recover}`, `PooledExecutor::{execute, execute_rows}`,
//! `SegmentPublisher` and `Follower`. Load comes from at most two client
//! threads; the pool's workers keep `PoolConfig::default()`.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the workload twice, each for half the
//! time: untraced, then with the recorder on and the layers' seams
//! wrapped in the benchmark's timing wrappers. It reports the per-layer
//! metrics of the traced half, the tail latencies of the untraced half,
//! and the traced ÷ untraced ratio of each end-to-end metric, and writes
//! the spans to `.bench_out/`.
//!
//! Every run checks the program's outputs: each read batch against its
//! precomputed exact answers, the writers' acknowledged ops after
//! recovery, and the follower against the primary at quiesce. The last
//! line of standard output is the result; the line before it is the run
//! record (machine, build, seed, policy, sample counts, op counts).

mod gen;
mod ingest;
mod load;
mod replica;
mod stack;
mod stats;
mod sys;
mod trace;

use pitract_obs::Json;
use stats::{quantile, ratio, Metrics};
use trace::{ReconcileSummary, Span, RECONCILE_TOLERANCE};

/// What one pass of a workload produced.
pub struct Phase {
    pub metrics: Metrics,
    pub mismatches: u64,
    pub spans: Vec<(&'static str, Vec<Span>)>,
    pub reconcile: ReconcileSummary,
    pub read_late_ms: Vec<f64>,
    pub write_late_ms: Vec<f64>,
}

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("write_ops_s", "ops/s"),
    ("commit_p50_ms", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
];

/// Tail latencies, measured like the end-to-end metrics but reported
/// ungated, as `tail.<name>` of the traced run's untraced half: on a
/// shared 2-vCPU host their run-to-run spread exceeds any bound the
/// benchmark may set. Every run record also carries them.
const TAILS: [(&str, &str); 2] = [("read_p90_ms", "ms"), ("commit_p99_ms", "ms")];

/// The per-layer metrics every traced run reports. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("setup.build_s", "s"),
    ("setup.create_s", "s"),
    ("setup.bootstrap_s", "s"),
    ("planner.route_us", "us"),
    ("planner.shards_per_query", "count"),
    ("relation.steps_per_query.point-probe", "count"),
    ("relation.steps_per_query.range-probe", "count"),
    ("relation.steps_per_query.index-nested-loop", "count"),
    ("relation.ns_per_step.point-probe", "ns"),
    ("relation.ns_per_step.range-probe", "ns"),
    ("relation.ns_per_step.index-nested-loop", "ns"),
    ("pool.queue_wait_us", "us"),
    ("pool.eval_us", "us"),
    ("pool.eval_max_us", "us"),
    ("pool.jobs_per_batch", "count"),
    ("pool.merge_us", "us"),
    ("pool.admission_wait_us", "us"),
    ("mvcc.pin_us", "us"),
    ("live.apply_us", "us"),
    ("live.update_log_len", "count"),
    ("live.maintenance_records", "count"),
    ("live.slot_count", "count"),
    ("live.worst_maintenance_ratio", "ratio"),
    ("wal.stage_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.records_per_fsync", "count"),
    ("wal.bytes_per_op", "B"),
    ("wal.replayed_records", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.compact_ms", "ms"),
    ("wal.compact_drop_share", "ratio"),
    ("repl.poll_us", "us"),
    ("repl.apply_us", "us"),
    ("repl.records_per_shipment", "count"),
    ("repl.empty_poll_share", "ratio"),
    ("load.gen_late_p99_ms", "ms"),
    ("obs.trace_overhead.setup_s", "ratio"),
    ("obs.trace_overhead.read_p50_ms", "ratio"),
    ("obs.trace_overhead.read_p90_ms", "ratio"),
    ("obs.trace_overhead.write_ops_s", "ratio"),
    ("obs.trace_overhead.commit_p50_ms", "ratio"),
    ("obs.trace_overhead.commit_p99_ms", "ratio"),
    ("obs.trace_overhead.recover_s", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.reconcile_requests", "count"),
    ("tail.read_p90_ms", "ms"),
    ("tail.commit_p99_ms", "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_phase(args: &Args, seconds: f64, traced: bool, setups: usize) -> Result<Phase, String> {
    match args.workload.as_str() {
        "ingest" => ingest::run(args.seed, seconds, traced),
        "replica" => replica::run(args.seed, seconds, traced, setups),
        other => Err(format!("unknown workload {other} (ingest, replica)")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Each layer's share of the traced requests' summed wall time.
fn self_time_share(r: &ReconcileSummary) -> Json {
    r.self_ns.iter().fold(Json::obj(), |obj, (name, ns)| {
        obj.set(name, ratio(*ns, r.wall_ns))
    })
}

fn run(args: &Args) -> Result<(), String> {
    let phases = if args.trace {
        let half = args.seconds / 2.0;
        vec![
            run_phase(args, half, false, 1)?,
            run_phase(args, half, true, 1)?,
        ]
    } else {
        vec![run_phase(args, args.seconds, false, SETUPS)?]
    };
    let base = &phases[0].metrics;
    let last = phases.last().expect("at least one phase ran");

    let mut out = Metrics::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.set(name, last.metrics.get(name), unit);
        }
        let late: Vec<f64> = phases[0]
            .read_late_ms
            .iter()
            .chain(&phases[0].write_late_ms)
            .copied()
            .collect();
        out.set("load.gen_late_p99_ms", quantile(&late, 0.99), "ms");
        for (name, unit) in TAILS {
            out.set(format!("tail.{name}"), base.get(name), unit);
        }
        for (name, _) in END_TO_END.iter().chain(&TAILS) {
            if *name != "peak_rss_mb" && *name != "disk_mb" {
                let overhead = ratio(last.metrics.get(name), base.get(name));
                out.set(format!("obs.trace_overhead.{name}"), overhead, "ratio");
            }
        }
        out.set(
            "obs.unattributed_share",
            last.reconcile.unattributed_share(),
            "ratio",
        );
        out.set(
            "obs.reconcile_requests",
            last.reconcile.requests as f64,
            "count",
        );
        let path = std::path::Path::new(sys::TRACE_ROOT)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let logs: Vec<(&str, &[Span])> = last
            .spans
            .iter()
            .map(|(log, spans)| (*log, spans.as_slice()))
            .collect();
        trace::write_spans(&path, &logs).map_err(|e| format!("writing spans: {e}"))?;
    } else {
        for (name, unit) in END_TO_END {
            out.set(name, base.get(name), unit);
        }
    }

    let mismatches: u64 = phases.iter().map(|p| p.mismatches).sum();
    let reconciled = !args.trace || (last.reconcile.requests > 0 && last.reconcile.holds());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ops = Json::obj();
    let mut samples = Json::obj();
    for p in &phases {
        for c in p.metrics.ops.values() {
            attempted += c.attempted;
            failed += c.failed;
        }
    }
    for (kind, c) in &last.metrics.ops {
        ops = ops.set(
            kind,
            Json::obj()
                .set("attempted", c.attempted)
                .set("failed", c.failed),
        );
    }
    for (name, n) in &last.metrics.samples {
        samples = samples.set(name, *n);
    }
    let mut shapes = Json::obj();
    for (name, qs) in &last.metrics.shapes {
        shapes = shapes.set(name, qs.clone());
    }

    let record = Json::obj()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("nproc", sys::nproc())
        .set("available_parallelism", sys::available_parallelism())
        .set("build_profile", env!("E2EBENCH_PROFILE"))
        .set("rustc", env!("E2EBENCH_RUSTC_VERSION"))
        .set("git_revision", sys::git_revision())
        .set("source_digest", sys::source_digest())
        .set("wal_sync_policy", format!("{:?}", stack::SYNC))
        .set(
            "wal_filesystem",
            sys::filesystem_of(std::path::Path::new(sys::SCRATCH_ROOT)),
        )
        .set("percentile_samples", samples)
        .set("latency_p10_p25_p50_p75_p90_p95_p99_max", shapes)
        .set(
            "tails",
            TAILS
                .iter()
                .fold(Json::obj(), |obj, (name, _)| obj.set(name, base.get(name))),
        )
        .set("ops", ops)
        .set("answer_mismatches", mismatches)
        .set("reconcile_tolerance", RECONCILE_TOLERANCE)
        .set("reconcile_escaped_spans", last.reconcile.escaped)
        .set(
            "reconcile_worst_request_unattributed_share",
            last.reconcile.worst_unattributed_share,
        )
        .set("reconciled", reconciled)
        .set("self_time_share", self_time_share(&last.reconcile));
    println!("{}", Json::obj().set("run_record", record).render());

    let mut metrics = Json::obj();
    for (name, (value, unit)) in &out.values {
        metrics = metrics.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    let result = Json::obj()
        .set("correct", mismatches == 0 && reconciled)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", result.render());
    Ok(())
}
