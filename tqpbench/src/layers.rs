//! Per-layer measurement for the traced runs. Everything here times calls
//! into a layer's public functions from outside the program, or reads the
//! program's own trace and metrics registry; nothing inside the program is
//! changed for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::exec::{ExecConfig, Executor};
use tqp_repro::ir::{bind_query, optimize, physical, plan_physical};
use tqp_repro::ml::Model;
use tqp_repro::obs::{op_index_of, QueryTrace, TraceSpan};
use tqp_repro::tensor::Tensor;

use crate::common::{median, Report, Tally};

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Samples of the five compile phases, one per compiled statement (µs).
#[derive(Default)]
pub struct CompileSplit {
    parse: Vec<f64>,
    bind: Vec<f64>,
    optimize: Vec<f64>,
    physical: Vec<f64>,
    lower: Vec<f64>,
}

impl CompileSplit {
    /// Compile `sql` phase by phase, as `Session::compile` does, timing
    /// each phase on its own.
    pub fn sample(&mut self, session: &Session, sql: &str, cfg: QueryConfig) {
        let t = Instant::now();
        let stmt = tqp_repro::sql::parse_statement(sql).expect("benchmark SQL parses");
        self.parse.push(us(t));
        let query = match stmt {
            tqp_repro::sql::Statement::Query(q) => q,
            _ => panic!("benchmark statements are plain queries"),
        };
        let t = Instant::now();
        let logical = bind_query(&query, session.catalog()).expect("benchmark SQL binds");
        self.bind.push(us(t));
        let t = Instant::now();
        let optimized = optimize::optimize(logical, session.catalog());
        self.optimize.push(us(t));
        let t = Instant::now();
        let mut plan = plan_physical(&optimized, &cfg.physical);
        physical::annotate_build_stats(&mut plan, session.catalog());
        self.physical.push(us(t));
        let t = Instant::now();
        let exec = Executor::compile(
            &plan,
            ExecConfig {
                backend: cfg.backend,
                device: cfg.device,
                gpu_strategy: cfg.gpu_strategy,
                prune_scans: cfg.prune_scans,
                workers: cfg.workers,
                fuse_exprs: cfg.fuse_exprs,
                flat_hash: cfg.flat_hash,
                simd: cfg.simd,
            },
        );
        self.lower.push(us(t));
        std::hint::black_box(exec);
    }

    pub fn report(&self, r: &mut Report) {
        r.put("sql.parse_us", median(&self.parse), "us");
        r.put("ir.bind_us", median(&self.bind), "us");
        r.put("ir.optimize_us", median(&self.optimize), "us");
        r.put("ir.physical_us", median(&self.physical), "us");
        r.put("exec.lower_us", median(&self.lower), "us");
    }
}

/// Op families the execution time is folded into.
const FAMILIES: [&str; 7] = [
    "scan",
    "filter",
    "project",
    "join",
    "aggregate",
    "sort",
    "predict",
];

/// The op name of a span key (`HashProbe@op3` → `HashProbe`).
fn op_name(span_name: &str) -> &str {
    span_name.rsplit_once("@op").map_or(span_name, |(n, _)| n)
}

fn family(op_name: &str) -> usize {
    let f = if op_name.starts_with("Scan") {
        "scan"
    } else if op_name == "Filter" {
        "filter"
    } else if op_name == "Project+Predict" {
        "predict"
    } else if op_name == "Project" {
        "project"
    } else if op_name.ends_with("Aggregate") {
        "aggregate"
    } else if op_name == "Sort" || op_name == "Limit" {
        "sort"
    } else {
        // HashBuild, HashJoin(..), SortMergeJoin(..), CrossJoin
        "join"
    };
    FAMILIES.iter().position(|&x| x == f).expect("known family")
}

/// Execution time folded by op family, summed over traced executions.
///
/// A sequential op's span is wall time. Inside a parallel section every op
/// of the section shares the section's start and reports its summed worker
/// time, which can exceed the section's wall time; the section's wall time
/// is bounded by the start of the next span (or the end of the run), and
/// its ops are scaled down to that bound when they exceed it. What no op
/// covers is `unattributed` (for example a stored scan's chunk decode
/// outside every op span), so per query the parts add up to the wall time.
#[derive(Default)]
pub struct OpFold {
    run_ms: f64,
    ops_ms: [f64; FAMILIES.len()],
    unattributed_ms: f64,
    rows_out: f64,
}

impl OpFold {
    /// Add one traced execution whose wall time, timed around the run
    /// call, was `run_ms`, and record in `tally` the check that the trace
    /// claims no more time than the run took: neither its own wall time
    /// nor its ops' attributed wall time may exceed `run_ms` (plus 2 µs of
    /// rounding per span). A trace that fails is not folded in.
    pub fn add(
        &mut self,
        run_ms: f64,
        rows_out: usize,
        trace: &QueryTrace,
        what: &str,
        tally: &mut Tally,
    ) {
        let fam = attribute(run_ms * 1e3, trace);
        if let Err(e) = &fam {
            eprintln!("{what}: {e}");
        }
        tally.record::<String>(&format!("{what}: trace within the run"), Ok(fam.is_ok()));
        let Ok(fam) = fam else { return };
        let covered_ms: f64 = fam.iter().sum::<f64>() / 1e3;
        for (acc, v) in self.ops_ms.iter_mut().zip(fam) {
            *acc += v / 1e3;
        }
        self.unattributed_ms += (run_ms - covered_ms).max(0.0);
        self.run_ms += run_ms;
        self.rows_out += rows_out as f64;
    }

    /// Report the fold divided by `rounds` (per pass / per round figures).
    pub fn report(&self, r: &mut Report, rounds: f64) {
        let d = rounds.max(1.0);
        r.put("exec.run_ms", self.run_ms / d, "ms");
        for (name, v) in FAMILIES.iter().zip(self.ops_ms) {
            r.put(&format!("exec.{name}_ms"), v / d, "ms");
        }
        r.put("exec.unattributed_ms", self.unattributed_ms / d, "ms");
        r.put("exec.rows_out", self.rows_out / d, "count");
    }
}

/// Wall time (µs) a trace attributes to each op family in a run of
/// `run_us`, as described on [`OpFold`].
fn attribute(run_us: f64, trace: &QueryTrace) -> Result<[f64; FAMILIES.len()], String> {
    let mut spans: Vec<&TraceSpan> = trace
        .spans
        .iter()
        .filter(|s| op_index_of(&s.name).is_some())
        .collect();
    spans.sort_by_key(|s| s.start_us);
    let slack_us = 2.0 * (spans.len() + 1) as f64;
    if trace.wall_us as f64 > run_us + slack_us {
        return Err(format!(
            "trace wall {} us exceeds the timed run {run_us:.0} us",
            trace.wall_us
        ));
    }
    let mut fam = [0f64; FAMILIES.len()];
    let mut i = 0;
    while i < spans.len() {
        let start = spans[i].start_us;
        let mut j = i + 1;
        if spans[i].chunks == 0 {
            fam[family(op_name(&spans[i].name))] += spans[i].dur_us as f64;
        } else {
            while j < spans.len() && spans[j].chunks > 0 && spans[j].start_us == start {
                j += 1;
            }
            let section = &spans[i..j];
            let cpu_us: f64 = section.iter().map(|s| s.dur_us as f64).sum();
            let end_us = spans.get(j).map_or(run_us, |s| s.start_us as f64);
            let wall_us = (end_us - start as f64).max(0.0);
            let scale = if cpu_us > wall_us {
                wall_us / cpu_us
            } else {
                1.0
            };
            for s in section {
                fam[family(op_name(&s.name))] += s.dur_us as f64 * scale;
            }
        }
        i = j;
    }
    let covered_us: f64 = fam.iter().sum();
    if covered_us > run_us + slack_us {
        return Err(format!(
            "op spans cover {covered_us:.0} us of a {run_us:.0} us run"
        ));
    }
    Ok(fam)
}

/// Registry counters read before and after a phase.
pub struct Counters {
    sections: u64,
    helper_tasks: u64,
    simd: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let s = tqp_repro::obs::registry().snapshot();
        Counters {
            sections: s.counter("sched.sections"),
            helper_tasks: s.counter("sched.helper_tasks"),
            simd: ["hash", "filter", "gather", "reduce", "decode"]
                .iter()
                .map(|f| s.counter(&format!("simd.{f}")))
                .sum(),
        }
    }

    /// Report the counter deltas since `self`, divided by `rounds`.
    pub fn report_since(&self, r: &mut Report, rounds: f64) {
        let now = Counters::read();
        let d = rounds.max(1.0);
        r.put(
            "sched.sections",
            (now.sections - self.sections) as f64 / d,
            "count",
        );
        r.put(
            "sched.helper_tasks",
            (now.helper_tasks - self.helper_tasks) as f64 / d,
            "count",
        );
        r.put(
            "simd.dispatches",
            (now.simd - self.simd) as f64 / d,
            "count",
        );
    }
}

/// Pass-through model wrapper registered in place of the real model during
/// the traced run: counts `Model::predict` calls and rows and times them.
pub struct TimedModel {
    inner: Arc<dyn Model>,
    calls: AtomicU64,
    rows: AtomicU64,
    ns: AtomicU64,
}

impl TimedModel {
    pub fn new(inner: Arc<dyn Model>) -> TimedModel {
        TimedModel {
            inner,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// `(calls, rows, ns)` so far.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.rows.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl Model for TimedModel {
    fn family(&self) -> &'static str {
        self.inner.family()
    }
    fn n_inputs(&self) -> usize {
        self.inner.n_inputs()
    }
    fn predict(&self, inputs: &[Tensor]) -> Tensor {
        let t = Instant::now();
        let out = self.inner.predict(inputs);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(out.nrows() as u64, Ordering::Relaxed);
        out
    }
}

/// Every per-layer metric, so a traced run always prints the full set:
/// a layer a workload does not use reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("ir.bind_us", "us"),
    ("ir.optimize_us", "us"),
    ("ir.physical_us", "us"),
    ("exec.lower_us", "us"),
    ("exec.run_ms", "ms"),
    ("exec.scan_ms", "ms"),
    ("exec.filter_ms", "ms"),
    ("exec.project_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.aggregate_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.predict_ms", "ms"),
    ("exec.unattributed_ms", "ms"),
    ("exec.rows_out", "count"),
    ("sched.sections", "count"),
    ("sched.helper_tasks", "count"),
    ("simd.dispatches", "count"),
    ("core.register_s", "s"),
    ("store.write_s", "s"),
    ("store.open_ms", "ms"),
    ("store.bytes_per_user_byte", "ratio"),
    ("store.chunks_scanned", "count"),
    ("store.chunks_pruned", "count"),
    ("store.prune_ratio", "ratio"),
    ("ml.predict_calls", "count"),
    ("ml.predict_rows", "count"),
    ("ml.predict_ms", "ms"),
    ("serve.point_p50_ms", "ms"),
    ("serve.scan_p50_ms", "ms"),
    ("serve.predict_p50_ms", "ms"),
    ("serve.adhoc_p50_ms", "ms"),
    ("serve.prepare_hit_us", "us"),
    ("serve.prepare_miss_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("net.rtt_us", "us"),
    ("net.server_us", "us"),
    ("net.wire_us", "us"),
    ("wall.query_geomean_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.late_p95_ms", "ms"),
];

/// Put every per-layer metric the workload did not measure as 0, in the
/// canonical order.
pub fn complete(r: &mut Report) {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let v = r
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |m| m.1);
        out.push((name.to_string(), v, unit));
    }
    r.metrics = out;
}
