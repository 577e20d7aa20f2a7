//! Pieces every workload shares: the seeded generator, statistics, the
//! result checkers, the scratch directory, and the printed report.

use std::path::PathBuf;
use std::time::Instant;

use tqp_repro::data::tpch::{TpchConfig, TpchData};
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::tensor::Scalar;

/// TPC-H scale factor of every workload (lineitem ≈ 300k rows).
pub const SF: f64 = 0.05;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// SplitMix64: a tiny, well-mixed, seedable generator. The benchmark owns
/// its randomness so the inputs depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The TPC-H instance of a run: generated from the run's seed, outside
/// every timed region (the generator prepares inputs; it is not the
/// program under test).
pub fn tpch_data(seed: u64) -> TpchData {
    TpchData::generate(&TpchConfig {
        scale_factor: SF,
        seed: Rng::new(seed, 1).next_u64(),
    })
}

pub fn f64s<'a>(frame: &'a DataFrame, name: &str) -> &'a [f64] {
    match frame.column_by_name(name) {
        Some(Column::Float64(v)) => v,
        other => panic!("column {name} is not Float64: {other:?}"),
    }
}

/// Int64 and Date (epoch ns) columns.
pub fn i64s<'a>(frame: &'a DataFrame, name: &str) -> &'a [i64] {
    match frame.column_by_name(name) {
        Some(Column::Int64(v)) | Some(Column::Date(v)) => v,
        other => panic!("column {name} is not Int64/Date: {other:?}"),
    }
}

pub fn strs<'a>(frame: &'a DataFrame, name: &str) -> &'a [String] {
    match frame.column_by_name(name) {
        Some(Column::Str(v)) => v,
        other => panic!("column {name} is not Str: {other:?}"),
    }
}

/// Epoch nanoseconds of a `YYYY-MM-DD` date.
pub fn date_ns(s: &str) -> i64 {
    tqp_repro::data::dates::parse_to_ns(s).expect("valid date literal")
}

/// Relative float agreement used by every answer check: sums computed in
/// a different order than the engine's differ in the last bits only.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// A result in canonical form: its column count and its rows as strings.
pub struct Canon {
    pub ncols: usize,
    pub rows: Vec<Vec<String>>,
}

/// Rows as strings (floats to 4 places), sorted: the canonical form in
/// which an engine result and the row-engine oracle are compared.
pub fn canon(frame: &DataFrame) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{v:.4}"),
                    Scalar::F32(v) => format!("{v:.4}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Cell-by-cell agreement after canonical sorting, with a 1e-6 relative
/// tolerance on numbers (float sums over joins associate differently in
/// the row engine).
pub fn frames_match(got: &DataFrame, expect: &Canon) -> bool {
    if got.nrows() != expect.rows.len() || got.ncols() != expect.ncols {
        return false;
    }
    canon(got).iter().zip(&expect.rows).all(|(gr, er)| {
        gr.iter().zip(er).all(|(g, e)| {
            g == e
                || matches!((g.parse::<f64>(), e.parse::<f64>()),
                    (Ok(a), Ok(b)) if (a - b).abs() <= 1e-6 * b.abs().max(1.0))
        })
    })
}

/// Bitwise, order-sensitive digest of a result frame. The engine's
/// determinism contract makes repeated executions bit-identical, so each
/// measured execution is checked against the digest of its verified one.
pub fn digest(frame: &DataFrame) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    mix(frame.nrows() as u64);
    for i in 0..frame.nrows() {
        for s in frame.row(i) {
            match s {
                Scalar::F64(v) => mix(v.to_bits()),
                Scalar::I64(v) => mix(v as u64),
                other => other.to_string().bytes().for_each(|b| mix(b as u64)),
            }
        }
    }
    h
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time (user + system, every thread) this process has used so far,
/// in seconds. On a guest whose kernel accounts steal time
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), time the hypervisor gave to other
/// guests is not counted; wall time counts it. A thread running on another
/// core while this is read is counted up to its last scheduler tick, so
/// read it when the threads of the measured work have finished.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (two 64-bit fields), and the clock id is Linux's
    // constant for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// System-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`; `(0, 0)` where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Percentage of all CPU time the hypervisor gave to other guests since
/// `since` (a [`cpu_ticks`] reading).
pub fn steal_pct_since(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * now.0.saturating_sub(since.0) as f64 / total as f64
}

/// Geometric mean over statements of each statement's median sample.
pub fn geomean_of_medians<'a>(samples: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let logs: Vec<f64> = samples.into_iter().map(|s| median(s).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the stored workload writes its files: a per-process directory
/// under the working directory, removed when the run ends.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        let dir = PathBuf::from(".tqpbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly when
        // another run still uses it).
        let _ = std::fs::remove_dir(".tqpbench_tmp");
    }
}

/// Operation accounting of a run. A wrong answer is a failed operation
/// and makes the run incorrect; an error returned by the program is a
/// failed operation only.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Record one operation: `Ok(true)` right, `Ok(false)` wrong answer,
    /// `Err` failed.
    pub fn record<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<bool, E>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                self.failed += 1;
                self.wrong += 1;
                if self.wrong <= 5 {
                    eprintln!("wrong answer: {what}");
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("failed: {what}: {e}");
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What a run reports: named metrics with units, plus the operation tally.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// How late the open-loop generator sent, p95 (ms); 0 for workloads
    /// without one.
    pub late_p95_ms: f64,
    /// Share of the host's CPU time given to other guests during the run (%).
    pub steal_pct: f64,
}

impl Report {
    pub fn new() -> Report {
        Report {
            tally: Tally::default(),
            metrics: Vec::new(),
            late_p95_ms: 0.0,
            steal_pct: 0.0,
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How fast the host ran two fixed probes at the start of the run, so that
/// runs made in different host states can be told apart: the cost of one
/// `std::thread::available_parallelism()` call (µs; the program's
/// `num_threads()` pays it on every parallel kernel call) and the time of a
/// fixed dependent multiply chain in the benchmark's own code (ms). Each is
/// the median of 9 samples.
pub struct HostSpeed {
    pub parallelism_call_us: f64,
    pub spin_ms: f64,
}

impl HostSpeed {
    pub fn measure() -> HostSpeed {
        let mut calls = Vec::new();
        let mut spins = Vec::new();
        for _ in 0..9 {
            let t = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(std::thread::available_parallelism().ok());
            }
            calls.push(t.elapsed().as_secs_f64() * 1e6 / 100.0);
            let t = Instant::now();
            let mut x: u64 = 1;
            for i in 0..2_000_000u64 {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) ^ (x >> 29);
            }
            std::hint::black_box(x);
            spins.push(ms(t));
        }
        HostSpeed {
            parallelism_call_us: median(&calls),
            spin_ms: median(&spins),
        }
    }
}

/// CPU model, SIMD tier, cores, pool threads and the host-speed probes:
/// figures are comparable only with figures from the same fingerprint.
pub fn host_json(speed: &HostSpeed) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": {}, \"simd\": {}, \"cores\": {cores}, \"pool_threads\": {}, \
         \"parallelism_call_us\": {:.2}, \"spin_ms\": {:.3}}}",
        json_str(&cpu),
        json_str(&format!("{:?}", tqp_repro::tensor::simd::level())),
        tqp_repro::exec::sched::pool_threads(),
        speed.parallelism_call_us,
        speed.spin_ms
    )
}

/// Print the run: a context line (host fingerprint, operation counts,
/// generator lateness, steal), then the result object as the last line.
pub fn print_report(args: &Args, speed: &HostSpeed, r: &Report) {
    let t = &r.tally;
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"attempted\": {}, \"failed\": {}, \"loadgen.late_p95_ms\": {}, \"steal_pct\": {:.2}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        host_json(speed),
        t.attempted,
        t.failed,
        r.late_p95_ms,
        r.steal_pct
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.wrong == 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
}
