//! `tpch_adhoc` and `tpch_stored`: the 22 TPC-H queries sent as SQL text,
//! compiled and run on every request, over in-memory tables or over
//! `tqp-store` files.
//!
//! Phase 1 is one stream: passes over the 22 queries, each pass in its own
//! seeded order; each query's median CPU time feeds the geometric mean.
//! Phase 2 is two concurrent streams of whole passes, each in its own seeded
//! order; queries completed per CPU second is the throughput. The two phases
//! alternate in segments and share the run's time equally.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchData};
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::store::{store_frame, StoredTable};

use crate::common::*;
use crate::layers::{complete, CompileSplit, Counters, OpFold};

/// Rows per store chunk (the store's default chunk geometry).
const CHUNK_ROWS: usize = 4096;

/// Tables clustered on a date before they are stored, so zone maps prune
/// date-range predicates.
const CLUSTER: &[(&str, &str)] = &[("lineitem", "l_shipdate"), ("orders", "o_orderdate")];

/// Single-stream/two-stream segment pairs a run alternates through.
const SEGMENTS: usize = 3;

/// Result digests of the verified executions, by query number.
type Digests = [u64; 23];

/// A built session plus what set-up measured.
struct Built {
    session: Session,
    /// Catalog/ingest registration time (s).
    register_s: f64,
    /// Store write time (s); 0 in memory.
    write_s: f64,
    /// Store open time (ms); 0 in memory.
    open_ms: f64,
    /// Store file bytes; 0 in memory.
    file_bytes: u64,
}

/// The order tables are stored in: clustered copies where `CLUSTER` says.
fn clustered(data: &TpchData) -> Vec<(&'static str, DataFrame)> {
    data.tables()
        .into_iter()
        .map(|(name, frame)| {
            let Some(&(_, col)) = CLUSTER.iter().find(|(t, _)| *t == name) else {
                return (name, frame.clone());
            };
            let keys = i64s(frame, col);
            let mut order: Vec<usize> = (0..frame.nrows()).collect();
            order.sort_by_key(|&i| keys[i]);
            (name, frame.take(&order))
        })
        .collect()
}

fn build_mem(data: &TpchData) -> Built {
    let t = Instant::now();
    let mut session = Session::new();
    session.register_tpch(data);
    Built {
        session,
        register_s: t.elapsed().as_secs_f64(),
        write_s: 0.0,
        open_ms: 0.0,
        file_bytes: 0,
    }
}

fn build_stored(tables: &[(&'static str, DataFrame)], dir: &Path) -> Built {
    std::fs::create_dir_all(dir).expect("create store directory");
    let t = Instant::now();
    for (name, frame) in tables {
        store_frame(frame, &dir.join(format!("{name}.tqps")), CHUNK_ROWS).expect("store write");
    }
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opened: Vec<(&str, StoredTable)> = tables
        .iter()
        .map(|(name, _)| {
            let st = StoredTable::open(&dir.join(format!("{name}.tqps"))).expect("store open");
            (*name, st)
        })
        .collect();
    let open_ms = ms(t);
    let file_bytes = opened.iter().map(|(_, st)| st.file_bytes()).sum();
    let t = Instant::now();
    let mut session = Session::new();
    for (name, st) in opened {
        session.register_stored_table(name, Arc::new(st));
    }
    Built {
        session,
        register_s: t.elapsed().as_secs_f64(),
        write_s,
        open_ms,
        file_bytes,
    }
}

/// Bytes of the tables' values as a user holds them: 8 per number or
/// date, 1 per bool, the string bytes.
fn user_bytes(tables: &[(&'static str, DataFrame)]) -> u64 {
    tables
        .iter()
        .flat_map(|(_, f)| f.columns())
        .map(|c| match c {
            Column::Bool(v) => v.len() as u64,
            Column::Int64(v) | Column::Date(v) => 8 * v.len() as u64,
            Column::Float64(v) => 8 * v.len() as u64,
            Column::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// Q1 computed straight from the generated lineitem frame:
/// `(returnflag, linestatus) -> (sum_qty, sum_base, sum_disc, sum_charge, count)`.
fn q1_direct(li: &DataFrame) -> Vec<(String, String, [f64; 4], i64)> {
    let cutoff = date_ns("1998-09-02");
    let (ship, rf, ls) = (
        i64s(li, "l_shipdate"),
        strs(li, "l_returnflag"),
        strs(li, "l_linestatus"),
    );
    let (qty, price, disc, tax) = (
        f64s(li, "l_quantity"),
        f64s(li, "l_extendedprice"),
        f64s(li, "l_discount"),
        f64s(li, "l_tax"),
    );
    let mut groups: std::collections::BTreeMap<(String, String), ([f64; 4], i64)> =
        Default::default();
    for i in 0..li.nrows() {
        if ship[i] > cutoff {
            continue;
        }
        let g = groups.entry((rf[i].clone(), ls[i].clone())).or_default();
        let d = price[i] * (1.0 - disc[i]);
        g.0[0] += qty[i];
        g.0[1] += price[i];
        g.0[2] += d;
        g.0[3] += d * (1.0 + tax[i]);
        g.1 += 1;
    }
    groups
        .into_iter()
        .map(|((a, b), (s, c))| (a, b, s, c))
        .collect()
}

fn q1_matches(got: &DataFrame, expect: &[(String, String, [f64; 4], i64)]) -> bool {
    got.nrows() == expect.len()
        && expect.iter().enumerate().all(|(i, (rf, ls, sums, count))| {
            let row = got.row(i);
            row[0].to_string() == *rf
                && row[1].to_string() == *ls
                && (0..4).all(|k| close(row[2 + k].as_f64(), sums[k]))
                && row[9].as_i64() == *count
        })
}

/// Q6 computed straight from the generated lineitem frame.
fn q6_direct(li: &DataFrame) -> f64 {
    let (lo, hi) = (date_ns("1994-01-01"), date_ns("1995-01-01"));
    let (ship, qty, price, disc) = (
        i64s(li, "l_shipdate"),
        f64s(li, "l_quantity"),
        f64s(li, "l_extendedprice"),
        f64s(li, "l_discount"),
    );
    (0..li.nrows())
        .filter(|&i| {
            ship[i] >= lo
                && ship[i] < hi
                && disc[i] >= 0.06 - 0.01
                && disc[i] <= 0.06 + 0.01
                && qty[i] < 24.0
        })
        .map(|i| price[i] * disc[i])
        .sum()
}

/// Child-process mode (`--oracle <seed>`): generate the run's TPC-H
/// instance, run every query on the `tqp-baseline` row engine, and print
/// each result as a header line `Q<n> <rows> <cols>` (or `Q<n> error
/// <message>`) followed by its canonical rows, cells separated by tabs.
pub fn print_oracle(seed: u64) {
    let data = tpch_data(seed);
    let mut oracle = Session::new();
    oracle.register_tpch(&data);
    let mut out = String::new();
    for (n, sql) in queries::all() {
        match oracle.sql_baseline(sql) {
            Ok(f) => {
                out += &format!("Q{n} {} {}\n", f.nrows(), f.ncols());
                for row in canon(&f) {
                    out += &row.join("\t");
                    out.push('\n');
                }
            }
            Err(e) => out += &format!("Q{n} error {}\n", e.to_string().replace('\n', " ")),
        }
    }
    print!("{out}");
}

/// The row engine's answers by query number, computed by a child process
/// (see [`print_oracle`]) so that the oracle's memory never counts in this
/// process's peak.
fn oracle_answers(seed: u64) -> Vec<Result<Canon, String>> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(exe)
        .args(["--oracle", &seed.to_string()])
        .output()
        .expect("start the oracle process");
    assert!(
        out.status.success(),
        "oracle process failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("oracle output is UTF-8");
    let mut lines = text.lines();
    let mut answers: Vec<Result<Canon, String>> =
        (0..23).map(|_| Err("no answer".to_string())).collect();
    while let Some(header) = lines.next() {
        let mut parts = header.splitn(3, ' ');
        let n: usize = parts
            .next()
            .and_then(|q| q[1..].parse().ok())
            .expect("oracle header");
        let (a, b) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        answers[n] = if a == "error" {
            Err(b.to_string())
        } else {
            let (nrows, ncols) = (
                a.parse().expect("row count"),
                b.parse().expect("column count"),
            );
            let rows = (0..nrows)
                .map(|_| {
                    let line = lines.next().expect("oracle row");
                    line.split('\t').map(str::to_string).collect()
                })
                .collect();
            Ok(Canon { ncols, rows })
        };
    }
    answers
}

/// What the benchmark computes itself from the generated lineitem frame.
struct Direct {
    q1: Vec<(String, String, [f64; 4], i64)>,
    q6: f64,
}

/// Run every query once and check it against the row engine's answers;
/// Q1 and Q6 also against the benchmark's own computation. Returns the
/// digests later executions must reproduce.
fn verify(
    session: &Session,
    oracle: &[Result<Canon, String>],
    direct: &Direct,
    tally: &mut Tally,
) -> Digests {
    let mut digests = [0u64; 23];
    for (n, sql) in queries::all() {
        let got = session
            .compile(sql, QueryConfig::default())
            .and_then(|q| q.run(session));
        let got = match (got, &oracle[n]) {
            (Ok((got, _)), Ok(expect)) => {
                tally.record::<String>(
                    &format!("Q{n} vs row engine"),
                    Ok(frames_match(&got, expect)),
                );
                got
            }
            (Err(e), _) => {
                tally.record(&format!("Q{n}"), Err::<bool, _>(e));
                continue;
            }
            (_, Err(e)) => {
                tally.record(&format!("Q{n} row engine"), Err::<bool, _>(e));
                continue;
            }
        };
        match n {
            1 => tally.record::<String>("Q1 direct", Ok(q1_matches(&got, &direct.q1))),
            6 => tally.record::<String>(
                "Q6 direct",
                Ok(got.nrows() == 1 && close(got.row(0)[0].as_f64(), direct.q6)),
            ),
            _ => {}
        }
        digests[n] = digest(&got);
    }
    digests
}

/// One request: compile the SQL text, run it, check the result digest.
/// Returns the wall time and the process CPU time (ms) of compile + run.
fn request(session: &Session, n: usize, digests: &Digests, tally: &mut Tally) -> (f64, f64) {
    let (t, cpu) = (Instant::now(), cpu_s());
    let out = session
        .compile(queries::query(n), QueryConfig::default())
        .and_then(|q| q.run(session));
    let taken = (ms(t), (cpu_s() - cpu) * 1e3);
    tally.record(&format!("Q{n}"), out.map(|(f, _)| digest(&f) == digests[n]));
    taken
}

fn pass_order(rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (1..=22).collect();
    rng.shuffle(&mut order);
    order
}

/// Per-query samples (ms) of one measure, indexed by query number.
type Samples = Vec<Vec<f64>>;

/// Phase 1: single stream. Returns per-query wall and CPU samples (ms)
/// and the number of passes.
fn single_stream(
    session: &Session,
    digests: &Digests,
    seed: u64,
    budget_s: f64,
    tally: &mut Tally,
) -> (Samples, Samples, usize) {
    let mut rng = Rng::new(seed, 2);
    let (mut wall, mut cpu) = (vec![Vec::new(); 23], vec![Vec::new(); 23]);
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < budget_s {
        for n in pass_order(&mut rng) {
            let (w, c) = request(session, n, digests, tally);
            wall[n].push(w);
            cpu[n].push(c);
        }
        passes += 1;
    }
    (wall, cpu, passes)
}

/// Phase 2: two concurrent streams of whole passes. Returns the queries
/// completed and the process CPU seconds they took.
fn two_streams(
    session: &Session,
    digests: &Digests,
    seed: u64,
    budget_s: f64,
    tally: &mut Tally,
) -> (usize, f64) {
    let (start, cpu) = (Instant::now(), cpu_s());
    let (done, tallies): (Vec<usize>, Vec<Tally>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|stream| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 10 + stream);
                    let mut t = Tally::default();
                    let mut done = 0;
                    while done == 0 || start.elapsed().as_secs_f64() < budget_s {
                        for n in pass_order(&mut rng) {
                            request(session, n, digests, &mut t);
                            done += 1;
                        }
                    }
                    (done, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .unzip()
    });
    let cpu = cpu_s() - cpu;
    for t in tallies {
        tally.merge(t);
    }
    (done.iter().sum(), cpu)
}

pub fn run(args: &Args, stored: bool) -> Report {
    let data = tpch_data(args.seed);
    let oracle = oracle_answers(args.seed);
    let direct = Direct {
        q1: q1_direct(&data.lineitem),
        q6: q6_direct(&data.lineitem),
    };
    // The stored workload needs the generated frames only to cluster them,
    // and the clustered copies only until the store files are written.
    let (data, mut tables) = if stored {
        (None, clustered(&data))
    } else {
        (Some(data), Vec::new())
    };
    let user_bytes = user_bytes(&tables);
    let scratch = Scratch::new();

    // Each set-up builds a fresh session; only the last one is kept, so
    // peak memory counts one session, as a user would hold.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut parts = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let cpu = cpu_s();
        let b = if stored {
            build_stored(&tables, &scratch.0.join(format!("rep{rep}")))
        } else {
            build_mem(data.as_ref().expect("in-memory workload keeps its frames"))
        };
        setups.push(cpu_s() - cpu);
        parts.push((b.register_s, b.write_s, b.open_ms));
        built = Some(b);
    }
    let built = built.expect("set up at least once");
    tables.clear();
    let mut r = Report::new();
    let session = &built.session;
    let digests = verify(session, &oracle, &direct, &mut r.tally);

    let half = args.seconds / 2.0;
    if !args.trace {
        // Single-stream and two-stream segments alternate, so both phases
        // sample the whole run rather than one half of it each.
        let seg = half / SEGMENTS as f64;
        let mut samples = vec![Vec::new(); 23];
        let (mut done, mut cpu) = (0, 0.0);
        for k in 0..SEGMENTS as u64 {
            let (_, s1, _) =
                single_stream(session, &digests, args.seed ^ (k << 32), seg, &mut r.tally);
            for (all, new) in samples.iter_mut().zip(s1) {
                all.extend(new);
            }
            let (d, c) = two_streams(session, &digests, args.seed ^ (k << 32), seg, &mut r.tally);
            done += d;
            cpu += c;
        }
        r.put("setup_s", median(&setups), "s");
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        r.put("queries_per_cpu_s", done as f64 / cpu, "1/s");
        r.put(
            "query_cpu_geomean_ms",
            geomean_of_medians(&samples[1..]),
            "ms",
        );
        return r;
    }

    // Traced run. First untraced passes (counter deltas per pass), then
    // traced passes alternating with untraced ones for the overhead.
    let before = Counters::read();
    let (wall, _, passes) = single_stream(session, &digests, args.seed, half / 2.0, &mut r.tally);
    before.report_since(&mut r, passes as f64);
    r.put(
        "wall.query_geomean_ms",
        geomean_of_medians(&wall[1..]),
        "ms",
    );

    let mut rng = Rng::new(args.seed, 3);
    let mut fold = OpFold::default();
    let mut split = CompileSplit::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut scanned, mut pruned) = (0u64, 0u64);
    let start = Instant::now();
    let mut traced_passes = 0;
    while traced_passes == 0 || start.elapsed().as_secs_f64() < half {
        let order = pass_order(&mut rng);
        // Alternate which of the pair goes first, so neither gains from
        // the other warming the caches.
        let pair = if traced_passes % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for tracing in pair {
            if !tracing {
                let t = Instant::now();
                for &n in &order {
                    request(session, n, &digests, &mut r.tally);
                }
                plain.push(ms(t));
                continue;
            }
            let mut pass_ms = 0.0;
            for &n in &order {
                let t = Instant::now();
                let q = session.compile(queries::query(n), QueryConfig::default().trace(true));
                let tr = Instant::now();
                let out = q.and_then(|q| q.run_traced(session));
                let run_ms = ms(tr);
                pass_ms += ms(t);
                let what = format!("Q{n} traced");
                match out {
                    Ok((frame, stats, Some(trace))) => {
                        fold.add(run_ms, frame.nrows(), &trace, &what, &mut r.tally);
                        scanned += stats.chunks_scanned;
                        pruned += stats.chunks_pruned;
                        r.tally
                            .record::<String>(&what, Ok(digest(&frame) == digests[n]));
                    }
                    Ok((_, _, None)) => r.tally.record(&what, Err::<bool, _>("no trace returned")),
                    Err(e) => r.tally.record(&what, Err::<bool, _>(e)),
                }
            }
            traced.push(pass_ms);
        }
        for &n in &order {
            split.sample(session, queries::query(n), QueryConfig::default());
        }
        traced_passes += 1;
    }
    split.report(&mut r);
    fold.report(&mut r, traced_passes as f64);
    let part = |f: fn(&(f64, f64, f64)) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    r.put("core.register_s", part(|p| p.0), "s");
    if stored {
        r.put("store.write_s", part(|p| p.1), "s");
        r.put("store.open_ms", part(|p| p.2), "ms");
        r.put(
            "store.bytes_per_user_byte",
            built.file_bytes as f64 / user_bytes as f64,
            "ratio",
        );
        let p = traced_passes as f64;
        r.put("store.chunks_scanned", scanned as f64 / p, "count");
        r.put("store.chunks_pruned", pruned as f64 / p, "count");
        r.put(
            "store.prune_ratio",
            pruned as f64 / (scanned + pruned).max(1) as f64,
            "ratio",
        );
    }
    r.put(
        "obs.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
    );
    complete(&mut r);
    r
}
