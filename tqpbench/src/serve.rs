//! `serve_mixed`: an in-process `NetServer` over a `tqp-serve::Server`,
//! driven over real sockets by two client threads, one connection each.
//!
//! * The short connection sends `point` (a prepared point lookup) and
//!   `adhoc` (literal point lookups sent as QUERY text, drawn from every
//!   customer key, far more texts than the prepared-statement cache holds).
//! * The long connection sends `scan` (a prepared Q6-shaped scan) and
//!   `predict` (a prepared filter → PREDICT → aggregate over a narrow
//!   lineitem date range, with a tree ensemble fit at set-up).
//!
//! An untraced run alternates two phases with the same mix on the same
//! connections: a sequential one, one request at a time, where each
//! request's process CPU time is taken, and a closed loop, both connections
//! busy at once, where requests completed per CPU second is the
//! throughput. A traced run drives the connections open loop at one fixed
//! offered rate instead, each request timed from when it was due. Every
//! answer is checked against values the benchmark computes from the
//! generated frames.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tqp_repro::core::{QueryConfig, RunOptions, Session};
use tqp_repro::data::DataFrame;
use tqp_repro::ml::compile::{CompiledTrees, TreeStrategy};
use tqp_repro::ml::tree::{GradientBoostedTrees, TreeParams};
use tqp_repro::ml::Model;
use tqp_repro::net::{NetClient, NetConfig, NetServer, RemoteResult, RemoteStatement};
use tqp_repro::obs::HistogramSnapshot;
use tqp_repro::serve::Server;
use tqp_repro::tensor::{Scalar, Tensor};

use crate::common::*;
use crate::layers::{complete, CompileSplit, Counters, OpFold, TimedModel};

const MODEL: &str = "lineitem_gbt";
const POINT_SQL: &str = "select c_custkey, c_acctbal from customer where c_custkey = $1";
const SCAN_SQL: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
     where l_shipdate >= $1 and l_shipdate < $2 \
     and l_discount between $3 and $4 and l_quantity < $5";
const PREDICT_SQL: &str = "select count(*) as n, \
     sum(predict('lineitem_gbt', l_quantity, l_extendedprice, l_discount, l_tax)) as score \
     from lineitem where l_shipdate >= $1 and l_shipdate < $2";

fn adhoc_sql(key: i64) -> String {
    format!("select c_custkey, c_acctbal from customer where c_custkey = {key}")
}

/// Features the model reads, in PREDICT argument order.
const FEATURES: [&str; 4] = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"];
/// Ensemble: gradient-boosted trees, GEMM-compiled.
const TREES: usize = 20;
const TREE_DEPTH: usize = 5;
const FIT_ROWS: usize = 2000;
/// Days of lineitem one `predict` request covers.
const PREDICT_DAYS: i64 = 7;
/// `predict` windows, evenly spaced over 1993-1997. Every run uses the
/// same windows and the same `scan` parameter grid, in seeded orders, so
/// that runs differ in their data and order, not in the work asked.
const PREDICT_SETS: usize = 16;

/// One round of each connection's mix (whole rounds are always sent).
const SHORT_ROUND: [Class; 5] = [
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Adhoc,
];
const LONG_ROUND: [Class; 5] = [
    Class::Scan,
    Class::Scan,
    Class::Scan,
    Class::Scan,
    Class::Predict,
];
/// Open/closed segment pairs a run alternates through.
const SEGMENTS: usize = 3;
/// Offered rate per connection in the open-loop phase (requests/s): ten
/// short rounds per long round, the ratio the other phases keep too.
const SHORT_RATE: f64 = 250.0;
const LONG_RATE: f64 = 25.0;
const SHORT_PER_LONG: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Point,
    Scan,
    Predict,
    Adhoc,
}

const CLASSES: [Class; 4] = [Class::Point, Class::Scan, Class::Predict, Class::Adhoc];

/// Inputs and their answers, computed by the benchmark from the frames.
struct Expect {
    /// `(c_custkey, c_acctbal)` of every customer.
    customers: Vec<(i64, f64)>,
    /// Scan parameters and revenue.
    scans: Vec<([Scalar; 5], f64)>,
    /// Predict window and `(count, score)`.
    predicts: Vec<([Scalar; 2], i64, f64)>,
}

fn fit_model(li: &DataFrame, rng: &mut Rng) -> GradientBoostedTrees {
    let cols: Vec<&[f64]> = FEATURES.iter().map(|f| f64s(li, f)).collect();
    let flag = strs(li, "l_returnflag");
    let mut x = Vec::with_capacity(FIT_ROWS * FEATURES.len());
    let mut y = Vec::with_capacity(FIT_ROWS);
    for _ in 0..FIT_ROWS {
        let i = rng.below(li.nrows());
        x.extend(cols.iter().map(|c| c[i]));
        y.push(if flag[i] == "R" { 1.0 } else { 0.0 });
    }
    GradientBoostedTrees::fit(
        &Tensor::from_f64_matrix(x, FIT_ROWS, FEATURES.len()),
        &Tensor::from_f64(y),
        TREES,
        0.1,
        TreeParams {
            max_depth: TREE_DEPTH,
            min_samples_split: 8,
        },
    )
}

/// The ensemble's row-at-a-time reference, combined as the compiled
/// model combines its members.
fn reference_score(gbt: &GradientBoostedTrees, row: &[f64]) -> f64 {
    let mut acc = gbt.base;
    for t in &gbt.trees {
        acc += gbt.learning_rate * t.predict_row(row);
    }
    acc
}

fn expectations(li: &DataFrame, customers: &DataFrame, gbt: &GradientBoostedTrees) -> Expect {
    let keys = i64s(customers, "c_custkey");
    let bal = f64s(customers, "c_acctbal");
    let ship = i64s(li, "l_shipdate");
    let (qty, price, disc) = (
        f64s(li, "l_quantity"),
        f64s(li, "l_extendedprice"),
        f64s(li, "l_discount"),
    );
    let day = 86_400_000_000_000i64;
    // The scan grid: each of five years x eight discount bands x two
    // quantity limits.
    let mut scans = Vec::new();
    for year in 1993..1998 {
        for band in 0..8 {
            for q in [24.0, 25.0] {
                let lo = date_ns(&format!("{year}-01-01"));
                let hi = date_ns(&format!("{}-01-01", year + 1));
                let d = 0.02 + 0.01 * band as f64;
                let (dlo, dhi) = (d - 0.01, d + 0.01);
                let revenue = (0..li.nrows())
                    .filter(|&i| {
                        ship[i] >= lo
                            && ship[i] < hi
                            && disc[i] >= dlo
                            && disc[i] <= dhi
                            && qty[i] < q
                    })
                    .map(|i| price[i] * disc[i])
                    .sum();
                let params = [
                    Scalar::I64(lo),
                    Scalar::I64(hi),
                    Scalar::F64(dlo),
                    Scalar::F64(dhi),
                    Scalar::F64(q),
                ];
                scans.push((params, revenue));
            }
        }
    }
    let feats: Vec<&[f64]> = FEATURES.iter().map(|f| f64s(li, f)).collect();
    let first = date_ns("1993-01-01");
    let predicts = (0..PREDICT_SETS)
        .map(|k| {
            let lo = first + (k * 5 * 365 / PREDICT_SETS) as i64 * day;
            let hi = lo + PREDICT_DAYS * day;
            let (mut n, mut score) = (0i64, 0.0);
            let mut row = [0.0; FEATURES.len()];
            for i in (0..li.nrows()).filter(|&i| ship[i] >= lo && ship[i] < hi) {
                for (v, c) in row.iter_mut().zip(&feats) {
                    *v = c[i];
                }
                n += 1;
                score += reference_score(gbt, &row);
            }
            ([Scalar::I64(lo), Scalar::I64(hi)], n, score)
        })
        .collect();
    Expect {
        customers: keys.iter().copied().zip(bal.iter().copied()).collect(),
        scans,
        predicts,
    }
}

/// One request of the mix with the index of its input.
#[derive(Clone, Copy)]
struct Req {
    class: Class,
    input: usize,
}

/// `rounds` rounds of `round`, each shuffled. Keys are drawn uniformly;
/// `scan` and `predict` inputs cycle through their whole set in a seeded
/// order, so every set is used equally often.
fn make_requests(round: &[Class], rounds: usize, ex: &Expect, rng: &mut Rng) -> Vec<Req> {
    fn cycle(n: usize, rng: &mut Rng) -> impl Iterator<Item = usize> {
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        v.into_iter().cycle()
    }
    let mut scans = cycle(ex.scans.len(), rng);
    let mut predicts = cycle(ex.predicts.len(), rng);
    let mut out = Vec::with_capacity(round.len() * rounds);
    for _ in 0..rounds {
        let mut r = round.to_vec();
        rng.shuffle(&mut r);
        for class in r {
            let input = match class {
                Class::Point | Class::Adhoc => rng.below(ex.customers.len()),
                Class::Scan => scans.next().expect("cycle"),
                Class::Predict => predicts.next().expect("cycle"),
            };
            out.push(Req { class, input });
        }
    }
    out
}

/// Whether a result frame is the right answer to `req`.
fn check(req: Req, f: &DataFrame, ex: &Expect) -> bool {
    if f.nrows() != 1 {
        return false;
    }
    let row = f.row(0);
    match req.class {
        Class::Point | Class::Adhoc => {
            let (k, b) = ex.customers[req.input];
            row[0].as_i64() == k && row[1].as_f64() == b
        }
        Class::Scan => close(row[0].as_f64(), ex.scans[req.input].1),
        Class::Predict => {
            let (_, n, s) = &ex.predicts[req.input];
            row[0].as_i64() == *n && close(row[1].as_f64(), *s)
        }
    }
}

/// A client connection with the statements it prepared.
struct Conn {
    client: NetClient,
    point: Option<RemoteStatement>,
    scan: Option<RemoteStatement>,
    predict: Option<RemoteStatement>,
}

impl Conn {
    fn send(&mut self, req: Req, ex: &Expect) -> Result<RemoteResult, tqp_repro::net::NetError> {
        let cfg = QueryConfig::default();
        match req.class {
            Class::Point => {
                let k = ex.customers[req.input].0;
                self.client.execute(
                    self.point.as_ref().expect("point prepared"),
                    &[Scalar::I64(k)],
                    None,
                )
            }
            Class::Adhoc => self
                .client
                .query(&adhoc_sql(ex.customers[req.input].0), &cfg, &[]),
            Class::Scan => self.client.execute(
                self.scan.as_ref().expect("scan prepared"),
                &ex.scans[req.input].0,
                None,
            ),
            Class::Predict => self.client.execute(
                self.predict.as_ref().expect("predict prepared"),
                &ex.predicts[req.input].0,
                None,
            ),
        }
    }
}

/// A served instance: program state plus the two client connections.
struct Served {
    srv: Arc<Server>,
    net: NetServer,
    short: Conn,
    long: Conn,
    register_s: f64,
}

impl Served {
    fn stop(self) {
        let Served {
            mut net,
            short,
            long,
            ..
        } = self;
        drop(short);
        drop(long);
        net.shutdown();
    }
}

/// The timed set-up: ingest and register the tables, register the model,
/// bind the server, connect, and prepare the statements.
fn set_up(data: &tqp_repro::data::tpch::TpchData, model: Arc<dyn Model>) -> Served {
    let cfg = QueryConfig::default();
    let t = Instant::now();
    let mut session = Session::new();
    session.register_tpch(data);
    let register_s = t.elapsed().as_secs_f64();
    session.register_model(MODEL, model);
    let srv = Arc::new(Server::new(session));
    let net =
        NetServer::bind(srv.clone(), "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    let mut short = NetClient::connect(addr).expect("connect");
    let mut long = NetClient::connect(addr).expect("connect");
    let point = short.prepare(POINT_SQL, &cfg).expect("prepare point");
    let scan = long.prepare(SCAN_SQL, &cfg).expect("prepare scan");
    let predict = long.prepare(PREDICT_SQL, &cfg).expect("prepare predict");
    Served {
        srv,
        net,
        short: Conn {
            client: short,
            point: Some(point),
            scan: None,
            predict: None,
        },
        long: Conn {
            client: long,
            point: None,
            scan: Some(scan),
            predict: Some(predict),
        },
        register_s,
    }
}

/// What one connection's client thread saw.
#[derive(Default)]
struct Seen {
    /// `(class, latency ms)` per completed request.
    lat: Vec<(Class, f64)>,
    /// How late each request was sent (ms).
    late: Vec<f64>,
    tally: Tally,
}

/// Open loop: request `i` is due at `start + i / rate`; it is sent then,
/// or as soon as the previous reply arrives, and timed from when it was
/// due, so waiting behind an earlier request on the connection counts.
/// The generator's own lateness is how long after it could have been
/// sent (when due, or when the connection came free) it was sent.
fn open_loop(conn: &mut Conn, reqs: &[Req], rate: f64, start: Instant, ex: &Expect) -> Seen {
    let mut seen = Seen::default();
    let mut free = start;
    for (i, &req) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        seen.late
            .push(sent.saturating_duration_since(due.max(free)).as_secs_f64() * 1e3);
        let out = conn.send(req, ex);
        free = Instant::now();
        seen.lat
            .push((req.class, free.duration_since(due).as_secs_f64() * 1e3));
        seen.tally.record(
            &format!("{:?}", req.class),
            out.map(|r| check(req, &r.frame, ex)),
        );
    }
    seen
}

/// One connection's closed-loop client thread: sends its share of each lockstep
/// round back to back, then waits at the barrier for the other
/// connection; stops after the round in which `budget` has passed.
fn closed_loop(
    conn: &mut Conn,
    reqs: &[Req],
    per_round: usize,
    sync: (&Barrier, &AtomicBool, Instant, Duration),
    ex: &Expect,
) -> (usize, Tally) {
    let (barrier, stop, start, budget) = sync;
    let mut tally = Tally::default();
    let mut done = 0;
    for chunk in reqs.chunks(per_round).cycle() {
        for &req in chunk {
            let out = conn.send(req, ex);
            tally.record(
                &format!("{:?}", req.class),
                out.map(|r| check(req, &r.frame, ex)),
            );
            done += 1;
        }
        if barrier.wait().is_leader() && start.elapsed() >= budget {
            stop.store(true, Ordering::SeqCst);
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    (done, tally)
}

fn class_lat(seen: &[&Seen], class: Class) -> Vec<f64> {
    seen.iter()
        .flat_map(|s| s.lat.iter())
        .filter(|(c, _)| *c == class)
        .map(|&(_, l)| l)
        .collect()
}

/// Closed-loop warm-up before anything is measured: enough distinct
/// `adhoc` texts to fill the prepared-statement cache, and a round of the
/// long classes.
fn warm_up(s: &mut Served, ex: &Expect, seed: u64, tally: &mut Tally) {
    let short = make_requests(&SHORT_ROUND, 160, ex, &mut Rng::new(seed, 50));
    let long = make_requests(&LONG_ROUND, 1, ex, &mut Rng::new(seed, 51));
    for (conn, reqs) in [(&mut s.short, short), (&mut s.long, long)] {
        for req in reqs {
            let out = conn.send(req, ex);
            tally.record(
                &format!("{:?} warm-up", req.class),
                out.map(|r| check(req, &r.frame, ex)),
            );
        }
    }
}

/// Both connections in open loop for `secs`. Returns what each saw.
fn open_phase(s: &mut Served, ex: &Expect, seed: u64, secs: f64) -> (Seen, Seen) {
    let short_rounds = (SHORT_RATE * secs / SHORT_ROUND.len() as f64).ceil() as usize;
    let long_rounds = (LONG_RATE * secs / LONG_ROUND.len() as f64).ceil() as usize;
    let short_reqs = make_requests(&SHORT_ROUND, short_rounds, ex, &mut Rng::new(seed, 20));
    let long_reqs = make_requests(&LONG_ROUND, long_rounds, ex, &mut Rng::new(seed, 21));
    let start = Instant::now() + Duration::from_millis(5);
    let (short, long) = (&mut s.short, &mut s.long);
    std::thread::scope(|sc| {
        let a = sc.spawn(|| open_loop(short, &short_reqs, SHORT_RATE, start, ex));
        let b = sc.spawn(|| open_loop(long, &long_reqs, LONG_RATE, start, ex));
        (
            a.join().expect("short client thread"),
            b.join().expect("long client thread"),
        )
    })
}

/// Both connections in closed loop for `secs`, in lockstep rounds of the
/// open-loop mix: per round the short connection sends
/// `SHORT_PER_LONG` short rounds while the long connection sends one long
/// round, and the next round starts when both are done. Returns the
/// requests completed and the process CPU seconds they took.
fn closed_phase(
    s: &mut Served,
    ex: &Expect,
    seed: u64,
    secs: f64,
    tally: &mut Tally,
) -> (usize, f64) {
    let short_per_round = SHORT_PER_LONG * SHORT_ROUND.len();
    let short_reqs = make_requests(
        &SHORT_ROUND,
        32 * SHORT_PER_LONG,
        ex,
        &mut Rng::new(seed, 30),
    );
    let long_reqs = make_requests(&LONG_ROUND, 32, ex, &mut Rng::new(seed, 31));
    let (short, long) = (&mut s.short, &mut s.long);
    let (barrier, stop) = (Barrier::new(2), AtomicBool::new(false));
    let (start, cpu) = (Instant::now(), cpu_s());
    let sync = (&barrier, &stop, start, Duration::from_secs_f64(secs));
    let ((a, ta), (b, tb)) = std::thread::scope(|sc| {
        let a = sc.spawn(|| closed_loop(short, &short_reqs, short_per_round, sync, ex));
        let b = sc.spawn(|| closed_loop(long, &long_reqs, LONG_ROUND.len(), sync, ex));
        (
            a.join().expect("short client thread"),
            b.join().expect("long client thread"),
        )
    });
    let cpu = cpu_s() - cpu;
    tally.merge(ta);
    tally.merge(tb);
    (a + b, cpu)
}

/// One request at a time, in rounds of the closed loop's mix (per round
/// `SHORT_PER_LONG` short rounds on the short connection, then one long
/// round on the long one), for `secs`. Returns each request's class and
/// process CPU time (ms): with nothing else running, that is what the
/// client, the wire and the server spent on it.
fn sequential_phase(
    s: &mut Served,
    ex: &Expect,
    seed: u64,
    secs: f64,
    tally: &mut Tally,
) -> Vec<(Class, f64)> {
    let mut rng = Rng::new(seed, 32);
    let mut out = Vec::new();
    let start = Instant::now();
    while out.is_empty() || start.elapsed().as_secs_f64() < secs {
        let short = make_requests(&SHORT_ROUND, SHORT_PER_LONG, ex, &mut rng);
        let long = make_requests(&LONG_ROUND, 1, ex, &mut rng);
        for (conn, reqs) in [(&mut s.short, short), (&mut s.long, long)] {
            for req in reqs {
                let cpu = cpu_s();
                let got = conn.send(req, ex);
                out.push((req.class, (cpu_s() - cpu) * 1e3));
                tally.record(
                    &format!("{:?}", req.class),
                    got.map(|r| check(req, &r.frame, ex)),
                );
            }
        }
    }
    out
}

/// Median of the observations added between two snapshots of a
/// power-of-two-bucket histogram, interpolated within its bucket.
fn hist_median_between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let diff: Vec<u64> = after
        .buckets
        .iter()
        .zip(&before.buckets)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = diff.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut cum = 0.0;
    for (i, &c) in diff.iter().enumerate() {
        if c > 0 && cum + c as f64 >= target {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = (1u64 << i) as f64;
            return lo + (hi - lo) * (target - cum) / c as f64;
        }
        cum += c as f64;
    }
    0.0
}

pub fn run(args: &Args) -> Report {
    let data = tpch_data(args.seed);
    let mut rng = Rng::new(args.seed, 4);
    let gbt = fit_model(&data.lineitem, &mut rng);
    let model: Arc<dyn Model> = Arc::new(CompiledTrees::from_gbt(&gbt, TreeStrategy::Gemm));
    let ex = expectations(&data.lineitem, &data.customer, &gbt);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut registers = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = served.take() {
            Served::stop(old);
        }
        let cpu = cpu_s();
        let s = set_up(&data, model.clone());
        setups.push(cpu_s() - cpu);
        registers.push(s.register_s);
        served = Some(s);
    }
    let mut s = served.expect("set up at least once");
    let mut r = Report::new();
    let half = args.seconds / 2.0;
    warm_up(&mut s, &ex, args.seed, &mut r.tally);

    if !args.trace {
        // Sequential and closed-loop segments alternate, so both phases
        // sample the whole run rather than one half of it each.
        let (mut cpu_ms, mut done, mut cpu) = (Vec::new(), 0, 0.0);
        let seg = half / SEGMENTS as f64;
        for k in 0..SEGMENTS as u64 {
            let seed = args.seed ^ (k << 32);
            cpu_ms.extend(sequential_phase(&mut s, &ex, seed, seg, &mut r.tally));
            let (d, c) = closed_phase(&mut s, &ex, seed, seg, &mut r.tally);
            done += d;
            cpu += c;
        }
        let per_class: Vec<Vec<f64>> = CLASSES
            .iter()
            .map(|&c| {
                cpu_ms
                    .iter()
                    .filter(|(k, _)| *k == c)
                    .map(|&(_, v)| v)
                    .collect()
            })
            .collect();
        r.put("setup_s", median(&setups), "s");
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        r.put("queries_per_cpu_s", done as f64 / cpu, "1/s");
        r.put("query_cpu_geomean_ms", geomean_of_medians(&per_class), "ms");
        s.stop();
        return r;
    }

    // Traced run, part 1: the open-loop phase again, untraced, for the
    // generator's lateness, the cache and the scheduler counters.
    let cache0 = s.srv.cache_stats();
    let counters = Counters::read();
    let (a, b) = open_phase(&mut s, &ex, args.seed, half / 2.0);
    let n_open = (a.lat.len() + b.lat.len()) as f64;
    counters.report_since(&mut r, n_open);
    let cache1 = s.srv.cache_stats();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    r.put(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.put(
        "serve.cache_evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
    );
    r.late_p95_ms = quantile(&[a.late.clone(), b.late.clone()].concat(), 0.95);
    r.put("loadgen.late_p95_ms", r.late_p95_ms, "ms");
    {
        let seen = [&a, &b];
        let lat: Vec<Vec<f64>> = CLASSES.iter().map(|&c| class_lat(&seen, c)).collect();
        for (l, name) in lat.iter().zip(["point", "scan", "predict", "adhoc"]) {
            r.put(&format!("serve.{name}_p50_ms"), median(l), "ms");
        }
        r.put("wall.query_geomean_ms", geomean_of_medians(&lat), "ms");
    }
    r.tally.merge(a.tally);
    r.tally.merge(b.tally);

    // Part 2: round trip of the point lookup, at the client and as the
    // server's own `net.query_us` histogram saw it.
    let hist = |c: &mut NetClient| {
        c.stats_full()
            .expect("stats")
            .1
            .histogram("net.query_us")
            .cloned()
            .expect("net.query_us histogram")
    };
    let h0 = hist(&mut s.short.client);
    let mut rtt = Vec::new();
    let probe = make_requests(&[Class::Point], 400, &ex, &mut Rng::new(args.seed, 40));
    for &req in &probe {
        let t = Instant::now();
        let out = s.short.send(req, &ex);
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
        r.tally
            .record("point probe", out.map(|o| check(req, &o.frame, &ex)));
    }
    let h1 = hist(&mut s.short.client);
    let (rtt_us, server_us) = (median(&rtt), hist_median_between(&h0, &h1));
    r.put("net.rtt_us", rtt_us, "us");
    r.put("net.server_us", server_us, "us");
    r.put("net.wire_us", rtt_us - server_us, "us");

    // Part 3: in-process rounds of the four classes with the pass-through
    // model registered, alternating untraced and traced rounds.
    let timed = Arc::new(TimedModel::new(model.clone()));
    s.srv.register_model(MODEL, timed.clone());
    let cfg = QueryConfig::default();
    let mut fold = OpFold::default();
    let mut split = CompileSplit::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut hit_us, mut miss_us, mut predict_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut rows, mut n_predict) = (0u64, 0u64, 0u64);
    let mut rng = Rng::new(args.seed, 41);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < half / 2.0 {
        // Alternate which of the pair goes first, so neither gains from
        // the other warming the caches.
        let pair = if rounds % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for tracing in pair {
            let reqs = make_requests(&CLASSES, 1, &ex, &mut rng);
            let mut round_ms = 0.0;
            for req in reqs {
                let sql = match req.class {
                    Class::Point => POINT_SQL.to_string(),
                    Class::Scan => SCAN_SQL.to_string(),
                    Class::Predict => PREDICT_SQL.to_string(),
                    Class::Adhoc => adhoc_sql(ex.customers[req.input].0),
                };
                let params: Vec<Scalar> = match req.class {
                    Class::Point => vec![Scalar::I64(ex.customers[req.input].0)],
                    Class::Scan => ex.scans[req.input].0.to_vec(),
                    Class::Predict => ex.predicts[req.input].0.to_vec(),
                    Class::Adhoc => vec![],
                };
                let m0 = timed.read();
                let t = Instant::now();
                let prepared = s.srv.prepare(&sql, cfg);
                let prep_us = t.elapsed().as_secs_f64() * 1e6;
                let tr = Instant::now();
                let opts = RunOptions {
                    trace: tracing,
                    ..RunOptions::default()
                };
                let out = prepared.and_then(|p| s.srv.execute_with(&p, &params, &opts));
                let run_ms = ms(tr);
                round_ms += ms(t);
                let m1 = timed.read();
                let ok = match out {
                    Ok((frame, _, trace)) => {
                        if tracing {
                            match &trace {
                                Some(trace) => fold.add(
                                    run_ms,
                                    frame.nrows(),
                                    trace,
                                    &format!("{:?} traced", req.class),
                                    &mut r.tally,
                                ),
                                None => {
                                    r.tally.record("trace", Err::<bool, _>("no trace returned"))
                                }
                            }
                        }
                        Ok(check(req, &frame, &ex))
                    }
                    Err(e) => Err(e),
                };
                r.tally.record(&format!("{:?} in-process", req.class), ok);
                if !tracing {
                    continue;
                }
                match req.class {
                    Class::Point => hit_us.push(prep_us),
                    Class::Adhoc => {
                        miss_us.push(prep_us);
                        split.sample(&s.srv.session(), &sql, cfg);
                    }
                    Class::Predict => {
                        calls += m1.0 - m0.0;
                        rows += m1.1 - m0.1;
                        n_predict += 1;
                        predict_ms.push((m1.2 - m0.2) as f64 / 1e6);
                    }
                    Class::Scan => {}
                }
            }
            if tracing { &mut traced } else { &mut plain }.push(round_ms);
        }
        rounds += 1;
    }
    split.report(&mut r);
    fold.report(&mut r, rounds as f64);
    r.put("core.register_s", median(&registers), "s");
    r.put(
        "ml.predict_calls",
        calls as f64 / n_predict.max(1) as f64,
        "count",
    );
    r.put(
        "ml.predict_rows",
        rows as f64 / n_predict.max(1) as f64,
        "count",
    );
    r.put("ml.predict_ms", median(&predict_ms), "ms");
    r.put("serve.prepare_hit_us", median(&hit_us), "us");
    r.put("serve.prepare_miss_us", median(&miss_us), "us");
    r.put(
        "obs.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
    );
    s.stop();
    complete(&mut r);
    r
}
