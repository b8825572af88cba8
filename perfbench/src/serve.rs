//! `serve-mixed`: an in-process `roundelimd` (2 workers, 1 search thread
//! each) under a closed loop of two clients.
//!
//! Client A keeps one connection open; client B opens a new connection
//! per request, as `roundelim client` does. Most requests are seeded
//! renamings of stored classes (store reads); one per round is a class not
//! stored yet (a search, then a store append). Each client sends its next
//! request only when the previous reply has arrived.

use crate::layers::{self, ns_to_ms, Registry};
use crate::rename::{instantiate, rename, Rng};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, median_of, percentile};
use crate::Args;
use roundelim_auto::certificate::{Certificate, Direction};
use roundelim_auto::json::Json;
use roundelim_core::iso::are_isomorphic;
use roundelim_core::problem::Problem;
use roundelim_daemon::proto::{plain_request_line, solve_line, Budget};
use roundelim_daemon::{Exit, ProofStore, ServeConfig, Server};
use roundelim_obs::metrics::HistogramSnapshot;
use roundelim_obs::time::Stopwatch;
use roundelim_problems::registry::sweep_specs;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per round: the last request of a round is a miss while the
/// client's share of the miss pool lasts.
const A_ROUND: usize = 24;
const B_ROUND: usize = 64;
/// Rounds a client completes at least, so that the reported percentiles
/// have ten samples beyond them. An end-to-end run also completes at
/// least as many rounds as the client has misses, so that every run
/// serves the same misses.
const A_MIN_ROUNDS: usize = 5;
const B_MIN_ROUNDS: usize = 1;

/// The search budget of every `solve` request.
fn budget() -> Budget {
    Budget {
        max_steps: Some(6),
        beam_width: Some(6),
        max_labels: Some(10),
        max_expansions: None,
        time_budget_ms: None,
    }
}

/// The stored classes: the registry sweep instances.
fn fill_classes() -> Result<Vec<Problem>, String> {
    sweep_specs().iter().map(|s| instantiate(s.family, s.k, s.delta)).collect()
}

/// Classes not stored at set-up, each a search of some milliseconds
/// with a small cache, so that a miss costs a search and an append but
/// does not set the process's memory peak; client A takes the even
/// entries, client B the odd ones.
fn miss_pool() -> Result<Vec<Problem>, String> {
    let mut specs: Vec<(usize, &str, usize)> = Vec::new();
    for d in 4..=14 {
        if (5..=12).contains(&d) {
            specs.push((d, "sinkless-orientation", 0));
        }
        specs.push((d, "sinkless-coloring", 0));
        specs.push((d, "perfect-matching", 0));
    }
    for (k, d) in [(3, 2), (4, 2), (6, 2), (3, 3), (4, 3)] {
        specs.push((d, "edge-coloring", k));
    }
    for k in [4, 5, 6] {
        specs.push((3, "superweak-coloring", k));
    }
    specs.push((3, "coloring", 4));
    specs.sort_by_key(|&(d, fam, k)| (d, fam, k));
    specs.iter().map(|&(d, fam, k)| instantiate(fam, k, d)).collect()
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<Result<Exit, String>>,
}

fn start(dir: &Path) -> Result<Daemon, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.to_path_buf(),
        workers: 2,
        threads: 1,
        signal: None,
    };
    let server = Server::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    Ok(Daemon { addr, thread })
}

fn stop(d: Daemon) -> Result<(), String> {
    let mut c = Conn::open(d.addr)?;
    let ack = c.call(&plain_request_line("shutdown"))?;
    if !ack.contains("\"shutdown\"") {
        return Err(format!("unexpected shutdown reply {ack}"));
    }
    drop(c);
    match d.thread.join() {
        Ok(Ok(Exit::Requested)) => Ok(()),
        Ok(other) => Err(format!("daemon ended with {other:?}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: s })
    }

    /// Sends one request line in one write and reads up to the terminal
    /// reply, skipping `progress` events.
    fn call(&mut self, request: &str) -> Result<String, String> {
        let mut buf = String::with_capacity(request.len() + 1);
        buf.push_str(request);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes()).map_err(|e| format!("send: {e}"))?;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("connection closed by the daemon".into());
            }
            if !line.contains("\"event\": \"progress\"") {
                return Ok(line);
            }
        }
    }
}

/// The parts of a `result` reply the checks read.
struct Served {
    cached: bool,
    verdict: String,
    problem: String,
    certificate: String,
}

fn parse_result(line: &str) -> Result<Served, String> {
    let v = Json::parse(line.trim()).map_err(|e| format!("bad reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true)
        || v.get("event").and_then(Json::as_str) != Some("result")
    {
        return Err(format!("not a result: {}", line.trim()));
    }
    Ok(Served {
        cached: v.get("cached").and_then(Json::as_bool) == Some(true),
        verdict: v.get("verdict").map(Json::to_string_compact).unwrap_or_default(),
        problem: v.get("problem").and_then(Json::as_str).unwrap_or_default().to_owned(),
        certificate: v.get("certificate").map(Json::to_string_compact).unwrap_or_default(),
    })
}

fn solve(conn: &mut Conn, p: &Problem) -> Result<Served, String> {
    let reply = conn.call(&solve_line(&p.to_text(), Direction::Lower, &budget()))?;
    parse_result(&reply)
}

/// Starts a daemon on an empty store and fills it by `solve` requests
/// for renamings of the stored classes; returns the daemon and the
/// verdict of every class stored so far (indexed like `w.classes`).
fn setup(
    dir: &Path,
    w: &World,
    seed: u64,
    rep: usize,
) -> Result<(Daemon, Vec<Option<String>>), String> {
    let d = start(dir)?;
    let mut conn = Conn::open(d.addr)?;
    let mut verdicts = vec![None; w.classes.len()];
    for (i, p) in w.classes[..w.fill].iter().enumerate() {
        let q = rename(p, &mut Rng::new(seed, (0x5e70 + rep * 100 + i) as u64), "~fill");
        let r = solve(&mut conn, &q)?;
        if r.cached {
            return Err(format!("fill class {i} was already stored"));
        }
        verdicts[i] = Some(r.verdict);
    }
    Ok((d, verdicts))
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    hit_ms: Vec<f64>,
    hit_bytes: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Renamed hit requests, for the lookup replay (traced runs only).
    hit_problems: Vec<Problem>,
    /// (completion order key, problem text, certificate json) per miss.
    misses: Vec<(u64, String, String)>,
    requests: u64,
    errors: Vec<String>,
    /// (class, verdict served) per hit, checked after the phase.
    hit_verdicts: Vec<(usize, String)>,
    /// (class, verdict) of each miss, in the client's order.
    miss_verdicts: Vec<(usize, String)>,
    certificates: HashSet<String>,
}

/// One client's schedule and connection mode.
struct ClientPlan {
    id: u64,
    keep_open: bool,
    round: usize,
    min_rounds: usize,
    /// Class ids of this client's misses, in order (ids index `classes`).
    misses: Vec<usize>,
}

/// What both clients of a phase share.
struct Load<'a> {
    addr: SocketAddr,
    /// The fill classes first, then the miss pool.
    classes: &'a [Problem],
    fill: usize,
    seed: u64,
    budget_s: f64,
    /// Keep each renamed hit request (for the traced run's lookup replay).
    keep_requests: bool,
}

/// Runs one client's closed loop until `budget_s` has elapsed at a round
/// boundary (and at least `min_rounds` rounds). `start_k` continues the
/// schedule from an earlier phase.
fn client(plan: &ClientPlan, load: &Load, start_k: usize, barrier: &Barrier) -> (ClientLog, usize) {
    let Load { addr, classes, fill, seed, budget_s, keep_requests } = *load;
    let mut log = ClientLog::default();
    barrier.wait();
    let watch = Stopwatch::start();
    let mut conn: Option<Conn> = None;
    let mut k = start_k;
    let mut rounds = 0;
    loop {
        if k.is_multiple_of(plan.round) && k > start_k {
            rounds += 1;
            if rounds >= plan.min_rounds && watch.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
        let round_ix = k / plan.round;
        let is_miss = k % plan.round == plan.round - 1 && round_ix < plan.misses.len();
        let misses_done = (round_ix).min(plan.misses.len());
        let mut rng = Rng::new(seed, (plan.id << 32) | k as u64);
        let class = if is_miss {
            plan.misses[round_ix]
        } else {
            // A stored class: one of the fill, or one this client stored.
            let pick = rng.below(fill + misses_done);
            if pick < fill {
                pick
            } else {
                plan.misses[pick - fill]
            }
        };
        let problem = rename(&classes[class], &mut rng, "~q");
        let request = solve_line(&problem.to_text(), Direction::Lower, &budget());
        k += 1;
        log.requests += 1;
        let watch_req = Stopwatch::start();
        let outcome = (|| -> Result<String, String> {
            if plan.keep_open {
                if conn.is_none() {
                    conn = Some(Conn::open(addr)?);
                }
                conn.as_mut().expect("opened above").call(&request)
            } else {
                Conn::open(addr)?.call(&request)
            }
        })();
        let ms = ns_to_ms(watch_req.elapsed_ns());
        let reply = match outcome.and_then(|r| parse_result(&r).map(|p| (r, p))) {
            Ok(r) => r,
            Err(e) => {
                log.errors.push(e);
                conn = None;
                continue;
            }
        };
        let (raw, res) = reply;
        if res.cached == is_miss {
            log.errors.push(format!(
                "class {class}: expected {} but the reply says cached={}",
                if is_miss { "a miss" } else { "a hit" },
                res.cached
            ));
        }
        if is_miss {
            log.miss_ms.push(ms);
            log.miss_verdicts.push((class, res.verdict));
            log.misses.push((watch.elapsed_ns(), res.problem, res.certificate.clone()));
            log.certificates.insert(res.certificate);
        } else {
            log.hit_ms.push(ms);
            log.hit_bytes.push(raw.len() as f64);
            log.hit_verdicts.push((class, res.verdict));
            if keep_requests {
                log.hit_problems.push(problem);
            }
            log.certificates.insert(res.certificate);
        }
    }
    (log, k)
}

/// Both clients together for one phase.
struct Phase {
    a: ClientLog,
    b: ClientLog,
    wall_s: f64,
}

impl Phase {
    fn requests(&self) -> u64 {
        self.a.requests + self.b.requests
    }
    fn requests_per_s(&self) -> f64 {
        self.requests() as f64 / self.wall_s
    }
}

fn phase(plans: &[ClientPlan; 2], load: &Load, next_k: &mut [usize; 2]) -> Phase {
    let barrier = Barrier::new(2);
    let watch = Stopwatch::start();
    let ((a, ka), (b, kb)) = std::thread::scope(|s| {
        let run = |i: usize| {
            let (plan, barrier, start) = (&plans[i], &barrier, next_k[i]);
            s.spawn(move || client(plan, load, start, barrier))
        };
        let ha = run(0);
        let hb = run(1);
        (ha.join().expect("client A panicked"), hb.join().expect("client B panicked"))
    });
    *next_k = [ka, kb];
    Phase { a, b, wall_s: watch.elapsed().as_secs_f64() }
}

/// The daemon's `stats` counters as (requests, hits, misses, errors).
fn stats(addr: SocketAddr) -> Result<[u64; 4], String> {
    let reply = Conn::open(addr)?.call(&plain_request_line("stats"))?;
    let v = Json::parse(reply.trim()).map_err(|e| format!("bad stats reply: {e}"))?;
    let n = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("stats lacks {k}"));
    Ok([n("requests")?, n("cache_hits")?, n("cache_misses")?, n("errors")?])
}

/// Checks one phase: replies against class verdicts, counts against the
/// schedule and the daemon's own counters, and certificate replay.
fn check_phase(
    p: &Phase,
    before: [u64; 4],
    after: [u64; 4],
    class_verdict: &mut [Option<String>],
    verified: &mut HashSet<String>,
    report: &mut Report,
) {
    for (name, log) in [("A", &p.a), ("B", &p.b)] {
        for e in &log.errors {
            report.check(false, || format!("client {name}: {e}"));
        }
        for (class, verdict) in &log.miss_verdicts {
            report.check(class_verdict[*class].is_none(), || {
                format!("miss class {class} was stored already")
            });
            class_verdict[*class] = Some(verdict.clone());
        }
    }
    for (name, log) in [("A", &p.a), ("B", &p.b)] {
        for (class, verdict) in &log.hit_verdicts {
            report.check(class_verdict[*class].as_ref() == Some(verdict), || {
                format!(
                    "client {name}: class {class} served {verdict}, stored {:?}",
                    class_verdict[*class]
                )
            });
        }
        for cert in &log.certificates {
            if verified.insert(cert.clone()) {
                let ok = Certificate::from_json(cert)
                    .map_err(|e| e.to_string())
                    .and_then(|c| c.verify().map_err(|e| format!("{e:?}")));
                report.check(ok.is_ok(), || format!("client {name}: served certificate: {ok:?}"));
            }
        }
    }
    let hits = (p.a.hit_ms.len() + p.b.hit_ms.len()) as u64;
    let misses = (p.a.miss_ms.len() + p.b.miss_ms.len()) as u64;
    let d = |i: usize| after[i] - before[i];
    report.check(hits + misses == p.requests(), || "hits + misses differ from requests".into());
    report.check(d(0) == p.requests() && d(1) == hits && d(2) == misses && d(3) == 0, || {
        format!(
            "daemon stats (requests {}, hits {}, misses {}, errors {}) differ from the schedule \
             ({} requests, {hits} hits, {misses} misses)",
            d(0),
            d(1),
            d(2),
            d(3),
            p.requests()
        )
    });
    let failed = (p.a.errors.len() + p.b.errors.len()) as u64;
    report.ops(p.requests(), failed);
}

/// A scratch directory inside the benchmark's own tree.
fn run_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A figure, or NaN and a failed check when it was refused.
fn fail_nan(figure: Result<f64, String>, report: &mut Report) -> f64 {
    figure.unwrap_or_else(|e| {
        report.check(false, || e);
        f64::NAN
    })
}

fn p50_ms(h: &HistogramSnapshot) -> Result<f64, String> {
    if h.count < 2 * crate::stats::MIN_BEYOND as u64 {
        return Err(format!("a p50 of {} samples has fewer than ten beyond it", h.count));
    }
    Ok(ns_to_ms(h.p50()))
}

/// Classes, plans and set-up shared by both modes.
struct World {
    classes: Vec<Problem>,
    fill: usize,
    plans: [ClientPlan; 2],
}

/// `whole_pool`: every client keeps going until it has sent all its
/// misses.
fn world(whole_pool: bool) -> Result<World, String> {
    let fill = fill_classes()?;
    let pool = miss_pool()?;
    let n_fill = fill.len();
    let mut classes = fill;
    classes.extend(pool);
    // Every class must be distinct up to isomorphism, so a "miss" really
    // is a class the store does not hold.
    for i in 0..classes.len() {
        for j in 0..i {
            if are_isomorphic(&classes[i], &classes[j]) {
                return Err(format!("classes {j} and {i} are isomorphic"));
            }
        }
    }
    let ids: Vec<usize> = (n_fill..classes.len()).collect();
    let plan = |id, keep_open, round, min_rounds: usize, misses: Vec<usize>| ClientPlan {
        id,
        keep_open,
        round,
        min_rounds: if whole_pool { min_rounds.max(misses.len()) } else { min_rounds },
        misses,
    };
    let plans = [
        plan(0xa, true, A_ROUND, A_MIN_ROUNDS, ids.iter().copied().step_by(2).collect()),
        plan(0xb, false, B_ROUND, B_MIN_ROUNDS, ids.iter().copied().skip(1).step_by(2).collect()),
    ];
    Ok(World { classes, fill: n_fill, plans })
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let w = world(!report.traced())?;
    let dir = run_dir("serve-mixed")?;
    let result = if report.traced() {
        run_traced(&w, args, &dir, report)
    } else {
        run_e2e(&w, args, &dir, report)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_e2e(w: &World, args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUPS {
        if let Some((d, _)) = live.take() {
            stop(d)?;
        }
        let store = dir.join(format!("store{rep}"));
        let watch = Stopwatch::start();
        live = Some(setup(&store, w, args.seed, rep)?);
        setup_s.push(watch.elapsed().as_secs_f64());
    }
    let (daemon, mut class_verdict) = live.expect("at least one set-up");
    let before = stats(daemon.addr)?;
    let mut next_k = [0, 0];
    let load = Load {
        addr: daemon.addr,
        classes: &w.classes,
        fill: w.fill,
        seed: args.seed,
        budget_s: args.seconds as f64,
        keep_requests: false,
    };
    let p = phase(&w.plans, &load, &mut next_k);
    let after = stats(daemon.addr)?;
    stop(daemon)?;
    let mut verified = HashSet::new();
    check_phase(&p, before, after, &mut class_verdict, &mut verified, report);
    report.metric("setup_s", median_of(setup_s));
    for (name, samples, q) in [
        ("hit_ms_p50 (A, kept-open connection)", &p.a.hit_ms, 0.5),
        ("hit_ms_p90 (A, kept-open connection)", &p.a.hit_ms, 0.9),
        ("connect_hit_ms_p50 (B, connection per request)", &p.b.hit_ms, 0.5),
    ] {
        let v = fail_nan(percentile(samples, q), report);
        println!("# {name}: {v:.3} ms");
    }
    // Each kind of request counts alike, however many of it a run sends.
    let kinds = [&p.a.hit_ms, &p.a.miss_ms, &p.b.hit_ms, &p.b.miss_ms];
    let medians: Vec<f64> = kinds.iter().map(|k| median_of(k.iter().copied())).collect();
    println!("# median ms of A hits, A misses, B hits, B misses: {medians:.3?}");
    report.metric("op_ms_geomean", geomean(&medians).unwrap_or(f64::NAN));
    report.metric("ops_per_s", p.requests_per_s());
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    Ok(())
}

fn run_traced(w: &World, args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let store = dir.join("store");
    let (daemon, mut class_verdict) = setup(&store, w, args.seed, 0)?;
    // The store as filled, for replaying this run's appends.
    let replay_dir = dir.join("insert-replay");
    std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(&store).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), replay_dir.join(entry.file_name()))
            .map_err(|e| e.to_string())?;
    }
    let mut verified = HashSet::new();
    let mut next_k = [0, 0];
    let reg0 = Registry::now();
    let s0 = stats(daemon.addr)?;
    let load = Load {
        addr: daemon.addr,
        classes: &w.classes,
        fill: w.fill,
        seed: args.seed,
        budget_s: args.seconds as f64 / 2.0,
        keep_requests: true,
    };
    let plain = phase(&w.plans, &load, &mut next_k);
    let s1 = stats(daemon.addr)?;
    check_phase(&plain, s0, s1, &mut class_verdict, &mut verified, report);

    let reg1 = Registry::now();
    layers::start_trace()?;
    let traced = phase(&w.plans, &load, &mut next_k);
    let reg2 = Registry::now();
    let table = layers::finish_trace()?;
    let s2 = stats(daemon.addr)?;
    check_phase(&traced, s1, s2, &mut class_verdict, &mut verified, report);
    stop(daemon)?;

    let queue = reg2.histogram_since(&reg1, "daemon.queue_wait_ns");
    let queue_p50 = fail_nan(p50_ms(&queue), report);
    report.metric("daemon.queue_wait_ms_p50", queue_p50);
    let encode = reg2.histogram_since(&reg1, "daemon.encode_ns");
    let v = fail_nan(p50_ms(&encode), report);
    report.metric("daemon.encode_ms_p50", v);
    let solve = reg2.histogram_since(&reg0, "daemon.solve_ns");
    let v = fail_nan(p50_ms(&solve), report);
    report.metric("daemon.solve_ms_p50", v);
    report.metric("daemon.cache_hits", reg2.counter_since(&reg1, "daemon.cache_hits") as f64);
    report.metric("daemon.cache_misses", reg2.counter_since(&reg1, "daemon.cache_misses") as f64);
    let bytes: Vec<f64> =
        traced.a.hit_bytes.iter().chain(&traced.b.hit_bytes).map(|b| b / 1024.0).collect();
    let v = fail_nan(percentile(&bytes, 0.5), report);
    report.metric("daemon.reply_kb_p50", v);

    // The daemon's own time per hit: its `daemon.request` span (store
    // lookup, encode, reply hand-off), taken from spans without a search.
    let searched = table.parents_of("daemon.solve");
    let hit_spans: Vec<f64> = table
        .named("daemon.request")
        .filter(|s| !searched.contains(&s.id))
        .map(|s| ns_to_ms(s.dur_ns))
        .collect();
    let hit_span_p50 = fail_nan(percentile(&hit_spans, 0.5), report);
    let a_p50 = fail_nan(percentile(&traced.a.hit_ms, 0.5), report);
    let b_p50 = fail_nan(percentile(&traced.b.hit_ms, 0.5), report);
    report.metric("daemon.unclaimed_ms_p50", a_p50 - queue_p50 - hit_span_p50);
    report.metric("daemon.accept_wait_ms_p50", b_p50 - queue_p50 - hit_span_p50);

    // Client-observed time per request against what the daemon's spans
    // and queue-wait histogram claim.
    let client_ms: f64 =
        [&traced.a, &traced.b].iter().map(|l| l.hit_ms.iter().chain(&l.miss_ms).sum::<f64>()).sum();
    let claimed = table.total_ms("daemon.request") + ns_to_ms(queue.sum);
    report.metric("attr.covered_share", claimed / client_ms);
    report.metric("attr.unattributed_ms", (client_ms - claimed) / traced.requests() as f64);
    report.metric("obs.trace_overhead", plain.requests_per_s() / traced.requests_per_s());
    report.metric("obs.trace_events", table.events as f64 / traced.requests() as f64);

    // `ProofStore::lookup` on this run's renamed requests, against the
    // store the daemon left behind (opened here, after it stopped).
    let mut copy = ProofStore::open(&store).map_err(|e| e.to_string())?;
    let mut lookup_us = Vec::new();
    for p in plain
        .a
        .hit_problems
        .iter()
        .chain(&plain.b.hit_problems)
        .chain(&traced.a.hit_problems)
        .chain(&traced.b.hit_problems)
    {
        let watch = Stopwatch::start();
        let found = copy.lookup(p, Direction::Lower).is_some();
        lookup_us.push(watch.elapsed_ns() as f64 / 1e3);
        report.check(found, || format!("lookup missed a stored class: {}", p.name()));
    }
    let v = fail_nan(percentile(&lookup_us, 0.5), report);
    report.metric("daemon.lookup_us_p50", v);

    // `ProofStore::insert` replaying this run's appends, in completion
    // order, on a copy of the store as filled.
    let mut replay = ProofStore::open(&replay_dir).map_err(|e| e.to_string())?;
    let mut appends: Vec<&(u64, String, String)> = Vec::new();
    for phase in [&plain, &traced] {
        let mut both: Vec<&(u64, String, String)> =
            phase.a.misses.iter().chain(&phase.b.misses).collect();
        both.sort_by_key(|m| m.0);
        appends.extend(both);
    }
    let mut insert_ms = Vec::new();
    for (_, text, cert) in appends {
        let problem = Problem::parse(text).map_err(|e| e.to_string())?;
        let cert = Certificate::from_json(cert).map_err(|e| e.to_string())?;
        let watch = Stopwatch::start();
        let stored = replay.insert(problem, cert);
        insert_ms.push(ns_to_ms(watch.elapsed_ns()));
        report.check(matches!(stored, Ok(true)), || format!("replayed append: {stored:?}"));
    }
    let v = fail_nan(percentile(&insert_ms, 0.5), report);
    report.metric("daemon.insert_ms_p50", v);
    Ok(())
}
