//! `lb-search`: single-threaded `autolb`/`autoub` over a fixed problem
//! set, each pass presenting every problem under fresh seeded label names.
//!
//! The set spans both ends of the search: `coloring:3:3` (relax closure
//! and canonical cache), the eight registry sweep instances (small
//! searches where the core speedup step dominates), the paper's own
//! `weak-coloring:2:3`, and `autoub` on a few zoo instances.

use crate::layers::{self, ns_to_ms, Registry};
use crate::rename::{instantiate, rename, Rng};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, median_of};
use crate::Args;
use roundelim_auto::certificate::{CertVerdict, Certificate, Direction, Edge};
use roundelim_auto::search::{autolb, autoub, SearchOptions, SearchStats, Verdict};
use roundelim_core::problem::Problem;
use roundelim_core::speedup::full_step;
use roundelim_obs as obs;
use roundelim_obs::time::Stopwatch;
use roundelim_problems::registry::sweep_specs;

/// Timed passes an end-to-end run takes at least, whatever `--seconds`.
const MIN_PASSES: usize = 3;
/// Cold set-up passes per end-to-end run: the run's own first pass and
/// one in each of `SETUPS - 1` child processes; `setup_s` is their median.
const SETUPS: u64 = 3;
/// Pass index of a child's set-up pass (plus its number), so that its
/// renamings differ from every pass of the parent.
const CHILD_PASS_BASE: usize = 1_000_000;

/// One search of the set.
struct Case {
    spec: String,
    problem: Problem,
    direction: Direction,
}

fn cases() -> Result<Vec<Case>, String> {
    let mut lower = vec![("coloring", 3, 3)];
    lower.extend(sweep_specs().iter().map(|s| (s.family, s.k, s.delta)));
    lower.push(("weak-coloring", 2, 3));
    lower.push(("superweak-coloring", 3, 3));
    let upper = [
        ("coloring", 3, 2),
        ("coloring", 3, 3),
        ("maximal-matching", 0, 3),
        ("superweak-coloring", 3, 3),
    ];
    let mut out = Vec::new();
    for (dir, list) in [(Direction::Lower, &lower[..]), (Direction::Upper, &upper[..])] {
        for &(fam, k, delta) in list {
            out.push(Case {
                spec: format!("{fam}:{k}:{delta}"),
                problem: instantiate(fam, k, delta)?,
                direction: dir,
            });
        }
    }
    Ok(out)
}

/// The budget of every search: steps 6, beam 6, at most 10 labels, one
/// thread.
pub fn options() -> SearchOptions {
    SearchOptions {
        max_steps: 6,
        beam_width: 6,
        max_labels: 10,
        threads: 1,
        ..SearchOptions::default()
    }
}

/// What one pass produced.
struct Pass {
    /// Time to verdict per case (ms), including the search's own replay.
    ms: Vec<f64>,
    verdicts: Vec<Option<Verdict>>,
    certificates: Vec<Certificate>,
    stats: SearchStats,
    failed: u64,
}

impl Pass {
    fn search_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }
}

fn add_stats(acc: &mut SearchStats, s: &SearchStats) {
    acc.expanded += s.expanded;
    acc.cache.classes += s.cache.classes;
    acc.cache.dedup_hits += s.cache.dedup_hits;
    acc.cache.iso_resolutions += s.cache.iso_resolutions;
}

fn cert_matches(v: &Verdict, c: &CertVerdict) -> bool {
    match (v, c) {
        (Verdict::Unbounded, CertVerdict::Unbounded { .. }) => true,
        (Verdict::LowerBound { rounds: a }, CertVerdict::LowerBound { rounds: b })
        | (Verdict::UpperBound { rounds: a }, CertVerdict::UpperBound { rounds: b }) => a == b,
        _ => false,
    }
}

/// Runs every case once under pass-specific renamings and checks each
/// outcome: the certificate replays and its verdict is the search's.
fn pass(cases: &[Case], seed: u64, ix: usize, report: &mut Report) -> Pass {
    let _pass_span = obs::trace::span("bench.pass");
    let opts = options();
    let mut out = Pass {
        ms: Vec::new(),
        verdicts: Vec::new(),
        certificates: Vec::new(),
        stats: SearchStats::default(),
        failed: 0,
    };
    for (i, case) in cases.iter().enumerate() {
        let problem = {
            let _s = obs::trace::span("bench.rename");
            rename(&case.problem, &mut Rng::new(seed, (ix * 1000 + i) as u64), &format!("~{ix}"))
        };
        let watch = Stopwatch::start();
        let outcome = {
            let _s = obs::trace::span("bench.search");
            match case.direction {
                Direction::Lower => autolb(&problem, &opts),
                Direction::Upper => autoub(&problem, &opts),
            }
        };
        out.ms.push(ns_to_ms(watch.elapsed_ns()));
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", case.spec);
                out.failed += 1;
                out.verdicts.push(None);
                continue;
            }
        };
        add_stats(&mut out.stats, &outcome.stats);
        match &outcome.certificate {
            Some(cert) => {
                let replay = {
                    let _s = obs::trace::span("bench.verify");
                    cert.verify()
                };
                report.check(replay.is_ok(), || {
                    format!("{}: certificate does not replay: {replay:?}", case.spec)
                });
                report.check(cert.problems.first() == Some(&problem), || {
                    format!("{}: certificate does not start at the searched problem", case.spec)
                });
                report.check(cert_matches(&outcome.verdict, &cert.verdict), || {
                    format!("{}: certificate claims another verdict", case.spec)
                });
                out.certificates.push(cert.clone());
            }
            None => report.check(outcome.verdict == Verdict::Inconclusive, || {
                format!("{}: a conclusive verdict came without a certificate", case.spec)
            }),
        }
        out.verdicts.push(Some(outcome.verdict));
    }
    out
}

/// Verdicts must not depend on label names, and a certified lower bound
/// must not exceed a certified upper bound for the same problem.
fn check_verdicts(cases: &[Case], first: &Pass, this: &Pass, report: &mut Report) {
    for (i, case) in cases.iter().enumerate() {
        report.check(first.verdicts[i] == this.verdicts[i], || {
            format!(
                "{} {:?}: verdict changed under renaming: {:?} vs {:?}",
                case.spec, case.direction, first.verdicts[i], this.verdicts[i]
            )
        });
    }
    for (i, lo) in cases.iter().enumerate().filter(|(_, c)| c.direction == Direction::Lower) {
        for (j, _) in cases
            .iter()
            .enumerate()
            .filter(|(_, c)| c.direction == Direction::Upper && c.spec == lo.spec)
        {
            let ub = match this.verdicts[j] {
                Some(Verdict::UpperBound { rounds }) => rounds,
                _ => continue,
            };
            let ok = match this.verdicts[i] {
                Some(Verdict::LowerBound { rounds }) => rounds <= ub,
                Some(Verdict::Unbounded) => false,
                _ => true,
            };
            report.check(ok, || {
                format!(
                    "{}: certified LB {:?} exceeds certified UB {ub}",
                    lo.spec, this.verdicts[i]
                )
            });
        }
    }
}

/// Sum of the certified lower bounds; an unbounded verdict counts as the
/// step budget + 1.
fn lb_rounds(cases: &[Case], p: &Pass) -> f64 {
    let cap = options().max_steps + 1;
    cases
        .iter()
        .zip(&p.verdicts)
        .filter(|(c, _)| c.direction == Direction::Lower)
        .map(|(_, v)| match v {
            Some(Verdict::LowerBound { rounds }) => *rounds,
            Some(Verdict::Unbounded) => cap,
            _ => 0,
        })
        .sum::<usize>() as f64
}

/// Takes numbered passes and checks each against the cold first one.
struct Runner<'a> {
    cases: &'a [Case],
    seed: u64,
    first: Pass,
    next_ix: usize,
}

impl<'a> Runner<'a> {
    /// Takes the cold first pass.
    fn new(cases: &'a [Case], seed: u64, report: &mut Report) -> Runner<'a> {
        let first = pass(cases, seed, 0, report);
        report.ops(first.ms.len() as u64 + first.failed, first.failed);
        check_verdicts(cases, &first, &first, report);
        Runner { cases, seed, first, next_ix: 1 }
    }

    /// Passes until `budget_s` has elapsed and at least `min` were taken.
    fn passes(
        &mut self,
        budget_s: f64,
        min: usize,
        report: &mut Report,
        mut each: impl FnMut(&Pass),
    ) -> Vec<Pass> {
        let watch = Stopwatch::start();
        let mut out = Vec::new();
        while out.len() < min || watch.elapsed().as_secs_f64() < budget_s {
            let p = pass(self.cases, self.seed, self.next_ix, report);
            check_verdicts(self.cases, &self.first, &p, report);
            report.ops(p.ms.len() as u64 + p.failed, p.failed);
            each(&p);
            println!(
                "# pass {}: {:.3} s, {} classes, {} expansions",
                self.next_ix,
                p.search_s(),
                p.stats.cache.classes,
                p.stats.expanded
            );
            self.next_ix += 1;
            out.push(p);
        }
        out
    }
}

/// The verdicts of a pass, as a set-up child reports them.
fn verdict_line(p: &Pass) -> String {
    format!("{:?}", p.verdicts)
}

/// `--setup-child REP`: one cold pass in a fresh process, as a one-shot
/// `roundelim autolb` pays it. Prints `setup-pass <seconds> <verdicts>`.
pub fn setup_child(args: &Args, rep: u64) -> Result<(), String> {
    let cases = cases()?;
    let mut report = Report::new(&args.workload, false);
    let p = pass(&cases, args.seed, CHILD_PASS_BASE + rep as usize, &mut report);
    check_verdicts(&cases, &p, &p, &mut report);
    if p.failed > 0 || !report.checks_passed() {
        return Err(format!("{} searches failed or were wrong", p.failed.max(1)));
    }
    println!("setup-pass {} {}", p.search_s(), verdict_line(&p));
    Ok(())
}

/// Cold passes in child processes, run one after another; each child's
/// verdicts must be the parent's first pass's.
fn child_setups(args: &Args, first: &Pass, report: &mut Report) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let want = verdict_line(first);
    let mut out = Vec::new();
    for rep in 1..SETUPS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", "lb-search", "--seed", &args.seed.to_string()])
            .args(["--setup-child", &rep.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up child {rep}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().find_map(|l| l.strip_prefix("setup-pass "));
        let (secs, verdicts) = match (child.status.success(), line.and_then(|l| l.split_once(' ')))
        {
            (true, Some(parts)) => parts,
            _ => return Err(format!("set-up child {rep} ended with {}", child.status)),
        };
        report.ops(first.verdicts.len() as u64, 0);
        report.check(verdicts == want, || {
            format!("set-up child {rep}: verdicts {verdicts} differ from {want}")
        });
        out.push(secs.parse().map_err(|_| format!("set-up child {rep} printed {secs}"))?);
    }
    Ok(out)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let cases = cases()?;
    if report.traced() {
        return run_traced(&cases, args, report);
    }
    // Set-up: cold first passes, which fill the process-wide step memo
    // (what a one-shot `roundelim autolb` pays): this process's own and
    // those of its set-up children.
    let mut runner = Runner::new(&cases, args.seed, report);
    let mut setup_s = vec![runner.first.search_s()];
    setup_s.extend(child_setups(args, &runner.first, report)?);
    let timed = runner.passes(args.seconds as f64, MIN_PASSES, report, |_| {});
    report.metric("setup_s", median_of(setup_s));
    let pass_s = median_of(timed.iter().map(Pass::search_s));
    println!(
        "# pass_s {pass_s:.4} s (median); lb_rounds {} (an unbounded verdict counts as the step \
         budget + 1)",
        lb_rounds(&cases, &runner.first)
    );
    let per_case: Vec<f64> =
        (0..cases.len()).map(|i| median_of(timed.iter().map(|p| p.ms[i]))).collect();
    for (case, ms) in cases.iter().zip(&per_case) {
        println!("# verdict {} {:?}: median {ms:.3} ms", case.spec, case.direction);
    }
    report.metric("op_ms_geomean", geomean(&per_case).unwrap_or(f64::NAN));
    let searches = timed.iter().map(|p| p.ms.len()).sum::<usize>();
    report.metric("ops_per_s", searches as f64 / timed.iter().map(Pass::search_s).sum::<f64>());
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    Ok(())
}

/// Registry deltas of one traced pass.
#[derive(Default)]
struct PassLayers {
    canon_ms: f64,
    canon_calls: f64,
    zero_ms: f64,
    zero_tests: f64,
    exec_tasks: f64,
    relax_ms: f64,
    memo_hits: f64,
    memo_misses: f64,
}

fn run_traced(cases: &[Case], args: &Args, report: &mut Report) -> Result<(), String> {
    // The cold pass with stage accounting armed: where set-up time goes.
    obs::set_profiling(true);
    let before = Registry::now();
    let mut runner = Runner::new(cases, args.seed, report);
    let after = Registry::now();
    obs::set_profiling(false);
    report.metric("core.close_ms", after.hist_sum_ms(&before, "stage.close"));
    report.metric("core.merge_ms", after.hist_sum_ms(&before, "stage.merge"));
    report.metric(
        "auto.setup_step_memo_misses",
        after.counter_since(&before, "cache.step_memo_misses") as f64,
    );

    let half = args.seconds as f64 / 2.0;
    let plain = runner.passes(half, 2, report, |_| {});

    layers::start_trace()?;
    let mut per_pass: Vec<PassLayers> = Vec::new();
    let mut before = Registry::now();
    let traced = runner.passes(half, 2, report, |_| {
        let now = Registry::now();
        per_pass.push(PassLayers {
            canon_ms: now.hist_sum_ms(&before, "stage.canon"),
            canon_calls: now.hist_count(&before, "stage.canon") as f64,
            zero_ms: now.hist_sum_ms(&before, "stage.zero-round"),
            zero_tests: now.hist_count(&before, "stage.zero-round") as f64,
            exec_tasks: now.counter_since(&before, "exec.tasks") as f64,
            relax_ms: now.hist_sum_ms(&before, "stage.relax-closure"),
            memo_hits: now.counter_since(&before, "cache.step_memo_hits") as f64,
            memo_misses: now.counter_since(&before, "cache.step_memo_misses") as f64,
        });
        before = now;
    });
    let table = layers::finish_trace()?;
    let n = traced.len() as f64;
    let med = |f: fn(&PassLayers) -> f64| median_of(per_pass.iter().map(f));
    report.metric("core.canon_ms", med(|p| p.canon_ms));
    report.metric("core.canon_calls", med(|p| p.canon_calls));
    report.metric("core.zero_round_ms", med(|p| p.zero_ms));
    report.metric("core.zero_round_tests", med(|p| p.zero_tests));
    report.metric("core.exec_tasks", med(|p| p.exec_tasks));
    report.metric("auto.relax_closure_ms", med(|p| p.relax_ms));
    report.metric("auto.step_memo_hits", med(|p| p.memo_hits));
    report.metric("auto.step_memo_misses", med(|p| p.memo_misses));
    let last = traced.last().expect("at least two traced passes");
    report.metric("auto.classes", last.stats.cache.classes as f64);
    report.metric("auto.expansions", last.stats.expanded as f64);
    report.metric(
        "auto.classes_per_expansion",
        last.stats.cache.classes as f64 / last.stats.expanded.max(1) as f64,
    );
    report.metric("auto.iso_resolutions", last.stats.cache.iso_resolutions as f64);
    report.metric("auto.dedup_hits", last.stats.cache.dedup_hits as f64);
    let exclusive = table.exclusive_ms();
    let excl = |name: &str| exclusive.get(name).copied().unwrap_or(0.0);
    report.metric("auto.wave_unattributed_ms", excl("search.wave") / n);
    report.metric(
        "obs.trace_overhead",
        median_of(traced.iter().map(Pass::search_s)) / median_of(plain.iter().map(Pass::search_s)),
    );
    report.metric("obs.trace_events", table.events as f64 / n);
    // Layer spans: the program's own spans under each search, and the
    // benchmark's replay of each certificate. Time inside a search under
    // no program span, and the benchmark's glue, stay unattributed.
    let wall = table.total_ms("bench.pass");
    let unattributed = excl("bench.pass") + excl("bench.search") + excl("bench.rename");
    report.metric("attr.covered_share", 1.0 - unattributed / wall);
    report.metric("attr.unattributed_ms", unattributed / n);

    // `full_step` and `Certificate::verify` timed on their own, on the
    // certificates of the last traced pass.
    let mut step_ms = 0.0;
    let mut verify_ms = Vec::new();
    for cert in &last.certificates {
        for (i, edge) in cert.edges.iter().enumerate() {
            if *edge == Edge::Step {
                let watch = Stopwatch::start();
                let stepped = full_step(&cert.problems[i]);
                step_ms += ns_to_ms(watch.elapsed_ns());
                report.check(stepped.is_ok(), || format!("full_step failed: {stepped:?}"));
            }
        }
        let watch = Stopwatch::start();
        let ok = cert.verify().is_ok();
        verify_ms.push(ns_to_ms(watch.elapsed_ns()));
        report.check(ok, || "certificate replay failed".into());
    }
    report.metric("core.full_step_ms", step_ms);
    report.metric("auto.verify_ms", verify_ms.iter().sum::<f64>() / verify_ms.len().max(1) as f64);
    Ok(())
}
