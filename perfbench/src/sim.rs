//! `sim-large`: the registry's cross-validation algorithms on seeded
//! million-node graphs, with the streaming checker and no bound search.
//!
//! Set-up generates a ring and random Δ-regular graphs with Δ = 3 and 4,
//! plus shuffled unique ids. A pass runs every `crossval_specs()`
//! algorithm on its graph (the runner is sequential) and streams the
//! checker over the outputs (on `nproc` threads, like generation).

use crate::layers::{self, ns_to_ms, Registry};
use crate::rename::{instantiate, Rng};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, median_of};
use crate::Args;
use roundelim_core::problem::Problem;
use roundelim_obs as obs;
use roundelim_obs::time::Stopwatch;
use roundelim_problems::registry::{crossval_specs, CrossvalSpec};
use roundelim_sim::algos;
use roundelim_sim::checker::{check_stream, CheckOptions, CheckReport};
use roundelim_sim::generate::{cycle, random_permutation, random_regular_seeded};
use roundelim_sim::graph::PortGraph;
use roundelim_sim::runner::{run_adaptive, run_flat, FlatOutputs, NodeInput};
use std::collections::HashSet;

/// Nodes per graph: the simulator's million-node scale.
const N: usize = 1_000_000;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes an end-to-end run takes at least.
const MIN_PASSES: usize = 3;

/// One generated graph with its inputs.
struct Instance {
    graph: PortGraph,
    delta: usize,
    inputs: Vec<NodeInput>,
}

/// The three graphs: ring, random 3-regular, random 4-regular.
struct Instances {
    list: Vec<Instance>,
    generate_ms: f64,
    ids_ms: f64,
}

impl Instances {
    fn for_spec(&self, spec: &CrossvalSpec) -> &Instance {
        let want = if spec.graph == "ring" { 2 } else { spec.delta };
        self.list.iter().find(|i| i.delta == want).expect("a graph for every spec degree")
    }
}

fn setup(seed: u64, rep: usize, threads: usize) -> Result<Instances, String> {
    let mut rng = Rng::new(seed, 0x51u64 << 8 | rep as u64);
    let watch = Stopwatch::start();
    let mut graphs = vec![(2, {
        let _s = obs::trace::span("bench.generate");
        cycle(N)
    })];
    for delta in [3, 4] {
        let _s = obs::trace::span("bench.generate");
        let g = random_regular_seeded(N, delta, 64, rng.next_u64(), threads)
            .ok_or_else(|| format!("no simple {delta}-regular graph on {N} nodes"))?;
        graphs.push((delta, g));
    }
    let generate_ms = ns_to_ms(watch.elapsed_ns());
    let watch = Stopwatch::start();
    let mut list = Vec::new();
    for (delta, graph) in graphs {
        let _s = obs::trace::span("bench.ids");
        let ids = random_permutation(graph.node_count(), rng.next_u64(), threads);
        let inputs = (0..graph.node_count())
            .map(|v| NodeInput {
                id: Some(u64::from(ids[v])),
                color: None,
                // The ring's successor orientation (Cole–Vishkin input):
                // cycle(n) reaches v + 1 through port 1, except node 0,
                // which reaches 1 through port 0.
                oriented_away: if delta == 2 {
                    if v == 0 {
                        vec![true, false]
                    } else {
                        vec![false, true]
                    }
                } else {
                    Vec::new()
                },
            })
            .collect();
        list.push(Instance { graph, delta, inputs });
    }
    Ok(Instances { list, generate_ms, ids_ms: ns_to_ms(watch.elapsed_ns()) })
}

/// Every graph must be simple, Δ-regular, and port-consistent.
fn check_graph(inst: &Instance, report: &mut Report) {
    let g = &inst.graph;
    report.check(g.node_count() >= N && g.is_regular(inst.delta), || {
        format!("graph Δ={} is not {}-regular on ≥{N} nodes", inst.delta, inst.delta)
    });
    let mut bad = 0u64;
    for v in 0..g.node_count() {
        let ports = g.ports(v);
        for (p, t) in ports.iter().enumerate() {
            let u = t.node_ix();
            let back = g.neighbor(u, t.port_ix());
            if u == v || back.node_ix() != v || back.port_ix() != p {
                bad += 1;
            }
            if ports[..p].iter().any(|s| s.node_ix() == u) {
                bad += 1;
            }
        }
    }
    report.check(bad == 0, || {
        format!("graph Δ={}: {bad} loops, multi-edges or bad ports", inst.delta)
    });
}

fn simulate(spec: &CrossvalSpec, inst: &Instance) -> Result<(FlatOutputs, usize), String> {
    let (g, inputs) = (&inst.graph, &inst.inputs[..]);
    let n = g.node_count();
    match spec.algorithm {
        "cole-vishkin" => {
            let rounds = algos::cole_vishkin::total_rounds(n);
            Ok((run_flat(g, inputs, &algos::cole_vishkin::ColeVishkin::for_n(n), rounds), rounds))
        }
        "weak2" => {
            let rounds = algos::weak2::total_rounds(n);
            Ok((run_flat(g, inputs, &algos::weak2::WeakTwoColoring::for_n(n), rounds), rounds))
        }
        "greedy-mis" => {
            Ok(run_adaptive(g, inputs, &algos::greedy::GreedyMis, algos::greedy::mis_rounds(n)))
        }
        "greedy-matching" => Ok(run_adaptive(
            g,
            inputs,
            &algos::greedy::GreedyMatching,
            algos::greedy::matching_rounds(n),
        )),
        other => Err(format!("unknown algorithm {other}")),
    }
}

/// Violation counts from the problem's node and edge configurations,
/// computed here apart from `check_stream`.
fn own_check(problem: &Problem, g: &PortGraph, out: &FlatOutputs) -> (u64, u64, u64, u64) {
    let node_ok: HashSet<Vec<usize>> =
        problem.node().iter().map(|c| c.labels().iter().map(|l| l.index()).collect()).collect();
    let mut edge_ok: HashSet<(usize, usize)> = HashSet::new();
    for c in problem.edge().iter() {
        let l = c.labels();
        edge_ok.insert((l[0].index(), l[1].index()));
        edge_ok.insert((l[1].index(), l[0].index()));
    }
    let (mut degree, mut node, mut edge, mut edges) = (0, 0, 0, 0);
    let mut row = Vec::new();
    for v in 0..g.node_count() {
        if g.degree(v) != problem.delta() {
            degree += 1;
        }
        row.clear();
        row.extend(out.node(g, v).iter().map(|l| l.index()));
        row.sort_unstable();
        if !node_ok.contains(&row) {
            node += 1;
        }
        for (p, t) in g.ports(v).iter().enumerate() {
            let u = t.node_ix();
            if v < u {
                edges += 1;
                let a = out.node(g, v)[p].index();
                let b = out.node(g, u)[t.port_ix()].index();
                if !edge_ok.contains(&(a, b)) {
                    edge += 1;
                }
            }
        }
    }
    (degree, node, edge, edges)
}

/// One case's pass figures.
struct CaseRun {
    run_ms: f64,
    check_ms: f64,
    node_rounds: f64,
    ports: f64,
}

struct Pass {
    cases: Vec<CaseRun>,
}

impl Pass {
    fn sum(&self, f: fn(&CaseRun) -> f64) -> f64 {
        self.cases.iter().map(f).sum()
    }
    fn seconds(&self) -> f64 {
        (self.sum(|c| c.run_ms) + self.sum(|c| c.check_ms)) / 1e3
    }
}

/// What the first pass established for a case: a digest of its outputs
/// and its round count. Later passes must reproduce both (the algorithms
/// are deterministic), which lets the configuration check run once.
type Reference = Vec<Option<(u64, usize)>>;

fn digest(out: &FlatOutputs) -> u64 {
    out.labels.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, l| {
        (h ^ l.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pass(
    specs: &[(CrossvalSpec, Problem)],
    inst: &Instances,
    threads: usize,
    reference: &mut Reference,
    report: &mut Report,
) -> Pass {
    let mut cases = Vec::new();
    let mut checks: Vec<(usize, FlatOutputs, CheckReport, usize)> = Vec::new();
    {
        let _pass = obs::trace::span("bench.pass");
        for (i, (spec, problem)) in specs.iter().enumerate() {
            let g = inst.for_spec(spec);
            let watch = Stopwatch::start();
            let simulated = {
                let _s = obs::trace::span("bench.run");
                simulate(spec, g)
            };
            let run_ms = ns_to_ms(watch.elapsed_ns());
            let (out, rounds) = match simulated {
                Ok(r) => r,
                Err(e) => {
                    report.check(false, || e);
                    continue;
                }
            };
            let watch = Stopwatch::start();
            let checked = {
                let _s = obs::trace::span("bench.check");
                check_stream(problem, &g.graph, &out, &CheckOptions { max_witnesses: 8, threads })
            };
            let check_ms = ns_to_ms(watch.elapsed_ns());
            cases.push(CaseRun {
                run_ms,
                check_ms,
                node_rounds: (g.graph.node_count() * rounds) as f64,
                ports: g.graph.total_ports() as f64,
            });
            checks.push((i, out, checked, rounds));
        }
    }
    reference.resize(specs.len(), None);
    for (i, out, checked, rounds) in checks {
        let (spec, problem) = &specs[i];
        let g = &inst.for_spec(spec).graph;
        let name = format!("{}:{}:{} [{}]", spec.family, spec.k, spec.delta, spec.algorithm);
        report.check(checked.is_valid() && checked.nodes_checked == g.node_count() as u64, || {
            format!("{name}: check_stream reports {} violations", checked.total_violations())
        });
        report.check(rounds > 0, || format!("{name}: ran no rounds"));
        let seen = (digest(&out), rounds);
        match reference[i] {
            Some(first) => report.check(first == seen, || {
                format!("{name}: outputs or rounds differ from the first pass")
            }),
            None => {
                let (degree, node, edge, edges) = own_check(problem, g, &out);
                report.check(node + edge + degree == 0, || {
                    format!(
                        "{name}: {} violations by the configuration check",
                        node + edge + degree
                    )
                });
                report.check(
                    checked.edges_checked == edges
                        && (
                            checked.degree_violations,
                            checked.node_violations,
                            checked.edge_violations,
                        ) == (degree, node, edge),
                    || format!("{name}: check_stream disagrees with the configuration check"),
                );
                reference[i] = Some(seen);
            }
        }
    }
    report.ops(specs.len() as u64, (specs.len() - cases.len()) as u64);
    Pass { cases }
}

fn passes(
    specs: &[(CrossvalSpec, Problem)],
    inst: &Instances,
    threads: usize,
    budget_s: f64,
    min: usize,
    reference: &mut Reference,
    report: &mut Report,
) -> Vec<Pass> {
    let watch = Stopwatch::start();
    let mut out = Vec::new();
    while out.len() < min || watch.elapsed().as_secs_f64() < budget_s {
        let p = pass(specs, inst, threads, reference, report);
        println!(
            "# pass {}: {:.3} s (run {:.1} ms, check {:.1} ms, {} node-rounds)",
            out.len(),
            p.seconds(),
            p.sum(|c| c.run_ms),
            p.sum(|c| c.check_ms),
            p.sum(|c| c.node_rounds)
        );
        out.push(p);
    }
    out
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let specs: Vec<(CrossvalSpec, Problem)> = crossval_specs()
        .iter()
        .map(|s| instantiate(s.family, s.k, s.delta).map(|p| (*s, p)))
        .collect::<Result<_, _>>()?;
    if report.traced() {
        return run_traced(&specs, args, threads, report);
    }
    let mut setup_s = Vec::new();
    let mut inst = None;
    for rep in 0..SETUPS {
        drop(inst.take());
        let watch = Stopwatch::start();
        let built = setup(args.seed, rep, threads)?;
        setup_s.push(watch.elapsed().as_secs_f64());
        inst = Some(built);
    }
    let inst = inst.expect("at least one set-up");
    for i in &inst.list {
        check_graph(i, report);
    }
    // The first timed pass also runs the configuration check, outside its
    // timers.
    let mut reference = Vec::new();
    let timed =
        passes(&specs, &inst, threads, args.seconds as f64, MIN_PASSES, &mut reference, report);
    report.metric("setup_s", median_of(setup_s));
    let pass_s = median_of(timed.iter().map(Pass::seconds));
    println!("# pass_s {pass_s:.4} s (median)");
    let per_case: Vec<f64> = (0..specs.len())
        .map(|i| {
            median_of(timed.iter().filter_map(|p| p.cases.get(i)).map(|c| c.run_ms + c.check_ms))
        })
        .collect();
    for ((spec, _), ms) in specs.iter().zip(&per_case) {
        println!(
            "# case {}:{}:{} [{}]: median {ms:.1} ms",
            spec.family, spec.k, spec.delta, spec.algorithm
        );
    }
    report.metric("op_ms_geomean", geomean(&per_case).unwrap_or(f64::NAN));
    let cases = timed.iter().map(|p| p.cases.len()).sum::<usize>();
    report.metric("ops_per_s", cases as f64 / timed.iter().map(Pass::seconds).sum::<f64>());
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    Ok(())
}

fn run_traced(
    specs: &[(CrossvalSpec, Problem)],
    args: &Args,
    threads: usize,
    report: &mut Report,
) -> Result<(), String> {
    let inst = setup(args.seed, 0, threads)?;
    for i in &inst.list {
        check_graph(i, report);
    }
    report.metric("sim.generate_ms", inst.generate_ms);
    report.metric("sim.ids_ms", inst.ids_ms);
    let half = args.seconds as f64 / 2.0;
    let mut reference = Vec::new();
    pass(specs, &inst, threads, &mut reference, report);
    let plain = passes(specs, &inst, threads, half, 1, &mut reference, report);
    layers::start_trace()?;
    let before = Registry::now();
    let traced = passes(specs, &inst, threads, half, 1, &mut reference, report);
    let after = Registry::now();
    let table = layers::finish_trace()?;
    let n = traced.len() as f64;
    let med = |f: fn(&CaseRun) -> f64| median_of(traced.iter().map(|p| p.sum(f)));
    let run_ms = med(|c| c.run_ms);
    let check_ms = med(|c| c.check_ms);
    let node_rounds = med(|c| c.node_rounds);
    report.metric("sim.run_ms", run_ms);
    report.metric("sim.check_ms", check_ms);
    report.metric("sim.node_rounds", node_rounds);
    report.metric("sim.node_rounds_per_s", node_rounds / (run_ms / 1e3));
    report.metric("sim.ports_checked_per_s", med(|c| c.ports) / (check_ms / 1e3));
    report.metric("core.exec_steals", after.counter_since(&before, "exec.steals") as f64 / n);
    report.metric("core.exec_idle_ms", after.hist_sum_ms(&before, "exec.worker_idle_ns") / n);
    report.metric(
        "obs.trace_overhead",
        median_of(traced.iter().map(Pass::seconds)) / median_of(plain.iter().map(Pass::seconds)),
    );
    report.metric("obs.trace_events", table.events as f64 / n);
    let wall = table.total_ms("bench.pass");
    let unattributed = table.exclusive_ms().get("bench.pass").copied().unwrap_or(0.0);
    report.metric("attr.covered_share", 1.0 - unattributed / wall);
    report.metric("attr.unattributed_ms", unattributed / n);
    Ok(())
}
