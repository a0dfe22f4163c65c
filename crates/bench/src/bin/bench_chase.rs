//! Chase benchmark with a JSON summary: naive-reground vs. incremental vs.
//! parallel.
//!
//! PR 3 made the chase incremental (snapshot-shared groundings plus the
//! perfect grounder's stratum cursor); PR 4 parallelizes it. This tracker
//! measures both levers against the same workloads:
//!
//! * `reground_ms` — every chase node regrounds from scratch (the same
//!   grounder with its `ground_node`/`ground_from` overrides stripped);
//! * `incremental_ms` — sequential snapshot-shared descent;
//! * `par_ms` — the same descent fanned out to a work-stealing pool with
//!   `--threads` workers, merged deterministically in trigger order.
//!
//! Before anything is timed the three modes must agree **exactly** — same
//! outcome list (order included), probabilities, residual mass and visited
//! node count — and the Monte-Carlo estimates must be bit-identical between
//! the reground, incremental and parallel modes (per-walk RNG streams derive
//! from the root seed, and each estimate's walk tree grounds a node once).
//! The JSON carries a fingerprint of the outcome sets so CI can diff runs
//! across a `GDLOG_THREADS` matrix, and the command line that wrote it.
//!
//! Workload scales live in one table, `workloads::chase_workload_suite`, so
//! the CI smoke scale and the full measurement scale cannot drift.
//!
//! Usage: `bench_chase [--full] [--threads N] [--gate-parallel] [--out PATH]`
//! (defaults: small scale, `GDLOG_THREADS` or 4 threads for the parallel
//! column, `BENCH_chase.json` in the current directory). `--gate-parallel`
//! exits non-zero if the parallel column is slower than the sequential
//! incremental one on the best stratified workload — skipped with a warning
//! when the machine cannot run the requested threads in parallel.

use gdlog_bench::workloads::{chase_workload_suite, Reground};
use gdlog_bench::workloads::{network_database, Topology};
use gdlog_core::{
    enumerate_outcomes, enumerate_outcomes_in, network_resilience_program, ChaseBudget,
    ChaseResult, Ctx, Executor, Grounder, MonteCarlo, Pipeline, TriggerOrder, THREADS_ENV,
};
use std::sync::Arc;
use std::time::Instant;

struct Row {
    name: String,
    grounder: &'static str,
    stratified: bool,
    outcomes: usize,
    nodes: usize,
    fingerprint: String,
    reground_ms: f64,
    incremental_ms: f64,
    par_ms: f64,
    mc_reground_ms: f64,
    mc_incremental_ms: f64,
    mc_par_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reground_ms / self.incremental_ms
    }

    fn par_speedup(&self) -> f64 {
        self.incremental_ms / self.par_ms
    }
}

/// Minimum wall-clock over `reps` runs, in milliseconds.
fn time_min_ms<F: FnMut() -> usize>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Fingerprint of the canonical outcome listing, residual mass and node
/// count (shared FNV-1a scheme) — CI compares these across `GDLOG_THREADS`
/// legs.
fn fingerprint(result: &ChaseResult) -> String {
    gdlog_bench::fnv1a_fingerprint(
        result
            .outcomes
            .iter()
            .map(|outcome| format!("{}@{};", outcome.atr, outcome.probability))
            .chain([
                format!("residual={};", result.residual_mass),
                format!("nodes={};", result.nodes_visited),
            ]),
    )
}

/// Panic unless the two results agree under the shared strict definition
/// (`ChaseResult::diff`): outcome order, choice sets, probabilities,
/// residual mass, truncation and visited nodes.
fn assert_identical(a: &ChaseResult, b: &ChaseResult, name: &str, what: &str) {
    if let Some(diff) = a.diff(b) {
        panic!("{name}: {what} changed the result: {diff}");
    }
}

fn measure(name: &str, grounder: &dyn Grounder, stratified: bool, reps: usize, par: &Ctx) -> Row {
    let budget = ChaseBudget::default();
    let baseline = Reground(grounder);

    // All modes must agree on the result before anything is timed. The
    // reground baseline only has to match up to reordering-free semantics —
    // it visits the same nodes in the same order — so the strict comparison
    // applies to it too.
    let incremental = enumerate_outcomes(grounder, &budget, TriggerOrder::First)
        .expect("incremental enumeration succeeds");
    let reground = enumerate_outcomes(&baseline, &budget, TriggerOrder::First)
        .expect("reground enumeration succeeds");
    assert_identical(&incremental, &reground, name, "regrounding");
    let parallel = enumerate_outcomes_in(grounder, &budget, TriggerOrder::First, par)
        .expect("parallel enumeration succeeds");
    assert_identical(&incremental, &parallel, name, "parallel exploration");

    let incremental_ms = time_min_ms(reps, || {
        enumerate_outcomes(grounder, &budget, TriggerOrder::First)
            .unwrap()
            .outcomes
            .len()
    });
    let reground_ms = time_min_ms(reps, || {
        enumerate_outcomes(&baseline, &budget, TriggerOrder::First)
            .unwrap()
            .outcomes
            .len()
    });
    let par_ms = time_min_ms(reps, || {
        enumerate_outcomes_in(grounder, &budget, TriggerOrder::First, par)
            .unwrap()
            .outcomes
            .len()
    });

    // Monte-Carlo: per-walk RNG streams make the estimates of all three
    // modes bit-identical; assert that before timing them.
    let samples = 100;
    let estimate = |g: &dyn Grounder, exec: Option<&Executor>| {
        let mut mc = MonteCarlo::new(g, 256, 7);
        if let Some(exec) = exec {
            mc = mc.with_executor(exec);
        }
        mc.estimate(samples, |_| true).unwrap()
    };
    let mc_base = estimate(grounder, None);
    assert_eq!(
        mc_base.estimate.mean,
        estimate(&baseline, None).estimate.mean,
        "{name}: reground changed the Monte-Carlo estimate"
    );
    assert_eq!(
        mc_base.estimate.mean,
        estimate(grounder, Some(&par.executor)).estimate.mean,
        "{name}: parallel sampling changed the Monte-Carlo estimate"
    );

    let mc_incremental_ms = time_min_ms(reps, || estimate(grounder, None).samples);
    let mc_reground_ms = time_min_ms(reps, || estimate(&baseline, None).samples);
    let mc_par_ms = time_min_ms(reps, || estimate(grounder, Some(&par.executor)).samples);

    let row = Row {
        name: name.to_owned(),
        grounder: grounder.name(),
        stratified,
        outcomes: incremental.outcomes.len(),
        nodes: incremental.nodes_visited,
        fingerprint: fingerprint(&incremental),
        reground_ms,
        incremental_ms,
        par_ms,
        mc_reground_ms,
        mc_incremental_ms,
        mc_par_ms,
    };
    eprintln!(
        "{name} [{}]: outcomes={} nodes={} enum {reground_ms:.2}ms -> {incremental_ms:.2}ms \
         ({:.2}x) -> par {par_ms:.2}ms ({:.2}x)  mc {mc_reground_ms:.2}ms -> \
         {mc_incremental_ms:.2}ms -> par {mc_par_ms:.2}ms",
        row.grounder,
        row.outcomes,
        row.nodes,
        row.speedup(),
        row.par_speedup(),
    );
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let gate_parallel = args.iter().any(|a| a == "--gate-parallel");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_chase.json".to_owned());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or(4);
    let reps = if full { 5 } else { 3 };
    let par = Ctx::new(Arc::new(Executor::new(threads)));
    let threads = par.executor.threads();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let rows: Vec<Row> = chase_workload_suite(full)
        .iter()
        .map(|w| measure(&w.name, w.grounder.as_ref(), w.stratified, reps, &par))
        .collect();

    // Guard against pipeline-level drift while we are here: the end-to-end
    // result on the paper's Example 3.10 is unchanged by the refactor, and
    // unchanged again when the pipeline itself runs parallel.
    let db = network_database(3, Topology::Clique);
    for pipeline_threads in [1, threads] {
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &db)
            .expect("pipeline")
            .with_executor(Arc::new(Executor::new(pipeline_threads)));
        let space = pipeline.solve().expect("solves");
        assert_eq!(
            space.has_stable_model_probability().to_string(),
            "19/100",
            "Example 3.10 must survive the parallel chase (threads={pipeline_threads})"
        );
    }

    // The acceptance metrics live on the best stratified workload.
    let best = rows
        .iter()
        .filter(|r| r.stratified)
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("a stratified workload exists");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"chase_incremental\",\n");
    json.push_str(&format!(
        "  \"command\": \"{}\",\n",
        std::iter::once("bench_chase")
            .chain(args.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if full { "full" } else { "small" }
    ));
    json.push_str(&format!(
        "  \"threads\": {threads},\n  \"available_parallelism\": {cores},\n"
    ));
    json.push_str(&format!(
        "  \"best_stratified_workload\": \"{}\",\n  \"best_stratified_speedup\": {:.3},\n  \
         \"best_stratified_par_speedup\": {:.3},\n",
        best.name,
        best.speedup(),
        best.par_speedup(),
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"grounder\": \"{}\", \"stratified\": {}, \
             \"outcomes\": {}, \"nodes\": {}, \"fingerprint\": \"{}\", \
             \"reground_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {:.3}, \
             \"par_ms\": {:.3}, \"par_speedup\": {:.3}, \
             \"mc_reground_ms\": {:.3}, \"mc_incremental_ms\": {:.3}, \"mc_speedup\": {:.3}, \
             \"mc_par_ms\": {:.3}, \"mc_par_speedup\": {:.3}}}{}\n",
            r.name,
            r.grounder,
            r.stratified,
            r.outcomes,
            r.nodes,
            r.fingerprint,
            r.reground_ms,
            r.incremental_ms,
            r.speedup(),
            r.par_ms,
            r.par_speedup(),
            r.mc_reground_ms,
            r.mc_incremental_ms,
            r.mc_reground_ms / r.mc_incremental_ms,
            r.mc_par_ms,
            r.mc_incremental_ms / r.mc_par_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write summary");
    eprintln!("wrote {out_path}");
    println!("{json}");

    // The PR 4 acceptance metric (>= 1.5x parallel speedup on at least two
    // workloads at full scale) is reported, not gated: it needs real cores,
    // which shared runners and 1-core containers cannot promise. The CI
    // gate below enforces the regression floor (parallel never slower than
    // sequential incremental) per the thread-matrix satellite.
    let winners = rows.iter().filter(|r| r.par_speedup() >= 1.5).count();
    eprintln!(
        "acceptance: {winners}/{} workloads at >= 1.5x parallel speedup \
         (threads={threads}, cores={cores})",
        rows.len()
    );

    if best.speedup() < 1.0 {
        eprintln!(
            "WARNING: incremental chase slower than full reground on {}",
            best.name
        );
        // Only the full-scale run hard-fails: the ~2x chase margin at small
        // scale is within scheduling noise on shared CI runners, so the
        // smoke run reports but never gates.
        if full {
            std::process::exit(1);
        }
    }

    if best.par_speedup() < 1.0 {
        eprintln!(
            "WARNING: parallel chase ({threads} threads) slower than sequential incremental \
             on {} ({:.2}x)",
            best.name,
            best.par_speedup()
        );
        // The parallel gate is opt-in (CI passes --gate-parallel on runners
        // with real cores); a 1-core machine legitimately cannot win and
        // only warns.
        if gate_parallel && cores >= 2 {
            std::process::exit(1);
        }
        if gate_parallel {
            eprintln!(
                "NOTE: --gate-parallel skipped, only {cores} core(s) available for \
                 {threads} threads"
            );
        }
    }
}
