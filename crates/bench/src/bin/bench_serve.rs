//! Warm-vs-cold benchmark of the resident server with a JSON summary.
//!
//! The tentpole claim of `gdlog serve` is that keeping compiled programs
//! **warm** amortizes parse → validate → translate → ground → solve across
//! queries: a cold query pays the whole pipeline, a warm query answers from
//! the solver's solve-entry cache. This tracker measures exactly that, over
//! the real wire protocol (an in-process server on an ephemeral loopback
//! port, queried through [`gdlog_server::ServeClient`]):
//!
//! * **cold** — per iteration: `RESET` (drops the compiled-program cache),
//!   `OPEN` (recompile), `QUERY` (solve + render). This is what a one-shot
//!   `gdlog run --json` process pays, minus process startup.
//! * **warm** — `OPEN` once, one priming query, then timed `QUERY`s served
//!   from the warm solver.
//!
//! Before anything is timed, the warm response is asserted byte-identical
//! to the cold one — the speedup must not come from answering differently.
//! Workloads are real corpus scenarios queried with their own `%! args:`
//! directives (`coin_farm` runs `--factored`, exercising the product-space
//! path end to end).
//!
//! A **fault leg** follows the healthy measurements: the same warm workload
//! against a server with `netline`'s chaos layer armed — half the
//! connections stall mid-frame and occasionally drop responses outright —
//! queried through a retry-armed client. Every response must still be
//! byte-identical to the healthy one (corruption costs latency, never
//! correctness), and the recorded p50/p99 put a number on that latency
//! cost in `BENCH_serve.json`.
//!
//! Usage: `bench_serve [--threads N] [--out PATH] [--gate-warm]`
//! (defaults: `GDLOG_THREADS` or 1 thread, `BENCH_serve.json` in the
//! current directory). With `--gate-warm` the run exits non-zero unless at
//! least two workloads reach a 5× warm-over-cold throughput floor. The JSON
//! records the command line that wrote it.

use gdlog_core::THREADS_ENV;
use gdlog_server::{RetryPolicy, ServeClient, ServeConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Corpus scenarios replayed as server workloads.
const WORKLOADS: &[&str] = &["network_resilience", "game_chain", "coin_farm"];

const COLD_ITERS: usize = 5;
const WARM_ITERS: usize = 200;

/// The fault leg's chaos spec: **every** connection (reconnects included —
/// there is no healthy connection to escape to) stalls each response
/// mid-frame for 2ms and drops one response in eight, which kills that
/// connection — the retry-armed client reconnects, replays its `OPEN`s and
/// retries the query.
const FAULT_SPEC: &str = "every=1,seed=7,stall=2,drop=8";
const FAULT_WORKLOAD: &str = "network_resilience";
const FAULT_ITERS: usize = 120;

struct Row {
    name: String,
    args: Vec<String>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl Row {
    fn warm_over_cold(&self) -> f64 {
        qps(&self.cold_ms).map_or(0.0, |cold| {
            qps(&self.warm_ms).map_or(0.0, |warm| warm / cold)
        })
    }
}

fn qps(latencies_ms: &[f64]) -> Option<f64> {
    let total: f64 = latencies_ms.iter().sum();
    (total > 0.0).then(|| latencies_ms.len() as f64 / (total / 1e3))
}

/// The given percentile (0–100) of a latency sample, by nearest rank.
fn percentile(latencies_ms: &[f64], p: f64) -> f64 {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn scenario_dir() -> PathBuf {
    // crates/bench/ -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn directive_args(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|l| l.trim().strip_prefix("%!"))
        .filter_map(|rest| rest.trim().strip_prefix("args:"))
        .flat_map(|args| args.split_whitespace().map(str::to_owned))
        .collect()
}

fn measure(client: &mut ServeClient, name: &str) -> Row {
    let path = scenario_dir().join(format!("{name}.gdl"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let label = format!("scenarios/{name}.gdl");
    let args = directive_args(&source);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    // Cold path: drop every compiled program, recompile, solve.
    let mut cold_ms = Vec::with_capacity(COLD_ITERS);
    let mut cold_response = String::new();
    for _ in 0..COLD_ITERS {
        client.reset().expect("RESET");
        let start = Instant::now();
        client.open(&label, &source).expect("OPEN");
        cold_response = client.query(&label, &argv).expect("cold QUERY");
        cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Warm path: the session stays open; prime once, then measure.
    let primed = client.query(&label, &argv).expect("priming QUERY");
    assert_eq!(
        primed, cold_response,
        "{name}: warm response must be byte-identical to cold"
    );
    let mut warm_ms = Vec::with_capacity(WARM_ITERS);
    for _ in 0..WARM_ITERS {
        let start = Instant::now();
        let response = client.query(&label, &argv).expect("warm QUERY");
        warm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        debug_assert_eq!(response, cold_response);
    }

    let row = Row {
        name: name.to_owned(),
        args,
        cold_ms,
        warm_ms,
    };
    eprintln!(
        "{name}: cold p50 {:.2}ms ({:.1} qps) -> warm p50 {:.3}ms ({:.0} qps), {:.1}x",
        percentile(&row.cold_ms, 50.0),
        qps(&row.cold_ms).unwrap_or(0.0),
        percentile(&row.warm_ms, 50.0),
        qps(&row.warm_ms).unwrap_or(0.0),
        row.warm_over_cold(),
    );
    row
}

/// Warm latencies for one workload against a chaos-armed server, through a
/// retry-armed client. Asserts every response byte-identical to `expected`
/// (taken from the healthy server) — the fault leg measures the latency
/// cost of faults, never a correctness discount.
fn measure_under_fault(
    label: &str,
    source: &str,
    argv: &[&str],
    expected: &str,
    threads: usize,
) -> Vec<f64> {
    // Chaos arms via the environment, read once at server startup; set it
    // only around this `start` so nothing else inherits it.
    std::env::set_var(netline::chaos::CHAOS_ENV, FAULT_SPEC);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(threads),
        ..ServeConfig::default()
    };
    let started = gdlog_server::start(&config);
    std::env::remove_var(netline::chaos::CHAOS_ENV);
    let mut server = started.expect("bind chaos server");

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .expect("io timeout");
    client.set_retry_policy(Some(RetryPolicy {
        attempts: 10,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        seed: 5,
    }));
    client.open(label, source).expect("OPEN under fault");
    let primed = client
        .query(label, argv)
        .expect("priming QUERY under fault");
    assert_eq!(
        primed, expected,
        "{label}: fault-leg response must be byte-identical to healthy"
    );
    let mut fault_ms = Vec::with_capacity(FAULT_ITERS);
    for _ in 0..FAULT_ITERS {
        let start = Instant::now();
        let response = client.query(label, argv).expect("QUERY under fault");
        fault_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            response, expected,
            "fault corruption leaked into a response"
        );
    }
    drop(client);
    server.stop();
    fault_ms
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate-warm");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());
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
        .unwrap_or(1);

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(threads),
        ..ServeConfig::default()
    };
    let mut server = gdlog_server::start(&config).expect("bind ephemeral server");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let rows: Vec<Row> = WORKLOADS.iter().map(|w| measure(&mut client, w)).collect();

    // Tail latency under injected transport faults, against the healthy
    // response as the byte-identity reference.
    let fault_ms = {
        let path = scenario_dir().join(format!("{FAULT_WORKLOAD}.gdl"));
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let label = format!("scenarios/{FAULT_WORKLOAD}.gdl");
        let args = directive_args(&source);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let expected = client
            .query(&label, &argv)
            .expect("healthy reference QUERY");
        measure_under_fault(&label, &source, &argv, &expected, threads)
    };
    eprintln!(
        "{FAULT_WORKLOAD} under {FAULT_SPEC}: warm p50 {:.3}ms, p99 {:.3}ms ({:.0} qps)",
        percentile(&fault_ms, 50.0),
        percentile(&fault_ms, 99.0),
        qps(&fault_ms).unwrap_or(0.0),
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"resident_server\",\n");
    json.push_str(&format!(
        "  \"command\": \"{}\",\n",
        std::iter::once("bench_serve")
            .chain(args.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    json.push_str(&format!(
        "  \"threads\": {threads},\n  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(&format!(
        "  \"cold_iters\": {COLD_ITERS},\n  \"warm_iters\": {WARM_ITERS},\n"
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"args\": \"{}\", \
             \"cold_ms_p50\": {:.3}, \"cold_ms_p99\": {:.3}, \"cold_qps\": {:.2}, \
             \"warm_ms_p50\": {:.4}, \"warm_ms_p99\": {:.4}, \"warm_qps\": {:.2}, \
             \"warm_over_cold\": {:.1}}}{}\n",
            r.name,
            r.args.join(" "),
            percentile(&r.cold_ms, 50.0),
            percentile(&r.cold_ms, 99.0),
            qps(&r.cold_ms).unwrap_or(0.0),
            percentile(&r.warm_ms, 50.0),
            percentile(&r.warm_ms, 99.0),
            qps(&r.warm_ms).unwrap_or(0.0),
            r.warm_over_cold(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fault_leg\": {{\"workload\": \"{FAULT_WORKLOAD}\", \"chaos\": \"{FAULT_SPEC}\", \
         \"iters\": {FAULT_ITERS}, \"warm_ms_p50\": {:.4}, \"warm_ms_p99\": {:.4}, \
         \"warm_qps\": {:.2}}}\n",
        percentile(&fault_ms, 50.0),
        percentile(&fault_ms, 99.0),
        qps(&fault_ms).unwrap_or(0.0),
    ));
    json.push_str("}\n");
    drop(client);
    server.stop();

    std::fs::write(&out_path, &json).expect("write summary");
    eprintln!("wrote {out_path}");
    println!("{json}");

    // Acceptance floor: warm must buy at least 5x throughput on at least
    // two workloads (it should buy orders of magnitude; 5x is the gate the
    // PR commits to, robust to noisy CI runners).
    let winners = rows.iter().filter(|r| r.warm_over_cold() >= 5.0).count();
    eprintln!(
        "acceptance: {winners}/{} workloads at >= 5x warm-over-cold throughput",
        rows.len()
    );
    if gate && winners < 2 {
        eprintln!("FAIL: fewer than two workloads reached the 5x warm floor");
        std::process::exit(1);
    }
}
