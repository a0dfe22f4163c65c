//! The closed-loop harness shared by every workload, and the metrics it
//! reports.
//!
//! A workload is set up, then its callers each send their next request only
//! after the previous reply arrived (a closed loop) until the run's time is
//! up. Caller `c` of `n` sends requests `c, c + n, c + 2n, …` of the seeded
//! request stream, so the traced run can send exactly the same requests
//! again, caller by caller.

use crate::stats::{nearest_rank, tail_percentile, Histogram, Tally};
use crate::trace::{Owner, Trace, Tracer};
use crate::{speed, sys};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A checked answer: whether it matched the reference, and a digest of the
/// bytes the user received (compared between untraced and traced runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Did the answer match the workload's reference?
    pub correct: bool,
    /// FNV-1a digest of the response bytes.
    pub digest: u64,
}

/// One workload of the benchmark.
pub trait Workload: Sync {
    /// What set-up builds and every caller shares (pool, solver, server).
    type Env: Sync;
    /// One caller's own state (a connection, or nothing).
    type Caller: Send;
    /// What the traced run builds on top of `Env` to call layers itself.
    type TracedEnv: Sync;

    /// Worker threads of the program's executor.
    fn executor_threads(&self) -> usize;
    /// Concurrent closed-loop callers.
    fn callers(&self) -> usize;
    /// Requests per second per caller the tail percentile is fixed for
    /// (see [`nominal_requests`]). Set at about 60% of the rate at
    /// reference speed when the benchmark was written, so a run reaches
    /// well over ten samples beyond the tail and the tail is steadier.
    fn nominal_rps(&self) -> f64;
    /// How many times set-up runs; `setup_s` is the median.
    fn setup_reps(&self) -> usize;

    /// The program's own set-up before the first request (timed).
    fn setup(&self) -> (Self::Env, Vec<Self::Caller>);
    /// Send request `index` through the user entry point and check it.
    fn request(
        &self,
        env: &Self::Env,
        caller: &mut Self::Caller,
        index: u64,
    ) -> Result<Answer, String>;

    /// Set-up of the traced run, with spans around each layer it calls.
    fn traced_setup(&self, env: &Self::Env, tracer: &mut Tracer) -> Self::TracedEnv;
    /// Request `index` again, calling each layer in turn under a
    /// `request` span.
    fn traced_request(
        &self,
        env: &Self::Env,
        traced: &Self::TracedEnv,
        caller: &mut Self::Caller,
        tracer: &mut Tracer,
        index: u64,
    ) -> Result<Answer, String>;
    /// Readings taken once the traced requests are done (server counters,
    /// transport floor).
    fn traced_finish(&self, _env: &Self::Env, _callers: &mut [Self::Caller], _tracer: &mut Tracer) {
    }
}

/// The workload's fixed request count for a run of `seconds`: its
/// nominal rate times the run length and callers. The tail percentile is
/// chosen for this count, not for the count a run happens to reach, so a
/// faster program is compared at the same percentile.
pub fn nominal_requests<W: Workload>(workload: &W, seconds: f64) -> usize {
    (workload.nominal_rps() * seconds * workload.callers() as f64).round() as usize
}

/// One request the closed loop sent, kept when the traced run needs it.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Position in the request stream.
    pub index: u64,
    /// `None` for a failed request.
    pub answer: Option<Answer>,
    /// The calibration kernel's time (ms) around the request.
    pub kernel_ms: f64,
}

/// What one caller measured.
#[derive(Default)]
struct CallerStats {
    tally: Tally,
    /// Latencies of answered requests, as measured.
    raw: Histogram,
    /// The same latencies at reference machine speed.
    scaled: Histogram,
    /// The kernel time around each answered request.
    kernel: Histogram,
    raw_ms: f64,
    scaled_ms: f64,
    /// CPU time of the calibrations: wall time × kernel threads.
    calibration_cpu: Duration,
    sent: Vec<Sent>,
}

impl CallerStats {
    fn calibrate(&mut self, threads: usize) -> f64 {
        let start = Instant::now();
        let kernel_ms = speed::sample(threads);
        self.calibration_cpu += start.elapsed() * threads as u32;
        kernel_ms
    }

    /// Count the requests sent since the last calibration, at the kernel
    /// time of the calibrations on either side of them.
    fn flush(&mut self, pending: &mut Vec<(u64, f64, Option<Answer>)>, kernel_ms: f64, keep: bool) {
        for (index, ms, answer) in pending.drain(..) {
            self.tally.record(&answer.map(|a| a.correct).ok_or(()));
            let scaled = speed::scaled(ms, kernel_ms);
            self.raw_ms += ms;
            self.scaled_ms += scaled;
            if answer.is_some() {
                self.raw.record(ms);
                self.scaled.record(scaled);
                self.kernel.record(kernel_ms);
            }
            if keep {
                self.sent.push(Sent {
                    index,
                    answer,
                    kernel_ms,
                });
            }
        }
    }
}

/// What a closed loop measured.
pub struct Loop<C> {
    /// Requests counted by outcome.
    pub tally: Tally,
    /// Latencies of answered requests, as measured.
    pub raw: Histogram,
    /// The same latencies at reference machine speed.
    pub scaled: Histogram,
    /// The kernel time around each answered request.
    pub kernel: Histogram,
    /// Correct replies per second of request time at reference speed,
    /// summed over callers. Each caller has one request in flight at a
    /// time, so this leaves out only the calibrations between requests.
    pub throughput: f64,
    /// Scaled over measured request time.
    pub scale: f64,
    /// First send to last reply.
    pub wall_s: f64,
    /// Process CPU time over the same interval.
    pub cpu_s: f64,
    /// CPU time the callers spent in the calibration kernel.
    pub calibration_cpu_s: f64,
    /// Every request, per caller, when the loop was asked to keep them.
    pub sent: Vec<Vec<Sent>>,
    /// The callers, handed back.
    pub callers: Vec<C>,
}

/// How often a caller times the calibration kernel: after any request
/// that ends this long after its last calibration.
const CALIBRATE_EVERY: Duration = Duration::from_millis(25);

/// Which requests each caller sends.
pub enum Schedule {
    /// Its share of the stream, until the time is up.
    For(Duration),
    /// Exactly these requests, per caller.
    Replay(Vec<Vec<u64>>),
}

/// Run one closed-loop caller per element of `callers`, each sending
/// through `send`. Each caller calibrates on `threads` threads (the cores
/// one request keeps busy). With `keep`, every request is kept in
/// [`Loop::sent`].
pub fn closed_loop<C: Send>(
    callers: Vec<C>,
    schedule: &Schedule,
    threads: usize,
    keep: bool,
    send: impl Fn(&mut C, u64) -> Result<Answer, String> + Sync,
) -> Loop<C> {
    let n = callers.len() as u64;
    let cpu_start = sys::cpu_seconds();
    let start = Instant::now();
    let results: Vec<(CallerStats, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, mut caller)| {
                let send = &send;
                scope.spawn(move || {
                    let next = |k: u64| -> Option<u64> {
                        match schedule {
                            Schedule::For(d) => (start.elapsed() < *d).then_some(c as u64 + k * n),
                            Schedule::Replay(lists) => lists[c].get(k as usize).copied(),
                        }
                    };
                    let mut stats = CallerStats::default();
                    let mut pending = Vec::new();
                    let mut before = stats.calibrate(threads);
                    let mut last = Instant::now();
                    let mut k = 0;
                    while let Some(index) = next(k) {
                        let sent = Instant::now();
                        let answer = send(&mut caller, index).ok();
                        pending.push((index, sent.elapsed().as_secs_f64() * 1e3, answer));
                        k += 1;
                        if last.elapsed() >= CALIBRATE_EVERY {
                            let after = stats.calibrate(threads);
                            stats.flush(&mut pending, (before + after) / 2.0, keep);
                            before = after;
                            last = Instant::now();
                        }
                    }
                    if !pending.is_empty() {
                        let after = stats.calibrate(threads);
                        stats.flush(&mut pending, (before + after) / 2.0, keep);
                    }
                    (stats, caller)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_start;
    let mut run = Loop {
        tally: Tally::default(),
        raw: Histogram::default(),
        scaled: Histogram::default(),
        kernel: Histogram::default(),
        throughput: 0.0,
        scale: 1.0,
        wall_s,
        cpu_s,
        calibration_cpu_s: 0.0,
        sent: Vec::new(),
        callers: Vec::new(),
    };
    let (mut raw_ms, mut scaled_ms) = (0.0, 0.0);
    for (stats, caller) in results {
        run.tally.merge(stats.tally);
        run.raw.merge(&stats.raw);
        run.scaled.merge(&stats.scaled);
        run.kernel.merge(&stats.kernel);
        if stats.scaled_ms > 0.0 {
            run.throughput += (stats.tally.succeeded() as f64) * 1e3 / stats.scaled_ms;
        }
        raw_ms += stats.raw_ms;
        scaled_ms += stats.scaled_ms;
        run.calibration_cpu_s += stats.calibration_cpu.as_secs_f64();
        run.sent.push(stats.sent);
        run.callers.push(caller);
    }
    if raw_ms > 0.0 {
        run.scale = scaled_ms / raw_ms;
    }
    run
}

/// A reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_rps", "1/s"),
    ("success_rate", "ratio"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The result line's content.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests counted.
    pub tally: Tally,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Extra run facts for the metadata line, as JSON members.
    pub meta: Vec<(&'static str, String)>,
}

fn number(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |v| v.to_string())
}

/// The untraced run: set up, measure for the run's length, then set up
/// `setup_reps - 1` more times for the set-up median. Times are reported
/// at reference machine speed (see [`speed`]); the metadata keeps them as
/// measured.
pub fn measure<W: Workload>(workload: &W, seconds: f64) -> Outcome {
    // One set-up, timed at reference speed by the calibrations on either
    // side of it; also as measured.
    let timed_setup = || {
        let before = speed::sample(1);
        let start = Instant::now();
        let built = workload.setup();
        let took = start.elapsed().as_secs_f64();
        let after = speed::sample(1);
        (speed::scaled(took, (before + after) / 2.0), took, built)
    };
    let (scaled, took, (env, callers)) = timed_setup();
    let (mut setup_s, mut raw_setup_s) = (vec![scaled], vec![took]);
    let mut run = closed_loop(
        callers,
        &Schedule::For(Duration::from_secs_f64(seconds)),
        workload.executor_threads(),
        false,
        |caller, index| workload.request(&env, caller, index),
    );
    // Read the peak before the remaining set-ups: their allocations and
    // threads would otherwise show in it.
    let peak_rss_mb = sys::peak_rss_mb();
    // Close the connections before the server stops.
    run.callers.clear();
    drop(env);
    for _ in 1..workload.setup_reps() {
        let (scaled, took, built) = timed_setup();
        drop(built);
        setup_s.push(scaled);
        raw_setup_s.push(took);
    }
    let tally = run.tally;
    let nominal = nominal_requests(workload, seconds);
    let tail_p = tail_percentile(nominal);
    let request_cpu_ms =
        (run.cpu_s - run.calibration_cpu_s).max(0.0) * 1e3 / tally.succeeded().max(1) as f64;
    let values = [
        nearest_rank(&setup_s, 50),
        run.scaled.percentile(50),
        run.scaled.percentile(tail_p),
        Some(run.throughput),
        Some(1.0 - tally.error_rate()),
        Some(request_cpu_ms * run.scale),
        Some(peak_rss_mb),
    ];
    Outcome {
        correct: tally.failed() == 0,
        tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name,
                value: value.unwrap_or(0.0),
                unit,
            })
            .collect(),
        meta: vec![
            ("tail_percentile", tail_p.to_string()),
            ("nominal_requests", nominal.to_string()),
            ("requests", tally.attempted.to_string()),
            ("error_rate", tally.error_rate().to_string()),
            ("setup_reps", setup_s.len().to_string()),
            ("kernel_ms_p50", number(run.kernel.percentile(50))),
            ("kernel_reference_ms", speed::REFERENCE_MS.to_string()),
            ("measured_setup_s", number(nearest_rank(&raw_setup_s, 50))),
            ("measured_latency_ms_p50", number(run.raw.percentile(50))),
            (
                "measured_latency_ms_tail",
                number(run.raw.percentile(tail_p)),
            ),
            (
                "measured_throughput_rps",
                (tally.succeeded() as f64 / run.wall_s).to_string(),
            ),
            ("measured_cpu_ms_per_request", request_cpu_ms.to_string()),
        ],
    }
}

/// Where a per-layer metric comes from.
enum Source {
    /// Median wall time of the spans with this name.
    Span(&'static str),
    /// Median of this counter's readings.
    Counter(&'static str),
}

/// The per-layer metrics, in `BENCHMARK.json` order (the two `trace.*`
/// metrics follow them).
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("translate.ms", "ms", Source::Span("translate")),
    ("parser.ms", "ms", Source::Span("parser")),
    ("chase.ms", "ms", Source::Span("chase")),
    ("chase.nodes", "count", Source::Counter("chase.nodes")),
    ("chase.outcomes", "count", Source::Counter("chase.outcomes")),
    (
        "chase.nodes_per_ms",
        "1/ms",
        Source::Counter("chase.nodes_per_ms"),
    ),
    ("stable.ms", "ms", Source::Span("stable")),
    (
        "stable.programs",
        "count",
        Source::Counter("stable.programs"),
    ),
    (
        "stable.memo_hit_ratio",
        "ratio",
        Source::Counter("stable.memo_hit_ratio"),
    ),
    ("stable.events", "count", Source::Counter("stable.events")),
    ("wellfounded.ms", "ms", Source::Span("wellfounded")),
    (
        "wellfounded.total_ratio",
        "ratio",
        Source::Counter("wellfounded.total_ratio"),
    ),
    ("factor.ms", "ms", Source::Span("factor")),
    (
        "factor.components",
        "count",
        Source::Counter("factor.components"),
    ),
    ("factor.solve_ms", "ms", Source::Span("factor.solve")),
    ("answer.ms", "ms", Source::Span("answer")),
    ("answer.topk_ms", "ms", Source::Span("topk")),
    ("json.ms", "ms", Source::Span("json")),
    ("json.bytes", "bytes", Source::Counter("json.bytes")),
    ("mc.ms", "ms", Source::Span("mc")),
    (
        "mc.walks_per_ms",
        "1/ms",
        Source::Counter("mc.walks_per_ms"),
    ),
    (
        "mc.abandoned_ratio",
        "ratio",
        Source::Counter("mc.abandoned_ratio"),
    ),
    ("server.ping_ms_p50", "ms", Source::Span("ping")),
    (
        "server.overhead_ms_p50",
        "ms",
        Source::Counter("server.overhead_ms"),
    ),
    (
        "server.rejected",
        "count",
        Source::Counter("server.rejected"),
    ),
    (
        "server.abandoned",
        "count",
        Source::Counter("server.abandoned"),
    ),
];

/// Every per-layer metric name and unit, in `BENCHMARK.json` order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit))
        .chain([
            ("trace.overhead_ratio", "ratio"),
            ("trace.coverage", "ratio"),
        ])
        .collect()
}

/// The traced run: set up once, send half the run's length untraced, then
/// send exactly those requests again through the traced path. Fails if any
/// traced answer differs from its untraced twin.
pub fn trace<W: Workload>(workload: &W, seconds: f64) -> (Outcome, Trace) {
    let (env, callers) = workload.setup();
    let untraced = closed_loop(
        callers,
        &Schedule::For(Duration::from_secs_f64(seconds / 2.0)),
        workload.executor_threads(),
        true,
        |caller, index| workload.request(&env, caller, index),
    );
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch);
    let traced_env = workload.traced_setup(&env, &mut setup_tracer);
    let replay = Schedule::Replay(
        untraced
            .sent
            .iter()
            .map(|sent| sent.iter().map(|s| s.index).collect())
            .collect(),
    );
    let callers: Vec<(W::Caller, Tracer)> = untraced
        .callers
        .into_iter()
        .map(|c| (c, Tracer::new(epoch)))
        .collect();
    let threads = workload.executor_threads();
    let traced = closed_loop(
        callers,
        &replay,
        threads,
        true,
        |(caller, tracer), index| {
            tracer.set_owner(Owner::Request(index));
            workload.traced_request(&env, &traced_env, caller, tracer, index)
        },
    );
    let mut tally = traced.tally;
    let mismatched = untraced
        .sent
        .iter()
        .flatten()
        .zip(traced.sent.iter().flatten())
        .filter(|(u, t)| u.answer != t.answer)
        .count();
    tally.wrong += mismatched;

    let mut trace = Trace::default();
    trace.absorb(setup_tracer);
    let mut callers: Vec<W::Caller> = Vec::new();
    for (caller, tracer) in traced.callers {
        trace.absorb(tracer);
        callers.push(caller);
    }
    let mut finish_tracer = Tracer::new(epoch);
    workload.traced_finish(&env, &mut callers, &mut finish_tracer);
    trace.absorb(finish_tracer);

    let median = |v: Vec<f64>| nearest_rank(&v, 50).unwrap_or(0.0);
    // Layer times and rates at reference speed, by the traced requests'
    // overall factor.
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, ref source)| {
            let value = match source {
                Source::Span(span) => median(trace.durations_ms(span)),
                Source::Counter(counter) => median(trace.counter(counter)),
            };
            let value = match unit {
                "ms" => value * traced.scale,
                "1/ms" => value / traced.scale,
                _ => value,
            };
            Metric { name, unit, value }
        })
        .collect();
    // Both sides at reference speed, so a change of machine speed between
    // the two halves does not show as tracing overhead.
    let untraced_p50 = untraced.scaled.percentile(50).unwrap_or(0.0);
    let kernel: HashMap<u64, f64> = traced
        .sent
        .iter()
        .flatten()
        .map(|s| (s.index, s.kernel_ms))
        .collect();
    let traced_p50 = median(
        trace
            .request_ms()
            .into_iter()
            .filter_map(|(index, ms)| Some(speed::scaled(ms, *kernel.get(&index)?)))
            .collect(),
    );
    metrics.push(Metric {
        name: "trace.overhead_ratio",
        value: if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50 - 1.0
        } else {
            0.0
        },
        unit: "ratio",
    });
    metrics.push(Metric {
        name: "trace.coverage",
        value: median(trace.coverage()),
        unit: "ratio",
    });
    // Close the connections before the server stops.
    drop(callers);
    drop(traced_env);
    drop(env);
    let outcome = Outcome {
        correct: tally.failed() == 0,
        tally,
        metrics,
        meta: vec![
            ("requests", tally.attempted.to_string()),
            ("mismatched_answers", mismatched.to_string()),
            ("untraced_p50_ms", untraced_p50.to_string()),
            ("traced_request_p50_ms", traced_p50.to_string()),
            ("kernel_reference_ms", speed::REFERENCE_MS.to_string()),
        ],
    };
    (outcome, trace)
}
