//! `serve_warm`: warm exact reads over the wire from a resident server
//! holding the whole scenario corpus.

use crate::harness::{Answer, Workload};
use crate::stats::{fnv1a, SplitMix};
use crate::trace::Tracer;
use gdlog_core::api::Solver;
use gdlog_core::Executor;
use gdlog_server::{compile_source, parse_query_flags, RunningServer, ServeClient, ServeConfig};
use std::sync::Arc;

macro_rules! scenario {
    ($name:literal, $weight:literal) => {
        (
            $name,
            include_str!(concat!("../../scenarios/", $name, ".gdl")),
            include_str!(concat!("../../scenarios/golden/", $name, ".json")),
            $weight,
        )
    };
}

/// The corpus: name, source, golden response to the scenario's own `%!
/// args:`, and the scenario's weight (in percent) in the request mix.
///
/// Each scenario is a request class with its own warm latency. Measured
/// alone with two callers on a 2-core VM, class medians were: coin 0.03 ms;
/// geometric_walk, game_coin and epidemic 0.05 ms; cascade 0.08 ms;
/// dime_quarter 0.10 ms; monty_hall 0.14 ms; game_chain and
/// leader_election 0.18 ms; coin_farm 0.26 ms; network_resilience 0.57 ms.
/// The weights put the median in the middle of the cascade class (35% of
/// requests are faster, 35% slower) and the p99 in the middle of the
/// network_resilience class (the slowest 2%), so neither falls on the
/// boundary between two classes, where a small shift in the mix would move
/// it from one class to the next.
const CORPUS: &[(&str, &str, &str, u32)] = &[
    scenario!("cascade", 30),
    scenario!("coin", 10),
    scenario!("coin_farm", 5),
    scenario!("dime_quarter", 8),
    scenario!("epidemic", 9),
    scenario!("game_chain", 7),
    scenario!("game_coin", 8),
    scenario!("geometric_walk", 8),
    scenario!("leader_election", 6),
    scenario!("monty_hall", 7),
    scenario!("network_resilience", 2),
];

/// At most this many atoms are candidates for each `--query` slot.
const POOL: usize = 4;
/// Pings timed for the transport floor.
const PINGS: usize = 200;
/// Flags (each taking a value) that ask for Monte-Carlo estimates.
const MC_FLAGS: &[&str] = &["--mc", "--seed", "--max-triggers"];

/// One argument of a request template: fixed, or the `i`-th `--query` atom.
enum Arg {
    Fixed(String),
    Slot(usize),
}

/// A scenario's directive args without the Monte-Carlo flags, with each
/// `--query` atom turned into a slot; and the atoms the slots held.
fn template(directive: &[String]) -> (Vec<Arg>, Vec<String>) {
    let mut args = Vec::new();
    let mut queried = Vec::new();
    let mut it = directive.iter();
    while let Some(arg) = it.next() {
        if MC_FLAGS.contains(&arg.as_str()) {
            it.next();
        } else if arg == "--query" {
            args.push(Arg::Fixed(arg.clone()));
            args.push(Arg::Slot(queried.len()));
            queried.push(it.next().expect("--query takes an atom").clone());
        } else {
            args.push(Arg::Fixed(arg.clone()));
        }
    }
    (args, queried)
}

/// Fill a template's slots: slot `i` takes digit `i` of `variant` written
/// in base `pool.len()`.
fn fill(args: &[Arg], pool: &[String], variant: usize) -> Vec<String> {
    args.iter()
        .map(|arg| match arg {
            Arg::Fixed(a) => a.clone(),
            Arg::Slot(i) => pool[variant / pool.len().pow(*i as u32) % pool.len()].clone(),
        })
        .collect()
}

/// The `%! args:` directives of a scenario source.
fn directive_args(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|l| l.trim().strip_prefix("%!"))
        .filter_map(|rest| rest.trim().strip_prefix("args:"))
        .flat_map(|args| args.split_whitespace().map(str::to_owned))
        .collect()
}

/// The response JSON of `argv` from an in-process solver.
fn in_process(solver: &Solver, argv: &[String]) -> Result<String, String> {
    let (flags, _) = parse_query_flags(argv)?;
    let request = flags.to_request()?;
    solver
        .query(&request)
        .map(|r| r.render_json())
        .map_err(|e| e.to_string())
}

fn compile(label: &str, source: &str) -> Arc<Solver> {
    compile_source(label, source, Arc::new(Executor::sequential()))
        .unwrap_or_else(|e| panic!("{label} compiles: {e}"))
        .0
}

/// One scenario's requests: its directive args without the Monte-Carlo
/// flags, each `--query` atom drawn from the scenario's own atoms.
struct Class {
    label: String,
    source: &'static str,
    args: Vec<Arg>,
    pool: Vec<String>,
    weight: u32,
    /// The in-process response to each variant; `None` for the scenario's
    /// unmodified args when that response differs from its golden.
    expected: Vec<Option<String>>,
}

impl Class {
    /// Build the class and its reference responses in process.
    fn build(name: &str, source: &'static str, golden: &str, weight: u32) -> Class {
        let label = format!("scenarios/{name}.gdl");
        let directive = directive_args(source);
        let solver = compile(&label, source);
        let (args, queried) = template(&directive);
        // The scenario's own atoms: its queried atoms first, then atoms of
        // their predicates that hold in some stable model.
        let mut pool: Vec<String> = Vec::new();
        for atom in &queried {
            if !pool.contains(atom) {
                pool.push(atom.clone());
            }
        }
        let mut probe = fill(&args, &queried, 0);
        for atom in &queried {
            let predicate = atom.split('(').next().unwrap_or(atom);
            probe.extend(["--marginal".to_owned(), predicate.to_owned()]);
        }
        let marginals = in_process(&solver, &probe).expect("marginal query succeeds");
        for line in marginals.lines() {
            if let Some(atom) = line.trim().strip_prefix("\"atom\": \"") {
                let atom = atom.trim_end_matches(['"', ',']).replace(' ', "");
                if pool.len() < POOL && !pool.contains(&atom) {
                    pool.push(atom);
                }
            }
        }
        let golden_ok = in_process(&solver, &directive).is_ok_and(|json| json == golden);
        let variants = pool.len().pow(queried.len() as u32);
        let expected = (0..variants)
            .map(|v| {
                let argv = fill(&args, &pool, v);
                let unmodified = argv == directive;
                in_process(&solver, &argv)
                    .ok()
                    .filter(|_| golden_ok || !unmodified)
            })
            .collect();
        Class {
            label,
            source,
            args,
            pool,
            weight,
            expected,
        }
    }
}

/// `serve_warm`: see the module docs.
pub struct ServeWarm {
    seed: u64,
    classes: Vec<Class>,
    total_weight: u32,
}

/// The running server `serve_warm` set up.
pub struct ServeEnv {
    /// Kept for the run; dropping it stops the server and joins its
    /// threads.
    _server: RunningServer,
}

/// The traced run's in-process solvers, one per scenario.
pub struct TracedServe {
    solvers: Vec<Arc<Solver>>,
}

impl ServeWarm {
    /// The workload for `seed`, with every reference response computed.
    pub fn new(seed: u64) -> Self {
        let classes: Vec<Class> = CORPUS
            .iter()
            .map(|&(name, source, golden, weight)| Class::build(name, source, golden, weight))
            .collect();
        let total_weight = classes.iter().map(|c| c.weight).sum();
        ServeWarm {
            seed,
            classes,
            total_weight,
        }
    }

    /// The scenario and variant of request `index`.
    fn draw(&self, index: u64) -> (usize, usize) {
        let mut rng = SplitMix::for_request(self.seed, index);
        let mut ticket = rng.below(self.total_weight as usize) as u32;
        let class = self
            .classes
            .iter()
            .position(|c| {
                let hit = ticket < c.weight;
                ticket = ticket.saturating_sub(c.weight);
                hit
            })
            .expect("ticket below the total weight");
        (class, rng.below(self.classes[class].expected.len()))
    }

    fn check(&self, class: usize, variant: usize, json: &str) -> Answer {
        Answer {
            correct: self.classes[class].expected[variant].as_deref() == Some(json),
            digest: fnv1a(json.as_bytes()),
        }
    }

    fn send(
        &self,
        client: &mut ServeClient,
        class: usize,
        variant: usize,
    ) -> Result<String, String> {
        let c = &self.classes[class];
        let argv = fill(&c.args, &c.pool, variant);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        client.query(&c.label, &argv).map_err(|e| e.to_string())
    }
}

/// A `"key": N` member of the server's STATS body.
fn stat(body: &str, key: &str) -> f64 {
    body.split_once(&format!("\"{key}\": "))
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

impl Workload for ServeWarm {
    type Env = ServeEnv;
    type Caller = ServeClient;
    type TracedEnv = TracedServe;

    fn executor_threads(&self) -> usize {
        1
    }

    fn callers(&self) -> usize {
        2
    }

    fn nominal_rps(&self) -> f64 {
        5000.0
    }

    fn setup_reps(&self) -> usize {
        9
    }

    fn setup(&self) -> (ServeEnv, Vec<ServeClient>) {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: Some(self.executor_threads()),
            ..ServeConfig::default()
        };
        let server = gdlog_server::start(&config).expect("bind a loopback port");
        let mut clients: Vec<ServeClient> = (0..self.callers())
            .map(|_| ServeClient::connect(server.local_addr()).expect("connect"))
            .collect();
        for client in &mut clients {
            for class in &self.classes {
                client.open(&class.label, class.source).expect("OPEN");
            }
        }
        // One query per scenario solves its (only) solve configuration;
        // every later request reads the cached solve.
        for class in 0..self.classes.len() {
            self.send(&mut clients[0], class, 0).expect("priming QUERY");
        }
        (ServeEnv { _server: server }, clients)
    }

    fn request(
        &self,
        _: &ServeEnv,
        client: &mut ServeClient,
        index: u64,
    ) -> Result<Answer, String> {
        let (class, variant) = self.draw(index);
        let json = self.send(client, class, variant)?;
        Ok(self.check(class, variant, &json))
    }

    fn traced_setup(&self, _: &ServeEnv, tracer: &mut Tracer) -> TracedServe {
        let solvers = self
            .classes
            .iter()
            .map(|class| {
                let executor = Arc::new(Executor::new(self.executor_threads()));
                let solver = tracer
                    .span("parser", |_| {
                        compile_source(&class.label, class.source, executor)
                    })
                    .unwrap_or_else(|e| panic!("{} compiles: {e}", class.label))
                    .0;
                in_process(&solver, &fill(&class.args, &class.pool, 0)).expect("priming query");
                solver
            })
            .collect();
        TracedServe { solvers }
    }

    fn traced_request(
        &self,
        _: &ServeEnv,
        traced: &TracedServe,
        client: &mut ServeClient,
        tracer: &mut Tracer,
        index: u64,
    ) -> Result<Answer, String> {
        let (class, variant) = self.draw(index);
        let json = tracer.span("request", |t| {
            t.span("server", |_| self.send(client, class, variant))
        })?;
        let wire_ms = tracer.last_ms();
        // The same request in process, outside the request span: the wire
        // latency minus this is what transport and session cost.
        let c = &self.classes[class];
        let argv = fill(&c.args, &c.pool, variant);
        let (flags, _) = parse_query_flags(&argv)?;
        let request = flags.to_request()?;
        let response = tracer
            .span("answer", |_| traced.solvers[class].query(&request))
            .map_err(|e| e.to_string())?;
        let answer_ms = tracer.last_ms();
        let local = tracer.span("json", |_| response.render_json());
        let json_ms = tracer.last_ms();
        tracer.count("json.bytes", local.len() as f64);
        tracer.count("server.overhead_ms", wire_ms - answer_ms - json_ms);
        let mut answer = self.check(class, variant, &json);
        answer.correct &= local == json;
        Ok(answer)
    }

    fn traced_finish(&self, _: &ServeEnv, clients: &mut [ServeClient], tracer: &mut Tracer) {
        let client = &mut clients[0];
        for _ in 0..PINGS {
            let _ = tracer.span("ping", |_| client.ping());
        }
        if let Ok(body) = client.stats() {
            tracer.count("server.rejected", stat(&body, "rejected"));
            tracer.count("server.abandoned", stat(&body, "abandoned"));
        }
    }
}
