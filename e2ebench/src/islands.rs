//! `islands_factored`: a cold one-shot factored solve of 30 independent
//! epidemic chains per request.

use crate::harness::{Answer, Workload};
use crate::respond::{self, Solved};
use crate::stats::{fnv1a, SplitMix};
use crate::trace::Tracer;
use gdlog_bench::workloads::epidemic_copies;
use gdlog_core::api::{QueryReport, QueryRequest, QueryResponse, SolveStrategy, Solver};
use gdlog_core::{Executor, FactoredSolve, Pipeline, Program, SigmaPi};
use gdlog_data::{Const, Database, GroundAtom};
use gdlog_prob::Prob;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Independent copies of the epidemic chain (3 outcomes each).
const COPIES: i64 = 30;
/// People per copy; copy `c` holds persons `10c + 1 ..= 10c + 3`.
const PEOPLE: i64 = 3;
/// Events listed per response.
const TOP: usize = 8;

fn healthy(person: i64) -> GroundAtom {
    GroundAtom::make("Healthy", vec![Const::Int(person)])
}

/// The queried and the conditioning person of request `index`.
fn draw(seed: u64, index: u64) -> (i64, i64) {
    let mut rng = SplitMix::for_request(seed, index);
    let mut person = || {
        let copy = rng.below(COPIES as usize) as i64;
        10 * copy + 1 + rng.below(PEOPLE as usize) as i64
    };
    (person(), person())
}

/// Exact answers for the product, built from one copy solved flat.
struct Reference {
    copy: FactoredSolve,
    copy_events: u128,
    top_masses: Vec<Prob>,
    marginals: Vec<(String, Prob, Prob)>,
}

impl Reference {
    fn compute() -> Reference {
        let (program, db) = epidemic_copies(1);
        let space = Pipeline::new(&program, &db)
            .and_then(|p| p.solve())
            .expect("one epidemic copy solves flat");
        assert!(space.residual_mass().is_zero());
        let copy_events = space.event_count() as u128;
        let mut copy_masses: Vec<Prob> =
            space.events_by_mass().into_iter().map(|(_, m)| m).collect();
        copy_masses.sort_by(|a, b| b.total_cmp(a));
        // The k largest products of one mass per copy: a top-k product's
        // prefix is always among the top k of the prefixes, so pruning to
        // k after each copy is exact.
        let mut top_masses = vec![Prob::ONE];
        for _ in 0..COPIES {
            let mut next: Vec<Prob> = top_masses
                .iter()
                .flat_map(|t| copy_masses.iter().map(move |m| t.mul(m)))
                .collect();
            next.sort_by(|a, b| b.total_cmp(a));
            next.truncate(TOP);
            top_masses = next;
        }
        let copy = FactoredSolve::Flat(space);
        let marginals = copy
            .atoms_with_predicate("Healthy")
            .into_iter()
            .flat_map(|atom| {
                let person = match atom.args.first() {
                    Some(Const::Int(p)) => *p,
                    _ => panic!("Healthy takes a person id"),
                };
                (0..COPIES).map(move |c| (healthy(10 * c + person), person))
            })
            .collect::<BTreeSet<(GroundAtom, i64)>>()
            .into_iter()
            .map(|(atom, person)| {
                let local = healthy(person);
                (
                    atom.to_string(),
                    copy.brave_probability(&local),
                    copy.cautious_probability(&local),
                )
            })
            .collect();
        Reference {
            copy,
            copy_events,
            top_masses,
            marginals,
        }
    }

    /// Does `response` to the request on persons `(a, b)` match?
    fn matches(&self, response: &QueryResponse, a: i64, b: i64) -> bool {
        let local = |p: i64| healthy((p - 1) % 10 + 1);
        let (la, lb) = (local(a), local(b));
        let brave = self.copy.brave_probability(&la);
        let cautious = self.copy.cautious_probability(&la);
        let (brave_given, cautious_given) = if a / 10 == b / 10 {
            let pair = [la.clone(), lb.clone()];
            let given = std::slice::from_ref(&lb);
            (
                self.copy
                    .probability_brave_all(&pair)
                    .div(&self.copy.probability_brave_all(given)),
                self.copy
                    .probability_cautious_all(&pair)
                    .div(&self.copy.probability_cautious_all(given)),
            )
        } else {
            let brave_b = self.copy.brave_probability(&lb);
            let cautious_b = self.copy.cautious_probability(&lb);
            (
                brave.mul(&brave_b).div(&brave_b),
                cautious.mul(&cautious_b).div(&cautious_b),
            )
        };
        let query_ok = |q: &QueryReport| {
            q.atom == healthy(a).to_string()
                && q.brave == brave
                && q.cautious == cautious
                && q.brave_given == brave_given
                && q.cautious_given == cautious_given
        };
        let marginals: Vec<(String, Prob, Prob)> = response
            .marginals
            .iter()
            .map(|m| (m.atom.clone(), m.brave, m.cautious))
            .collect();
        let masses: Vec<Prob> = response.top_events.iter().map(|e| e.mass).collect();
        response.p_stable == Prob::ONE
            && response.residual_mass.is_zero()
            && response.explored_mass == Prob::ONE
            && response.outcomes == 3u128.pow(COPIES as u32)
            && response.events == self.copy_events.pow(COPIES as u32)
            && response.factors == COPIES as usize
            && response.queries.len() == 1
            && query_ok(&response.queries[0])
            && response.given == Some(healthy(b).to_string())
            && marginals == self.marginals
            && masses == self.top_masses
    }
}

/// `islands_factored`: see the module docs.
pub struct Islands {
    seed: u64,
    reference: Reference,
}

impl Islands {
    /// The workload for `seed`, with its reference computed.
    pub fn new(seed: u64) -> Self {
        Islands {
            seed,
            reference: Reference::compute(),
        }
    }

    fn request_for(&self, index: u64) -> (i64, i64, QueryRequest) {
        let (a, b) = draw(self.seed, index);
        let request = QueryRequest::new()
            .with_strategy(SolveStrategy::Factored)
            .query(healthy(a))
            .given(healthy(b))
            .marginal("Healthy")
            .top(TOP);
        (a, b, request)
    }
}

/// What `islands_factored` sets up: the executor and the inputs.
pub struct IslandsEnv {
    executor: Arc<Executor>,
    program: Program,
    db: Database,
}

impl Workload for Islands {
    type Env = IslandsEnv;
    type Caller = ();
    type TracedEnv = ();

    fn executor_threads(&self) -> usize {
        1
    }

    fn callers(&self) -> usize {
        1
    }

    fn nominal_rps(&self) -> f64 {
        5.0
    }

    fn setup_reps(&self) -> usize {
        51
    }

    fn setup(&self) -> (IslandsEnv, Vec<()>) {
        let (program, db) = epidemic_copies(COPIES as usize);
        let env = IslandsEnv {
            executor: Arc::new(Executor::new(self.executor_threads())),
            program,
            db,
        };
        (env, vec![()])
    }

    fn request(&self, env: &IslandsEnv, _: &mut (), index: u64) -> Result<Answer, String> {
        let (a, b, request) = self.request_for(index);
        let solver = Solver::compile("islands", &env.program, &env.db, Arc::clone(&env.executor))
            .map_err(|e| e.to_string())?;
        let response = solver.query(&request).map_err(|e| e.to_string())?;
        let json = response.render_json();
        Ok(Answer {
            correct: self.reference.matches(&response, a, b),
            digest: fnv1a(json.as_bytes()),
        })
    }

    fn traced_setup(&self, _: &IslandsEnv, _: &mut Tracer) {}

    fn traced_request(
        &self,
        env: &IslandsEnv,
        _: &(),
        _: &mut (),
        tracer: &mut Tracer,
        index: u64,
    ) -> Result<Answer, String> {
        let (a, b, request) = self.request_for(index);
        let (pipeline, response, json) = tracer.span("request", |t| {
            let sigma = t
                .span("translate", |_| SigmaPi::translate(&env.program, &env.db))
                .map_err(|e| e.to_string())?;
            let stratified = env.program.has_stratified_negation();
            let pipeline = respond::pipeline(sigma, stratified, &request, &env.executor)?;
            let (solve, verdict) = t
                .span("factor.solve", |_| pipeline.solve_factored_with_analysis())
                .map_err(|e| e.to_string())?;
            let solved = Solved {
                source: "islands".to_owned(),
                rules: env.program.len(),
                facts: env.db.len(),
                threads: env.executor.threads(),
                solve,
                analysis: verdict.label(),
                nodes_visited: 0,
                stats: pipeline.stable_cache_stats(),
            };
            let response = respond::answer(t, &solved, &request, Vec::new());
            let json = respond::render(t, &response);
            Ok::<_, String>((pipeline, response, json))
        })?;
        // The analysis alone, outside the request span (the factored solve
        // above runs it too, inside its one span).
        let (components, _) = tracer
            .span("factor", |_| pipeline.factor_analysis())
            .map_err(|e| e.to_string())?;
        tracer.count(
            "factor.components",
            components.map_or(1, |c| c.len()) as f64,
        );
        Ok(Answer {
            correct: self.reference.matches(&response, a, b),
            digest: fnv1a(json.as_bytes()),
        })
    }
}
