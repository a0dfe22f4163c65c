//! The [`Solver`]: a warm compiled program answering unified queries.
//!
//! A `Solver` is what "parse / stratify / ground once, query many" compiles
//! down to: the program is translated to `Σ_Π[D]` exactly once
//! ([`SigmaPi::translate`]), and every [`QueryRequest`] dispatched at it is
//! served from a **solve-entry cache** keyed by the request's
//! [`SolveKey`] — the first query with a given solve configuration runs the
//! chase and the stable-model search; every later query with the same
//! configuration (same grounder, strategy, budget, order, limits) answers
//! from the already-solved output space in microseconds. This is the warm
//! path the resident server multiplexes sessions onto.
//!
//! Determinism contract: a warm response is **byte-identical** to the cold
//! one. Each solve entry runs on a fresh pipeline, and the response's
//! `stable_cache` counters are the snapshot taken when the entry was solved —
//! exactly what a one-shot CLI process reports — so replaying a query against
//! a warm solver cannot observe the serving process's history.
//!
//! Strategy dispatch: [`SolveStrategy::Auto`] picks flat vs factored via the
//! PR-8 *static* analysis alone — a positive `min_path_probability` or the
//! [`certainly_single_trigger`] certificate proves the flat path; otherwise
//! the factored path runs, whose own dynamic analysis still falls back to
//! flat byte-for-byte when the program does not factor.

use crate::analyze::certainly_single_trigger;
use crate::api::request::{McRequest, QueryRequest, SolveKey, SolveStrategy};
use crate::api::response::{EventReport, McReport, QueryReport, QueryResponse};
use crate::chase::ChaseBudget;
use crate::error::CoreError;
use crate::exec::Executor;
use crate::factor::FactoredSolve;
use crate::mc::MonteCarlo;
use crate::pipeline::{McParams, ModelCacheStats, Pipeline};
use crate::program::Program;
use crate::translate::SigmaPi;
use gdlog_data::Database;
use gdlog_engine::CancelToken;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// One solved output space plus the bookkeeping a response reports about
/// its solve. Shared by every query whose [`SolveKey`] matches.
struct SolveEntry {
    solve: FactoredSolve,
    nodes_visited: usize,
    analysis: &'static str,
    stats: ModelCacheStats,
}

/// A compiled program serving [`QueryRequest`]s warm. See the module docs.
pub struct Solver {
    source: String,
    rules: usize,
    facts: usize,
    sigma: Arc<SigmaPi>,
    stratified: bool,
    executor: Arc<Executor>,
    /// Solve-entry cache. A `Vec` scanned linearly: [`ChaseBudget`] carries
    /// an `f64`, so [`SolveKey`] is `PartialEq`-only, and the distinct solve
    /// configurations per program are few. The lock is held across a solve
    /// on purpose — two sessions racing the same configuration must produce
    /// one entry (one set of stats), not two.
    solves: Mutex<Vec<(SolveKey, Arc<SolveEntry>)>>,
}

impl Solver {
    /// Compile `program` on `facts` under a source label (reported verbatim
    /// in responses). Translation runs here, once; grounding and solving run
    /// lazily per solve configuration.
    pub fn compile(
        source: impl Into<String>,
        program: &Program,
        facts: &Database,
        executor: Arc<Executor>,
    ) -> Result<Self, CoreError> {
        let sigma = Arc::new(SigmaPi::translate(program, facts)?);
        Ok(Solver {
            source: source.into(),
            rules: program.len(),
            facts: facts.len(),
            stratified: program.has_stratified_negation(),
            sigma,
            executor,
            solves: Mutex::new(Vec::new()),
        })
    }

    /// The source label given at compile time.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of program rules (after constraint desugaring).
    pub fn rules(&self) -> usize {
        self.rules
    }

    /// Number of ground facts in the input database.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// The translated program (shared by every solve entry).
    pub fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    /// Number of cached solve entries (distinct solve configurations run).
    pub fn warm_solves(&self) -> usize {
        self.solves.lock().len()
    }

    /// Answer one request. The solve is served from the entry cache when a
    /// query with the same solve configuration ran before; the answers
    /// (queries, marginals, top-K, Monte-Carlo) are computed per call.
    ///
    /// When `request.timeout_ms` is set, a deadline is armed around the call:
    /// a chase cut by it returns a graceful partial response (marked
    /// `interrupted`, with exact residual mass); exact-or-nothing phases
    /// surface [`CoreError::Interrupted`].
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, CoreError> {
        match request.timeout_ms {
            None => self.query_until(request, &CancelToken::never()),
            Some(ms) => {
                let cancel = CancelToken::new();
                let _guard = cancel.cancel_after(Duration::from_millis(ms));
                self.query_until(request, &cancel)
            }
        }
    }

    /// [`Solver::query`] against a caller-owned cancellation token.
    /// `request.timeout_ms` is ignored here — whoever owns the token owns
    /// the deadline.
    fn query_until(
        &self,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<QueryResponse, CoreError> {
        if request.mc.is_some() && request.queries.is_empty() {
            return Err(CoreError::Request(
                "`--mc` requires at least one `--query` atom".into(),
            ));
        }
        let entry = self.entry(request, cancel)?;
        self.answer(&entry, request, cancel)
    }

    /// Get or compute the solve entry for a request's configuration.
    fn entry(
        &self,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<Arc<SolveEntry>, CoreError> {
        let key = request.solve_key();
        let mut solves = self.solves.lock();
        if let Some((_, entry)) = solves.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(entry));
        }
        // Fresh pipeline per entry: see the determinism contract in the
        // module docs.
        let pipeline =
            Pipeline::from_sigma(Arc::clone(&self.sigma), self.stratified, key.grounder)?
                .budget(key.budget)
                .trigger_order(key.order)
                .stable_limits(key.limits)
                .with_executor(Arc::clone(&self.executor))
                .with_cancel(cancel.clone());
        let (solve, nodes_visited, analysis) =
            match resolve_strategy(key.strategy, &self.sigma, &key.budget) {
                SolveStrategy::Factored => {
                    let (solve, verdict) = pipeline.solve_factored_with_analysis()?;
                    (solve, 0, verdict.label())
                }
                _ => {
                    let chase = pipeline.chase()?;
                    let nodes_visited = chase.nodes_visited;
                    let space = pipeline.space_from_chase(chase)?;
                    (FactoredSolve::Flat(space), nodes_visited, "flat")
                }
            };
        let entry = Arc::new(SolveEntry {
            stats: pipeline.stable_cache_stats(),
            solve,
            nodes_visited,
            analysis,
        });
        // Interrupted solves are timing-dependent partial results; caching
        // one would serve a deadline-shaped answer to later queries with no
        // deadline at all (and break warm == cold byte-identity).
        if !entry.solve.is_interrupted() {
            solves.push((key, Arc::clone(&entry)));
        }
        Ok(entry)
    }

    /// Build the response for a request from a solve entry.
    fn answer(
        &self,
        entry: &SolveEntry,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<QueryResponse, CoreError> {
        let solve = &entry.solve;
        let mut queries = Vec::with_capacity(request.queries.len());
        for atom in &request.queries {
            let brave = solve.brave_probability(atom);
            let cautious = solve.cautious_probability(atom);
            let (brave_given, cautious_given) = match &request.given {
                Some(g) => {
                    let pair = [atom.clone(), g.clone()];
                    let joint_brave = solve.probability_brave_all(&pair);
                    let p_brave_g = solve.probability_brave_all(std::slice::from_ref(g));
                    let joint_cautious = solve.probability_cautious_all(&pair);
                    let p_cautious_g = solve.probability_cautious_all(std::slice::from_ref(g));
                    (
                        joint_brave.div(&p_brave_g),
                        joint_cautious.div(&p_cautious_g),
                    )
                }
                None => (None, None),
            };
            queries.push(QueryReport {
                atom: atom.to_string(),
                brave,
                cautious,
                brave_given,
                cautious_given,
            });
        }

        let mut marginals = Vec::new();
        for pred in &request.marginals {
            for atom in solve.atoms_with_predicate(pred) {
                marginals.push(QueryReport {
                    atom: atom.to_string(),
                    brave: solve.brave_probability(&atom),
                    cautious: solve.cautious_probability(&atom),
                    brave_given: None,
                    cautious_given: None,
                });
            }
        }

        let top_events = match request.top {
            Some(k) => solve
                .events_by_mass_top(k)
                .into_iter()
                .map(|(key, mass)| EventReport {
                    models: key.model_count(),
                    key: key.to_string(),
                    mass,
                })
                .collect(),
            None => Vec::new(),
        };

        let mut mc_reports = Vec::new();
        if let Some(mc) = &request.mc {
            // The walks ground on a grounder of this call's own, which
            // observes this call's token and no other: a deadline stops
            // their saturations at the next round, and the token of the
            // query that solved the entry never reaches them.
            let mut grounder = request
                .grounder
                .build(Arc::clone(&self.sigma), self.stratified)?;
            grounder.set_cancel(cancel.clone());
            for atom in &request.queries {
                let mut estimator = MonteCarlo::new(grounder.as_ref(), mc.max_triggers, mc.seed)
                    .with_executor(&self.executor)
                    .with_cancel(cancel.clone());
                let stats = estimator.estimate(mc.samples, |outcome| {
                    outcome.full_program().heads().contains(atom)
                })?;
                mc_reports.push(McReport {
                    atom: atom.to_string(),
                    mean: stats.estimate.mean,
                    std_error: stats.estimate.std_error,
                    samples: stats.samples,
                    abandoned: stats.abandoned,
                });
            }
        }

        Ok(QueryResponse {
            source: self.source.clone(),
            rules: self.rules,
            facts: self.facts,
            grounder: request.grounder.label(),
            threads: self.executor.threads(),
            factors: solve.factor_count(),
            analysis: entry.analysis,
            outcomes: solve.combined_outcomes(),
            nodes_visited: entry.nodes_visited,
            events: solve.combined_events(),
            explored_mass: solve.explored_mass(),
            residual_mass: solve.residual_mass(),
            truncated: solve.is_truncated(),
            interrupted: solve.is_interrupted(),
            p_stable: solve.has_stable_model_probability(),
            stable_cache: entry.stats,
            fingerprint: solve.fingerprint(),
            queries,
            given: request.given.as_ref().map(|a| a.to_string()),
            marginals,
            top_events,
            mc: mc_reports,
        })
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("source", &self.source)
            .field("rules", &self.rules)
            .field("facts", &self.facts)
            .field("warm_solves", &self.warm_solves())
            .finish()
    }
}

/// Resolve [`SolveStrategy::Auto`] to a concrete path via the static
/// analysis alone (no saturation): flat when a `min_path_probability` cut is
/// set (joint-mass cuts never factorize) or when
/// [`certainly_single_trigger`] certifies at most one trigger; factored
/// otherwise (the factored path's dynamic analysis still falls back to flat
/// when the program turns out not to factor).
fn resolve_strategy(
    strategy: SolveStrategy,
    sigma: &SigmaPi,
    budget: &ChaseBudget,
) -> SolveStrategy {
    match strategy {
        SolveStrategy::Auto => {
            if budget.min_path_probability > 0.0 || certainly_single_trigger(sigma) {
                SolveStrategy::Flat
            } else {
                SolveStrategy::Factored
            }
        }
        concrete => concrete,
    }
}

/// Convenience: lift the request's Monte-Carlo parameters into the
/// pipeline's [`McParams`].
impl From<McRequest> for McParams {
    fn from(mc: McRequest) -> Self {
        McParams::new()
            .with_max_triggers(mc.max_triggers)
            .with_seed(mc.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::request::{McRequest, QueryRequest};
    use crate::pipeline::GrounderChoice;
    use crate::program::{coin_program, network_resilience_program};
    use gdlog_data::{Const, GroundAtom};

    fn network_db() -> Database {
        let mut db = Database::new();
        for i in 1..=3i64 {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=3i64 {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    fn network_solver() -> Solver {
        Solver::compile(
            "network",
            &network_resilience_program(0.1),
            &network_db(),
            Arc::new(Executor::sequential()),
        )
        .expect("compile")
    }

    #[test]
    fn warm_responses_are_byte_identical_to_cold() {
        let solver = network_solver();
        let request = QueryRequest::new()
            .query(GroundAtom::make(
                "Uninfected",
                vec![gdlog_data::Const::Int(2)],
            ))
            .top(4);
        let cold = solver.query(&request).expect("cold query");
        assert_eq!(solver.warm_solves(), 1);
        let warm = solver.query(&request).expect("warm query");
        assert_eq!(solver.warm_solves(), 1, "same config must share one solve");
        assert_eq!(cold.render_json(), warm.render_json());
        assert_eq!(cold.render_text(), warm.render_text());
        assert!(cold.stable_cache.misses > 0, "cold stats snapshot kept");
    }

    #[test]
    fn distinct_solve_configurations_get_distinct_entries() {
        let solver = network_solver();
        let flat = QueryRequest::new();
        let small = QueryRequest::new().with_budget(ChaseBudget::small());
        solver.query(&flat).expect("flat");
        solver.query(&small).expect("small budget");
        assert_eq!(solver.warm_solves(), 2);
        // Re-issuing either stays warm.
        solver.query(&flat).expect("flat again");
        assert_eq!(solver.warm_solves(), 2);
    }

    #[test]
    fn auto_strategy_resolves_statically() {
        // The coin program's only Δ-rule is ground → single-trigger
        // certificate → flat.
        let sigma =
            Arc::new(SigmaPi::translate(&coin_program(), &Database::new()).expect("translate"));
        assert_eq!(
            resolve_strategy(SolveStrategy::Auto, &sigma, &ChaseBudget::default()),
            SolveStrategy::Flat
        );
        let cut = ChaseBudget {
            min_path_probability: 0.25,
            ..ChaseBudget::default()
        };
        assert_eq!(
            resolve_strategy(SolveStrategy::Auto, &sigma, &cut),
            SolveStrategy::Flat
        );
        // Concrete strategies pass through untouched.
        assert_eq!(
            resolve_strategy(SolveStrategy::Factored, &sigma, &ChaseBudget::default()),
            SolveStrategy::Factored
        );
    }

    #[test]
    fn auto_matches_flat_on_single_trigger_programs() {
        let solver = Solver::compile(
            "coin",
            &coin_program(),
            &Database::new(),
            Arc::new(Executor::sequential()),
        )
        .expect("compile");
        let auto = solver
            .query(&QueryRequest::new().with_strategy(SolveStrategy::Auto))
            .expect("auto");
        let flat = solver.query(&QueryRequest::new()).expect("flat");
        assert_eq!(auto.analysis, "flat");
        assert_eq!(auto.fingerprint, flat.fingerprint);
        assert_eq!(auto.p_stable.to_string(), flat.p_stable.to_string());
    }

    #[test]
    fn mc_without_queries_is_a_request_error() {
        let solver = network_solver();
        let err = solver
            .query(&QueryRequest::new().monte_carlo(McRequest::samples(10)))
            .expect_err("mc without queries");
        assert!(matches!(err, CoreError::Request(_)));
        assert!(err.to_string().contains("--query"));
    }

    #[test]
    fn cancelled_queries_degrade_gracefully_and_never_pollute_the_cache() {
        let solver = network_solver();
        let cancel = CancelToken::new();
        cancel.cancel();
        let request = QueryRequest::new();
        let cut = solver
            .query_until(&request, &cancel)
            .expect("a cancelled chase degrades to a partial response");
        assert!(cut.interrupted);
        assert!(cut.truncated);
        // The residual accounts for every cut subtree exactly.
        assert_eq!(
            cut.explored_mass.add(&cut.residual_mass),
            gdlog_prob::Prob::ONE
        );
        assert_eq!(cut.residual_mass, gdlog_prob::Prob::ONE);
        // Interrupted solves must never be served to later queries.
        assert_eq!(solver.warm_solves(), 0);
        let clean = solver.query(&request).expect("uncancelled query");
        assert!(!clean.interrupted);
        assert_eq!(clean.residual_mass, gdlog_prob::Prob::ZERO);
        assert_eq!(solver.warm_solves(), 1);
        // The interrupted JSON key never appears on the clean path.
        assert!(!clean.render_json().contains("interrupted"));
        assert!(cut.render_json().contains("\"interrupted\": true"));
    }

    #[test]
    fn cancelled_monte_carlo_is_a_typed_interruption() {
        let solver = network_solver();
        // Solve warm first so only the MC phase sees the fired token.
        let atom = GroundAtom::make("Uninfected", vec![Const::Int(2)]);
        let request = QueryRequest::new()
            .query(atom)
            .monte_carlo(McRequest::samples(1000));
        solver.query(&request).expect("warm-up");
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = solver
            .query_until(&request, &cancel)
            .expect_err("mc is exact-sample-count-or-nothing");
        assert!(matches!(err, CoreError::Interrupted(_)));
        assert!(err.to_string().contains("monte-carlo"));
    }

    #[test]
    fn a_fired_solve_token_does_not_poison_later_monte_carlo() {
        // The entry is solved under token T, which fires only after the
        // solve is cached (a deadline running out during the query's own
        // Monte-Carlo, say). Later queries on the warm entry must not see T.
        let solver = network_solver();
        let token = CancelToken::new();
        solver
            .query_until(&QueryRequest::new(), &token)
            .expect("solve completes before the token fires");
        assert_eq!(solver.warm_solves(), 1);
        token.cancel();
        let request = QueryRequest::new()
            .query(GroundAtom::make("Uninfected", vec![Const::Int(2)]))
            .monte_carlo(McRequest::samples(300).with_seed(4));
        let warm = solver.query(&request).expect("no deadline on this query");
        let fresh = network_solver().query(&request).expect("fresh solver");
        assert_eq!(warm.render_json(), fresh.render_json());
    }

    /// One fair coin whose toss starts a walk along an `n`-edge chain: the
    /// root grounds in a couple of rounds over the facts, but grounding the
    /// toss's child takes `n` saturation rounds.
    fn chain_after_toss_solver(n: i64) -> Solver {
        use crate::builder::ProgramBuilder;
        use gdlog_data::Term;
        let mut db = Database::new();
        db.insert_fact("Coin", [Const::Int(1)]);
        db.insert_fact("Start", [Const::Int(0)]);
        for i in 0..n {
            db.insert_fact("Edge", [Const::Int(i), Const::Int(i + 1)]);
        }
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::var("v")])
                    .body("Start", vec![Term::var("s")])
                    .head("Reach", vec![Term::var("s")])
            })
            .rule(|r| {
                r.body("Reach", vec![Term::var("x")])
                    .body("Edge", vec![Term::var("x"), Term::var("y")])
                    .head("Reach", vec![Term::var("y")])
            })
            .build()
            .unwrap();
        Solver::compile("chain", &program, &db, Arc::new(Executor::sequential())).expect("compile")
    }

    #[test]
    fn a_cold_monte_carlo_deadline_cuts_the_walk_saturation() {
        // The chase budget stops at the root, so the solve only grounds the
        // facts; the single walk then saturates a 32000-edge chain, which
        // takes over ten times as long. A deadline set after the solve
        // must stop that saturation, not wait for the walk to end.
        let n = 32000;
        let request = QueryRequest::new()
            .with_budget(ChaseBudget {
                max_depth: 0,
                ..ChaseBudget::default()
            })
            .query(GroundAtom::make("Reach", vec![Const::Int(n)]));
        let started = std::time::Instant::now();
        chain_after_toss_solver(n)
            .query(&request)
            .expect("the solve alone");
        let solve = started.elapsed();
        let solver = chain_after_toss_solver(n);
        let timeout = 2 * solve + Duration::from_millis(100);
        let request = request
            .monte_carlo(McRequest::samples(1))
            .with_timeout_ms(timeout.as_millis() as u64);
        let started = std::time::Instant::now();
        let err = solver
            .query(&request)
            .expect_err("the deadline fires during the walk");
        let elapsed = started.elapsed();
        assert!(matches!(err, CoreError::Interrupted(_)));
        assert_eq!(solver.warm_solves(), 1, "the solve finished in time");
        assert!(
            elapsed < timeout + 4 * solve,
            "took {elapsed:?} against a {timeout:?} deadline"
        );
    }

    #[test]
    fn self_armed_timeout_interrupts_long_queries() {
        // 18 chained coins: 2^18 outcomes, far more than a 1ms deadline
        // allows. The response must come back promptly, marked interrupted,
        // with the explored/residual split still exact.
        use crate::builder::ProgramBuilder;
        use gdlog_data::Term;
        let mut db = Database::new();
        for i in 1..=18i64 {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap();
        let solver = Solver::compile("coins", &program, &db, Arc::new(Executor::sequential()))
            .expect("compile");
        let request = QueryRequest::new().with_timeout_ms(1);
        let response = solver.query(&request).expect("graceful degradation");
        assert!(response.interrupted, "1ms cannot enumerate 2^18 outcomes");
        assert!(response.residual_mass.is_positive());
        assert_eq!(
            response.explored_mass.add(&response.residual_mass),
            gdlog_prob::Prob::ONE
        );
        assert_eq!(solver.warm_solves(), 0);
    }

    #[test]
    fn grounder_choice_reaches_the_response() {
        let solver = network_solver();
        let resp = solver
            .query(&QueryRequest::new().with_grounder(GrounderChoice::Auto))
            .expect("auto grounder");
        assert_eq!(resp.grounder, "auto");
        assert_eq!(resp.source, "network");
    }
}
