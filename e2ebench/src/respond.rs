//! The traced run's answering path: the same questions `Solver::query`
//! asks of a solved output space, asked by the benchmark itself so each
//! layer call gets its own span.

use crate::trace::Tracer;
use gdlog_core::api::{EventReport, McReport, QueryReport, QueryRequest, QueryResponse};
use gdlog_core::{FactoredSolve, ModelCacheStats, OutputSpace, Pipeline, SigmaPi};
use std::sync::Arc;

/// What a response reports about the solve behind it.
pub struct Solved {
    /// Source label.
    pub source: String,
    /// Program rules.
    pub rules: usize,
    /// Input facts.
    pub facts: usize,
    /// Executor threads.
    pub threads: usize,
    /// The output space.
    pub solve: FactoredSolve,
    /// `flat`, `static` or `dynamic`.
    pub analysis: &'static str,
    /// Chase nodes (0 on the factored path).
    pub nodes_visited: usize,
    /// Memo counters snapshotted after the solve.
    pub stats: ModelCacheStats,
}

/// A pipeline for `request`'s solve configuration over `sigma`, as the
/// solver builds one per solve entry.
pub fn pipeline(
    sigma: SigmaPi,
    stratified: bool,
    request: &QueryRequest,
    executor: &Arc<gdlog_core::Executor>,
) -> Result<Pipeline, String> {
    let key = request.solve_key();
    Ok(
        Pipeline::from_sigma(Arc::new(sigma), stratified, key.grounder)
            .map_err(|e| e.to_string())?
            .budget(key.budget)
            .trigger_order(key.order)
            .stable_limits(key.limits)
            .with_executor(Arc::clone(executor)),
    )
}

/// Chase and solve flat under `chase` and `stable` spans, with their
/// counters.
pub fn solve_flat(
    tracer: &mut Tracer,
    pipeline: &Pipeline,
) -> Result<(OutputSpace, usize), String> {
    let chase = tracer
        .span("chase", |_| pipeline.chase())
        .map_err(|e| e.to_string())?;
    let chase_ms = tracer.last_ms();
    let nodes = chase.nodes_visited;
    tracer.count("chase.nodes", nodes as f64);
    tracer.count("chase.outcomes", chase.outcomes.len() as f64);
    tracer.count("chase.nodes_per_ms", nodes as f64 / chase_ms.max(1e-9));
    let space = tracer
        .span("stable", |_| pipeline.space_from_chase(chase))
        .map_err(|e| e.to_string())?;
    let stats = pipeline.stable_cache_stats();
    tracer.count("stable.programs", stats.misses as f64);
    tracer.count("stable.memo_hit_ratio", stats.hit_rate());
    tracer.count("stable.events", space.event_count() as f64);
    Ok((space, nodes))
}

/// Answer `request`'s exact questions from `solved` under an `answer` span
/// (with `topk` inside it), in the order and form `Solver::query` uses.
pub fn answer(
    tracer: &mut Tracer,
    solved: &Solved,
    request: &QueryRequest,
    mc: Vec<McReport>,
) -> QueryResponse {
    let solve = &solved.solve;
    tracer.span("answer", |tracer| {
        let queries = request
            .queries
            .iter()
            .map(|atom| {
                let (brave_given, cautious_given) = match &request.given {
                    Some(g) => {
                        let pair = [atom.clone(), g.clone()];
                        let given = std::slice::from_ref(g);
                        (
                            solve
                                .probability_brave_all(&pair)
                                .div(&solve.probability_brave_all(given)),
                            solve
                                .probability_cautious_all(&pair)
                                .div(&solve.probability_cautious_all(given)),
                        )
                    }
                    None => (None, None),
                };
                QueryReport {
                    atom: atom.to_string(),
                    brave: solve.brave_probability(atom),
                    cautious: solve.cautious_probability(atom),
                    brave_given,
                    cautious_given,
                }
            })
            .collect();
        let marginals = request
            .marginals
            .iter()
            .flat_map(|pred| solve.atoms_with_predicate(pred))
            .map(|atom| QueryReport {
                atom: atom.to_string(),
                brave: solve.brave_probability(&atom),
                cautious: solve.cautious_probability(&atom),
                brave_given: None,
                cautious_given: None,
            })
            .collect();
        let top_events = match request.top {
            Some(k) => tracer.span("topk", |_| {
                solve
                    .events_by_mass_top(k)
                    .into_iter()
                    .map(|(key, mass)| EventReport {
                        models: key.model_count(),
                        key: key.to_string(),
                        mass,
                    })
                    .collect()
            }),
            None => Vec::new(),
        };
        QueryResponse {
            source: solved.source.clone(),
            rules: solved.rules,
            facts: solved.facts,
            grounder: request.grounder.label(),
            threads: solved.threads,
            factors: solve.factor_count(),
            analysis: solved.analysis,
            outcomes: solve.combined_outcomes(),
            nodes_visited: solved.nodes_visited,
            events: solve.combined_events(),
            explored_mass: solve.explored_mass(),
            residual_mass: solve.residual_mass(),
            truncated: solve.is_truncated(),
            interrupted: solve.is_interrupted(),
            p_stable: solve.has_stable_model_probability(),
            stable_cache: solved.stats,
            fingerprint: solve.fingerprint(),
            queries,
            given: request.given.as_ref().map(|a| a.to_string()),
            marginals,
            top_events,
            mc,
        }
    })
}

/// Render under a `json` span, counting the bytes.
pub fn render(tracer: &mut Tracer, response: &QueryResponse) -> String {
    let json = tracer.span("json", |_| response.render_json());
    tracer.count("json.bytes", json.len() as f64);
    json
}
