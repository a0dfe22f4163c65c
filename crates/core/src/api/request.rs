//! The unified query request.
//!
//! A [`QueryRequest`] is the single description of "everything one asks of a
//! program": solve configuration (grounder, flat/factored/auto strategy,
//! chase budget, trigger order, stable-model limits) plus the question list
//! (brave/cautious queries, a `--given` conditional, marginals, top-K events,
//! Monte-Carlo estimates). The CLI `run` path, `Pipeline` consumers and the
//! resident server all build this one type and dispatch it through
//! [`crate::api::Solver`], so there is exactly one query surface — and one
//! response schema ([`crate::api::QueryResponse`]) — across every front-end.

use crate::chase::{ChaseBudget, TriggerOrder};
use crate::pipeline::GrounderChoice;
use gdlog_data::GroundAtom;
use gdlog_engine::StableModelLimits;

/// How the solver should decompose the outcome space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolveStrategy {
    /// Enumerate the flat chase tree (the classic `Pipeline::solve` path).
    #[default]
    Flat,
    /// Chase independent components separately and answer from the product
    /// of their outcome spaces (`Pipeline::solve_factored_with_analysis`);
    /// falls back to the flat path when the program does not factor.
    Factored,
    /// Let the solver pick: the grounding-free static independence analysis
    /// of `gdlog lint` (PR 8) chooses the factored path exactly when it
    /// predicts more than one trigger-bearing component.
    Auto,
}

impl SolveStrategy {
    /// Lowercase label (`flat` / `factored` / `auto`) for flags and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SolveStrategy::Flat => "flat",
            SolveStrategy::Factored => "factored",
            SolveStrategy::Auto => "auto",
        }
    }
}

/// Monte-Carlo estimation parameters, folded into the unified request
/// (backed by [`crate::pipeline::McParams`] on the pipeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McRequest {
    /// Number of sampled walks per queried atom.
    pub samples: usize,
    /// Root seed of the per-walk RNG streams.
    pub seed: u64,
    /// Per-walk trigger budget (walks beyond it count as abandoned).
    pub max_triggers: usize,
}

impl McRequest {
    /// An estimate with `samples` walks and the default seed/trigger budget.
    pub fn samples(samples: usize) -> Self {
        McRequest {
            samples,
            seed: 0,
            max_triggers: 64,
        }
    }

    /// Override the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-walk trigger budget.
    pub fn with_max_triggers(mut self, max_triggers: usize) -> Self {
        self.max_triggers = max_triggers;
        self
    }
}

/// One complete query against a compiled program.
///
/// Defaults mirror a bare `gdlog run file.gdl`: simple grounder, flat
/// strategy, default budgets, no questions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryRequest {
    /// Grounder selection.
    pub grounder: GrounderChoice,
    /// Flat, factored, or solver-chosen decomposition.
    pub strategy: SolveStrategy,
    /// Chase budget for this query (per-query budgets are what lets the
    /// server bound each admitted query independently).
    pub budget: ChaseBudget,
    /// Trigger exploration order.
    pub order: TriggerOrder,
    /// Stable-model search limits.
    pub limits: StableModelLimits,
    /// Ground atoms to report brave/cautious probabilities for.
    pub queries: Vec<GroundAtom>,
    /// Condition every query on this ground atom.
    pub given: Option<GroundAtom>,
    /// Predicates to report full marginals for.
    pub marginals: Vec<String>,
    /// Report the top-K events by probability mass.
    pub top: Option<usize>,
    /// Monte-Carlo estimate each queried atom.
    pub mc: Option<McRequest>,
    /// Cooperative per-query deadline in milliseconds. When it fires, the
    /// chase degrades gracefully (truncated enumeration with exact residual
    /// mass, marked `interrupted`); phases that are exact-or-nothing surface
    /// [`crate::CoreError::Interrupted`]. Deliberately *not* part of
    /// [`SolveKey`]: a timeout shapes when a solve is abandoned, never what a
    /// completed solve contains, and interrupted solves are never cached.
    pub timeout_ms: Option<u64>,
}

impl QueryRequest {
    /// A request with every default (equivalent to `QueryRequest::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the grounder.
    pub fn with_grounder(mut self, grounder: GrounderChoice) -> Self {
        self.grounder = grounder;
        self
    }

    /// Set the solve strategy.
    pub fn with_strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the chase budget.
    pub fn with_budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Set the trigger order.
    pub fn with_order(mut self, order: TriggerOrder) -> Self {
        self.order = order;
        self
    }

    /// Set the stable-model limits.
    pub fn with_limits(mut self, limits: StableModelLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Add a brave/cautious query atom.
    pub fn query(mut self, atom: GroundAtom) -> Self {
        self.queries.push(atom);
        self
    }

    /// Condition every query on `atom`.
    pub fn given(mut self, atom: GroundAtom) -> Self {
        self.given = Some(atom);
        self
    }

    /// Report marginals for `predicate`.
    pub fn marginal(mut self, predicate: impl Into<String>) -> Self {
        self.marginals.push(predicate.into());
        self
    }

    /// Report the top `k` events by mass.
    pub fn top(mut self, k: usize) -> Self {
        self.top = Some(k);
        self
    }

    /// Monte-Carlo estimate each queried atom.
    pub fn monte_carlo(mut self, mc: McRequest) -> Self {
        self.mc = Some(mc);
        self
    }

    /// Give up on the query after `timeout_ms` milliseconds.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// The solve configuration of this request — everything that determines
    /// the solved output space (and therefore the warm-cache key), nothing
    /// that only shapes the answers.
    pub fn solve_key(&self) -> SolveKey {
        SolveKey {
            grounder: self.grounder,
            strategy: self.strategy,
            budget: self.budget,
            order: self.order,
            limits: self.limits,
        }
    }
}

/// The portion of a [`QueryRequest`] that determines the solved output
/// space. Two requests with equal keys can share one solve; the question
/// lists (queries, marginals, top-K, MC) are answered per request from the
/// shared space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveKey {
    /// Grounder selection.
    pub grounder: GrounderChoice,
    /// Requested decomposition strategy (`Auto` resolves deterministically
    /// per program, so keying by the request is stable).
    pub strategy: SolveStrategy,
    /// Chase budget.
    pub budget: ChaseBudget,
    /// Trigger order.
    pub order: TriggerOrder,
    /// Stable-model limits.
    pub limits: StableModelLimits,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_data::Const;

    #[test]
    fn builder_and_defaults() {
        let atom = GroundAtom::make("Coin", vec![Const::Int(1)]);
        let req = QueryRequest::new()
            .with_grounder(GrounderChoice::Auto)
            .with_strategy(SolveStrategy::Factored)
            .query(atom.clone())
            .given(atom.clone())
            .marginal("Coin")
            .top(4)
            .monte_carlo(McRequest::samples(100).with_seed(7).with_max_triggers(32));
        assert_eq!(req.grounder, GrounderChoice::Auto);
        assert_eq!(req.strategy, SolveStrategy::Factored);
        assert_eq!(req.queries, vec![atom.clone()]);
        assert_eq!(req.given, Some(atom));
        assert_eq!(req.marginals, vec!["Coin".to_owned()]);
        assert_eq!(req.top, Some(4));
        let mc = req.mc.expect("mc set");
        assert_eq!((mc.samples, mc.seed, mc.max_triggers), (100, 7, 32));

        let default = QueryRequest::default();
        assert_eq!(default.strategy, SolveStrategy::Flat);
        assert!(default.queries.is_empty() && default.mc.is_none());
    }

    #[test]
    fn solve_keys_ignore_the_question_list() {
        // The timeout shapes when a solve is abandoned, not what a completed
        // solve contains — it must not split the warm-solve cache.
        let a = QueryRequest::new()
            .top(4)
            .marginal("Coin")
            .with_timeout_ms(500);
        let b = QueryRequest::new();
        assert_eq!(a.solve_key(), b.solve_key());
        let c = QueryRequest::new().with_strategy(SolveStrategy::Auto);
        assert_ne!(a.solve_key(), c.solve_key());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(SolveStrategy::Flat.label(), "flat");
        assert_eq!(SolveStrategy::Factored.label(), "factored");
        assert_eq!(SolveStrategy::Auto.label(), "auto");
    }
}
