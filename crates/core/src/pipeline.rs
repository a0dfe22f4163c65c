//! End-to-end pipeline: program + database → output probability space.
//!
//! [`Pipeline`] wires together the translation (Section 3), a grounder
//! (Definitions 3.4 / 5.1), the chase (Section 4) and the output space
//! (Definition 3.8) behind a small builder-style API. It is the entry point
//! used by the examples and the experiment harness.
//!
//! Evaluation is semi-naive throughout: the grounders saturate delta-by-delta
//! over the indexed relations of `gdlog-data`, and the chase descent reuses
//! each node's grounding as the seed of its children's
//! ([`Grounder::ground_from`]). See `ARCHITECTURE.md` at the repository root
//! for the invariants.

use crate::chase::{enumerate_outcomes_in, ChaseBudget, ChaseResult, TriggerOrder};
use crate::ctx::Ctx;
use crate::error::CoreError;
use crate::exec::Executor;
use crate::factor::{
    self, ChaseComponent, Factor, FactorAnalysis, FactoredOutputSpace, FactoredSolve,
};
use crate::grounding::Grounder;
use crate::mc::MonteCarlo;
use crate::perfect_grounder::PerfectGrounder;
use crate::program::Program;
use crate::semantics::OutputSpace;
use crate::simple_grounder::SimpleGrounder;
use crate::translate::SigmaPi;
use gdlog_data::{Database, GroundAtom};
use gdlog_engine::{CancelToken, StableModelLimits};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which grounder the pipeline should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrounderChoice {
    /// The simple grounder (Definition 3.4) — correct for every program.
    #[default]
    Simple,
    /// The perfect grounder (Definition 5.1) — requires stratified negation.
    Perfect,
    /// Use the perfect grounder when the program is stratified, otherwise
    /// fall back to the simple grounder.
    Auto,
}

impl GrounderChoice {
    /// Lowercase label (`simple` / `perfect` / `auto`) for flags and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GrounderChoice::Simple => "simple",
            GrounderChoice::Perfect => "perfect",
            GrounderChoice::Auto => "auto",
        }
    }

    /// Build the chosen grounder for `sigma`. `stratified` is the source
    /// program's stratification verdict (it drives [`GrounderChoice::Auto`]).
    pub(crate) fn build(
        self,
        sigma: Arc<SigmaPi>,
        stratified: bool,
    ) -> Result<Box<dyn Grounder>, CoreError> {
        Ok(match self {
            GrounderChoice::Perfect => Box::new(PerfectGrounder::new(sigma)?),
            GrounderChoice::Auto if stratified => Box::new(PerfectGrounder::new(sigma)?),
            GrounderChoice::Simple | GrounderChoice::Auto => Box::new(SimpleGrounder::new(sigma)),
        })
    }
}

/// Monte-Carlo sampling parameters for [`Pipeline::sampler_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McParams {
    /// Per-walk trigger budget (walks beyond it count as abandoned).
    pub max_triggers: usize,
    /// Root seed; per-walk RNG streams are split from it, so estimates are
    /// bit-identical across executors.
    pub seed: u64,
}

impl McParams {
    /// The default parameters: 64 triggers per walk, seed 0.
    pub fn new() -> Self {
        McParams {
            max_triggers: 64,
            seed: 0,
        }
    }

    /// Override the per-walk trigger budget.
    pub fn with_max_triggers(mut self, max_triggers: usize) -> Self {
        self.max_triggers = max_triggers;
        self
    }

    /// Override the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for McParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable-model counters of a [`Pipeline`], reported in the `stable_cache`
/// block of every query response.
///
/// Every explored outcome gets its own stable-model search — distinct chase
/// leaves have distinct choice sets (Lemma 4.3(2)), so no two share a ground
/// program — hence `hits` is always zero and `misses` counts the outcomes
/// keyed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Outcomes whose event key was served without a stable-model search.
    pub hits: usize,
    /// Outcomes whose stable models were searched.
    pub misses: usize,
}

impl ModelCacheStats {
    /// Hits as a fraction of all lookups (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A configured evaluation pipeline.
pub struct Pipeline {
    sigma: Arc<SigmaPi>,
    grounder: Box<dyn Grounder>,
    budget: ChaseBudget,
    order: TriggerOrder,
    limits: StableModelLimits,
    /// The executor (shared so a resident [`crate::api::Solver`] can run
    /// many pipelines on one pool) and the cancellation token (also observed
    /// at every Monte-Carlo walk boundary; defaults to one that never fires).
    ctx: Ctx,
    /// Outcomes keyed by this pipeline's solves ([`ModelCacheStats::misses`]).
    keyed: AtomicUsize,
}

impl Pipeline {
    /// Build a pipeline for `program` on `database` with the default
    /// (simple) grounder and default budgets.
    pub fn new(program: &Program, database: &Database) -> Result<Self, CoreError> {
        Self::with_grounder(program, database, GrounderChoice::Simple)
    }

    /// Build a pipeline choosing the grounder explicitly.
    pub fn with_grounder(
        program: &Program,
        database: &Database,
        choice: GrounderChoice,
    ) -> Result<Self, CoreError> {
        let sigma = Arc::new(SigmaPi::translate(program, database)?);
        Self::from_sigma(sigma, program.has_stratified_negation(), choice)
    }

    /// Build a pipeline over an **already translated** program. This is the
    /// "translate once, solve many" entry point of the resident
    /// [`crate::api::Solver`]: the translation is shared, only grounding and
    /// solving run per pipeline. `stratified` is the source program's
    /// stratification verdict (it drives [`GrounderChoice::Auto`]).
    pub fn from_sigma(
        sigma: Arc<SigmaPi>,
        stratified: bool,
        choice: GrounderChoice,
    ) -> Result<Self, CoreError> {
        let grounder = choice.build(Arc::clone(&sigma), stratified)?;
        Ok(Pipeline {
            sigma,
            grounder,
            budget: ChaseBudget::default(),
            order: TriggerOrder::First,
            limits: StableModelLimits::default(),
            // Sequential unless GDLOG_THREADS says otherwise; results are
            // bit-identical either way, so the env knob (and the CI thread
            // matrix built on it) can parallelize every pipeline consumer
            // without touching call sites.
            ctx: Ctx::new(Arc::new(Executor::from_env())),
            keyed: AtomicUsize::new(0),
        })
    }

    /// Override the chase budget.
    pub fn budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Override the trigger-selection order.
    pub fn trigger_order(mut self, order: TriggerOrder) -> Self {
        self.order = order;
        self
    }

    /// Override the stable-model search limits.
    pub fn stable_limits(mut self, limits: StableModelLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Run on a shared executor (the server multiplexes every session's
    /// pipelines onto one pool this way). Results are bit-identical for
    /// every executor — the thread count only changes wall-clock time.
    pub fn with_executor(mut self, executor: Arc<Executor>) -> Self {
        self.ctx.executor = executor;
        self
    }

    /// Observe `cancel` throughout the pipeline: the chase cuts cancelled
    /// subtrees to residual mass (a graceful, exact partial result), while
    /// grounding, factor analysis, stable-model search and Monte-Carlo — all
    /// exact-or-nothing — surface [`CoreError::Interrupted`]. The token is
    /// also installed into the grounder, so in-flight saturations stop at
    /// their next round.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.grounder.set_cancel(cancel.clone());
        self.ctx.cancel = cancel;
        self
    }

    /// The translated program.
    pub fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    /// The grounder in use.
    pub fn grounder(&self) -> &dyn Grounder {
        self.grounder.as_ref()
    }

    /// Run the chase enumeration only.
    pub fn chase(&self) -> Result<ChaseResult, CoreError> {
        enumerate_outcomes_in(self.grounder.as_ref(), &self.budget, self.order, &self.ctx)
    }

    /// Run the full pipeline: chase, stable models, output space.
    ///
    /// The stable-model back-end fans one task per explored outcome out to
    /// the pipeline's executor. Results are bit-identical at every thread
    /// count.
    pub fn solve(&self) -> Result<OutputSpace, CoreError> {
        let chase = self.chase()?;
        self.space_from_chase(chase)
    }

    /// Turn an already-enumerated chase into the output space (the second
    /// half of [`Pipeline::solve`], split out so callers that need the
    /// chase's own statistics — `nodes_visited` — can run the halves
    /// separately without re-chasing).
    pub fn space_from_chase(&self, chase: ChaseResult) -> Result<OutputSpace, CoreError> {
        let space = OutputSpace::from_chase(chase, &self.limits, &self.ctx)?;
        self.keyed
            .fetch_add(space.outcome_count(), Ordering::Relaxed);
        Ok(space)
    }

    /// Stable-model counters accumulated over every solve on this pipeline:
    /// the outcomes keyed, summed over the factors of a factored solve.
    pub fn stable_cache_stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: 0,
            misses: self.keyed.load(Ordering::Relaxed),
        }
    }

    /// The chase-independence analysis for this pipeline's program and
    /// budget: the components an independent per-component chase would run,
    /// or `None` when the program should take the flat path, plus the
    /// [`FactorAnalysis`] verdict — `Static` when the predicate-level
    /// analysis alone decided (no universe saturation ran), `Dynamic` when
    /// the saturation-based analysis ran, seeded by the static components.
    pub fn factor_analysis(
        &self,
    ) -> Result<(Option<Vec<ChaseComponent>>, FactorAnalysis), CoreError> {
        factor::analyze(&self.sigma, &self.budget, &self.ctx)
    }

    /// How many independent factors
    /// [`Pipeline::solve_factored_with_analysis`] would use (one on the flat
    /// path).
    pub fn factor_count(&self) -> Result<usize, CoreError> {
        Ok(self.factor_analysis()?.0.map_or(1, |c| c.len()))
    }

    /// Run the full pipeline with front-of-pipeline factorization: when the
    /// ground program splits into chase-independent components, chase and
    /// solve each component separately and answer queries from the *product*
    /// of the per-component output spaces — exact inference past the `2^n`
    /// wall of the flat enumeration. Programs with a single component fall
    /// back to [`Pipeline::solve`] byte-for-byte.
    ///
    /// Each component is chased on its own slice of `Σ_Π[D]`: every non-fact
    /// rule and AtR schema, but only the fact rules whose heads lie in the
    /// component. Rule footprints never cross components, so grounding from
    /// the component's facts derives exactly its share of every flat
    /// outcome, and the work is linear in the number of components. The
    /// slices run on a simple grounder regardless of the pipeline's
    /// configured one (the split is by ground facts, not by strata).
    /// Stable-model solving per factor reuses the pipeline's executor and
    /// limits.
    ///
    /// The [`FactorAnalysis`] verdict is reported by the CLI as
    /// `analysis: static|dynamic`; it only records whether universe
    /// saturation could be skipped.
    pub fn solve_factored_with_analysis(
        &self,
    ) -> Result<(FactoredSolve, FactorAnalysis), CoreError> {
        let (components, analysis) = self.factor_analysis()?;
        let Some(components) = components else {
            return Ok((FactoredSolve::Flat(self.solve()?), analysis));
        };
        let slices = {
            let part: HashMap<&GroundAtom, usize> = components
                .iter()
                .enumerate()
                .flat_map(|(i, c)| c.atoms.iter().map(move |a| (a, i)))
                .collect();
            self.sigma.slice_facts(components.len(), |fact| part[fact])
        };
        let mut factors = Vec::with_capacity(components.len());
        for (component, slice) in components.into_iter().zip(slices) {
            let mut grounder = SimpleGrounder::new(Arc::new(slice));
            grounder.set_cancel(self.ctx.cancel.clone());
            let chase = enumerate_outcomes_in(&grounder, &self.budget, self.order, &self.ctx)?;
            let space = self.space_from_chase(chase)?;
            factors.push(Factor {
                atoms: component.atoms,
                space,
            });
        }
        Ok((
            FactoredSolve::Product(FactoredOutputSpace::new(factors)),
            analysis,
        ))
    }

    /// A Monte-Carlo estimator over the same grounder, sharing the
    /// pipeline's executor and cancellation token.
    pub fn sampler_with(&self, params: McParams) -> MonteCarlo<'_> {
        MonteCarlo::new(self.grounder.as_ref(), params.max_triggers, params.seed)
            .with_executor(&self.ctx.executor)
            .with_cancel(self.ctx.cancel.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use gdlog_data::Const;
    use gdlog_prob::Prob;

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

    #[test]
    fn end_to_end_example_3_10() {
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &network_db()).unwrap();
        let space = pipeline.solve().unwrap();
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(19, 100));
        assert_eq!(space.residual_mass(), Prob::ZERO);
    }

    #[test]
    fn auto_grounder_selection() {
        // Stratified → perfect.
        let p = Pipeline::with_grounder(
            &dime_quarter_program(),
            &Database::new(),
            GrounderChoice::Auto,
        )
        .unwrap();
        assert_eq!(p.grounder().name(), "perfect");
        // Non-stratified → simple.
        let p = Pipeline::with_grounder(&coin_program(), &Database::new(), GrounderChoice::Auto)
            .unwrap();
        assert_eq!(p.grounder().name(), "simple");
        // Forcing the perfect grounder on a non-stratified program fails.
        assert!(Pipeline::with_grounder(
            &coin_program(),
            &Database::new(),
            GrounderChoice::Perfect
        )
        .is_err());
    }

    #[test]
    fn builder_style_configuration() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new())
            .unwrap()
            .budget(ChaseBudget::small())
            .trigger_order(TriggerOrder::Last)
            .stable_limits(StableModelLimits::default());
        let chase = pipeline.chase().unwrap();
        assert_eq!(chase.outcomes.len(), 2);
        let space = pipeline.solve().unwrap();
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(1, 2));
        assert!(pipeline.sigma().atr_schemas.len() == 1);
    }

    #[test]
    fn solve_memoizes_across_calls_and_thread_counts() {
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &network_db()).unwrap();
        let first = pipeline.solve().unwrap();
        let second = pipeline.solve().unwrap();
        assert_eq!(first.events_by_mass(), second.events_by_mass());
        // Nothing is memoized: each solve keys every outcome afresh.
        assert_eq!(
            pipeline.stable_cache_stats(),
            ModelCacheStats {
                hits: 0,
                misses: 2 * first.outcome_count(),
            }
        );

        // A parallel pipeline produces a bit-identical output space.
        let par = Pipeline::new(&network_resilience_program(0.1), &network_db())
            .unwrap()
            .with_executor(Arc::new(Executor::new(4)));
        assert_eq!(
            par.solve().unwrap().events_by_mass(),
            first.events_by_mass()
        );
    }

    #[test]
    fn monte_carlo_from_pipeline() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let params = McParams::new().with_max_triggers(16).with_seed(11);
        assert_eq!((params.max_triggers, params.seed), (16, 11));
        let heads_coin = |outcome: &crate::outcome::PossibleOutcome| {
            outcome
                .rules
                .heads()
                .contains(&gdlog_data::GroundAtom::make("Coin", vec![Const::Int(1)]))
        };
        let stats = pipeline
            .sampler_with(params)
            .estimate(500, heads_coin)
            .unwrap();
        assert!(stats.estimate.consistent_with(0.5, 4.0));
        // The walk RNG is seed-split, so a second estimator with the same
        // params reproduces the estimates bit for bit.
        let again = pipeline
            .sampler_with(params)
            .estimate(500, heads_coin)
            .unwrap();
        assert_eq!(again.estimate.mean, stats.estimate.mean);
        assert_eq!(again.abandoned, stats.abandoned);
        assert_eq!(McParams::default(), McParams::new());
    }
}
