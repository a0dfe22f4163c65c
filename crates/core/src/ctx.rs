//! The execution context every pipeline operation runs under.
//!
//! Each operation of the pipeline — the chase ([`crate::enumerate_outcomes_in`]),
//! the stable-model keying ([`crate::OutputSpace::from_chase`]) and the
//! factor analysis ([`crate::factor::analyze`]) — is one call taking a
//! [`Ctx`]: *where* work runs (the [`Executor`]) and *when* it must stop
//! (the [`CancelToken`]). Neither changes a result: executors are
//! bit-identical, and a token that never fires is the uncancelled run.

use crate::exec::Executor;
use gdlog_engine::CancelToken;
use std::sync::Arc;

/// Executor and cancellation token of one run.
///
/// Cloning is cheap and shares both: a clone runs on the same pool and
/// observes the same token.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The execution policy (shared so one pool can serve many pipelines).
    pub executor: Arc<Executor>,
    /// Observed at every chase node, grounding round, stable-model branch
    /// decision and factor-analysis round.
    pub cancel: CancelToken,
}

impl Ctx {
    /// Sequential, never cancelled.
    pub fn sequential() -> Self {
        Self::new(Arc::new(Executor::sequential()))
    }

    /// Run on `executor`, never cancelled.
    pub fn new(executor: Arc<Executor>) -> Self {
        Ctx {
            executor,
            cancel: CancelToken::never(),
        }
    }

    /// Observe `cancel`.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::chase::{enumerate_outcomes, ChaseBudget, TriggerOrder};
    use crate::error::CoreError;
    use crate::factor::analyze;
    use crate::program::coin_program;
    use crate::semantics::OutputSpace;
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database, GroundAtom, Term};
    use gdlog_engine::{stable_models, GroundProgram, GroundRule, StableError, StableModelLimits};

    /// Two independent coins: the factor analysis must saturate (neither
    /// static short-circuit applies), so it reaches its token check.
    fn two_coins() -> SigmaPi {
        let half = Term::Const(Const::real(0.5).expect("finite"));
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        db.insert_fact("Coin", [Const::Int(1)]);
        db.insert_fact("Coin", [Const::Int(2)]);
        SigmaPi::translate(&program, &db).unwrap()
    }

    #[test]
    fn a_fired_token_reaches_every_entry() {
        let fired = CancelToken::new();
        fired.cancel();
        let ctx = Ctx::sequential().with_cancel(fired.clone());
        let budget = ChaseBudget::default();

        let sigma = two_coins();
        assert!(analyze(&sigma, &budget, &Ctx::sequential())
            .unwrap()
            .0
            .is_some());
        let grounder = SimpleGrounder::new(Arc::new(
            SigmaPi::translate(&coin_program(), &Database::new()).unwrap(),
        ));
        let chase = enumerate_outcomes(&grounder, &budget, TriggerOrder::First).unwrap();
        assert!(!chase.interrupted);
        let a = GroundAtom::make("a", vec![]);
        let b = GroundAtom::make("b", vec![]);
        let even_loop = GroundProgram::from_rules(vec![
            GroundRule::new(a.clone(), vec![], vec![b.clone()]),
            GroundRule::new(b, vec![], vec![a]),
        ]);

        let cases: [(&str, bool); 3] = [
            (
                "factor::analyze",
                matches!(
                    analyze(&sigma, &budget, &ctx),
                    Err(CoreError::Interrupted(_))
                ),
            ),
            (
                "OutputSpace::from_chase",
                matches!(
                    OutputSpace::from_chase(chase, &StableModelLimits::default(), &ctx),
                    Err(CoreError::Interrupted(_))
                ),
            ),
            (
                "gdlog_engine::stable_models",
                matches!(
                    stable_models(&even_loop, &StableModelLimits::default(), &ctx.cancel),
                    Err(StableError::Interrupted)
                ),
            ),
        ];
        for (entry, interrupted) in cases {
            assert!(interrupted, "{entry} ignored a fired token");
        }
    }
}
