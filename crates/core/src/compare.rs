//! Qualitative comparison of semantics (Definition 3.11).
//!
//! Different grounders induce different probability spaces for the same
//! program and database. `Π_G(D)` is *as good as* `Π_G′(D)` if, for every set
//! of stable models `I`, the probability mass that `G` assigns to finite
//! outcomes inducing `I` is at least the mass `G′` assigns. Theorem 3.12
//! (positive programs) and Theorem 5.3 (stratified programs) state that the
//! simple, resp. perfect, grounder is as good as any other; this module makes
//! the relation executable so the experiment suite can verify those
//! statements on concrete inputs.

use crate::outcome::ModelSetKey;
use crate::semantics::OutputSpace;
use gdlog_prob::Prob;
use std::collections::BTreeSet;

/// The per-event masses of two output spaces, plus the two directions of the
/// "as good as" relation.
#[derive(Clone, Debug)]
pub struct SemanticsComparison {
    /// Every set of stable models observed in either space, with the mass
    /// each space assigns to it (left, right).
    pub events: Vec<(ModelSetKey, Prob, Prob)>,
    /// Is the left space as good as the right one?
    pub left_as_good_as_right: bool,
    /// Is the right space as good as the left one?
    pub right_as_good_as_left: bool,
    /// Residual (error/unexplored) mass of the left space.
    pub left_residual: Prob,
    /// Residual (error/unexplored) mass of the right space.
    pub right_residual: Prob,
}

impl SemanticsComparison {
    /// Are the two spaces equivalent event-by-event?
    pub fn equivalent(&self) -> bool {
        self.left_as_good_as_right && self.right_as_good_as_left
    }
}

/// Numerical tolerance used when one of the masses is not exact.
const TOLERANCE: f64 = 1e-9;

fn at_least(a: &Prob, b: &Prob) -> bool {
    match (a.as_exact(), b.as_exact()) {
        (Some(x), Some(y)) => x >= y,
        _ => a.to_f64() + TOLERANCE >= b.to_f64(),
    }
}

/// Compare two output spaces event by event.
pub fn compare_outputs(left: &OutputSpace, right: &OutputSpace) -> SemanticsComparison {
    let keys: BTreeSet<ModelSetKey> = left
        .outcomes()
        .iter()
        .map(|(_, k)| k.clone())
        .chain(right.outcomes().iter().map(|(_, k)| k.clone()))
        .collect();
    let mut events = Vec::with_capacity(keys.len());
    let mut left_good = true;
    let mut right_good = true;
    for key in keys {
        let l = left.event_probability(&key);
        let r = right.event_probability(&key);
        if !at_least(&l, &r) {
            left_good = false;
        }
        if !at_least(&r, &l) {
            right_good = false;
        }
        events.push((key, l, r));
    }
    SemanticsComparison {
        events,
        left_as_good_as_right: left_good,
        right_as_good_as_left: right_good,
        left_residual: left.residual_mass(),
        right_residual: right.residual_mass(),
    }
}

/// Is `left` as good as `right` (Definition 3.11)?
pub fn as_good_as(left: &OutputSpace, right: &OutputSpace) -> bool {
    compare_outputs(left, right).left_as_good_as_right
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{enumerate_outcomes, ChaseBudget, TriggerOrder};
    use crate::grounding::Grounder;
    use crate::perfect_grounder::PerfectGrounder;
    use crate::program::{dime_quarter_program, network_resilience_program, Program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use gdlog_engine::StableModelLimits;
    use std::sync::Arc;

    fn dime_db() -> Database {
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        db.insert_fact("Dime", [Const::Int(2)]);
        db.insert_fact("Quarter", [Const::Int(3)]);
        db
    }

    fn space_for(grounder: &dyn Grounder) -> OutputSpace {
        let chase =
            enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        OutputSpace::from_chase(
            chase,
            &StableModelLimits::default(),
            &crate::Ctx::sequential(),
        )
        .unwrap()
    }

    #[test]
    fn theorem_5_3_perfect_is_as_good_as_simple_on_the_dime_program() {
        let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &dime_db()).unwrap());
        let simple = SimpleGrounder::new(sigma.clone());
        let perfect = PerfectGrounder::new(sigma).unwrap();
        let s_space = space_for(&simple);
        let p_space = space_for(&perfect);
        let cmp = compare_outputs(&p_space, &s_space);
        assert!(cmp.left_as_good_as_right, "perfect must dominate simple");
        assert!(as_good_as(&p_space, &s_space));
        // In this example both grounders happen to explore all finite mass,
        // but the simple grounder needs more ground rules to do so; the
        // dominance is still (weakly) satisfied in both directions here.
        assert!(cmp.events.iter().all(|(_, l, r)| at_least(l, r)));
        assert_eq!(cmp.left_residual, Prob::ZERO);
    }

    #[test]
    fn theorem_3_12_simple_equals_itself_on_positive_programs() {
        // A positive program: only the infection-propagation rule.
        let program = Program::new(network_resilience_program(0.1).rules()[..1].to_vec());
        let mut db = Database::new();
        db.insert_fact("Router", [Const::Int(1)]);
        db.insert_fact("Router", [Const::Int(2)]);
        db.insert_fact("Connected", [Const::Int(1), Const::Int(2)]);
        db.insert_fact("Connected", [Const::Int(2), Const::Int(1)]);
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let simple = SimpleGrounder::new(sigma.clone());
        let perfect = PerfectGrounder::new(sigma).unwrap();
        let cmp = compare_outputs(&space_for(&simple), &space_for(&perfect));
        assert!(cmp.equivalent(), "positive programs: all grounders agree");
    }

    #[test]
    fn comparison_detects_strict_dominance() {
        // Build two artificial spaces from the same program but different
        // budgets: the truncated one loses mass, so the full one strictly
        // dominates it.
        let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &dime_db()).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let full = space_for(&grounder);
        let truncated = {
            let chase = enumerate_outcomes(
                &grounder,
                &ChaseBudget {
                    max_outcomes: 2,
                    ..ChaseBudget::default()
                },
                TriggerOrder::First,
            )
            .unwrap();
            OutputSpace::from_chase(
                chase,
                &StableModelLimits::default(),
                &crate::Ctx::sequential(),
            )
            .unwrap()
        };
        let cmp = compare_outputs(&full, &truncated);
        assert!(cmp.left_as_good_as_right);
        assert!(!cmp.right_as_good_as_left);
        assert!(!cmp.equivalent());
        assert!(cmp.right_residual.is_positive());
    }
}
