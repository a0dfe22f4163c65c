//! Evaluation of stratified ground programs.
//!
//! A stratified ground program has exactly one stable model (Corollary 1 of
//! Gelfond & Lifschitz, used by Proposition 5.2 of the paper). It can be
//! computed stratum by stratum: within a stratum, negative literals only
//! refer to predicates of strictly lower strata, whose extensions are already
//! fixed, so each stratum reduces to a positive least-model computation.

use crate::depgraph::{DependencyGraph, NotStratified};
use crate::ground::{GroundProgram, GroundRule};
use crate::least_model::least_model;
use gdlog_data::Database;
use std::fmt;

/// Errors raised by the stratified evaluator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StratifiedError {
    /// The program is not stratified.
    NotStratified(NotStratified),
}

impl fmt::Display for StratifiedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StratifiedError::NotStratified(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StratifiedError {}

impl From<NotStratified> for StratifiedError {
    fn from(e: NotStratified) -> Self {
        StratifiedError::NotStratified(e)
    }
}

/// Compute the unique stable model of a stratified ground program.
///
/// Returns an error if the program is not stratified (use
/// [`crate::stable_models`] in that case).
pub fn stratified_model(program: &GroundProgram) -> Result<Database, StratifiedError> {
    let graph = DependencyGraph::from_ground_program(program);
    let stratification = graph.stratify()?;

    let mut model = Database::new();
    for stratum in stratification.strata() {
        // Rules whose head predicate belongs to the current stratum.
        let stratum_rules: Vec<&GroundRule> = program
            .iter()
            .filter(|r| stratum.contains(&r.head.predicate))
            .collect();
        if stratum_rules.is_empty() {
            continue;
        }
        // Negative literals refer to lower strata (or extensional predicates),
        // whose truth is already settled in `model`: drop blocked rules,
        // strip negation from the rest, seed with the current model as facts.
        let mut positive = GroundProgram::from_database(&model);
        for rule in stratum_rules {
            if rule.neg.iter().any(|a| model.contains(a)) {
                continue;
            }
            positive.push(GroundRule::new(
                rule.head.clone(),
                rule.pos.clone(),
                Vec::new(),
            ));
        }
        model = least_model(&positive);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::stable::{is_stable_model, stable_models, StableModelLimits};
    use gdlog_data::{Const, GroundAtom};

    fn atom(name: &str) -> GroundAtom {
        GroundAtom::make(name, vec![])
    }

    fn atom1(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    fn atom2(name: &str, a: i64, b: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(a), Const::Int(b)])
    }

    #[test]
    fn positive_program_matches_least_model() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![atom("A")], vec![]),
        ]);
        let m = stratified_model(&p).unwrap();
        assert_eq!(m, crate::least_model::least_model(&p));
    }

    #[test]
    fn two_strata_with_negation() {
        // Reachable/unreachable: U(x) ← V(x), ¬R(x).
        let mut p = GroundProgram::new();
        for i in 1..=3 {
            p.push(GroundRule::fact(atom1("V", i)));
        }
        p.push(GroundRule::fact(atom2("E", 1, 2)));
        p.push(GroundRule::fact(atom1("R", 1)));
        for i in 1..=3 {
            for j in 1..=3 {
                p.push(GroundRule::new(
                    atom1("R", j),
                    vec![atom1("R", i), atom2("E", i, j)],
                    vec![],
                ));
            }
        }
        for i in 1..=3 {
            p.push(GroundRule::new(
                atom1("U", i),
                vec![atom1("V", i)],
                vec![atom1("R", i)],
            ));
        }
        let m = stratified_model(&p).unwrap();
        assert!(m.contains(&atom1("R", 1)));
        assert!(m.contains(&atom1("R", 2)));
        assert!(!m.contains(&atom1("R", 3)));
        assert!(!m.contains(&atom1("U", 1)));
        assert!(!m.contains(&atom1("U", 2)));
        assert!(m.contains(&atom1("U", 3)));
        // Cross-check against the generic solver.
        assert!(is_stable_model(&p, &m));
        let all = stable_models(&p, &StableModelLimits::default(), &CancelToken::never()).unwrap();
        assert_eq!(all, vec![m]);
    }

    #[test]
    fn non_stratified_program_is_rejected() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("a"), vec![], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![], vec![atom("a")]),
        ]);
        let err = stratified_model(&p).unwrap_err();
        assert!(matches!(err, StratifiedError::NotStratified(_)));
        assert!(err.to_string().contains("not stratified"));
    }

    #[test]
    fn dime_quarter_scenario_from_appendix_e() {
        // Ground instance of the Appendix E example for the configuration
        // "dime 1 tails, dime 2 heads": the quarter is not tossed.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom1("Dime", 1)),
            GroundRule::fact(atom1("Dime", 2)),
            GroundRule::fact(atom1("Quarter", 3)),
            GroundRule::fact(atom2("DimeTail", 1, 1)),
            GroundRule::fact(atom2("DimeTail", 2, 0)),
            GroundRule::new(atom("SomeDimeTail"), vec![atom2("DimeTail", 1, 1)], vec![]),
            GroundRule::new(atom("SomeDimeTail"), vec![atom2("DimeTail", 2, 1)], vec![]),
            GroundRule::new(
                atom1("TossQuarter", 3),
                vec![atom1("Quarter", 3)],
                vec![atom("SomeDimeTail")],
            ),
        ]);
        let m = stratified_model(&p).unwrap();
        assert!(m.contains(&atom("SomeDimeTail")));
        assert!(!m.contains(&atom1("TossQuarter", 3)));

        // The unique stable model coincides with the generic enumeration.
        let all = stable_models(&p, &StableModelLimits::default(), &CancelToken::never()).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], m);
    }

    #[test]
    fn three_strata_chain() {
        // C ← ¬B. B ← ¬A. A is a fact ⇒ B false, C true.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![], vec![atom("A")]),
            GroundRule::new(atom("C"), vec![], vec![atom("B")]),
        ]);
        let m = stratified_model(&p).unwrap();
        assert!(m.contains(&atom("A")));
        assert!(!m.contains(&atom("B")));
        assert!(m.contains(&atom("C")));
    }

    #[test]
    fn stratified_model_agrees_with_generic_solver_on_random_like_cases() {
        // A handful of handcrafted stratified programs; the unique stable
        // model must match the generic enumerator.
        let programs = vec![
            GroundProgram::from_rules(vec![
                GroundRule::fact(atom1("P", 1)),
                GroundRule::new(atom1("Q", 1), vec![atom1("P", 1)], vec![atom1("R", 1)]),
                GroundRule::new(atom1("S", 1), vec![atom1("Q", 1)], vec![]),
            ]),
            GroundProgram::from_rules(vec![
                GroundRule::new(atom("X"), vec![], vec![atom("Y")]),
                GroundRule::new(atom("Z"), vec![atom("X")], vec![]),
            ]),
        ];
        for p in programs {
            let m = stratified_model(&p).unwrap();
            let all =
                stable_models(&p, &StableModelLimits::default(), &CancelToken::never()).unwrap();
            assert_eq!(all, vec![m]);
        }
    }
}
