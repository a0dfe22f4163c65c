//! The well-founded model via the alternating fixpoint.
//!
//! The well-founded model is a three-valued approximation of the stable
//! models: atoms true in it belong to *every* stable model, atoms false in it
//! belong to *none*. The stable-model enumerator of [`crate::stable`] uses it
//! to prune its search: only atoms left *unknown* need to be branched on.
//!
//! The construction is Van Gelder's alternating fixpoint: with
//! `Γ(I) = least_model(reduct(Σ, I))` (antimonotone), the sequence
//! `T₀ = ∅, U₀ = Γ(T₀), T_{i+1} = Γ(U_i), U_{i+1} = Γ(T_{i+1})` converges to
//! the well-founded model: `T` holds the true atoms and the complement of `U`
//! the false ones.

use crate::ground::GroundProgram;
use crate::least_model::least_model;
use crate::reduct::reduct;
use gdlog_data::Database;

/// The three-valued well-founded model of a ground program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WellFounded {
    /// Atoms true in the well-founded model (true in every stable model).
    pub true_atoms: Database,
    /// Atoms false in the well-founded model, restricted to the atoms
    /// mentioned by the program (false in every stable model).
    pub false_atoms: Database,
    /// Atoms whose truth value is left undefined.
    pub unknown_atoms: Database,
}

impl WellFounded {
    /// Is the model total (no unknown atoms)? A total well-founded model is
    /// the unique stable model of the program.
    pub fn is_total(&self) -> bool {
        self.unknown_atoms.is_empty()
    }
}

/// Compute the well-founded model of `program`.
pub fn well_founded(program: &GroundProgram) -> WellFounded {
    let gamma = |i: &Database| least_model(&reduct(program, i));

    let mut t = Database::new();
    let mut u = gamma(&t);
    loop {
        let t_next = gamma(&u);
        let u_next = gamma(&t_next);
        if t_next == t && u_next == u {
            break;
        }
        t = t_next;
        u = u_next;
    }

    let base = program.atoms();
    let false_atoms = Database::from_atoms(base.iter().filter(|a| !u.contains(a)).cloned());
    let unknown_atoms = Database::from_atoms(u.iter().filter(|a| !t.contains(a)).cloned());
    WellFounded {
        true_atoms: t,
        false_atoms,
        unknown_atoms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;
    use gdlog_data::GroundAtom;

    fn atom(name: &str) -> GroundAtom {
        GroundAtom::make(name, vec![])
    }

    #[test]
    fn positive_programs_are_total() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![atom("A")], vec![]),
            GroundRule::new(atom("C"), vec![atom("D")], vec![]),
        ]);
        let wf = well_founded(&p);
        assert!(wf.is_total());
        assert!(wf.true_atoms.contains(&atom("A")));
        assert!(wf.true_atoms.contains(&atom("B")));
        assert!(wf.false_atoms.contains(&atom("C")));
        assert!(wf.false_atoms.contains(&atom("D")));
    }

    #[test]
    fn stratified_negation_is_total() {
        // B ← ¬A.  A never derivable ⇒ B true.
        let p =
            GroundProgram::from_rules(vec![GroundRule::new(atom("B"), vec![], vec![atom("A")])]);
        let wf = well_founded(&p);
        assert!(wf.is_total());
        assert!(wf.true_atoms.contains(&atom("B")));
        assert!(wf.false_atoms.contains(&atom("A")));
    }

    #[test]
    fn even_loop_is_unknown() {
        // a ← ¬b.  b ← ¬a.  Everything is undefined in the WFM.
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("a"), vec![], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![], vec![atom("a")]),
        ]);
        let wf = well_founded(&p);
        assert!(!wf.is_total());
        assert!(wf.true_atoms.is_empty());
        assert!(wf.false_atoms.is_empty());
        assert_eq!(wf.unknown_atoms.len(), 2);
    }

    #[test]
    fn odd_loop_is_unknown_in_wfm() {
        // a ← ¬a. has no stable model; the WFM leaves a unknown.
        let p =
            GroundProgram::from_rules(vec![GroundRule::new(atom("a"), vec![], vec![atom("a")])]);
        let wf = well_founded(&p);
        assert!(!wf.is_total());
        assert_eq!(wf.unknown_atoms.len(), 1);
    }

    #[test]
    fn mixed_program_decides_what_it_can() {
        // Facts decide part of the program even when an even loop remains.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("F")),
            GroundRule::new(atom("G"), vec![atom("F")], vec![atom("H")]),
            GroundRule::new(atom("a"), vec![atom("F")], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![atom("F")], vec![atom("a")]),
        ]);
        let wf = well_founded(&p);
        assert!(wf.true_atoms.contains(&atom("F")));
        assert!(wf.true_atoms.contains(&atom("G")));
        assert!(wf.false_atoms.contains(&atom("H")));
        assert_eq!(wf.unknown_atoms.len(), 2);
    }

    #[test]
    fn wfm_true_atoms_are_in_every_stable_model() {
        use crate::cancel::CancelToken;
        use crate::stable::{stable_models, StableModelLimits};
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("F")),
            GroundRule::new(atom("a"), vec![atom("F")], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![atom("F")], vec![atom("a")]),
            GroundRule::new(atom("C"), vec![atom("a")], vec![]),
            GroundRule::new(atom("C"), vec![atom("b")], vec![]),
        ]);
        let wf = well_founded(&p);
        let models =
            stable_models(&p, &StableModelLimits::default(), &CancelToken::never()).unwrap();
        assert_eq!(models.len(), 2);
        for t in wf.true_atoms.iter() {
            for m in &models {
                assert!(m.contains(t), "{t} missing from {m}");
            }
        }
        for f in wf.false_atoms.iter() {
            for m in &models {
                assert!(!m.contains(f));
            }
        }
        // C follows in both stable models but is unknown in the WFM? No: C is
        // derivable from a or b, both unknown, so C is unknown too. It is
        // nevertheless in every stable model, showing WFM is an
        // under-approximation.
        assert!(wf.unknown_atoms.contains(&atom("C")));
    }
}
