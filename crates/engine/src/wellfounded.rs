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
//!
//! It runs on the program's dense form (`engine/src/dense.rs`), compiled once:
//! `T` and `U` are bitsets over the interned atoms, and each `Γ` is one call
//! of the shared least-model kernel with "has a negated atom in `I`" as the
//! reduct mask, so a round allocates nothing and hashes no atom.
//! [`crate::stable::stable_models`] compiles once and reuses the same bitsets
//! for its residual search; [`well_founded`] converts them to `Database`s.
//! The textbook `reduct` + `least_model` form is kept as the independent
//! oracle [`crate::naive_stable::naive_well_founded`].

use crate::dense::{Bits, DenseProgram, Rules, Scratch};
use crate::ground::GroundProgram;
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
    let dense = DenseProgram::compile(program);
    let wf = DenseWellFounded::of(&dense.rules);
    let collect = |keep: &dyn Fn(u32) -> bool| {
        Database::from_atoms(
            (0..dense.atoms.len() as u32)
                .filter(|&a| keep(a))
                .map(|a| dense.atoms[a as usize].clone()),
        )
    };
    WellFounded {
        true_atoms: collect(&|a| wf.t.contains(a)),
        false_atoms: collect(&|a| !wf.u.contains(a)),
        unknown_atoms: collect(&|a| wf.is_unknown(a)),
    }
}

/// The well-founded model over dense atom ids: `t` holds the true atoms,
/// `u` the true-or-unknown ones (its complement is false).
pub(crate) struct DenseWellFounded {
    pub(crate) t: Bits,
    pub(crate) u: Bits,
}

impl DenseWellFounded {
    /// The alternating fixpoint of `rules`.
    pub(crate) fn of(rules: &Rules) -> Self {
        let mut scratch = Scratch::new(rules);
        let mut gamma = |i: &Bits, out: &mut Bits| {
            let blocked = |r: usize| rules.neg(r).iter().any(|&a| i.contains(a));
            rules.least_model(blocked, &mut scratch, out);
        };
        let n = rules.atom_count();
        let (mut t, mut u) = (Bits::new(n), Bits::new(n));
        let (mut t_next, mut u_next) = (Bits::new(n), Bits::new(n));
        gamma(&t, &mut u);
        loop {
            gamma(&u, &mut t_next);
            gamma(&t_next, &mut u_next);
            if t_next == t && u_next == u {
                return DenseWellFounded { t, u };
            }
            std::mem::swap(&mut t, &mut t_next);
            std::mem::swap(&mut u, &mut u_next);
        }
    }

    /// Is the model total (`T = U`)?
    pub(crate) fn is_total(&self) -> bool {
        self.t == self.u
    }

    pub(crate) fn is_unknown(&self, atom: u32) -> bool {
        self.u.contains(atom) && !self.t.contains(atom)
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
