//! The dense `u32` form of a ground program and the least-model kernel shared
//! by the well-founded model and the residual stable-model search.
//!
//! [`DenseProgram::compile`] interns every atom of a [`GroundProgram`] once
//! (one `HashMap` pass) and stores the rules as flat arrays: a `u32` head per
//! rule, sorted and duplicate-free positive/negative bodies, and CSR
//! occurrence lists from atoms to the rules whose bodies mention them. Every
//! later pass over the program — the alternating fixpoint of
//! [`crate::wellfounded`], the residual build and the leaf checks of
//! [`crate::stable`] — indexes these arrays and fixed-size [`Bits`] instead of
//! hashing atoms again.
//!
//! [`Rules::least_model`] is the one counter-based least-model kernel over
//! this form. It computes the least model of a Gelfond–Lifschitz reduct given
//! as a per-rule "not in the reduct" mask, so neither caller materialises a
//! reduct program. [`crate::least_model()`] keeps its own `Database` version
//! for the public positive-program API.

use crate::ground::GroundProgram;
use gdlog_data::GroundAtom;
use std::collections::HashMap;

/// A fixed-capacity set of dense atom ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// The empty set over ids `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words[(id / 64) as usize] & (1 << (id % 64)) != 0
    }

    /// Add `id`; returns whether it was absent.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let word = &mut self.words[(id / 64) as usize];
        let bit = 1 << (id % 64);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w as u32 * 64 + bit
                })
            })
        })
    }
}

/// Rule lists of a dense program: for each atom, the rules (ascending) whose
/// positive or negative body mentions it.
#[derive(Debug)]
struct Occurrences {
    /// Atom `a`'s rules are `rules[start[a]..start[a + 1]]`.
    start: Vec<u32>,
    rules: Vec<u32>,
}

impl Occurrences {
    fn of(&self, atom: u32) -> &[u32] {
        &self.rules[self.start[atom as usize] as usize..self.start[atom as usize + 1] as usize]
    }

    /// Counting sort of `(atom, rule)` pairs into per-atom lists; rules stay
    /// in ascending order because the pairs arrive rule by rule.
    fn build(atoms: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut start = vec![0u32; atoms + 1];
        for (a, _) in pairs.clone() {
            start[a as usize + 1] += 1;
        }
        for a in 0..atoms {
            start[a + 1] += start[a];
        }
        let mut fill = start.clone();
        let mut rules = vec![0u32; start[atoms] as usize];
        for (a, r) in pairs {
            rules[fill[a as usize] as usize] = r;
            fill[a as usize] += 1;
        }
        Occurrences { start, rules }
    }
}

/// Ground rules over dense atom ids `0..atom_count`, in flat arrays.
#[derive(Debug)]
pub(crate) struct Rules {
    atom_count: usize,
    heads: Vec<u32>,
    /// Rule `r`'s body is `lits[bounds[r]..bounds[r + 1]]`: its positive
    /// atoms up to `pos_end[r]`, its negative atoms after.
    lits: Vec<u32>,
    bounds: Vec<u32>,
    pos_end: Vec<u32>,
    pos_occ: Occurrences,
    neg_occ: Occurrences,
}

/// Accumulates rules for [`Rules`].
pub(crate) struct RulesBuilder {
    heads: Vec<u32>,
    lits: Vec<u32>,
    bounds: Vec<u32>,
    pos_end: Vec<u32>,
}

impl RulesBuilder {
    pub(crate) fn new() -> Self {
        RulesBuilder {
            heads: Vec::new(),
            lits: Vec::new(),
            bounds: vec![0],
            pos_end: Vec::new(),
        }
    }

    /// Append `pos, ¬neg → head`; both bodies must be sorted and
    /// duplicate-free, so per-literal counters are exact.
    pub(crate) fn push(&mut self, head: u32, pos: &[u32], neg: &[u32]) {
        debug_assert!(pos.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(neg.windows(2).all(|w| w[0] < w[1]));
        self.heads.push(head);
        self.lits.extend_from_slice(pos);
        self.pos_end.push(self.lits.len() as u32);
        self.lits.extend_from_slice(neg);
        self.bounds.push(self.lits.len() as u32);
    }

    /// Freeze the rules over ids `0..atom_count` and index their occurrences.
    pub(crate) fn finish(self, atom_count: usize) -> Rules {
        let RulesBuilder {
            heads,
            lits,
            bounds,
            pos_end,
        } = self;
        let rule_ids = 0..heads.len() as u32;
        let pos_pairs = rule_ids.clone().flat_map(|r| {
            let (lo, hi) = (bounds[r as usize], pos_end[r as usize]);
            lits[lo as usize..hi as usize].iter().map(move |&a| (a, r))
        });
        let neg_pairs = rule_ids.flat_map(|r| {
            let (lo, hi) = (pos_end[r as usize], bounds[r as usize + 1]);
            lits[lo as usize..hi as usize].iter().map(move |&a| (a, r))
        });
        let pos_occ = Occurrences::build(atom_count, pos_pairs);
        let neg_occ = Occurrences::build(atom_count, neg_pairs);
        Rules {
            atom_count,
            heads,
            lits,
            bounds,
            pos_end,
            pos_occ,
            neg_occ,
        }
    }
}

impl Rules {
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn atom_count(&self) -> usize {
        self.atom_count
    }

    pub(crate) fn head(&self, rule: usize) -> u32 {
        self.heads[rule]
    }

    pub(crate) fn pos(&self, rule: usize) -> &[u32] {
        &self.lits[self.bounds[rule] as usize..self.pos_end[rule] as usize]
    }

    pub(crate) fn neg(&self, rule: usize) -> &[u32] {
        &self.lits[self.pos_end[rule] as usize..self.bounds[rule + 1] as usize]
    }

    /// The rules whose positive body mentions `atom`.
    pub(crate) fn pos_occ(&self, atom: u32) -> &[u32] {
        self.pos_occ.of(atom)
    }

    /// The rules whose negative body mentions `atom`.
    pub(crate) fn neg_occ(&self, atom: u32) -> &[u32] {
        self.neg_occ.of(atom)
    }

    /// The least model of the reduct made of every rule for which `excluded`
    /// is false, with negative bodies deleted, written into `model`.
    ///
    /// Forward chaining with a counter per rule: each rule waits for its
    /// positive body atoms, so the work is linear in the program size.
    pub(crate) fn least_model(
        &self,
        excluded: impl Fn(usize) -> bool,
        scratch: &mut Scratch,
        model: &mut Bits,
    ) {
        const OUT: u32 = u32::MAX;
        model.clear();
        let Scratch { counts, stack } = scratch;
        stack.clear();
        for (r, count) in counts.iter_mut().enumerate() {
            if excluded(r) {
                *count = OUT;
                continue;
            }
            *count = self.pos_end[r] - self.bounds[r];
            if *count == 0 && model.insert(self.heads[r]) {
                stack.push(self.heads[r]);
            }
        }
        while let Some(a) = stack.pop() {
            for &r in self.pos_occ(a) {
                let count = &mut counts[r as usize];
                if *count == OUT {
                    continue;
                }
                *count -= 1;
                if *count == 0 && model.insert(self.heads[r as usize]) {
                    stack.push(self.heads[r as usize]);
                }
            }
        }
    }
}

/// Reusable working memory of [`Rules::least_model`].
pub(crate) struct Scratch {
    counts: Vec<u32>,
    stack: Vec<u32>,
}

impl Scratch {
    pub(crate) fn new(rules: &Rules) -> Self {
        Scratch {
            counts: vec![0; rules.len()],
            stack: Vec::with_capacity(rules.atom_count()),
        }
    }
}

/// A ground program compiled once to dense ids: `atoms[id]` is the atom
/// with that id, and `rules` follow the program's iteration order.
pub(crate) struct DenseProgram<'a> {
    pub(crate) atoms: Vec<&'a GroundAtom>,
    pub(crate) rules: Rules,
}

impl<'a> DenseProgram<'a> {
    /// Intern every atom of `program` in first-occurrence order and store
    /// its rules with sorted, duplicate-free bodies.
    pub(crate) fn compile(program: &'a GroundProgram) -> Self {
        let mut ids: HashMap<&'a GroundAtom, u32> = HashMap::new();
        let mut atoms: Vec<&'a GroundAtom> = Vec::new();
        let mut intern = |atom: &'a GroundAtom| {
            *ids.entry(atom).or_insert_with(|| {
                atoms.push(atom);
                atoms.len() as u32 - 1
            })
        };
        let mut builder = RulesBuilder::new();
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for rule in program.iter() {
            let head = intern(&rule.head);
            for (body, out) in [(&rule.pos, &mut pos), (&rule.neg, &mut neg)] {
                out.clear();
                out.extend(body.iter().map(&mut intern));
                out.sort_unstable();
                out.dedup();
            }
            builder.push(head, &pos, &neg);
        }
        DenseProgram {
            rules: builder.finish(atoms.len()),
            atoms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;

    fn atom(name: &str) -> GroundAtom {
        GroundAtom::make(name, vec![])
    }

    #[test]
    fn bits_set_operations() {
        let mut b = Bits::new(130);
        assert!(b.insert(0) && b.insert(64) && b.insert(129));
        assert!(!b.insert(64));
        assert!(b.contains(129) && !b.contains(1));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        b.clear();
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn compile_interns_once_and_normalises_bodies() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(
                atom("h"),
                vec![atom("b"), atom("a"), atom("b")],
                vec![atom("c")],
            ),
            GroundRule::new(atom("a"), vec![], vec![atom("c"), atom("c")]),
        ]);
        let d = DenseProgram::compile(&p);
        let id = |name: &str| d.atoms.iter().position(|a| **a == atom(name)).unwrap() as u32;
        assert_eq!(d.atoms.len(), 4);
        assert_eq!(d.rules.len(), 2);
        let mut pos = [id("a"), id("b")];
        pos.sort_unstable();
        assert_eq!(d.rules.pos(0), &pos[..]);
        assert_eq!(d.rules.neg(0), &[id("c")]);
        assert_eq!(d.rules.neg(1), &[id("c")]);
        assert_eq!(d.rules.neg_occ(id("c")), &[0, 1]);
        assert_eq!(d.rules.pos_occ(id("b")), &[0]);
        assert!(d.rules.pos_occ(id("h")).is_empty());
    }

    #[test]
    fn least_model_respects_the_reduct_mask() {
        // a.  b ← a.  c ← b, ¬d.  Excluding rule 2 stops at {a, b}.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("a")),
            GroundRule::new(atom("b"), vec![atom("a")], vec![]),
            GroundRule::new(atom("c"), vec![atom("b")], vec![atom("d")]),
        ]);
        let d = DenseProgram::compile(&p);
        let mut scratch = Scratch::new(&d.rules);
        let mut model = Bits::new(d.rules.atom_count());
        d.rules.least_model(|_| false, &mut scratch, &mut model);
        assert_eq!(model.iter().count(), 3);
        d.rules.least_model(|r| r == 2, &mut scratch, &mut model);
        let names: Vec<&GroundAtom> = model.iter().map(|a| d.atoms[a as usize]).collect();
        assert_eq!(names, vec![&atom("a"), &atom("b")]);
    }
}
