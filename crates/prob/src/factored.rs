//! Factored (product) outcome spaces.
//!
//! A [`FactoredSpace`] represents a probability space that is a *product* of
//! independent [`DiscreteSpace`] factors without ever materializing the flat
//! cross product: a space with factors of sizes `n₁, …, nₘ` stores
//! `n₁ + … + nₘ` samples but describes `n₁ · … · nₘ` joint outcomes. Global
//! quantities (total mass, residual mass, top-k joint outcomes) are computed
//! by per-factor lookup and exact [`Prob`] factor multiplication.
//!
//! The top-k listing uses a lazy best-first merge over per-factor index
//! tuples (a k-way generalization of pairwise merge): factors are pre-sorted
//! by descending mass, the heap starts at the all-zeros tuple (the joint
//! maximum) and each pop pushes its coordinate-successors, so only
//! `O(k·m log k)` work is done no matter how astronomically large the full
//! product is.

use crate::probability::Prob;
use crate::space::DiscreteSpace;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A product of independent discrete probability spaces.
///
/// Each factor's samples are kept sorted by descending mass (ties broken by
/// the sample key), which is the precondition for the lazy [`top_k`]
/// merge: the all-zeros index tuple is then guaranteed to be the joint
/// maximum, and incrementing any single coordinate never increases the mass.
///
/// [`top_k`]: FactoredSpace::top_k
#[derive(Clone, Debug)]
pub struct FactoredSpace<T: Ord + Clone> {
    factors: Vec<DiscreteSpace<T>>,
}

/// A heap entry of the lazy product merge: a joint index tuple and its mass.
/// Ordered by mass (descending pops first), ties broken toward the
/// lexicographically smallest tuple so the listing is deterministic.
struct Candidate {
    mass: Prob,
    indices: Vec<usize>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: larger mass wins; among equal masses the
        // smaller index tuple must pop first, so reverse the tuple order.
        self.mass
            .total_cmp(&other.mass)
            .then_with(|| other.indices.cmp(&self.indices))
    }
}

impl<T: Ord + Clone> FactoredSpace<T> {
    /// Build a factored space, sorting each factor's samples into the
    /// canonical (mass-descending, key-ascending) order the lazy merge
    /// relies on.
    pub fn from_factors(factors: Vec<DiscreteSpace<T>>) -> Self {
        let factors = factors
            .into_iter()
            .map(|f| {
                let mut samples: Vec<(T, Prob)> = f.iter().cloned().collect();
                samples.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                DiscreteSpace::from_samples(samples)
            })
            .collect();
        FactoredSpace { factors }
    }

    /// Number of factors.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The factors, each sorted by descending mass.
    pub fn factors(&self) -> &[DiscreteSpace<T>] {
        &self.factors
    }

    /// One factor by index.
    pub fn factor(&self, i: usize) -> &DiscreteSpace<T> {
        &self.factors[i]
    }

    /// Total explored mass: the product of the per-factor explored masses
    /// (exactly one when every factor was fully explored). The empty product
    /// is one, matching the flat convention for a space with no choices.
    pub fn total_mass(&self) -> Prob {
        Prob::product(self.factors.iter().map(|f| f.total_mass()))
    }

    /// Unexplored mass: `1 − total_mass()`, clamped at zero against float
    /// dust from approximate factors.
    pub fn residual_mass(&self) -> Prob {
        let r = Prob::ONE.sub(&self.total_mass());
        if r.to_f64() < 0.0 {
            Prob::ZERO
        } else {
            r
        }
    }

    /// Number of joint samples the flat cross product would hold, saturating
    /// at `u128::MAX` (a `coin_farm_n100`-style space has `2^100` of them —
    /// the whole point is never to enumerate these).
    pub fn combined_samples(&self) -> u128 {
        self.factors
            .iter()
            .fold(1u128, |acc, f| acc.saturating_mul(f.len() as u128))
    }

    /// Sum of the per-factor sample counts — the number of samples actually
    /// stored.
    pub fn stored_samples(&self) -> usize {
        self.factors.iter().map(|f| f.len()).sum()
    }

    /// The `k` heaviest joint samples, each as one sample reference per
    /// factor with the exact product mass, in (mass-descending,
    /// index-tuple-ascending) order — computed by the lazy best-first merge
    /// without materializing the cross product.
    ///
    /// Returns fewer than `k` entries only when the whole product has fewer;
    /// an empty factor makes the product empty.
    pub fn top_k(&self, k: usize) -> Vec<(Vec<&T>, Prob)> {
        if k == 0 || self.factors.iter().any(|f| f.is_empty()) {
            return Vec::new();
        }
        let samples: Vec<Vec<&(T, Prob)>> =
            self.factors.iter().map(|f| f.iter().collect()).collect();
        let n = samples.len();

        let mut heap = BinaryHeap::new();
        let mut visited: HashSet<Vec<usize>> = HashSet::new();
        let root = vec![0usize; n];
        visited.insert(root.clone());
        heap.push(Candidate {
            mass: Prob::product(samples.iter().map(|s| s[0].1)),
            indices: root,
        });

        // Per pop, `prefix[f]` and `suffix[f]` are the products of the popped
        // tuple's masses before and from factor `f`, so each successor's mass
        // costs two multiplications instead of an `n`-factor product.
        let mut prefix = vec![Prob::ONE; n + 1];
        let mut suffix = vec![Prob::ONE; n + 1];
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let Some(Candidate { mass, indices }) = heap.pop() else {
                break;
            };
            for (f, &i) in indices.iter().enumerate() {
                prefix[f + 1] = prefix[f].mul(&samples[f][i].1);
            }
            for (f, &i) in indices.iter().enumerate().rev() {
                suffix[f] = samples[f][i].1.mul(&suffix[f + 1]);
            }
            for (f, &i) in indices.iter().enumerate() {
                if i + 1 < samples[f].len() {
                    let mut next = indices.clone();
                    next[f] = i + 1;
                    if visited.insert(next.clone()) {
                        heap.push(Candidate {
                            mass: prefix[f].mul(&samples[f][i + 1].1).mul(&suffix[f + 1]),
                            indices: next,
                        });
                    }
                }
            }
            let parts = indices
                .iter()
                .enumerate()
                .map(|(f, &i)| &samples[f][i].0)
                .collect();
            out.push((parts, mass));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(head_mass: Prob) -> DiscreteSpace<&'static str> {
        let mut s = DiscreteSpace::new();
        s.push("H", head_mass);
        s.push("T", head_mass.complement());
        s
    }

    #[test]
    fn product_masses_and_counts() {
        let space = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 2)),
            coin(Prob::ratio(1, 4)),
            coin(Prob::ratio(1, 8)),
        ]);
        assert_eq!(space.factor_count(), 3);
        assert_eq!(space.total_mass(), Prob::ONE);
        assert_eq!(space.residual_mass(), Prob::ZERO);
        assert_eq!(space.combined_samples(), 8);
        assert_eq!(space.stored_samples(), 6);
    }

    #[test]
    fn top_k_is_the_lazy_joint_maximum_walk() {
        let space = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 4)),  // sorted: T 3/4, H 1/4
            coin(Prob::ratio(1, 10)), // sorted: T 9/10, H 1/10
        ]);
        let top = space.top_k(4);
        assert_eq!(top.len(), 4);
        // (T,T) 27/40, (T,H) 3/40·... compute: 3/4·9/10=27/40, 3/4·1/10=3/40,
        // 1/4·9/10=9/40, 1/4·1/10=1/40.
        assert_eq!(top[0].0, vec![&"T", &"T"]);
        assert_eq!(top[0].1, Prob::ratio(27, 40));
        assert_eq!(top[1].0, vec![&"H", &"T"]);
        assert_eq!(top[1].1, Prob::ratio(9, 40));
        assert_eq!(top[2].0, vec![&"T", &"H"]);
        assert_eq!(top[2].1, Prob::ratio(3, 40));
        assert_eq!(top[3].0, vec![&"H", &"H"]);
        assert_eq!(top[3].1, Prob::ratio(1, 40));
    }

    #[test]
    fn top_k_stops_at_the_product_size_and_handles_empties() {
        let space = FactoredSpace::from_factors(vec![coin(Prob::ratio(1, 2))]);
        assert_eq!(space.top_k(10).len(), 2);
        assert_eq!(space.top_k(0).len(), 0);
        let empty = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 2)),
            DiscreteSpace::<&'static str>::new(),
        ]);
        assert_eq!(empty.combined_samples(), 0);
        assert!(empty.top_k(3).is_empty());
    }

    #[test]
    fn huge_products_never_materialize() {
        // 100 fair coins: 2^100 joint samples; top_k(5) must answer
        // instantly with exact dyadic masses.
        let factors: Vec<_> = (0..100).map(|_| coin(Prob::ratio(1, 2))).collect();
        let space = FactoredSpace::from_factors(factors);
        assert_eq!(space.combined_samples(), 1u128 << 100);
        assert_eq!(space.total_mass(), Prob::ONE);
        let top = space.top_k(5);
        assert_eq!(top.len(), 5);
        for (_, mass) in &top {
            assert!(mass.is_exact(), "dyadic product degraded to float");
        }
        // All 2^100 joint samples are equally likely: each mass is 1/2^100.
        assert_eq!(top[0].1, top[4].1);
        // Saturation: 200 ternary factors overflow u128.
        let mut big = DiscreteSpace::new();
        big.push("a", Prob::ratio(1, 3));
        big.push("b", Prob::ratio(1, 3));
        big.push("c", Prob::ratio(1, 3));
        let sat = FactoredSpace::from_factors((0..200).map(|_| big.clone()).collect());
        assert_eq!(sat.combined_samples(), u128::MAX);
    }

    #[test]
    fn residual_mass_multiplies_truncated_factors() {
        let mut truncated = DiscreteSpace::new();
        truncated.push("seen", Prob::ratio(3, 4)); // 1/4 unexplored
        let space = FactoredSpace::from_factors(vec![truncated.clone(), coin(Prob::ratio(1, 2))]);
        assert_eq!(space.total_mass(), Prob::ratio(3, 4));
        assert_eq!(space.residual_mass(), Prob::ratio(1, 4));
        let both = FactoredSpace::from_factors(vec![truncated.clone(), truncated]);
        assert_eq!(both.total_mass(), Prob::ratio(9, 16));
        assert_eq!(both.residual_mass(), Prob::ratio(7, 16));
    }

    #[test]
    fn top_k_matches_a_brute_force_sort_of_the_product() {
        // 12 factors of masses [1/2, 1/4, 1/4]: 3^12 joint samples with
        // heavy mass ties, so the tie order is exercised at every depth.
        let masses = [Prob::ratio(1, 2), Prob::ratio(1, 4), Prob::ratio(1, 4)];
        let factor = DiscreteSpace::from_samples(masses.iter().copied().enumerate());
        let space = FactoredSpace::from_factors(vec![factor; 12]);
        let mut all: Vec<(Vec<usize>, Prob)> = (0..3usize.pow(12))
            .map(|mut code| {
                let tuple: Vec<usize> = (0..12)
                    .map(|_| {
                        let i = code % 3;
                        code /= 3;
                        i
                    })
                    .rev()
                    .collect();
                let mass = Prob::product(tuple.iter().map(|&i| masses[i]));
                (tuple, mass)
            })
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let k = 600;
        let top: Vec<(Vec<usize>, Prob)> = space
            .top_k(k)
            .into_iter()
            .map(|(parts, mass)| (parts.into_iter().copied().collect(), mass))
            .collect();
        assert_eq!(top, all[..k]);
        for (tuple, mass) in &top {
            assert!(mass.is_exact());
            assert_eq!(*mass, Prob::product(tuple.iter().map(|&i| masses[i])));
        }
    }

    #[test]
    fn ties_resolve_toward_the_smaller_index_tuple() {
        // Two identical fair coins: four equal-mass joint samples; the
        // listing must be in index (hence key) order, deterministically.
        let space =
            FactoredSpace::from_factors(vec![coin(Prob::ratio(1, 2)), coin(Prob::ratio(1, 2))]);
        let keys: Vec<Vec<&&str>> = space.top_k(4).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                vec![&"H", &"H"],
                vec![&"H", &"T"],
                vec![&"T", &"H"],
                vec![&"T", &"T"],
            ]
        );
    }
}
