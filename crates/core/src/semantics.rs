//! The output probability space of a program (Definition 3.8, Theorem 3.9).
//!
//! The sample space consists of the possible outcomes; the σ-algebra is
//! generated by the countable partition whose cells are (i) the error event
//! (infinite possible outcomes — here, together with any mass the chase
//! budget left unexplored) and (ii) one event per induced *set of stable
//! models*: all finite outcomes `Σ` with the same `sms(Σ)` belong to the same
//! event. Probabilities follow by summing `Pr(Σ)` over each cell and by
//! countable additivity for unions.

use crate::chase::ChaseResult;
use crate::ctx::Ctx;
use crate::error::CoreError;
use crate::outcome::{ModelSetKey, PossibleOutcome};
use gdlog_data::GroundAtom;
use gdlog_engine::{CancelToken, StableModelLimits};
use gdlog_prob::{EventPartition, Prob};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The output of a GDatalog¬\[Δ\] program on a database relative to a
/// grounder: the explored finite outcomes, keyed by their induced set of
/// stable models, plus the residual (error / unexplored) mass.
#[derive(Clone, Debug)]
pub struct OutputSpace {
    outcomes: Vec<(PossibleOutcome, ModelSetKey)>,
    partition: EventPartition<ModelSetKey>,
    residual: Prob,
    truncated: bool,
    interrupted: bool,
    /// [`OutputSpace::fingerprint`], computed on first use: the space never
    /// changes after construction, and every response reports it.
    fingerprint: OnceLock<String>,
}

impl OutputSpace {
    /// Build the output space from a chase enumeration by computing the
    /// stable models of every explored outcome, one search per outcome,
    /// fanned out to `ctx`'s executor.
    ///
    /// Each outcome is its own task: distinct chase leaves have distinct
    /// choice sets (Lemma 4.3(2)), so no two outcomes share a ground program
    /// `Σ ∪ G(Σ)` and there is nothing to deduplicate. The results are merged
    /// back in outcome order, so every field of the result, including
    /// [`OutputSpace::events_by_mass`] and the first error surfaced, is
    /// **bit-identical across executors**.
    ///
    /// Two cancellation regimes:
    ///
    /// * **Chase completed or hit its budget** (`result.interrupted` false):
    ///   `ctx`'s token is threaded into every stable-model search, and a
    ///   firing deadline surfaces as [`CoreError::Interrupted`] — keying is
    ///   exact-or-nothing.
    /// * **Chase was cut by the token** (`result.interrupted` true): the
    ///   enumeration is already a graceful partial result whose residual
    ///   accounts for the cut subtrees, so finalization deliberately *stops
    ///   observing* the (already fired) token and keys the explored outcomes
    ///   to completion. The cost is bounded by the outcomes explored before
    ///   the cut.
    pub fn from_chase(
        result: ChaseResult,
        limits: &StableModelLimits,
        ctx: &Ctx,
    ) -> Result<Self, CoreError> {
        let ChaseResult {
            outcomes,
            residual_mass,
            truncated,
            interrupted,
            ..
        } = result;
        let cancel = if interrupted {
            CancelToken::never()
        } else {
            ctx.cancel.clone()
        };

        // One task per outcome on a parallel executor; inline otherwise.
        // Tasks share no mutable state (each fills its own write-once cell).
        let limits = *limits;
        let cells: Vec<OnceLock<Result<ModelSetKey, CoreError>>> =
            outcomes.iter().map(|_| OnceLock::new()).collect();
        match ctx.executor.pool() {
            None => {
                for (cell, outcome) in cells.iter().zip(&outcomes) {
                    let _ = cell.set(outcome.model_set_key(&limits, &cancel));
                }
            }
            Some(pool) => {
                let cancel = &cancel;
                pool.scope(|scope| {
                    for (cell, outcome) in cells.iter().zip(&outcomes) {
                        scope.spawn(move |_| {
                            let _ = cell.set(outcome.model_set_key(&limits, cancel));
                        });
                    }
                });
            }
        }

        // Deterministic merge: outcomes move (never clone) into the keyed
        // listing in chase order; the partition aggregates one key clone per
        // outcome, nothing more.
        let keyed = outcomes
            .into_iter()
            .zip(cells)
            .map(|(outcome, cell)| {
                let key = cell
                    .into_inner()
                    .expect("every solver task fills its cell")?;
                Ok((outcome, key))
            })
            .collect::<Result<Vec<(PossibleOutcome, ModelSetKey)>, CoreError>>()?;
        // The partition's residual is the chase's own figure — authoritative
        // over `1 − explored mass`, with which it agrees up to
        // floating-point noise.
        let partition = EventPartition::from_weighted_keys(
            keyed.iter().map(|(o, k)| (k.clone(), o.probability)),
            residual_mass,
        );
        Ok(OutputSpace {
            outcomes: keyed,
            partition,
            residual: residual_mass,
            truncated,
            interrupted,
            fingerprint: OnceLock::new(),
        })
    }

    /// The explored finite outcomes with their event keys.
    pub fn outcomes(&self) -> &[(PossibleOutcome, ModelSetKey)] {
        &self.outcomes
    }

    /// Number of explored finite outcomes.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of distinct events (distinct induced sets of stable models).
    pub fn event_count(&self) -> usize {
        self.partition.len()
    }

    /// The probability mass of the event with the given key.
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        self.partition.mass_of(key)
    }

    /// Did any explored outcome produce the event with the given key?
    pub(crate) fn has_event(&self, key: &ModelSetKey) -> bool {
        self.partition.samples_of(key) > 0
    }

    /// The residual mass: the error event (infinite outcomes) plus any mass
    /// the exploration budget did not reach.
    pub fn residual_mass(&self) -> Prob {
        self.residual
    }

    /// Did the chase hit its budget? If not, [`OutputSpace::residual_mass`]
    /// is exactly the probability of the error event.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Was the chase cut short by a cancellation (deadline) rather than by
    /// its budget? The space is still an exact partial result — the residual
    /// accounts for every cut subtree — but it depends on *when* the token
    /// fired, so it is not reproducible and must never be treated as golden.
    pub fn is_interrupted(&self) -> bool {
        self.interrupted
    }

    /// Total mass of the explored events.
    pub fn explored_mass(&self) -> Prob {
        self.partition.explored_mass()
    }

    /// Probability of the (countable) union of the events selected by
    /// `predicate`.
    pub fn probability_where<F: Fn(&ModelSetKey) -> bool>(&self, predicate: F) -> Prob {
        self.partition.union_probability(predicate)
    }

    /// Probability that the program has at least one stable model (the
    /// complement, within the explored mass, of the event `sms(Σ) = ∅`).
    pub fn has_stable_model_probability(&self) -> Prob {
        self.probability_where(|k| !k.is_empty())
    }

    /// Probability that `atom` holds *cautiously*: the union of the events
    /// whose (non-empty) set of stable models all contain `atom`.
    pub fn cautious_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_where(|k| k.cautious(atom))
    }

    /// Probability that `atom` holds *bravely*: the union of the events some
    /// of whose stable models contain `atom`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_where(|k| k.brave(atom))
    }

    /// Every atom with the given predicate name occurring in any stable
    /// model (for marginal reports).
    pub fn atoms_with_predicate(&self, name: &str) -> BTreeSet<GroundAtom> {
        self.partition
            .iter()
            .flat_map(|(key, _)| key.models())
            .flatten()
            .filter(|atom| atom.predicate.name() == name)
            .cloned()
            .collect()
    }

    /// The events with their masses, sorted by decreasing mass (ties broken
    /// by the key order) — convenient for reports.
    ///
    /// The sort uses the exact total order [`Prob::total_cmp`] — rational
    /// comparison for exact masses — so dyadic ties and masses that differ
    /// only past `f64` precision order identically on every platform and at
    /// every thread count (reports diff clean across CI legs).
    pub fn events_by_mass(&self) -> Vec<(ModelSetKey, Prob)> {
        let mut v: Vec<(ModelSetKey, Prob)> = self
            .partition
            .iter()
            .map(|(k, m)| (k.clone(), m.mass))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// A deterministic fingerprint of the output space: FNV-1a over the
    /// [`OutputSpace::events_by_mass`] listing plus the outcome count — the
    /// exact scheme `bench_stable` records per `GDLOG_THREADS` leg (see
    /// [`crate::fingerprint::fnv1a_fingerprint`]), so CLI reports, scenario
    /// goldens and the bench JSONs all diff against each other. Computed
    /// once per space.
    pub fn fingerprint(&self) -> String {
        self.fingerprint
            .get_or_init(|| {
                crate::fingerprint::fnv1a_fingerprint(
                    self.events_by_mass()
                        .iter()
                        .map(|(key, mass)| format!("{key}@{mass};"))
                        .chain(std::iter::once(format!(
                            "outcomes={};",
                            self.outcome_count()
                        ))),
                )
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{enumerate_outcomes, ChaseBudget, TriggerOrder};
    use crate::program::{coin_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use std::sync::Arc;

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

    fn output_for(program: &crate::Program, db: &Database) -> OutputSpace {
        let grounder = SimpleGrounder::new(Arc::new(SigmaPi::translate(program, db).unwrap()));
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        OutputSpace::from_chase(chase, &StableModelLimits::default(), &Ctx::sequential()).unwrap()
    }

    #[test]
    fn coin_output_space_matches_section_3() {
        let space = output_for(&coin_program(), &Database::new());
        assert_eq!(space.outcome_count(), 2);
        // Two events: the empty set of stable models (heads, killed by the
        // constraint) and the two-model set (tails).
        assert_eq!(space.event_count(), 2);
        assert_eq!(space.residual_mass(), Prob::ZERO);
        assert!(!space.is_truncated());
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(1, 2));
        assert_eq!(space.explored_mass(), Prob::ONE);
        let empty_mass = space.event_probability(&ModelSetKey::empty());
        assert_eq!(empty_mass, Prob::ratio(1, 2));

        // Coin(1) holds cautiously (and bravely) exactly in the tails event.
        let coin1 = GroundAtom::make("Coin", vec![Const::Int(1)]);
        assert_eq!(space.cautious_probability(&coin1), Prob::ratio(1, 2));
        assert_eq!(space.brave_probability(&coin1), Prob::ratio(1, 2));
        // Aux1 holds bravely but not cautiously in the tails event.
        let aux1 = GroundAtom::make("Aux1", vec![]);
        assert_eq!(space.brave_probability(&aux1), Prob::ratio(1, 2));
        assert_eq!(space.cautious_probability(&aux1), Prob::ZERO);
    }

    #[test]
    fn network_domination_probability_is_0_19() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(19, 100));
        assert_eq!(
            space.probability_where(|k| k.is_empty()),
            Prob::ratio(81, 100)
        );
        assert_eq!(space.explored_mass(), Prob::ONE);
        // Uninfected(2) and Uninfected(3) can never hold in a stable model:
        // two uninfected, connected routers violate the constraint.
        let u2 = GroundAtom::make("Uninfected", vec![Const::Int(2)]);
        let u3 = GroundAtom::make("Uninfected", vec![Const::Int(3)]);
        let both = space.probability_where(|k| k.brave(&u2) && k.brave(&u3));
        assert_eq!(both, Prob::ZERO);
    }

    #[test]
    fn memoized_fingerprint_equals_a_fresh_computation() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        let fresh = crate::fingerprint::fnv1a_fingerprint(
            space
                .events_by_mass()
                .iter()
                .map(|(key, mass)| format!("{key}@{mass};"))
                .chain(std::iter::once(format!(
                    "outcomes={};",
                    space.outcome_count()
                ))),
        );
        // A clone taken before the first call computes its own value.
        let early = space.clone();
        assert_eq!(space.fingerprint(), fresh);
        assert_eq!(space.fingerprint(), fresh, "second call reads the memo");
        assert_eq!(early.fingerprint(), fresh);
        // A clone taken after it carries the memo along.
        assert_eq!(space.clone().fingerprint(), fresh);
    }

    #[test]
    fn parallel_and_cached_from_chase_match_sequential() {
        let program = network_resilience_program(0.1);
        let db = network_db();
        let grounder = SimpleGrounder::new(Arc::new(SigmaPi::translate(&program, &db).unwrap()));
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let seq = OutputSpace::from_chase(
            chase.clone(),
            &StableModelLimits::default(),
            &Ctx::sequential(),
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let ctx = Ctx::new(Arc::new(crate::Executor::new(threads)));
            let par = OutputSpace::from_chase(chase.clone(), &StableModelLimits::default(), &ctx)
                .unwrap();
            assert_eq!(par.events_by_mass(), seq.events_by_mass());
            assert_eq!(par.outcome_count(), seq.outcome_count());
            assert_eq!(par.residual_mass(), seq.residual_mass());
            for (a, b) in par.outcomes().iter().zip(seq.outcomes()) {
                assert_eq!(a.1, b.1, "per-outcome event keys must agree");
            }
        }
    }

    #[test]
    fn fact_queries_on_the_three_router_network() {
        let s = output_for(&network_resilience_program(0.1), &network_db());
        let fact = |name: &str, args: [i64; 2]| {
            GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
        };
        // Infected(1,1) is a database fact: it holds in every stable model,
        // so its cautious probability equals the domination probability.
        let infected11 = fact("Infected", [1, 1]);
        assert_eq!(s.cautious_probability(&infected11), Prob::ratio(19, 100));
        assert_eq!(s.brave_probability(&infected11), Prob::ratio(19, 100));
        // A nonsense fact has probability zero.
        assert_eq!(s.brave_probability(&fact("Infected", [9, 1])), Prob::ZERO);
        // Router 2 is infected in some dominated worlds but not all of them.
        let infected21 = fact("Infected", [2, 1]);
        let brave2 = s.brave_probability(&infected21);
        assert!(brave2.to_f64() > 0.0);
        assert!(s.cautious_probability(&infected21).to_f64() <= brave2.to_f64());
        // Marginal listing: every Infected atom of any stable model.
        let infected = s.atoms_with_predicate("Infected");
        assert!(infected.contains(&infected11) && infected.contains(&infected21));
        assert!(!infected.contains(&fact("Infected", [9, 1])));
    }

    #[test]
    fn events_by_mass_is_sorted() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        let events = space.events_by_mass();
        assert_eq!(events.len(), space.event_count());
        for w in events.windows(2) {
            assert!(w[0].1.to_f64() >= w[1].1.to_f64());
        }
        // The heaviest event is "no stable model" with mass 0.81.
        assert!(events[0].0.is_empty());
        assert_eq!(events[0].1, Prob::ratio(81, 100));
    }
}
