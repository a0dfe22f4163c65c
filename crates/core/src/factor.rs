//! Chase-independence analysis and factored output spaces.
//!
//! The flat pipeline enumerates every joint configuration of probabilistic
//! choices — `2^n` outcomes for `n` independent coins. But when the ground
//! program splits into sub-programs with disjoint atom dependencies, the
//! chase itself factorizes: choices in one component can never influence
//! rule firings, constraints or stable models in another, so the output
//! space is exactly the *product* of the per-component output spaces
//! (the chase analogue of the SCC split the stable-model search already
//! performs per outcome).
//!
//! The analysis proceeds in three steps:
//!
//! 1. **Universe saturation** (`saturate_universe`): a least fixpoint over
//!    `Σ∄_Π[D]` that over-approximates every ground atom derivable in *any*
//!    chase branch. Negative literals are ignored (deriving more atoms only
//!    merges components — always sound) and every reachable `Active` atom is
//!    expanded to all of its budget-capped outcomes, exactly the branches
//!    the real chase would explore.
//! 2. **Component partition** ([`analyze`]): every ground rule instance
//!    contributes star edges `head — body atom` (negative atoms only when
//!    they are derivable, i.e. in the universe; underivable negative
//!    literals are vacuously true everywhere and carry no dependency), and
//!    every AtR pair contributes `active — result` edges. Connected
//!    components of this graph are chase-independent sub-programs.
//! 3. **Per-component chase** (`Pipeline::solve_factored_with_analysis`):
//!    each component is chased on its own slice of `Σ_Π[D]` — every non-fact
//!    rule and AtR schema, but only the fact rules whose heads lie in the
//!    component. Every ground rule instance has its footprint inside one
//!    component, so grounding from the component's facts derives exactly
//!    the component's share of each flat outcome's rules, and the chase
//!    branches only over the component's own choices.
//!
//! Soundness of the product measure: every ground rule instance has its full
//! footprint (head, positive body, derivable negative body) inside one
//! component, so each flat outcome's program is the disjoint union of the
//! per-component programs, its probability is the product of the component
//! probabilities (choices are independent), and by the splitting theorem
//! its stable models are exactly the unions of per-component stable models.
//! Budget interaction: each component is explored under the full
//! [`ChaseBudget`], so the joint explored mass is the *product* of the
//! per-component explored masses and the joint residual is
//! `1 − ∏ exploredᵢ` — a factored run can be exact (residual zero) where
//! the flat enumeration would blow `max_outcomes` long before finishing.
//! `min_path_probability` cuts are *joint*-mass cuts and do not factorize;
//! the analysis falls back to the flat path when one is set.

use crate::analyze::{certainly_single_trigger, StaticComponents};
use crate::chase::ChaseBudget;
use crate::ctx::Ctx;
use crate::error::CoreError;
use crate::outcome::ModelSetKey;
use crate::semantics::OutputSpace;
use crate::simple_grounder::instantiate;
use crate::translate::{AtrSchema, SigmaPi, TgdRule};
use gdlog_data::{match_atoms_indexed, Database, GroundAtom};
use gdlog_engine::{connected_components, CancelToken, GroundProgram, GroundRule};
use gdlog_prob::{DiscreteSpace, FactoredSpace, Prob};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Safety valve for the universe fixpoint: programs whose over-approximated
/// atom universe exceeds this bound fall back to the flat path rather than
/// spend unbounded analysis time.
const UNIVERSE_ATOM_CAP: usize = 200_000;

/// Extra joint events fetched beyond `k` by [`FactoredOutputSpace::events_by_mass_top`]
/// so equal-mass ties at the cut can be re-sorted into the flat
/// (mass-descending, key-ascending) order.
const TOP_K_TIE_SLACK: usize = 64;

/// One chase-independent component: the ground atoms that can only be
/// derived inside it, and the `Active` atoms (triggers) among them.
#[derive(Clone, Debug)]
pub struct ChaseComponent {
    /// Every universe atom of the component.
    pub atoms: BTreeSet<GroundAtom>,
    /// The component's `Active` atoms — the only triggers its chase applies.
    pub triggers: BTreeSet<GroundAtom>,
}

/// The over-approximated derivable universe: all atoms, all deduplicated
/// ground rule instances, and all `active → results` expansions.
struct Universe {
    heads: Database,
    instances: Vec<GroundRule>,
    atr_pairs: Vec<(GroundAtom, Vec<GroundAtom>)>,
}

/// Least fixpoint over a group of `sigma.rules` (facts are bodyless rules,
/// so they are covered), ignoring negative bodies and expanding every
/// reachable `Active` atom to its first `budget.max_branching` outcomes —
/// the same truncation the chase applies, so the universe covers every
/// explored branch.
///
/// The caller passes the rules and AtR schemas of one *static* predicate
/// component (see [`StaticComponents`]); a rule can only match and derive
/// atoms whose predicates lie in its own component, so per-group fixpoints
/// produce exactly the same universe as one global fixpoint — the static
/// analysis *seeds* the dynamic one.
///
/// Returns `Ok(None)` (flat fallback) when a distribution errors (the flat
/// path will surface it) or the universe exceeds `cap` atoms.
fn saturate_group(
    rules: &[&TgdRule],
    schemas: &[&AtrSchema],
    budget: &ChaseBudget,
    cap: usize,
    cancel: &CancelToken,
) -> Result<Option<Universe>, CoreError> {
    let mut derived = GroundProgram::new();
    let mut heads = Database::new();
    let mut expanded: BTreeSet<GroundAtom> = BTreeSet::new();
    let mut atr_pairs: Vec<(GroundAtom, Vec<GroundAtom>)> = Vec::new();

    loop {
        // Factor saturation rounds are cancellation checkpoints; a cancelled
        // analysis cannot fall back to the flat path (the flat chase would
        // just burn the rest of the deadline), so it surfaces as a typed
        // interruption.
        if cancel.is_cancelled() {
            return Err(CoreError::Interrupted("factor analysis".into()));
        }
        let mut changed = false;

        // Expand every newly derived Active atom to all its outcomes.
        for schema in schemas {
            let actives: Vec<GroundAtom> = heads
                .atoms_of(&schema.active)
                .filter(|a| !expanded.contains(*a))
                .cloned()
                .collect();
            for active in actives {
                let outcomes = match schema.outcomes(&active, budget.max_branching) {
                    Ok(o) => o,
                    Err(_) => return Ok(None),
                };
                let mut results = Vec::with_capacity(outcomes.len());
                for (outcome, _) in outcomes {
                    let result = schema.result_atom(&active, outcome);
                    heads.insert(result.clone());
                    results.push(result);
                }
                expanded.insert(active.clone());
                atr_pairs.push((active, results));
                changed = true;
            }
        }

        // One indexed pass of every rule against all heads; negative literals
        // are ignored (over-approximation).
        let mut new_rules: Vec<GroundRule> = Vec::new();
        for rule in rules {
            for h in match_atoms_indexed(&rule.pos, &heads) {
                instantiate(rule, &h, None, &mut new_rules);
            }
        }
        for rule in new_rules {
            let head = rule.head.clone();
            if derived.push(rule) {
                heads.insert(head);
                changed = true;
            }
        }

        if heads.len() > cap {
            return Ok(None);
        }
        if !changed {
            break;
        }
    }

    Ok(Some(Universe {
        instances: derived.iter().cloned().collect(),
        heads,
        atr_pairs,
    }))
}

/// Partition the universe into connected components of the dependency
/// graph: star edges `head — footprint atom` per rule instance plus
/// `active — result` edges per AtR expansion.
fn partition(sigma: &SigmaPi, universe: &Universe) -> Vec<ChaseComponent> {
    let atoms: Vec<GroundAtom> = universe.heads.canonical_atoms();
    let index: BTreeMap<&GroundAtom, usize> =
        atoms.iter().enumerate().map(|(i, a)| (a, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); atoms.len()];
    for rule in &universe.instances {
        let hub = index[&rule.head];
        for atom in rule.pos.iter().chain(rule.neg.iter()) {
            // Negative atoms outside the universe can never be derived: the
            // literal is vacuously true in every component, no dependency.
            if let Some(&i) = index.get(atom) {
                adj[hub].push(i);
            }
        }
    }
    for (active, results) in &universe.atr_pairs {
        let hub = index[active];
        for result in results {
            adj[hub].push(index[result]);
        }
    }
    connected_components(atoms.len(), &adj)
        .into_iter()
        .map(|vs| {
            let set: BTreeSet<GroundAtom> = vs.iter().map(|&v| atoms[v].clone()).collect();
            let triggers = set
                .iter()
                .filter(|a| sigma.is_active_predicate(&a.predicate))
                .cloned()
                .collect();
            ChaseComponent {
                atoms: set,
                triggers,
            }
        })
        .collect()
}

/// How [`analyze`] reached its verdict: `Static` means the static
/// predicate-level analysis alone decided (no universe saturation ran at
/// all), `Dynamic` means saturation ran (seeded per static component).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorAnalysis {
    /// Decided without any saturation: a `min_path_probability` cut is set,
    /// or [`certainly_single_trigger`] proved the flat fallback.
    Static,
    /// The saturation-based analysis ran, seeded by the static components.
    Dynamic,
}

impl FactorAnalysis {
    /// Lowercase label for reports (`static` / `dynamic`).
    pub fn label(&self) -> &'static str {
        match self {
            FactorAnalysis::Static => "static",
            FactorAnalysis::Dynamic => "dynamic",
        }
    }
}

/// The chase-independence analysis: the components an independent
/// per-component chase would run, or `None` when the program should take
/// the flat path — fewer than two trigger-bearing components, a positive
/// `min_path_probability` (joint-mass cuts do not factorize), a
/// distribution error, or a universe beyond the analysis cap — plus the
/// [`FactorAnalysis`] verdict describing how it was reached.
///
/// Trigger-free components (the deterministic skeleton: facts and atoms
/// derivable without any choice) are merged into one final factor so that
/// every rule of every outcome lands in exactly one factor.
///
/// Static short-circuits (no saturation): a positive `min_path_probability`
/// (joint-mass cuts never factorize) or the [`certainly_single_trigger`]
/// certificate (at most one trigger means at most one trigger-bearing
/// component, which is exactly the dynamic analysis's flat-fallback
/// condition — skipping saturation cannot change the outcome).
///
/// Otherwise the saturation fixpoint runs once per *static* component
/// (rules and AtR schemas grouped by [`StaticComponents`]; every rule's
/// predicates share one static component by construction, so the grouped
/// fixpoints reproduce the global universe exactly), the per-group ground
/// partitions are concatenated and re-sorted into the canonical
/// smallest-atom order, and the usual trigger-bearing/base split applies —
/// byte-identical components to the unseeded global analysis.
///
/// `ctx`'s token is checked once per universe-saturation round. A cancelled
/// analysis returns [`CoreError::Interrupted`] rather than silently taking
/// the flat fallback (which would start a full flat chase against an
/// already-expired deadline).
pub fn analyze(
    sigma: &SigmaPi,
    budget: &ChaseBudget,
    ctx: &Ctx,
) -> Result<(Option<Vec<ChaseComponent>>, FactorAnalysis), CoreError> {
    if budget.min_path_probability > 0.0 {
        return Ok((None, FactorAnalysis::Static));
    }
    if certainly_single_trigger(sigma) {
        return Ok((None, FactorAnalysis::Static));
    }

    // Seed the dynamic analysis: group Σ∄ rules and AtR schemas by static
    // predicate component and saturate each group independently.
    let statics = StaticComponents::of_sigma(sigma);
    let mut groups: BTreeMap<usize, (Vec<&TgdRule>, Vec<&AtrSchema>)> = BTreeMap::new();
    for rule in &sigma.rules {
        let c = statics
            .component_of(&rule.head.predicate)
            .expect("every rule head is a static-graph vertex");
        groups.entry(c).or_default().0.push(rule);
    }
    for schema in &sigma.atr_schemas {
        let c = statics
            .component_of(&schema.active)
            .expect("every Active predicate is a static-graph vertex");
        groups.entry(c).or_default().1.push(schema);
    }

    let mut raw: Vec<ChaseComponent> = Vec::new();
    let mut cap = UNIVERSE_ATOM_CAP;
    for (rules, schemas) in groups.values() {
        let Some(universe) = saturate_group(rules, schemas, budget, cap, &ctx.cancel)? else {
            return Ok((None, FactorAnalysis::Dynamic));
        };
        cap = cap.saturating_sub(universe.heads.len());
        raw.extend(partition(sigma, &universe));
    }
    // Canonical order: by smallest atom, as the global partition produces.
    raw.sort_by(|a, b| a.atoms.first().cmp(&b.atoms.first()));

    let (with_triggers, without): (Vec<_>, Vec<_>) =
        raw.into_iter().partition(|c| !c.triggers.is_empty());
    if with_triggers.len() <= 1 {
        return Ok((None, FactorAnalysis::Dynamic));
    }
    let mut components = with_triggers;
    if !without.is_empty() {
        components.push(ChaseComponent {
            atoms: without.into_iter().flat_map(|c| c.atoms).collect(),
            triggers: BTreeSet::new(),
        });
    }
    Ok((Some(components), FactorAnalysis::Dynamic))
}

/// A mass difference clamped at zero against float dust.
fn clamp_at_zero(p: Prob) -> Prob {
    if p.to_f64() < 0.0 {
        Prob::ZERO
    } else {
        p
    }
}

/// One solved factor: the component's atoms and its output space.
pub struct Factor {
    /// The component's universe atoms (for routing query atoms to factors).
    pub atoms: BTreeSet<GroundAtom>,
    /// The component's own output probability space.
    pub space: OutputSpace,
}

/// The product of per-component output spaces — never materialized into a
/// flat cross product. All queries answer by per-factor lookup and exact
/// [`Prob`] factor multiplication.
pub struct FactoredOutputSpace {
    factors: Vec<Factor>,
    /// Every factor atom → its factor, for routing query atoms.
    factor_of: HashMap<GroundAtom, usize>,
    /// Per factor: `P(sms ≠ ∅)` within the explored mass.
    nonempty: Vec<Prob>,
    /// Per factor: explored mass.
    explored: Vec<Prob>,
}

impl FactoredOutputSpace {
    /// Assemble the product space, caching the per-factor nonempty and
    /// explored masses every query multiplies with and the atom → factor
    /// routing table.
    pub fn new(factors: Vec<Factor>) -> Self {
        let nonempty = factors
            .iter()
            .map(|f| f.space.has_stable_model_probability())
            .collect();
        let explored = factors.iter().map(|f| f.space.explored_mass()).collect();
        let factor_of = factors
            .iter()
            .enumerate()
            .flat_map(|(i, f)| f.atoms.iter().map(move |a| (a.clone(), i)))
            .collect();
        FactoredOutputSpace {
            factors,
            factor_of,
            nonempty,
            explored,
        }
    }

    /// Number of factors.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Joint outcomes the flat chase would have enumerated: the product of
    /// the per-factor outcome counts, saturating at `u128::MAX`.
    pub fn combined_outcomes(&self) -> u128 {
        self.factors.iter().fold(1u128, |acc, f| {
            acc.saturating_mul(f.space.outcome_count() as u128)
        })
    }

    /// Outcomes actually stored: the *sum* of the per-factor counts.
    pub fn stored_outcomes(&self) -> usize {
        self.factors.iter().map(|f| f.space.outcome_count()).sum()
    }

    /// Distinct joint events. Nonempty joint keys are in bijection with
    /// tuples of nonempty per-factor keys (projecting onto the disjoint atom
    /// sets recovers the tuple); every tuple with at least one empty key
    /// collapses into the single "no stable model" event.
    pub fn combined_events(&self) -> u128 {
        let mut nonempty_product = 1u128;
        let mut any_empty = false;
        for f in &self.factors {
            let events = f.space.event_count();
            let has_empty = f.space.has_event(&ModelSetKey::empty());
            any_empty |= has_empty;
            nonempty_product =
                nonempty_product.saturating_mul((events - usize::from(has_empty)) as u128);
        }
        nonempty_product.saturating_add(u128::from(any_empty))
    }

    /// Explored joint mass: the product of the per-factor explored masses.
    pub fn explored_mass(&self) -> Prob {
        Prob::product(self.explored.iter().copied())
    }

    /// Joint residual: `1 − ∏ exploredᵢ`, clamped at zero against float dust.
    pub fn residual_mass(&self) -> Prob {
        clamp_at_zero(Prob::ONE.sub(&self.explored_mass()))
    }

    /// Did any factor's chase hit its budget?
    pub fn is_truncated(&self) -> bool {
        self.factors.iter().any(|f| f.space.is_truncated())
    }

    /// Was any factor's chase cut short by cancellation? Interrupted results
    /// are timing-dependent and must never be treated as golden.
    pub fn is_interrupted(&self) -> bool {
        self.factors.iter().any(|f| f.space.is_interrupted())
    }

    /// `P(sms ≠ ∅)` of the joint program: a union of disjoint programs has a
    /// stable model iff every part does, so the per-factor probabilities
    /// multiply.
    pub fn has_stable_model_probability(&self) -> Prob {
        Prob::product(self.nonempty.iter().copied())
    }

    /// `P(every listed atom is brave in the joint key)`: a joint model is a
    /// union of per-factor models, so atom `a` of factor `j` is in some
    /// joint model iff it is in some factor-`j` model *and* every other
    /// factor is nonempty. Atoms sharing a factor must be witnessed jointly
    /// within it; an atom in no factor is underivable and the probability is
    /// zero.
    pub fn probability_brave_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, |key, group| group.iter().all(|a| key.brave(a)))
    }

    /// `P(every listed atom is cautious in the joint key)` — the same
    /// factor-wise decomposition with the cautious test per factor.
    pub fn probability_cautious_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, |key, group| group.iter().all(|a| key.cautious(a)))
    }

    fn probability_grouped<F>(&self, atoms: &[GroundAtom], test: F) -> Prob
    where
        F: Fn(&ModelSetKey, &[&GroundAtom]) -> bool,
    {
        let mut by_factor: BTreeMap<usize, Vec<&GroundAtom>> = BTreeMap::new();
        for atom in atoms {
            match self.factor_of.get(atom) {
                Some(&j) => by_factor.entry(j).or_default().push(atom),
                None => return Prob::ZERO,
            }
        }
        let mut p = Prob::ONE;
        for (i, f) in self.factors.iter().enumerate() {
            let factor_mass = match by_factor.get(&i) {
                Some(group) => f.space.probability_where(|k| test(k, group)),
                None => self.nonempty[i],
            };
            p = p.mul(&factor_mass);
        }
        p
    }

    /// `P(atom ∈ some joint stable model)`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_brave_all(std::slice::from_ref(atom))
    }

    /// `P(atom ∈ every joint stable model, and one exists)`.
    pub fn cautious_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_cautious_all(std::slice::from_ref(atom))
    }

    /// Probability mass of one joint event. The empty key is the union of
    /// every tuple with at least one empty factor: `∏ exploredᵢ − ∏ nonemptyᵢ`.
    /// A nonempty key is a product event iff the product of its per-factor
    /// projections reconstructs it, with mass the product of the projection
    /// masses; any other key has mass zero.
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        if key.is_empty() {
            return clamp_at_zero(
                self.explored_mass()
                    .sub(&self.has_stable_model_probability()),
            );
        }
        let mut mass = Prob::ONE;
        let mut projections: Vec<ModelSetKey> = Vec::with_capacity(self.factors.len());
        for f in &self.factors {
            let projection = key.filter_atoms(|a| f.atoms.contains(a));
            mass = mass.mul(&f.space.event_probability(&projection));
            projections.push(projection);
        }
        let refs: Vec<&ModelSetKey> = projections.iter().collect();
        if ModelSetKey::product(&refs) != *key {
            return Prob::ZERO;
        }
        mass
    }

    /// The `k` heaviest joint events in the flat (mass-descending,
    /// key-ascending) order, computed by the lazy k-way product merge of
    /// [`FactoredSpace`] over the per-factor *nonempty* events — plus the
    /// single collapsed "no stable model" event with its closed-form mass.
    ///
    /// Equal-mass ties are normalized by fetching `TOP_K_TIE_SLACK` extra
    /// candidates and re-sorting; the listing matches the flat
    /// `events_by_mass` prefix exactly whenever the tie class crossing the
    /// cut fits in the slack (always true when `k` covers all events).
    pub fn events_by_mass_top(&self, k: usize) -> Vec<(ModelSetKey, Prob)> {
        if k == 0 {
            return Vec::new();
        }
        let spaces: Vec<DiscreteSpace<ModelSetKey>> = self
            .factors
            .iter()
            .map(|f| {
                let mut s = DiscreteSpace::new();
                for (key, mass) in f.space.events_by_mass() {
                    if !key.is_empty() {
                        s.push(key, mass);
                    }
                }
                s
            })
            .collect();
        let product = FactoredSpace::from_factors(spaces);
        let mut out: Vec<(ModelSetKey, Prob)> = product
            .top_k(k.saturating_add(TOP_K_TIE_SLACK))
            .into_iter()
            .map(|(parts, mass)| (ModelSetKey::product(&parts), mass))
            .collect();
        let empty_mass = self.event_probability(&ModelSetKey::empty());
        if empty_mass.is_positive() {
            out.push((ModelSetKey::empty(), empty_mass));
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Every atom with the given predicate name occurring in any factor's
    /// stable models (for marginal reports).
    pub fn atoms_with_predicate(&self, name: &str) -> BTreeSet<GroundAtom> {
        self.factors
            .iter()
            .flat_map(|f| f.space.atoms_with_predicate(name))
            .collect()
    }

    /// A deterministic fingerprint of the product space: FNV-1a over the
    /// per-factor [`OutputSpace::fingerprint`]s plus the factor count.
    pub fn fingerprint(&self) -> String {
        crate::fingerprint::fnv1a_fingerprint(
            self.factors
                .iter()
                .map(|f| format!("factor={};", f.space.fingerprint()))
                .chain(std::iter::once(format!("factors={};", self.factors.len()))),
        )
    }
}

/// The result of [`crate::Pipeline::solve_factored_with_analysis`]: the flat
/// space when the program has at most one trigger-bearing component
/// (byte-for-byte today's path), the factored product otherwise. Queries
/// delegate so callers need not branch.
pub enum FactoredSolve {
    /// The program did not factor; this is exactly [`crate::Pipeline::solve`]'s
    /// output.
    Flat(OutputSpace),
    /// The product of per-component output spaces.
    Product(FactoredOutputSpace),
}

impl FactoredSolve {
    /// Number of factors (one on the flat path).
    pub fn factor_count(&self) -> usize {
        match self {
            FactoredSolve::Flat(_) => 1,
            FactoredSolve::Product(p) => p.factor_count(),
        }
    }

    /// Did the factored path run?
    pub fn is_factored(&self) -> bool {
        matches!(self, FactoredSolve::Product(_))
    }

    /// The flat space, when the program did not factor.
    pub fn as_flat(&self) -> Option<&OutputSpace> {
        match self {
            FactoredSolve::Flat(s) => Some(s),
            FactoredSolve::Product(_) => None,
        }
    }

    /// The product space, when the program factored.
    pub fn as_product(&self) -> Option<&FactoredOutputSpace> {
        match self {
            FactoredSolve::Flat(_) => None,
            FactoredSolve::Product(p) => Some(p),
        }
    }

    /// Joint outcomes described (flat: enumerated; factored: the product of
    /// per-factor counts, saturating at `u128::MAX`).
    pub fn combined_outcomes(&self) -> u128 {
        match self {
            FactoredSolve::Flat(s) => s.outcome_count() as u128,
            FactoredSolve::Product(p) => p.combined_outcomes(),
        }
    }

    /// Distinct joint events described.
    pub fn combined_events(&self) -> u128 {
        match self {
            FactoredSolve::Flat(s) => s.event_count() as u128,
            FactoredSolve::Product(p) => p.combined_events(),
        }
    }

    /// `P(sms ≠ ∅)` of the joint program.
    pub fn has_stable_model_probability(&self) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.has_stable_model_probability(),
            FactoredSolve::Product(p) => p.has_stable_model_probability(),
        }
    }

    /// Explored joint mass.
    pub fn explored_mass(&self) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.explored_mass(),
            FactoredSolve::Product(p) => p.explored_mass(),
        }
    }

    /// Unexplored joint mass.
    pub fn residual_mass(&self) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.residual_mass(),
            FactoredSolve::Product(p) => p.residual_mass(),
        }
    }

    /// Did any chase hit its budget?
    pub fn is_truncated(&self) -> bool {
        match self {
            FactoredSolve::Flat(s) => s.is_truncated(),
            FactoredSolve::Product(p) => p.is_truncated(),
        }
    }

    /// Was any chase cut short by cancellation (a deadline) rather than by
    /// its budget?
    pub fn is_interrupted(&self) -> bool {
        match self {
            FactoredSolve::Flat(s) => s.is_interrupted(),
            FactoredSolve::Product(p) => p.is_interrupted(),
        }
    }

    /// `P(atom ∈ some joint stable model)`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.brave_probability(atom),
            FactoredSolve::Product(p) => p.brave_probability(atom),
        }
    }

    /// `P(atom ∈ every joint stable model, and one exists)`.
    pub fn cautious_probability(&self, atom: &GroundAtom) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.cautious_probability(atom),
            FactoredSolve::Product(p) => p.cautious_probability(atom),
        }
    }

    /// `P(every listed atom is brave)`.
    pub fn probability_brave_all(&self, atoms: &[GroundAtom]) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.probability_where(|k| atoms.iter().all(|a| k.brave(a))),
            FactoredSolve::Product(p) => p.probability_brave_all(atoms),
        }
    }

    /// `P(every listed atom is cautious)`.
    pub fn probability_cautious_all(&self, atoms: &[GroundAtom]) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.probability_where(|k| atoms.iter().all(|a| k.cautious(a))),
            FactoredSolve::Product(p) => p.probability_cautious_all(atoms),
        }
    }

    /// Probability mass of one joint event.
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        match self {
            FactoredSolve::Flat(s) => s.event_probability(key),
            FactoredSolve::Product(p) => p.event_probability(key),
        }
    }

    /// The `k` heaviest joint events in (mass-descending, key-ascending)
    /// order.
    pub fn events_by_mass_top(&self, k: usize) -> Vec<(ModelSetKey, Prob)> {
        match self {
            FactoredSolve::Flat(s) => s.events_by_mass().into_iter().take(k).collect(),
            FactoredSolve::Product(p) => p.events_by_mass_top(k),
        }
    }

    /// Every atom with the given predicate name occurring in any stable
    /// model.
    pub fn atoms_with_predicate(&self, name: &str) -> BTreeSet<GroundAtom> {
        match self {
            FactoredSolve::Flat(s) => s.atoms_with_predicate(name),
            FactoredSolve::Product(p) => p.atoms_with_predicate(name),
        }
    }

    /// A deterministic fingerprint (flat: the flat scheme, unchanged).
    pub fn fingerprint(&self) -> String {
        match self {
            FactoredSolve::Flat(s) => s.fingerprint(),
            FactoredSolve::Product(p) => p.fingerprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::chase::ChaseBudget;
    use crate::ctx::Ctx;
    use crate::pipeline::Pipeline;
    use crate::program::{coin_program, Program};
    use gdlog_data::{Const, Database, Term};
    use gdlog_prob::Prob;

    /// `n` independent coins: `Coin(i)` facts, `Coin(x) → Toss(x, Flip⟨p⟩[x])`,
    /// `Toss(x, 1) → Tails(x)`. With `gadget`, an even-loop on tails gives
    /// each tails factor two stable models — use only at small `n`: a joint
    /// outcome with `k` tails genuinely has `2^k` stable models, so *flat*
    /// solving (and materializing joint keys) is exponential in `k`.
    fn coin_farm(n: i64, gadget: bool) -> (Program, Database) {
        let half = Term::Const(Const::real(0.5).expect("finite"));
        let mut builder = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half],
                    vec![Term::var("x")],
                )
            })
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::int(1)])
                    .head("Tails", vec![Term::var("x")])
            });
        if gadget {
            builder = builder
                .rule(|r| {
                    r.body("Tails", vec![Term::var("x")])
                        .not_body("Odd", vec![Term::var("x")])
                        .head("Even", vec![Term::var("x")])
                })
                .rule(|r| {
                    r.body("Tails", vec![Term::var("x")])
                        .not_body("Even", vec![Term::var("x")])
                        .head("Odd", vec![Term::var("x")])
                });
        }
        let program = builder.build().expect("valid program");
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        (program, db)
    }

    fn atom(name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
    }

    #[test]
    fn independent_coins_split_into_one_component_each() {
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let components = analyze(
            pipeline.sigma(),
            &ChaseBudget::default(),
            &Ctx::sequential(),
        )
        .unwrap()
        .0
        .expect("four independent coins must factor");
        assert_eq!(components.len(), 4);
        for c in &components {
            assert_eq!(c.triggers.len(), 1, "one Flip choice per coin");
            assert!(c.atoms.len() >= 5, "Coin, Active, Results, Tosses, Tails");
        }
        // Component atoms partition the universe.
        let mut seen: BTreeSet<GroundAtom> = BTreeSet::new();
        for c in &components {
            for a in &c.atoms {
                assert!(seen.insert(a.clone()), "components must be disjoint");
            }
        }
    }

    #[test]
    fn coupled_programs_fall_back_to_flat() {
        // The coin program has a single choice: nothing to factor.
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        assert!(analyze(
            pipeline.sigma(),
            &ChaseBudget::default(),
            &Ctx::sequential()
        )
        .unwrap()
        .0
        .is_none());

        // A zero-arity coupler welds all coins into one component.
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
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::int(1)])
                    .head("SomeTails", vec![])
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        for i in 1..=3 {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let pipeline = Pipeline::new(&program, &db).unwrap();
        assert!(analyze(
            pipeline.sigma(),
            &ChaseBudget::default(),
            &Ctx::sequential()
        )
        .unwrap()
        .0
        .is_none());

        // Joint-mass cuts do not factorize.
        let (program, db) = coin_farm(3, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let budget = ChaseBudget {
            min_path_probability: 0.01,
            ..ChaseBudget::default()
        };
        assert!(analyze(pipeline.sigma(), &budget, &Ctx::sequential())
            .unwrap()
            .0
            .is_none());
    }

    #[test]
    fn analysis_verdicts_static_vs_dynamic() {
        // Coin program: one ground Δ-fact, so the static certificate decides
        // without any saturation.
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let (components, verdict) = analyze(
            pipeline.sigma(),
            &ChaseBudget::default(),
            &Ctx::sequential(),
        )
        .unwrap();
        assert!(components.is_none());
        assert_eq!(verdict, FactorAnalysis::Static);
        assert_eq!(verdict.label(), "static");

        // Coin farm: per-coin event variables defeat the certificate; the
        // seeded dynamic analysis finds the four components.
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let (components, verdict) = analyze(
            pipeline.sigma(),
            &ChaseBudget::default(),
            &Ctx::sequential(),
        )
        .unwrap();
        assert_eq!(verdict, FactorAnalysis::Dynamic);
        assert_eq!(verdict.label(), "dynamic");
        assert_eq!(components.expect("factors").len(), 4);

        // A joint-mass cut is decided statically too.
        let budget = ChaseBudget {
            min_path_probability: 0.01,
            ..ChaseBudget::default()
        };
        let (components, verdict) = analyze(pipeline.sigma(), &budget, &Ctx::sequential()).unwrap();
        assert!(components.is_none());
        assert_eq!(verdict, FactorAnalysis::Static);
    }

    #[test]
    fn factored_solve_matches_flat_exactly() {
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let flat = pipeline.solve().unwrap();
        let factored = pipeline.solve_factored_with_analysis().unwrap().0;
        assert!(factored.is_factored());
        assert_eq!(factored.factor_count(), 4);
        assert_eq!(factored.combined_outcomes(), 16);
        assert_eq!(
            factored.has_stable_model_probability(),
            flat.has_stable_model_probability()
        );
        assert_eq!(factored.explored_mass(), flat.explored_mass());
        assert_eq!(factored.residual_mass(), flat.residual_mass());
        assert_eq!(factored.is_truncated(), flat.is_truncated());
        assert_eq!(factored.combined_events() as usize, flat.event_count());
        // Each factor's chase stays inside its own component: every rule of
        // every outcome has its head among the factor's atoms.
        for f in factored.as_product().expect("factored").factors() {
            for (outcome, _) in f.space.outcomes() {
                for rule in outcome.rules.iter() {
                    assert!(f.atoms.contains(&rule.head), "{} escapes", rule.head);
                }
            }
        }

        for i in 1..=4 {
            for name in ["Coin", "Tails", "Even", "Odd"] {
                let a = atom(name, &[i]);
                assert_eq!(
                    factored.brave_probability(&a),
                    flat.brave_probability(&a),
                    "brave({name}({i}))"
                );
                assert_eq!(
                    factored.cautious_probability(&a),
                    flat.cautious_probability(&a),
                    "cautious({name}({i}))"
                );
            }
        }

        // Joint (conditional-style) queries decompose across factors.
        let t1 = atom("Tails", &[1]);
        let t2 = atom("Tails", &[2]);
        assert_eq!(
            factored.probability_brave_all(&[t1.clone(), t2.clone()]),
            flat.probability_where(|k| k.brave(&t1) && k.brave(&t2))
        );

        // Full event listings agree (k covers all events, so the tie
        // normalization is total).
        let flat_events = flat.events_by_mass();
        let factored_events = factored.events_by_mass_top(flat_events.len() + 8);
        assert_eq!(factored_events, flat_events);
        // Per-event masses agree through the product projection.
        for (key, mass) in &flat_events {
            assert_eq!(factored.event_probability(key), *mass, "mass of {key}");
        }
        // An unrelated key has zero joint mass.
        let bogus = ModelSetKey::from_models(&[Database::from_atoms([atom("Nope", &[1])])]);
        assert_eq!(factored.event_probability(&bogus), Prob::ZERO);
        // An underivable atom is never brave.
        assert_eq!(factored.brave_probability(&atom("Nope", &[9])), Prob::ZERO);
    }

    #[test]
    fn single_component_is_byte_for_byte_flat() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let flat = pipeline.solve().unwrap();
        let solved = pipeline.solve_factored_with_analysis().unwrap().0;
        assert!(!solved.is_factored());
        assert_eq!(solved.factor_count(), 1);
        let space = solved.as_flat().expect("flat fallback");
        assert_eq!(space.events_by_mass(), flat.events_by_mass());
        assert_eq!(space.fingerprint(), flat.fingerprint());
        assert_eq!(solved.fingerprint(), flat.fingerprint());
    }

    #[test]
    fn factored_beats_the_flat_budget_wall() {
        // 20 coins: 2^20 joint outcomes — far beyond a 10k-outcome budget
        // flat, exactly solved factored (40 stored outcomes).
        let (program, db) = coin_farm(20, false);
        let budget = ChaseBudget {
            max_outcomes: 10_000,
            ..ChaseBudget::default()
        };
        let pipeline = Pipeline::new(&program, &db).unwrap().budget(budget);
        let flat = pipeline.solve().unwrap();
        assert!(flat.is_truncated(), "flat must hit the budget");
        assert!(flat.residual_mass().is_positive());

        let factored = pipeline.solve_factored_with_analysis().unwrap().0;
        assert!(factored.is_factored());
        assert_eq!(factored.factor_count(), 20);
        assert_eq!(factored.combined_outcomes(), 1u128 << 20);
        assert!(!factored.is_truncated(), "factored is exact");
        assert_eq!(factored.explored_mass(), Prob::ONE);
        assert_eq!(factored.residual_mass(), Prob::ZERO);
        assert_eq!(factored.has_stable_model_probability(), Prob::ONE);
        let p = factored.as_product().expect("factored");
        assert_eq!(p.stored_outcomes(), 40);
        // Exact per-coin marginals at full depth.
        assert_eq!(
            factored.brave_probability(&atom("Tails", &[20])),
            Prob::ratio(1, 2)
        );
        // Top events of 2^20 equally heavy outcomes: each joint event has
        // mass 1/2^20 exactly.
        let top = factored.events_by_mass_top(3);
        assert_eq!(top.len(), 3);
        for (_, mass) in &top {
            assert_eq!(*mass, Prob::ratio(1, 1 << 20));
        }
    }

    #[test]
    fn deterministic_skeleton_lands_in_a_base_factor() {
        // Facts plus a deterministic rule chain with no choices attached,
        // alongside two independent coins.
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
            .rule(|r| {
                r.body("Edge", vec![Term::var("x"), Term::var("y")])
                    .head("Reach", vec![Term::var("y")])
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        db.insert_fact("Coin", [Const::Int(1)]);
        db.insert_fact("Coin", [Const::Int(2)]);
        db.insert_fact("Edge", [Const::Int(7), Const::Int(8)]);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let factored = pipeline.solve_factored_with_analysis().unwrap().0;
        // Two coin factors plus the deterministic base factor.
        assert_eq!(factored.factor_count(), 3);
        assert_eq!(factored.has_stable_model_probability(), Prob::ONE);
        // The deterministic atom is certain — witnessed through the base
        // factor times the other factors' nonempty mass (all one).
        assert_eq!(factored.brave_probability(&atom("Reach", &[8])), Prob::ONE);
        assert_eq!(
            factored.cautious_probability(&atom("Reach", &[8])),
            Prob::ONE
        );
        // And it matches the flat answer.
        let flat = pipeline.solve().unwrap();
        assert_eq!(flat.brave_probability(&atom("Reach", &[8])), Prob::ONE);
        assert_eq!(factored.events_by_mass_top(16), flat.events_by_mass());
    }
}
