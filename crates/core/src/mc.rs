//! Monte-Carlo evaluation.
//!
//! For programs whose chase tree is too large to enumerate exhaustively, a
//! single chase path can be *sampled*: at every trigger one outcome is drawn
//! from `δ⟨p̄⟩` instead of branching over all of them. Repeating this yields
//! unbiased estimates of any event probability of the output space (the
//! sampling distribution over finite paths is exactly the chase-based
//! probability space of Section 4).
//!
//! Sampled walks are independent by construction, so [`MonteCarlo`] draws
//! walk `i` from its own RNG stream derived from the root seed
//! ([`walk_rng`]) rather than from one sequentially advancing generator.
//! This makes every estimate a pure function of `(seed, walk index)` — the
//! walks can be dispatched to an [`Executor`]'s thread pool in any order and
//! still reproduce the sequential estimates bit for bit.
//!
//! # The walk tree
//!
//! A walk is a sequence of draws, so two walks that draw the same values
//! reach the same chase node `Σ` and need the same grounding `G(Σ)`.
//! [`MonteCarlo::estimate`] therefore shares the chase nodes its walks
//! visit in a *walk tree*: an inner node keeps its configuration, its
//! grounding and its path probability, plus its first trigger and the
//! child reached by each value drawn there so far; a leaf keeps only the
//! event's verdict. A walk makes exactly the draws a fresh
//! walk ([`sample_outcome`]) makes, consuming its RNG stream identically,
//! and only grounds a node ([`Grounder::ground_from`] from its parent) the
//! first time any walk reaches it. The root is grounded once per estimate,
//! and the event is scored once per distinct leaf — so the event must be a
//! pure function of the outcome; the tree reuses a leaf's verdict for
//! every walk that ends there. Estimates are bit-identical to tallying
//! fresh walks.
//!
//! Each tree lives for one `estimate` call (one per parallel chunk), so a
//! grounding cut short by a cancelled saturation never outlives the
//! [`CoreError::Interrupted`] it causes, and nothing is cached across
//! calls. A tree keeps at most one node per walk it serves and never more
//! than [`NODE_LIMIT`], however many samples are asked for; past that cap a
//! walk that leaves the tree grounds its remaining nodes from its deepest
//! retained ancestor and drops them as it goes. Memory therefore stays
//! bounded by a constant per tree (one tree per worker thread at a time)
//! even when almost every path is distinct. The cap changes only memory
//! and speed, never an estimate.

use crate::error::CoreError;
use crate::exec::Executor;
use crate::grounding::{AtrRule, AtrSet, Grounder, Grounding};
use crate::outcome::PossibleOutcome;
use crate::translate::{AtrSchema, SigmaPi};
use gdlog_data::{Const, GroundAtom};
use gdlog_engine::CancelToken;
use gdlog_prob::sampler::{sample_distribution, Estimate};
use gdlog_prob::Prob;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The most chase nodes one walk tree retains. A retained node holds its
/// configuration and a grounding snapshot — about 17 KB on a 16-router
/// ring — so a full tree there stays under 20 MB. The 481 chase nodes of
/// a 5-router ring fit whole.
pub const NODE_LIMIT: usize = 1024;

/// The RNG for walk `index` of a run rooted at `seed`: the seed is combined
/// with the index through a SplitMix64-style finalizer (Steele, Lea &
/// Flood's mixer, the standard recommendation for splitting seeds), so
/// streams of different walks are statistically independent and a walk's
/// stream never depends on how many walks other threads have drawn.
pub fn walk_rng(seed: u64, index: u64) -> StdRng {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// The result of sampling one chase path.
#[derive(Clone, Debug)]
pub enum SampledPath {
    /// The path reached a terminal configuration: a finite possible outcome
    /// (boxed: an outcome carries its whole grounding, an abandoned path
    /// only its choice set).
    Finite(Box<PossibleOutcome>),
    /// The path was abandoned after the trigger budget was exhausted — it
    /// belongs (statistically) to the error event or to a deeper finite
    /// outcome.
    Abandoned {
        /// The configuration reached when the budget ran out.
        partial: AtrSet,
        /// Number of triggers applied.
        depth: usize,
    },
}

impl SampledPath {
    /// Is this a finite outcome?
    pub fn is_finite(&self) -> bool {
        matches!(self, SampledPath::Finite(_))
    }

    /// The finite outcome, if any.
    pub fn outcome(&self) -> Option<&PossibleOutcome> {
        match self {
            SampledPath::Finite(o) => Some(o),
            SampledPath::Abandoned { .. } => None,
        }
    }
}

/// The AtR schema of `trigger`'s `Active` predicate.
fn schema_of<'s>(sigma: &'s SigmaPi, trigger: &GroundAtom) -> Result<&'s AtrSchema, CoreError> {
    sigma
        .schema_for_active(&trigger.predicate)
        .ok_or_else(|| CoreError::Validation(format!("trigger {trigger} has no Active schema")))
}

/// Draw `trigger`'s outcome from `δ⟨p̄⟩`: the one use of the RNG in a chase
/// step.
fn draw<R: Rng + ?Sized>(
    sigma: &SigmaPi,
    trigger: &GroundAtom,
    rng: &mut R,
) -> Result<Const, CoreError> {
    let schema = schema_of(sigma, trigger)?;
    let (params, _) = schema.split_active(trigger);
    Ok(sample_distribution(schema.distribution, params, rng)?)
}

/// The configuration and path probability one step below `(atr,
/// probability)`: `trigger` resolved to the drawn `value`.
fn extend(
    sigma: &SigmaPi,
    atr: &AtrSet,
    probability: Prob,
    trigger: &GroundAtom,
    value: Const,
) -> Result<(AtrSet, Prob), CoreError> {
    let mass = schema_of(sigma, trigger)?.outcome_probability(trigger, &value)?;
    let next = atr.extended(AtrRule::new(sigma, trigger.clone(), value)?)?;
    Ok((next, probability.mul(&mass)))
}

/// Sample a single chase path with at most `max_triggers` trigger
/// applications. Every step grounds afresh from the previous one; this is
/// the one-walk reference the walk tree of [`MonteCarlo::estimate`] must
/// reproduce.
pub fn sample_outcome<R: Rng + ?Sized>(
    grounder: &dyn Grounder,
    max_triggers: usize,
    rng: &mut R,
) -> Result<SampledPath, CoreError> {
    let sigma = grounder.sigma();
    let mut atr = AtrSet::new();
    let mut probability = Prob::ONE;
    // Each trigger application extends the configuration by one choice, so
    // the previous grounding seeds an incremental saturation over an O(1)
    // structural snapshot (no per-step deep clone of the rule set).
    let mut previous: Option<(AtrSet, Grounding)> = None;
    for depth in 0..=max_triggers {
        let grounding = match &mut previous {
            Some((parent_atr, parent_grounding)) => {
                grounder.ground_from(&atr, parent_atr, parent_grounding)
            }
            None => grounder.ground_node(&atr),
        };
        let triggers = grounder.triggers(&atr, grounding.rules());
        if triggers.is_empty() {
            return Ok(SampledPath::Finite(Box::new(PossibleOutcome::new(
                atr,
                grounding.into_rules(),
                probability,
            ))));
        }
        if depth == max_triggers {
            break;
        }
        // Apply the first trigger (the order does not matter, Lemma 4.4).
        let value = draw(sigma, &triggers[0], rng)?;
        let (next, next_probability) = extend(sigma, &atr, probability, &triggers[0], value)?;
        probability = next_probability;
        // Keep the pre-extension configuration alongside its grounding.
        previous = Some((std::mem::replace(&mut atr, next), grounding));
    }
    Ok(SampledPath::Abandoned {
        depth: max_triggers,
        partial: atr,
    })
}

/// A non-terminal chase node below the trigger budget: its configuration,
/// grounding and path probability, its first trigger, and the child (an
/// index into the tree) reached by each value drawn there so far.
struct Branch {
    atr: AtrSet,
    grounding: Grounding,
    probability: Prob,
    trigger: GroundAtom,
    children: HashMap<Const, usize>,
}

/// A chase node of a [`WalkTree`].
enum Node {
    /// A node walks descend from.
    Branch(Box<Branch>),
    /// Where a walk ends: `Some(verdict)` of the event at a terminal
    /// configuration, `None` when the trigger budget ran out. The grounding
    /// is dropped once the leaf is scored.
    End(Option<bool>),
}

/// What a walk needs besides the tree: the grounder, the trigger budget
/// and the event.
struct Walker<'a, F> {
    grounder: &'a dyn Grounder,
    max_triggers: usize,
    event: &'a F,
}

impl<F: Fn(&PossibleOutcome) -> bool> Walker<'_, F> {
    /// Classify a freshly grounded chase node, scoring it if it is a leaf.
    fn node(&self, atr: AtrSet, grounding: Grounding, probability: Prob) -> Node {
        let triggers = self.grounder.triggers(&atr, grounding.rules());
        match triggers.into_iter().next() {
            None => Node::End(Some((self.event)(&PossibleOutcome::new(
                atr,
                grounding.into_rules(),
                probability,
            )))),
            Some(_) if atr.len() == self.max_triggers => Node::End(None),
            Some(trigger) => Node::Branch(Box::new(Branch {
                atr,
                grounding,
                probability,
                trigger,
                children: HashMap::new(),
            })),
        }
    }

    /// Ground the child of `parent` reached by drawing `value`.
    fn child(&self, parent: &mut Branch, value: Const) -> Result<Node, CoreError> {
        let (next, probability) = extend(
            self.grounder.sigma(),
            &parent.atr,
            parent.probability,
            &parent.trigger,
            value,
        )?;
        let grounding = self
            .grounder
            .ground_from(&next, &parent.atr, &mut parent.grounding);
        Ok(self.node(next, grounding, probability))
    }

    /// Finish a walk outside the tree from `node`, dropping each node once
    /// its child is grounded.
    fn finish<R: Rng + ?Sized>(
        &self,
        mut node: Node,
        rng: &mut R,
    ) -> Result<Option<bool>, CoreError> {
        loop {
            match node {
                Node::End(verdict) => return Ok(verdict),
                Node::Branch(mut parent) => {
                    let value = draw(self.grounder.sigma(), &parent.trigger, rng)?;
                    node = self.child(&mut parent, value)?;
                }
            }
        }
    }
}

/// The chase nodes the walks of one estimate (or one parallel chunk of it)
/// have visited, rooted at the empty configuration. See the module docs.
struct WalkTree<'a, F> {
    walker: Walker<'a, F>,
    /// At most this many nodes are retained.
    cap: usize,
    /// The arena; the root is node 0 once the first walk has run.
    nodes: Vec<Node>,
}

impl<'a, F: Fn(&PossibleOutcome) -> bool> WalkTree<'a, F> {
    /// An empty tree for `walks` walks: it retains at most one node per
    /// walk, and at most [`NODE_LIMIT`].
    fn new(walker: Walker<'a, F>, walks: usize) -> Self {
        WalkTree {
            walker,
            cap: walks.min(NODE_LIMIT),
            nodes: Vec::new(),
        }
    }

    /// Run one walk: `Some(event verdict)` for a finite path, `None` for an
    /// abandoned one — exactly what [`sample_outcome`] on the same RNG
    /// would give.
    fn walk<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<bool>, CoreError> {
        if self.nodes.is_empty() {
            let root = AtrSet::new();
            let grounding = self.walker.grounder.ground_node(&root);
            self.nodes
                .push(self.walker.node(root, grounding, Prob::ONE));
        }
        let mut at = 0;
        loop {
            let len = self.nodes.len();
            let parent = match &mut self.nodes[at] {
                Node::End(verdict) => return Ok(*verdict),
                Node::Branch(parent) => parent,
            };
            let value = draw(self.walker.grounder.sigma(), &parent.trigger, rng)?;
            if let Some(&child) = parent.children.get(&value) {
                at = child;
                continue;
            }
            let child = self.walker.child(parent, value)?;
            if len >= self.cap {
                return self.walker.finish(child, rng);
            }
            parent.children.insert(value, len);
            self.nodes.push(child);
            at = len;
        }
    }
}

/// Summary statistics of a Monte-Carlo run.
#[derive(Clone, Debug)]
pub struct SampleStats {
    /// Estimate of the probability of the queried event.
    pub estimate: Estimate,
    /// Number of sampled paths that were abandoned (budget exhausted).
    pub abandoned: usize,
    /// Number of samples drawn in total.
    pub samples: usize,
}

/// A Monte-Carlo estimator bound to a grounder.
///
/// Walk `i` of the estimator's lifetime is drawn from [`walk_rng`]`(seed,
/// i)`, so the sampled paths depend only on the seed and the walk index —
/// never on the executor. [`MonteCarlo::estimate`] therefore produces
/// bit-identical statistics whether it runs sequentially or fans the walks
/// out to a thread pool ([`MonteCarlo::with_executor`]).
pub struct MonteCarlo<'a> {
    grounder: &'a dyn Grounder,
    max_triggers: usize,
    seed: u64,
    next_walk: u64,
    executor: Option<&'a Executor>,
    cancel: CancelToken,
}

impl<'a> MonteCarlo<'a> {
    /// Create an estimator with a deterministic seed.
    pub fn new(grounder: &'a dyn Grounder, max_triggers: usize, seed: u64) -> Self {
        MonteCarlo {
            grounder,
            max_triggers,
            seed,
            next_walk: 0,
            executor: None,
            cancel: CancelToken::never(),
        }
    }

    /// Fan [`MonteCarlo::estimate`]'s walks out to `executor`'s pool. The
    /// estimates are bit-identical to the sequential ones for every thread
    /// count; only wall-clock time changes.
    pub fn with_executor(mut self, executor: &'a Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Observe `cancel` at every walk boundary, including after the last
    /// walk. A cancelled estimate returns [`CoreError::Interrupted`] — a
    /// partial tally would not be an unbiased estimate of anything the
    /// caller asked for, and a walk whose saturation the token cut short
    /// may have scored a partial grounding, so Monte-Carlo is
    /// exact-sample-count-or-nothing.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Draw one path (the next walk of this estimator's stream), grounding
    /// every node afresh.
    pub fn sample(&mut self) -> Result<SampledPath, CoreError> {
        let mut rng = walk_rng(self.seed, self.next_walk);
        self.next_walk += 1;
        sample_outcome(self.grounder, self.max_triggers, &mut rng)
    }

    /// Estimate the probability of an event specified as a predicate over
    /// finite outcomes. Abandoned paths count as "event false" — estimates of
    /// events over finite outcomes are therefore lower bounds when abandoned
    /// paths occur (report `abandoned` to judge their impact).
    ///
    /// The walks share one walk tree (see the module docs), so `event` runs
    /// once per distinct finite outcome reached and must be a pure function
    /// of the outcome.
    pub fn estimate<F>(&mut self, samples: usize, event: F) -> Result<SampleStats, CoreError>
    where
        F: Fn(&PossibleOutcome) -> bool + Sync,
    {
        let first_walk = self.next_walk;
        self.next_walk += samples as u64;
        let walks = first_walk..first_walk + samples as u64;
        let (hits, abandoned) = match self.executor.and_then(Executor::pool) {
            None => self.tally(walks, &event)?,
            Some(pool) => {
                // Contiguous chunks of the walk range, several per worker so
                // the pool balances uneven walk lengths by stealing. Chunk
                // tallies are integers, so the merge is order-insensitive —
                // except for errors, which are surfaced in walk order (each
                // chunk stops at its first failing walk, and chunks are
                // merged lowest-first), exactly as the sequential loop does.
                let threads = pool.current_num_threads().max(1);
                let chunk = samples.div_ceil(threads * 4).max(1) as u64;
                let ranges: Vec<Range<u64>> = walks
                    .clone()
                    .step_by(chunk as usize)
                    .map(|start| start..(start + chunk).min(walks.end))
                    .collect();
                /// Hit/abandon counts of one chunk, or its first walk error.
                type Tally = OnceLock<Result<(usize, usize), CoreError>>;
                let tallies: Vec<Arc<Tally>> =
                    ranges.iter().map(|_| Arc::new(OnceLock::new())).collect();
                pool.scope(|scope| {
                    for (range, tally) in ranges.into_iter().zip(&tallies) {
                        let tally = Arc::clone(tally);
                        let this = &*self;
                        let event = &event;
                        scope.spawn(move |_| {
                            let _ = tally.set(this.tally(range, event));
                        });
                    }
                });
                let mut hits = 0usize;
                let mut abandoned = 0usize;
                for tally in tallies {
                    let (h, a) = Arc::try_unwrap(tally)
                        .unwrap_or_else(|_| unreachable!("tally still shared after the scope"))
                        .into_inner()
                        .expect("every chunk task reports")?;
                    hits += h;
                    abandoned += a;
                }
                (hits, abandoned)
            }
        };
        Ok(SampleStats {
            estimate: Estimate::from_bernoulli(hits, samples),
            abandoned,
            samples,
        })
    }

    /// Run `walks` on one walk tree ([`WalkTree::new`] caps it): the hit and
    /// abandoned counts, or the first error in walk order. The token is
    /// polled before every walk and once more after the last, so a
    /// saturation it cut short never reaches an `Ok` tally.
    fn tally<F>(&self, walks: Range<u64>, event: &F) -> Result<(usize, usize), CoreError>
    where
        F: Fn(&PossibleOutcome) -> bool,
    {
        let interrupted = || {
            if self.cancel.is_cancelled() {
                Err(CoreError::Interrupted("monte-carlo estimation".into()))
            } else {
                Ok(())
            }
        };
        let walker = Walker {
            grounder: self.grounder,
            max_triggers: self.max_triggers,
            event,
        };
        let mut tree = WalkTree::new(walker, (walks.end - walks.start) as usize);
        let mut hits = 0usize;
        let mut abandoned = 0usize;
        for walk in walks {
            interrupted()?;
            match tree.walk(&mut walk_rng(self.seed, walk))? {
                Some(true) => hits += 1,
                Some(false) => {}
                None => abandoned += 1,
            }
        }
        interrupted()?;
        Ok((hits, abandoned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use gdlog_engine::StableModelLimits;
    use std::sync::Arc;

    fn network_grounder(n: i64) -> SimpleGrounder {
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=n {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        SimpleGrounder::new(Arc::new(
            SigmaPi::translate(&network_resilience_program(0.1), &db).unwrap(),
        ))
    }

    #[test]
    fn sampled_paths_terminate_and_have_consistent_probability() {
        let grounder = network_grounder(3);
        let mut mc = MonteCarlo::new(&grounder, 100, 7);
        for _ in 0..20 {
            let path = mc.sample().unwrap();
            assert!(path.is_finite());
            let outcome = path.outcome().unwrap();
            // The path probability equals the product of its choices.
            assert_eq!(
                outcome.probability,
                outcome.atr.probability(grounder.sigma()).unwrap()
            );
        }
    }

    #[test]
    fn domination_probability_estimate_converges_to_0_19() {
        let grounder = network_grounder(3);
        let mut mc = MonteCarlo::new(&grounder, 100, 42);
        let limits = StableModelLimits::default();
        let stats = mc
            .estimate(4000, |outcome| {
                !outcome
                    .stable_models(&limits, &CancelToken::never())
                    .unwrap()
                    .is_empty()
            })
            .unwrap();
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.samples, 4000);
        assert!(
            stats.estimate.consistent_with(0.19, 4.0),
            "estimate {:?} not consistent with 0.19",
            stats.estimate
        );
    }

    #[test]
    fn coin_sampling_hits_both_outcomes() {
        let sigma = SigmaPi::translate(&coin_program(), &Database::new()).unwrap();
        let grounder = SimpleGrounder::new(Arc::new(sigma));
        let mut mc = MonteCarlo::new(&grounder, 10, 3);
        let mut tails = 0;
        let mut heads = 0;
        for _ in 0..200 {
            let path = mc.sample().unwrap();
            let outcome = path.outcome().unwrap();
            let coin1 = gdlog_data::GroundAtom::make("Coin", vec![Const::Int(1)]);
            if outcome.rules.heads().contains(&coin1) {
                tails += 1;
            } else {
                heads += 1;
            }
        }
        assert!(tails > 50 && heads > 50, "tails {tails}, heads {heads}");
    }

    /// `n` independent fair coins: every walk takes `n` trigger steps, and
    /// at `n = 24` almost every path is distinct.
    fn coins_grounder(n: i64) -> SimpleGrounder {
        use gdlog_data::Term;
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let program = crate::ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap();
        SimpleGrounder::new(Arc::new(SigmaPi::translate(&program, &db).unwrap()))
    }

    /// Hit and abandoned counts of fresh walks `walks` (the oracle the walk
    /// tree must reproduce).
    fn fresh_tally(
        grounder: &dyn Grounder,
        max_triggers: usize,
        seed: u64,
        walks: Range<u64>,
        event: impl Fn(&PossibleOutcome) -> bool,
    ) -> (usize, usize) {
        let (mut hits, mut abandoned) = (0, 0);
        for walk in walks {
            match sample_outcome(grounder, max_triggers, &mut walk_rng(seed, walk)).unwrap() {
                SampledPath::Finite(outcome) => hits += usize::from(event(&outcome)),
                SampledPath::Abandoned { .. } => abandoned += 1,
            }
        }
        (hits, abandoned)
    }

    /// Run `samples` walks of seed 5 on one walk tree over `n` coins and
    /// check the tally against fresh walks. Returns how many nodes the tree
    /// retained.
    fn retained_nodes_on_coins(n: i64, samples: usize) -> usize {
        let grounder = coins_grounder(n);
        let event = |outcome: &PossibleOutcome| {
            let tails = outcome
                .atr
                .iter()
                .filter(|r| r.outcome == Const::Int(1))
                .count();
            tails % 2 == 0 && outcome.probability == Prob::ratio(1, 1 << n)
        };
        let walker = Walker {
            grounder: &grounder,
            max_triggers: 64,
            event: &event,
        };
        let mut tree = WalkTree::new(walker, samples);
        let mut hits = 0;
        for walk in 0..samples as u64 {
            hits += usize::from(tree.walk(&mut walk_rng(5, walk)).unwrap().unwrap());
        }
        let (fresh_hits, fresh_abandoned) = fresh_tally(&grounder, 64, 5, 0..samples as u64, event);
        assert_eq!((hits, fresh_abandoned), (fresh_hits, 0));
        tree.nodes.len()
    }

    #[test]
    fn capped_tree_on_distinct_paths_equals_fresh_walks() {
        // 24 coins, so nearly every path is distinct: the cap binds at one
        // node per walk and holds.
        assert_eq!(retained_nodes_on_coins(24, 1000), 1000);
    }

    #[test]
    fn node_limit_bounds_the_tree_whatever_the_sample_count() {
        // 12 coins give 8191 chase nodes, so twice NODE_LIMIT walks reach
        // far more nodes than the limit: the tree stops at NODE_LIMIT and
        // the tally is still the fresh one.
        assert_eq!(retained_nodes_on_coins(12, 2 * NODE_LIMIT), NODE_LIMIT);
    }

    /// Fires a token on its `fire_at`-th grounding call (1-based), after
    /// the grounding itself completed.
    struct FireOnCall<'a> {
        inner: &'a dyn Grounder,
        cancel: CancelToken,
        fire_at: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl FireOnCall<'_> {
        fn tick(&self) {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if call == self.fire_at {
                self.cancel.cancel();
            }
        }
    }

    impl Grounder for FireOnCall<'_> {
        fn sigma(&self) -> &SigmaPi {
            self.inner.sigma()
        }

        fn name(&self) -> &'static str {
            "fire-on-call"
        }

        fn ground(&self, atr: &AtrSet) -> crate::grounding::GroundRuleSet {
            self.inner.ground(atr)
        }

        fn ground_node(&self, atr: &AtrSet) -> Grounding {
            let grounding = self.inner.ground_node(atr);
            self.tick();
            grounding
        }

        fn ground_from(
            &self,
            atr: &AtrSet,
            parent_atr: &AtrSet,
            parent: &mut Grounding,
        ) -> Grounding {
            let grounding = self.inner.ground_from(atr, parent_atr, parent);
            self.tick();
            grounding
        }
    }

    #[test]
    fn a_token_fired_during_the_final_walk_interrupts_the_estimate() {
        // Distinct paths, so the estimate's last grounding call belongs to
        // its last walk and no later walk boundary can catch the token.
        let coins = coins_grounder(24);
        let wrapped = |fire_at| FireOnCall {
            inner: &coins,
            cancel: CancelToken::new(),
            fire_at,
            calls: Default::default(),
        };
        let counter = wrapped(usize::MAX);
        MonteCarlo::new(&counter, 64, 3)
            .estimate(5, |_| true)
            .unwrap();
        let last = counter.calls.into_inner();
        let grounder = wrapped(last);
        let err = MonteCarlo::new(&grounder, 64, 3)
            .with_cancel(grounder.cancel.clone())
            .estimate(5, |_| true)
            .expect_err("the last walk saw the token fire");
        assert!(matches!(err, CoreError::Interrupted(_)));
    }

    #[test]
    fn deep_paths_survive_snapshot_flattening() {
        // 24 independent coins: one sampled path takes 24 trigger steps, so
        // the grounding snapshot chain exceeds the flattening threshold and
        // the collapsed frames must still carry the full rule log.
        let n = 24i64;
        let grounder = coins_grounder(n);
        let mut mc = MonteCarlo::new(&grounder, 64, 9);
        let path = mc.sample().unwrap();
        let outcome = path.outcome().expect("path terminates");
        assert_eq!(outcome.choice_count(), n as usize);
        assert_eq!(outcome.probability, Prob::ratio(1, 1 << n));
        // The accumulated grounding saw every coin: n Coin facts, n Active
        // rules, n Result→Toss rules.
        assert_eq!(outcome.rule_count(), 3 * n as usize);
        assert_eq!(
            outcome.rules.canonical_rules(),
            grounder.ground(&outcome.atr).canonical_rules()
        );
    }

    #[test]
    fn walk_streams_are_independent_of_draw_order() {
        // Walk i's path is a pure function of (seed, i): drawing walks
        // 0..n one by one gives the same paths as any other schedule.
        let grounder = network_grounder(3);
        let paths: Vec<String> = (0..8u64)
            .map(|walk| {
                let mut rng = walk_rng(42, walk);
                match sample_outcome(&grounder, 100, &mut rng).unwrap() {
                    SampledPath::Finite(o) => format!("{}@{}", o.atr, o.probability),
                    SampledPath::Abandoned { .. } => "abandoned".to_owned(),
                }
            })
            .collect();
        let mut mc = MonteCarlo::new(&grounder, 100, 42);
        for expected in &paths {
            let got = match mc.sample().unwrap() {
                SampledPath::Finite(o) => format!("{}@{}", o.atr, o.probability),
                SampledPath::Abandoned { .. } => "abandoned".to_owned(),
            };
            assert_eq!(&got, expected);
        }
        // Distinct walks explore distinct paths with overwhelming
        // probability on this workload; a constant stream would betray a
        // broken splitter.
        assert!(
            paths
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn parallel_estimates_are_bit_identical_to_sequential() {
        let grounder = network_grounder(3);
        let limits = StableModelLimits::default();
        let event = |outcome: &PossibleOutcome| {
            !outcome
                .stable_models(&limits, &CancelToken::never())
                .unwrap()
                .is_empty()
        };
        let mut sequential = MonteCarlo::new(&grounder, 100, 11);
        let base = sequential.estimate(500, event).unwrap();
        for threads in [2, 3, 8] {
            let executor = crate::exec::Executor::new(threads);
            let mut parallel = MonteCarlo::new(&grounder, 100, 11).with_executor(&executor);
            let stats = parallel.estimate(500, event).unwrap();
            assert_eq!(stats.estimate.mean, base.estimate.mean, "x{threads}");
            assert_eq!(stats.abandoned, base.abandoned);
            assert_eq!(stats.samples, base.samples);
            // A second estimate continues the walk stream identically too.
            let base2 = sequential.estimate(250, event).unwrap();
            let stats2 = parallel.estimate(250, event).unwrap();
            assert_eq!(stats2.estimate.mean, base2.estimate.mean, "x{threads} cont");
            // Rewind the sequential estimator so every thread count sees the
            // same continuation window.
            sequential = MonteCarlo::new(&grounder, 100, 11);
            let _ = sequential.estimate(500, event).unwrap();
        }
    }

    #[test]
    fn trigger_budget_abandons_paths() {
        // With a zero trigger budget every probabilistic path is abandoned.
        let grounder = network_grounder(3);
        let mut mc = MonteCarlo::new(&grounder, 0, 1);
        let path = mc.sample().unwrap();
        assert!(!path.is_finite());
        match path {
            SampledPath::Abandoned { depth, partial } => {
                assert_eq!(depth, 0);
                assert!(partial.is_empty());
            }
            SampledPath::Finite(_) => unreachable!(),
        }
        let stats = mc.estimate(10, |_| true).unwrap();
        assert_eq!(stats.abandoned, 10);
        assert_eq!(stats.estimate.mean, 0.0);
    }
}
