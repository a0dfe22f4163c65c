//! The chase procedure for generative Datalog¬ (Section 4).
//!
//! The chase operates on configurations of probabilistic choices (ground AtR
//! sets). A *trigger* for `G(Σ)` on `Σ` is an `Active` atom occurring in
//! `heads(G(Σ))` on which `AtR_Σ` is not yet defined; applying it branches
//! over every outcome of positive probability (Definition 4.1). A chase tree
//! (Definition 4.2) applies triggers until none is left; the results of its
//! finite maximal paths are exactly the finite possible outcomes
//! (Lemma 4.5), independently of the order in which triggers are applied
//! (Lemma 4.4).
//!
//! [`enumerate_outcomes`] explores the chase tree exhaustively up to a
//! [`ChaseBudget`]; the probability mass of anything not fully explored
//! (paths that exceed the depth budget, tails of infinite supports, paths
//! whose probability falls below the cut-off) is accumulated in
//! [`ChaseResult::residual_mass`]. By Theorem 3.9 the explored mass plus the
//! residual equals one.

use crate::ctx::Ctx;
use crate::error::CoreError;
use crate::grounding::{AtrRule, AtrSet, Grounder, Grounding};
use gdlog_data::GroundAtom;
use gdlog_engine::CancelToken;
use gdlog_prob::Prob;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::outcome::PossibleOutcome;

/// How the chase selects which trigger to apply at a node. By Lemma 4.4 the
/// set of finite results is the same for every policy; exposing the policy
/// lets tests verify exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TriggerOrder {
    /// Apply the smallest trigger in the canonical atom order (deterministic
    /// default).
    #[default]
    First,
    /// Apply the largest trigger in the canonical atom order.
    Last,
    /// Apply the trigger at a pseudo-random position derived from the node's
    /// choice set (deterministic per node, but "shuffled" across the tree).
    Scrambled,
}

impl TriggerOrder {
    fn pick(&self, triggers: &[GroundAtom], depth: usize) -> usize {
        match self {
            TriggerOrder::First => 0,
            TriggerOrder::Last => triggers.len() - 1,
            TriggerOrder::Scrambled => {
                // A deterministic hash of the depth and the trigger atoms
                // themselves, so equal-depth siblings with equally many (but
                // different) triggers genuinely pick different positions.
                use std::hash::{Hash, Hasher};
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                depth.hash(&mut hasher);
                for trigger in triggers {
                    trigger.hash(&mut hasher);
                }
                (hasher.finish() as usize) % triggers.len()
            }
        }
    }
}

/// Exploration budget for the exact chase enumeration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaseBudget {
    /// Maximum number of finite outcomes to produce.
    pub max_outcomes: usize,
    /// Maximum number of trigger applications along a single path (chase
    /// depth). Paths that exceed it contribute to the residual mass.
    pub max_depth: usize,
    /// Outcomes of a single trigger application are enumerated up to this
    /// many branches (relevant for distributions with countably infinite
    /// support); the remaining tail contributes to the residual mass.
    pub max_branching: usize,
    /// Paths whose accumulated probability falls strictly below this bound
    /// are abandoned and contribute to the residual mass. Set to `0.0` to
    /// disable.
    pub min_path_probability: f64,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_outcomes: 100_000,
            max_depth: 64,
            max_branching: 64,
            min_path_probability: 0.0,
        }
    }
}

impl ChaseBudget {
    /// A small budget suitable for unit tests and examples.
    pub fn small() -> Self {
        ChaseBudget {
            max_outcomes: 10_000,
            max_depth: 32,
            max_branching: 16,
            min_path_probability: 0.0,
        }
    }
}

/// The result of an exhaustive (budgeted) chase enumeration.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The finite possible outcomes explored, with their probabilities.
    pub outcomes: Vec<PossibleOutcome>,
    /// Probability mass of everything that was not fully explored: infinite
    /// paths (the error event) plus finite mass beyond the budget.
    pub residual_mass: Prob,
    /// Did the enumeration hit the budget anywhere? When `false`,
    /// `residual_mass` is exactly the error-event probability.
    pub truncated: bool,
    /// Number of chase-tree nodes visited.
    pub nodes_visited: usize,
    /// Did a [`CancelToken`] cut the enumeration short? The result is still
    /// exact — cancelled subtrees are accounted in `residual_mass` like any
    /// budget cut (and `truncated` is set alongside) — but *which* subtrees
    /// were cut depends on when the token fired, so an interrupted result is
    /// not reproducible and must never be treated as golden.
    pub interrupted: bool,
}

impl ChaseResult {
    /// Total probability mass of the explored finite outcomes.
    pub fn explored_mass(&self) -> Prob {
        Prob::sum(self.outcomes.iter().map(|o| o.probability))
    }

    /// Explored plus residual mass (should always be ≈ 1; exactly 1 when all
    /// probabilities are exact rationals).
    pub fn total_mass(&self) -> Prob {
        self.explored_mass().add(&self.residual_mass)
    }

    /// The first difference from `other` under **strict** equality — outcome
    /// list in order (choice sets and exact probabilities), residual mass,
    /// truncation flag and visited-node count — or `None` when the results
    /// are bit-identical. This is *the* definition of "bit-identical" that
    /// the parallel executor guarantees; the property tests, the chase
    /// benchmarks and CI's thread matrix all compare through it so the
    /// checked fields cannot drift apart.
    pub fn diff(&self, other: &ChaseResult) -> Option<String> {
        if self.outcomes.len() != other.outcomes.len() {
            return Some(format!(
                "outcome count: {} vs {}",
                self.outcomes.len(),
                other.outcomes.len()
            ));
        }
        for (i, (a, b)) in self.outcomes.iter().zip(&other.outcomes).enumerate() {
            if a.atr != b.atr {
                return Some(format!("outcome {i} choice set: {} vs {}", a.atr, b.atr));
            }
            if a.probability != b.probability {
                return Some(format!(
                    "outcome {i} probability: {} vs {}",
                    a.probability, b.probability
                ));
            }
        }
        if self.residual_mass.to_string() != other.residual_mass.to_string() {
            return Some(format!(
                "residual mass: {} vs {}",
                self.residual_mass, other.residual_mass
            ));
        }
        if self.truncated != other.truncated {
            return Some(format!(
                "truncated: {} vs {}",
                self.truncated, other.truncated
            ));
        }
        if self.nodes_visited != other.nodes_visited {
            return Some(format!(
                "nodes visited: {} vs {}",
                self.nodes_visited, other.nodes_visited
            ));
        }
        if self.interrupted != other.interrupted {
            return Some(format!(
                "interrupted: {} vs {}",
                self.interrupted, other.interrupted
            ));
        }
        None
    }
}

/// Exhaustively enumerate the finite possible outcomes of the translated
/// program relative to `grounder`, following the chase procedure
/// sequentially on the calling thread.
pub fn enumerate_outcomes(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
) -> Result<ChaseResult, CoreError> {
    enumerate_outcomes_in(grounder, budget, order, &Ctx::sequential())
}

/// [`enumerate_outcomes`] under `ctx`'s executor and cancellation token.
///
/// With a parallel [`Executor`](crate::Executor) the chase tree is explored
/// by the pool — each sibling subtree extends an `Arc`-shared snapshot of its
/// parent's grounding, so subtrees share no mutable state — and the
/// per-subtree results are then merged **in trigger order** by a sequential
/// replay, so the outcome list, every probability, the residual mass,
/// `truncated` and `nodes_visited` are bit-identical to the sequential
/// enumeration regardless of the thread count or scheduling (see
/// `ARCHITECTURE.md`, "Parallel chase exploration").
///
/// The token is polled at every chase-node expansion (and re-checked after
/// each node's grounding, so a saturation the grounder broke out of early
/// can never masquerade as a terminal leaf). A cancelled subtree is cut
/// exactly like a budget cut: its path mass moves to `residual_mass`,
/// `truncated` is set, and additionally [`ChaseResult::interrupted`] records
/// that the cut was a cancellation — the invariant `explored + residual = 1`
/// holds for interrupted results too.
pub fn enumerate_outcomes_in(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
    ctx: &Ctx,
) -> Result<ChaseResult, CoreError> {
    let cancel = &ctx.cancel;
    if budget.max_outcomes == 0 {
        return Err(CoreError::Budget(
            "max_outcomes must be at least one".to_owned(),
        ));
    }
    let mut result = ChaseResult {
        outcomes: Vec::new(),
        residual_mass: Prob::ZERO,
        truncated: false,
        nodes_visited: 0,
        interrupted: false,
    };
    match ctx.executor.pool() {
        None => explore(
            grounder,
            budget,
            order,
            AtrSet::new(),
            None,
            Prob::ONE,
            0,
            cancel,
            &mut result,
        )?,
        Some(pool) => {
            let spec = Speculation {
                grounder,
                budget,
                order,
                found: AtomicUsize::new(0),
                cancel,
            };
            let root = Arc::new(Cell::new());
            pool.scope(|scope| {
                let spec = &spec;
                let root = Arc::clone(&root);
                scope.spawn(move |scope| {
                    speculate(spec, scope, AtrSet::new(), None, Prob::ONE, 0, root)
                });
            });
            replay(
                grounder,
                budget,
                order,
                take_node(root),
                cancel,
                &mut result,
            )?;
        }
    }
    Ok(result)
}

/// Children are dispatched to the pool only above this depth; below it a
/// subtree is explored inline by the task that owns it. With binary
/// branching this yields up to 2¹² parallel subtrees — far more than any
/// realistic worker count — while keeping per-task overhead negligible for
/// deep trees.
const SPLIT_DEPTH: usize = 12;

/// What the parallel phase found out about one chase node. The variants
/// mirror the branch structure of [`explore`] exactly; the per-node
/// *decisions* that depend on global traversal state (the outcome budget)
/// are deferred to the sequential replay.
enum Node {
    /// Skipped speculatively because the outcome budget looked exhausted.
    /// The replay re-explores it sequentially if (and only if) the budget
    /// turns out not to be full when the walk reaches it in trigger order.
    Deferred {
        atr: AtrSet,
        path_prob: Prob,
        depth: usize,
    },
    /// `path_prob` is below the path-probability cut-off (a purely local
    /// decision, safe to take in parallel).
    MinPathCut { path_prob: Prob },
    /// A terminal configuration: a finite possible outcome.
    Leaf(Box<PossibleOutcome>),
    /// A non-terminal node at the depth budget.
    DepthCut { path_prob: Prob },
    /// A trigger application: children in branch (outcome) order.
    Branch {
        path_prob: Prob,
        support_cut: bool,
        tail: Prob,
        children: Vec<Arc<Cell>>,
    },
    /// A schema/branch-enumeration failure at this node. Sequentially the
    /// error is raised *after* the node's entry checks, so the replay still
    /// applies outcome-budget and path-probability pruning first (a pruned
    /// node never surfaces its error) — hence the `path_prob`.
    Failed { path_prob: Prob, error: CoreError },
    /// A failure constructing this child in its parent's branch loop.
    /// Sequentially the error is raised *before* the child node is entered,
    /// so the replay surfaces it unconditionally, without counting a visit.
    FailedChild(CoreError),
}

/// A write-once slot filled by exactly one exploration task.
type Cell = OnceLock<Node>;

struct Speculation<'a> {
    grounder: &'a dyn Grounder,
    budget: &'a ChaseBudget,
    order: TriggerOrder,
    /// Outcomes discovered so far across all tasks — a heuristic used only
    /// to stop speculative work once the budget *could* be full; the replay
    /// re-establishes the exact sequential semantics.
    found: AtomicUsize,
    /// Cooperative cancellation: once set, speculation defers every node it
    /// reaches and the replay cuts them to residual mass.
    cancel: &'a CancelToken,
}

fn set_node(cell: &Cell, node: Node) {
    if cell.set(node).is_err() {
        unreachable!("chase node cell filled twice");
    }
}

fn take_node(cell: Arc<Cell>) -> Node {
    Arc::try_unwrap(cell)
        .unwrap_or_else(|_| unreachable!("chase node cell still shared after the scope"))
        .into_inner()
        .expect("every exploration task fills its cell")
}

/// The parallel exploration phase: compute this node's grounding and local
/// structure, then fan its children out to the pool. Performs exactly the
/// per-node work of [`explore`] *except* for the decisions that depend on
/// global traversal order (outcome-budget pruning and result accumulation),
/// which [`replay`] takes afterwards.
fn speculate<'s>(
    spec: &'s Speculation<'s>,
    scope: &rayon::Scope<'s>,
    atr: AtrSet,
    parent: Option<(AtrSet, Grounding)>,
    path_prob: Prob,
    depth: usize,
    cell: Arc<Cell>,
) {
    // A cancelled speculation defers: the replay re-enters the node
    // sequentially, sees the cancelled token, and cuts it to residual mass
    // without redoing any grounding work.
    if spec.cancel.is_cancelled() || spec.found.load(Ordering::Relaxed) >= spec.budget.max_outcomes
    {
        set_node(
            &cell,
            Node::Deferred {
                atr,
                path_prob,
                depth,
            },
        );
        return;
    }
    if path_prob.to_f64() < spec.budget.min_path_probability {
        set_node(&cell, Node::MinPathCut { path_prob });
        return;
    }

    let mut grounding = match parent {
        Some((parent_atr, mut parent_grounding)) => {
            spec.grounder
                .ground_from(&atr, &parent_atr, &mut parent_grounding)
        }
        None => spec.grounder.ground_node(&atr),
    };

    // Re-check after grounding: a cancelled grounder may have broken out of
    // saturation early, so this node's rule set (and hence its trigger set)
    // cannot be trusted to decide leaf-ness. Defer it; the replay cuts it.
    if spec.cancel.is_cancelled() {
        set_node(
            &cell,
            Node::Deferred {
                atr,
                path_prob,
                depth,
            },
        );
        return;
    }
    let triggers = spec.grounder.triggers(&atr, grounding.rules());

    if triggers.is_empty() {
        spec.found.fetch_add(1, Ordering::Relaxed);
        set_node(
            &cell,
            Node::Leaf(Box::new(PossibleOutcome::new(
                atr,
                grounding.into_rules(),
                path_prob,
            ))),
        );
        return;
    }

    if depth >= spec.budget.max_depth {
        set_node(&cell, Node::DepthCut { path_prob });
        return;
    }

    let trigger = triggers[spec.order.pick(&triggers, depth)].clone();
    let schema = match spec.grounder.sigma().schema_for_active(&trigger.predicate) {
        Some(schema) => schema,
        None => {
            set_node(
                &cell,
                Node::Failed {
                    path_prob,
                    error: CoreError::Validation(format!(
                        "trigger {trigger} does not use a generated Active predicate"
                    )),
                },
            );
            return;
        }
    };
    let mut branches = match schema.outcomes(&trigger, spec.budget.max_branching.saturating_add(1))
    {
        Ok(branches) => branches,
        Err(e) => {
            set_node(
                &cell,
                Node::Failed {
                    path_prob,
                    error: e.into(),
                },
            );
            return;
        }
    };
    let support_cut = branches.len() > spec.budget.max_branching;
    branches.truncate(spec.budget.max_branching);
    let branch_mass = Prob::sum(branches.iter().map(|(_, p)| *p));
    let tail = path_prob.mul(&Prob::ONE.sub(&branch_mass));

    let mut children = Vec::with_capacity(branches.len());
    for (outcome_value, mass) in branches {
        let child_cell = Arc::new(Cell::new());
        children.push(Arc::clone(&child_cell));
        // A construction failure becomes the child's node: the replay walks
        // the earlier children normally and surfaces the error exactly where
        // the sequential recursion would have.
        let rule = match AtrRule::new(spec.grounder.sigma(), trigger.clone(), outcome_value) {
            Ok(rule) => rule,
            Err(e) => {
                set_node(&child_cell, Node::FailedChild(e));
                break;
            }
        };
        let child_atr = match atr.extended(rule) {
            Ok(child_atr) => child_atr,
            Err(e) => {
                set_node(&child_cell, Node::FailedChild(e));
                break;
            }
        };
        // O(1) structural snapshot: the child owns its view of the parent's
        // grounding, so sibling tasks share no mutable state. Taking the
        // snapshots serially here preserves the exact representation
        // evolution (freeze/flatten points) of the sequential descent.
        let child_parent = Some((atr.clone(), grounding.snapshot()));
        let child_prob = path_prob.mul(&mass);
        if depth < SPLIT_DEPTH {
            scope.spawn(move |scope| {
                speculate(
                    spec,
                    scope,
                    child_atr,
                    child_parent,
                    child_prob,
                    depth + 1,
                    child_cell,
                )
            });
        } else {
            speculate(
                spec,
                scope,
                child_atr,
                child_parent,
                child_prob,
                depth + 1,
                child_cell,
            );
        }
    }
    set_node(
        &cell,
        Node::Branch {
            path_prob,
            support_cut,
            tail,
            children,
        },
    );
}

/// The deterministic merge: walk the speculatively explored tree in trigger
/// order — the exact visit order of the sequential [`explore`] — applying
/// the order-dependent budget decisions and accumulating outcomes and
/// residual mass. Because every accumulation happens in the sequential
/// order, the result is bit-identical to the sequential enumeration (resid-
/// ual float adds included); subtrees the speculation skipped are explored
/// sequentially on demand, so the heuristic can never change the result.
fn replay(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
    node: Node,
    cancel: &CancelToken,
    result: &mut ChaseResult,
) -> Result<(), CoreError> {
    match node {
        // `explore` performs the node count and both budget checks itself.
        Node::Deferred {
            atr,
            path_prob,
            depth,
        } => {
            return explore(
                grounder, budget, order, atr, None, path_prob, depth, cancel, result,
            );
        }
        // Raised in the parent's branch loop, before this node is entered.
        Node::FailedChild(e) => return Err(e),
        _ => {}
    }

    result.nodes_visited += 1;
    let path_prob = match &node {
        Node::MinPathCut { path_prob }
        | Node::DepthCut { path_prob }
        | Node::Branch { path_prob, .. }
        | Node::Failed { path_prob, .. } => *path_prob,
        Node::Leaf(outcome) => outcome.probability,
        Node::Deferred { .. } | Node::FailedChild(_) => unreachable!("handled above"),
    };

    if cancel.is_cancelled() {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        result.interrupted = true;
        return Ok(());
    }
    if result.outcomes.len() >= budget.max_outcomes {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        return Ok(());
    }
    if path_prob.to_f64() < budget.min_path_probability {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        return Ok(());
    }

    match node {
        Node::Leaf(outcome) => {
            result.outcomes.push(*outcome);
        }
        Node::DepthCut { path_prob } => {
            result.residual_mass = result.residual_mass.add(&path_prob);
            result.truncated = true;
        }
        Node::Branch {
            support_cut,
            tail,
            children,
            ..
        } => {
            if support_cut {
                result.residual_mass = result.residual_mass.add(&tail);
                result.truncated = true;
            } else if tail.is_positive() {
                result.residual_mass = result.residual_mass.add(&tail);
            }
            for child in children {
                replay(grounder, budget, order, take_node(child), cancel, result)?;
            }
        }
        Node::Failed { error, .. } => return Err(error),
        // A `MinPathCut` always fails the cut-off re-check above, and the
        // remaining variants were dispatched before the checks.
        Node::MinPathCut { .. } | Node::Deferred { .. } | Node::FailedChild(_) => unreachable!(),
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn explore(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
    atr: AtrSet,
    parent: Option<(&AtrSet, &mut Grounding)>,
    path_prob: Prob,
    depth: usize,
    cancel: &CancelToken,
    result: &mut ChaseResult,
) -> Result<(), CoreError> {
    result.nodes_visited += 1;

    // Cancellation cuts exactly like a budget cut: the whole subtree's mass
    // is accounted in the residual, keeping explored + residual = 1.
    if cancel.is_cancelled() {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        result.interrupted = true;
        return Ok(());
    }

    // Once the outcome budget is full, no further node can contribute an
    // outcome: stop before doing any grounding work, so `max_outcomes`
    // bounds the number of nodes visited, not just the outcomes reported.
    if result.outcomes.len() >= budget.max_outcomes {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        return Ok(());
    }

    if path_prob.to_f64() < budget.min_path_probability {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        return Ok(());
    }

    // Each node extends its parent's configuration by one choice, so the
    // parent's grounding seeds an incremental saturation over a structurally
    // shared snapshot (all siblings share the parent's rule-log prefix).
    let mut grounding = match parent {
        Some((parent_atr, parent_grounding)) => {
            grounder.ground_from(&atr, parent_atr, parent_grounding)
        }
        None => grounder.ground_node(&atr),
    };

    // Re-check after grounding, *before* the leaf decision: a cancelled
    // grounder may have broken out of saturation early, and an incomplete
    // rule set must never be recorded as a terminal outcome.
    if cancel.is_cancelled() {
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        result.interrupted = true;
        return Ok(());
    }
    let triggers = grounder.triggers(&atr, grounding.rules());

    if triggers.is_empty() {
        // Leaf node: Σ is terminal; `Σ ∪ G(Σ)` is a finite possible outcome.
        result
            .outcomes
            .push(PossibleOutcome::new(atr, grounding.into_rules(), path_prob));
        return Ok(());
    }

    if depth >= budget.max_depth {
        // The path is cut: its mass is unexplored (it may correspond to an
        // infinite possible outcome, i.e. the error event, or merely to a
        // deeper finite one).
        result.residual_mass = result.residual_mass.add(&path_prob);
        result.truncated = true;
        return Ok(());
    }

    // Apply one trigger (Definition 4.1): branch over every outcome with
    // positive probability. Enumerating one outcome past the branching
    // budget detects exactly whether the support was cut.
    let trigger = triggers[order.pick(&triggers, depth)].clone();
    let schema = grounder
        .sigma()
        .schema_for_active(&trigger.predicate)
        .ok_or_else(|| {
            CoreError::Validation(format!(
                "trigger {trigger} does not use a generated Active predicate"
            ))
        })?;
    let mut branches = schema.outcomes(&trigger, budget.max_branching.saturating_add(1))?;
    let support_cut = branches.len() > budget.max_branching;
    branches.truncate(budget.max_branching);

    // Whenever `max_branching` cut the support, the unenumerated tail is
    // accounted exactly in `Prob` — no matter how small its float value —
    // so `total_mass()` stays 1 and `truncated` reflects the cut.
    let branch_mass = Prob::sum(branches.iter().map(|(_, p)| *p));
    let tail = path_prob.mul(&Prob::ONE.sub(&branch_mass));
    if support_cut {
        result.residual_mass = result.residual_mass.add(&tail);
        result.truncated = true;
    } else if tail.is_positive() {
        // Float dust from inexact parameters: keep the masses summing to ~1
        // without claiming a budget truncation.
        result.residual_mass = result.residual_mass.add(&tail);
    }

    for (outcome_value, mass) in branches {
        let rule = AtrRule::new(grounder.sigma(), trigger.clone(), outcome_value)?;
        let child = atr.extended(rule)?;
        explore(
            grounder,
            budget,
            order,
            child,
            Some((&atr, &mut grounding)),
            path_prob.mul(&mass),
            depth + 1,
            cancel,
            result,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfect_grounder::PerfectGrounder;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use gdlog_engine::StableModelLimits;
    use std::sync::Arc;

    fn network_db(n: i64) -> Database {
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
        db
    }

    fn simple_for(program: &crate::Program, db: &Database) -> SimpleGrounder {
        SimpleGrounder::new(Arc::new(SigmaPi::translate(program, db).unwrap()))
    }

    #[test]
    fn coin_program_has_two_outcomes_of_probability_one_half() {
        let grounder = simple_for(&coin_program(), &Database::new());
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 2);
        assert!(!result.truncated);
        assert_eq!(result.residual_mass, Prob::ZERO);
        assert_eq!(result.total_mass(), Prob::ONE);
        for outcome in &result.outcomes {
            assert_eq!(outcome.probability, Prob::ratio(1, 2));
            assert_eq!(outcome.choice_count(), 1);
        }
        // One outcome (tails) has two stable models, the other (heads) none —
        // exactly the situation described in Section 3.
        let limits = StableModelLimits::default();
        let mut model_counts: Vec<usize> = result
            .outcomes
            .iter()
            .map(|o| {
                o.stable_models(&limits, &CancelToken::never())
                    .unwrap()
                    .len()
            })
            .collect();
        model_counts.sort();
        assert_eq!(model_counts, vec![0, 2]);
    }

    #[test]
    fn network_example_3_10_outcome_structure() {
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert!(!result.truncated);
        assert_eq!(result.total_mass(), Prob::ONE);
        // The outcome where both neighbours resist infection has probability
        // 0.9² = 0.81 and no stable model (the network is not dominated ⇒ the
        // constraint kills every model ⇒ actually dominated-ness is the
        // *other* way round: no stable model means the malware failed).
        let limits = StableModelLimits::default();
        let no_model_mass = Prob::sum(
            result
                .outcomes
                .iter()
                .filter(|o| {
                    o.stable_models(&limits, &CancelToken::never())
                        .unwrap()
                        .is_empty()
                })
                .map(|o| o.probability),
        );
        // Probability that the network is dominated (has some stable model):
        let dominated = Prob::ONE.sub(&no_model_mass);
        assert_eq!(dominated, Prob::ratio(19, 100));
    }

    #[test]
    fn chase_is_order_independent() {
        // Lemma 4.4: the same set of finite results regardless of the trigger
        // selection policy.
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let budget = ChaseBudget::default();
        let canonical = |order: TriggerOrder| {
            let mut keys: Vec<(Vec<crate::grounding::AtrRule>, String)> =
                enumerate_outcomes(&grounder, &budget, order)
                    .unwrap()
                    .outcomes
                    .iter()
                    .map(|o| (o.atr.canonical(), o.probability.to_string()))
                    .collect();
            keys.sort();
            keys
        };
        let first = canonical(TriggerOrder::First);
        let last = canonical(TriggerOrder::Last);
        let scrambled = canonical(TriggerOrder::Scrambled);
        assert_eq!(first, last);
        assert_eq!(first, scrambled);
        assert!(!first.is_empty());
    }

    #[test]
    fn dime_quarter_with_perfect_grounder_has_six_outcomes() {
        // Two dimes: 4 configurations; the two configurations with no tail
        // each branch over the quarter (2 outcomes each): 3 + 1·... in fact
        // TT, TH, HT are terminal (3 outcomes) and HH splits into 2 → 5? No:
        // exactly one configuration (HH) requires the quarter toss, so
        // 3 + 2 = 5 outcomes for one quarter.
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        db.insert_fact("Dime", [Const::Int(2)]);
        db.insert_fact("Quarter", [Const::Int(3)]);
        let sigma = SigmaPi::translate(&dime_quarter_program(), &db).unwrap();
        let grounder = PerfectGrounder::new(Arc::new(sigma)).unwrap();
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 5);
        assert_eq!(result.total_mass(), Prob::ONE);
        assert!(!result.truncated);
        // The 3 dime-only outcomes have probability 1/4 each, the 2
        // quarter outcomes 1/8 each.
        let mut probs: Vec<String> = result
            .outcomes
            .iter()
            .map(|o| o.probability.to_string())
            .collect();
        probs.sort();
        assert_eq!(probs, vec!["1/4", "1/4", "1/4", "1/8", "1/8"]);
    }

    #[test]
    fn budget_truncation_is_accounted_in_residual_mass() {
        let grounder = simple_for(&network_resilience_program(0.5), &network_db(3));
        let tight = ChaseBudget {
            max_outcomes: 4,
            max_depth: 64,
            max_branching: 64,
            min_path_probability: 0.0,
        };
        let result = enumerate_outcomes(&grounder, &tight, TriggerOrder::First).unwrap();
        assert!(result.truncated);
        assert_eq!(result.outcomes.len(), 4);
        assert!(result.residual_mass.is_positive());
        assert!(result.total_mass().approx_eq(&Prob::ONE, 1e-9));
    }

    #[test]
    fn depth_budget_truncates_deep_paths() {
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let shallow = ChaseBudget {
            max_outcomes: 1000,
            max_depth: 1,
            max_branching: 64,
            min_path_probability: 0.0,
        };
        let result = enumerate_outcomes(&grounder, &shallow, TriggerOrder::First).unwrap();
        assert!(result.truncated);
        assert!(result.residual_mass.is_positive());
        assert!(result.total_mass().approx_eq(&Prob::ONE, 1e-9));
    }

    fn geometric_program() -> crate::Program {
        // → Steps(Geometric⟨1/2⟩): one trigger with countably infinite
        // support, so `max_branching` always cuts the support.
        crate::ProgramBuilder::new()
            .rule(|r| {
                r.head_with_delta(
                    "Steps",
                    vec![],
                    "Geometric",
                    vec![gdlog_data::Term::Const(Const::real(0.5).unwrap())],
                    vec![],
                )
            })
            .build()
            .unwrap()
    }

    #[test]
    fn branching_cut_tails_are_accounted_exactly_in_prob() {
        let grounder = simple_for(&geometric_program(), &Database::new());
        // A coarse cut: 4 of the countably many outcomes.
        let coarse = ChaseBudget {
            max_branching: 4,
            ..ChaseBudget::default()
        };
        let result = enumerate_outcomes(&grounder, &coarse, TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 4);
        assert!(result.truncated);
        assert_eq!(result.residual_mass, Prob::ratio(1, 16));
        assert_eq!(result.total_mass(), Prob::ONE);

        // Regression: with the default 64-way cut the tail mass 2⁻⁶⁴ is far
        // below any float threshold, but it is still support truncation —
        // `truncated` must say so and the tail must be accounted exactly, so
        // the total mass stays exactly one in `Prob`.
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 64);
        assert!(result.truncated);
        assert!(result.residual_mass.is_positive());
        assert_eq!(result.total_mass(), Prob::ONE);
    }

    fn coin_chain_program(n: i64, db: &mut Database) -> crate::Program {
        use gdlog_data::Term;
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        crate::ProgramBuilder::new()
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
            .unwrap()
    }

    #[test]
    fn outcome_budget_stops_exploration_early() {
        // Six independent coins: the full chase tree has 2⁷ − 1 = 127 nodes
        // and 64 outcomes.
        let mut db = Database::new();
        let program = coin_chain_program(6, &mut db);
        let grounder = simple_for(&program, &db);
        let full =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(full.outcomes.len(), 64);
        assert_eq!(full.nodes_visited, 127);

        // With max_outcomes = 1 the walk must stop after the first leaf:
        // only the leftmost path and its immediately abandoned siblings are
        // visited — O(depth), not the whole tree.
        let capped = ChaseBudget {
            max_outcomes: 1,
            ..ChaseBudget::default()
        };
        let result = enumerate_outcomes(&grounder, &capped, TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 1);
        assert!(result.truncated);
        assert_eq!(result.total_mass(), Prob::ONE);
        // Root-to-leaf path (7 nodes) plus one pruned sibling per level (6).
        assert_eq!(result.nodes_visited, 13);
    }

    #[test]
    fn pre_cancelled_chase_is_all_residual_and_interrupted() {
        let mut db = Database::new();
        let program = coin_chain_program(4, &mut db);
        let grounder = simple_for(&program, &db);
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = enumerate_outcomes_in(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &Ctx::sequential().with_cancel(cancel.clone()),
        )
        .unwrap();
        // The root is cut before grounding anything: no outcomes, the whole
        // unit of mass is residual, and the accounting invariant holds.
        assert!(result.outcomes.is_empty());
        assert!(result.interrupted);
        assert!(result.truncated);
        assert_eq!(result.residual_mass, Prob::ONE);
        assert_eq!(result.total_mass(), Prob::ONE);
    }

    #[test]
    fn never_token_reproduces_the_uncancelled_chase() {
        let mut db = Database::new();
        let program = coin_chain_program(4, &mut db);
        let grounder = simple_for(&program, &db);
        let plain =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let never = enumerate_outcomes_in(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &Ctx::sequential().with_cancel(CancelToken::never()),
        )
        .unwrap();
        assert!(!never.interrupted);
        assert!(plain.diff(&never).is_none());
    }

    #[test]
    fn mid_flight_cancellation_keeps_mass_accounting_exact() {
        // Cancel after the chase is already running (from a second thread,
        // racing real exploration): whatever prefix was explored, the
        // explored + residual invariant must hold exactly and the result
        // must be flagged interrupted.
        let mut db = Database::new();
        let program = coin_chain_program(12, &mut db);
        let grounder = simple_for(&program, &db);
        let cancel = CancelToken::new();
        let flag = cancel.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            flag.cancel();
        });
        let result = enumerate_outcomes_in(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &Ctx::sequential().with_cancel(cancel.clone()),
        )
        .unwrap();
        canceller.join().unwrap();
        assert_eq!(result.total_mass(), Prob::ONE);
        // 2^12 outcomes under a 2ms deadline: the cut must land mid-tree on
        // any realistic machine; if the walk somehow finished first, the
        // invariants above still validated the uncancelled path.
        if result.interrupted {
            assert!(result.truncated);
            assert!(result.residual_mass.is_positive());
        }
    }

    #[test]
    fn scrambled_order_depends_on_the_trigger_atoms() {
        // Equal depth, equally many triggers, different atoms: the pick must
        // be derived from the atoms themselves, not just the counts.
        let sets: Vec<Vec<GroundAtom>> = (0..16)
            .map(|i| {
                vec![
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(0)]),
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(1)]),
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(2)]),
                ]
            })
            .collect();
        let picks: std::collections::BTreeSet<usize> = sets
            .iter()
            .map(|triggers| TriggerOrder::Scrambled.pick(triggers, 3))
            .collect();
        assert!(
            picks.len() > 1,
            "equal-depth sibling nodes all picked position {picks:?}"
        );
        // Still deterministic per node.
        assert_eq!(
            TriggerOrder::Scrambled.pick(&sets[0], 3),
            TriggerOrder::Scrambled.pick(&sets[0], 3)
        );
    }

    /// Strict equality of chase results through the shared
    /// [`ChaseResult::diff`] definition.
    fn assert_bit_identical(a: &ChaseResult, b: &ChaseResult, label: &str) {
        if let Some(diff) = a.diff(b) {
            panic!("{label}: results differ: {diff}");
        }
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        let mut db = Database::new();
        let program = coin_chain_program(6, &mut db);
        let chain = simple_for(&program, &db);
        let ring = simple_for(&network_resilience_program(0.1), &network_db(3));
        let grounders: [&dyn crate::grounding::Grounder; 2] = [&chain, &ring];
        for grounder in grounders {
            for order in [
                TriggerOrder::First,
                TriggerOrder::Last,
                TriggerOrder::Scrambled,
            ] {
                let sequential =
                    enumerate_outcomes(grounder, &ChaseBudget::default(), order).unwrap();
                for threads in [2, 3, 8] {
                    let ctx = Ctx::new(Arc::new(crate::exec::Executor::new(threads)));
                    let parallel =
                        enumerate_outcomes_in(grounder, &ChaseBudget::default(), order, &ctx)
                            .unwrap();
                    assert_bit_identical(&sequential, &parallel, &format!("{order:?} x{threads}"));
                }
            }
        }
    }

    #[test]
    fn parallel_enumeration_replays_outcome_budget_truncation_exactly() {
        // max_outcomes = 1 prunes almost the whole tree sequentially; the
        // parallel walk may speculate past the budget but the replay must
        // reproduce the sequential pruning — outcomes, residual *and* the
        // visited-node count.
        let mut db = Database::new();
        let program = coin_chain_program(6, &mut db);
        let grounder = simple_for(&program, &db);
        for budget in [
            ChaseBudget {
                max_outcomes: 1,
                ..ChaseBudget::default()
            },
            ChaseBudget {
                max_outcomes: 5,
                max_depth: 3,
                max_branching: 2,
                min_path_probability: 0.0,
            },
            ChaseBudget {
                min_path_probability: 0.2,
                ..ChaseBudget::default()
            },
        ] {
            let sequential = enumerate_outcomes(&grounder, &budget, TriggerOrder::First).unwrap();
            for threads in [2, 8] {
                let ctx = Ctx::new(Arc::new(crate::exec::Executor::new(threads)));
                let parallel =
                    enumerate_outcomes_in(&grounder, &budget, TriggerOrder::First, &ctx).unwrap();
                assert_bit_identical(&sequential, &parallel, &format!("{budget:?} x{threads}"));
            }
        }
    }

    #[test]
    fn parallel_enumeration_accounts_branching_cuts_exactly() {
        // Countably infinite support: the branch tail must be accounted in
        // `Prob` identically under parallel exploration.
        let grounder = simple_for(&geometric_program(), &Database::new());
        let coarse = ChaseBudget {
            max_branching: 4,
            ..ChaseBudget::default()
        };
        let sequential = enumerate_outcomes(&grounder, &coarse, TriggerOrder::First).unwrap();
        let ctx = Ctx::new(Arc::new(crate::exec::Executor::new(4)));
        let parallel =
            enumerate_outcomes_in(&grounder, &coarse, TriggerOrder::First, &ctx).unwrap();
        assert_bit_identical(&sequential, &parallel, "geometric cut");
        assert_eq!(parallel.residual_mass, Prob::ratio(1, 16));
        assert_eq!(parallel.total_mass(), Prob::ONE);
    }

    #[test]
    fn zero_outcome_budget_is_rejected() {
        let grounder = simple_for(&coin_program(), &Database::new());
        let bad = ChaseBudget {
            max_outcomes: 0,
            ..ChaseBudget::default()
        };
        assert!(matches!(
            enumerate_outcomes(&grounder, &bad, TriggerOrder::First),
            Err(CoreError::Budget(_))
        ));
    }

    #[test]
    fn non_probabilistic_programs_have_a_single_certain_outcome() {
        // A plain Datalog¬ program: the chase terminates immediately with the
        // empty choice set and probability 1.
        let program = crate::Program::new(network_resilience_program(0.1).rules()[1..2].to_vec());
        let mut db = Database::new();
        db.insert_fact("Router", [Const::Int(1)]);
        let grounder = simple_for(&program, &db);
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].probability, Prob::ONE);
        assert_eq!(result.outcomes[0].choice_count(), 0);
        assert_eq!(result.nodes_visited, 1);
    }
}
