//! Parallel E-dag / E-tree traversals on the PLinda tuple space.
//!
//! These are the PLED and PLET programs of §3.2.2 and §3.3.3, and the
//! optimistic / load-balanced worker variants of §4.2.2, expressed over
//! the [`plinda::TaskFarm`] harness (which owns the master/worker
//! skeleton — task/result channels, poison-pill shutdown, fault
//! injection — leaving only the traversal logic here):
//!
//! * [`parallel_edt`] — PLED (Figs. 3.4/3.5): the master enforces the
//!   E-dag visiting rule (a pattern is dispatched only after *all* its
//!   immediate subpatterns are known good), level-synchronised exactly as
//!   in Definition 2; workers are stateless goodness evaluators.
//! * [`parallel_ett`] — PLET (Figs. 3.9/3.10, 4.4–4.7): no barrier.
//!   - With [`WorkerStrategy::LoadBalanced`], workers generate child work
//!     tuples themselves, so any idle worker can help on any branch.
//!   - With [`WorkerStrategy::Optimistic`], a worker takes one initial
//!     task and traverses that whole subtree locally (minimal
//!     communication, no balancing).
//!
//!   The *adaptive master* (§4.3.2) is `initial_task_level`: the master
//!   itself traverses the first `initial_task_level - 1` levels and emits
//!   tasks at `initial_task_level`, producing more (smaller) initial tasks
//!   when many workers are available.
//!
//! PLED, the candidate-partitioned [`parallel_wave`] and the PLED phase
//! of [`parallel_hybrid`] run one level-synchronous master; they differ
//! only in its pruning rule and level limit.
//!
//! All variants produce identical good-pattern sets (Theorems 2–4); the
//! tests and `tests/integration_parallel_mining.rs` check this, including
//! under injected worker failures.

use crate::problem::{MiningOutcome, MiningProblem, PatternCodec};
use plinda::{FarmConfig, Payload, PlindaError, TaskFarm, Value, WorkerScope};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Worker style for [`parallel_ett`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStrategy {
    /// Workers expand good patterns into new work tuples (Figs. 4.6/4.7).
    LoadBalanced,
    /// Workers consume a whole subtree per task (Figs. 4.4/4.5).
    Optimistic,
}

/// Configuration of a parallel E-tree traversal.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker style.
    pub strategy: WorkerStrategy,
    /// The level at which the master emits initial tasks; levels above it
    /// are traversed by the master itself. `1` is the plain master; the
    /// adaptive master of §4.3.2 picks `2` when six or more machines are
    /// available.
    pub initial_task_level: usize,
    /// Optional per-job tag appended to the farm program name
    /// (`"<name>.<tag>"`), namespacing the task/result/counter channels.
    /// Required when concurrent jobs of the *same* program share one
    /// space (e.g. two tenants both running seqmine over a warm broker):
    /// channel names are otherwise fixed per program, so untagged
    /// concurrent runs would cross-deliver tasks and results.
    pub job_tag: Option<String>,
    /// The bag-of-tasks farm every traversal runs on: worker count, kill
    /// schedule, recorder, metrics registry, space and prefetch depth.
    /// Private so that dispatch stays [`plinda::Dispatch::Bag`].
    farm: FarmConfig,
}

impl ParallelConfig {
    fn new(workers: usize, strategy: WorkerStrategy) -> Self {
        assert!(workers >= 1, "need at least one worker");
        ParallelConfig {
            strategy,
            initial_task_level: 1,
            job_tag: None,
            farm: FarmConfig::bag(workers),
        }
    }

    /// Plain load-balanced configuration.
    pub fn load_balanced(workers: usize) -> Self {
        Self::new(workers, WorkerStrategy::LoadBalanced)
    }

    /// Plain optimistic configuration.
    pub fn optimistic(workers: usize) -> Self {
        Self::new(workers, WorkerStrategy::Optimistic)
    }

    /// Schedule a kill of worker `index` after `delay` — the simulated
    /// workstation-owner returns of §7.1.1. The runtime aborts the
    /// victim's open transaction and re-spawns it; results must be
    /// unaffected (PLinda's guarantee, exercised by the integration
    /// tests). `index` must be below the worker count.
    pub fn kill_after(mut self, delay: std::time::Duration, index: usize) -> Self {
        self.farm = self.farm.kill_after(delay, index);
        self
    }

    /// Apply the adaptive-master rule of §4.3.2: with 6 or more workers,
    /// descend to level 2 before emitting tasks.
    pub fn adaptive(mut self) -> Self {
        self.initial_task_level = if self.farm.workers >= 6 { 2 } else { 1 };
        self
    }

    /// Record the run's tuple-space trace into `rec` for offline protocol
    /// checking.
    pub fn with_recorder(mut self, rec: plinda::Recorder) -> Self {
        self.farm = self.farm.with_recorder(rec);
        self
    }

    /// Meter the run into `reg`: live tuple-space/transaction metrics
    /// while running, per-worker accounting folded in at farm teardown.
    pub fn with_metrics(mut self, reg: plinda::MetricsRegistry) -> Self {
        self.farm = self.farm.with_metrics(reg);
        self
    }

    /// Run the traversal over `space` (e.g. the result of
    /// [`plinda::TupleSpace::connect_unix`], an `fpdm-spaced` broker)
    /// instead of a fresh in-process one; the traversal code is identical
    /// either way.
    pub fn with_space(mut self, space: Arc<plinda::TupleSpace>) -> Self {
        self.farm = self.farm.with_space(space);
        self
    }

    /// Workers take up to `n` tasks per transaction (batched withdrawal;
    /// one commit covers the whole batch). Unset, the farm default is 1
    /// in-process and 8 over a socket backend.
    pub fn with_prefetch(mut self, n: usize) -> Self {
        self.farm = self.farm.with_prefetch(n);
        self
    }

    /// Namespace this run's farm channels as `"<program>.<tag>"` — see
    /// [`ParallelConfig::job_tag`]. Mandatory for concurrent same-program
    /// jobs over a shared space; harmless (a longer channel name) on a
    /// private one.
    pub fn with_job_tag(mut self, tag: impl Into<String>) -> Self {
        self.job_tag = Some(tag.into());
        self
    }

    /// The farm program name for this run: `base` suffixed with the job
    /// tag, if one is set.
    pub fn farm_name(&self, base: &str) -> String {
        match &self.job_tag {
            Some(tag) => format!("{base}.{tag}"),
            None => base.to_owned(),
        }
    }
}

/// Ordinary evaluate-and-expand task (PLET) / evaluate task (PLED).
const NORMAL: i64 = 0;
/// Evaluate-only task of the hybrid's PLED phase (answers with a result
/// tuple instead of expanding in place).
const EVAL: i64 = 2;

/// Every farm in this module must drain its channels: anything left in
/// the space at quiescence is a protocol leak.
fn assert_drained(name: &str, report: &plinda::FarmReport) {
    assert!(
        report.leaked.is_empty(),
        "{name} farm leaked tuples: {:?}",
        report.leaked
    );
}

// ---------------------------------------------------------------------
// The level-synchronous master: PLED, the wave, and the hybrid's PLED
// phase.
// ---------------------------------------------------------------------

/// Which generated candidates [`level_master`] grades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prune {
    /// The E-dag visiting rule (Definition 2): a candidate is graded only
    /// when all its immediate subpatterns proved good on the previous
    /// level.
    AllSubpatterns,
    /// The E-tree rule: every child of a good pattern is graded.
    ParentOnly,
}

/// The level-synchronous master (PLED's Fig. 3.4). Each level it sends
/// the candidates `prune` admits as one task wave under `flag` (one
/// deferred `send_all` burst), collects the wave's reports in bulk
/// (`recv_upto`, each read as `(encoding, goodness)` by `grade`), and
/// expands the children of the good candidates in dispatch order, so
/// report arrival order never leaks into the next level. The wave size is
/// the termination count: there is no shared outstanding-work counter,
/// and the master blocks only on its own wave's reports.
///
/// Stops when a level comes up empty or after `max_level` levels, and
/// returns the outcome so far together with the unvisited frontier (the
/// children of the last level's good patterns).
fn level_master<P, R>(
    problem: &P,
    farm: &TaskFarm<Vec<u8>, R>,
    flag: i64,
    grade: fn(R) -> (Vec<u8>, f64),
    prune: Prune,
    max_level: Option<usize>,
) -> (MiningOutcome<P::Pattern>, Vec<P::Pattern>)
where
    P: MiningProblem + PatternCodec,
    R: Payload + 'static,
{
    let mut outcome = MiningOutcome::new();
    let root = problem.root();
    // The previous level's good patterns; only `AllSubpatterns` reads it.
    let mut prev_good: HashSet<P::Pattern> = HashSet::from([root.clone()]);
    let mut frontier = problem.children(&root);
    let mut level = 1;

    while !frontier.is_empty() && max_level.is_none_or(|max| level <= max) {
        let mut dispatched = Vec::with_capacity(frontier.len());
        let mut order = Vec::with_capacity(frontier.len());
        for p in frontier {
            if prune == Prune::ParentOnly
                || problem
                    .immediate_subpatterns(&p)
                    .iter()
                    .all(|s| prev_good.contains(s))
            {
                order.push(problem.encode_pattern(&p));
                dispatched.push(p);
            }
        }
        farm.send_all(flag, &order);

        let mut grades: HashMap<Vec<u8>, f64> = HashMap::with_capacity(order.len());
        let mut pending = order.len();
        while pending > 0 {
            let reports = farm.recv_upto(pending);
            pending -= reports.len();
            grades.extend(reports.into_iter().map(grade));
        }
        debug_assert_eq!(grades.len(), order.len(), "unique generation");
        outcome.tested += order.len() as u64;

        let mut this_good = HashSet::new();
        let mut next = Vec::new();
        for (p, enc) in dispatched.into_iter().zip(&order) {
            let g = grades[enc];
            if problem.is_good(&p, g) {
                next.extend(problem.children(&p));
                outcome.good.insert(p.clone(), g);
                if prune == Prune::AllSubpatterns {
                    this_good.insert(p);
                }
            }
        }
        prev_good = this_good;
        frontier = next;
        level += 1;
    }

    (outcome, frontier)
}

/// Run the level master to exhaustion over a farm of stateless grading
/// workers (Fig. 3.5): each task is one encoded candidate, each report
/// `(encoding, goodness)`.
fn level_traversal<P>(
    name: &str,
    problem: Arc<P>,
    config: &ParallelConfig,
    prune: Prune,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    let name = config.farm_name(name);
    let wp = Arc::clone(&problem);
    let farm = TaskFarm::<Vec<u8>, (Vec<u8>, f64)>::start(
        &name,
        config.farm.clone(),
        move |scope, _flag, enc| {
            let g = wp.goodness(&wp.decode_pattern(&enc));
            scope.result(&(enc, g));
            Ok(())
        },
    );
    let (outcome, _) = level_master(&*problem, &farm, NORMAL, |r| r, prune, None);
    assert_drained(&name, &farm.finish());
    outcome
}

/// Run a parallel E-dag traversal with `workers` worker processes.
///
/// Equivalent (Theorem 2) to [`crate::edag::sequential_edt`]: same good
/// patterns, same tested-pattern set.
pub fn parallel_edt<P>(problem: Arc<P>, workers: usize) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    parallel_edt_cfg(problem, &ParallelConfig::load_balanced(workers))
}

/// [`parallel_edt`] with full [`ParallelConfig`] control (kill schedule,
/// trace recorder, metrics registry; the strategy and task-level fields
/// are ignored — PLED is inherently level-synchronised).
pub fn parallel_edt_cfg<P>(problem: Arc<P>, config: &ParallelConfig) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    level_traversal("pled", problem, config, Prune::AllSubpatterns)
}

/// Run a candidate-partitioned wave traversal of the E-tree under the
/// farm program name `name`.
///
/// This is the *candidate partitioning* of Gan et al.'s parallel
/// sequential-pattern-mining taxonomy — the farm port of the sequential
/// miners (seqmine, treemine, episodes): the master owns the lattice
/// frontier and emits each level's candidates as one task wave;
/// stateless workers each grade their share of the candidates against
/// the full database. It is PLED's master with parent-only pruning, like
/// PLET. Because every [`MiningProblem`] generates each pattern exactly
/// once from its unique parent, the tested set — and therefore the whole
/// [`MiningOutcome`] — is bit-identical to
/// [`crate::etree::sequential_ett`]'s.
pub fn parallel_wave<P>(
    name: &str,
    problem: Arc<P>,
    config: &ParallelConfig,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    level_traversal(name, problem, config, Prune::ParentOnly)
}

// ---------------------------------------------------------------------
// PLET: parallel E-tree traversal.
// ---------------------------------------------------------------------

/// A load-balanced "done" report: `(encoded pattern, goodness, good?,
/// children emitted)` — the tuple-space form of the `termination()`
/// pruned-propagation of Figs. 4.6/3.9.
type DoneReport = (Vec<u8>, f64, i64, i64);

/// The load-balanced worker of Fig. 4.7: evaluate one node; expand in
/// place if good. Retiring the task against the shared outstanding-work
/// counter happens in the same transaction as consuming it and publishing
/// its children and report, so the counter reads zero exactly when every
/// report has committed.
fn expand_in_place<P>(
    problem: &P,
    scope: &mut WorkerScope<'_, Vec<u8>, DoneReport>,
    enc: Vec<u8>,
) -> Result<(), PlindaError>
where
    P: MiningProblem + PatternCodec,
{
    let p = problem.decode_pattern(&enc);
    let g = problem.goodness(&p);
    let good = problem.is_good(&p, g);
    let mut n_children = 0i64;
    if good {
        for c in problem.children(&p) {
            scope.emit(NORMAL, &problem.encode_pattern(&c));
            n_children += 1;
        }
    }
    scope.retire(n_children)?;
    scope.result(&(enc, g, i64::from(good), n_children));
    Ok(())
}

/// The load-balanced master of Fig. 4.6: emit `frontier` as the initial
/// tasks (one deferred burst), seed the outstanding-work counter, block
/// until the workers drive it to zero (termination detection), then
/// collect every report in bulk into `outcome`.
fn expand_master<P>(
    problem: &P,
    farm: &TaskFarm<Vec<u8>, DoneReport>,
    frontier: &[P::Pattern],
    outcome: &mut MiningOutcome<P::Pattern>,
) where
    P: MiningProblem + PatternCodec,
{
    let encoded: Vec<Vec<u8>> = frontier.iter().map(|p| problem.encode_pattern(p)).collect();
    farm.send_all(NORMAL, &encoded);
    farm.seed_counter(frontier.len() as i64);
    farm.await_quiescent();
    for (enc, g, good, _children) in farm.drain() {
        outcome.tested += 1;
        if good == 1 {
            outcome.good.insert(problem.decode_pattern(&enc), g);
        }
    }
}

/// Run a parallel E-tree traversal per `config`.
///
/// Equivalent (Theorem 3) to [`crate::etree::sequential_ett`] in its good
/// patterns (the set of *tested* patterns can differ between strategies;
/// `tested` reports the actual count).
pub fn parallel_ett<P>(problem: Arc<P>, config: &ParallelConfig) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    assert!(config.initial_task_level >= 1);
    let cfg = config.farm.clone();

    // Master preamble shared by both strategies: traverse the first
    // `initial_task_level - 1` levels locally (the adaptive master of
    // §4.3.2), leaving the initial task frontier.
    let mut outcome = MiningOutcome::new();
    let root = problem.root();
    let mut frontier = problem.children(&root);
    for _ in 1..config.initial_task_level {
        let mut next = Vec::new();
        for p in frontier {
            let g = problem.goodness(&p);
            outcome.tested += 1;
            if problem.is_good(&p, g) {
                next.extend(problem.children(&p));
                outcome.good.insert(p, g);
            }
        }
        frontier = next;
    }

    match config.strategy {
        WorkerStrategy::LoadBalanced => {
            let name = config.farm_name("plet-lb");
            let wp = Arc::clone(&problem);
            let farm = TaskFarm::<Vec<u8>, DoneReport>::start(&name, cfg, move |scope, _, enc| {
                expand_in_place(&*wp, scope, enc)
            });
            expand_master(&*problem, &farm, &frontier, &mut outcome);
            assert_drained(&name, &farm.finish());
        }
        WorkerStrategy::Optimistic => {
            // Fig. 4.5 worker: take one task, finish the whole subtree.
            let name = config.farm_name("plet-opt");
            let wp = Arc::clone(&problem);
            let farm =
                TaskFarm::<Vec<u8>, Vec<Value>>::start(&name, cfg, move |scope, _flag, enc| {
                    let mut results: Vec<Value> = Vec::new();
                    let mut stack = vec![wp.decode_pattern(&enc)];
                    while let Some(p) = stack.pop() {
                        let g = wp.goodness(&p);
                        let good = wp.is_good(&p, g);
                        if good {
                            stack.extend(wp.children(&p));
                        }
                        results.push(Value::List(vec![
                            Value::Bytes(wp.encode_pattern(&p)),
                            Value::Real(g),
                            Value::Int(i64::from(good)),
                        ]));
                    }
                    scope.result(&results);
                    Ok(())
                });

            // Fig. 4.4 master: one subtree report per initial task.
            let encoded: Vec<Vec<u8>> =
                frontier.iter().map(|p| problem.encode_pattern(p)).collect();
            farm.send_all(NORMAL, &encoded);
            for _ in 0..frontier.len() {
                for entry in farm.recv() {
                    let Value::List(fields) = entry else {
                        unreachable!("sub entries are lists")
                    };
                    let (Value::Bytes(enc), Value::Real(g), Value::Int(good)) =
                        (&fields[0], &fields[1], &fields[2])
                    else {
                        unreachable!("sub entry shape")
                    };
                    outcome.tested += 1;
                    if *good == 1 {
                        let p = problem.decode_pattern(enc);
                        outcome.good.insert(p, *g);
                    }
                }
            }
            assert_drained(&name, &farm.finish());
        }
    }

    outcome
}

// ---------------------------------------------------------------------
// Hybrid: PLED early, PLET late (§3.3.4).
// ---------------------------------------------------------------------

/// The "optimal PLinda implementation" of §3.3.4: start as a parallel
/// E-dag traversal — full subpattern pruning while pruning pays the most,
/// at the shallow levels — and switch to a load-balanced parallel E-tree
/// traversal below `switch_level`, where synchronisation would cost more
/// than the extra pruning saves.
///
/// Theorem 4: produces exactly the good patterns of the sequential EDT.
pub fn parallel_hybrid<P>(
    problem: Arc<P>,
    workers: usize,
    switch_level: usize,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    parallel_hybrid_cfg(
        problem,
        &ParallelConfig::load_balanced(workers),
        switch_level,
    )
}

/// [`parallel_hybrid`] with full [`ParallelConfig`] control (kill
/// schedule, trace recorder, metrics registry; the strategy field is
/// ignored — the hybrid's PLET phase is always load-balanced).
pub fn parallel_hybrid_cfg<P>(
    problem: Arc<P>,
    config: &ParallelConfig,
    switch_level: usize,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    assert!(switch_level >= 1, "switch level starts at 1");

    // One worker program serving both protocols, selected per task flag:
    // EVAL tasks answer with an evaluate-only report (PLED mode); NORMAL
    // tasks expand in place with counter-based termination (PLET mode).
    // The two phases are disjoint in time, so they share one result
    // channel: EVAL reports carry zeroed expansion fields.
    let name = config.farm_name("hybrid");
    let wp = Arc::clone(&problem);
    let farm = TaskFarm::<Vec<u8>, DoneReport>::start(
        &name,
        config.farm.clone(),
        move |scope, flag, enc| {
            if flag == EVAL {
                let g = wp.goodness(&wp.decode_pattern(&enc));
                scope.result(&(enc, g, 0, 0));
                Ok(())
            } else {
                expand_in_place(&*wp, scope, enc)
            }
        },
    );

    // Phase 1: PLED over levels 1..=switch_level (full pruning).
    let (mut outcome, frontier) = level_master(
        &*problem,
        &farm,
        EVAL,
        |(enc, g, _, _)| (enc, g),
        Prune::AllSubpatterns,
        Some(switch_level),
    );

    // Phase 2: PLET over everything below, starting from the surviving
    // frontier (already pruned by PLED's subpattern rule).
    if !frontier.is_empty() {
        expand_master(&*problem, &farm, &frontier, &mut outcome);
    }

    assert_drained(&name, &farm.finish());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edag::sequential_edt;
    use crate::etree::sequential_ett;
    use crate::toy::{ToyItemsets, ToySeq};

    fn seq_problem() -> Arc<ToySeq> {
        Arc::new(ToySeq::new(
            vec!["FFRR", "MRRM", "MTRM", "ARRM", "FRRM"],
            2,
            usize::MAX,
        ))
    }

    fn itemset_problem() -> Arc<ToyItemsets> {
        Arc::new(ToyItemsets::new(
            vec![
                vec![1, 2, 3],
                vec![1, 2],
                vec![1, 3, 4],
                vec![2, 3],
                vec![1, 2, 3, 4],
                vec![2, 4],
            ],
            2,
        ))
    }

    #[test]
    fn theorem_2_pled_equals_edt() {
        let p = seq_problem();
        let seq = sequential_edt(&*p);
        let par = parallel_edt(Arc::clone(&p), 3);
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested, "PLED tests exactly the EDT set");
    }

    #[test]
    fn theorem_3_plet_load_balanced_equals_ett() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::load_balanced(4));
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn theorem_3_plet_optimistic_equals_ett() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::optimistic(4));
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn adaptive_master_same_results() {
        let p = seq_problem();
        let seq = sequential_ett(&*p);
        for workers in [2, 6] {
            let cfg = ParallelConfig::load_balanced(workers).adaptive();
            assert_eq!(cfg.initial_task_level, if workers >= 6 { 2 } else { 1 });
            let par = parallel_ett(Arc::clone(&p), &cfg);
            assert_eq!(seq.good, par.good, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::optimistic(1));
        assert_eq!(seq.good, par.good);
    }

    #[test]
    fn theorem_4_hybrid_equals_edt() {
        let p = itemset_problem();
        let seq = crate::edag::sequential_edt(&*p);
        for switch in [1, 2, 5] {
            let hybrid = parallel_hybrid(Arc::clone(&p), 3, switch);
            assert_eq!(seq.good, hybrid.good, "switch={switch}");
        }
        // Switching below the deepest level degenerates to pure PLED:
        // the tested sets then agree exactly as well.
        let hybrid = parallel_hybrid(Arc::clone(&p), 2, 64);
        assert_eq!(seq.good, hybrid.good);
        assert_eq!(seq.tested, hybrid.tested);
    }

    #[test]
    fn wave_equals_ett_on_both_toys() {
        let p = seq_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-seq",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(3),
        );
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested, "waves test exactly the ETT set");

        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-items",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(4),
        );
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn wave_survives_kills_and_prefetch() {
        // PLED, the wave and the hybrid share the level master; each must
        // reach its failure-free answer under kills at both prefetch
        // depths.
        let p = itemset_problem();
        let (edt, ett) = (sequential_edt(&*p), sequential_ett(&*p));
        for prefetch in [1, 4] {
            let cfg = ParallelConfig::load_balanced(3)
                .kill_after(std::time::Duration::from_millis(1), 0)
                .kill_after(std::time::Duration::from_millis(2), 2)
                .with_prefetch(prefetch);
            let pled = parallel_edt_cfg(Arc::clone(&p), &cfg);
            assert_eq!(edt.good, pled.good, "PLED prefetch={prefetch}");
            assert_eq!(edt.tested, pled.tested, "Theorem 2");
            let wave = parallel_wave("wave-kill", Arc::clone(&p), &cfg);
            assert_eq!(ett.good, wave.good, "wave prefetch={prefetch}");
            assert_eq!(ett.tested, wave.tested);
            for switch in [2, 64] {
                let hybrid = parallel_hybrid_cfg(Arc::clone(&p), &cfg, switch);
                assert_eq!(edt.good, hybrid.good, "hybrid switch={switch}");
                if switch == 64 {
                    assert_eq!(edt.tested, hybrid.tested, "pure PLED phase");
                }
            }
        }
    }

    #[test]
    fn wave_single_worker_and_empty_problem() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-one",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(1),
        );
        assert_eq!(seq.good, par.good);

        let empty = Arc::new(ToyItemsets::new(vec![], 1));
        let out = parallel_wave("wave-empty", empty, &ParallelConfig::load_balanced(2));
        assert!(out.is_empty());
    }

    #[test]
    fn wave_metered_ledger_is_consistent() {
        let p = seq_problem();
        let reg = plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
        let par = parallel_wave("wave-met", Arc::clone(&p), &cfg);
        assert_eq!(sequential_ett(&*p).good, par.good);
        let snap = reg.snapshot();
        assert_eq!(
            snap.sum_counters(|k| k.starts_with("farm.wave-met.worker.") && k.ends_with(".tasks")),
            par.tested,
            "every tested candidate is one committed task"
        );
        assert_eq!(snap.counter("farm.wave-met.leaked"), 0);
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn metered_run_ledger_is_consistent() {
        let p = itemset_problem();
        let reg = plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
        let par = parallel_ett(Arc::clone(&p), &cfg);
        assert_eq!(sequential_ett(&*p).good, par.good);
        let snap = reg.snapshot();
        assert_eq!(
            snap.sum_counters(|k| k.starts_with("farm.plet-lb.worker.") && k.ends_with(".tasks")),
            par.tested,
            "every tested pattern is one committed task"
        );
        assert_eq!(snap.counter("farm.plet-lb.leaked"), 0);
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn empty_problem_terminates() {
        let p = Arc::new(ToyItemsets::new(vec![], 1));
        let out = parallel_ett(Arc::clone(&p), &ParallelConfig::load_balanced(2));
        assert!(out.is_empty());
        let out = parallel_edt(p, 2);
        assert!(out.is_empty());
    }
}
