//! # armada-verify
//!
//! Bounded refinement checking between two Armada levels by explicit-state
//! forward simulation.
//!
//! The paper proves refinement with generated Dafny lemmas; this crate is
//! the *semantic* half of our substitution for that toolchain (see
//! DESIGN.md): it checks, by exhaustive enumeration, that every behavior of
//! the low-level program — every interleaving, every store-buffer drain
//! schedule, every bounded nondeterministic choice — simulates some behavior
//! of the high-level program under the refinement relation `R`, allowing
//! stuttering on the high side.
//!
//! The check is an antichain-style subset construction: a product node pairs
//! a concrete low state with the *set* of high states that match it so far;
//! a low step succeeds if every successor can be matched by `0..=max_match`
//! high steps ending in `R`-related states. An empty match set yields a
//! [`Counterexample`] with the offending low-level trace.
//!
//! Combined with the per-strategy obligations of `armada-strategies`, and
//! composed across adjacent levels by transitivity ([`RefinementChain`]),
//! this regenerates the paper's end-to-end guarantee on bounded instances.
//!
//! ## The engine
//!
//! States on both sides are hash-consed into [`StateArena`]s: dense ids,
//! cached 64-bit fingerprints, `Arc`-shared state trees. Product nodes
//! carry `Arc`s and fingerprints, so seen-set probes are integer bucket
//! lookups and no state is deep-cloned on the search path.
//!
//! With [`Bounds::reduction`] on (the default), low-side successor
//! enumeration fuses maximal runs of thread-local steps into single
//! macro-transitions (see `armada_sm::reduce`). Fused steps are invisible —
//! the log and termination are unchanged — so a fused edge's match set is a
//! superset of its parent's and can never fail by itself; the search is
//! organized in *micro-depth* buckets (a macro edge of k micro-steps lands
//! k deeper), so failures still surface at their minimal micro trace length
//! and counterexample traces (which spell out every fused micro-step)
//! remain the shortest possible. The high side is never reduced: its step
//! counting feeds the `max_match` stutter budget.
//!
//! ## Match-set identity
//!
//! A match set can hold thousands of high ids while a check produces only a
//! handful of distinct sets, so a set's identity is its `Arc`, not its
//! contents. Sets are computed only on an expand-cache miss — one
//! multi-source BFS over the whole parent set, the relation evaluated once
//! per distinct candidate — and hash-consed right there, under the cache's
//! lock: the new set is looked up by content and the existing `Arc`
//! returned, so equal contents always mean [`Arc::ptr_eq`]. Everything
//! downstream compares pointers: commit keys set ids by `Arc` address, and
//! subsumption walks contents only between two *different* sets. Which
//! worker computes a set first depends on scheduling, but ids are handed
//! out serially as sets first reach commit in global wave order, so they
//! stay deterministic, and so do the checkpoint and every output.
//!
//! ## Parallel search
//!
//! With [`Bounds::jobs`] > 1 the product search runs multi-core, and the
//! result is **byte-identical** to the serial run. The engine is a
//! pinned-role stage pipeline (ingress → explore → subsume → commit): the
//! coordinator thread feeds wave slots round-robin to `jobs` persistent
//! explore workers over lock-free SPSC rings (`armada_runtime::ring`) and
//! collects results strictly in slot order — slot `s` always travels
//! worker `s % jobs`'s rings, and rings are FIFO, so wave order
//! reconstructs with no reorder buffer. Expansion (low-step enumeration
//! plus match-set computation against the memoized high-level graph) is
//! the hot path and the only concurrent stage. Commit is split in two: a
//! **shard-parallel
//! subsumption phase** partitions the wave's successors by low-state
//! fingerprint across `jobs * 4` antichain shards — each shard scans its
//! successors in global wave order, so decisions match the serial scan
//! exactly (a state's antichain entries all live in its own shard) — then a
//! cheap serial merge assigns match-set ids (by pointer) and node ids,
//! applies the `max_nodes` budget, and admits successors in the same global
//! order.
//! Counterexample selection is deterministic by construction: all failures
//! surface in the first failing wave (so the trace is the minimal
//! micro-length), and the lexicographically-least trace wins regardless of
//! which worker found it first.

mod checkpoint;
pub mod store;
pub mod tier;

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use armada_proof::RefinementRelation;
use armada_recheck::{Witness, WitnessBuilder};
use armada_runtime::ring::{ring, Backoff};
use armada_runtime::telemetry::{Stage, StageTelemetry};
use armada_sm::arena::FpIdentityHasher;
use armada_sm::{
    initial_state, Bounds, Canonicalizer, Pc, ProgState, Program, Reducer, StateArena, StateId,
    Step, StepKind, Termination, Tid, Value,
};

/// Deterministic in-search fault injection (fuzzing only; the default
/// injects nothing). These model workers going *slow or dead* inside one
/// semantic check — a stalled refinement relation, a delayed cooperative
/// cancel, an aborted pool slot — so the checker's graceful-degradation
/// paths can be exercised reproducibly. None of them may ever change a
/// verdict relative to a fault-free run except by surfacing the documented
/// degraded outcomes (deadline expiry, a drained panic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckFaults {
    /// Microseconds slept at every wave boundary: a slow relation or a
    /// stalled worker. Results are unchanged; only wall-clock time grows
    /// (and a configured deadline may consequently expire).
    pub wave_stall_micros: u64,
    /// Suppress the cooperative deadline check for the first N waves (a
    /// delayed cancel). Invisible unless a deadline would have fired in the
    /// suppressed window, in which case expiry surfaces N waves late — but
    /// still at a wave boundary, still deterministically.
    pub cancel_delay_waves: usize,
    /// Panic while expanding `(wave, slot)` — an aborted worker slot. The
    /// pool's panic drain re-raises it from the lowest failing slot, so the
    /// failure is identical at any job count.
    pub abort_slot: Option<(usize, usize)>,
}

impl CheckFaults {
    /// True if this configuration injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == CheckFaults::default()
    }
}

/// Configuration for the simulation search.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bounds for both programs' step enumeration (including
    /// [`Bounds::jobs`], the checker's worker-thread count, and
    /// [`Bounds::reduction`], the low-side local-step fusion switch).
    pub bounds: Bounds,
    /// Maximum high-level steps allowed to match one low-level step.
    pub max_match: usize,
    /// Maximum product nodes to explore.
    pub max_nodes: usize,
    /// Deterministic in-search fault injection (fuzzing only). Excluded
    /// from [`store::CertKey`]: faults never change what a *successful*
    /// check certifies.
    pub faults: CheckFaults,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bounds: Bounds::small(),
            max_match: 4,
            max_nodes: 200_000,
            faults: CheckFaults::default(),
        }
    }
}

impl SimConfig {
    /// The same configuration with `jobs` worker threads (0 clamps to 1).
    pub fn with_jobs(mut self, jobs: usize) -> SimConfig {
        self.bounds.jobs = jobs.max(1);
        self
    }

    /// The same configuration with local-step reduction on or off.
    pub fn with_reduction(mut self, reduction: bool) -> SimConfig {
        self.bounds.reduction = reduction;
        self
    }

    /// The same configuration with symmetry reduction on or off.
    pub fn with_symmetry(mut self, symmetry: bool) -> SimConfig {
        self.bounds.symmetry = symmetry;
        self
    }

    /// The same configuration with the given in-search faults (fuzzing
    /// only).
    pub fn with_faults(mut self, faults: CheckFaults) -> SimConfig {
        self.faults = faults;
        self
    }
}

/// Evidence that the bounded refinement check succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementCert {
    /// Name of the low-level program.
    pub low: String,
    /// Name of the high-level program.
    pub high: String,
    /// Product nodes explored.
    pub product_nodes: usize,
    /// Low-level micro-transitions checked (fused macro edges count their
    /// full micro length).
    pub low_transitions: usize,
    /// The machine-checkable witness: the simulation relation as
    /// fingerprinted canonical state pairs plus one chained obligation per
    /// product edge. `armada recheck` replays it against the spec
    /// semantics without re-exploring; see `armada-recheck` for the format
    /// and the trusted-core boundary. Emitted unbound (subject 0) — the
    /// pipeline binds it to the module source before persisting.
    pub witness: Witness,
}

/// Why a refinement check failed: a genuine counterexample, or a search
/// budget ran out before the bounded state space was covered. Callers use
/// this to classify outcomes (refuted vs. budget-exhausted) without parsing
/// description strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CexKind {
    /// A real unmatched low-level behavior: refinement is *refuted* on this
    /// bounded instance.
    Refinement,
    /// The `max_nodes` product-node budget was exhausted: refinement is
    /// *unknown*, reported with the frontier trace where the search stopped.
    Budget,
    /// The wall-clock deadline ([`Bounds::deadline`]) expired at a wave
    /// boundary: refinement is *unknown*.
    Deadline,
}

impl CexKind {
    /// True for the budget-exhaustion classes (node budget or deadline),
    /// where the check degraded gracefully rather than refuting.
    pub fn is_budget(self) -> bool {
        matches!(self, CexKind::Budget | CexKind::Deadline)
    }
}

/// A failing low-level behavior with no matching high-level behavior.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Failure class (refuted vs. budget/deadline exhaustion).
    pub kind: CexKind,
    /// Human-readable failure description.
    pub description: String,
    /// The low-level step trace (instruction descriptions) to the failure.
    /// Fused macro edges are spelled out micro-step by micro-step, so the
    /// trace is identical with reduction on or off. With symmetry on,
    /// thread ids are translated back through the inverse renaming, so the
    /// rendered tids are the ones an uncanonicalized run would use.
    pub trace: Vec<String>,
    /// The machine-readable step sequence behind `trace`, in *original*
    /// (pre-canonicalization) tids: replaying it from the low program's
    /// initial state via `armada_sm::explore::replay` reproduces the
    /// failing behavior's log and termination.
    pub steps: Vec<Step>,
    /// The unmatched low-level state (the canonical representative when
    /// symmetry is on).
    pub state: ProgState,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "refinement counterexample: {}", self.description)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}: {step}")?;
        }
        write!(f, "{}", self.state)
    }
}

/// Renders one recorded step. `step.tid` is already the tid to *print* —
/// under symmetry, the original tid recovered through the node's inverse
/// renaming — and `pc` is the acting thread's pc in the pre-state (see
/// [`step_pc`]).
fn describe_step(program: &Program, step: &Step, pc: Option<Pc>) -> String {
    let tid = step.tid;
    match &step.kind {
        StepKind::Drain => format!("t{tid} drains one buffered write"),
        StepKind::Instr { nondets } => {
            let instr = pc
                .and_then(|pc| program.instr_at(pc))
                .map(|i| i.describe())
                .unwrap_or_else(|| "<no instruction>".to_string());
            if nondets.is_empty() {
                format!("t{tid}: {instr}")
            } else {
                let values: Vec<String> = nondets.iter().map(|v| v.to_string()).collect();
                format!("t{tid}: {instr}  [nondet {}]", values.join(", "))
            }
        }
    }
}

/// What [`describe_step`] needs of a step's pre-state: the acting thread's
/// pc for an instruction step, nothing for a drain. Recording this instead
/// of the rendered string keeps formatting off the search path — only
/// counterexample, budget and deadline traces are ever rendered.
fn step_pc(state: &ProgState, step: &Step) -> Option<Pc> {
    match step.kind {
        StepKind::Drain => None,
        StepKind::Instr { .. } => state.thread(step.tid).map(|t| t.pc),
    }
}

/// Renders an edge's recorded steps, one description per micro-step.
fn describe_edge(program: &Program, steps: &[Step], pcs: &[Option<Pc>]) -> Vec<String> {
    steps
        .iter()
        .zip(pcs)
        .map(|(step, &pc)| describe_step(program, step, pc))
        .collect()
}

/// Composes a parent's canonical→original tid map with the inverse renaming
/// of one more canonicalization step, producing the successor's map.
/// Fresh tids (beyond the parent map) are identity — `create_thread` hands
/// out the same numeric tid in the original and canonical runs, because
/// renaming preserves the thread count. `None` encodes the identity map.
fn compose_orig(
    parent: Option<&Arc<Vec<Tid>>>,
    inverse: Option<Vec<Tid>>,
    thread_count: usize,
) -> Option<Arc<Vec<Tid>>> {
    if parent.is_none() && inverse.is_none() {
        return None;
    }
    let mut map = Vec::with_capacity(thread_count);
    for canonical in 1..=thread_count as Tid {
        let pre = match &inverse {
            Some(inv) => inv
                .get(canonical as usize - 1)
                .copied()
                .unwrap_or(canonical),
            None => canonical,
        };
        let original = match parent {
            Some(p) => p.get(pre as usize - 1).copied().unwrap_or(pre),
            None => pre,
        };
        map.push(original);
    }
    if map.iter().enumerate().all(|(i, &t)| t == i as Tid + 1) {
        None
    } else {
        Some(Arc::new(map))
    }
}

/// Observables of a low-level state: the event log and termination status.
/// Every supported refinement relation is a function of these alone, which
/// is what makes match-set expansion memoizable per (match-set, observables)
/// pair.
type Obs = (Vec<Value>, Termination);

/// A computed match set: the interned high-state ids related to a low state.
/// Hash-consed by [`ExpandCache::intern`], so within one check equal
/// contents always mean the same `Arc`.
type MatchSet = Arc<BTreeSet<u32>>;

/// Test-only count of full-content match-set operations on this thread:
/// content hashes in the hash-cons table and subset walks between distinct
/// sets. Pointer identity makes every other comparison O(1); the
/// `match_sets_are_compared_by_pointer` test pins that down as a count.
#[cfg(test)]
mod content_ops {
    use std::cell::Cell;

    thread_local! {
        pub static HASHES: Cell<usize> = const { Cell::new(0) };
        pub static WALKS: Cell<usize> = const { Cell::new(0) };
        pub static MISSES: Cell<usize> = const { Cell::new(0) };
    }

    pub fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    /// `(hashes, walks, expand-cache misses)` since the last call.
    pub fn take() -> (usize, usize, usize) {
        (HASHES.take(), WALKS.take(), MISSES.take())
    }
}

/// Records one test-only event (see [`content_ops`]); compiles to nothing
/// outside tests.
macro_rules! count_op {
    ($counter:ident) => {
        #[cfg(test)]
        content_ops::bump(&content_ops::$counter);
    };
}

/// The expand cache and the match-set hash-cons table, behind one mutex.
#[derive(Default)]
struct ExpandCache {
    /// (match-set id, observables) → the successor's match set, `None` for
    /// a refinement failure. Every supported refinement relation is a
    /// function of a state's observables, so this memo is exact.
    by_key: HashMap<(u32, Obs), Option<MatchSet>>,
    /// Every match set of the check, keyed by content (the unit value is
    /// unused: a map rather than a set for the one-hash `entry` API).
    sets: HashMap<MatchSet, ()>,
}

impl ExpandCache {
    /// Records a miss's computed match set under `key`, hash-consed.
    fn insert(&mut self, key: (u32, Obs), computed: Option<BTreeSet<u32>>) -> Option<MatchSet> {
        count_op!(MISSES);
        let computed = computed.map(|set| self.intern(Arc::new(set)));
        self.by_key.insert(key, computed.clone());
        computed
    }

    /// The canonical `Arc` for `set`'s contents: the one already in the
    /// table, or `set` itself, which becomes canonical. The only place a
    /// match set is hashed by content: once per expand-cache miss, plus
    /// the root set.
    fn intern(&mut self, set: MatchSet) -> MatchSet {
        count_op!(HASHES);
        match self.sets.entry(set) {
            Entry::Occupied(existing) => Arc::clone(existing.key()),
            Entry::Vacant(slot) => {
                let set = Arc::clone(slot.key());
                slot.insert(());
                set
            }
        }
    }
}

/// Serial match-set ids for the commit phase, keyed by `Arc` address.
/// Hash-consing makes the address a content identity, and `sets` holds
/// every keyed `Arc`, so no address is reused while it is a key. Ids are
/// handed out in commit (global wave) order, so they are deterministic at
/// any job count.
#[derive(Default)]
struct SetIds {
    ids: HashMap<usize, u32>,
    /// The sets by id.
    sets: Vec<MatchSet>,
}

impl SetIds {
    fn id_of(&mut self, set: &MatchSet) -> u32 {
        let next = self.sets.len() as u32;
        *self
            .ids
            .entry(Arc::as_ptr(set) as usize)
            .or_insert_with(|| {
                self.sets.push(Arc::clone(set));
                next
            })
    }
}

/// Whether some admitted match set is a subset of `new`. Sets are
/// hash-consed, so every admitted set is first checked for being the same
/// `Arc`, and contents are walked only between two different sets.
fn subsumed_by(admitted: &[MatchSet], new: &MatchSet) -> bool {
    admitted.iter().any(|set| Arc::ptr_eq(set, new))
        || admitted.iter().any(|set| {
            count_op!(WALKS);
            set.is_subset(new)
        })
}

/// The interned high states among `candidates` that relate to `low`.
fn related(
    candidates: &[(u32, Arc<ProgState>)],
    low: &ProgState,
    relation: &(dyn RefinementRelation + Sync),
) -> BTreeSet<u32> {
    candidates
        .iter()
        .filter(|(_, state)| relation.relates(low, state))
        .map(|(id, _)| *id)
        .collect()
}

/// Memoized high-level state graph — an interned [`StateArena`] plus
/// successor lists — shared across workers behind one mutex.
///
/// The numeric ids depend on interning order and so can differ between runs
/// when jobs > 1, but they are injective handles used only for set
/// membership and dedup; every *output* derived from them (certs,
/// counterexamples) is id-independent.
struct HighGraph<'a> {
    program: &'a Program,
    pool: Vec<Value>,
    max_buffer: usize,
    max_match: usize,
    arena: StateArena,
    successors: Vec<Option<Vec<u32>>>,
}

impl<'a> HighGraph<'a> {
    fn new(program: &'a Program, pool: Vec<Value>, max_buffer: usize, max_match: usize) -> Self {
        HighGraph {
            program,
            pool,
            max_buffer,
            max_match,
            arena: StateArena::new(),
            successors: Vec::new(),
        }
    }

    /// Spills the high-state arena under `spec`'s byte budget
    /// (`--mem-cap`): cold pages of interned high states evict to disk and
    /// fault back on demand. Successor memos stay resident — they hold the
    /// ids; only the state trees page.
    fn enable_spill(&mut self, spec: armada_sm::SpillSpec) -> std::io::Result<()> {
        self.arena.enable_spill(spec)
    }

    fn intern_state(&mut self, state: ProgState) -> u32 {
        let (id, fresh) = self.arena.intern(state);
        if fresh {
            self.successors.push(None);
        }
        id.0
    }

    fn successors_of(&mut self, id: u32) -> &[u32] {
        if self.successors[id as usize].is_none() {
            // The high side is never fused: the stutter closure counts
            // *individual* high steps against the `max_match` budget, and a
            // macro edge would smuggle several steps past it.
            let state = self.arena.get_arc_mut(StateId(id));
            let ids: Vec<u32> =
                armada_sm::enabled_steps(self.program, &state, &self.pool, self.max_buffer)
                    .into_iter()
                    .map(|(_, s)| self.intern_state(s))
                    .collect();
            self.successors[id as usize] = Some(ids);
        }
        self.successors[id as usize]
            .as_deref()
            .expect("just memoized")
    }

    /// The stutter closure of a match set: every state within `max_match`
    /// steps of some member, paired with its id, in id order. One
    /// multi-source BFS, so it is exactly the union of the members'
    /// single-source closures while visiting each state once.
    fn stutter_closure(&mut self, sources: &BTreeSet<u32>) -> Vec<(u32, Arc<ProgState>)> {
        let mut seen = sources.clone();
        let mut frontier: Vec<u32> = sources.iter().copied().collect();
        for _ in 0..self.max_match {
            let mut next = Vec::new();
            for id in frontier {
                for &succ in self.successors_of(id) {
                    if seen.insert(succ) {
                        next.push(succ);
                    }
                }
            }
            frontier = next;
        }
        seen.into_iter()
            .map(|h| (h, self.arena.get_arc_mut(StateId(h))))
            .collect()
    }
}

/// All high states reachable (within the stutter budget) from any current
/// match that relate to the new low state; `None` if there are none — a
/// refinement failure.
fn expand_matches(
    parent_matches: &BTreeSet<u32>,
    low_next: &ProgState,
    relation: &(dyn RefinementRelation + Sync),
    high: &Mutex<HighGraph<'_>>,
) -> Option<BTreeSet<u32>> {
    // Poison-tolerant: a panic caught in one wave slot must not cascade
    // into poison panics in the others (that would make which slot "fails
    // first" depend on worker scheduling). The relation runs outside the
    // lock.
    let candidates = high
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .stutter_closure(parent_matches);
    let matches = related(&candidates, low_next, relation);
    (!matches.is_empty()).then_some(matches)
}

/// One product node of the subset construction.
struct Node {
    low: Arc<ProgState>,
    /// Interned id of `matches` — the expand-cache key component. Assigned
    /// serially during commit, so it is deterministic.
    set_id: u32,
    matches: MatchSet,
    /// Micro-depth: total micro-steps from the initial node. Waves are
    /// processed in micro-depth order so failure traces are minimal-length
    /// with or without fusion.
    depth: usize,
    /// Parent node index.
    parent: Option<usize>,
    /// The (possibly fused) low steps that reached us from `parent`, in
    /// execution order, already translated to original
    /// (pre-canonicalization) tids.
    edge_steps: Vec<Step>,
    /// Each edge step's pre-state pc ([`step_pc`]), for rendering traces.
    edge_pcs: Vec<Option<Pc>>,
    /// Canonical→original tid map for `low` (index = canonical tid − 1);
    /// `None` is the identity. Composed along the path so every recorded
    /// step can name the tid an uncanonicalized run would use.
    orig: Option<Arc<Vec<Tid>>>,
}

/// One expanded successor of a wave node, produced by a worker.
struct SuccOut {
    /// The micro-steps of the (possibly fused) edge, translated to
    /// original tids.
    steps: Vec<Step>,
    /// Each step's pre-state pc ([`step_pc`]).
    pcs: Vec<Option<Pc>>,
    /// Canonical→original tid map for `next` (see `Node::orig`).
    orig: Option<Arc<Vec<Tid>>>,
    /// Precomputed fingerprint of `next`, for the sharded seen-set.
    fp: u64,
    /// The successor low state (canonical representative when symmetry is
    /// on).
    next: Arc<ProgState>,
    matches: Option<MatchSet>,
}

/// Shared read-only context for expanding product nodes; everything a
/// pipeline explore worker needs besides the node itself.
struct ExpandCtx<'e, 'p> {
    canon: Option<&'e Canonicalizer>,
    reducer: &'e Reducer<'p>,
    pool: &'e [Value],
    bounds: &'e Bounds,
    relation: &'e (dyn RefinementRelation + Sync),
    high: &'e Mutex<HighGraph<'p>>,
    cache: &'e Mutex<ExpandCache>,
}

/// Expands one product node: enumerates its (possibly fused) low edges and
/// computes each successor's match set. Reads only the node's own fields
/// and the shared [`ExpandCtx`], so pipeline workers never touch the
/// growing `nodes` vector.
fn expand_node(
    ctx: &ExpandCtx<'_, '_>,
    low_state: &Arc<ProgState>,
    set_id: u32,
    matches: &BTreeSet<u32>,
    orig: &Option<Arc<Vec<Tid>>>,
) -> Vec<SuccOut> {
    if low_state.is_terminal() {
        return Vec::new();
    }
    ctx.reducer
        .macro_steps(
            low_state,
            ctx.pool,
            ctx.bounds.max_buffer,
            ctx.bounds.reduction,
        )
        .into_iter()
        .map(|(macro_step, low_next)| {
            // Steps execute in the (canonical) parent's coordinates; the
            // recorded step sequence uses original tids so counterexamples
            // replay against the uncanonicalized program. Every step of a
            // macro edge runs a thread that already exists in the parent,
            // so the parent's map covers it.
            let display = |tid: Tid| match orig {
                Some(map) => map.get(tid as usize - 1).copied().unwrap_or(tid),
                None => tid,
            };
            let mut pcs = Vec::with_capacity(macro_step.steps.len());
            let mut steps = Vec::with_capacity(macro_step.steps.len());
            let mut pre: &ProgState = low_state;
            for (i, step) in macro_step.steps.iter().enumerate() {
                pcs.push(step_pc(pre, step));
                steps.push(Step {
                    tid: display(step.tid),
                    kind: step.kind.clone(),
                });
                if i < macro_step.mids.len() {
                    pre = &macro_step.mids[i];
                }
            }
            let (low_next, inverse) = match ctx.canon {
                Some(canon) => canon.canonicalize(low_next),
                None => (low_next, None),
            };
            let orig = compose_orig(orig.as_ref(), inverse, low_next.threads.len());
            let obs: Obs = (low_next.log.clone(), low_next.termination.clone());
            let key = (set_id, obs);
            let cached = ctx
                .cache
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .by_key
                .get(&key)
                .cloned();
            let matches = match cached {
                Some(hit) => hit,
                None => {
                    let computed = expand_matches(matches, &low_next, ctx.relation, ctx.high);
                    ctx.cache
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .insert(key, computed)
                }
            };
            SuccOut {
                steps,
                pcs,
                orig,
                fp: StateArena::fingerprint(&low_next),
                next: Arc::new(low_next),
                matches,
            }
        })
        .collect()
}

/// A raw panic payload (`Box<dyn Any + Send>`) is not `Sync`; the `Mutex`
/// wrapper restores `Sync` without copying the payload, so it can travel
/// through shared slots and rings.
type PanicPayload = Mutex<Box<dyn std::any::Any + Send>>;
type SlotResult = Result<Vec<SuccOut>, PanicPayload>;

/// Collapses per-slot results into wave order, or surfaces the panic of
/// the *lowest* failing slot — the same slot at any job count — so callers
/// that isolate panics (the pipeline wraps `check_refinement` in its own
/// `catch_unwind`) observe a deterministic failure.
fn drain_slots(slots: Vec<SlotResult>) -> Result<Vec<Vec<SuccOut>>, PanicPayload> {
    let mut first_panic = None;
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Ok(successors) => out.push(successors),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    match first_panic {
        Some(payload) => Err(payload),
        None => Ok(out),
    }
}

/// One unit of work for a pipeline explore worker: a wave slot plus the
/// owned (`Arc`-shared) pieces of its product node, so workers never
/// borrow the coordinator's growing `nodes` vector.
struct VerifyJob {
    slot: usize,
    low: Arc<ProgState>,
    set_id: u32,
    matches: MatchSet,
    orig: Option<Arc<Vec<Tid>>>,
    /// Injected worker-slot abort (fuzzing): the panic rides the exact
    /// same drain path as an organic worker panic, so it must surface
    /// identically at any job count.
    abort: bool,
}

enum VerifyMsg {
    Expand(Box<VerifyJob>),
    Shutdown,
}

/// The antichain seen-set, sharded by low-state fingerprint. Each shard
/// maps a fingerprint bucket to the low states carrying it and, per state,
/// the admitted match sets (an append-only antichain front: a new set is
/// subsumed if some admitted set is its subset).
///
/// A given low state always lands in one specific shard, so the shard count
/// cannot change any subsumption decision — it only controls how much of
/// the commit scan runs in parallel.
struct LowSeen {
    shards: Vec<Mutex<SeenShard>>,
}

type SeenShard =
    HashMap<u64, Vec<(Arc<ProgState>, Vec<MatchSet>)>, BuildHasherDefault<FpIdentityHasher>>;

impl LowSeen {
    fn new(shard_count: usize) -> LowSeen {
        LowSeen {
            shards: (0..shard_count.max(1))
                .map(|_| Mutex::new(SeenShard::default()))
                .collect(),
        }
    }

    fn shard_of(&self, fp: u64) -> usize {
        (fp % self.shards.len() as u64) as usize
    }

    /// Admits a state's match set unconditionally (used for the root).
    fn admit(&self, fp: u64, state: Arc<ProgState>, matches: MatchSet) {
        let mut shard = self.shards[self.shard_of(fp)]
            .lock()
            .expect("seen shard poisoned");
        shard.entry(fp).or_default().push((state, vec![matches]));
    }

    /// Re-admits one node's match set during checkpoint resume, merging
    /// into an existing entry for the same state (a state can appear on
    /// several antichain-incomparable nodes). Replaying admitted nodes in
    /// id order reproduces the seen-set exactly, because every entry was
    /// pushed when its node was admitted.
    fn rehydrate(&self, fp: u64, state: &Arc<ProgState>, matches: &MatchSet) {
        let mut shard = self.shards[self.shard_of(fp)]
            .lock()
            .expect("seen shard poisoned");
        let bucket = shard.entry(fp).or_default();
        match bucket.iter_mut().find(|(s, _)| **s == **state) {
            Some((_, sets)) => sets.push(Arc::clone(matches)),
            None => bucket.push((Arc::clone(state), vec![Arc::clone(matches)])),
        }
    }
}

/// Phase-A output for one wave: `true` at a successor's flat index means an
/// admitted match set subsumes it (skip admission).
fn sharded_subsumption(flat: &[(usize, SuccOut)], seen: &LowSeen, jobs: usize) -> Vec<bool> {
    let shard_count = seen.shards.len();
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (i, (_, succ)) in flat.iter().enumerate() {
        if succ.matches.is_some() {
            per_shard[seen.shard_of(succ.fp)].push(i);
        }
    }
    let subsumed_lists: Vec<Mutex<Vec<usize>>> =
        (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();
    let run_shard = |shard_idx: usize| {
        if per_shard[shard_idx].is_empty() {
            return;
        }
        let mut shard = seen.shards[shard_idx].lock().expect("seen shard poisoned");
        let mut subsumed = subsumed_lists[shard_idx]
            .lock()
            .expect("subsumed list poisoned");
        // Global wave order restricted to this shard: every decision about
        // a state depends only on entries for that same state, which all
        // live here — so the outcome is identical to one serial scan.
        for &i in &per_shard[shard_idx] {
            let (_, succ) = &flat[i];
            let matches = succ.matches.as_ref().expect("filtered above");
            let bucket = shard.entry(succ.fp).or_default();
            match bucket.iter_mut().find(|(s, _)| **s == *succ.next) {
                Some((_, sets)) => {
                    if subsumed_by(sets, matches) {
                        subsumed.push(i);
                    } else {
                        sets.push(Arc::clone(matches));
                    }
                }
                None => bucket.push((Arc::clone(&succ.next), vec![Arc::clone(matches)])),
            }
        }
    };
    if jobs <= 1 {
        for shard_idx in 0..shard_count {
            run_shard(shard_idx);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(shard_count) {
                scope.spawn(|| loop {
                    let shard_idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if shard_idx >= shard_count {
                        break;
                    }
                    run_shard(shard_idx);
                });
            }
        });
    }
    let mut out = vec![false; flat.len()];
    for list in subsumed_lists {
        for i in list.into_inner().expect("subsumed list poisoned") {
            out[i] = true;
        }
    }
    out
}

/// Capacity of each pipeline ring (jobs in, slot results out, per
/// worker); bounds in-flight expansions without starving workers across
/// commit stalls.
const RING_CAPACITY: usize = 64;

/// Checks that `low` refines `high` under `relation`, over all bounded
/// behaviors. Runs on `config.bounds.jobs` worker threads; the result is
/// byte-identical for any job count (see the module docs).
///
/// # Errors
///
/// Returns a [`Counterexample`] naming the unmatched low-level trace, or a
/// search-budget failure if `max_nodes` was exceeded (reported as a
/// counterexample with an explanatory description so callers treat it as
/// "not verified").
pub fn check_refinement(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
) -> Result<RefinementCert, Box<Counterexample>> {
    let mut tel = StageTelemetry::new();
    check_refinement_impl(low, high, relation, config, false, &mut tel)
}

/// [`check_refinement`], additionally returning the per-stage pipeline
/// telemetry (ingress/explore/subsume/commit latency and occupancy
/// histograms).
///
/// Telemetry values are wall-clock and therefore nondeterministic; the
/// verification result itself is byte-identical with and without
/// telemetry, and the telemetry flag does not enter [`store::CertKey`].
pub fn check_refinement_with_telemetry(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
) -> (Result<RefinementCert, Box<Counterexample>>, StageTelemetry) {
    let mut tel = StageTelemetry::new();
    let result = check_refinement_impl(low, high, relation, config, true, &mut tel);
    (result, tel)
}

fn check_refinement_impl(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
    record: bool,
    tel: &mut StageTelemetry,
) -> Result<RefinementCert, Box<Counterexample>> {
    let jobs = config.bounds.jobs.max(1);
    let pool = config.bounds.pool_for(low);
    let low_init = initial_state(low).map_err(|e| {
        Box::new(Counterexample {
            kind: CexKind::Refinement,
            description: format!("low initial state: {e}"),
            trace: vec![],
            steps: vec![],
            state: initial_state(high).expect("high init"),
        })
    })?;
    let high_init = initial_state(high).map_err(|e| {
        Box::new(Counterexample {
            kind: CexKind::Refinement,
            description: format!("high initial state: {e}"),
            trace: vec![],
            steps: vec![],
            state: low_init.clone(),
        })
    })?;
    // Symmetry reduction on the low side only: the product search stores
    // canonical representatives, and every recorded step is translated back
    // through the composed inverse renaming so counterexamples replay
    // against the original program. The high side is never canonicalized —
    // match sets are computed from observables, which renaming preserves.
    let canonicalizer = Canonicalizer::new(low);
    let canon = (config.bounds.symmetry && canonicalizer.enabled()).then_some(&canonicalizer);
    let (low_init, init_inverse) = match canon {
        Some(canon) => canon.canonicalize(low_init),
        None => (low_init, None),
    };
    let root_orig = compose_orig(None, init_inverse, low_init.threads.len());

    // High states are interned so match sets are integer sets; successor
    // lists and stutter closures are memoized per interned state.
    let mut high_graph = HighGraph::new(
        high,
        config.bounds.pool_for(high),
        config.bounds.max_buffer,
        config.max_match,
    );
    if let Some(spec) = &config.bounds.spill {
        high_graph
            .enable_spill(spec.clone())
            .unwrap_or_else(|err| panic!("spill: creating {}: {err}", spec.dir.display()));
    }

    // Wave-boundary checkpointing. The guard covers everything that
    // determines the product graph — programs, relation, semantic bounds,
    // the stutter budget — and excludes jobs, deadlines, node budgets, and
    // faults, so a resumed run may raise its budget or change its worker
    // count and still continue. The leading record-format version makes a
    // checkpoint written in an older node layout start cold.
    let mut ck = config.bounds.checkpoint.as_ref().map(|spec| {
        let guard = armada_sm::codec::fnv1a_64(
            format!(
                "{}|{}|{}|{}|{:?}|{}|{}|{}|{}",
                checkpoint::FORMAT,
                low.name,
                high.name,
                relation.describe(),
                config.bounds.nondet_ints,
                config.bounds.max_buffer,
                config.bounds.reduction,
                config.bounds.symmetry,
                config.max_match
            )
            .as_bytes(),
        );
        checkpoint::VerifyCheckpoint::new(spec.dir.clone(), guard)
            .unwrap_or_else(|err| panic!("checkpoint: creating {}: {err}", spec.dir.display()))
    });
    let resumed = if config.bounds.checkpoint.as_ref().is_some_and(|s| s.resume) {
        ck.as_mut().and_then(|ck| ck.try_resume())
    } else {
        None
    };

    // Product search, one micro-depth bucket at a time. Parent pointers
    // give counterexample traces; antichain subsumption prunes nodes whose
    // match set is a superset of an admitted one (fewer matches is the
    // strictly harder obligation). Match sets are hash-consed, and —
    // because every supported refinement relation is a function of a
    // state's *observables* — the expansion of a match set against a low
    // successor is memoized per (match-set, observables) pair. Stuttering
    // low steps (no log change) therefore hit the cache almost always.
    let mut expand_cache = ExpandCache::default();
    let reducer = Reducer::new(low);
    let mut set_ids = SetIds::default();
    let mut nodes: Vec<Node> = Vec::new();
    let seen_low = LowSeen::new(jobs * 4);
    let mut pending: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut low_transitions = 0usize;
    let mut wave_index = 0usize;

    if let Some(rs) = resumed {
        // Rebuild the memoized high arena in its original interning order
        // (match-set ids index into it); successor memos recompute on
        // demand and re-intern onto the same ids. The loaded sets are
        // distinct and are the `Arc`s the nodes hold, so they become the
        // canonical sets and get back their ids in order. The seen-set
        // replays from the node table.
        for state in rs.high_states {
            high_graph.intern_state(state);
        }
        for set in &rs.sets {
            set_ids.id_of(&expand_cache.intern(Arc::clone(set)));
        }
        for node in &rs.nodes {
            seen_low.rehydrate(StateArena::fingerprint(&node.low), &node.low, &node.matches);
        }
        nodes = rs.nodes;
        pending = rs.pending;
        low_transitions = rs.low_transitions;
        wave_index = rs.wave_index;
    } else {
        let high_root = BTreeSet::from([high_graph.intern_state(high_init)]);
        let init_matches = related(&high_graph.stutter_closure(&high_root), &low_init, relation);
        if init_matches.is_empty() {
            return Err(Box::new(Counterexample {
                kind: CexKind::Refinement,
                description: "initial states are not related by R".to_string(),
                trace: vec![],
                steps: vec![],
                state: low_init,
            }));
        }
        let low_init = Arc::new(low_init);
        let init_matches = expand_cache.intern(Arc::new(init_matches));
        set_ids.id_of(&init_matches);
        seen_low.admit(
            StateArena::fingerprint(&low_init),
            Arc::clone(&low_init),
            Arc::clone(&init_matches),
        );
        nodes.push(Node {
            low: low_init,
            set_id: 0,
            matches: init_matches,
            depth: 0,
            parent: None,
            edge_steps: vec![],
            edge_pcs: vec![],
            orig: root_orig,
        });
        // Pending node ids, bucketed by micro-depth; the next wave is
        // always the shallowest bucket, so failures surface at minimal
        // trace length whether or not edges are fused.
        pending.insert(0, vec![0]);
    }
    let high_graph = Mutex::new(high_graph);
    let expand_cache = Mutex::new(expand_cache);

    let ctx = ExpandCtx {
        canon,
        reducer: &reducer,
        pool: &pool,
        bounds: &config.bounds,
        relation,
        high: &high_graph,
        cache: &expand_cache,
    };

    let outcome = if jobs <= 1 {
        // Inline pipeline: the same stages on one thread, no rings.
        let mut exp_tel = StageTelemetry::new();
        let mut expander = |wave: &[usize], nodes: &[Node], abort_slot: Option<usize>| {
            let mut slots: Vec<SlotResult> = Vec::with_capacity(wave.len());
            for (slot, &i) in wave.iter().enumerate() {
                let node = &nodes[i];
                let started = record.then(Instant::now);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    if abort_slot == Some(slot) {
                        panic!("injected fault: worker slot {slot} aborted");
                    }
                    expand_node(&ctx, &node.low, node.set_id, &node.matches, &node.orig)
                }))
                .map_err(Mutex::new);
                if let Some(started) = started {
                    let n = out.as_ref().map(|v| v.len()).unwrap_or(0);
                    exp_tel.record_batch(Stage::Explore, started.elapsed(), n);
                }
                slots.push(out);
            }
            drain_slots(slots)
        };
        let outcome = run_search(
            low,
            high,
            config,
            jobs,
            &mut nodes,
            &mut set_ids,
            &seen_low,
            &mut pending,
            &mut expander,
            record,
            tel,
            &high_graph,
            &mut ck,
            canon.is_some(),
            low_transitions,
            wave_index,
        );
        drop(expander);
        if record {
            tel.merge(&exp_tel);
        }
        outcome
    } else {
        // Pinned-role pipeline: this thread is ingress + subsume + commit;
        // `jobs` explore workers each own one in-ring and one out-ring for
        // the whole search. Wave slot `s` always goes to worker
        // `s % jobs`, and SPSC rings are FIFO, so popping out-ring
        // `s % jobs` when collecting slot `s` reconstructs wave order with
        // no reorder buffer. Worker panics are caught inside the worker
        // and travel the rings as values, so the pool survives any wave
        // and the lowest failing slot is re-raised deterministically.
        std::thread::scope(|scope| {
            let ctx_ref = &ctx;
            let mut in_txs = Vec::with_capacity(jobs);
            let mut out_rxs = Vec::with_capacity(jobs);
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let (in_tx, mut in_rx) = ring::<VerifyMsg>(RING_CAPACITY);
                let (mut out_tx, out_rx) = ring::<(usize, SlotResult)>(RING_CAPACITY);
                in_txs.push(in_tx);
                out_rxs.push(out_rx);
                handles.push(scope.spawn(move || {
                    let mut worker_tel = StageTelemetry::new();
                    loop {
                        match in_rx.pop() {
                            VerifyMsg::Shutdown => break,
                            VerifyMsg::Expand(job) => {
                                let started = record.then(Instant::now);
                                let out = catch_unwind(AssertUnwindSafe(|| {
                                    if job.abort {
                                        panic!("injected fault: worker slot {} aborted", job.slot);
                                    }
                                    expand_node(
                                        ctx_ref,
                                        &job.low,
                                        job.set_id,
                                        &job.matches,
                                        &job.orig,
                                    )
                                }))
                                .map_err(Mutex::new);
                                if let Some(started) = started {
                                    let n = out.as_ref().map(|v| v.len()).unwrap_or(0);
                                    worker_tel.record_batch(Stage::Explore, started.elapsed(), n);
                                }
                                out_tx.push((job.slot, out));
                            }
                        }
                    }
                    worker_tel
                }));
            }
            let mut expander = |wave: &[usize], nodes: &[Node], abort_slot: Option<usize>| {
                let mut slots: Vec<SlotResult> = Vec::with_capacity(wave.len());
                let mut next_ingress = 0usize;
                let mut backoff = Backoff::new();
                while slots.len() < wave.len() {
                    // Ingress: feed workers round-robin while rings accept.
                    while next_ingress < wave.len() {
                        let worker = next_ingress % jobs;
                        let node = &nodes[wave[next_ingress]];
                        let job = Box::new(VerifyJob {
                            slot: next_ingress,
                            low: Arc::clone(&node.low),
                            set_id: node.set_id,
                            matches: Arc::clone(&node.matches),
                            orig: node.orig.clone(),
                            abort: abort_slot == Some(next_ingress),
                        });
                        match in_txs[worker].try_push(VerifyMsg::Expand(job)) {
                            Ok(()) => {
                                next_ingress += 1;
                                backoff.reset();
                            }
                            Err(_) => break,
                        }
                    }
                    // Collect: strictly the next slot in wave order.
                    let next_collect = slots.len();
                    if next_collect < next_ingress {
                        if let Some((slot, out)) = out_rxs[next_collect % jobs].try_pop() {
                            debug_assert_eq!(slot, next_collect, "out-ring order broken");
                            slots.push(out);
                            backoff.reset();
                            continue;
                        }
                    }
                    backoff.snooze();
                }
                drain_slots(slots)
            };
            let outcome = run_search(
                low,
                high,
                config,
                jobs,
                &mut nodes,
                &mut set_ids,
                &seen_low,
                &mut pending,
                &mut expander,
                record,
                tel,
                &high_graph,
                &mut ck,
                canon.is_some(),
                low_transitions,
                wave_index,
            );
            for in_tx in &mut in_txs {
                in_tx.push(VerifyMsg::Shutdown);
            }
            for handle in handles {
                let worker_tel = handle.join().expect("verify worker exited cleanly");
                if record {
                    tel.merge(&worker_tel);
                }
            }
            outcome
        })
    };

    // A definitive verdict — verified, or refuted with a counterexample —
    // needs no resume point; budget and deadline exhaustion keep theirs so
    // a rerun with raised budgets continues instead of restarting.
    let definitive = match &outcome {
        SearchOutcome::Done(Ok(_)) => true,
        SearchOutcome::Done(Err(cex)) => !cex.kind.is_budget(),
        SearchOutcome::Panicked(_) => false,
    };
    if definitive {
        if let Some(ck) = ck.as_mut() {
            ck.clear();
        }
    }
    // Spill counters are diagnostics (fault order depends on jobs), so
    // they ride telemetry, never the verdict.
    if let Some(counters) = high_graph
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .arena
        .spill_counters()
    {
        for (name, value) in counters {
            tel.counters_mut().add(name, value);
        }
    }

    match outcome {
        SearchOutcome::Done(result) => result,
        SearchOutcome::Panicked(payload) => {
            // Re-raised outside the worker scope: the pool has already
            // shut down cleanly, so the panic cannot strand a thread.
            let payload = payload.into_inner().unwrap_or_else(|p| p.into_inner());
            std::panic::resume_unwind(payload);
        }
    }
}

/// The search loop's terminal state: a verdict, or a worker panic to
/// re-raise once the pipeline has shut down.
enum SearchOutcome {
    Done(Result<RefinementCert, Box<Counterexample>>),
    Panicked(PanicPayload),
}

/// The wave loop of the product search, generic over how a wave is
/// expanded (inline, or dispatched to the pipeline's explore workers).
/// Everything order-sensitive — subsumption, match-set ids, node
/// admission, budget cuts, counterexample selection — happens here, on
/// one thread, in global wave order.
#[allow(clippy::too_many_arguments)]
fn run_search(
    low: &Program,
    high: &Program,
    config: &SimConfig,
    jobs: usize,
    nodes: &mut Vec<Node>,
    set_ids: &mut SetIds,
    seen_low: &LowSeen,
    pending: &mut BTreeMap<usize, Vec<usize>>,
    expander: &mut dyn FnMut(
        &[usize],
        &[Node],
        Option<usize>,
    ) -> Result<Vec<Vec<SuccOut>>, PanicPayload>,
    record: bool,
    tel: &mut StageTelemetry,
    high_graph: &Mutex<HighGraph<'_>>,
    ck: &mut Option<checkpoint::VerifyCheckpoint>,
    symmetry_on: bool,
    mut low_transitions: usize,
    mut wave_index: usize,
) -> SearchOutcome {
    // Traces are rendered only here, for the one path a failure reports.
    let trace_of = |nodes: &[Node], mut node: usize| {
        let mut rev: Vec<String> = Vec::new();
        while let Some(parent) = nodes[node].parent {
            let edge = &nodes[node];
            rev.extend(
                describe_edge(low, &edge.edge_steps, &edge.edge_pcs)
                    .into_iter()
                    .rev(),
            );
            node = parent;
        }
        rev.reverse();
        rev
    };
    let steps_of = |nodes: &[Node], mut node: usize| {
        let mut rev: Vec<Step> = Vec::new();
        while let Some(parent) = nodes[node].parent {
            rev.extend(nodes[node].edge_steps.iter().rev().cloned());
            node = parent;
        }
        rev.reverse();
        rev
    };

    while !pending.is_empty() {
        // Persist the boundary before touching the wave: the pending map
        // still contains it, so a crash anywhere past this point resumes
        // by redoing the wave — which commits identically, because commit
        // order is deterministic.
        if let Some(ck) = ck.as_mut() {
            let mut hg = high_graph
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            ck.save(
                nodes,
                &set_ids.sets,
                &mut hg.arena,
                pending,
                low_transitions,
                wave_index,
            );
        }
        let (_depth, wave) = pending.pop_first().expect("nonempty");
        let wave_started = record.then(Instant::now);
        // Injected slow-relation stall (fuzzing): burns wall-clock time at
        // the boundary, exactly where a slow relation or a descheduled
        // worker would; results must be unchanged.
        if config.faults.wave_stall_micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(
                config.faults.wave_stall_micros,
            ));
        }
        // Cooperative deadline: checked only at wave boundaries, so the
        // check degrades gracefully (a trace of the first-admitted frontier
        // node, deterministic for the wave it fires in) instead of hanging
        // or cutting a wave at a scheduling-dependent point. An injected
        // cancel delay (fuzzing) suppresses the check for the first N
        // waves; expiry then surfaces late but still deterministically.
        if wave_index >= config.faults.cancel_delay_waves && config.bounds.deadline_expired() {
            let node_id = wave[0];
            return SearchOutcome::Done(Err(Box::new(Counterexample {
                kind: CexKind::Deadline,
                description: format!(
                    "wall-clock deadline exceeded ({} product nodes explored); \
                     refinement NOT verified",
                    nodes.len()
                ),
                trace: trace_of(nodes, node_id),
                steps: steps_of(nodes, node_id),
                state: (*nodes[node_id].low).clone(),
            })));
        }

        // Explore phase: expand every wave node through the pipeline.
        let abort_slot = config
            .faults
            .abort_slot
            .filter(|&(wave_at, _)| wave_at == wave_index)
            .map(|(_, slot)| slot);
        wave_index += 1;
        let expanded = match expander(&wave, nodes, abort_slot) {
            Ok(expanded) => expanded,
            Err(payload) => return SearchOutcome::Panicked(payload),
        };

        // Flatten to global wave order: (parent node id, successor).
        let mut flat: Vec<(usize, SuccOut)> = Vec::new();
        for (slot, successors) in expanded.into_iter().enumerate() {
            let node_id = wave[slot];
            for succ in successors {
                flat.push((node_id, succ));
            }
        }

        // Commit phase A (shard-parallel): antichain subsumption per
        // low-state fingerprint shard, decisions identical to a serial
        // scan (see `LowSeen`).
        let subsume_started = record.then(Instant::now);
        let subsumed = sharded_subsumption(&flat, seen_low, jobs);
        if let Some(started) = subsume_started {
            tel.record_batch(Stage::Subsume, started.elapsed(), flat.len());
        }

        // Commit phase B (serial merge): collect refinement failures,
        // apply the node budget, and admit successors in global wave
        // order — set ids, node ids, and the budget cut point are all
        // deterministic. Set ids are keyed by the hash-consed `Arc`, so no
        // set is hashed by content here.
        let commit_started = record.then(Instant::now);
        let nodes_before = nodes.len();
        let mut failures: Vec<(Vec<String>, String, Arc<ProgState>, Vec<Step>)> = Vec::new();
        let mut budget_failure: Option<Box<Counterexample>> = None;
        for (i, (node_id, succ)) in flat.into_iter().enumerate() {
            low_transitions += succ.steps.len();
            let Some(new_matches) = succ.matches else {
                let descs = describe_edge(low, &succ.steps, &succ.pcs);
                let mut trace = trace_of(nodes, node_id);
                trace.extend(descs.iter().cloned());
                let mut steps = steps_of(nodes, node_id);
                steps.extend(succ.steps);
                let desc = descs.last().cloned().unwrap_or_default();
                failures.push((trace, desc, succ.next, steps));
                continue;
            };
            if budget_failure.is_some() {
                continue;
            }
            if subsumed[i] {
                continue;
            }
            if nodes.len() >= config.max_nodes {
                budget_failure = Some(Box::new(Counterexample {
                    kind: CexKind::Budget,
                    description: format!(
                        "search budget exceeded ({} product nodes); refinement NOT verified",
                        config.max_nodes
                    ),
                    trace: trace_of(nodes, node_id),
                    steps: steps_of(nodes, node_id),
                    state: (*succ.next).clone(),
                }));
                continue;
            }
            let set_id = set_ids.id_of(&new_matches);
            let id = nodes.len();
            let depth = nodes[node_id].depth + succ.steps.len();
            nodes.push(Node {
                low: succ.next,
                set_id,
                matches: new_matches,
                depth,
                parent: Some(node_id),
                edge_steps: succ.steps,
                edge_pcs: succ.pcs,
                orig: succ.orig,
            });
            pending.entry(depth).or_default().push(id);
        }
        if let Some(started) = commit_started {
            tel.record_batch(Stage::Commit, started.elapsed(), nodes.len() - nodes_before);
        }
        if let Some(started) = wave_started {
            tel.record_batch(Stage::Ingress, started.elapsed(), wave.len());
        }

        // Deterministic counterexample selection: every failure surfaces in
        // the first failing wave (all traces end at the same, minimal
        // micro-depth); the lexicographically-least trace wins, so parallel
        // and serial runs report the identical counterexample. Refinement
        // failures take precedence over a budget failure within the same
        // wave.
        if !failures.is_empty() {
            failures.sort_by(|a, b| (&a.0, &a.2).cmp(&(&b.0, &b.2)));
            let (trace, desc, state, steps) = failures.into_iter().next().expect("nonempty");
            return SearchOutcome::Done(Err(Box::new(Counterexample {
                kind: CexKind::Refinement,
                description: format!("no high-level behavior matches after `{desc}`"),
                trace,
                steps,
                state: (*state).clone(),
            })));
        }
        if let Some(budget) = budget_failure {
            return SearchOutcome::Done(Err(budget));
        }
    }

    let witness = emit_witness(
        nodes,
        high_graph,
        symmetry_on,
        config.bounds.max_buffer,
        wave_index,
    );
    SearchOutcome::Done(Ok(RefinementCert {
        low: low.name.clone(),
        high: high.name.clone(),
        product_nodes: nodes.len(),
        low_transitions,
        witness,
    }))
}

/// Emits the machine-checkable witness from the finished product graph.
/// Everything recorded is deterministic across job counts: node ids and
/// edge order come from the serial commit phase, and states enter as
/// content *fingerprints* — interned numeric ids (which do depend on
/// exploration interleaving) never reach the witness. Match-set digests
/// hash member fingerprints in sorted order for the same reason.
fn emit_witness(
    nodes: &[Node],
    high_graph: &Mutex<HighGraph<'_>>,
    symmetry_on: bool,
    max_buffer: usize,
    waves: usize,
) -> Witness {
    let mut hg = high_graph
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut high_fp: HashMap<u32, u64> = HashMap::new();
    let mut set_digests: HashMap<u32, u64> = HashMap::new();
    let mut set_digest_of = |node: &Node, hg: &mut HighGraph<'_>| -> u64 {
        if let Some(&digest) = set_digests.get(&node.set_id) {
            return digest;
        }
        let mut fps: Vec<u64> = node
            .matches
            .iter()
            .map(|&h| {
                *high_fp
                    .entry(h)
                    .or_insert_with(|| StateArena::fingerprint(&hg.arena.get_arc_mut(StateId(h))))
            })
            .collect();
        fps.sort_unstable();
        let digest = armada_recheck::set_digest(&fps);
        set_digests.insert(node.set_id, digest);
        digest
    };
    let renaming_of = |node: &Node| -> Vec<Tid> {
        node.orig
            .as_ref()
            .map(|m| (**m).clone())
            .unwrap_or_default()
    };
    let root = &nodes[0];
    let mut builder = WitnessBuilder::new(
        symmetry_on,
        max_buffer as u64,
        renaming_of(root),
        StateArena::fingerprint(&root.low),
        set_digest_of(root, &mut hg),
    );
    let mut max_depth = 0u64;
    for node in &nodes[1..] {
        max_depth = max_depth.max(node.depth as u64);
        let parent_id = node.parent.expect("non-root node has a parent");
        // `edge_steps` was translated to original tids for counterexample
        // replay; the witness wants the steps in the *parent's canonical
        // coordinates* (what `try_step` executes during recheck), so undo
        // the parent's canonical→original map. Every step of a macro edge
        // runs a thread that already exists in the parent, so the map is
        // total over the edge and position search inverts it exactly.
        let parent_map = nodes[parent_id].orig.as_deref();
        let raw_steps: Vec<Step> = node
            .edge_steps
            .iter()
            .map(|step| Step {
                tid: match parent_map {
                    None => step.tid,
                    Some(map) => map
                        .iter()
                        .position(|&t| t == step.tid)
                        .map(|pos| pos as Tid + 1)
                        .unwrap_or(step.tid),
                },
                kind: step.kind.clone(),
            })
            .collect();
        builder.push_node(
            parent_id as u32,
            StateArena::fingerprint(&node.low),
            set_digest_of(node, &mut hg),
            armada_recheck::encode_steps(&raw_steps),
            node.edge_steps.len() as u32,
            renaming_of(node),
        );
    }
    builder.seal(true, waves as u64, max_depth)
}

/// A transitively composed refinement result across a series of levels
/// (implementation at index 0, specification last), mirroring Figure 1's
/// final transitivity step.
#[derive(Debug, Clone)]
pub struct RefinementChain {
    /// Level names, concrete to abstract.
    pub levels: Vec<String>,
    /// Per-adjacent-pair certificates.
    pub certs: Vec<RefinementCert>,
}

impl RefinementChain {
    /// Composes per-pair certificates into an end-to-end statement.
    ///
    /// # Errors
    ///
    /// Returns a message if the certificates do not form a chain.
    pub fn compose(certs: Vec<RefinementCert>) -> Result<RefinementChain, String> {
        if certs.is_empty() {
            return Err("empty refinement chain".to_string());
        }
        let mut levels = vec![certs[0].low.clone()];
        for cert in &certs {
            if cert.low != *levels.last().expect("nonempty") {
                return Err(format!(
                    "chain break: expected a certificate from `{}`, got `{}` ⊑ `{}`",
                    levels.last().expect("nonempty"),
                    cert.low,
                    cert.high
                ));
            }
            levels.push(cert.high.clone());
        }
        Ok(RefinementChain { levels, certs })
    }

    /// The end-to-end claim, e.g. `Implementation ⊑ Specification`.
    pub fn claim(&self) -> String {
        format!(
            "{} ⊑ {}",
            self.levels.first().expect("nonempty"),
            self.levels.last().expect("nonempty")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};
    use armada_proof::relation::StandardRelation;
    use armada_sm::lower;

    fn programs(src: &str, low: &str, high: &str) -> (Program, Program) {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        (
            lower(&typed, low).expect("lower low"),
            lower(&typed, high).expect("lower high"),
        )
    }

    #[test]
    fn identical_programs_refine() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; print(x); } }
            level B { var x: uint32; void main() { x := 1; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let cert = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        assert!(cert.product_nodes >= 1);
    }

    #[test]
    fn weakened_guard_refines() {
        // The high level replaces a concrete guard with `*`: every low
        // behavior is a high behavior (§2.2's ArbitraryGuard).
        let (low, high) = programs(
            r#"
            level Impl {
                var x: uint32;
                void main() {
                    var t: uint32 := x;
                    if (t < 1) { print(1); } else { print(2); }
                }
            }
            level Weak {
                var x: uint32;
                void main() {
                    var t: uint32 := x;
                    if (*) { print(1); } else { print(2); }
                }
            }
            "#,
            "Impl",
            "Weak",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn diverging_output_is_a_counterexample() {
        let (low, high) = programs(
            r#"
            level A { void main() { print(1); } }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let err = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap_err();
        assert!(err.description.contains("no high-level behavior"));
        assert!(!err.trace.is_empty());
        assert!(err.to_string().contains("counterexample"));
    }

    #[test]
    fn somehow_spec_admits_implementation() {
        // The spec "somehow prints a value >= 0" simulates the concrete
        // implementation printing 1.
        let (low, high) = programs(
            r#"
            level Impl {
                void main() { print(1); }
            }
            level Spec {
                ghost var v: int;
                void main() {
                    somehow modifies v ensures v >= 0;
                    print(v);
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn reverse_direction_fails() {
        // The spec has more behaviors than the impl; checking spec ⊑ impl
        // must fail.
        let (low, high) = programs(
            r#"
            level Impl { void main() { print(1); } }
            level Spec {
                void main() { if (*) { print(1); } else { print(0); } }
            }
            "#,
            "Spec",
            "Impl",
        );
        let relation = StandardRelation::log_prefix();
        assert!(check_refinement(&low, &high, &relation, &SimConfig::default()).is_err());
    }

    #[test]
    fn concurrent_low_level_refines_atomic_spec() {
        // Two workers each print once under a guard; the spec prints the
        // two values in some order nondeterministically.
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn parallel_check_matches_serial() {
        // Success: certificates (node and transition counts included) must
        // be identical for any job count, with reduction on and off.
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        for reduction in [true, false] {
            let config = SimConfig::default().with_reduction(reduction);
            let serial = check_refinement(&low, &high, &relation, &config).unwrap();
            let parallel =
                check_refinement(&low, &high, &relation, &config.clone().with_jobs(4)).unwrap();
            assert_eq!(serial, parallel, "reduction={reduction}");
        }

        // Failure: the reported counterexample must render byte-identically.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(3); } } }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let serial = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap_err();
        let parallel = check_refinement(&low, &high, &relation, &SimConfig::default().with_jobs(4))
            .unwrap_err();
        assert_eq!(serial.to_string(), parallel.to_string());
    }

    const CONCURRENT_PAIR: &str = r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("armada-verify-{tag}-{}", std::process::id()))
    }

    #[test]
    fn spilled_check_matches_resident() {
        // A tiny mem-cap forces the high-state arena through the pager;
        // certificates and counterexample renderings must not change.
        let (low, high) = programs(CONCURRENT_PAIR, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let plain = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        let dir = tmp("spill");
        for jobs in [1, 4] {
            let mut spec = armada_sm::SpillSpec::new(1, dir.clone());
            spec.page_states = 2;
            let mut config = SimConfig::default().with_jobs(jobs);
            config.bounds.spill = Some(spec);
            let (result, tel) = check_refinement_with_telemetry(&low, &high, &relation, &config);
            assert_eq!(plain, result.unwrap(), "jobs={jobs}");
            assert!(
                tel.counters().get("spill.evictions") > 0,
                "jobs={jobs}: a 1-byte cap must evict high pages"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_check_matches_uninterrupted() {
        let (low, high) = programs(CONCURRENT_PAIR, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let plain = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        for jobs in [1, 4] {
            let dir = tmp(&format!("resume-{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = armada_sm::CheckpointSpec::new(dir.clone());

            // Interrupted: a zero deadline fires at the first boundary,
            // after the boundary checkpoint landed.
            let mut cut_config = SimConfig::default().with_jobs(jobs);
            cut_config.bounds = cut_config
                .bounds
                .with_checkpoint(spec.clone())
                .with_deadline(std::time::Duration::ZERO);
            let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
            assert_eq!(cut.kind, CexKind::Deadline, "jobs={jobs}");

            // Resumed without the deadline: identical certificate, and a
            // definitive verdict clears the checkpoint.
            let mut resume_config = SimConfig::default().with_jobs(jobs);
            resume_config.bounds = resume_config
                .bounds
                .with_checkpoint(spec.clone().with_resume(true));
            let resumed = check_refinement(&low, &high, &relation, &resume_config).unwrap();
            assert_eq!(plain, resumed, "jobs={jobs}");
            assert!(
                !dir.join("manifest.bin").exists(),
                "jobs={jobs}: a verified check clears its checkpoint"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_after_a_node_budget_cut_continues_and_refutes_identically() {
        // Interrupt a *failing* check with a tiny node budget; the resumed
        // run must find the identical counterexample, then clear the
        // checkpoint (refutation is definitive).
        let (low, high) = programs(
            r#"
            level A {
                void main() {
                    var i: uint32 := 0;
                    while (i < 3) { i := i + 1; }
                    print(i);
                }
            }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        // Reduction off: the loop's local steps become separate waves, so
        // a small node budget cuts several waves before the refuting
        // `print` edge (with fusion both land in one wave, and refutation
        // would win).
        let plain = check_refinement(
            &low,
            &high,
            &relation,
            &SimConfig::default().with_reduction(false),
        )
        .unwrap_err();
        assert_eq!(plain.kind, CexKind::Refinement);
        let dir = tmp("resume-budget");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = armada_sm::CheckpointSpec::new(dir.clone());
        let mut cut_config = SimConfig::default().with_reduction(false);
        cut_config.max_nodes = 2;
        cut_config.bounds = cut_config.bounds.with_checkpoint(spec.clone());
        let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
        assert_eq!(cut.kind, CexKind::Budget);
        assert!(
            dir.join("manifest.bin").exists(),
            "a budget cut keeps its checkpoint"
        );
        let mut resume_config = SimConfig::default().with_reduction(false);
        resume_config.bounds = resume_config.bounds.with_checkpoint(spec.with_resume(true));
        let resumed = check_refinement(&low, &high, &relation, &resume_config).unwrap_err();
        assert_eq!(plain.to_string(), resumed.to_string());
        assert!(
            !dir.join("manifest.bin").exists(),
            "a refutation clears its checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counterexample_trace_is_stable_under_reduction() {
        // The failing program has fusable local steps before the visible
        // divergence; micro-depth waves plus per-micro-step trace
        // reconstruction must yield the identical counterexample with
        // fusion on and off, at every job count.
        let (low, high) = programs(
            r#"
            level A {
                void main() {
                    var i: uint32 := 0;
                    i := i + 1;
                    print(i);
                }
            }
            level B { void main() { print(7); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut rendered: Vec<String> = Vec::new();
        for reduction in [true, false] {
            for jobs in [1, 4] {
                let config = SimConfig::default()
                    .with_reduction(reduction)
                    .with_jobs(jobs);
                let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
                assert_eq!(err.kind, CexKind::Refinement);
                rendered.push(err.to_string());
            }
        }
        for other in &rendered[1..] {
            assert_eq!(&rendered[0], other);
        }
    }

    #[test]
    fn refinement_failure_beats_budget_failure_in_same_wave() {
        // The node budget is tuned so the commit loop sees both a real
        // counterexample (low prints 2, high can only print 1 or 3) and
        // budget exhaustion while scanning the same wave; the real
        // counterexample must win, identically at every job count.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(3); } } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut expected: Option<String> = None;
        for jobs in [1, 2, 4] {
            let mut config = SimConfig::default().with_jobs(jobs);
            config.max_nodes = 3;
            let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
            assert_eq!(
                err.kind,
                CexKind::Refinement,
                "jobs={jobs}: a real counterexample must beat budget failure: {}",
                err.description
            );
            let rendered = err.to_string();
            match &expected {
                None => expected = Some(rendered),
                Some(first) => assert_eq!(first, &rendered, "jobs={jobs}"),
            }
        }
    }

    #[test]
    fn exhausted_node_budget_is_classified_as_budget() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            level B { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut config = SimConfig::default();
        config.max_nodes = 1;
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Budget);
        assert!(err.kind.is_budget());
        assert!(err.description.contains("search budget exceeded"));
    }

    #[test]
    fn expired_deadline_degrades_gracefully() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; print(x); } }
            level B { var x: uint32; void main() { x := 1; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut config = SimConfig::default();
        config.bounds = config.bounds.with_deadline(std::time::Duration::ZERO);
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Deadline);
        assert!(err.kind.is_budget());
        assert!(err.description.contains("deadline exceeded"));
    }

    /// A relation that panics when it sees a particular printed value, to
    /// exercise the worker pool's panic drain.
    struct PanickyRelation;

    impl armada_proof::relation::RefinementRelation for PanickyRelation {
        fn relates(&self, low: &ProgState, _high: &ProgState) -> bool {
            if low.log.iter().any(|entry| entry.to_string() == "2") {
                panic!("relation cannot handle the value 2");
            }
            true
        }

        fn describe(&self) -> String {
            "panicky test relation".to_string()
        }
    }

    #[test]
    fn worker_panic_drains_deterministically_across_job_counts() {
        // Both branches produce successors; evaluating the relation on the
        // `print(2)` branch panics inside a worker. The pool must drain
        // remaining slots and re-raise the lowest-slot panic, so serial and
        // parallel runs surface the identical payload.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(2); } } }
            "#,
            "A",
            "B",
        );
        let mut messages = Vec::new();
        for jobs in [1, 4] {
            let config = SimConfig::default().with_jobs(jobs);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                check_refinement(&low, &high, &PanickyRelation, &config)
            }))
            .expect_err("the panicking relation must propagate");
            let text = caught
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| caught.downcast_ref::<String>().cloned())
                .expect("string payload");
            messages.push(text);
        }
        assert_eq!(messages[0], "relation cannot handle the value 2");
        assert_eq!(messages[0], messages[1]);
    }

    #[test]
    fn injected_stall_and_cancel_delay_are_invisible_in_results() {
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        let clean = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        for jobs in [1, 4] {
            let faulted = SimConfig::default()
                .with_jobs(jobs)
                .with_faults(CheckFaults {
                    wave_stall_micros: 50,
                    cancel_delay_waves: 2,
                    abort_slot: None,
                });
            let cert = check_refinement(&low, &high, &relation, &faulted).unwrap();
            assert_eq!(cert, clean, "jobs={jobs}");
        }
    }

    #[test]
    fn injected_worker_abort_drains_identically_across_job_counts() {
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(2); } } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut messages = Vec::new();
        for jobs in [1, 4] {
            let config = SimConfig::default()
                .with_jobs(jobs)
                .with_faults(CheckFaults {
                    abort_slot: Some((1, 0)),
                    ..CheckFaults::default()
                });
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                check_refinement(&low, &high, &relation, &config)
            }))
            .expect_err("the injected abort must propagate");
            let text = caught
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| caught.downcast_ref::<String>().cloned())
                .expect("string payload");
            messages.push(text);
        }
        assert_eq!(messages[0], "injected fault: worker slot 0 aborted");
        assert_eq!(messages[0], messages[1]);
        // An abort aimed at a wave the search never reaches is a no-op.
        let config = SimConfig::default().with_faults(CheckFaults {
            abort_slot: Some((10_000, 0)),
            ..CheckFaults::default()
        });
        check_refinement(&low, &high, &relation, &config).unwrap();
    }

    #[test]
    fn delayed_cancel_still_expires_at_a_wave_boundary() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            level B { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        // Reduction off so every micro step is its own wave: the search has
        // strictly more waves than the suppression window.
        let mut config = SimConfig::default()
            .with_reduction(false)
            .with_faults(CheckFaults {
                cancel_delay_waves: 2,
                ..CheckFaults::default()
            });
        config.bounds = config.bounds.with_deadline(std::time::Duration::ZERO);
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Deadline, "{}", err.description);
    }

    #[test]
    fn emitted_witnesses_recheck_against_the_semantics() {
        // End-to-end trusted-core round trip: a real check's certificate,
        // serialized as a record, must pass the independent checker's full
        // semantic replay — with symmetry + reduction renamings in play
        // (two interchangeable workers) and without.
        let src = r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
        "#;
        let (low, high) = programs(src, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        for (reduction, symmetry) in [(true, true), (false, true), (true, false)] {
            let config = SimConfig::default()
                .with_reduction(reduction)
                .with_symmetry(symmetry);
            let mut cert = check_refinement(&low, &high, &relation, &config).unwrap();
            assert_eq!(cert.witness.pairs.len(), cert.product_nodes);
            cert.witness
                .bind_subject(armada_recheck::subject_digest(src, "Impl", "Spec"));
            let record = crate::store::serialize(&cert);
            let report = armada_recheck::recheck_record(&record, Some(src))
                .unwrap_or_else(|e| panic!("reduction={reduction} symmetry={symmetry}: {e}"));
            assert!(report.replayed);
            assert_eq!(report.pairs, cert.product_nodes);
        }
    }

    /// Queue's model-scale source, cut out of the case-study crate's source
    /// text (that crate depends on this one, so it cannot be a
    /// dev-dependency).
    fn queue_model() -> &'static str {
        let src = include_str!("../../cases/src/queue.rs");
        let open = "pub const MODEL: &str = r#\"";
        let body = &src[src.find(open).expect("queue MODEL") + open.len()..];
        &body[..body.find("\"#;").expect("end of queue MODEL")]
    }

    #[test]
    fn match_sets_are_compared_by_pointer() {
        // Queue `Weak ⊑ Spec` has ~56k successors whose match sets hold
        // thousands of high ids each, but only a handful of distinct sets.
        // Hash-consing must keep full-content set operations to one hash
        // per expand-cache miss plus the subset walks between *distinct*
        // admitted sets — tens, not one or two per successor.
        let (low, high) = programs(queue_model(), "Weak", "Spec");
        let relation = StandardRelation::log_prefix();
        content_ops::take();
        let cert = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        let (hashes, walks, misses) = content_ops::take();
        assert_eq!(cert.product_nodes, 25_548);
        assert_eq!(cert.low_transitions, 56_384);
        assert_eq!(
            hashes,
            misses + 1,
            "one content hash per miss, plus the root"
        );
        // Every successor's set is either new to its low state or the very
        // `Arc` already admitted there, so no walk is needed at all.
        assert_eq!(walks, 0, "subset walks in subsumption");
        assert!(misses <= 16, "{misses} expand-cache misses");
    }

    #[test]
    fn equal_match_sets_share_one_arc_and_one_id() {
        let obs = || (Vec::new(), Termination::Running);
        let mut cache = ExpandCache::default();
        let mut ids = SetIds::default();
        let a = cache.insert((0, obs()), Some(BTreeSet::from([3, 5, 8])));
        let b = cache.insert((1, obs()), Some(BTreeSet::from([8, 5, 3])));
        let c = cache.insert((2, obs()), Some(BTreeSet::from([3, 5])));
        let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "equal contents must be one Arc");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.insert((3, obs()), None), None);
        assert_eq!(ids.id_of(&a), 0);
        assert_eq!(ids.id_of(&b), 0, "equal contents must be one set id");
        assert_eq!(ids.id_of(&c), 1);
        assert_eq!(ids.sets.len(), 2);
    }

    #[test]
    fn chain_composition() {
        let cert_ab = RefinementCert {
            low: "A".into(),
            high: "B".into(),
            product_nodes: 0,
            low_transitions: 0,
            witness: Witness::empty(),
        };
        let cert_bc = RefinementCert {
            low: "B".into(),
            high: "C".into(),
            product_nodes: 0,
            low_transitions: 0,
            witness: Witness::empty(),
        };
        let chain = RefinementChain::compose(vec![cert_ab.clone(), cert_bc]).unwrap();
        assert_eq!(chain.claim(), "A ⊑ C");
        let err = RefinementChain::compose(vec![cert_ab.clone(), cert_ab]).unwrap_err();
        assert!(err.contains("chain break"));
    }
}
