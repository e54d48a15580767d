//! The Majority-Inverter Graph arena.

use crate::scratch::{SubstScratch, TravScratch};
use crate::strash::StrashTable;
use crate::{NodeId, Signal};
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone source for [`Mig::rewrite_stamp`] values: every structural
/// mutation of any arena draws a fresh, globally unique stamp, so a
/// `(stamp, num_nodes)` pair identifies one exact graph state. Caches
/// keyed on a stamp (the rewrite engine's cut cache) can therefore prove
/// they still describe the graph they were built for.
static STAMP_SOURCE: AtomicU64 = AtomicU64::new(1);

/// A Majority-Inverter Graph: a DAG whose internal nodes all compute the
/// three-input majority function and whose edges carry an optional
/// complement attribute (the paper's Section III-A definition).
///
/// Node 0 is the constant 0; nodes `1..=num_inputs` are the primary
/// inputs; every later node is a majority gate. The constructor
/// [`Mig::maj`] structurally hashes nodes after applying the trivial
/// `Ω.M` simplifications and an `Ω.I`-based inverter normalization (a
/// stored node has at most one complemented fanin), so structurally
/// equivalent subgraphs are shared automatically.
///
/// Structural hashing runs on an in-repo open-addressing table
/// (`StrashTable`) and every traversal-style query (reachability, cone
/// sizes, substitution) runs on epoch-marked scratchpads
/// (`TravScratch`/`SubstScratch`) so the optimization inner loops do
/// not touch the allocator; see `DESIGN.md` §6.
///
/// # Example
///
/// ```
/// use mig_core::Mig;
///
/// let mut mig = Mig::new("maj3");
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let m = mig.maj(a, b, c);
/// mig.add_output("y", m);
/// assert_eq!(mig.size(), 1);
/// assert_eq!(mig.depth(), 1);
/// ```
#[derive(Debug)]
pub struct Mig {
    name: String,
    children: Vec<[Signal; 3]>,
    level: Vec<u32>,
    num_inputs: usize,
    input_names: Vec<String>,
    outputs: Vec<(String, Signal)>,
    strash: StrashTable,
    /// Epoch-marked scratch for `&self` traversals (cone queries,
    /// reachability). Interior-mutable: scratch state is not logical
    /// state.
    trav: RefCell<TravScratch>,
    /// Scratch map for [`Mig::substitute`]; taken out while the rebuild
    /// runs so `&mut self` construction can proceed alongside it.
    subst: RefCell<SubstScratch>,
    /// Cached reachability marks and reachable-gate count, invalidated on
    /// any mutation.
    reach: RefCell<ReachCache>,
    /// Globally unique stamp of the last structural mutation (drawn from
    /// [`STAMP_SOURCE`] inside the same invalidation hook that drops the
    /// reachability cache).
    stamp: u64,
    /// Memoized [`Mig::depth`] keyed on the mutation stamp (stamps start
    /// at 1, so a stored stamp of 0 means "no value cached").
    depth_memo: Cell<(u64, u32)>,
}

/// A read-only, thread-shareable snapshot of a [`Mig`]'s structure.
///
/// `Mig` itself is `!Sync` (it carries `RefCell` scratchpads for its
/// traversal queries), but everything the rewriting evaluators need —
/// fanins, levels, structural-hash probes — lives in plain storage.
/// `MigView` borrows exactly that storage, so `std::thread::scope`
/// workers can share one immutable graph snapshot while the main thread
/// keeps the `Mig` alive.
#[derive(Clone, Copy)]
pub(crate) struct MigView<'a> {
    children: &'a [[Signal; 3]],
    level: &'a [u32],
    num_inputs: usize,
    strash: &'a StrashTable,
}

impl MigView<'_> {
    /// True if `node` is a majority gate.
    pub fn is_gate(&self, node: NodeId) -> bool {
        node.index() > self.num_inputs
    }

    /// The three stored fanins of a gate node.
    pub fn children(&self, node: NodeId) -> [Signal; 3] {
        debug_assert!(node.index() > self.num_inputs, "{node} is not a gate");
        self.children[node.index()]
    }

    /// Logic level of a node.
    pub fn level_of(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// Logic level of the node a signal points at.
    pub fn level_of_signal(&self, signal: Signal) -> u32 {
        self.level[signal.node().index()]
    }

    /// Snapshot equivalent of [`Mig::lookup_maj`]: resolves `M(a, b, c)`
    /// to an existing signal (trivial fold or strash hit) without
    /// mutating anything.
    pub fn lookup_maj(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        if a == b || a == c {
            return Some(a);
        }
        if b == c {
            return Some(b);
        }
        if a == !b {
            return Some(c);
        }
        if a == !c {
            return Some(b);
        }
        if b == !c {
            return Some(a);
        }
        let n_compl =
            a.is_complemented() as u8 + b.is_complemented() as u8 + c.is_complemented() as u8;
        let (mut key, flip) = if n_compl >= 2 {
            ([!a, !b, !c], true)
        } else {
            ([a, b, c], false)
        };
        key.sort_unstable();
        self.strash.get(key).map(|node| Signal::new(node, flip))
    }
}

#[derive(Debug, Clone, Default)]
struct ReachCache {
    valid: bool,
    mark: Vec<bool>,
    size: usize,
}

impl Clone for Mig {
    /// Clones the graph with fresh (empty) traversal scratchpads:
    /// scratch state is not logical state.
    fn clone(&self) -> Self {
        Mig {
            name: self.name.clone(),
            children: self.children.clone(),
            level: self.level.clone(),
            num_inputs: self.num_inputs,
            input_names: self.input_names.clone(),
            outputs: self.outputs.clone(),
            strash: self.strash.clone(),
            trav: RefCell::new(TravScratch::default()),
            subst: RefCell::new(SubstScratch::default()),
            reach: RefCell::new(self.reach.borrow().clone()),
            stamp: self.stamp,
            depth_memo: self.depth_memo.clone(),
        }
    }
}

impl Mig {
    /// Creates an empty MIG containing only the constant node.
    pub fn new(name: impl Into<String>) -> Self {
        Mig {
            name: name.into(),
            children: vec![[Signal::FALSE; 3]],
            level: vec![0],
            num_inputs: 0,
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: StrashTable::default(),
            trav: RefCell::new(TravScratch::default()),
            subst: RefCell::new(SubstScratch::default()),
            reach: RefCell::new(ReachCache::default()),
            stamp: STAMP_SOURCE.fetch_add(1, Ordering::Relaxed),
            depth_memo: Cell::new((0, 0)),
        }
    }

    /// Creates an empty MIG pre-sized for `inputs` primary inputs and
    /// roughly `gates_hint` majority gates: the node arrays and the
    /// structural-hash table are allocated up front, so million-node
    /// imports do not pay repeated regrow/rehash storms.
    pub fn with_capacity(name: impl Into<String>, inputs: usize, gates_hint: usize) -> Self {
        let mut mig = Mig::new(name);
        mig.children.reserve(inputs + gates_hint + 1);
        mig.level.reserve(inputs + gates_hint + 1);
        mig.input_names.reserve(inputs);
        mig.strash.reserve(gates_hint);
        mig
    }

    /// Pre-sizes the arena and strash table for `additional` more gates
    /// beyond the current node count.
    pub fn reserve_gates(&mut self, additional: usize) {
        self.children.reserve(additional);
        self.level.reserve(additional);
        self.strash.reserve(additional);
    }

    /// A thread-shareable snapshot of the graph's plain storage (fanins,
    /// levels, strash). Valid until the next mutation.
    pub(crate) fn view(&self) -> MigView<'_> {
        MigView {
            children: &self.children,
            level: &self.level,
            num_inputs: self.num_inputs,
            strash: &self.strash,
        }
    }

    /// The globally unique stamp of this graph's last structural
    /// mutation. Two reads returning the same stamp (on the same arena
    /// length) prove the structure has not changed in between; caches
    /// keyed on it (the rewrite engine's cut cache) use that proof.
    pub(crate) fn rewrite_stamp(&self) -> u64 {
        self.stamp
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    #[inline]
    fn invalidate_cache(&mut self) {
        self.reach.get_mut().valid = false;
        self.stamp = STAMP_SOURCE.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a primary input and returns its signal.
    ///
    /// # Panics
    ///
    /// Panics if any majority gate was already created: inputs occupy the
    /// contiguous arena range `1..=num_inputs`.
    pub fn add_input(&mut self, name: impl Into<String>) -> Signal {
        assert_eq!(
            self.children.len(),
            self.num_inputs + 1,
            "all inputs must be added before gates"
        );
        self.children.push([Signal::FALSE; 3]);
        self.level.push(0);
        self.num_inputs += 1;
        self.input_names.push(name.into());
        self.invalidate_cache();
        Signal::new(NodeId::from_index(self.num_inputs), false)
    }

    /// The signal of primary input `i` (0-based).
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs, "input index out of range");
        Signal::new(NodeId::from_index(i + 1), false)
    }

    /// The name of primary input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Declares `signal` as primary output `name`.
    pub fn add_output(&mut self, name: impl Into<String>, signal: Signal) {
        assert!(signal.node().index() < self.children.len());
        self.outputs.push((name.into(), signal));
        self.invalidate_cache();
    }

    /// The primary outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Redirects output `i` to a new signal (used by optimization passes).
    pub fn set_output(&mut self, i: usize, signal: Signal) {
        assert!(signal.node().index() < self.children.len());
        self.outputs[i].1 = signal;
        self.invalidate_cache();
    }

    /// True if `node` is a majority gate (not the constant, not an input).
    pub fn is_gate(&self, node: NodeId) -> bool {
        node.index() > self.num_inputs
    }

    /// True if `node` is a primary input.
    pub fn is_input(&self, node: NodeId) -> bool {
        node.index() >= 1 && node.index() <= self.num_inputs
    }

    /// The three stored fanins of a gate node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a gate.
    pub fn children(&self, node: NodeId) -> [Signal; 3] {
        assert!(self.is_gate(node), "{node} is not a majority gate");
        self.children[node.index()]
    }

    /// Functional view of `signal` as a majority: if its node is a gate,
    /// returns fanins adjusted for the edge's complement attribute using
    /// `Ω.I` (`M'(x,y,z) = M(x',y',z')`). Returns `None` for inputs and
    /// constants.
    pub fn as_maj(&self, signal: Signal) -> Option<[Signal; 3]> {
        if !self.is_gate(signal.node()) {
            return None;
        }
        let [a, b, c] = self.children[signal.node().index()];
        let f = signal.is_complemented();
        Some([a.complement_if(f), b.complement_if(f), c.complement_if(f)])
    }

    /// Total number of arena nodes (constant + inputs + gates, dead or not).
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }

    /// Number of gate nodes in the arena (alive or dead).
    pub fn num_gates(&self) -> usize {
        self.children.len() - self.num_inputs - 1
    }

    /// Logic level of a node: 0 for inputs/constants, 1 + deepest fanin
    /// for gates. Fixed when the node is created: the arena only appends
    /// or truncates, so a stored level never goes stale.
    pub fn level_of(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// Logic level of the node a signal points at.
    pub fn level_of_signal(&self, signal: Signal) -> u32 {
        self.level[signal.node().index()]
    }

    /// Creates (or finds) the majority node `M(a, b, c)`.
    ///
    /// Applies the trivial `Ω.M` rules (`M(x,x,z) = x`, `M(x,x',z) = z`),
    /// normalizes inverters with `Ω.I`, sorts fanins (`Ω.C`), and
    /// structurally hashes the result.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        // Ω.M: two equal or complementary fanins decide the output.
        if a == b {
            return a;
        }
        if a == !b {
            return c;
        }
        if a == c {
            return a;
        }
        if a == !c {
            return b;
        }
        if b == c {
            return b;
        }
        if b == !c {
            return a;
        }
        // Ω.I: keep at most one complemented fanin in the stored node.
        let n_compl =
            a.is_complemented() as u8 + b.is_complemented() as u8 + c.is_complemented() as u8;
        if n_compl >= 2 {
            return !self.maj_canonical(!a, !b, !c);
        }
        self.maj_canonical(a, b, c)
    }

    /// Checks whether `M(a, b, c)` already exists (or folds to an existing
    /// signal) without allocating a node. Returns the signal it would
    /// evaluate to, or `None` if constructing it would allocate.
    ///
    /// Optimization passes use this to detect sharing opportunities before
    /// committing to a rewrite.
    pub fn lookup_maj(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        self.view().lookup_maj(a, b, c)
    }

    fn maj_canonical(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let mut key = [a, b, c];
        key.sort_unstable();
        if let Some(node) = self.strash.get(key) {
            return Signal::new(node, false);
        }
        let node = NodeId::from_index(self.children.len());
        let lvl = 1 + key
            .iter()
            .map(|s| self.level[s.node().index()])
            .max()
            .expect("three children");
        self.children.push(key);
        self.level.push(lvl);
        self.strash.insert(key, node);
        self.invalidate_cache();
        Signal::new(node, false)
    }

    /// Conjunction, encoded as `M(a, b, 0)`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(a, b, Signal::FALSE)
    }

    /// Disjunction, encoded as `M(a, b, 1)`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(a, b, Signal::TRUE)
    }

    /// Exclusive-or, built from two ANDs and an OR.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let t = self.and(a, !b);
        let e = self.and(!a, b);
        self.or(t, e)
    }

    /// If-then-else `sel ? t : e`.
    pub fn mux(&mut self, sel: Signal, t: Signal, e: Signal) -> Signal {
        let p = self.and(sel, t);
        let q = self.and(!sel, e);
        self.or(p, q)
    }

    /// Exclusive borrow of the traversal scratchpad. Crate-internal:
    /// holders must release it before handing control to code that may
    /// start another traversal on the same MIG.
    pub(crate) fn trav_scratch(&self) -> RefMut<'_, TravScratch> {
        self.trav.borrow_mut()
    }

    /// Takes the substitution scratch out of the MIG (leaving a fresh
    /// default) so `&mut self` construction can run while it is in use;
    /// return it with [`Mig::put_subst_scratch`].
    pub(crate) fn take_subst_scratch(&self) -> SubstScratch {
        self.subst.take()
    }

    /// Returns the substitution scratch taken by
    /// [`Mig::take_subst_scratch`].
    pub(crate) fn put_subst_scratch(&self, scratch: SubstScratch) {
        self.subst.replace(scratch);
    }

    fn ensure_reach(&self) {
        if self.reach.borrow().valid {
            return;
        }
        let mut cache = self.reach.borrow_mut();
        let cache = &mut *cache;
        cache.mark.clear();
        cache.mark.resize(self.children.len(), false);
        for m in cache.mark[..=self.num_inputs].iter_mut() {
            *m = true;
        }
        let mut trav = self.trav.borrow_mut();
        trav.stack.clear();
        trav.stack
            .extend(self.outputs.iter().map(|&(_, s)| s.node()));
        while let Some(n) = trav.stack.pop() {
            if cache.mark[n.index()] {
                continue;
            }
            cache.mark[n.index()] = true;
            for child in self.children[n.index()] {
                trav.stack.push(child.node());
            }
        }
        cache.size = (self.num_inputs + 1..self.children.len())
            .filter(|&i| cache.mark[i])
            .count();
        cache.valid = true;
    }

    /// Borrowed reachability marks (computed once, cached until the next
    /// mutation). Crate-internal so passes can index without copying.
    pub(crate) fn reach_ref(&self) -> Ref<'_, [bool]> {
        self.ensure_reach();
        Ref::map(self.reach.borrow(), |c| c.mark.as_slice())
    }

    /// Marks every node reachable from the outputs.
    ///
    /// The marks are cached between mutations; this copies them out. Hot
    /// paths inside the crate use the cached borrow directly.
    pub fn reachable(&self) -> Vec<bool> {
        self.reach_ref().to_vec()
    }

    /// Size: the number of majority gates reachable from the outputs (the
    /// paper's "size" metric — inverters are free edge attributes).
    ///
    /// Cached: repeated calls between mutations are O(1).
    pub fn size(&self) -> usize {
        self.ensure_reach();
        self.reach.borrow().size
    }

    /// Depth: the maximum logic level over all outputs (the paper's number
    /// of logic levels).
    ///
    /// Memoized on the mutation stamp: repeated calls between mutations
    /// (ledger reporting, `mighty stats`, pass acceptance checks) are
    /// O(1) instead of O(outputs).
    pub fn depth(&self) -> u32 {
        let (memo_stamp, memo_depth) = self.depth_memo.get();
        if memo_stamp == self.stamp {
            return memo_depth;
        }
        let d = self
            .outputs
            .iter()
            .map(|&(_, s)| self.level[s.node().index()])
            .max()
            .unwrap_or(0);
        self.depth_memo.set((self.stamp, d));
        d
    }

    /// Bytes held by the node arena (fanin and level arrays), counting
    /// capacity, for memory-footprint reporting.
    pub fn arena_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<[Signal; 3]>()
            + self.level.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of slots in the structural-hash table (occupied or empty),
    /// for memory-footprint reporting.
    pub fn strash_slots(&self) -> usize {
        self.strash.num_slots()
    }

    /// Bytes held by the structural-hash table, counting capacity, for
    /// memory-footprint reporting.
    pub fn strash_bytes(&self) -> usize {
        self.strash.slot_bytes()
    }

    /// Fanout count per node: how many gate fanins and outputs reference
    /// it (complemented or not), counting only reachable gates.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = Vec::new();
        self.fanout_counts_into(&mut counts);
        counts
    }

    /// [`Mig::fanout_counts`] into a caller-owned buffer, so per-pass
    /// callers can reuse the allocation.
    pub fn fanout_counts_into(&self, counts: &mut Vec<u32>) {
        let mark = self.reach_ref();
        counts.clear();
        counts.resize(self.children.len(), 0);
        for (i, kids) in self.children.iter().enumerate().skip(self.num_inputs + 1) {
            if !mark[i] {
                continue;
            }
            for child in kids {
                counts[child.node().index()] += 1;
            }
        }
        for &(_, s) in &self.outputs {
            counts[s.node().index()] += 1;
        }
    }

    /// Clears this arena and re-declares `proto`'s inputs so a rebuild
    /// pass can construct into it. Keeps every buffer allocation
    /// (children, levels, strash slots) from the arena's previous life.
    pub(crate) fn reset_for_rebuild(&mut self, proto: &Mig) {
        self.name.clear();
        self.name.push_str(proto.name());
        self.children.truncate(1);
        self.level.truncate(1);
        self.num_inputs = 0;
        self.input_names.clear();
        self.outputs.clear();
        self.strash.clear();
        self.invalidate_cache();
        for i in 0..proto.num_inputs() {
            self.children.push([Signal::FALSE; 3]);
            self.level.push(0);
            self.num_inputs += 1;
            self.input_names.push(proto.input_name(i).to_string());
        }
    }

    /// Returns a compacted copy without dead nodes. Signals are remapped;
    /// outputs, input order and names are preserved.
    pub fn cleanup(&self) -> Mig {
        let mut out = Mig::new(self.name.clone());
        for name in &self.input_names {
            out.add_input(name.clone());
        }
        let mark = self.reach_ref();
        let mut map: Vec<Signal> = vec![Signal::FALSE; self.children.len()];
        for (i, m) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *m = Signal::new(NodeId::from_index(i), false);
        }
        for i in self.num_inputs + 1..self.children.len() {
            if !mark[i] {
                continue;
            }
            let [a, b, c] = self.children[i];
            let a = map[a.node().index()].complement_if(a.is_complemented());
            let b = map[b.node().index()].complement_if(b.is_complemented());
            let c = map[c.node().index()].complement_if(c.is_complemented());
            map[i] = out.maj(a, b, c);
        }
        for (name, s) in &self.outputs {
            let m = map[s.node().index()].complement_if(s.is_complemented());
            out.add_output(name.clone(), m);
        }
        out
    }

    /// Iterates over gate node ids in topological (arena) order.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.num_inputs + 1..self.children.len()).map(NodeId::from_index)
    }

    /// Signal probabilities under an input-independence model: the
    /// probability that each node evaluates to 1, given per-input
    /// probabilities (use 0.5 everywhere for the uniform model).
    ///
    /// # Panics
    ///
    /// Panics if `input_probs.len() != num_inputs()`.
    pub fn signal_probabilities(&self, input_probs: &[f64]) -> Vec<f64> {
        let mut p = Vec::new();
        self.extend_signal_probabilities(input_probs, &mut p);
        p
    }

    /// Extends `p`, the probabilities of the arena's first `p.len()` nodes,
    /// over the nodes appended since; an empty `p` first gets the constant
    /// and the inputs. Like levels, probabilities are pure functions of the
    /// fanins and the arena only appends, so the result equals a full
    /// propagation bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `input_probs.len() != num_inputs()`.
    pub(crate) fn extend_signal_probabilities(&self, input_probs: &[f64], p: &mut Vec<f64>) {
        assert_eq!(input_probs.len(), self.num_inputs);
        debug_assert!(p.len() <= self.children.len(), "stale probabilities");
        if p.is_empty() {
            p.push(0.0);
            p.extend_from_slice(input_probs);
        }
        let prob_of = |p: &[f64], s: Signal| {
            let q = p[s.node().index()];
            if s.is_complemented() {
                1.0 - q
            } else {
                q
            }
        };
        for i in p.len()..self.children.len() {
            let [a, b, c] = self.children[i];
            let (pa, pb, pc) = (prob_of(p, a), prob_of(p, b), prob_of(p, c));
            p.push(pa * pb + pa * pc + pb * pc - 2.0 * pa * pb * pc);
        }
    }

    /// The paper's switching-activity metric: `Σ p(1−p)` over all
    /// reachable majority gates, with `p` the node's probability of being
    /// logic 1 (Section IV-C / Table I "Activity").
    pub fn switching_activity(&self, input_probs: &[f64]) -> f64 {
        let p = self.signal_probabilities(input_probs);
        let mark = self.reach_ref();
        (self.num_inputs + 1..self.children.len())
            .filter(|&i| mark[i])
            .map(|i| p[i] * (1.0 - p[i]))
            .sum()
    }

    /// Switching activity under the uniform (p = 0.5) input model.
    pub fn switching_activity_uniform(&self) -> f64 {
        self.switching_activity(&vec![0.5; self.num_inputs])
    }

    /// A stable 64-bit structural fingerprint of the reachable graph,
    /// built from the same splitmix64 primitives as
    /// [`mig_netlist::Network::content_hash`].
    ///
    /// Majority fanins fold commutatively (majority is symmetric and
    /// fanin storage order depends on arena node ids, which depend on
    /// insertion history), primary inputs hash from their declared
    /// names, outputs fold commutatively over (name, cone) pairs, and
    /// dead nodes never contribute — so `mig.content_hash()` equals
    /// `mig.cleanup().content_hash()` and is independent of the order
    /// in which an equivalent graph was constructed. The module name is
    /// excluded (renaming a design does not change its content).
    pub fn content_hash(&self) -> u64 {
        use mig_netlist::content_hash::{hash_str, mix64};
        const SEED_CONST: u64 = 0x1234_5678_9ABC_DEF1;
        const SEED_INPUT: u64 = 0x9E37_79B9_7F4A_7C15;
        const SEED_GATE: u64 = 0xC2B2_AE3D_27D4_EB4F;
        const SEED_OUTPUT: u64 = 0x1656_67B1_9E37_79F9;
        const SEED_COMPL: u64 = 0x0DD0_0DD0_0DD0_0DD0;

        let mut node_hash: Vec<u64> = Vec::with_capacity(self.children.len());
        node_hash.push(mix64(SEED_CONST));
        for name in &self.input_names {
            node_hash.push(mix64(SEED_INPUT ^ hash_str(name)));
        }
        let signal_hash = |node_hash: &[u64], s: Signal| {
            let compl_seed = if s.is_complemented() { SEED_COMPL } else { 0 };
            mix64(node_hash[s.node().index()] ^ compl_seed)
        };
        for kids in self.children.iter().skip(self.num_inputs + 1) {
            let folded = kids
                .iter()
                .fold(0u64, |acc, &s| acc.wrapping_add(signal_hash(&node_hash, s)));
            node_hash.push(mix64(SEED_GATE ^ folded));
        }
        let mut acc: u64 = 0;
        for name in &self.input_names {
            acc = acc.wrapping_add(mix64(SEED_INPUT ^ hash_str(name)));
        }
        for (name, s) in &self.outputs {
            acc = acc.wrapping_add(mix64(
                SEED_OUTPUT ^ hash_str(name) ^ signal_hash(&node_hash, *s).rotate_left(17),
            ));
        }
        mix64(acc ^ mix64(self.num_inputs as u64) ^ self.outputs.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_inputs() -> (Mig, Signal, Signal, Signal) {
        let mut mig = Mig::new("t");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        (mig, a, b, c)
    }

    #[test]
    fn trivial_majority_rules() {
        let (mut mig, a, b, c) = three_inputs();
        assert_eq!(mig.maj(a, a, c), a);
        assert_eq!(mig.maj(a, !a, c), c);
        assert_eq!(mig.maj(b, c, c), c);
        assert_eq!(mig.maj(c, b, !c), b);
        assert_eq!(mig.num_gates(), 0, "no node allocated");
    }

    #[test]
    fn constants_fold() {
        let (mut mig, a, _, _) = three_inputs();
        // M(a, 0, 1) = a by the complementary-pair rule.
        assert_eq!(mig.maj(a, Signal::FALSE, Signal::TRUE), a);
        assert_eq!(mig.and(a, Signal::FALSE), Signal::FALSE);
        assert_eq!(mig.and(a, Signal::TRUE), a);
        assert_eq!(mig.or(a, Signal::TRUE), Signal::TRUE);
        assert_eq!(mig.or(a, Signal::FALSE), a);
    }

    #[test]
    fn strashing_shares_structure() {
        let (mut mig, a, b, c) = three_inputs();
        let m1 = mig.maj(a, b, c);
        let m2 = mig.maj(c, a, b); // Ω.C: same node
        assert_eq!(m1, m2);
        assert_eq!(mig.num_gates(), 1);
    }

    #[test]
    fn inverter_normalization() {
        let (mut mig, a, b, c) = three_inputs();
        // M(a', b', c) should be stored as !M(a, b, c') — one node either way,
        // and creating the Ω.I-dual must not allocate a second node.
        let m1 = mig.maj(!a, !b, c);
        let m2 = mig.maj(a, b, !c);
        assert_eq!(m1, !m2);
        assert_eq!(mig.num_gates(), 1);
    }

    #[test]
    fn size_and_depth() {
        let (mut mig, a, b, c) = three_inputs();
        let x = mig.xor(a, b);
        let y = mig.xor(x, c);
        mig.add_output("y", y);
        assert_eq!(mig.size(), 6, "two XORs at 3 nodes each");
        assert_eq!(mig.depth(), 4);
    }

    #[test]
    fn dead_nodes_not_counted() {
        let (mut mig, a, b, c) = three_inputs();
        let keep = mig.maj(a, b, c);
        let _dead = mig.and(a, b);
        mig.add_output("y", keep);
        assert_eq!(mig.num_gates(), 2);
        assert_eq!(mig.size(), 1);
        let clean = mig.cleanup();
        assert_eq!(clean.num_gates(), 1);
        assert_eq!(clean.outputs().len(), 1);
    }

    #[test]
    fn size_cache_invalidates_on_mutation() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        mig.add_output("y", m);
        assert_eq!(mig.size(), 1);
        assert_eq!(mig.size(), 1, "cached second read");
        let n = mig.and(m, c);
        assert_eq!(mig.size(), 1, "new node is dead until referenced");
        mig.add_output("z", n);
        assert_eq!(mig.size(), 2, "add_output invalidates the cache");
        mig.set_output(1, m);
        assert_eq!(mig.size(), 1, "set_output invalidates the cache");
    }

    #[test]
    fn cleanup_preserves_complemented_outputs() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        mig.add_output("y", !m);
        let clean = mig.cleanup();
        assert!(clean.outputs()[0].1.is_complemented());
        assert_eq!(clean.size(), 1);
    }

    #[test]
    fn as_maj_functional_view() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        assert_eq!(mig.as_maj(m), Some([a, b, c]));
        // Complemented view pushes inversion to the fanins (Ω.I).
        assert_eq!(mig.as_maj(!m), Some([!a, !b, !c]));
        assert_eq!(mig.as_maj(a), None);
        assert_eq!(mig.as_maj(Signal::TRUE), None);
    }

    #[test]
    fn fanout_counting() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        let n = mig.and(m, c);
        mig.add_output("y", n);
        mig.add_output("z", m);
        let fo = mig.fanout_counts();
        assert_eq!(fo[m.node().index()], 2);
        assert_eq!(fo[a.node().index()], 1);
        assert_eq!(fo[c.node().index()], 2);
    }

    #[test]
    fn probabilities_match_paper_example() {
        // Fig. 2(d): k = M(x, y, M(x', z, w)) with px=0.5, py=pz=pw=0.1
        // has node switching activities 0.09 / 0.09.
        let mut mig = Mig::new("act");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let w = mig.add_input("w");
        let inner = mig.maj(!x, z, w);
        let k = mig.maj(x, y, inner);
        mig.add_output("k", k);
        let p = mig.signal_probabilities(&[0.5, 0.1, 0.1, 0.1]);
        let sw_inner = p[inner.node().index()] * (1.0 - p[inner.node().index()]);
        let sw_top = p[k.node().index()] * (1.0 - p[k.node().index()]);
        assert!((sw_inner - 0.09).abs() < 1e-9, "inner SW = {sw_inner}");
        assert!((sw_top - 0.09).abs() < 1e-9, "top SW = {sw_top}");
        let total = mig.switching_activity(&[0.5, 0.1, 0.1, 0.1]);
        assert!((total - 0.18).abs() < 1e-9);
    }

    #[test]
    fn optimized_activity_matches_paper_example() {
        // Fig. 2(d) after Ψ.R: k = M(x, y, M(y, z, w)) has SW 0.06 + 0.03.
        let mut mig = Mig::new("act2");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let w = mig.add_input("w");
        let inner = mig.maj(y, z, w);
        let k = mig.maj(x, y, inner);
        mig.add_output("k", k);
        let total = mig.switching_activity(&[0.5, 0.1, 0.1, 0.1]);
        // Exact: 0.0272 + 0.0599 ≈ 0.087 (the paper rounds to 0.03 + 0.06).
        assert!((total - 0.087).abs() < 1e-2, "total = {total}");
    }

    #[test]
    fn content_hash_is_structural() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        let n = mig.and(m, c);
        mig.add_output("y", n);
        let base = mig.content_hash();

        // Same circuit built in a different construction order (the AND's
        // strash key folds in before the top majority exists).
        let mut other = Mig::new("renamed");
        let a2 = other.add_input("a");
        let b2 = other.add_input("b");
        let c2 = other.add_input("c");
        let _dead = other.and(a2, c2);
        let m2 = other.maj(a2, b2, c2);
        let n2 = other.and(m2, c2);
        other.add_output("y", n2);
        assert_eq!(base, other.content_hash(), "order/name/dead-node blind");
        assert_eq!(base, other.cleanup().content_hash(), "cleanup-stable");

        // Mutations move the hash.
        let mut flipped = mig.clone();
        flipped.set_output(0, !n);
        assert_ne!(base, flipped.content_hash(), "output polarity counts");
        let mut rewired = Mig::new("t");
        let a3 = rewired.add_input("a");
        let b3 = rewired.add_input("b");
        let c3 = rewired.add_input("c");
        let m3 = rewired.maj(a3, b3, c3);
        let n3 = rewired.and(m3, b3);
        rewired.add_output("y", n3);
        assert_ne!(base, rewired.content_hash(), "rewired fanin counts");
    }

    #[test]
    #[should_panic(expected = "all inputs must be added before gates")]
    fn inputs_before_gates() {
        let mut mig = Mig::new("bad");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let _ = mig.and(a, b);
        let c = mig.add_input("c");
        let _ = c;
    }

    #[test]
    fn traversals_survive_epoch_rollover() {
        // Force the shared scratch generation counter to the wraparound
        // boundary and check that every traversal-backed query stays
        // correct while the counter rolls over u32::MAX.
        let (mut mig, a, b, c) = three_inputs();
        let p = mig.and(a, b);
        let q = mig.or(p, c);
        let r = mig.maj(q, p, a);
        mig.add_output("y", r);
        let expect_sizes: Vec<Option<usize>> = [p, q, r]
            .iter()
            .map(|&s| mig.cone_size_within(s, 10))
            .collect();
        let expect_gates = mig.cone_gates(r);
        mig.trav_scratch().force_epoch(u32::MAX - 3);
        for round in 0..8 {
            let got: Vec<Option<usize>> = [p, q, r]
                .iter()
                .map(|&s| mig.cone_size_within(s, 10))
                .collect();
            assert_eq!(got, expect_sizes, "round {round}");
            assert_eq!(mig.cone_gates(r), expect_gates, "round {round}");
            assert_eq!(
                mig.cone_contains(r, a.node(), 10),
                Some(true),
                "round {round}"
            );
            assert_eq!(
                mig.cone_contains(p, c.node(), 10),
                Some(false),
                "round {round}"
            );
        }
        assert!(
            mig.trav_scratch().epoch() < 100,
            "the counter must have wrapped"
        );
    }

    #[test]
    fn substitute_survives_epoch_rollover() {
        let (mut mig, a, b, c) = three_inputs();
        let p = mig.and(a, b);
        let r = mig.maj(p, c, a);
        let expect = mig.substitute(r, b.node(), c);
        {
            let mut ss = mig.take_subst_scratch();
            ss.force_epoch(u32::MAX - 2);
            mig.put_subst_scratch(ss);
        }
        mig.trav_scratch().force_epoch(u32::MAX - 2);
        for round in 0..6 {
            assert_eq!(mig.substitute(r, b.node(), c), expect, "round {round}");
        }
    }

    #[test]
    fn reset_for_rebuild_reuses_arena() {
        let (mut mig, a, b, c) = three_inputs();
        let m = mig.maj(a, b, c);
        mig.add_output("y", m);
        let mut other = Mig::new("other");
        let x = other.add_input("x");
        let y = other.add_input("y");
        let g = other.and(x, y);
        other.add_output("g", g);
        other.reset_for_rebuild(&mig);
        assert_eq!(other.name(), "t");
        assert_eq!(other.num_inputs(), 3);
        assert_eq!(other.num_gates(), 0);
        assert_eq!(other.num_outputs(), 0);
        assert_eq!(other.input_name(2), "c");
        // The recycled arena behaves exactly like a fresh one.
        let a2 = other.input(0);
        let b2 = other.input(1);
        let c2 = other.input(2);
        let m2 = other.maj(a2, b2, c2);
        other.add_output("y", m2);
        assert_eq!(other.size(), 1);
        assert_eq!(
            other.lookup_maj(a2, b2, c2),
            Some(m2),
            "strash cleared and repopulated"
        );
    }

    /// Asserts that the arena's stored levels equal a from-scratch
    /// topological recompute and that the memoized depth equals the
    /// deepest output level.
    fn assert_levels_exact(mig: &Mig, what: &str) {
        let mut fresh = vec![0u32; mig.num_nodes()];
        for node in mig.gate_ids() {
            fresh[node.index()] = 1 + mig
                .children(node)
                .iter()
                .map(|s| fresh[s.node().index()])
                .max()
                .unwrap();
        }
        for (i, &lvl) in fresh.iter().enumerate() {
            let node = NodeId::from_index(i);
            assert_eq!(mig.level_of(node), lvl, "{what}: level of {node}");
        }
        let deepest = mig
            .outputs()
            .iter()
            .map(|&(_, s)| fresh[s.node().index()])
            .max()
            .unwrap_or(0);
        assert_eq!(mig.depth(), deepest, "{what}: depth");
    }

    #[test]
    fn property_random_edit_sequences_match_recompute() {
        // Random maj / substitute / redirect / clone / rebuild sequences
        // on SplitMix64-seeded corpora. `depth()` is queried after every
        // edit, so a pure output redirect must invalidate its memo.
        use crate::opt::OptBuffers;
        use mig_netlist::SplitMix64;
        fn pick(rng: &mut SplitMix64, sigs: &[Signal]) -> Signal {
            sigs[rng.gen_range(0..sigs.len())]
        }
        fn random_maj(rng: &mut SplitMix64, mig: &mut Mig, sigs: &[Signal]) -> Signal {
            let (a, b, c) = (pick(rng, sigs), pick(rng, sigs), pick(rng, sigs));
            mig.maj(a, b, c)
        }
        for seed in 0..6u64 {
            let mut rng = SplitMix64::seed_from_u64(0x1e7e_1000 + seed);
            let mut mig = Mig::new(format!("corpus{seed}"));
            let mut sigs: Vec<Signal> = (0..8).map(|i| mig.add_input(format!("x{i}"))).collect();
            for _ in 0..40 {
                let s = random_maj(&mut rng, &mut mig, &sigs);
                sigs.push(s);
            }
            mig.add_output("y", *sigs.last().unwrap());
            mig.add_output("z", sigs[sigs.len() / 2]);
            let mut bufs = OptBuffers::new();
            assert_levels_exact(&mig, "initial");
            for step in 0..80 {
                let what = match rng.gen_range(0..5) {
                    0 => {
                        let s = random_maj(&mut rng, &mut mig, &sigs);
                        sigs.push(s);
                        if rng.gen_bool(0.5) {
                            mig.set_output(0, s);
                        }
                        "maj"
                    }
                    1 => {
                        let from = pick(&mut rng, &sigs).node();
                        let to = pick(&mut rng, &sigs);
                        if mig.is_gate(from) && to.node() != from {
                            let out = mig.outputs()[0].1;
                            let new_root = mig.substitute(out, from, to);
                            mig.set_output(0, new_root);
                        }
                        "substitute"
                    }
                    2 => {
                        let i = rng.gen_range(0..mig.num_outputs());
                        let s = pick(&mut rng, &sigs);
                        mig.set_output(i, s);
                        "redirect"
                    }
                    3 => {
                        // The clone and its source diverge at the same
                        // length; each must keep its own levels and depth.
                        let mut copy = mig.clone();
                        let s = random_maj(&mut rng, &mut copy, &sigs);
                        copy.set_output(1, s);
                        mig.set_output(1, pick(&mut rng, &sigs));
                        assert_levels_exact(&mig, "clone source");
                        sigs.push(s);
                        mig = copy;
                        "clone"
                    }
                    _ => {
                        let rebuilt = bufs.cleanup(&mig);
                        bufs.recycle(std::mem::replace(&mut mig, rebuilt));
                        sigs = (0..mig.num_inputs()).map(|i| mig.input(i)).collect();
                        sigs.extend(mig.gate_ids().map(|n| Signal::new(n, false)));
                        "rebuild"
                    }
                };
                assert_levels_exact(&mig, &format!("seed {seed} step {step} ({what})"));
            }
        }
    }

    /// `p` equals a from-scratch propagation over `mig` bit for bit.
    fn assert_probs_exact(mig: &Mig, input_probs: &[f64], p: &[f64], what: &str) {
        let fresh = mig.signal_probabilities(input_probs);
        assert_eq!(p.len(), fresh.len(), "{what}: length");
        for (i, (a, b)) in p.iter().zip(&fresh).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: probability of node {i}");
        }
    }

    #[test]
    fn property_probability_extension_matches_recompute() {
        // Random maj / Ψ.R / substitute / rebuild sequences: a vector
        // extended over each appended suffix stays equal to a full
        // recompute, also inside a rebuild that appends a dead Ψ.R
        // candidate next to some gates, as the activity pass does.
        use crate::opt::OptBuffers;
        use mig_netlist::SplitMix64;
        fn pick(rng: &mut SplitMix64, sigs: &[Signal]) -> Signal {
            sigs[rng.gen_range(0..sigs.len())]
        }
        for seed in 0..6u64 {
            let mut rng = SplitMix64::seed_from_u64(0x9b0b_1000 + seed);
            let mut mig = Mig::new(format!("corpus{seed}"));
            let mut sigs: Vec<Signal> = (0..8).map(|i| mig.add_input(format!("x{i}"))).collect();
            let input_probs: Vec<f64> = (0..8).map(|_| rng.next_f64()).collect();
            for _ in 0..40 {
                let (a, b, c) = (
                    pick(&mut rng, &sigs),
                    pick(&mut rng, &sigs),
                    pick(&mut rng, &sigs),
                );
                sigs.push(mig.maj(a, b, c));
            }
            for (i, &s) in sigs[sigs.len() - 6..].iter().enumerate() {
                mig.add_output(format!("y{i}"), s);
            }
            let mut probs = Vec::new();
            let mut bufs = OptBuffers::new();
            for step in 0..60 {
                let (x, y, z) = (
                    pick(&mut rng, &sigs),
                    pick(&mut rng, &sigs),
                    pick(&mut rng, &sigs),
                );
                let what = match rng.gen_range(0..4) {
                    0 => {
                        sigs.push(mig.maj(x, y, z));
                        "maj"
                    }
                    1 => {
                        if !x.is_constant() {
                            sigs.push(mig.psi_r(x, y, z));
                        }
                        "psi_r"
                    }
                    2 => {
                        if mig.is_gate(x.node()) && y.node() != x.node() {
                            sigs.push(mig.substitute(z, x.node(), y));
                        }
                        "substitute"
                    }
                    _ => {
                        let mut inner = Vec::new();
                        let rebuilt = bufs.rebuild(&mig, |new, [a, b, c], _| {
                            let s = new.maj(a, b, c);
                            new.extend_signal_probabilities(&input_probs, &mut inner);
                            if let Some([u, v, w]) = new.as_maj(s) {
                                if !u.is_constant() && rng.gen_bool(0.25) {
                                    new.psi_r(u, v, w);
                                    new.extend_signal_probabilities(&input_probs, &mut inner);
                                }
                            }
                            assert_probs_exact(new, &input_probs, &inner, "inside rebuild");
                            s
                        });
                        bufs.recycle(std::mem::replace(&mut mig, rebuilt));
                        sigs = (0..mig.num_inputs()).map(|i| mig.input(i)).collect();
                        sigs.extend(mig.gate_ids().map(|n| Signal::new(n, false)));
                        // The rebuild restarted the arena, so the vector
                        // restarts with it.
                        probs = inner;
                        "rebuild"
                    }
                };
                let last = *sigs.last().unwrap();
                if mig.is_gate(last.node()) && rng.gen_bool(0.5) {
                    let i = rng.gen_range(0..mig.num_outputs());
                    mig.set_output(i, last);
                }
                mig.extend_signal_probabilities(&input_probs, &mut probs);
                assert_probs_exact(
                    &mig,
                    &input_probs,
                    &probs,
                    &format!("seed {seed} step {step} ({what})"),
                );
            }
        }
    }
}
