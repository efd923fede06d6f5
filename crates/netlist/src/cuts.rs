//! K-feasible cut enumeration on mapped networks.
//!
//! Implements the classic bottom-up cut enumeration with dominance pruning
//! and a per-node cut budget (priority cuts, Cong et al. — ref. \[8\] in
//! the paper). T1 detection uses `k = 3` cuts whose truth tables are
//! computed on the fly; the technology mapper uses its own 2-feasible variant
//! on AIGs.
//!
//! Cut leaves are [`Signal`]s, so the enumeration is oblivious to whether a
//! leaf is a primary input, a gate output, or a T1 port. Cells that are not
//! plain gates (T1 macro-cells, DFFs) act as enumeration *boundaries*: their
//! pins only offer trivial cuts, so no cut crosses through them.
//!
//! # Allocation discipline (see `benches/hotpaths.rs` for the regression
//! gates)
//!
//! Enumeration visits every pair of fanin cuts per node — up to
//! `max_cuts²` merges — and most candidates die before they cost anything.
//! The hot loop never allocates per candidate:
//!
//! * fanin cut sets are **borrowed** from the table being built (the old
//!   implementation cloned the entire `Vec<Cut>` per fanin per node);
//! * merged leaf sets live in one reusable per-node **arena**, truth tables
//!   are derived lazily for survivors only, and [`Cut`] stores its ≤ 6
//!   leaves **inline** ([`CutLeaves`]) so neither candidates nor kept cuts
//!   ever touch the heap;
//! * the whole [`CutSet`] is one flat cut table with per-cell spans (CSR)
//!   instead of a `Vec<Vec<Cut>>`, reserved up front;
//! * every cut carries a 256-bit **leaf signature** ([`sfq_tt::Sig256`] —
//!   four `u64` lanes, one hashed bit per leaf, all ops autovectorizable
//!   lane-wise code). Signatures drive three rejections: the
//!   **reconvergence-aware prefilter** (`popcount(sig(a) | sig(b)) >
//!   max_leaves` proves the union cannot fit the budget, killing the large
//!   majority of merge attempts on one wide popcount — only reconvergent
//!   pairs, whose shared leaves share bits, survive to a real merge), the
//!   dominance scan's subset prefilter (`k ⊆ c` requires
//!   `sig(k) ⊆ sig(c)` as bit sets), and the cheap half of candidate
//!   dedup. The 256-bit index refines the retired 64-bit one
//!   (`index mod 64` is unchanged), so the wide prefilter provably rejects
//!   a superset of what the one-word version rejected while staying sound
//!   (see the `sig256` proptests in `src/tests.rs`);
//! * candidates carry their leaves **packed into two `u128` words**, so
//!   push-time dedup is word equality and the `(size, lexicographic)`
//!   ranking is an unstable integer-key sort (valid because dedup leaves no
//!   ties);
//! * `merge_leaves_into` records which union positions came from which
//!   fanin, so survivor functions are derived by mask-driven block
//!   duplication (`insert_var`) with no leaf comparisons or per-row bit
//!   gathering.
//!
//! The enumeration order, budget semantics and resulting cut sets are
//! bit-identical to the straightforward implementation (asserted by the
//! netlist test suite's cut soundness properties and by
//! `tests/differential_mapping.rs`, which also A/Bs the
//! work-stealing frontier driver ([`enumerate_cuts_frontier`]) against
//! [`enumerate_cuts_sequential`]).
//!
//! Measured effect (criterion medians, one dev machine; trajectory in
//! `BENCH_flow.json` at the repo root): PR 1 took `enumerate_cuts/adder32`
//! 107 µs → 40 µs and `enumerate_cuts/multiplier12` 1.32 ms → 0.58 ms; the
//! ISSUE 3 prefilter/dedup/packed-key pass took `multiplier12` on to
//! 297 µs (1.9×) and paper-scale `enumerate_cuts/log2` 30.3 ms → 16.9 ms
//! (1.8×).

use crate::cell::CellKind;
use crate::network::{CellId, Network, Signal};
use sfq_tt::{Sig256, TruthTable};

/// The sorted leaf signals of a [`Cut`], stored inline (cut enumeration is
/// capped at [`TruthTable::MAX_VARS`] = 6 leaves, so a fixed array always
/// fits). Dereferences to `&[Signal]`, so call sites read it like the
/// `Vec<Signal>` it replaces.
#[derive(Clone, Copy)]
pub struct CutLeaves {
    len: u8,
    buf: [Signal; TruthTable::MAX_VARS],
}

impl CutLeaves {
    /// Builds from a sorted slice of at most 6 leaves.
    ///
    /// # Panics
    /// Panics if `leaves.len() > 6`.
    pub fn from_slice(leaves: &[Signal]) -> Self {
        let filler = Signal {
            cell: CellId(u32::MAX),
            port: 0,
        };
        let mut buf = [filler; TruthTable::MAX_VARS];
        buf[..leaves.len()].copy_from_slice(leaves);
        CutLeaves {
            len: leaves.len() as u8,
            buf,
        }
    }

    /// The leaves as a slice.
    pub fn as_slice(&self) -> &[Signal] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for CutLeaves {
    type Target = [Signal];
    fn deref(&self) -> &[Signal] {
        self.as_slice()
    }
}

impl std::fmt::Debug for CutLeaves {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for CutLeaves {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CutLeaves {}

impl PartialEq<Vec<Signal>> for CutLeaves {
    fn eq(&self, other: &Vec<Signal>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Signal]> for CutLeaves {
    fn eq(&self, other: &[Signal]) -> bool {
        self.as_slice() == other
    }
}

impl<'a> IntoIterator for &'a CutLeaves {
    type Item = &'a Signal;
    type IntoIter = std::slice::Iter<'a, Signal>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A cut: a set of leaf signals dominating a root pin, with the root's
/// function over those leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Sorted leaf signals.
    pub leaves: CutLeaves,
    /// Function of the root over `leaves` (variable `i` = `leaves[i]`).
    pub tt: TruthTable,
}

impl Cut {
    fn trivial(sig: Signal) -> Self {
        Cut {
            leaves: CutLeaves::from_slice(&[sig]),
            tt: TruthTable::var(1, 0),
        }
    }

    /// True if `self`'s leaves are a subset of `other`'s (i.e. `self`
    /// dominates `other`).
    pub fn dominates(&self, other: &Cut) -> bool {
        self.leaves.len() <= other.leaves.len()
            && self
                .leaves
                .iter()
                .all(|l| other.leaves.binary_search(l).is_ok())
    }
}

/// Parameters for cut enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CutConfig {
    /// Maximum number of leaves per cut.
    pub max_leaves: usize,
    /// Maximum number of cuts kept per node (the trivial cut is extra).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            max_leaves: 3,
            max_cuts: 24,
        }
    }
}

/// The cut sets of every cell's port-0 pin.
///
/// One flat cut table plus a `(start, len)` span per cell — two allocations
/// for the whole network instead of one `Vec<Cut>` per cell.
#[derive(Debug, Clone)]
pub struct CutSet {
    cuts: Vec<Cut>,
    spans: Vec<(u32, u32)>,
}

impl CutSet {
    /// Cuts of a cell's port-0 pin (the trivial cut is first).
    pub fn of(&self, id: CellId) -> &[Cut] {
        let (start, len) = self.spans[id.0 as usize];
        &self.cuts[start as usize..(start + len) as usize]
    }

    /// Total number of cuts stored.
    pub fn total(&self) -> usize {
        self.cuts.len()
    }
}

/// Hash of a leaf pin feeding the signature bit index — the splitmix64
/// finalizer over the packed pin id. [`leaf_sig`] keeps the low 8 bits;
/// the retired one-word signature kept the low 6, so the 256-bit bit index
/// refines the 64-bit one (`index mod 64` is unchanged) — the property
/// that makes the wide prefilter reject a per-instance superset of what
/// the narrow one rejected (pinned by the `sig256` proptests).
#[inline]
pub(crate) fn leaf_hash(s: Signal) -> u64 {
    let mut x = (u64::from(s.cell.0) << 8) | u64::from(s.port);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One hashed bit per leaf: the Bloom-style 256-bit signature used for
/// O(1) subset prefiltering. Union signatures compose by OR; four `u64`
/// lanes are probed per signature operation ([`Sig256`]).
#[inline]
fn leaf_sig(s: Signal) -> Sig256 {
    Sig256::bit(leaf_hash(s))
}

/// `a ⊆ b` over sorted leaf slices (two-pointer sweep).
#[inline]
fn is_subset(a: &[Signal], b: &[Signal]) -> bool {
    let mut i = 0;
    for &x in b {
        if i < a.len() && a[i] == x {
            i += 1;
        }
    }
    i == a.len()
}

/// Inserts a fresh don't-care variable at position `j` of an `m`-variable
/// output column: every aligned block of `2^j` rows is duplicated, shifting
/// the upper variables one position up. `O(2^(m-j))` word operations instead
/// of a row-by-row rebuild.
#[inline]
fn insert_var(bits: u64, m: usize, j: usize) -> u64 {
    let blk = 1usize << j;
    if blk >= 64 {
        unreachable!("inserting into a 6-variable table would need 128 rows");
    }
    let mask = (1u64 << blk) - 1;
    let mut out = 0u64;
    let mut src = 0usize;
    let mut dst = 0usize;
    while src < (1usize << m) {
        let chunk = (bits >> src) & mask;
        out |= (chunk | (chunk << blk)) << dst;
        src += blk;
        dst += 2 * blk;
    }
    out
}

/// Re-expresses `tt` (over the leaves selected by `mask` out of an `n`-leaf
/// union) on the full union: inserts a don't-care variable at every union
/// position whose `mask` bit is clear. The mask comes from
/// [`merge_leaves_into`], so no leaf comparisons happen here at all.
fn expand_masked(tt: &TruthTable, mask: u8, n: usize) -> TruthTable {
    if mask == (1u8 << n) - 1 {
        return *tt; // every union position is an own leaf — identity
    }
    let mut bits = tt.bits();
    let mut m = tt.num_vars();
    for j in 0..n {
        if mask >> j & 1 == 0 {
            bits = insert_var(bits, m, j);
            m += 1;
        }
    }
    debug_assert_eq!(m, n, "mask popcount must match tt arity");
    TruthTable::from_bits_truncated(n, bits)
}

/// Merges two sorted leaf sets into the arena tail; `None` (arena restored)
/// when the union exceeds `max` leaves. Returns the arena start offset plus
/// two position masks: bit `p` of `amask` (`bmask`) is set when union
/// position `p` holds a leaf of `a` (`b`). The masks let [`expand_masked`]
/// re-express the fanin functions over the union without ever comparing
/// leaf signals again.
fn merge_leaves_into(
    a: &[Signal],
    b: &[Signal],
    max: usize,
    arena: &mut Vec<Signal>,
) -> Option<(usize, u8, u8)> {
    let start = arena.len();
    let (mut i, mut j) = (0, 0);
    let (mut amask, mut bmask) = (0u8, 0u8);
    while i < a.len() || j < b.len() {
        let p = arena.len() - start;
        let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            if j < b.len() && a[i] == b[j] {
                j += 1;
                bmask |= 1 << p;
            }
            amask |= 1 << p;
            let v = a[i];
            i += 1;
            v
        } else {
            bmask |= 1 << p;
            let v = b[j];
            j += 1;
            v
        };
        arena.push(next);
        if arena.len() - start > max {
            arena.truncate(start);
            return None;
        }
    }
    Some((start, amask, bmask))
}

/// A candidate cut during one node's enumeration: leaves in the shared
/// arena, signature, and the originating fanin cut indices. The root
/// function is **not** computed here — ranking and dominance pruning only
/// look at leaves, and the two `expand` calls per candidate are the single
/// largest cost of enumeration, so truth tables are derived lazily for the
/// ≤ `max_cuts` survivors only (a cut's function over a fixed leaf set is
/// unique, so deferral cannot change any result).
struct Candidate {
    start: u32,
    len: u32,
    sig: Sig256,
    /// Packed leaf words (see [`pack_leaves`]): `(len, key)` is the ranking
    /// order and `key` equality is leaf-set equality.
    key: (u128, u128),
    /// Index into the first fanin's cut set.
    ai: u32,
    /// Index into the second fanin's cut set (unused for arity-1 gates).
    bi: u32,
    /// Union positions holding a leaf of cut `ai` (see [`merge_leaves_into`]).
    amask: u8,
    /// Union positions holding a leaf of cut `bi`.
    bmask: u8,
}

/// Packs a sorted leaf slice into two `u128` words (up to three 40-bit
/// packed pin ids per word) whose numeric order equals lexicographic order
/// on the slice *within one length class*. Together with the leaf count this
/// is a total order over candidate cuts, so ranking needs no slice
/// comparisons and dedup is exact word equality.
#[inline]
fn pack_leaves(leaves: &[Signal]) -> (u128, u128) {
    #[inline]
    fn pack3(leaves: &[Signal]) -> u128 {
        let mut key = 0u128;
        for l in leaves {
            key = (key << 40) | u128::from((u64::from(l.cell.0) << 8) | u64::from(l.port));
        }
        key
    }
    let (head, tail) = leaves.split_at(leaves.len().min(3));
    (pack3(head), pack3(tail))
}

impl Candidate {
    #[inline]
    fn leaves<'a>(&self, arena: &'a [Signal]) -> &'a [Signal] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Enumerates cuts for every cell of `net` (port-0 pins).
///
/// # Panics
/// Panics if the network is cyclic or `config.max_leaves > 6`.
pub fn enumerate_cuts(net: &Network, config: &CutConfig) -> CutSet {
    let workers = frontier_width(net.num_cells());
    if workers > 1 {
        return enumerate_cuts_frontier(net, config, workers);
    }
    enumerate_cuts_sequential(net, config)
}

/// Smallest network (cells) whose frontier amortizes its thread spawns and
/// scheduler state; smaller networks run the plain loop.
const FRONTIER_GRAIN: usize = 1024;

/// Smallest worker count at which the work-stealing frontier beats
/// [`enumerate_cuts_sequential`]. Its per-node countdowns, shared ready
/// queue and per-node published buffers cost more than the cut work
/// itself: at 2 workers the frontier takes 2.2–2.9× the CPU time of the
/// sequential loop on the paper-scale Table I designs from c6288 to log2
/// (best of 5, 2-vCPU x86 host), so even two free cores finish later than
/// one; spread over three, the same CPU time would beat it.
const FRONTIER_BREAK_EVEN: usize = 3;

/// Width [`enumerate_cuts`] gives the frontier for a `cells`-cell network
/// (`1` = the sequential loop).
pub(crate) fn frontier_width(cells: usize) -> usize {
    crate::par::width(cells, FRONTIER_GRAIN, FRONTIER_BREAK_EVEN)
}

/// The sequential cut enumeration — the executable specification of the
/// work-stealing frontier. [`enumerate_cuts`] dispatches here unless
/// [`crate::par::width`] grants the frontier at least its break-even width
/// (always under `SFQ_WORKERS=1`); the differential tests assert per-node
/// equality of both paths' cut sets.
///
/// # Panics
/// Panics if the network is cyclic or `config.max_leaves > 6`.
pub fn enumerate_cuts_sequential(net: &Network, config: &CutConfig) -> CutSet {
    assert!(
        config.max_leaves <= TruthTable::MAX_VARS,
        "cuts limited to 6 leaves"
    );
    let order = net.topological_order().expect("network must be acyclic");
    // Flat CSR cut table; `sigs` is the per-cut leaf signature, parallel to
    // `cuts` (dropped on return).
    // Reserve for the trivial cut plus a few survivors per node (the
    // all-benchmark average is ~4.6 cuts/node at the default budget), so the
    // 17 MB-scale table of a paper-size run grows without repeated copies.
    let mut cuts: Vec<Cut> = Vec::with_capacity(net.num_cells() * 6);
    let mut sigs: Vec<Sig256> = Vec::with_capacity(net.num_cells() * 6);
    let mut spans: Vec<(u32, u32)> = vec![(0, 0); net.num_cells()];
    let mut scratch = NodeScratch::default();
    for id in order {
        // Cooperative deadline/ceiling check for supervised flows; a no-op
        // (one thread-local read) when no budget is installed.
        crate::budget::tick(1);
        compute_node_cuts(
            net,
            id,
            config,
            |c| {
                let (start, len) = spans[c.0 as usize];
                let r = start as usize..(start + len) as usize;
                (&cuts[r.clone()], &sigs[r])
            },
            &mut scratch,
        );
        spans[id.0 as usize] = (cuts.len() as u32, (scratch.kept.len() + 1) as u32);
        emit_node_cuts(id, &scratch, &mut cuts, &mut sigs);
    }
    CutSet { cuts, spans }
}

/// One finished node's cut set, published for successors to read. `sigs` is
/// parallel to `cuts` (needed by successors' prefilters, dropped at final
/// assembly).
struct NodeOut {
    cuts: Vec<Cut>,
    sigs: Vec<Sig256>,
}

/// Sets the abort flag and wakes every blocked worker when dropped while
/// armed — the unwind path of a panicking frontier worker. Without this a
/// panic (injected fault, budget abort) would leave peers parked on the
/// condvar forever.
struct FrontierAbort<'a> {
    abort: &'a crate::sync::AtomicBool,
    ready: &'a crate::sync::Mutex<Vec<u32>>,
    cv: &'a crate::sync::Condvar,
    armed: bool,
}

impl Drop for FrontierAbort<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.abort.store(true, crate::sync::Ordering::Release);
            // Taking the queue lock before notifying closes the race with a
            // worker that just checked the flag and is about to wait. A
            // poisoned lock is fine — we only need the mutual exclusion.
            let _q = self.ready.lock();
            self.cv.notify_all();
        }
    }
}

/// Work-stealing parallel enumeration: every node
/// carries an atomic countdown of its unfinished fanins; workers claim
/// ready nodes from a shared queue (plus a thread-local depth-first stack
/// for the cache-friendly common case of one successor becoming ready),
/// compute the node against its fanins' **published** cut sets, and
/// decrement their successors. Unlike the retired level-synchronous driver
/// there is no barrier: a narrow level no longer idles workers, because
/// readiness is per-node, not per-level.
///
/// Determinism: a node's cuts depend only on its fanins' stored cut sets
/// and `compute_node_cuts` is shared with the sequential path, so every
/// node's cut set is **bit-identical** to [`enumerate_cuts_sequential`]'s
/// for any worker count or schedule. The final assembly writes the flat
/// table in ascending cell-index order, so even the CSR bytes are
/// schedule-independent.
///
/// # Panics
/// Panics if the network is cyclic or `config.max_leaves > 6`; worker
/// panics (injected faults, budget aborts on the coordinator) are resumed
/// on the calling thread with their original payload.
pub fn enumerate_cuts_frontier(net: &Network, config: &CutConfig, workers: usize) -> CutSet {
    use crate::sync::{AtomicBool, AtomicU32, AtomicUsize, Condvar, Mutex, OnceLock, Ordering};

    assert!(
        config.max_leaves <= TruthTable::MAX_VARS,
        "cuts limited to 6 leaves"
    );
    // Validate acyclicity up front, mirroring the sequential path's panic;
    // the countdown scheduler itself would otherwise just deadlock on a
    // cycle, which is a much worse failure mode.
    net.topological_order().expect("network must be acyclic");
    let n = net.num_cells();

    // Dependency counts and the fanout CSR. One dependency per *gate fanin
    // edge* read through port 0 — non-port-0 pins (T1 ports) only offer
    // synthesized trivial cuts, and non-gate cells read nothing. A cell
    // feeding both inputs of one gate contributes two edges; counts and
    // decrements agree because both derive from the same loop.
    let mut pending_init = vec![0u32; n];
    let mut succ_starts = vec![0u32; n + 1];
    for (i, pending) in pending_init.iter_mut().enumerate() {
        if let CellKind::Gate(_) = net.kind(CellId(i as u32)) {
            for f in net.fanins(CellId(i as u32)) {
                if f.port == 0 {
                    *pending += 1;
                    succ_starts[f.cell.0 as usize + 1] += 1;
                }
            }
        }
    }
    for i in 0..n {
        succ_starts[i + 1] += succ_starts[i];
    }
    let mut cursor: Vec<u32> = succ_starts[..n].to_vec();
    let mut successors = vec![0u32; succ_starts[n] as usize];
    for i in 0..n {
        if let CellKind::Gate(_) = net.kind(CellId(i as u32)) {
            for f in net.fanins(CellId(i as u32)) {
                if f.port == 0 {
                    let p = f.cell.0 as usize;
                    successors[cursor[p] as usize] = i as u32;
                    cursor[p] += 1;
                }
            }
        }
    }

    // Budgets are thread-local (worker ticks would be no-ops), so the
    // coordinator charges the whole network up front — the same unit total
    // the sequential path accumulates, keeping node-ceiling aborts
    // deterministic across builds and worker counts.
    crate::budget::tick(n as u64);

    let initial: Vec<u32> = (0..n as u32)
        .filter(|&i| pending_init[i as usize] == 0)
        .collect();
    let pending: Vec<AtomicU32> = pending_init.into_iter().map(AtomicU32::new).collect();
    let slots: Vec<OnceLock<NodeOut>> = (0..n).map(|_| OnceLock::new()).collect();
    let remaining = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);
    let ready = Mutex::new(initial);
    let cv = Condvar::new();

    // The worker body; the coordinator runs it too (as the only thread with
    // a budget installed, it checkpoints per claimed node so deadlines fire
    // promptly even while peers keep the queue drained).
    let run = |on_coordinator: bool| {
        #[cfg(feature = "fault-injection")]
        crate::faultpt::hit("par.cuts", net.name());
        let mut guard = FrontierAbort {
            abort: &abort,
            ready: &ready,
            cv: &cv,
            armed: true,
        };
        let mut scratch = NodeScratch::default();
        // Local depth-first stack: the first successor a node readies stays
        // on this worker (its fanin's cuts are hot in cache); the rest go to
        // the shared queue.
        let mut local: Vec<u32> = Vec::new();
        loop {
            let node = match local.pop() {
                Some(x) => x,
                None => {
                    let mut q = ready.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if abort.load(Ordering::Acquire) || remaining.load(Ordering::Acquire) == 0 {
                            guard.armed = false;
                            return;
                        }
                        if let Some(x) = q.pop() {
                            break x;
                        }
                        q = cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                }
            };
            if abort.load(Ordering::Acquire) {
                guard.armed = false;
                return;
            }
            if on_coordinator {
                crate::budget::checkpoint();
            }
            let id = CellId(node);
            compute_node_cuts(
                net,
                id,
                config,
                |c| {
                    // Acquire ordering via OnceLock: the publishing store in
                    // `set` happens-before this read, and the scheduler only
                    // readies a node after all its fanins published.
                    let out = slots[c.0 as usize]
                        .get()
                        .expect("fanin cut set must be published before its reader runs");
                    (out.cuts.as_slice(), out.sigs.as_slice())
                },
                &mut scratch,
            );
            let mut out = NodeOut {
                cuts: Vec::with_capacity(scratch.kept.len() + 1),
                sigs: Vec::with_capacity(scratch.kept.len() + 1),
            };
            emit_node_cuts(id, &scratch, &mut out.cuts, &mut out.sigs);
            assert!(
                slots[node as usize].set(out).is_ok(),
                "each node is claimed exactly once"
            );
            // Countdown the successors; whoever decrements a count to zero
            // owns waking that node.
            let succs = &successors
                [succ_starts[node as usize] as usize..succ_starts[node as usize + 1] as usize];
            let mut keep: Option<u32> = None;
            let mut share: Vec<u32> = Vec::new();
            for &s in succs {
                if pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if keep.is_none() && local.is_empty() {
                        keep = Some(s);
                    } else {
                        share.push(s);
                    }
                }
            }
            if let Some(s) = keep {
                local.push(s);
            }
            if !share.is_empty() {
                let mut q = ready.lock().unwrap_or_else(|e| e.into_inner());
                q.extend_from_slice(&share);
                drop(q);
                cv.notify_all();
            }
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last node: release every parked worker. Lock-then-notify
                // for the same race-closing reason as in `FrontierAbort`.
                let _q = ready.lock().unwrap_or_else(|e| e.into_inner());
                cv.notify_all();
            }
        }
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers.min(n))
            .map(|_| crate::sync::spawn_scoped(scope, || run(false)))
            .collect();
        run(true);
        for h in handles {
            // Preserve a worker's panic payload (e.g. an injected fault)
            // for the supervision layer instead of masking it with a join
            // message.
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });

    // Assemble the flat CSR in ascending cell-index order — byte-identical
    // for every schedule and worker count.
    let mut cuts: Vec<Cut> = Vec::with_capacity(n * 6);
    let mut spans: Vec<(u32, u32)> = vec![(0, 0); n];
    for (i, slot) in slots.into_iter().enumerate() {
        let out = slot
            .into_inner()
            .expect("every node completes before the scope joins");
        spans[i] = (cuts.len() as u32, out.cuts.len() as u32);
        cuts.extend_from_slice(&out.cuts);
    }
    CutSet { cuts, spans }
}

/// Reusable per-node scratch of [`compute_node_cuts`]: the leaf arena, the
/// candidate list, the sort permutation, the surviving-candidate list and
/// the survivors' derived functions. One scratch serves any number of nodes
/// (and, on the frontier, one scratch serves each worker).
#[derive(Default)]
struct NodeScratch {
    arena: Vec<Signal>,
    cand: Vec<Candidate>,
    by_rank: Vec<u32>,
    kept: Vec<u32>,
    tts: Vec<TruthTable>,
}

/// Enumerates, prunes and derives the non-trivial cuts of one node into
/// `scratch`, reading stored fanin cut sets through `lookup` (cell id →
/// that cell's published `(cuts, sigs)` slices). The sequential driver's
/// lookup indexes its in-progress CSR table; the frontier driver's reads a
/// fanin's `OnceLock` slot. Holds **no** borrows on return, so the caller
/// can append the results to the very table the lookup reads from. Results
/// depend only on the fanins' stored cut sets, never on where this node's
/// output lands.
fn compute_node_cuts<'a>(
    net: &Network,
    id: CellId,
    config: &CutConfig,
    lookup: impl Fn(CellId) -> (&'a [Cut], &'a [Sig256]),
    scratch: &mut NodeScratch,
) {
    let NodeScratch {
        arena,
        cand,
        by_rank,
        kept,
        tts,
    } = scratch;
    arena.clear();
    cand.clear();
    kept.clear();
    tts.clear();
    let CellKind::Gate(g) = net.kind(id) else {
        return; // non-gate pins only offer the trivial cut
    };
    let sig0 = Signal::from_cell(id);
    let fanins = net.fanins(id);
    // A fanin pin other than port 0 (a T1 port) only offers its own
    // trivial cut — enumeration never crosses multi-output cells.
    // `hold_*` keep those synthesized trivial cuts alive while the
    // common path borrows stored cut sets without cloning them.
    let hold_a;
    let hold_b;
    let (ca, sa): (&[Cut], &[Sig256]) = if fanins[0].port == 0 {
        lookup(fanins[0].cell)
    } else {
        hold_a = (Cut::trivial(fanins[0]), leaf_sig(fanins[0]));
        (
            std::slice::from_ref(&hold_a.0),
            std::slice::from_ref(&hold_a.1),
        )
    };
    // `cb_all` stays in scope for lazy materialization below.
    let mut cb_all: &[Cut] = &[];
    if g.arity() == 1 {
        for (ai, (c, &csig)) in ca.iter().zip(sa).enumerate() {
            let start = arena.len();
            arena.extend_from_slice(&c.leaves);
            cand.push(Candidate {
                start: start as u32,
                len: c.leaves.len() as u32,
                sig: csig,
                key: pack_leaves(&c.leaves),
                ai: ai as u32,
                bi: u32::MAX,
                amask: 0,
                bmask: 0,
            });
        }
    } else {
        let (cb, sb): (&[Cut], &[Sig256]) = if fanins[1].port == 0 {
            lookup(fanins[1].cell)
        } else {
            hold_b = (Cut::trivial(fanins[1]), leaf_sig(fanins[1]));
            (
                std::slice::from_ref(&hold_b.0),
                std::slice::from_ref(&hold_b.1),
            )
        };
        cb_all = cb;
        for ai in 0..ca.len() {
            let asig = sa[ai];
            for bi in 0..cb.len() {
                // Reconvergence-aware prefilter: every leaf sets one
                // signature bit, so the union's popcount is a lower
                // bound on the union's size. Merges that cannot fit
                // the leaf budget die on one popcount over the
                // signature arrays — no cut data is touched at all;
                // reconvergent merges (shared leaves → shared bits)
                // pass and are enumerated for real.
                let usig = asig | sb[bi];
                if usig.count_ones() as usize > config.max_leaves {
                    continue;
                }
                let Some((start, amask, bmask)) =
                    merge_leaves_into(&ca[ai].leaves, &cb[bi].leaves, config.max_leaves, arena)
                else {
                    continue;
                };
                let len = (arena.len() - start) as u32;
                let key = pack_leaves(&arena[start..]);
                // Exact dedup at push time: reconvergent fanin pairs
                // can produce the same union several times; keeping
                // only the first occurrence (the one the old stable
                // sort + dominance scan would have kept) keeps the
                // ranking sort and the dominance scan on distinct
                // leaf sets.
                if cand.iter().any(|c| c.len == len && c.key == key) {
                    arena.truncate(start);
                    continue;
                }
                cand.push(Candidate {
                    start: start as u32,
                    len,
                    sig: usig,
                    key,
                    ai: ai as u32,
                    bi: bi as u32,
                    amask,
                    bmask,
                });
            }
        }
    }
    // Rank candidates: smaller cuts first, then lexicographic. After
    // dedup all leaf sets are distinct, so `(len, key)` is a strict
    // total order and an unstable index sort is deterministic.
    by_rank.clear();
    by_rank.extend(0..cand.len() as u32);
    by_rank.sort_unstable_by_key(|&x| {
        let c = &cand[x as usize];
        (c.len, c.key)
    });

    // Budgeted dominance pruning (the per-node cut budget `max_cuts`).
    'cand: for &ci in by_rank.iter() {
        if kept.len() >= config.max_cuts {
            break;
        }
        let c = &cand[ci as usize];
        let c_leaves = c.leaves(arena);
        if c_leaves.len() == 1 && c_leaves[0] == sig0 {
            continue; // trivial cut already present
        }
        for &ki in kept.iter() {
            let k = &cand[ki as usize];
            // Signature prefilter: k ⊆ c requires sig(k) ⊆ sig(c).
            if k.sig.is_subset_of(c.sig) && is_subset(k.leaves(arena), c_leaves) {
                continue 'cand;
            }
        }
        kept.push(ci);
    }
    // Derive the survivors’ functions while the fanin cut sets are still
    // borrowed; after this loop the scratch is self-contained.
    for &ki in kept.iter() {
        let k = &cand[ki as usize];
        let tt = if k.bi == u32::MAX {
            apply_gate1(g, &ca[k.ai as usize].tt)
        } else {
            let n = k.len as usize;
            let ta = expand_masked(&ca[k.ai as usize].tt, k.amask, n);
            let tb = expand_masked(&cb_all[k.bi as usize].tt, k.bmask, n);
            apply_gate2(g, &ta, &tb)
        };
        tts.push(tt);
    }
}

/// Appends one node’s cuts (trivial first, then the survivors computed by
/// [`compute_node_cuts`]) to a cut/signature table.
fn emit_node_cuts(id: CellId, scratch: &NodeScratch, cuts: &mut Vec<Cut>, sigs: &mut Vec<Sig256>) {
    let sig0 = Signal::from_cell(id);
    cuts.push(Cut::trivial(sig0));
    sigs.push(leaf_sig(sig0));
    for (&ki, &tt) in scratch.kept.iter().zip(&scratch.tts) {
        let k = &scratch.cand[ki as usize];
        cuts.push(Cut {
            leaves: CutLeaves::from_slice(k.leaves(&scratch.arena)),
            tt,
        });
        sigs.push(k.sig);
    }
}

fn apply_gate1(g: crate::cell::GateKind, a: &TruthTable) -> TruthTable {
    match g {
        crate::cell::GateKind::Inv => !*a,
        crate::cell::GateKind::Buf => *a,
        _ => unreachable!("arity-1 path only for INV/BUF"),
    }
}

fn apply_gate2(g: crate::cell::GateKind, a: &TruthTable, b: &TruthTable) -> TruthTable {
    use crate::cell::GateKind::*;
    match g {
        And2 => *a & *b,
        Or2 => *a | *b,
        Xor2 => *a ^ *b,
        Nand2 => !(*a & *b),
        Nor2 => !(*a | *b),
        Xnor2 => !(*a ^ *b),
        Inv | Buf => unreachable!("arity-2 path only for binary gates"),
    }
}
