//! Three-leaf cut enumeration on mapped networks.
//!
//! Implements the classic bottom-up cut enumeration with dominance pruning
//! and a per-node cut budget (priority cuts, Cong et al. — ref. \[8\] in
//! the paper). T1 detection matches XOR3/MAJ3/OR3 on cuts of at most three
//! leaves, so that is the only size enumerated; the technology mapper uses
//! its own 2-feasible variant on AIGs.
//!
//! Cut leaves are [`Signal`]s, so the enumeration is oblivious to whether a
//! leaf is a primary input, a gate output, or a T1 port. Cells that are not
//! plain gates (T1 macro-cells, DFFs) act as enumeration *boundaries*: their
//! pins only offer trivial cuts, so no cut crosses through them.
//!
//! # Data layout (see `benches/hotpaths.rs` for the regression gates)
//!
//! A [`Cut`] is 24 bytes and never touches the heap:
//!
//! * its sorted leaves are three 40-bit pin ids (`cell << 8 | port`) packed
//!   into one 120-bit key, first leaf highest — the packing T1 detection's
//!   group key extends by a polarity mask — with the leaf count above them,
//!   so `(leaf count, lexicographic leaves)` ranking is one `u128` compare
//!   and equal ranks mean equal leaf sets;
//! * its function is an 8-row table over three variables, variables at or
//!   above the leaf count being don't-cares. Gate functions apply bytewise,
//!   and a fanin table moves onto the union's leaf positions by one lookup
//!   in a 2 KiB remap table indexed by the positions it occupies;
//! * a 56-bit leaf signature holds one hashed bit per leaf. A merge whose
//!   union signature has more than three bits set cannot fit three leaves
//!   and dies on one popcount, before any leaf is unpacked; dominance checks
//!   `sig(k) ⊆ sig(c)` before comparing pins. Both tests are prefilters, so
//!   the signature width changes speed, never a result.
//!
//! Per node, the pair loop inserts each surviving union into a candidate
//! list kept sorted by rank (an insertion sort that also drops repeats), the
//! ranked scan keeps at most [`CutConfig::max_cuts`] undominated candidates,
//! and the survivors are appended to one flat table with per-cell spans
//! (CSR). [`for_each_node_cuts`] hands every node's finished list to a
//! visitor as it is appended — T1 detection matches there and never walks a
//! stored [`CutSet`] — and drops the table on return.
//!
//! Enumeration runs on the calling thread at every worker count: a parallel
//! frontier was measured to cost 2.2–2.9× the CPU time of this loop at two
//! workers and was removed. Cut sets are pinned by the netlist test suite's
//! soundness properties and by `tests/cut_fingerprints.rs`.

use crate::cell::{CellKind, GateKind};
use crate::network::{CellId, Network, Signal};
use sfq_tt::TruthTable;

/// Leaves per cut: T1 cells have three inputs.
const MAX_LEAVES: u32 = 3;
/// Bits of one packed pin id (`cell << 8 | port`).
const PIN_BITS: u32 = 40;
const PIN_MASK: u64 = (1 << PIN_BITS) - 1;
/// The leaf count sits in the top byte of `Cut::hi`.
const LEN_SHIFT: u32 = 56;
const HI_KEY_MASK: u64 = (1 << LEN_SHIFT) - 1;
/// A lone variable 0 in the 8-row layout (don't-care in variables 1, 2).
const VAR0: u8 = 0xAA;
/// The signature takes the low 56 bits of `Cut::meta`, the table the top 8.
const SIG_BITS: u64 = 56;
const SIG_MASK: u64 = (1 << SIG_BITS) - 1;

/// A cut: up to three sorted leaf signals dominating a root pin, with the
/// root's function over those leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Low 64 bits of the packed leaf key.
    lo: u64,
    /// Leaf count in the top byte, key bits 64..120 below it.
    hi: u64,
    /// One hashed signature bit per leaf below the function's 8 rows over
    /// three variables (variable `i` = leaf `i`).
    meta: u64,
}

impl Cut {
    fn new(key: u128, len: u32, sig: u64, tt: u8) -> Self {
        Cut {
            lo: key as u64,
            hi: (u64::from(len) << LEN_SHIFT) | (key >> 64) as u64,
            meta: (u64::from(tt) << SIG_BITS) | sig,
        }
    }

    #[inline]
    fn sig(&self) -> u64 {
        self.meta & SIG_MASK
    }

    fn trivial(s: Signal) -> Self {
        Cut::new(u128::from(pin(s)), 1, leaf_sig(pin(s)), VAR0)
    }

    /// `(leaf count, leaves)` as one integer: smaller cuts first, then
    /// lexicographic leaves. Equal ranks are equal leaf sets.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Number of leaves (1 to 3).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        (self.hi >> LEN_SHIFT) as usize
    }

    /// The sorted leaves packed as 40-bit pin ids (`cell << 8 | port`),
    /// first leaf in the highest position: numeric order on keys of one
    /// leaf count is lexicographic order on the leaves.
    #[inline]
    pub fn key(&self) -> u128 {
        (u128::from(self.hi & HI_KEY_MASK) << 64) | u128::from(self.lo)
    }

    /// The leaves, sorted.
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = Signal> {
        let pins = self.pins();
        pins.p.into_iter().skip(3 - pins.n).map(|p| Signal {
            cell: CellId((p >> 8) as u32),
            port: p as u8,
        })
    }

    /// Function of the root over the leaves (variable `i` = leaf `i`).
    pub fn tt(&self) -> TruthTable {
        TruthTable::from_bits_truncated(self.num_leaves(), u64::from(self.tt_bits()))
    }

    /// The function's 8 rows over three variables; for a three-leaf cut
    /// this is exactly [`Cut::tt`]'s bits.
    #[inline]
    pub fn tt_bits(&self) -> u8 {
        (self.meta >> SIG_BITS) as u8
    }

    /// The leaves as sorted pin ids.
    #[inline]
    fn pins(&self) -> Pins {
        let (lo, hi) = (self.lo, self.hi);
        Pins {
            p: [
                (hi >> 16) & PIN_MASK,
                ((lo >> PIN_BITS) | (hi << 24)) & PIN_MASK,
                lo & PIN_MASK,
            ],
            n: self.num_leaves(),
        }
    }
}

/// A cut's sorted leaf pin ids: the last `n` of three key slots.
#[derive(Clone, Copy)]
struct Pins {
    p: [u64; 3],
    n: usize,
}

impl Pins {
    #[inline]
    fn get(&self) -> &[u64] {
        &self.p[3 - self.n..]
    }
}

/// Parameters for cut enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CutConfig {
    /// Maximum number of cuts kept per node (the trivial cut is extra).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { max_cuts: 24 }
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

/// The packed 40-bit pin id of a signal.
#[inline]
fn pin(s: Signal) -> u64 {
    (u64::from(s.cell.0) << 8) | u64::from(s.port)
}

/// The signature bit of a leaf pin: the splitmix64 finalizer over the
/// packed pin id, reduced to one of 56 bits.
#[inline]
fn leaf_sig(p: u64) -> u64 {
    let mut x = p.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    1 << (((x >> 32) * SIG_BITS) >> 32)
}

/// `REMAP[m][f]`: the function `f` of `popcount(m)` variables re-expressed
/// over union positions: its variable `i` moves to the `i`-th set bit of
/// `m`, and every position outside `m` becomes a don't-care.
static REMAP: [[u8; 256]; 8] = remap_table();

const fn remap_table() -> [[u8; 256]; 8] {
    let mut t = [[0u8; 256]; 8];
    let mut m = 0;
    while m < 8 {
        let mut f = 0;
        while f < 256 {
            let mut g = 0u8;
            let mut row = 0;
            while row < 8 {
                // Gather the row's bits at the positions of `m`.
                let (mut src, mut k, mut p) = (0, 0, 0);
                while p < 3 {
                    if m >> p & 1 == 1 {
                        src |= (row >> p & 1) << k;
                        k += 1;
                    }
                    p += 1;
                }
                g |= ((f >> src & 1) as u8) << row;
                row += 1;
            }
            t[m][f] = g;
            f += 1;
        }
        m += 1;
    }
    t
}

/// Merges two sorted leaf lists. Returns the union's packed key and size,
/// plus which union positions hold a leaf of `a` and of `b`, or `None` when
/// the union has more than three leaves.
#[inline]
fn merge(a: &[u64], b: &[u64]) -> Option<(u128, u32, usize, usize)> {
    let (mut i, mut j, mut n) = (0, 0, 0u32);
    let (mut key, mut amask, mut bmask) = (0u128, 0usize, 0usize);
    while i < a.len() || j < b.len() {
        if n == MAX_LEAVES {
            return None;
        }
        let next = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            if j < b.len() && a[i] == b[j] {
                bmask |= 1 << n;
                j += 1;
            }
            amask |= 1 << n;
            i += 1;
            a[i - 1]
        } else {
            bmask |= 1 << n;
            j += 1;
            b[j - 1]
        };
        key = (key << PIN_BITS) | u128::from(next);
        n += 1;
    }
    Some((key, n, amask, bmask))
}

/// `k ⊆ c` over sorted pin lists.
#[inline]
fn is_subset(k: &[u64], c: &[u64]) -> bool {
    k.iter().all(|p| c.contains(p))
}

/// Enumerates cuts for every cell of `net` (port-0 pins).
///
/// # Panics
/// Panics if the network is cyclic.
pub fn enumerate_cuts(net: &Network, config: &CutConfig) -> CutSet {
    enumerate(net, config, |_, _| {})
}

/// Enumerates cuts like [`enumerate_cuts`], handing each cell's finished
/// cut list (trivial cut first) to `visit` as soon as it is made, in a
/// topological order, and dropping the table on return.
///
/// # Panics
/// Panics if the network is cyclic.
pub fn for_each_node_cuts(net: &Network, config: &CutConfig, visit: impl FnMut(CellId, &[Cut])) {
    enumerate(net, config, visit);
}

fn enumerate(net: &Network, config: &CutConfig, mut visit: impl FnMut(CellId, &[Cut])) -> CutSet {
    // Reserve for the trivial cut plus a few survivors per node (the
    // all-benchmark average is ~4.6 cuts per node at the default budget).
    let mut cuts: Vec<Cut> = Vec::with_capacity(net.num_cells() * 6);
    let mut spans: Vec<(u32, u32)> = vec![(0, 0); net.num_cells()];
    let mut scratch = NodeScratch::default();
    net.visit_topological(|i| {
        // Cooperative deadline/ceiling check for supervised flows; a no-op
        // (one thread-local read) when no budget is installed.
        crate::budget::tick(1);
        let id = CellId(i as u32);
        node_cuts(net, id, config, &cuts, &spans, &mut scratch);
        let start = cuts.len();
        cuts.push(Cut::trivial(Signal::from_cell(id)));
        cuts.extend_from_slice(&scratch.kept);
        spans[i] = (start as u32, (cuts.len() - start) as u32);
        visit(id, &cuts[start..]);
    });
    CutSet { cuts, spans }
}

/// Reusable per-node scratch of [`node_cuts`]: the prefilter's passing
/// pairs, the rank-sorted candidate list and the kept cuts.
#[derive(Default)]
struct NodeScratch {
    pass: Vec<u32>,
    cand: Vec<Cut>,
    kept: Vec<Cut>,
}

/// Enumerates, ranks and prunes the non-trivial cuts of one node into
/// `scratch.kept`, reading fanin cut lists from the in-progress table.
fn node_cuts(
    net: &Network,
    id: CellId,
    config: &CutConfig,
    cuts: &[Cut],
    spans: &[(u32, u32)],
    scratch: &mut NodeScratch,
) {
    let NodeScratch { pass, cand, kept } = scratch;
    cand.clear();
    kept.clear();
    let CellKind::Gate(g) = net.kind(id) else {
        return; // non-gate pins only offer the trivial cut
    };
    // A fanin pin other than port 0 (a T1 port) only offers its own
    // trivial cut — enumeration never crosses multi-output cells.
    let fanins = net.fanins(id);
    let hold = [0, 1].map(|k| match fanins.get(k) {
        Some(&s) if s.port != 0 => Cut::trivial(s),
        _ => Cut::new(0, 0, 0, 0),
    });
    let cut_list = |k: usize| -> &[Cut] {
        if fanins[k].port == 0 {
            let (start, len) = spans[fanins[k].cell.0 as usize];
            &cuts[start as usize..(start + len) as usize]
        } else {
            std::slice::from_ref(&hold[k])
        }
    };
    // Insertion sort by rank as candidates arrive, dropping repeats:
    // reconvergent fanin pairs produce some unions several times, and a
    // cut's function over a fixed leaf set is unique, so any copy will do.
    let mut insert = |c: Cut| {
        let r = c.rank();
        let mut i = cand.len();
        while i > 0 && cand[i - 1].rank() > r {
            i -= 1;
        }
        if i == 0 || cand[i - 1].rank() != r {
            cand.insert(i, c);
        }
    };
    let ca = cut_list(0);
    if g.arity() == 1 {
        let inv = if g == GateKind::Inv { !SIG_MASK } else { 0 };
        for &c in ca {
            insert(Cut {
                meta: c.meta ^ inv,
                ..c
            });
        }
    } else {
        let cb = cut_list(1);
        pass.resize(cb.len(), 0);
        for a in ca {
            // Each leaf sets one signature bit, so a union's popcount bounds
            // its size from below. The pairs that pass are listed without a
            // branch: most fail, in no predictable pattern.
            let mut np = 0;
            for (j, b) in cb.iter().enumerate() {
                pass[np] = j as u32;
                np += usize::from((a.sig() | b.sig()).count_ones() <= MAX_LEAVES);
            }
            if np == 0 {
                continue;
            }
            let ap = a.pins();
            for &j in &pass[..np] {
                let b = &cb[j as usize];
                let sig = a.sig() | b.sig();
                let Some((key, n, amask, bmask)) = merge(ap.get(), b.pins().get()) else {
                    continue;
                };
                let ta = REMAP[amask][a.tt_bits() as usize];
                let tb = REMAP[bmask][b.tt_bits() as usize];
                insert(Cut::new(key, n, sig, apply_gate2(g, ta, tb)));
            }
        }
    }

    // Budgeted dominance pruning over the ranked candidates.
    let self_pin = u128::from(pin(Signal::from_cell(id)));
    'cand: for c in cand.iter() {
        if kept.len() >= config.max_cuts {
            break;
        }
        if c.num_leaves() == 1 && c.key() == self_pin {
            continue; // trivial cut already present
        }
        // Only a smaller cut can be a proper subset; kept cuts are
        // rank-sorted, so those form a prefix.
        let n = c.num_leaves();
        for k in kept.iter().take_while(|k| k.num_leaves() < n) {
            if k.sig() & !c.sig() == 0 && is_subset(k.pins().get(), c.pins().get()) {
                continue 'cand;
            }
        }
        kept.push(*c);
    }
}

fn apply_gate2(g: GateKind, a: u8, b: u8) -> u8 {
    match g {
        GateKind::And2 => a & b,
        GateKind::Or2 => a | b,
        GateKind::Xor2 => a ^ b,
        GateKind::Nand2 => !(a & b),
        GateKind::Nor2 => !(a | b),
        GateKind::Xnor2 => !(a ^ b),
        GateKind::Inv | GateKind::Buf => unreachable!("arity-2 path only for binary gates"),
    }
}
