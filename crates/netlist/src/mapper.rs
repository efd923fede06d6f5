//! Cut-based technology mapping from AIGs to the SFQ gate library.
//!
//! This reproduces the "conventional" mockturtle mapping step that precedes
//! T1 detection in the paper's flow: every benchmark enters as an AIG and is
//! covered with clocked SFQ cells (`INV`, `AND2`, `OR2`, `XOR2`, `NAND2`,
//! `NOR2`, `XNOR2`). The mapper runs a dynamic program over 2-feasible cuts
//! with area-flow costs (leaf cost divided by fanout), then extracts a cover
//! with memoized materialization so shared logic is built once.
//!
//! Two disciplines matter for the downstream T1 detection:
//!
//! * **One cell per node** — like mockturtle, every AIG node materializes at
//!   most one logic cell. A node demanded only in complemented form gets the
//!   complement gate directly (`NAND2` for `¬AND2`, `XOR2` for `¬XNOR2` —
//!   the library is closed under complement at equal cost); a node demanded
//!   in both polarities gets its positive cell plus one shared `INV`.
//!   Duplicating a node as *two* gate cells (an `AND2` and a `NAND2` over
//!   the same fanins) looks cheap locally but erases the shared cut
//!   boundaries that make a full adder's XOR3/MAJ3 pair detectable as one
//!   T1 group.
//! * **XOR/XNOR recognition** — the three-AND strashed XOR pattern is
//!   matched through cut truth tables, which keeps mapped adders XOR-rich.
//!
//! Constant outputs (a squarer's bit 1 is always 0, for instance) have no
//! SFQ generator cell; they are materialized as real logic over input 0
//! (`AND(x, ¬x)` / `OR(x, ¬x)`), exactly like path-balanced constants in an
//! SFQ netlist would be.
//!
//! # Data layout (see `benches/hotpaths.rs` for the regression gates)
//!
//! The mapper is one compact pass over the AIG, then a cover walk. The
//! original implementation survives verbatim as
//! [`crate::mapper_reference::map_aig_reference`], and the differential
//! harness asserts the two produce bit-identical networks:
//!
//! * **A cut is 12 bytes** (`Cut`): two `u32` leaf node ids, sorted, the
//!   second `NO_LEAF` for a 1-leaf cut, plus the node's function as a 4-row
//!   table byte. A 1-leaf function reads row bit 0, so it needs re-laying
//!   only when its leaf becomes the second leaf of a pair. All cuts live in
//!   one CSR table (`first[v]..first[v + 1]` per node), and a complemented
//!   fanin edge flips the borrowed table (`^ 0xF`) instead of copying the
//!   fanin's cut set. A leaf pair is its own dedup key, checked before the
//!   candidate's table is derived.
//! * **The area-flow DP runs inside cut enumeration.** Each new 2-leaf cut
//!   is matched as it is pushed, in the order the reference scans the
//!   finished set, through a fixed 16-entry table of `(gate, input-flip
//!   mask)` pairs per function. Leaf costs come from one `f64` per node,
//!   `cost / fanout`: the same operands, divided and summed in the same
//!   order as the reference, so ties break identically.
//! * **A match is 12 bytes** (`Match`: two leaves, the gate, the flip
//!   mask). The cut table and the per-node cost and fanout arrays are
//!   dropped before the cover walk, which keeps only the matches, the
//!   polarity demand and one `[u32; 3]` memo per node (positive cell,
//!   shared INV, complement gate).
//! * **The output network is allocated once**: the demand pass fixes the
//!   exact cell count (one cell per demanded polarity of an AND node, an
//!   INV per complemented input, the constant gates), so the cell vector
//!   never grows by doubling.
//!
//! Measured effect against the previous layout (a `Vec` per function in the
//! match table, a separate DP pass storing each match with its `f64` cost,
//! three `Option<Signal>` memo tables, an output grown by doubling): criterion
//! medians on a 2-vCPU x86-64 host, median of three alternating runs,
//! `map_aig/log2` 13.7 → 5.0 ms (2.8×), `map_aig/multiplier12`
//! 151 → 76 µs, `map_aig/adder32` 29.2 → 19.6 µs. In the paper flows the
//! mapped network is dropped once it is cleaned (`sfq_core::run_flow`).

use crate::aig::{Aig, AigLit, AigNodeId};
use crate::cell::{GateKind, Library};
use crate::network::{CellId, Network, Signal};
use sfq_tt::TruthTable;

/// Filler for the unused second leaf of a 1-leaf cut. Real node ids are
/// always smaller (an AIG with `u32::MAX` nodes cannot be built), so it
/// sorts after every leaf and a leaf pair compares as one key.
const NO_LEAF: u32 = u32::MAX;

/// A memo slot whose cell is not built yet.
const NO_CELL: u32 = u32::MAX;

/// The 4-row table of leaf 0 (row `r` reads leaf 0 at bit 0 of `r`,
/// leaf 1 at bit 1).
const VAR0: u8 = 0b1010;

/// One ≤ 2-feasible cut, 12 bytes: its sorted leaf node ids (the second
/// [`NO_LEAF`] for a 1-leaf cut) and the node's positive function over them
/// as a 4-row table. A 1-leaf function reads leaf 0 only, so it is already
/// laid out for any pair whose first leaf is its leaf.
#[derive(Clone, Copy)]
struct Cut {
    leaves: [u32; 2],
    tt: u8,
}

impl Cut {
    #[inline]
    fn trivial(node: u32) -> Self {
        Cut {
            leaves: [node, NO_LEAF],
            tt: VAR0,
        }
    }
}

/// The chosen realization of one AND node, 12 bytes: a library gate over
/// two positive leaf nodes. Its area-flow cost lives in the DP's per-node
/// `flow` table, which cover extraction never reads.
#[derive(Debug, Clone, Copy)]
struct Match {
    leaves: [u32; 2],
    gate: GateKind,
    /// Bit `i` set ⇒ leaf `i` enters through the shared inverter cell.
    neg_mask: u8,
}

const _: () = assert!(std::mem::size_of::<Cut>() == 12 && std::mem::size_of::<Match>() == 12);

/// Placeholder of the nodes that are not ANDs (never read).
const UNMATCHED: Match = Match {
    leaves: [NO_LEAF; 2],
    gate: GateKind::And2,
    neg_mask: 0,
};

/// All single-output gates considered during covering, with their functions.
pub(crate) fn gate_patterns() -> Vec<(GateKind, TruthTable)> {
    [
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xnor2,
    ]
    .into_iter()
    .map(|g| (g, g.truth_table()))
    .collect()
}

/// For each of the 16 two-variable functions, the `(gate, input-flip mask)`
/// pairs realizing it (`.1` of them), in the reference's (pattern, mask)
/// scan order so cost ties break identically. The XOR and XNOR functions
/// have four realizations each, every other function at most two.
fn match_table() -> [([(GateKind, u8); 4], u8); 16] {
    let mut tbl = [([(GateKind::And2, 0u8); 4], 0u8); 16];
    for (g, gtt) in gate_patterns() {
        for mask in 0u8..4 {
            let (pairs, len) = &mut tbl[gtt.flip_vars(mask).bits() as usize];
            pairs[usize::from(*len)] = (g, mask);
            *len += 1;
        }
    }
    tbl
}

/// Maps an AIG to a [`Network`] over the SFQ gate library.
///
/// # Panics
/// Panics if the AIG has no primary inputs but does have outputs (a
/// constant-only netlist cannot be realized in SFQ cells).
///
/// # Example
///
/// ```
/// use sfq_netlist::{Aig, Library, map_aig};
/// let mut aig = Aig::new("xor");
/// let a = aig.input("a");
/// let b = aig.input("b");
/// let x = aig.xor(a, b);
/// aig.output("x", x);
/// let net = map_aig(&aig, &Library::default());
/// // The 3-AND XOR pattern collapses into a single XOR/XNOR cell pair at
/// // most (one cell plus a possible output inverter).
/// assert!(net.num_gates() <= 2);
/// ```
pub fn map_aig(aig: &Aig, lib: &Library) -> Network {
    let n = aig.num_nodes();

    // ---- fanout refs for area flow -------------------------------------
    let mut refs = vec![0u32; n];
    for id in aig.and_ids() {
        let (a, b) = aig.and_fanins(id);
        refs[a.node().0 as usize] += 1;
        refs[b.node().0 as usize] += 1;
    }
    for o in aig.outputs() {
        refs[o.node().0 as usize] += 1;
    }

    // ---- cuts and the area-flow DP, one pass ------------------------------
    // cuts[first[v]..first[v + 1]] = node v's cut set (trivial cut first).
    // Every new 2-leaf cut of an AND node is matched as it is pushed, in the
    // order the reference scans the finished cut set, so the cheapest match
    // (first wins on ties) is the reference's. flow[v] = cost(v) / fanout(v),
    // the share a cut with leaf v pays for it (0 for inputs): the same f64
    // operands the reference divides inline, so every sum is bit-identical.
    let matches_of = match_table();
    let inv = lib.inv as f64;
    let mut flow = vec![0.0f64; n];
    let mut best = vec![UNMATCHED; n];
    // The paper designs keep 2.0–2.5 cuts per node, so this never regrows
    // on them.
    let mut cuts: Vec<Cut> = Vec::with_capacity(3 * n);
    let mut first: Vec<u32> = Vec::with_capacity(n + 1);
    for raw in 0..n as u32 {
        let start = cuts.len();
        first.push(start as u32);
        let id = AigNodeId(raw);
        if !aig.is_and(id) {
            // An input has its trivial cut only; the constant has none.
            if aig.is_input(id) {
                cuts.push(Cut::trivial(raw));
            }
            continue;
        }
        cuts.push(Cut::trivial(raw));
        let (fa, fb) = aig.and_fanins(id);
        let span = |lit: AigLit| {
            let v = lit.node().0 as usize;
            first[v] as usize..first[v + 1] as usize
        };
        // Entering through a complemented edge complements the borrowed cut
        // function (all four rows, so a 1-leaf table stays a leaf-0 table).
        let flip = |lit: AigLit| if lit.is_complemented() { 0xF } else { 0 };
        let (flip_a, flip_b) = (flip(fa), flip(fb));
        let mut found: Option<(f64, Match)> = None;
        for ai in span(fa) {
            let a = cuts[ai];
            for bi in span(fb) {
                let b = cuts[bi];
                let Some(leaves) = merge_leaves(a.leaves, b.leaves) else {
                    continue;
                };
                if cuts[start..].iter().any(|c| c.leaves == leaves) {
                    continue; // same leaf set ⇒ same function; first wins
                }
                let tt = expand(a.tt ^ flip_a, a.leaves[0], leaves)
                    & expand(b.tt ^ flip_b, b.leaves[0], leaves);
                cuts.push(Cut { leaves, tt });
                if leaves[1] == NO_LEAF {
                    continue; // a 1-leaf cut implements no 2-input gate
                }
                let (pairs, len) = &matches_of[usize::from(tt)];
                for &(gate, neg_mask) in &pairs[..usize::from(*len)] {
                    let mut cost = lib.gate_area(gate) as f64;
                    for (i, &leaf) in leaves.iter().enumerate() {
                        cost += flow[leaf as usize];
                        if neg_mask >> i & 1 == 1 {
                            // Shared inverter, amortized like the leaf.
                            cost += inv / f64::from(refs[leaf as usize].max(1));
                        }
                    }
                    if found.is_none_or(|(c, _)| cost < c) {
                        found = Some((
                            cost,
                            Match {
                                leaves,
                                gate,
                                neg_mask,
                            },
                        ));
                    }
                }
            }
        }
        let (cost, m) = found.expect("every AND node matches AND2 on its fanin cut");
        best[raw as usize] = m;
        flow[raw as usize] = cost / f64::from(refs[raw as usize].max(1));
    }
    drop((cuts, first, flow, refs));

    // ---- polarity demand over the chosen cover ------------------------------
    // demand[node] bits: 1 = positive use, 2 = complemented use.
    let mut demand = vec![0u8; n];
    {
        let mut stack: Vec<(u32, bool)> = aig
            .outputs()
            .iter()
            .filter(|l| !l.is_constant())
            .map(|l| (l.node().0, l.is_complemented()))
            .collect();
        while let Some((node, neg)) = stack.pop() {
            let bit = if neg { 2u8 } else { 1 };
            let d = &mut demand[node as usize];
            if *d & bit != 0 {
                continue;
            }
            *d |= bit;
            // The cover is polarity-oblivious below this node: its cell (of
            // either polarity) reads the same leaf polarities, so leaves
            // already visited through the other polarity are skipped.
            if aig.is_input(AigNodeId(node)) || *d & (bit ^ 3) != 0 {
                continue;
            }
            let m = best[node as usize];
            for (i, &leaf) in m.leaves.iter().enumerate() {
                stack.push((leaf, m.neg_mask >> i & 1 == 1));
            }
        }
    }

    // ---- cover extraction ---------------------------------------------------
    // The cell count follows from demand: an input adds its shared INV when
    // complemented; an AND node one cell per demanded polarity (its gate or
    // complement gate, plus the INV over its gate when both are demanded);
    // each constant value one gate over input 0, which also needs that
    // input's INV.
    let mut cells = aig.num_inputs();
    for (v, &d) in demand.iter().enumerate() {
        cells += if aig.is_input(AigNodeId(v as u32)) {
            usize::from(d >> 1)
        } else {
            d.count_ones() as usize
        };
    }
    let constants = [AigLit::FALSE, AigLit::TRUE]
        .iter()
        .filter(|c| aig.outputs().contains(c))
        .count();
    if constants > 0 {
        let needs_inv = aig
            .inputs()
            .first()
            .is_some_and(|x| demand[x.0 as usize] & 2 == 0);
        cells += constants + usize::from(needs_inv);
    }
    let mut cover = Cover {
        aig,
        best: &best,
        demand: &demand,
        net: Network::with_capacity(aig.name(), cells),
        memo: vec![[NO_CELL; 3]; n],
    };
    for (k, i) in aig.inputs().iter().enumerate() {
        let s = cover.net.add_input(aig.input_name(k).to_string());
        cover.memo[i.0 as usize][POSITIVE] = s.cell.0;
    }
    let mut const_cache: [Option<Signal>; 2] = [None, None];
    for (k, &lit) in aig.outputs().iter().enumerate() {
        let s = if lit.is_constant() {
            cover.constant(lit == AigLit::TRUE, &mut const_cache)
        } else {
            cover.literal(lit)
        };
        cover.net.add_output(aig.output_name(k).to_string(), s);
    }
    cover.net
}

/// Union of two sorted ≤ 2-leaf sets ([`NO_LEAF`]-padded); `None` when it
/// exceeds 2 leaves.
#[inline]
fn merge_leaves(a: [u32; 2], b: [u32; 2]) -> Option<[u32; 2]> {
    let x = a[0].min(b[0]);
    // Each side's smallest leaf above `x` (or the filler).
    let an = if a[0] == x { a[1] } else { a[0] };
    let bn = if b[0] == x { b[1] } else { b[0] };
    let y = an.min(bn);
    let fits = |v: u32| v == x || v == y || v == NO_LEAF;
    (fits(an) && fits(a[1]) && fits(bn) && fits(b[1])).then_some([x, y])
}

/// Re-expresses `tt` (a cut function whose first leaf is `old0`) over the
/// sorted leaf pair `new`, a superset of its leaves. Only a 1-leaf function
/// whose leaf becomes leaf 1 changes: its rows select on bit 1, not bit 0.
#[inline]
fn expand(tt: u8, old0: u32, new: [u32; 2]) -> u8 {
    if old0 == new[1] {
        ((tt & 1) * 0b0011) | ((tt >> 1 & 1) * 0b1100)
    } else {
        tt
    }
}

/// The library gate computing the complement function (same fanins).
pub(crate) fn complement_gate(g: GateKind) -> GateKind {
    match g {
        GateKind::And2 => GateKind::Nand2,
        GateKind::Nand2 => GateKind::And2,
        GateKind::Or2 => GateKind::Nor2,
        GateKind::Nor2 => GateKind::Or2,
        GateKind::Xor2 => GateKind::Xnor2,
        GateKind::Xnor2 => GateKind::Xor2,
        GateKind::Inv => GateKind::Buf,
        GateKind::Buf => GateKind::Inv,
    }
}

/// Memo slots of [`Cover::memo`]: the node's own gate (or input cell),
/// its shared INV, its complement gate.
const POSITIVE: usize = 0;
const INVERTED: usize = 1;
const COMPLEMENT: usize = 2;

/// Memoized cover materialization: one logic cell per AIG node (positive or
/// complement form), plus at most one shared INV when both polarities are
/// demanded.
struct Cover<'a> {
    aig: &'a Aig,
    best: &'a [Match],
    demand: &'a [u8],
    net: Network,
    /// Per node, the cell id in each memo slot (or [`NO_CELL`]). Every
    /// mapped cell drives port 0, so an id is its signal.
    memo: Vec<[u32; 3]>,
}

impl Cover<'_> {
    fn fanins(&mut self, m: &Match) -> [Signal; 2] {
        let mut out = [Signal::from_cell(CellId(0)); 2];
        for (i, slot) in out.iter_mut().enumerate() {
            let leaf = AigNodeId(m.leaves[i]);
            *slot = if m.neg_mask >> i & 1 == 1 {
                self.negated(leaf)
            } else {
                self.node(leaf)
            };
        }
        out
    }

    fn node(&mut self, node: AigNodeId) -> Signal {
        let v = node.0 as usize;
        if self.memo[v][POSITIVE] != NO_CELL {
            return Signal::from_cell(CellId(self.memo[v][POSITIVE]));
        }
        let m = self.best[v];
        let fanins = self.fanins(&m);
        let s = self.net.add_gate(m.gate, &fanins);
        self.memo[v][POSITIVE] = s.cell.0;
        s
    }

    fn negated(&mut self, node: AigNodeId) -> Signal {
        let v = node.0 as usize;
        let [_, inverted, complement] = self.memo[v];
        if inverted != NO_CELL {
            return Signal::from_cell(CellId(inverted));
        }
        if complement != NO_CELL {
            return Signal::from_cell(CellId(complement));
        }
        // Complement-only demand on a logic node → the complement gate,
        // one cell, no inverter. Otherwise (inputs, dual demand) → shared INV.
        if !self.aig.is_input(node) && self.demand[v] == 2 {
            let m = self.best[v];
            let fanins = self.fanins(&m);
            let s = self.net.add_gate(complement_gate(m.gate), &fanins);
            self.memo[v][COMPLEMENT] = s.cell.0;
            return s;
        }
        let pos = self.node(node);
        let s = self.net.add_gate(GateKind::Inv, &[pos]);
        self.memo[v][INVERTED] = s.cell.0;
        s
    }

    fn literal(&mut self, lit: AigLit) -> Signal {
        if lit.is_complemented() {
            self.negated(lit.node())
        } else {
            self.node(lit.node())
        }
    }

    /// Materializes a constant output as live logic over input 0:
    /// `AND(x, ¬x)` for 0, `OR(x, ¬x)` for 1.
    ///
    /// # Panics
    /// Panics if the AIG has no primary inputs.
    fn constant(&mut self, value: bool, cache: &mut [Option<Signal>; 2]) -> Signal {
        if let Some(s) = cache[usize::from(value)] {
            return s;
        }
        let first = *self
            .aig
            .inputs()
            .first()
            .expect("constant outputs need at least one input to derive from");
        let x = self.node(first);
        let nx = self.negated(first);
        let s = if value {
            self.net.add_gate(GateKind::Or2, &[x, nx])
        } else {
            self.net.add_gate(GateKind::And2, &[x, nx])
        };
        cache[usize::from(value)] = Some(s);
        s
    }
}
