//! T1-FF detection and replacement (paper §II-A).
//!
//! Detection is cut enumeration followed by Boolean matching: all 3-leaf cuts
//! are grouped by `(leaf set, input-polarity mask)`; a group whose members'
//! functions are all T1-realizable (XOR3 on `S`, MAJ3 on `C`, OR3 on `Q`,
//! ¬MAJ3 on `C*`+INV, ¬OR3 on `Q*`+INV) is a candidate T1 macro-cell.
//! Its gain is `ΔA = Σ A(MFFC(uᵢ)) − A_T1(C)` (eq. 2), where `A_T1` includes
//! the bare cell, the two input mergers, per-port latching DFFs / inverters,
//! and an inverter per negated leaf. Candidates with positive gain are
//! *found*; a greedy non-overlapping commit in descending-gain order decides
//! which are *used*, and the network is rebuilt with multi-output T1 cells.
//!
//! # Data layout (see `benches/hotpaths.rs` for the regression gates)
//!
//! The original implementation survives verbatim as
//! [`crate::detect_reference::detect_t1_reference`], and the differential
//! harness asserts bit-identical detections. This one does only the work
//! its result needs:
//!
//! * **Matching is fused into cut enumeration**: as each node's cuts are
//!   made, [`sfq_netlist::for_each_node_cuts`] hands them over, and every
//!   3-leaf cut's 8-row table indexes a 256-entry fold of [`T1MatchDb`]
//!   (its one-byte [`T1MatchDb::realizable_masks`] probe plus the port per
//!   mask). Each match is one 24-byte record whose `(leaves, mask)` key is
//!   the cut's packed leaf key shifted up by the mask. No stored cut set is
//!   walked, and the cut table is dropped before grouping starts.
//! * **Grouping is a bucketed sort that moves no record**: a counting sort
//!   of record indices by the first leaf's cell — the key's top bits, so
//!   bucket order is key order — then a small sort per bucket yields
//!   exactly the global `(key, root)` order. That order is total (a root
//!   has one function per leaf set, hence at most one record per key), so
//!   runs, their root order (ascending, as the reference's HashMap-of-Vecs
//!   kept it) and every later decision are unchanged. The index is a sixth
//!   the size of a record copy.
//! * **A run of one record is rejected before any work**: a group needs two
//!   distinct roots, and at paper scale 91 % of the keys hold a single
//!   record. The budget tick still runs once per run, so supervised node
//!   ceilings trip exactly where they did. Only multi-record runs walk the
//!   joint MFFC, on dense scratch reset via touch lists.
//! * **The greedy commit and the rewrite are index-based**: the commit's
//!   claims are one byte per cell; the rewrite keeps one old → new signal
//!   slot per cell (a T1 cell's other ports follow from its port 0) and
//!   one per-cell word for "copy, dead, or root of group `g` on port `p`",
//!   and the shared input-inverter cache is a short linear-scanned list.
//!   The commit and the id-assigning rebuild *define* the deterministic
//!   order the rest of the flow depends on.
//! * **Every pass runs on the calling thread**: chunked parallel versions
//!   took 1.1–2.4× the wall time of one worker at two workers and were
//!   removed, so detection does the same work at every worker count.

use sfq_netlist::{
    for_each_node_cuts, CellId, CellKind, CutConfig, Library, Network, Signal, T1Port,
};
use sfq_tt::{T1MatchDb, TruthTable};

/// One committed or candidate T1 macro-cell.
#[derive(Debug, Clone)]
pub struct T1Group {
    /// The three cut leaves, sorted (the cell's logical inputs before
    /// polarity inverters).
    pub leaves: [Signal; 3],
    /// Input-polarity mask: bit `i` set ⇒ leaf `i` feeds through an inverter.
    pub input_mask: u8,
    /// Replaced root nodes and the port each one maps to.
    pub roots: Vec<(CellId, T1Port)>,
    /// Used-port bitmask (indices per [`T1Port::index`]).
    pub used_ports: u8,
    /// Area gain `ΔA` in JJs (eq. 2); positive for every found group.
    pub gain: i64,
    /// Interior cells (MFFC minus roots) that die with the replacement.
    pub dead: Vec<CellId>,
}

/// Result of T1 detection on a mapped network.
#[derive(Debug, Clone)]
pub struct T1Detection {
    /// The rewritten network (unchanged copy when `used == 0`).
    pub network: Network,
    /// Number of positive-gain candidate groups (Table I "T1 cells found").
    pub found: usize,
    /// Number of committed groups (Table I "T1 cells used").
    pub used: usize,
    /// The committed groups, in commit order.
    pub groups: Vec<T1Group>,
}

/// How much work one detection did: match records emitted, distinct
/// `(leaves, mask)` keys among them, keys scored (those with two or more
/// records), and the found/used group counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DetectStats {
    pub(crate) records: usize,
    pub(crate) keys: usize,
    pub(crate) evaluated: usize,
    pub(crate) found: usize,
    pub(crate) used: usize,
}

/// Runs T1 detection and replacement on a mapped gate network.
///
/// `net` must contain only inputs and plain gates (the pre-retiming subject
/// network); DFFs or earlier T1 cells act as cut boundaries and are never
/// replaced.
pub fn detect_t1(net: &Network, lib: &Library, cut_config: &CutConfig) -> T1Detection {
    detect_t1_with_threshold(net, lib, cut_config, 0)
}

/// Recovers the leaf set and polarity mask from a packed group key: a cut
/// key (three 40-bit pin ids, see [`sfq_netlist::Cut::key`]) shifted up by
/// the 3-bit mask. Numeric key order is lexicographic `(leaves, mask)`
/// order.
#[inline]
fn unpack_group_key(key: u128) -> ([Signal; 3], u8) {
    let mask = (key & 7) as u8;
    let mut leaves = [Signal {
        cell: CellId(0),
        port: 0,
    }; 3];
    let mut v = key >> 3;
    for l in leaves.iter_mut().rev() {
        l.port = (v & 0xFF) as u8;
        l.cell = CellId(((v >> 8) & 0xFFFF_FFFF) as u32);
        v >>= 40;
    }
    (leaves, mask)
}

/// One Boolean match: a root realizable on `port` when the group
/// `(leaves, mask)` is committed. 24 bytes — the 123-bit group key is split
/// into two words so the record needs no 16-byte alignment; leaves are
/// recovered per *run*, not per record, via [`unpack_group_key`].
#[derive(Clone, Copy)]
struct Rec {
    /// Group key bits 64..123.
    hi: u64,
    /// Group key bits 0..64.
    lo: u64,
    root: CellId,
    port: T1Port,
}

impl Rec {
    fn key(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// The first leaf's cell: key bits 91..123.
    fn bucket(&self) -> usize {
        (self.hi >> 27) as usize
    }

    /// The grouping order: `(key, root)`.
    fn order(&self) -> (u64, u64, CellId) {
        (self.hi, self.lo, self.root)
    }
}

/// [`T1MatchDb`] folded to what collection asks per cut: for each 8-row
/// function, the polarity masks under which a T1 port realizes it and that
/// port per mask. `S` has no complement pin (see sfq-tt docs), so those
/// matches are dropped here once instead of per cut.
struct PortTable {
    masks: [u8; 256],
    ports: [[T1Port; 8]; 256],
}

impl PortTable {
    fn new(db: &T1MatchDb) -> Self {
        let mut t = PortTable {
            masks: [0; 256],
            ports: [[T1Port::from_index(0); 8]; 256],
        };
        for bits in 0..256 {
            let tt = TruthTable::from_bits_truncated(3, bits as u64);
            let mut masks = db.realizable_masks(&tt);
            while masks != 0 {
                let mask = masks.trailing_zeros() as u8;
                masks &= masks - 1;
                let m = db.lookup(&tt, mask).expect("mask-set bit is backed");
                if let Some(port) = T1Port::for_match(m.base, m.output_negated) {
                    t.masks[bits] |= 1 << mask;
                    t.ports[bits][mask as usize] = port;
                }
            }
        }
        t
    }
}

/// Enumerates cuts and matches every gate's 3-leaf cuts as they are made,
/// emitting one record per `(leaf set, polarity mask, realizable port)`.
/// The cut table is gone on return.
fn collect_matches(net: &Network, cut_config: &CutConfig) -> Vec<Rec> {
    let table = PortTable::new(&T1MatchDb::new());
    // About two records per cell at paper scale.
    let mut recs: Vec<Rec> = Vec::with_capacity(2 * net.num_cells());
    for_each_node_cuts(net, cut_config, |root, cuts| {
        for cut in cuts.iter().filter(|c| c.num_leaves() == 3) {
            let bits = cut.tt_bits() as usize;
            // One byte answers "realizable under any mask?" — almost always
            // no.
            let mut masks = table.masks[bits];
            while masks != 0 {
                let mask = masks.trailing_zeros();
                masks &= masks - 1;
                let key = (cut.key() << 3) | u128::from(mask);
                recs.push(Rec {
                    hi: (key >> 64) as u64,
                    lo: key as u64,
                    root,
                    port: table.ports[bits][mask as usize],
                });
            }
        }
    });
    recs
}

/// The records' `(key, root)` order, as record indices: a counting sort by
/// the first leaf's cell (the key's top bits, so bucket order is key order),
/// then a small sort within each bucket. `(key, root)` is duplicate-free —
/// a root has one function per leaf set — so the order is total and equals
/// one global sort's. Records stay where they are; the index costs a sixth
/// of a record copy.
fn group_order(recs: &[Rec], num_cells: usize) -> Vec<u32> {
    // `end[b]` counts bucket `b`, becomes its start, and after the scatter
    // its end.
    let mut end = vec![0u32; num_cells + 1];
    for r in recs {
        end[r.bucket() + 1] += 1;
    }
    for b in 0..num_cells {
        end[b + 1] += end[b];
    }
    let mut order = vec![0u32; recs.len()];
    for (i, r) in recs.iter().enumerate() {
        let slot = &mut end[r.bucket()];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    let mut start = 0;
    for &stop in &end[..num_cells] {
        let bucket = &mut order[start..stop as usize];
        if bucket.len() > 1 {
            bucket.sort_unstable_by_key(|&i| recs[i as usize].order());
        }
        start = stop as usize;
    }
    order
}

/// Commit claims (bits of one byte per cell): a cell that dies with a
/// committed group, a committed root, a committed group's leaf.
const CLAIMED_DEAD: u8 = 1;
const USED_ROOT: u8 = 2;
const NEEDED_ALIVE: u8 = 4;

/// [`detect_t1`] with an explicit gain cutoff: only groups with
/// `ΔA > threshold` JJs are considered found (the paper uses `ΔA > 0`).
///
/// Raising the threshold trades T1 conversions for fewer extra pipeline
/// stages.
pub fn detect_t1_with_threshold(
    net: &Network,
    lib: &Library,
    cut_config: &CutConfig,
    threshold: i64,
) -> T1Detection {
    detect_with_stats(net, lib, cut_config, threshold).0
}

/// [`detect_t1_with_threshold`] plus the [`DetectStats`] of the run.
pub(crate) fn detect_with_stats(
    net: &Network,
    lib: &Library,
    cut_config: &CutConfig,
    threshold: i64,
) -> (T1Detection, DetectStats) {
    let n = net.num_cells();
    let refs = sfq_netlist::mffc::reference_counts(net);
    let mut stats = DetectStats::default();

    // ---- collect matches as one flat record list, then group them --------
    let recs = collect_matches(net, cut_config);
    stats.records = recs.len();
    // Within a group the roots come out ascending, the per-group root
    // order the reference's HashMap-of-Vecs kept.
    let order = group_order(&recs, n);

    // ---- evaluate candidates ---------------------------------------------
    let mut candidates = evaluate_runs(net, lib, &refs, &recs, &order, threshold, &mut stats);
    drop((recs, order));
    let found = candidates.len();

    // ---- greedy non-overlapping commit ------------------------------------
    // `(leaves, mask)` is unique per candidate, so the order is total and an
    // unstable sort is deterministic.
    candidates.sort_unstable_by(|a, b| {
        b.gain
            .cmp(&a.gain)
            .then_with(|| a.leaves.cmp(&b.leaves))
            .then_with(|| a.input_mask.cmp(&b.input_mask))
    });
    // Per-cell claims of the committed groups, one byte per cell.
    let mut claims = vec![0u8; n];
    let mut committed: Vec<T1Group> = Vec::new();
    for g in candidates {
        let conflict = g.roots.iter().any(|&(r, _)| claims[r.0 as usize] != 0)
            || g.dead.iter().any(|c| claims[c.0 as usize] != 0)
            || g.leaves
                .iter()
                .any(|l| claims[l.cell.0 as usize] & CLAIMED_DEAD != 0)
            || g.dead.iter().any(|c| g.leaves.iter().any(|l| l.cell == *c));
        if conflict {
            continue;
        }
        for c in &g.dead {
            claims[c.0 as usize] |= CLAIMED_DEAD;
        }
        for &(r, _) in &g.roots {
            claims[r.0 as usize] |= USED_ROOT;
        }
        for l in &g.leaves {
            claims[l.cell.0 as usize] |= NEEDED_ALIVE;
        }
        committed.push(g);
    }
    let used = committed.len();
    stats.found = found;
    stats.used = used;

    // ---- rebuild the network ----------------------------------------------
    let network = rebuild(net, &committed, &claims);
    let det = T1Detection {
        network,
        found,
        used,
        groups: committed,
    };
    (det, stats)
}

/// Scores every `(leaves, mask)` run of the records in `order`: assigns
/// ports, walks the joint MFFC and keeps groups whose area gain beats
/// `threshold`, in run order.
fn evaluate_runs(
    net: &Network,
    lib: &Library,
    refs: &[u32],
    recs: &[Rec],
    order: &[u32],
    threshold: i64,
    stats: &mut DetectStats,
) -> Vec<T1Group> {
    let mut candidates: Vec<T1Group> = Vec::new();
    // Reused per-run scratch.
    let mut run: Vec<Rec> = Vec::new();
    let mut run_roots: Vec<CellId> = Vec::new();
    let mut mffc = MffcScratch::new(net.num_cells());
    let mut start = 0;
    while start < order.len() {
        let first = &recs[order[start] as usize];
        let mut end = start + 1;
        while end < order.len() && recs[order[end] as usize].key() == first.key() {
            end += 1;
        }
        let run_ix = &order[start..end];
        start = end;
        // Supervised-flow budget check (a no-op when no budget is
        // installed).
        sfq_netlist::budget::tick(1);
        stats.keys += 1;
        // The paper requires ≥ 2 cuts per group, and a run holds one record
        // per root, so a run of one is rejected before any work.
        if run_ix.len() < 2 {
            continue;
        }
        stats.evaluated += 1;
        run.clear();
        run.extend(run_ix.iter().map(|&i| recs[i as usize]));
        let (leaves, mask) = unpack_group_key(run[0].key());
        // The run's roots: ascending and distinct.
        run_roots.clear();
        run_roots.extend(run.iter().map(|r| r.root));
        debug_assert!(run_roots.windows(2).all(|w| w[0] < w[1]));
        let used_ports = run.iter().fold(0u8, |m, r| m | 1 << r.port.index());

        // Joint MFFC of all roots, with leaves pinned alive.
        let (cone, cone_area) = mffc.group_mffc(net, &run_roots, &leaves, refs, lib);

        let t1_cost = lib.t1_area(used_ports) as i64 + (mask.count_ones() as i64) * lib.inv as i64;
        let gain = cone_area as i64 - t1_cost;
        if gain <= threshold {
            continue;
        }
        let dead = cone[run_roots.len()..].to_vec();
        // Ports in index order; on a shared port, roots in ascending order.
        let mut roots: Vec<(CellId, T1Port)> = Vec::with_capacity(run.len());
        for port in T1Port::ALL {
            roots.extend(
                run.iter()
                    .filter(|r| r.port == port)
                    .map(|r| (r.root, port)),
            );
        }
        candidates.push(T1Group {
            leaves,
            input_mask: mask,
            roots,
            used_ports,
            gain,
            dead,
        });
    }
    candidates
}

/// Dense scratch for the joint-MFFC walks: per-cell counters and membership
/// flags reset via touch lists so one allocation serves every group.
struct MffcScratch {
    taken: Vec<u32>,
    touched: Vec<u32>,
    in_cone: Vec<bool>,
    cone: Vec<CellId>,
    stack: Vec<CellId>,
}

impl MffcScratch {
    fn new(n: usize) -> Self {
        MffcScratch {
            taken: vec![0; n],
            touched: Vec::new(),
            in_cone: vec![false; n],
            cone: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Joint MFFC of several roots with pinned leaves: the set of cells that
    /// die when all roots are replaced, never crossing leaves, inputs, or
    /// non-gate cells. Returns the cone (the roots first) and the area of
    /// its cells; the returned slice is valid until the next call.
    fn group_mffc(
        &mut self,
        net: &Network,
        roots: &[CellId],
        leaves: &[Signal; 3],
        refs: &[u32],
        lib: &Library,
    ) -> (&[CellId], u64) {
        // Reset marks from the previous group.
        for &t in &self.touched {
            self.taken[t as usize] = 0;
        }
        self.touched.clear();
        for &c in &self.cone {
            self.in_cone[c.0 as usize] = false;
        }
        self.cone.clear();
        self.cone.extend_from_slice(roots);
        self.stack.clear();
        self.stack.extend_from_slice(roots);
        let mut area = 0;
        for &r in roots {
            self.in_cone[r.0 as usize] = true;
            area += lib.cell_area(net.kind(r));
        }
        while let Some(id) = self.stack.pop() {
            for f in net.fanins(id) {
                let d = f.cell;
                if self.in_cone[d.0 as usize] || leaves.iter().any(|l| l.cell == d) {
                    continue;
                }
                let t = &mut self.taken[d.0 as usize];
                if *t == 0 {
                    self.touched.push(d.0);
                }
                *t += 1;
                if *t == refs[d.0 as usize] {
                    let kind = net.kind(d);
                    if matches!(kind, CellKind::Gate(_)) {
                        self.cone.push(d);
                        self.in_cone[d.0 as usize] = true;
                        self.stack.push(d);
                        area += lib.cell_area(kind);
                    }
                }
            }
        }
        (&self.cone, area)
    }
}

/// The complement of `base` in the network under construction: when `base`
/// is a complementable T1 port (`C ↔ C*+INV`, `Q ↔ Q*+INV`), enable and use
/// the twin port — same stage, no extra pipeline level; otherwise a shared
/// clocked inverter cell. Keeping the carry chain inverter-free is what lets
/// T1 ripple structures advance one stage per bit.
///
/// `inv_cache` is a short linear-scanned list: committed groups rarely
/// negate more than a handful of distinct leaves.
fn negated_signal(
    out: &mut Network,
    base: Signal,
    inv_cache: &mut Vec<(Signal, Signal)>,
) -> Signal {
    if out.kind(base.cell).is_t1() {
        if let Some(twin) = T1Port::from_index(base.port).complement() {
            return out.enable_t1_port(base.cell, twin);
        }
    }
    if let Some(&(_, inv)) = inv_cache.iter().find(|&&(b, _)| b == base) {
        return inv;
    }
    let inv = out.add_gate(sfq_netlist::GateKind::Inv, &[base]);
    inv_cache.push((base, inv));
    inv
}

/// Dense old-signal → new-signal translation table: one slot per cell,
/// holding the image of its port 0. Every other old pin is a port of a
/// copied T1 cell, whose image is the same port of the copy, so the image
/// of `(cell, p)` is the slot's signal shifted by `p` ports (a root's slot
/// holds a T1 port, but roots are gates and only their port 0 is read).
struct SignalMap {
    map: Vec<Signal>,
}

const UNMAPPED: Signal = Signal {
    cell: CellId(u32::MAX),
    port: 0,
};

impl SignalMap {
    fn new(n: usize) -> Self {
        SignalMap {
            map: vec![UNMAPPED; n],
        }
    }

    #[inline]
    fn set(&mut self, old: CellId, new: Signal) {
        self.map[old.0 as usize] = new;
    }

    #[inline]
    fn get(&self, old: Signal) -> Option<Signal> {
        let s = self.map[old.cell.0 as usize];
        (s.cell != UNMAPPED.cell).then_some(Signal {
            cell: s.cell,
            port: s.port + old.port,
        })
    }
}

fn rebuild(net: &Network, groups: &[T1Group], claims: &[u8]) -> Network {
    let n = net.num_cells();
    let order = net.topological_order().expect("subject network is acyclic");
    // Every surviving cell is copied or becomes a port; only materialized
    // T1 cells and input inverters come on top.
    let mut out = Network::with_capacity(net.name().to_string(), n);
    // old signal → new signal (roots map to T1 ports).
    let mut remap = SignalMap::new(n);
    // Per cell: copied, dead, or a root with its group and port
    // (`gi << 3 | port`); the first root (in topo order) of each group
    // triggers materialization.
    const COPY: u32 = u32::MAX;
    const DEAD: u32 = u32::MAX - 1;
    assert!(groups.len() < 1 << 28, "group index fits beside the port");
    let mut slot_of: Vec<u32> = claims
        .iter()
        .map(|&c| if c & CLAIMED_DEAD != 0 { DEAD } else { COPY })
        .collect();
    for (gi, g) in groups.iter().enumerate() {
        for &(r, port) in &g.roots {
            slot_of[r.0 as usize] = (gi as u32) << 3 | u32::from(port.index());
        }
    }
    let mut materialized: Vec<Option<CellId>> = vec![None; groups.len()];
    // Shared input inverters: (leaf signal) → INV output in the new network.
    let mut inv_cache: Vec<(Signal, Signal)> = Vec::new();
    let mut fanin_buf: Vec<Signal> = Vec::with_capacity(3);

    let mut inputs_done = 0usize;
    for id in order {
        let slot = slot_of[id.0 as usize];
        if slot == DEAD {
            continue;
        }
        if slot != COPY {
            let gi = (slot >> 3) as usize;
            // Materialize the T1 cell once, then map this root to its port.
            if materialized[gi].is_none() {
                let g = &groups[gi];
                fanin_buf.clear();
                for (li, leaf) in g.leaves.iter().enumerate() {
                    let base = remap.get(*leaf).unwrap_or_else(|| {
                        panic!("leaf {leaf:?} must precede root in topological order")
                    });
                    if g.input_mask >> li & 1 == 1 {
                        let neg = negated_signal(&mut out, base, &mut inv_cache);
                        fanin_buf.push(neg);
                    } else {
                        fanin_buf.push(base);
                    }
                }
                materialized[gi] = Some(out.add_t1(g.used_ports, &fanin_buf));
            }
            let t1 = materialized[gi].unwrap();
            let port = T1Port::from_index((slot & 7) as u8);
            remap.set(id, Signal::t1(t1, port));
            continue;
        }
        // Ordinary copy.
        match net.kind(id) {
            CellKind::Input => {
                let k = inputs_done;
                inputs_done += 1;
                let s = out.add_input(net.input_name(k).to_string());
                remap.set(id, s);
            }
            CellKind::Gate(gk) => {
                fanin_buf.clear();
                fanin_buf.extend(
                    net.fanins(id)
                        .iter()
                        .map(|f| remap.get(*f).expect("fanin precedes cell")),
                );
                let s = out.add_gate(gk, &fanin_buf);
                remap.set(id, s);
            }
            CellKind::T1 { used_ports } => {
                fanin_buf.clear();
                fanin_buf.extend(
                    net.fanins(id)
                        .iter()
                        .map(|f| remap.get(*f).expect("fanin precedes cell")),
                );
                let new_id = out.add_t1(used_ports, &fanin_buf);
                remap.set(id, Signal::from_cell(new_id));
            }
            CellKind::Dff => {
                let f = net.fanins(id)[0];
                let s = out.add_dff(remap.get(f).expect("fanin precedes cell"));
                remap.set(id, s);
            }
        }
    }
    for (k, &o) in net.outputs().iter().enumerate() {
        let s = remap.get(o).expect("output driver is live");
        out.add_output(net.output_name(k).to_string(), s);
    }
    out
}
