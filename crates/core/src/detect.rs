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
//! The stage got the ISSUE 2 hot-path treatment and the ISSUE 3
//! pruning/parallelism pass; the original implementation survives verbatim
//! as [`crate::detect_reference::detect_t1_reference`], and the
//! differential harness asserts bit-identical detections:
//!
//! * **Match collection is a sorted record list, not a hash map**: every
//!   `(leaf set, mask, root, port)` match is one 32-byte record whose
//!   `(leaves, mask)` key is packed into a single `u128`
//!   (`group_key`), appended to one flat `Vec` and brought into runs by
//!   an unstable integer-key sort (per-root leaf sets are unique by cut
//!   dominance, so `(key, root)` is duplicate-free). Boolean matching
//!   probes [`T1MatchDb::realizable_masks`] — one byte answers
//!   "realizable under any polarity?" before any per-mask lookup runs.
//! * **Group evaluation runs on dense scratch**: port ownership is a fixed
//!   5-slot array, the joint-MFFC walk marks `taken`/`in_cone` in per-cell
//!   vectors reset via touch lists, and the greedy commit keeps its
//!   claimed/used/alive sets as per-cell bitmaps — the only hashing left in
//!   the whole stage is inside cut enumeration's signature scheme.
//! * **The rewrite phase is index-based**: the old-signal → new-signal map
//!   is a flat `(cell × port)` table probed by array index, group
//!   membership is a dense per-cell vector, and the shared input-inverter
//!   cache is a short linear-scanned list (committed groups rarely negate
//!   more than a handful of leaves).
//! * **Every data-parallel phase fans out through
//!   `sfq_netlist::par::map_ordered`** whenever `sfq_netlist::par::width`
//!   grants the phase at least its break-even width: the per-cell match
//!   scan (`collect_matches`) and per-run group scoring
//!   (`evaluate_candidates`) merge private buffers in chunk order,
//!   the record sort runs as sorted chunks + deterministic k-way merge
//!   (`sfq_netlist::par::sort_unstable_by_key`, valid because `(key,
//!   root)` is duplicate-free), and the run-boundary scan chunks at
//!   run-aligned boundaries (`run_boundaries`). Every merge is input- or
//!   chunk-ordered, so the record and candidate sequences — and therefore
//!   the committed groups and the rebuilt network — are bit-identical to
//!   the sequential body (`SFQ_WORKERS=1`) at any worker count. The
//!   greedy commit and the id-assigning rebuild stay sequential by design:
//!   both *define* the deterministic order the rest of the flow depends
//!   on. Cut enumeration parallelizes one crate down (`sfq_netlist::cuts`,
//!   work-stealing over a dependency-counted frontier).
//!
//! Measured effect (criterion medians, one dev machine, see
//! `BENCH_flow.json`): ISSUE 2 took `detect_t1/adder32` 171 µs → 70 µs and
//! `detect_t1/multiplier12` 1.78 ms → 0.87 ms; the ISSUE 3 pass
//! (cut prefilter + packed keys + mask-set probe + inline network fanins)
//! took `multiplier12` on to 503 µs (1.7×) and paper-scale
//! `detect_t1/log2` 46.2 ms → 29.6 ms (1.6×), with the whole paper-scale
//! detect stage of `profile_scale` dropping 1.5–2.1× per benchmark.

use sfq_netlist::{
    enumerate_cuts, CellId, CellKind, CutConfig, Library, Network, Signal, T1Port, T1_NUM_PORTS,
};
use sfq_tt::T1MatchDb;

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

/// Runs T1 detection and replacement on a mapped gate network.
///
/// `net` must contain only inputs and plain gates (the pre-retiming subject
/// network); DFFs or earlier T1 cells act as cut boundaries and are never
/// replaced.
pub fn detect_t1(net: &Network, lib: &Library, cut_config: &CutConfig) -> T1Detection {
    detect_t1_with_threshold(net, lib, cut_config, 0)
}

/// Packs a 3-leaf set plus polarity mask into one `u128` (three 40-bit pin
/// ids, 3 mask bits) whose numeric order equals the lexicographic order on
/// `(leaves, mask)`. One word compare replaces a field-by-field struct
/// compare in the group-run sort, the hottest non-enumeration part of
/// collection.
#[inline]
fn group_key(leaves: &[Signal; 3], mask: u8) -> u128 {
    let mut key = 0u128;
    for l in leaves {
        key = (key << 40) | u128::from((u64::from(l.cell.0) << 8) | u64::from(l.port));
    }
    (key << 3) | u128::from(mask)
}

/// Recovers the leaf set and polarity mask from a [`group_key`] word.
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

/// Cells below which match collection runs inline: a chunk must amortize
/// its worker's spawn.
const CELL_GRAIN: usize = 1024;
/// Sorted match records below which the run scan runs inline.
const RECORD_GRAIN: usize = 4096;
/// `(leaves, mask)` runs below which group scoring runs inline.
const RUN_GRAIN: usize = 256;
/// Smallest worker count at which detect's chunked fan-outs may beat their
/// sequential bodies. Each chunk fills a private buffer that is then
/// concatenated, and the sort's k-way merge stays sequential, so two
/// workers lose: forced to 2, detect's own passes (collection, sort, run
/// scan, scoring; cuts excluded) took 1.1–2.4× the wall time of one worker
/// on the paper-scale Table I designs from c6288 to log2 (2-vCPU x86 host,
/// best of 7 and 9 in two sessions), while margin trials measured in the
/// same minutes ran at 0.64–0.79× — the host did deliver the second core.
/// Three is the smallest width not measured to lose.
const CHUNKED_BREAK_EVEN: usize = 3;

/// One Boolean match found during collection: a root realizable on `port`
/// when the group `(leaves, mask)` is committed. 32 bytes (the `u128` key
/// is 16-byte aligned) — the group sort moves packed keys, not leaf
/// arrays (leaves are recovered per *run*, not per record, via
/// [`unpack_group_key`]). `Copy` keeps the parallel chunk sort's k-way
/// merge to trivial element moves.
#[derive(Clone, Copy)]
struct Rec {
    /// Packed `(leaves, mask)` — see [`group_key`].
    key: u128,
    root: CellId,
    port: T1Port,
}

/// Scans every gate's 3-leaf cuts against the T1 match table, emitting one
/// record per `(leaf set, polarity mask, realizable port)` in ascending cell
/// order. Pure per-cell work over read-only inputs — the first fan-out
/// point of detection.
fn collect_matches(net: &Network, cuts: &sfq_netlist::CutSet, db: &T1MatchDb) -> Vec<Rec> {
    let n = net.num_cells() as u32;
    let workers = sfq_netlist::par::width(n as usize, CELL_GRAIN, CHUNKED_BREAK_EVEN);
    if workers > 1 {
        let chunk = (n as usize).div_ceil(workers) as u32;
        let bounds: Vec<(u32, u32)> = (0..workers as u32)
            .map(|w| ((w * chunk).min(n), ((w + 1) * chunk).min(n)))
            .collect();
        // Concatenating in chunk order preserves ascending cell order — the
        // exact record sequence the sequential scan produces.
        return sfq_netlist::par::map_ordered(bounds, |(lo, hi)| {
            let mut recs = Vec::new();
            collect_matches_range(net, cuts, db, lo..hi, &mut recs);
            recs
        })
        .concat();
    }
    let mut recs: Vec<Rec> = Vec::with_capacity(cuts.total() / 2);
    collect_matches_range(net, cuts, db, 0..n, &mut recs);
    recs
}

/// [`collect_matches`] over one contiguous cell-id range, appending to
/// `recs`. Pure function of read-only inputs, so ranges can run on any
/// thread; concatenation in range order reproduces the full sequential scan.
fn collect_matches_range(
    net: &Network,
    cuts: &sfq_netlist::CutSet,
    db: &T1MatchDb,
    range: std::ops::Range<u32>,
    recs: &mut Vec<Rec>,
) {
    for id in range.map(CellId) {
        if !matches!(net.kind(id), CellKind::Gate(_)) {
            continue;
        }
        for cut in cuts.of(id) {
            if cut.leaves.len() != 3 {
                continue;
            }
            // One byte probe answers "realizable under any mask?" — almost
            // always no — before the per-mask lookups run.
            let mut masks = db.realizable_masks(&cut.tt);
            if masks == 0 {
                continue;
            }
            let leaves: [Signal; 3] = [cut.leaves[0], cut.leaves[1], cut.leaves[2]];
            while masks != 0 {
                let mask = masks.trailing_zeros() as u8;
                masks &= masks - 1;
                let m = db.lookup(&cut.tt, mask).expect("mask-set bit is backed");
                // S has no complement pin (see sfq-tt docs).
                let Some(port) = T1Port::for_match(m.base, m.output_negated) else {
                    continue;
                };
                recs.push(Rec {
                    key: group_key(&leaves, mask),
                    root: id,
                    port,
                });
            }
        }
    }
}

/// [`detect_t1`] with an explicit gain cutoff: only groups with
/// `ΔA > threshold` JJs are considered found (the paper uses `ΔA > 0`).
///
/// Raising the threshold trades T1 conversions for fewer extra pipeline
/// stages — the Ext-C ablation of DESIGN.md §6.
pub fn detect_t1_with_threshold(
    net: &Network,
    lib: &Library,
    cut_config: &CutConfig,
    threshold: i64,
) -> T1Detection {
    let n = net.num_cells();
    let db = T1MatchDb::new();
    let cuts = enumerate_cuts(net, cut_config);
    let refs = sfq_netlist::mffc::reference_counts(net);

    // ---- collect matches as one flat record list -------------------------
    // No per-root leaf-set dedup is needed: cut enumeration's dominance
    // pruning kills equal leaf sets, so each root's stored 3-cuts already
    // carry distinct leaves (asserted by the differential harness against
    // the reference detector, which still dedups defensively).
    let mut recs: Vec<Rec> = collect_matches(net, &cuts, &db);
    // Bring each (leaves, mask) group together as one run. Within a group
    // at most one record exists per root (one function per node per leaf
    // set) and collection emits roots in ascending cell order, so sorting
    // unstably by `(key, root)` reproduces the per-group root insertion
    // order the reference's HashMap-of-Vecs maintained. `(key, root)` is
    // duplicate-free — a strict total order — so the chunked parallel sort
    // (sorted chunks + deterministic k-way merge) is byte-identical to the
    // sequential sort for every worker count.
    sfq_netlist::par::sort_unstable_by_key(&mut recs, |r| (r.key, r.root));

    // ---- evaluate candidates ---------------------------------------------
    // Split the sorted records into (leaves, mask) runs, then score each run
    // independently (the second fan-out point of detection).
    let runs = run_boundaries(&recs);
    let mut candidates = evaluate_candidates(net, lib, &refs, &recs, &runs, threshold);
    let found = candidates.len();

    // ---- greedy non-overlapping commit ------------------------------------
    candidates.sort_by(|a, b| {
        b.gain
            .cmp(&a.gain)
            .then_with(|| a.leaves.cmp(&b.leaves))
            .then_with(|| a.input_mask.cmp(&b.input_mask))
    });
    let mut claimed_dead = vec![false; n];
    let mut used_roots = vec![false; n];
    let mut needed_alive = vec![false; n];
    let mut committed: Vec<T1Group> = Vec::new();
    for g in candidates {
        let conflict = g.roots.iter().any(|&(r, _)| {
            used_roots[r.0 as usize] || claimed_dead[r.0 as usize] || needed_alive[r.0 as usize]
        }) || g.dead.iter().any(|c| {
            claimed_dead[c.0 as usize] || used_roots[c.0 as usize] || needed_alive[c.0 as usize]
        }) || g.leaves.iter().any(|l| claimed_dead[l.cell.0 as usize])
            || g.dead.iter().any(|c| g.leaves.iter().any(|l| l.cell == *c));
        if conflict {
            continue;
        }
        for c in &g.dead {
            claimed_dead[c.0 as usize] = true;
        }
        for &(r, _) in &g.roots {
            used_roots[r.0 as usize] = true;
        }
        for l in &g.leaves {
            needed_alive[l.cell.0 as usize] = true;
        }
        committed.push(g);
    }
    let used = committed.len();

    // ---- rebuild the network ----------------------------------------------
    let network = rebuild(net, &committed, &claimed_dead);
    T1Detection {
        network,
        found,
        used,
        groups: committed,
    }
}

/// Splits sorted records into `(start, end)` runs of equal [`group_key`]s.
/// With enough records and workers the scan is chunked over
/// [`sfq_netlist::par::map_ordered`] at *run-aligned* boundaries (each
/// chunk starts where a key first differs from its predecessor, so no run
/// straddles two chunks) and the per-chunk run lists are concatenated in
/// chunk order — the exact sequence the sequential scan produces.
fn run_boundaries(recs: &[Rec]) -> Vec<(u32, u32)> {
    let n = recs.len();
    let workers = sfq_netlist::par::width(n, RECORD_GRAIN, CHUNKED_BREAK_EVEN);
    if workers > 1 {
        let chunk = n.div_ceil(workers);
        let mut bounds: Vec<usize> = vec![0];
        let mut pos = chunk;
        while pos < n {
            // `pos` may land mid-run; advance to the next run start so the
            // straddling run stays whole in the previous chunk.
            while pos < n && recs[pos].key == recs[pos - 1].key {
                pos += 1;
            }
            if pos >= n {
                break;
            }
            bounds.push(pos);
            pos += chunk;
        }
        bounds.push(n);
        if bounds.len() > 2 {
            let ranges: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            return sfq_netlist::par::map_ordered(ranges, |(lo, hi)| scan_runs(recs, lo, hi))
                .concat();
        }
    }
    scan_runs(recs, 0, recs.len())
}

/// The run scan over one record range (absolute indices). `lo` must be a
/// run start and `hi` a run end, which chunk alignment guarantees.
fn scan_runs(recs: &[Rec], lo: usize, hi: usize) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut start = lo;
    while start < hi {
        let key = recs[start].key;
        let mut end = start + 1;
        while end < hi && recs[end].key == key {
            end += 1;
        }
        runs.push((start as u32, end as u32));
        start = end;
    }
    runs
}

/// Scores every `(leaves, mask)` run, fanning run slices over
/// [`sfq_netlist::par::map_ordered`] when the run list is large enough to
/// amortize the spawns and the host delivers the break-even width.
/// Chunk-order concatenation preserves run order, so the candidate list
/// matches the sequential scan exactly.
fn evaluate_candidates(
    net: &Network,
    lib: &Library,
    refs: &[u32],
    recs: &[Rec],
    runs: &[(u32, u32)],
    threshold: i64,
) -> Vec<T1Group> {
    let workers = sfq_netlist::par::width(runs.len(), RUN_GRAIN, CHUNKED_BREAK_EVEN);
    if workers > 1 {
        // Budgets are thread-local (worker ticks are no-ops), so charge the
        // whole scoring pass on the coordinator — the same total the
        // sequential loop accumulates one run at a time.
        sfq_netlist::budget::tick(runs.len() as u64);
        let chunk = runs.len().div_ceil(workers);
        // `map_ordered` re-raises the lowest-index worker panic with its
        // original payload, so the supervisor sees the real reason.
        return sfq_netlist::par::map_ordered(runs.chunks(chunk).collect(), |part| {
            #[cfg(feature = "fault-injection")]
            sfq_netlist::faultpt::hit("par.detect", net.name());
            evaluate_runs(net, lib, refs, recs, part, threshold)
        })
        .into_iter()
        .flatten()
        .collect();
    }
    evaluate_runs(net, lib, refs, recs, runs, threshold)
}

/// Scores a slice of `(leaves, mask)` runs: assigns ports, walks the joint
/// MFFC and keeps groups whose area gain beats `threshold`. Runs only read
/// shared immutable state (each carries private scratch), so run slices can
/// be scored on worker threads; concatenating slice results in run order
/// reproduces the sequential candidate list.
fn evaluate_runs(
    net: &Network,
    lib: &Library,
    refs: &[u32],
    recs: &[Rec],
    runs: &[(u32, u32)],
    threshold: i64,
) -> Vec<T1Group> {
    let mut candidates: Vec<T1Group> = Vec::new();
    // Reused per-run scratch.
    let mut port_owner: [Vec<CellId>; T1_NUM_PORTS] = Default::default();
    let mut sorted_roots: Vec<CellId> = Vec::new();
    let mut mffc = MffcScratch::new(net.num_cells());
    for &(start, end) in runs {
        // Supervised-flow budget check (no-op on worker threads and
        // whenever no budget is installed); the parallel driver charges the
        // identical total up front, so abort decisions match at any width.
        sfq_netlist::budget::tick(1);
        let entries = &recs[start as usize..end as usize];
        let (leaves, mask) = unpack_group_key(entries[0].key);

        // Assign ports: first root wins a port; later roots with the same
        // port share it only if they are *distinct* cells (duplicate logic).
        for owners in &mut port_owner {
            owners.clear();
        }
        for e in entries {
            let owners = &mut port_owner[e.port.index() as usize];
            if !owners.contains(&e.root) {
                owners.push(e.root);
            }
        }
        let mut roots: Vec<(CellId, T1Port)> = Vec::new();
        let mut used_ports = 0u8;
        for (pidx, owners) in port_owner.iter().enumerate() {
            if owners.is_empty() {
                continue;
            }
            used_ports |= 1 << pidx;
            for &r in owners {
                roots.push((r, T1Port::from_index(pidx as u8)));
            }
        }
        // A root matched on several ports (impossible: one function per
        // node per leaf set) — and the paper requires ≥ 2 cuts per group.
        sorted_roots.clear();
        sorted_roots.extend(roots.iter().map(|&(r, _)| r));
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        if sorted_roots.len() < 2 {
            continue;
        }

        // Joint MFFC of all roots, with leaves pinned alive.
        let (cone, cone_area) = mffc.group_mffc(net, &sorted_roots, &leaves, refs, lib);

        let t1_cost = lib.t1_area(used_ports) as i64 + (mask.count_ones() as i64) * lib.inv as i64;
        let gain = cone_area as i64 - t1_cost;
        if gain <= threshold {
            continue;
        }
        let dead: Vec<CellId> = cone
            .iter()
            .copied()
            .filter(|c| sorted_roots.binary_search(c).is_err())
            .collect();
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
    /// non-gate cells. `roots` must be sorted. Returns the cone (roots
    /// included) and the area of its cells; the returned slice is valid until
    /// the next call.
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
        for &r in roots {
            self.in_cone[r.0 as usize] = true;
        }
        while let Some(id) = self.stack.pop() {
            for f in net.fanins(id) {
                let d = f.cell;
                if leaves.iter().any(|l| l.cell == d)
                    || roots.binary_search(&d).is_ok()
                    || self.in_cone[d.0 as usize]
                {
                    continue;
                }
                let t = &mut self.taken[d.0 as usize];
                if *t == 0 {
                    self.touched.push(d.0);
                }
                *t += 1;
                if *t == refs[d.0 as usize] && matches!(net.kind(d), CellKind::Gate(_)) {
                    self.cone.push(d);
                    self.in_cone[d.0 as usize] = true;
                    self.stack.push(d);
                }
            }
        }
        let area = self.cone.iter().map(|&c| lib.cell_area(net.kind(c))).sum();
        (&self.cone, area)
    }
}

/// The complement of `base` in the network under construction: when `base`
/// is a complementable T1 port (`C ↔ C*+INV`, `Q ↔ Q*+INV`), enable and use
/// the twin port — same stage, no extra pipeline level; otherwise a shared
/// clocked inverter cell. Keeping the carry chain inverter-free is what lets
/// T1 ripple structures advance one stage per bit (DESIGN.md §3.1).
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

/// Dense old-signal → new-signal translation table: one slot per
/// `(cell, port)` pair, probed by array index.
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
            map: vec![UNMAPPED; n * T1_NUM_PORTS],
        }
    }

    #[inline]
    fn set(&mut self, old: Signal, new: Signal) {
        self.map[old.cell.0 as usize * T1_NUM_PORTS + old.port as usize] = new;
    }

    #[inline]
    fn get(&self, old: Signal) -> Option<Signal> {
        let s = self.map[old.cell.0 as usize * T1_NUM_PORTS + old.port as usize];
        (s.cell != UNMAPPED.cell).then_some(s)
    }
}

fn rebuild(net: &Network, groups: &[T1Group], dead: &[bool]) -> Network {
    let n = net.num_cells();
    let order = net.topological_order().expect("subject network is acyclic");
    let mut out = Network::new(net.name().to_string());
    // old signal → new signal (roots map to T1 ports).
    let mut remap = SignalMap::new(n);
    // first root (in topo order) of each group triggers materialization.
    let mut group_of_root: Vec<u32> = vec![u32::MAX; n];
    for (gi, g) in groups.iter().enumerate() {
        for &(r, _) in &g.roots {
            group_of_root[r.0 as usize] = gi as u32;
        }
    }
    let mut materialized: Vec<Option<CellId>> = vec![None; groups.len()];
    // Shared input inverters: (leaf signal) → INV output in the new network.
    let mut inv_cache: Vec<(Signal, Signal)> = Vec::new();
    let mut fanin_buf: Vec<Signal> = Vec::with_capacity(3);

    let mut inputs_done = 0usize;
    for id in order {
        if dead[id.0 as usize] {
            continue;
        }
        let gi = group_of_root[id.0 as usize];
        if gi != u32::MAX {
            let gi = gi as usize;
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
            let g = &groups[gi];
            let port = g
                .roots
                .iter()
                .find(|&&(r, _)| r == id)
                .map(|&(_, p)| p)
                .expect("root registered in its group");
            remap.set(Signal::from_cell(id), Signal::t1(t1, port));
            continue;
        }
        // Ordinary copy.
        match net.kind(id) {
            CellKind::Input => {
                let k = inputs_done;
                inputs_done += 1;
                let s = out.add_input(net.input_name(k).to_string());
                remap.set(Signal::from_cell(id), s);
            }
            CellKind::Gate(gk) => {
                fanin_buf.clear();
                fanin_buf.extend(
                    net.fanins(id)
                        .iter()
                        .map(|f| remap.get(*f).expect("fanin precedes cell")),
                );
                let s = out.add_gate(gk, &fanin_buf);
                remap.set(Signal::from_cell(id), s);
            }
            CellKind::T1 { used_ports } => {
                fanin_buf.clear();
                fanin_buf.extend(
                    net.fanins(id)
                        .iter()
                        .map(|f| remap.get(*f).expect("fanin precedes cell")),
                );
                let new_id = out.add_t1(used_ports, &fanin_buf);
                for port in T1Port::ALL {
                    if used_ports >> port.index() & 1 == 1 {
                        remap.set(Signal::t1(id, port), Signal::t1(new_id, port));
                    }
                }
            }
            CellKind::Dff => {
                let f = net.fanins(id)[0];
                let s = out.add_dff(remap.get(f).expect("fanin precedes cell"));
                remap.set(Signal::from_cell(id), s);
            }
        }
    }
    for (k, &o) in net.outputs().iter().enumerate() {
        let s = remap.get(o).expect("output driver is live");
        out.add_output(net.output_name(k).to_string(), s);
    }
    out
}
