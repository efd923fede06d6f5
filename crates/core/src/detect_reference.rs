//! Reference implementation of T1-FF detection and replacement.
//!
//! This is the original, straightforward `detect_t1` — `HashMap` group
//! collection, per-cone `HashSet`s, hash-probed rewrite — kept verbatim as
//! the **executable specification** for the optimized detector in
//! [`crate::detect`]. The differential harness
//! (`tests/differential_mapping.rs`) asserts that
//! [`detect_t1_reference`] and [`crate::detect_t1`] produce bit-identical
//! detections (same found/used counts, same committed groups, same rewritten
//! network) on every benchmark generator and on random AIGs; any divergence
//! is a bug in the fast path.
//!
//! Do not optimize this module: its value is being obviously correct.

use crate::detect::{T1Detection, T1Group};
use sfq_netlist::{enumerate_cuts, CellId, CellKind, CutConfig, Library, Network, Signal, T1Port};
use sfq_tt::T1MatchDb;
use std::collections::{HashMap, HashSet};

/// Reference detector: same contract and bit-identical output as
/// [`crate::detect_t1`], slower on large networks.
pub fn detect_t1_reference(net: &Network, lib: &Library, cut_config: &CutConfig) -> T1Detection {
    detect_t1_with_threshold_reference(net, lib, cut_config, 0)
}

/// [`detect_t1_reference`] with an explicit gain cutoff, mirroring
/// [`crate::detect_t1_with_threshold`].
pub fn detect_t1_with_threshold_reference(
    net: &Network,
    lib: &Library,
    cut_config: &CutConfig,
    threshold: i64,
) -> T1Detection {
    let db = T1MatchDb::new();
    let cuts = enumerate_cuts(net, cut_config);
    let refs = sfq_netlist::mffc::reference_counts(net);

    // ---- collect matches grouped by (leaves, mask) -----------------------
    #[derive(Debug)]
    struct Entry {
        root: CellId,
        port: T1Port,
    }
    let mut groups: HashMap<([Signal; 3], u8), Vec<Entry>> = HashMap::new();
    for id in net.cell_ids() {
        if !matches!(net.kind(id), CellKind::Gate(_)) {
            continue;
        }
        let mut seen_leafsets: HashSet<[Signal; 3]> = HashSet::new();
        for cut in cuts.of(id) {
            if cut.num_leaves() != 3 {
                continue;
            }
            let l: Vec<Signal> = cut.leaves().collect();
            let leaves: [Signal; 3] = [l[0], l[1], l[2]];
            if !seen_leafsets.insert(leaves) {
                continue; // same leaf set reached through another cut shape
            }
            for (mask, m) in db.all_masks(&cut.tt()) {
                // S has no complement pin (see sfq-tt docs).
                let Some(port) = T1Port::for_match(m.base, m.output_negated) else {
                    continue;
                };
                groups
                    .entry((leaves, mask))
                    .or_default()
                    .push(Entry { root: id, port });
            }
        }
    }

    // ---- evaluate candidates ---------------------------------------------
    struct Candidate {
        group: T1Group,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for ((leaves, mask), entries) in groups {
        // Assign ports: first root wins a port; later roots with the same
        // port share it only if they are *distinct* cells (duplicate logic).
        let mut port_owner: HashMap<u8, Vec<CellId>> = HashMap::new();
        for e in &entries {
            let owners = port_owner.entry(e.port.index()).or_default();
            if !owners.contains(&e.root) {
                owners.push(e.root);
            }
        }
        let mut roots: Vec<(CellId, T1Port)> = Vec::new();
        let mut used_ports = 0u8;
        let mut port_list: Vec<(u8, Vec<CellId>)> = port_owner.into_iter().collect();
        port_list.sort_by_key(|&(p, _)| p);
        for (pidx, owners) in port_list {
            used_ports |= 1 << pidx;
            for r in owners {
                roots.push((r, T1Port::from_index(pidx)));
            }
        }
        // A root matched on several ports (impossible: one function per
        // node per leaf set) — and the paper requires ≥ 2 cuts per group.
        let distinct_roots: HashSet<CellId> = roots.iter().map(|&(r, _)| r).collect();
        if distinct_roots.len() < 2 {
            continue;
        }

        // Joint MFFC of all roots, with leaves pinned alive.
        let leaf_cells: HashSet<CellId> = leaves.iter().map(|l| l.cell).collect();
        let (cone, cone_area) = group_mffc(net, &distinct_roots, &leaf_cells, &refs, lib);

        let t1_cost = lib.t1_area(used_ports) as i64 + (mask.count_ones() as i64) * lib.inv as i64;
        let gain = cone_area as i64 - t1_cost;
        if gain <= threshold {
            continue;
        }
        let dead: Vec<CellId> = cone
            .into_iter()
            .filter(|c| !distinct_roots.contains(c))
            .collect();
        candidates.push(Candidate {
            group: T1Group {
                leaves,
                input_mask: mask,
                roots,
                used_ports,
                gain,
                dead,
            },
        });
    }
    let found = candidates.len();

    // ---- greedy non-overlapping commit ------------------------------------
    candidates.sort_by(|a, b| {
        b.group
            .gain
            .cmp(&a.group.gain)
            .then_with(|| a.group.leaves.cmp(&b.group.leaves))
            .then_with(|| a.group.input_mask.cmp(&b.group.input_mask))
    });
    let mut claimed_dead: HashSet<CellId> = HashSet::new();
    let mut used_roots: HashSet<CellId> = HashSet::new();
    let mut needed_alive: HashSet<CellId> = HashSet::new();
    let mut committed: Vec<T1Group> = Vec::new();
    for cand in candidates {
        let g = &cand.group;
        let roots: HashSet<CellId> = g.roots.iter().map(|&(r, _)| r).collect();
        let conflict = roots
            .iter()
            .any(|r| used_roots.contains(r) || claimed_dead.contains(r))
            || g.dead.iter().any(|c| {
                claimed_dead.contains(c) || used_roots.contains(c) || needed_alive.contains(c)
            })
            || roots.iter().any(|r| needed_alive.contains(r))
            || g.leaves.iter().any(|l| claimed_dead.contains(&l.cell))
            || g.dead.iter().any(|c| g.leaves.iter().any(|l| l.cell == *c));
        if conflict {
            continue;
        }
        claimed_dead.extend(g.dead.iter().copied());
        used_roots.extend(roots.iter().copied());
        for l in &g.leaves {
            needed_alive.insert(l.cell);
        }
        committed.push(cand.group);
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

/// Joint MFFC of several roots with pinned leaves: the set of cells that die
/// when all roots are replaced, never crossing leaves, inputs, or non-gate
/// cells. Returns the cone (roots included) and the area of its cells.
fn group_mffc(
    net: &Network,
    roots: &HashSet<CellId>,
    pinned: &HashSet<CellId>,
    refs: &[u32],
    lib: &Library,
) -> (Vec<CellId>, u64) {
    let mut taken: HashMap<CellId, u32> = HashMap::new();
    let mut cone: Vec<CellId> = roots.iter().copied().collect();
    cone.sort();
    let mut stack = cone.clone();
    let mut in_cone: HashSet<CellId> = roots.clone();
    while let Some(id) = stack.pop() {
        for f in net.fanins(id) {
            let d = f.cell;
            if pinned.contains(&d) || roots.contains(&d) || in_cone.contains(&d) {
                continue;
            }
            let t = taken.entry(d).or_insert(0);
            *t += 1;
            if *t == refs[d.0 as usize] && matches!(net.kind(d), CellKind::Gate(_)) {
                cone.push(d);
                in_cone.insert(d);
                stack.push(d);
            }
        }
    }
    let area = cone.iter().map(|&c| lib.cell_area(net.kind(c))).sum();
    (cone, area)
}

/// The complement of `base` in the network under construction: when `base`
/// is a complementable T1 port (`C ↔ C*+INV`, `Q ↔ Q*+INV`), enable and use
/// the twin port — same stage, no extra pipeline level; otherwise a shared
/// clocked inverter cell.
fn negated_signal(
    out: &mut Network,
    base: Signal,
    inv_cache: &mut HashMap<Signal, Signal>,
) -> Signal {
    if out.kind(base.cell).is_t1() {
        if let Some(twin) = T1Port::from_index(base.port).complement() {
            return out.enable_t1_port(base.cell, twin);
        }
    }
    *inv_cache
        .entry(base)
        .or_insert_with(|| out.add_gate(sfq_netlist::GateKind::Inv, &[base]))
}

fn rebuild(net: &Network, groups: &[T1Group], dead: &HashSet<CellId>) -> Network {
    let order = net.topological_order().expect("subject network is acyclic");
    let mut out = Network::new(net.name().to_string());
    // old signal → new signal (roots map to T1 ports).
    let mut remap: HashMap<Signal, Signal> = HashMap::new();
    // first root (in topo order) of each group triggers materialization.
    let mut group_of_root: HashMap<CellId, usize> = HashMap::new();
    for (gi, g) in groups.iter().enumerate() {
        for &(r, _) in &g.roots {
            group_of_root.insert(r, gi);
        }
    }
    let mut materialized: Vec<Option<CellId>> = vec![None; groups.len()];
    // Shared input inverters: (leaf signal) → INV output in the new network.
    let mut inv_cache: HashMap<Signal, Signal> = HashMap::new();

    let mut inputs_done = 0usize;
    for id in order {
        let old_kind = net.kind(id);
        if dead.contains(&id) {
            continue;
        }
        if let Some(&gi) = group_of_root.get(&id) {
            // Materialize the T1 cell once, then map this root to its port.
            if materialized[gi].is_none() {
                let g = &groups[gi];
                let mut fanins: Vec<Signal> = Vec::with_capacity(3);
                for (li, leaf) in g.leaves.iter().enumerate() {
                    let base = *remap.get(leaf).unwrap_or_else(|| {
                        panic!("leaf {leaf:?} must precede root in topological order")
                    });
                    if g.input_mask >> li & 1 == 1 {
                        fanins.push(negated_signal(&mut out, base, &mut inv_cache));
                    } else {
                        fanins.push(base);
                    }
                }
                materialized[gi] = Some(out.add_t1(g.used_ports, &fanins));
            }
            let t1 = materialized[gi].unwrap();
            let g = &groups[gi];
            let port = g
                .roots
                .iter()
                .find(|&&(r, _)| r == id)
                .map(|&(_, p)| p)
                .expect("root registered in its group");
            remap.insert(Signal::from_cell(id), Signal::t1(t1, port));
            continue;
        }
        // Ordinary copy.
        match old_kind {
            CellKind::Input => {
                let k = inputs_done;
                inputs_done += 1;
                let s = out.add_input(net.input_name(k).to_string());
                remap.insert(Signal::from_cell(id), s);
            }
            CellKind::Gate(gk) => {
                let fanins: Vec<Signal> = net.fanins(id).iter().map(|f| remap[f]).collect();
                let s = out.add_gate(gk, &fanins);
                remap.insert(Signal::from_cell(id), s);
            }
            CellKind::T1 { used_ports } => {
                let fanins: Vec<Signal> = net.fanins(id).iter().map(|f| remap[f]).collect();
                let new_id = out.add_t1(used_ports, &fanins);
                for port in T1Port::ALL {
                    if used_ports >> port.index() & 1 == 1 {
                        remap.insert(Signal::t1(id, port), Signal::t1(new_id, port));
                    }
                }
            }
            CellKind::Dff => {
                let fanins: Vec<Signal> = net.fanins(id).iter().map(|f| remap[f]).collect();
                let s = out.add_dff(fanins[0]);
                remap.insert(Signal::from_cell(id), s);
            }
        }
    }
    for (k, o) in net.outputs().iter().enumerate() {
        let s = remap[o];
        out.add_output(net.output_name(k).to_string(), s);
    }
    out
}
