//! Maximum fanout-free cones.
//!
//! The MFFC of a root cell is the set of cells whose every path to a primary
//! output passes through the root: exactly the logic that dies when the root
//! is replaced. T1 detection prices candidate replacements with
//! `ΔA = Σ A(MFFC(uᵢ)) − A_T1(C)` (paper eq. 2), so correct MFFC extent is
//! what makes the gain model sound.

use crate::cell::CellKind;
use crate::network::{CellId, Network};
use crate::Library;
use std::collections::HashMap;

/// Total fanout-reference count per cell (all ports, plus primary-output
/// references). This is the reference state [`mffc_nodes`] decrements.
pub fn reference_counts(net: &Network) -> Vec<u32> {
    let mut refs = vec![0u32; net.num_cells()];
    for id in net.cell_ids() {
        for f in net.fanins(id) {
            refs[f.cell.0 as usize] += 1;
        }
    }
    for o in net.outputs() {
        refs[o.cell.0 as usize] += 1;
    }
    refs
}

/// Computes the MFFC of `root`: the root plus every *gate* cell that becomes
/// dead when the root is removed. Primary inputs, DFFs and T1 cells are never
/// pulled into a cone.
///
/// `refs` must come from [`reference_counts`] on the same network; the
/// function does not mutate it (decrements are tracked locally), so one
/// precomputed vector serves many queries.
pub fn mffc_nodes(net: &Network, root: CellId, refs: &[u32]) -> Vec<CellId> {
    let mut taken: HashMap<CellId, u32> = HashMap::new();
    let mut cone = vec![root];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for f in net.fanins(id) {
            let d = f.cell;
            let t = taken.entry(d).or_insert(0);
            *t += 1;
            if *t == refs[d.0 as usize] && matches!(net.kind(d), CellKind::Gate(_)) {
                cone.push(d);
                stack.push(d);
            }
        }
    }
    cone
}

/// Area (in JJs) of the cells inside `root`'s MFFC.
///
/// Interior splitter trees are *not* counted here — the gain model follows
/// the paper's eq. 2, which sums node areas; splitter effects are reflected
/// in the final netlist statistics instead.
pub fn mffc_area(net: &Network, root: CellId, refs: &[u32], lib: &Library) -> u64 {
    mffc_nodes(net, root, refs)
        .iter()
        .map(|&id| lib.cell_area(net.kind(id)))
        .sum()
}
