use crate::aig::Aig;
use crate::aiger::{read_aag, write_aag};
use crate::cell::{CellKind, GateKind, Library, T1Port};
use crate::cuts::{enumerate_cuts, CutConfig};
use crate::mapper::map_aig;
use crate::mffc::{mffc_area, mffc_nodes, reference_counts};
use crate::network::{Network, NetworkError, Signal};
use proptest::prelude::*;
use sfq_tt::TruthTable;

// ---------------------------------------------------------------- AIG ----

#[test]
fn aig_constant_folding() {
    let mut aig = Aig::new("fold");
    let a = aig.input("a");
    assert_eq!(aig.and(a, aig.const_false()), aig.const_false());
    assert_eq!(aig.and(a, aig.const_true()), a);
    assert_eq!(aig.and(a, a), a);
    assert_eq!(aig.and(a, !a), aig.const_false());
    assert_eq!(aig.num_ands(), 0);
}

#[test]
fn aig_structural_hashing() {
    let mut aig = Aig::new("strash");
    let a = aig.input("a");
    let b = aig.input("b");
    let x = aig.and(a, b);
    let y = aig.and(b, a);
    assert_eq!(x, y);
    assert_eq!(aig.num_ands(), 1);
}

#[test]
fn aig_full_adder_function() {
    let mut aig = Aig::new("fa");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let (s, co) = aig.full_adder(a, b, c);
    aig.output("s", s);
    aig.output("co", co);
    // Exhaustive 8-row check via bit-parallel simulation.
    let pa = 0b10101010u64;
    let pb = 0b11001100u64;
    let pc = 0b11110000u64;
    let out = aig.simulate(&[pa, pb, pc]);
    assert_eq!(out[0] & 0xFF, (pa ^ pb ^ pc) & 0xFF);
    assert_eq!(out[1] & 0xFF, ((pa & pb) | (pa & pc) | (pb & pc)) & 0xFF);
}

#[test]
fn aig_levels_and_depth() {
    let mut aig = Aig::new("depth");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let t = aig.and(a, b);
    let u = aig.and(t, c);
    aig.output("u", u);
    assert_eq!(aig.depth(), 2);
    // XOR adds two levels (OR of two ANDs).
    let mut aig2 = Aig::new("x");
    let a = aig2.input("a");
    let b = aig2.input("b");
    let x = aig2.xor(a, b);
    aig2.output("x", x);
    assert_eq!(aig2.depth(), 2);
}

#[test]
fn aig_live_node_count() {
    let mut aig = Aig::new("dead");
    let a = aig.input("a");
    let b = aig.input("b");
    let live = aig.and(a, b);
    let _dead = aig.or(a, b); // never used by an output
    aig.output("f", live);
    assert_eq!(aig.num_live_ands(), 1);
    assert!(aig.num_ands() > aig.num_live_ands());
}

#[test]
fn aiger_roundtrip_preserves_function() {
    let mut aig = Aig::new("rt");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let (s, co) = aig.full_adder(a, b, c);
    let g = aig.mux(s, co, c);
    aig.output("s", s);
    aig.output("g", g);

    let mut buf = Vec::new();
    write_aag(&aig, &mut buf).unwrap();
    let back = read_aag(std::io::Cursor::new(&buf), "rt2").unwrap();
    assert_eq!(back.num_inputs(), 3);
    assert_eq!(back.num_outputs(), 2);
    let pats = [
        0xDEADBEEF12345678u64,
        0x0F0F33555AA5C3C3,
        0x123456789ABCDEF0,
    ];
    assert_eq!(aig.simulate(&pats), back.simulate(&pats));
}

#[test]
fn aiger_rejects_garbage() {
    assert!(read_aag(std::io::Cursor::new(b"not an aiger" as &[u8]), "x").is_err());
    assert!(read_aag(std::io::Cursor::new(b"aag 1 1 1 0 0\n2\n" as &[u8]), "x").is_err());
}

#[test]
fn aiger_symbol_table_restores_names() {
    let mut aig = Aig::new("named");
    let a = aig.input("op_a");
    let b = aig.input("op_b");
    let s = aig.xor(a, b);
    let c = aig.and(a, b);
    aig.output("sum", s);
    aig.output("carry", c);

    let mut buf = Vec::new();
    write_aag(&aig, &mut buf).unwrap();
    // `read_aag` must keep the symbol table, not drop it: names and the
    // design name (first comment line) survive the round trip.
    let back = read_aag(buf.as_slice(), "fallback").unwrap();
    assert_eq!(back.name(), "named");
    assert_eq!(back.input_name(0), "op_a");
    assert_eq!(back.input_name(1), "op_b");
    assert_eq!(back.output_name(0), "sum");
    assert_eq!(back.output_name(1), "carry");

    // Byte-level fixpoint: write → read → write is the identity.
    let mut buf2 = Vec::new();
    write_aag(&back, &mut buf2).unwrap();
    assert_eq!(buf, buf2, "write→read→write must be byte-identical");
}

#[test]
fn aiger_partial_symbols_fall_back_to_positional_names() {
    let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni1 beta\n";
    let aig = read_aag(src.as_bytes(), "part").unwrap();
    assert_eq!(aig.name(), "part", "no comment section keeps fallback name");
    assert_eq!(aig.input_name(0), "i0");
    assert_eq!(aig.input_name(1), "beta");
    assert_eq!(aig.output_name(0), "o0");
}

#[test]
fn aiger_tolerates_trailing_blank_lines() {
    // Editor-appended blank lines around the symbol table are not symbol
    // lines; external files carry them routinely.
    let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n\ni0 alpha\n\nc\nblanky\n\n";
    let aig = read_aag(src.as_bytes(), "x").unwrap();
    assert_eq!(aig.input_name(0), "alpha");
    assert_eq!(aig.name(), "blanky");
}

#[test]
fn aiger_rejects_malformed_symbol_lines() {
    let body = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
    for (sym, why) in [
        ("i0\n", "symbol without a name"),
        ("i0 \n", "empty symbol name"),
        ("i9 x\n", "symbol position out of range"),
        ("o1 x\n", "output symbol position out of range"),
        ("q0 x\n", "unknown symbol kind"),
        ("i0 a\ni0 b\n", "duplicate symbol"),
        ("ix x\n", "non-numeric symbol position"),
        ("l0 x\n", "latch symbol in a combinational file"),
    ] {
        let text = format!("{body}{sym}");
        assert!(
            read_aag(text.as_bytes(), "x").is_err(),
            "accepted {why}: {sym:?}"
        );
    }
}

#[test]
fn aiger_rejects_invalid_definitions() {
    for (src, why) in [
        ("aag 3 2 0 1 1\n3\n4\n6\n6 2 4\n", "odd input literal"),
        ("aag 3 2 0 1 1\n2\n2\n6\n6 2 4\n", "duplicate input literal"),
        ("aag 3 2 0 1 1\n2\n8\n6\n6 2 4\n", "input literal beyond m"),
        (
            "aag 3 2 0 1 1\n0\n4\n6\n6 2 4\n",
            "constant as input literal",
        ),
        ("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n", "odd and definition"),
        ("aag 3 2 0 1 1\n2\n4\n6\n4 2 4\n", "and clobbers an input"),
        ("aag 3 2 0 1 1\n2\n4\n6\n8 2 4\n", "and literal beyond m"),
        ("aag 3 2 0 1 1\n2\n4\n9\n6 2 4\n", "output literal beyond m"),
        ("aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n", "header bound too small"),
    ] {
        assert!(read_aag(src.as_bytes(), "x").is_err(), "accepted {why}");
    }
    // The well-formed sibling of the rejected files parses.
    let ok = read_aag("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n".as_bytes(), "ok").unwrap();
    assert_eq!(ok.num_inputs(), 2);
    assert_eq!(ok.num_outputs(), 1);
}

// ------------------------------------------------------------ Network ----

fn full_adder_net() -> Network {
    // Conventional mapped FA: s = (a⊕b)⊕c, co = ab ∨ (a⊕b)c.
    let mut net = Network::new("fa");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let axb = net.add_gate(GateKind::Xor2, &[a, b]);
    let s = net.add_gate(GateKind::Xor2, &[axb, c]);
    let ab = net.add_gate(GateKind::And2, &[a, b]);
    let t = net.add_gate(GateKind::And2, &[axb, c]);
    let co = net.add_gate(GateKind::Or2, &[ab, t]);
    net.add_output("s", s);
    net.add_output("co", co);
    net
}

#[test]
fn network_validate_ok() {
    full_adder_net().validate().unwrap();
}

#[test]
fn network_validate_catches_bad_port() {
    let mut net = Network::new("bad");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let g = net.add_gate(GateKind::And2, &[a, b]);
    // Reference a non-existent port 3 of a plain gate.
    let bogus = Signal {
        cell: g.cell,
        port: 3,
    };
    net.add_output("f", bogus);
    assert!(matches!(
        net.validate(),
        Err(NetworkError::BadOutput { .. })
    ));
}

#[test]
fn network_validate_catches_unused_t1_port() {
    let mut net = Network::new("t1bad");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let t1 = net.add_t1(0b00001, &[a, b, c]); // only S used
    net.add_output("s", Signal::t1(t1, T1Port::S));
    net.validate().unwrap();
    let mut bad = net.clone();
    bad.add_output("carry", Signal::t1(t1, T1Port::C)); // C not in mask
    assert!(matches!(
        bad.validate(),
        Err(NetworkError::BadOutput { .. })
    ));
}

#[test]
fn network_simulation_matches_boolean_function() {
    let net = full_adder_net();
    let pa = 0xAAAA_AAAA_AAAA_AAAAu64;
    let pb = 0xCCCC_CCCC_CCCC_CCCCu64;
    let pc = 0xF0F0_F0F0_F0F0_F0F0u64;
    let out = net.simulate(&[pa, pb, pc]);
    assert_eq!(out[0], pa ^ pb ^ pc);
    assert_eq!(out[1], (pa & pb) | (pa & pc) | (pb & pc));
}

#[test]
fn network_t1_simulation_ports() {
    let mut net = Network::new("t1");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let t1 = net.add_t1(0b11111, &[a, b, c]);
    for port in T1Port::ALL {
        net.add_output(format!("{port}"), Signal::t1(t1, port));
    }
    let pa = 0xAAu64;
    let pb = 0xCCu64;
    let pc = 0xF0u64;
    let out = net.simulate(&[pa, pb, pc]);
    let maj = (pa & pb) | (pa & pc) | (pb & pc);
    let or3 = pa | pb | pc;
    assert_eq!(out[0] & 0xFF, (pa ^ pb ^ pc) & 0xFF);
    assert_eq!(out[1] & 0xFF, maj & 0xFF);
    assert_eq!(out[2] & 0xFF, or3 & 0xFF);
    assert_eq!(out[3] & 0xFF, !maj & 0xFF);
    assert_eq!(out[4] & 0xFF, !or3 & 0xFF);
}

#[test]
fn network_area_counts_cells_and_splitters() {
    let lib = Library::default();
    let net = full_adder_net();
    // Gates: 2×XOR2 + 2×AND2 + OR2 = 22 + 22 + 9 = 53.
    // Fanouts: a→2, b→2, c→2, axb→2 ⇒ 4 splitters = 12.
    assert_eq!(net.area(&lib), 53 + 12);
}

#[test]
fn network_depth() {
    let net = full_adder_net();
    assert_eq!(net.depth(), 3); // xor→xor for sum; xor→and→or for carry
}

#[test]
fn network_cleaned_removes_dead_cells() {
    let mut net = full_adder_net();
    let a = Signal::from_cell(net.inputs()[0]);
    let dead = net.add_gate(GateKind::Inv, &[a]);
    let _dead2 = net.add_gate(GateKind::Inv, &[dead]);
    let (clean, removed) = net.cleaned();
    assert_eq!(removed, 2);
    clean.validate().unwrap();
    assert_eq!(clean.num_gates(), 5);
    // Function unchanged.
    let pats = [0x12345678u64, 0x9ABCDEF0, 0x0F0F0F0F];
    assert_eq!(net.simulate(&pats), clean.simulate(&pats));
}

#[test]
fn cone_function_extracts_local_tt() {
    let net = full_adder_net();
    // Cells: 0,1,2 inputs; 3 = a⊕b; 4 = (a⊕b)⊕c; 6 = (a⊕b)·c
    let a = Signal::from_cell(net.inputs()[0]);
    let b = Signal::from_cell(net.inputs()[1]);
    let c = Signal::from_cell(net.inputs()[2]);
    let s = net.outputs()[0];
    let tt = net.cone_function(s, &[a, b, c]);
    assert_eq!(tt, TruthTable::xor3());
    let co = net.outputs()[1];
    assert_eq!(net.cone_function(co, &[a, b, c]), TruthTable::maj3());
}

// --------------------------------------------------------------- cuts ----

#[test]
fn cuts_find_xor3_and_maj3_in_full_adder() {
    let net = full_adder_net();
    let cuts = enumerate_cuts(&net, &CutConfig::default());
    let a = Signal::from_cell(net.inputs()[0]);
    let b = Signal::from_cell(net.inputs()[1]);
    let c = Signal::from_cell(net.inputs()[2]);
    let mut leaves = vec![a, b, c];
    leaves.sort();

    let s_cell = net.outputs()[0].cell;
    let co_cell = net.outputs()[1].cell;
    let s_cut = cuts
        .of(s_cell)
        .iter()
        .find(|cut| cut.leaves == leaves)
        .expect("xor3 cut");
    assert_eq!(s_cut.tt, TruthTable::xor3());
    let co_cut = cuts
        .of(co_cell)
        .iter()
        .find(|cut| cut.leaves == leaves)
        .expect("maj3 cut");
    assert_eq!(co_cut.tt, TruthTable::maj3());
}

#[test]
fn cuts_trivial_always_first() {
    let net = full_adder_net();
    let cuts = enumerate_cuts(&net, &CutConfig::default());
    for id in net.cell_ids() {
        let cs = cuts.of(id);
        assert!(!cs.is_empty());
        assert_eq!(cs[0].leaves, vec![Signal::from_cell(id)]);
        assert_eq!(cs[0].tt, TruthTable::var(1, 0));
    }
}

#[test]
fn cuts_respect_leaf_budget() {
    // A 4-input cone: cuts must never exceed 3 leaves under default config.
    let mut net = Network::new("wide");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let d = net.add_input("d");
    let ab = net.add_gate(GateKind::And2, &[a, b]);
    let cd = net.add_gate(GateKind::And2, &[c, d]);
    let f = net.add_gate(GateKind::And2, &[ab, cd]);
    net.add_output("f", f);
    let cuts = enumerate_cuts(&net, &CutConfig::default());
    for id in net.cell_ids() {
        for cut in cuts.of(id) {
            assert!(cut.leaves.len() <= 3);
        }
    }
    // The 4-leaf cut {a,b,c,d} must be absent from f's set.
    let f_cuts = cuts.of(f.cell);
    assert!(f_cuts.iter().all(|cut| cut.leaves.len() <= 3));
    // But {ab, cd} is there with an AND function.
    let mut pair = vec![ab, cd];
    pair.sort();
    let found = f_cuts.iter().find(|cut| cut.leaves == pair).unwrap();
    assert_eq!(found.tt, TruthTable::var(2, 0) & TruthTable::var(2, 1));
}

#[test]
fn cuts_tt_matches_cone_function() {
    let net = full_adder_net();
    let cuts = enumerate_cuts(&net, &CutConfig::default());
    for id in net.cell_ids() {
        if !matches!(net.kind(id), CellKind::Gate(_)) {
            continue;
        }
        for cut in cuts.of(id) {
            let direct = net.cone_function(Signal::from_cell(id), &cut.leaves);
            assert_eq!(direct, cut.tt, "cut tt mismatch at c{}", id.0);
        }
    }
}

// --------------------------------------------------------------- mffc ----

#[test]
fn mffc_of_single_fanout_chain() {
    let net = full_adder_net();
    let refs = reference_counts(&net);
    // The sum output cell's MFFC is just the output XOR (axb is shared with
    // the carry AND).
    let s_cell = net.outputs()[0].cell;
    let cone = mffc_nodes(&net, s_cell, &refs);
    assert_eq!(cone.len(), 1);
    // The carry OR's MFFC contains or, both ANDs — but not the shared XOR.
    let co_cell = net.outputs()[1].cell;
    let mut cone = mffc_nodes(&net, co_cell, &refs);
    cone.sort();
    assert_eq!(cone.len(), 3);
}

#[test]
fn mffc_area_sums_cells() {
    let lib = Library::default();
    let net = full_adder_net();
    let refs = reference_counts(&net);
    let co_cell = net.outputs()[1].cell;
    // or2 + and2 + and2 = 9 + 11 + 11.
    assert_eq!(mffc_area(&net, co_cell, &refs, &lib), 31);
}

#[test]
fn mffc_never_contains_inputs() {
    let net = full_adder_net();
    let refs = reference_counts(&net);
    for id in net.cell_ids() {
        if matches!(net.kind(id), CellKind::Gate(_)) {
            for n in mffc_nodes(&net, id, &refs) {
                assert!(matches!(net.kind(n), CellKind::Gate(_)));
            }
        }
    }
}

// ------------------------------------------------------------- mapper ----

#[test]
fn mapper_collapses_xor_pattern() {
    let mut aig = Aig::new("x");
    let a = aig.input("a");
    let b = aig.input("b");
    let x = aig.xor(a, b);
    aig.output("x", x);
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    assert_eq!(net.num_gates(), 1);
    assert!(matches!(
        net.kind(net.outputs()[0].cell),
        CellKind::Gate(GateKind::Xor2)
    ));
}

#[test]
fn mapper_handles_negated_output() {
    let mut aig = Aig::new("nand");
    let a = aig.input("a");
    let b = aig.input("b");
    let x = aig.and(a, b);
    aig.output("f", !x);
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    assert_eq!(net.num_gates(), 1);
    assert!(matches!(
        net.kind(net.outputs()[0].cell),
        CellKind::Gate(GateKind::Nand2)
    ));
}

#[test]
fn mapper_preserves_function_full_adder() {
    let mut aig = Aig::new("fa");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let (s, co) = aig.full_adder(a, b, c);
    aig.output("s", s);
    aig.output("co", co);
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    let pats = [
        0x123456789ABCDEF0u64,
        0xFEDCBA9876543210,
        0x0F1E2D3C4B5A6978,
    ];
    assert_eq!(aig.simulate(&pats), net.simulate(&pats));
}

#[test]
fn mapper_passes_through_input_outputs() {
    let mut aig = Aig::new("wire");
    let a = aig.input("a");
    let b = aig.input("b");
    aig.output("a_again", a);
    aig.output("not_b", !b);
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    assert_eq!(net.num_gates(), 1); // only the INV for !b
    let pats = [0x5555u64, 0x3333];
    let out = net.simulate(&pats);
    assert_eq!(out[0], 0x5555);
    assert_eq!(out[1], !0x3333u64);
}

/// The single-cell-per-node discipline: the cover must never materialize a
/// gate and its complement over identical fanins (that duplication is what
/// destroyed the multiplier's T1-detectable FA boundaries).
#[test]
fn mapper_never_duplicates_a_node_in_both_polarities() {
    fn complement(g: GateKind) -> GateKind {
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
    let aig = sample_multiplier(4);
    let net = map_aig(&aig, &Library::default());
    let mut seen: std::collections::HashMap<Vec<Signal>, Vec<GateKind>> =
        std::collections::HashMap::new();
    for id in net.cell_ids() {
        if let CellKind::Gate(g) = net.kind(id) {
            let mut fanins = net.fanins(id).to_vec();
            fanins.sort();
            let kinds = seen.entry(fanins).or_default();
            assert!(
                !kinds.contains(&g) && !kinds.contains(&complement(g)),
                "cell c{} duplicates {g:?} (or its complement) over shared fanins",
                id.0
            );
            kinds.push(g);
        }
    }
}

/// Builds a small array multiplier without depending on sfq-circuits
/// (netlist cannot depend on it — circuits depends on netlist).
fn sample_multiplier(bits: usize) -> Aig {
    let mut aig = Aig::new("mult_local");
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let w = 2 * bits;
    let mut cols: Vec<Vec<crate::aig::AigLit>> = vec![Vec::new(); w];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let pp = aig.and(ai, bj);
            cols[i + j].push(pp);
        }
    }
    let mut carry_in: Vec<crate::aig::AigLit> = Vec::new();
    let mut product = Vec::with_capacity(w);
    for col in cols.iter_mut() {
        col.append(&mut carry_in);
        while col.len() > 1 {
            if col.len() >= 3 {
                let (s, c) = {
                    let (x, y, z) = (col.remove(0), col.remove(0), col.remove(0));
                    aig.full_adder(x, y, z)
                };
                col.push(s);
                carry_in.push(c);
            } else {
                let (x, y) = (col.remove(0), col.remove(0));
                let (s, c) = aig.half_adder(x, y);
                col.push(s);
                carry_in.push(c);
            }
        }
        product.push(col.first().copied().unwrap_or(crate::aig::AigLit::FALSE));
    }
    aig.output_word("p", &product);
    aig
}

/// Constant outputs (bit 1 of a squarer is 0 for every input) map to live
/// logic, not to a panic or a dangling net.
#[test]
fn mapper_materializes_constant_outputs() {
    let mut aig = Aig::new("consts");
    let a = aig.input("a");
    let b = aig.input("b");
    let x = aig.and(a, b);
    aig.output("f", x);
    aig.output("zero", aig.const_false());
    aig.output("one", aig.const_true());
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    let pats = [0xFFFF_0000_FFFF_0000u64, 0xAAAA_AAAA_5555_5555];
    let out = net.simulate(&pats);
    assert_eq!(out[0], pats[0] & pats[1]);
    assert_eq!(out[1], 0, "constant-0 output");
    assert_eq!(out[2], u64::MAX, "constant-1 output");
}

/// A node demanded in both polarities gets one gate plus one shared INV —
/// never two gates.
#[test]
fn mapper_shares_inverter_on_dual_polarity_demand() {
    let mut aig = Aig::new("dual");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let x = aig.and(a, b);
    let y = aig.and(x, c); // positive use of x
    aig.output("y", y);
    aig.output("nx", !x); // complemented use of x
    aig.output("nx2", !x); // second complemented use — same INV
    let net = map_aig(&aig, &Library::default());
    net.validate().unwrap();
    let inversions = net
        .cell_ids()
        .filter(|&id| matches!(net.kind(id), CellKind::Gate(GateKind::Inv)))
        .count();
    assert_eq!(inversions, 1, "one shared INV for both complemented uses");
    assert_eq!(net.num_gates(), 3); // AND(a,b), AND(x,c), INV(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random 3-level AIGs: mapping must preserve the function exactly.
    #[test]
    fn prop_mapper_equivalence(ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..12, prop::bool::ANY, prop::bool::ANY), 1..40)) {
        let mut aig = Aig::new("rand");
        let mut pool: Vec<crate::aig::AigLit> = (0..4).map(|i| aig.input(format!("x{i}"))).collect();
        for (op, ia, ib, na, nb) in ops {
            let a = pool[ia % pool.len()];
            let b = pool[ib % pool.len()];
            let a = if na { !a } else { a };
            let b = if nb { !b } else { b };
            let r = match op {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(r);
        }
        let f = *pool.last().unwrap();
        prop_assume!(!f.is_constant());
        aig.output("f", f);
        let net = map_aig(&aig, &Library::default());
        net.validate().unwrap();
        let pats = [0xAAAA_AAAA_AAAA_AAAAu64, 0xCCCC_CCCC_CCCC_CCCC,
                    0xF0F0_F0F0_F0F0_F0F0, 0xFF00_FF00_FF00_FF00];
        prop_assert_eq!(aig.simulate(&pats), net.simulate(&pats));
    }

    /// BLIF round trip: map → render → parse must preserve the function.
    #[test]
    fn prop_blif_round_trip(ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..12, prop::bool::ANY, prop::bool::ANY), 1..40)) {
        let mut aig = Aig::new("rt");
        let mut pool: Vec<crate::aig::AigLit> = (0..4).map(|i| aig.input(format!("x{i}"))).collect();
        for (op, ia, ib, na, nb) in ops {
            let a = pool[ia % pool.len()];
            let b = pool[ib % pool.len()];
            let a = if na { !a } else { a };
            let b = if nb { !b } else { b };
            let r = match op {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(r);
        }
        let f = *pool.last().unwrap();
        prop_assume!(!f.is_constant());
        aig.output("f", f);
        aig.output("g", !f);
        let net = map_aig(&aig, &Library::default());
        let text = crate::export::render_blif(&net);
        let back = crate::blif::parse_blif(&text).expect("exported blif parses");
        prop_assert_eq!(back.num_inputs(), aig.num_inputs());
        prop_assert_eq!(back.num_outputs(), aig.num_outputs());
        let pats = [0xAAAA_AAAA_AAAA_AAAAu64, 0xCCCC_CCCC_CCCC_CCCC,
                    0xF0F0_F0F0_F0F0_F0F0, 0xFF00_FF00_FF00_FF00];
        prop_assert_eq!(aig.simulate(&pats), back.simulate(&pats));
    }

    /// AIGER round trip on the same family of random AIGs.
    #[test]
    fn prop_aiger_round_trip(ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..12, prop::bool::ANY), 1..40)) {
        let mut aig = Aig::new("rt");
        let mut pool: Vec<crate::aig::AigLit> = (0..4).map(|i| aig.input(format!("x{i}"))).collect();
        for (op, ia, ib, na) in ops {
            let a = pool[ia % pool.len()];
            let b = pool[ib % pool.len()];
            let a = if na { !a } else { a };
            let r = match op {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(r);
        }
        let f = *pool.last().unwrap();
        aig.output("f", f);
        let mut buf = Vec::new();
        write_aag(&aig, &mut buf).expect("write to memory");
        let back = read_aag(buf.as_slice(), "rt").expect("written aag parses");
        let pats = [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210,
                    0xDEAD_BEEF_CAFE_F00D, 0x0F0F_0F0F_0F0F_0F0F];
        prop_assert_eq!(aig.simulate(&pats), back.simulate(&pats));
    }

    /// Cut truth tables always agree with direct cone evaluation.
    #[test]
    fn prop_cut_tts_sound(ops in proptest::collection::vec((0u8..3, 0usize..10, 0usize..10), 1..25)) {
        let mut aig = Aig::new("rand");
        let mut pool: Vec<crate::aig::AigLit> = (0..3).map(|i| aig.input(format!("x{i}"))).collect();
        for (op, ia, ib) in ops {
            let a = pool[ia % pool.len()];
            let b = pool[ib % pool.len()];
            let r = match op {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(r);
        }
        let f = *pool.last().unwrap();
        prop_assume!(!f.is_constant());
        aig.output("f", f);
        let net = map_aig(&aig, &Library::default());
        let cuts = enumerate_cuts(&net, &CutConfig::default());
        for id in net.cell_ids() {
            if !matches!(net.kind(id), CellKind::Gate(_)) { continue; }
            for cut in cuts.of(id) {
                let direct = net.cone_function(Signal::from_cell(id), &cut.leaves);
                prop_assert_eq!(direct, cut.tt);
            }
        }
    }

    /// Tightening the per-node cut budget only ever *removes* cuts: every
    /// node's budgeted cut set is a subset of its set under a larger budget
    /// (the ranked dominance scan keeps a prefix, and upstream prefixes only
    /// shrink downstream candidate pools). Guards the budget knob the flow
    /// exposes through [`CutConfig::max_cuts`].
    #[test]
    fn prop_cut_budget_prunes_to_subset(ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..12), 1..30)) {
        let mut aig = Aig::new("rand");
        let mut pool: Vec<crate::aig::AigLit> = (0..4).map(|i| aig.input(format!("x{i}"))).collect();
        for (op, ia, ib) in ops {
            let a = pool[ia % pool.len()];
            let b = pool[ib % pool.len()];
            let r = match op {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(r);
        }
        let f = *pool.last().unwrap();
        prop_assume!(!f.is_constant());
        aig.output("f", f);
        let net = map_aig(&aig, &Library::default());
        let full = enumerate_cuts(&net, &CutConfig { max_leaves: 3, max_cuts: 24 });
        for budget in [12usize, 6, 2] {
            let tight = enumerate_cuts(&net, &CutConfig { max_leaves: 3, max_cuts: budget });
            for id in net.cell_ids() {
                prop_assert!(tight.of(id).len() <= budget + 1, "budget respected at c{}", id.0);
                for cut in tight.of(id) {
                    prop_assert!(
                        full.of(id).iter().any(|c| c.leaves == cut.leaves && c.tt == cut.tt),
                        "budget-{} cut {:?} of c{} missing from the unpruned set",
                        budget, cut.leaves, id.0
                    );
                }
            }
        }
    }

    /// The 256-bit leaf signatures refine the original 64-bit scheme
    /// (bit `hash & 255` instead of `hash & 63`): OR-folding the four
    /// lanes of a [`Sig256`] onto 64 bits must reproduce the 64-bit
    /// reference signature exactly, and every subset decision the wide
    /// prefilter accepts must also be accepted by the narrow reference —
    /// the widening only ever *rejects more*, never differently.
    #[test]
    fn prop_sig256_refines_the_64_bit_reference(
        leaves_a in proptest::collection::vec((0u32..400, 0u8..3), 1..8),
        leaves_b in proptest::collection::vec((0u32..400, 0u8..3), 1..8),
    ) {
        use crate::cuts::leaf_hash;
        use crate::network::CellId;
        use sfq_tt::Sig256;

        let signal = |(cell, port): (u32, u8)| Signal { cell: CellId(cell), port };
        let sig256 = |ls: &[(u32, u8)]| {
            ls.iter().fold(Sig256::EMPTY, |s, &l| s | Sig256::bit(leaf_hash(signal(l))))
        };
        let sig64 = |ls: &[(u32, u8)]| {
            ls.iter().fold(0u64, |s, &l| s | (1u64 << (leaf_hash(signal(l)) & 63)))
        };
        let fold = |s: Sig256| s.lanes().iter().fold(0u64, |acc, &lane| acc | lane);

        let (a256, b256) = (sig256(&leaves_a), sig256(&leaves_b));
        let (a64, b64) = (sig64(&leaves_a), sig64(&leaves_b));
        prop_assert_eq!(fold(a256), a64, "lane fold must reproduce the 64-bit signature");
        prop_assert_eq!(fold(b256), b64);

        // Decision pinning: wide-accept ⇒ narrow-accept.
        if a256.is_subset_of(b256) {
            prop_assert_eq!(a64 & !b64, 0, "256-bit subset accepted what 64-bit rejects");
        }
        // Soundness: a genuine leaf-set inclusion is always accepted.
        if leaves_a.iter().all(|l| leaves_b.contains(l)) {
            prop_assert!(sig256(&leaves_a).is_subset_of(b256));
        }
    }
}

/// The parallel enumeration driver must agree with the sequential
/// executable specification cut-for-cut on every node.
#[test]
fn parallel_enumeration_matches_sequential() {
    let _guard = worker_override_lock();
    /// A `bits × bits` array multiplier: reconvergent carry-save structure
    /// with wide topological levels, so the level-parallel driver really
    /// spawns workers (narrow designs run inline even with workers forced).
    fn array_multiplier(bits: usize) -> Aig {
        let mut aig = Aig::new("mult");
        let a: Vec<_> = (0..bits).map(|i| aig.input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..bits).map(|i| aig.input(format!("b{i}"))).collect();
        let mut cols: Vec<Vec<crate::aig::AigLit>> = vec![Vec::new(); 2 * bits];
        for i in 0..bits {
            for j in 0..bits {
                let p = aig.and(a[i], b[j]);
                cols[i + j].push(p);
            }
        }
        // Carry-save reduction, one full adder per three column entries.
        for k in 0..cols.len() {
            while cols[k].len() > 2 {
                let (x, y, z) = (
                    cols[k].pop().unwrap(),
                    cols[k].pop().unwrap(),
                    cols[k].pop().unwrap(),
                );
                let (s, c) = aig.full_adder(x, y, z);
                cols[k].push(s);
                cols[k + 1].push(c);
            }
        }
        let mut carry = aig.const_false();
        for (k, col) in cols.iter().enumerate() {
            let (x, y) = (
                col.first().copied().unwrap_or_else(|| aig.const_false()),
                col.get(1).copied().unwrap_or_else(|| aig.const_false()),
            );
            let (s, c) = aig.full_adder(x, y, carry);
            carry = c;
            aig.output(format!("p{k}"), s);
        }
        aig.output("p_top", carry);
        aig
    }

    // Exercise the scoped-worker merges even on single-core hosts. The
    // atomic override avoids `std::env::set_var`, which would race against
    // concurrent `getenv` from sibling test threads.
    crate::par::force_workers(4);
    let lib = Library::default();
    let config = CutConfig::default();
    for bits in [8usize, 12] {
        let aig = array_multiplier(bits);
        let net = map_aig(&aig, &lib);
        let par = enumerate_cuts(&net, &config);
        let seq = crate::cuts::enumerate_cuts_sequential(&net, &config);
        assert_eq!(par.total(), seq.total(), "total cut count ({bits} bits)");
        for id in net.cell_ids() {
            assert_eq!(par.of(id), seq.of(id), "cut set of c{} ({bits} bits)", id.0);
        }
        // Drive the frontier scheduler directly so it is exercised even
        // below the dispatcher's network-size threshold, at several worker
        // counts (including more workers than the ready frontier can feed).
        for workers in [2usize, 4, 8] {
            let frontier = crate::cuts::enumerate_cuts_frontier(&net, &config, workers);
            assert_eq!(
                frontier.total(),
                seq.total(),
                "frontier total cut count ({bits} bits, {workers} workers)"
            );
            for id in net.cell_ids() {
                assert_eq!(
                    frontier.of(id),
                    seq.of(id),
                    "frontier cut set of c{} ({bits} bits, {workers} workers)",
                    id.0
                );
            }
        }
    }
    crate::par::force_workers(0);
}

// ---------------------------------------------- supervision primitives ----

#[test]
fn map_ordered_caught_contains_single_item_panic() {
    let _guard = worker_override_lock();
    // One poisoned item must not take down the others, and the surviving
    // results must be byte-identical in input order for any worker count.
    for workers in [1usize, 4] {
        crate::par::force_workers(workers);
        let items: Vec<u32> = (0..8).collect();
        let results = crate::par::map_ordered_caught(items, |k| {
            if k == 3 {
                panic!("poisoned item {k}");
            }
            format!("item-{k}")
        });
        crate::par::force_workers(0);
        assert_eq!(results.len(), 8, "{workers} workers");
        for (k, r) in results.iter().enumerate() {
            if k == 3 {
                let p = r.as_ref().expect_err("item 3 panicked");
                assert_eq!(p.message(), "poisoned item 3", "{workers} workers");
            } else {
                assert_eq!(
                    r.as_ref().expect("survivor"),
                    &format!("item-{k}"),
                    "{workers} workers"
                );
            }
        }
    }
}

#[test]
fn map_ordered_resumes_the_lowest_index_panic() {
    let _guard = worker_override_lock();
    for workers in [1usize, 4] {
        crate::par::force_workers(workers);
        let caught = std::panic::catch_unwind(|| {
            crate::par::map_ordered((0..8u32).collect(), |k| {
                if k == 2 || k == 5 {
                    panic!("boom {k}");
                }
                k
            })
        });
        crate::par::force_workers(0);
        let payload = caught.expect_err("map_ordered re-raises");
        assert_eq!(
            crate::par::panic_message(payload.as_ref()),
            "boom 2",
            "lowest input index wins deterministically ({workers} workers)"
        );
    }
}

#[test]
fn map_ordered_streamed_emits_every_item_in_input_order() {
    let _guard = worker_override_lock();
    for workers in [1usize, 4] {
        crate::par::force_workers(workers);
        let mut emitted: Vec<(usize, Result<String, String>)> = Vec::new();
        crate::par::map_ordered_streamed(
            (0..8usize).collect(),
            |k| {
                if k == 3 {
                    panic!("poisoned item {k}");
                }
                format!("item-{k}")
            },
            |k, r| emitted.push((k, r.map_err(|p| p.message()))),
        );
        crate::par::force_workers(0);
        let order: Vec<usize> = emitted.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            order,
            (0..8).collect::<Vec<_>>(),
            "emission is in input order ({workers} workers)"
        );
        for (k, r) in &emitted {
            match r {
                Ok(s) => assert_eq!(s, &format!("item-{k}"), "{workers} workers"),
                Err(m) => {
                    assert_eq!(*k, 3, "only the poisoned item errs ({workers} workers)");
                    assert_eq!(m, "poisoned item 3");
                }
            }
        }
    }
}

#[test]
fn par_sort_matches_sequential_for_every_worker_count() {
    let _guard = worker_override_lock();
    // A strict total order (unique trailing index), so the chunked sort +
    // k-way merge must be byte-identical to the sequential sort for any
    // worker count — including more workers than cores.
    let mut expect: Vec<(u64, u32)> = (0..20_000u32)
        .map(|i| (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7, i))
        .collect();
    let mut sorted = expect.clone();
    sorted.sort_unstable_by_key(|&e| e);
    for workers in [1usize, 2, 4, 8] {
        crate::par::force_workers(workers);
        let mut items = expect.clone();
        crate::par::sort_unstable_by_key(&mut items, |&e| e);
        crate::par::force_workers(0);
        assert_eq!(items, sorted, "{workers} workers");
    }
    // Below the spawn threshold the call is exactly the sequential sort.
    expect.truncate(100);
    let mut small = expect.clone();
    crate::par::sort_unstable_by_key(&mut small, |&e| e);
    expect.sort_unstable_by_key(|&e| e);
    assert_eq!(small, expect);
}

/// Serializes the tests that install the process-global `force_workers`
/// override, so the policy tests below read the width they forced rather
/// than a sibling test's. Lock poisoning is ignored — a panicking test
/// already failed; the next one still needs the lock.
fn worker_override_lock() -> crate::sync::MutexGuard<'static, ()> {
    use crate::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn width_is_one_below_the_grain() {
    let _guard = worker_override_lock();
    crate::par::force_workers(8);
    let below = crate::par::width(1023, 1024, 2);
    let at = crate::par::width(1024, 1024, 2);
    let few_items = crate::par::width(3, 1, 2);
    crate::par::force_workers(0);
    assert_eq!(below, 1, "one item short of the grain stays sequential");
    assert_eq!(at, 8, "at the grain the site gets every worker");
    assert_eq!(few_items, 3, "never more workers than items");
}

#[test]
fn width_is_one_below_the_break_even() {
    let _guard = worker_override_lock();
    crate::par::force_workers(2);
    let below = crate::par::width(10_000, 1024, 3);
    let at = crate::par::width(10_000, 1024, 2);
    crate::par::force_workers(3);
    let reached = crate::par::width(10_000, 1024, 3);
    crate::par::force_workers(0);
    assert_eq!(below, 1, "2 workers are below a break-even width of 3");
    assert_eq!(at, 2);
    assert_eq!(reached, 3);
}

#[test]
fn frontier_engages_at_four_forced_workers_but_not_two() {
    let _guard = worker_override_lock();
    crate::par::force_workers(4);
    let four = crate::cuts::frontier_width(4096);
    let four_small = crate::cuts::frontier_width(1000);
    crate::par::force_workers(2);
    let two = crate::cuts::frontier_width(4096);
    crate::par::force_workers(0);
    assert_eq!(four, 4, "4 workers clear the frontier's break-even width");
    assert_eq!(four_small, 1, "below 1024 cells the plain loop runs");
    assert_eq!(two, 1, "2 workers lose to the sequential enumeration");
}

#[test]
fn explicit_overrides_skip_the_probe() {
    use crate::par::resolve_workers;
    let probe = || -> usize { panic!("the probe must not run under an override") };
    assert_eq!(resolve_workers(3, None, probe), 3, "force_workers wins");
    assert_eq!(
        resolve_workers(3, Some(5), probe),
        3,
        "over SFQ_WORKERS too"
    );
    assert_eq!(resolve_workers(0, Some(5), probe), 5, "SFQ_WORKERS");
    assert_eq!(
        resolve_workers(1000, None, probe),
        crate::par::MAX_WORKERS,
        "forced counts are capped"
    );
    assert_eq!(resolve_workers(0, None, || 2), 2, "no override: the probe");
}

#[test]
fn probed_parallelism_never_exceeds_available_parallelism() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probed = crate::par::probe_parallelism();
    assert!(
        (1..=nproc).contains(&probed),
        "probe read {probed} with {nproc} CPUs available"
    );
    let cached = crate::par::delivered_parallelism();
    assert!((1..=nproc).contains(&cached), "cached {cached} of {nproc}");
    assert_eq!(cached, crate::par::delivered_parallelism(), "probed once");
}

#[test]
fn parse_workers_rejects_invalid_counts_with_a_reason() {
    assert_eq!(crate::par::parse_workers("4"), Ok(4));
    assert_eq!(
        crate::par::parse_workers(" 2 "),
        Ok(2),
        "whitespace trimmed"
    );
    assert_eq!(
        crate::par::parse_workers("20"),
        Ok(20),
        "oversubscription allowed up to MAX_WORKERS"
    );
    assert_eq!(
        crate::par::parse_workers("10000"),
        Ok(crate::par::MAX_WORKERS),
        "capped at MAX_WORKERS"
    );
    let err = crate::par::parse_workers("0").expect_err("0 workers is invalid");
    assert!(err.contains("at least 1"), "{err}");
    let err = crate::par::parse_workers("all").expect_err("non-numeric rejected");
    assert!(err.contains("all"), "the reason names the value: {err}");
    assert!(crate::par::parse_workers("-2").is_err());
    assert!(crate::par::parse_workers("").is_err());
}

#[test]
fn budget_node_ceiling_aborts_with_typed_payload() {
    let guard = crate::budget::install(None, Some(10));
    let caught = std::panic::catch_unwind(|| {
        for _ in 0..100 {
            crate::budget::tick(1);
        }
    });
    drop(guard);
    let payload = caught.expect_err("ceiling exceeded");
    assert_eq!(
        payload.downcast_ref::<crate::budget::BudgetExceeded>(),
        Some(&crate::budget::BudgetExceeded::Nodes)
    );
    assert!(!crate::budget::active(), "guard drop clears the budget");
    crate::budget::tick(1_000_000); // and ticks are no-ops again
}

#[test]
fn budget_zero_deadline_fires_at_the_next_checkpoint() {
    let guard = crate::budget::install(Some(std::time::Duration::ZERO), None);
    let caught = std::panic::catch_unwind(crate::budget::checkpoint);
    drop(guard);
    let payload = caught.expect_err("deadline passed");
    assert_eq!(
        payload.downcast_ref::<crate::budget::BudgetExceeded>(),
        Some(&crate::budget::BudgetExceeded::Deadline)
    );
}

#[test]
fn budget_is_thread_local_and_spent_accumulates() {
    let _guard = crate::budget::install(None, Some(1_000));
    crate::budget::tick(7);
    crate::budget::tick(5);
    assert_eq!(crate::budget::spent(), 12);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert!(!crate::budget::active(), "budgets do not cross threads");
            crate::budget::tick(1_000_000); // no-op on this thread
        });
    });
    assert_eq!(crate::budget::spent(), 12, "worker ticks never charge us");
}

#[test]
fn design_cache_bounds_occupancy_with_fifo_eviction() {
    use crate::design::DesignCache;
    let dir = std::env::temp_dir().join(format!("sfq-cache-bound-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = (0..3)
        .map(|k| {
            let p = dir.join(format!("d{k}.blif"));
            std::fs::write(
                &p,
                format!(".model d{k}\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"),
            )
            .unwrap();
            p
        })
        .collect();
    let mut cache = DesignCache::with_capacity(2);
    cache.load(&paths[0]).unwrap();
    cache.load(&paths[1]).unwrap();
    cache.load(&paths[0]).unwrap(); // hit; FIFO order unchanged
    cache.load(&paths[2]).unwrap(); // evicts d0 (oldest inserted)
    let stats = cache.stats();
    assert_eq!(stats.len, 2);
    assert_eq!(stats.capacity, 2);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    cache.load(&paths[0]).unwrap(); // d0 was evicted: parses again
    assert_eq!(cache.stats().misses, 4, "FIFO evicted the oldest entry");
    assert_eq!(cache.stats().evictions, 2, "and the insert evicted d1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_dir_results_records_broken_files_instead_of_aborting() {
    use crate::design::{load_dir, load_dir_results};
    let dir = std::env::temp_dir().join(format!("sfq-lenient-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a_good.blif"),
        ".model good\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n",
    )
    .unwrap();
    std::fs::write(dir.join("b_broken.aag"), "aag 1 1 0 1 0\nnot numbers\n").unwrap();
    std::fs::write(
        dir.join("c_late.blif"),
        ".model late\n.inputs b\n.outputs z\n.names b z\n0 1\n.end\n",
    )
    .unwrap();
    let (entries, _) = load_dir_results(&dir).expect("directory itself lists fine");
    assert_eq!(entries.len(), 3);
    assert!(entries[0].1.is_ok());
    assert!(entries[1].1.is_err(), "broken file is a per-design failure");
    assert!(
        entries[2].1.is_ok(),
        "designs after the broken one still load"
    );
    assert!(
        load_dir(&dir).is_err(),
        "the strict loader still fails the whole directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(feature = "fault-injection")]
#[test]
fn faultpt_err_action_fires_once_per_armed_count() {
    use crate::faultpt::{arm_limited, disarm, hit, FaultAction};
    // Unique context so concurrent tests sharing the global table never
    // see this fault.
    let ctx = "faultpt-unit-test-ctx";
    arm_limited("parse", Some(ctx), FaultAction::Err, 1);
    assert!(hit("parse", ctx), "first hit fires");
    assert!(!hit("parse", ctx), "limited fault is exhausted");
    assert!(!hit("parse", "other-ctx"), "context must match");
    disarm("parse", Some(ctx));
}

#[cfg(feature = "fault-injection")]
#[test]
fn faultpt_panic_action_is_contained_by_map_ordered_caught() {
    use crate::faultpt::{arm_limited, disarm, FaultAction};
    // The chunked sort's forced-worker test also runs `map_ordered` items;
    // holding the override lock keeps it from consuming this one-shot fault.
    let _guard = worker_override_lock();
    // `par.item` contexts are decimal input indices.
    arm_limited("par.item", Some("1"), FaultAction::Panic, 1);
    let results = crate::par::map_ordered_caught(vec![10u32, 20, 30], |x| x * 2);
    disarm("par.item", Some("1"));
    assert_eq!(results[0].as_ref().ok(), Some(&20));
    assert_eq!(
        results[1].as_ref().expect_err("injected").message(),
        "injected panic at par.item"
    );
    assert_eq!(results[2].as_ref().ok(), Some(&60));
}
