//! Pinned fingerprints of the cut sets T1 detection runs on.
//!
//! The differential harness compares `detect_t1` against
//! `detect_t1_reference`, but both read the same cut enumerator, so a change
//! to the cut sets moves both sides at once and goes unseen there. These
//! fingerprints close that gap: per design, one FNV-1a hash over every
//! cell's cut list in stored order (leaf count, leaf pins, truth-table rows)
//! of the cleaned mapped network at the default [`CutConfig`]. Any change to
//! which cuts are kept, their order, their leaves or their functions fails
//! here.
//!
//! The fast tier covers the 14 small generators and the 7 checked-in corpus
//! designs; the paper-scale tier is `#[ignore]`d and run by CI's
//! `differential-slow` job:
//! `cargo test --release --test cut_fingerprints -- --ignored`.

use sfq_t1::circuits::{Benchmark, ExtBenchmark};
use sfq_t1::netlist::design::Design;
use sfq_t1::netlist::{enumerate_cuts, map_aig, Aig, CutConfig, Library};
use std::path::Path;

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The fingerprint of one design's cut sets.
fn fingerprint(aig: &Aig) -> u64 {
    let (net, _) = map_aig(aig, &Library::default()).cleaned();
    let cuts = enumerate_cuts(&net, &CutConfig::default());
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for id in net.cell_ids() {
        let list = cuts.of(id);
        h.word(list.len() as u64);
        for cut in list {
            let leaves: Vec<_> = cut.leaves().collect();
            h.word(leaves.len() as u64);
            for l in &leaves {
                h.word((u64::from(l.cell.0) << 8) | u64::from(l.port));
            }
            let tt = cut.tt();
            assert_eq!(tt.num_vars(), leaves.len(), "table arity = leaf count");
            h.word(tt.bits());
        }
    }
    h.0
}

/// Compares every `(design, fingerprint)` against its pin, reporting all
/// mismatches at once.
fn check(actual: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let pinned_names: Vec<&str> = pinned.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned_names, "fingerprinted design list");
    let bad: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((_, a), &(_, p))| *a != p)
        .map(|((n, a), &(_, p))| format!("{n}: {a:#018x} (pinned {p:#018x})"))
        .collect();
    assert!(bad.is_empty(), "cut sets changed:\n{}", bad.join("\n"));
}

const SMALL: &[(&str, u64)] = &[
    ("adder", 0xb418_0437_08ca_e6f6),
    ("c7552", 0x5166_c345_7c50_7764),
    ("c6288", 0xe97b_2b0f_fc8e_351f),
    ("sin", 0xba92_4da6_51f2_fb35),
    ("voter", 0xc9d1_d4cb_a4aa_1fd0),
    ("square", 0x19f3_3b4a_b985_9ec6),
    ("multiplier", 0x465c_53d6_7194_abfa),
    ("log2", 0x3533_8b86_8b1b_f96b),
    ("bar", 0x18a4_9087_3da3_fa3b),
    ("max", 0xf1d6_926b_8bc6_935c),
    ("div", 0x9774_0ed6_b7f7_2fa2),
    ("sqrt", 0x8aa8_b2ca_1cc4_0fb5),
    ("hyp", 0xfaf9_04a7_c582_a0e3),
    ("c499", 0xb56b_f059_aa86_fcd5),
];

const CORPUS: &[(&str, u64)] = &[
    ("adder8.aag", 0x11fa_7d82_e498_1cbe),
    ("c7552_mini.aag", 0x7c9a_c682_7afd_29a9),
    ("mult4.aag", 0xf1fa_bd97_cf63_3e1f),
    ("mux8.blif", 0x5be2_3d21_69b9_0f33),
    ("parity12.aag", 0x1ad2_6f70_c88a_dcf0),
    ("square4.blif", 0x3fc8_56ba_3aa0_f5ba),
    ("voter7.blif", 0xc97a_0e1c_36a4_cc82),
];

const PAPER: &[(&str, u64)] = &[
    ("adder", 0xec21_95c3_7ceb_42af),
    ("c7552", 0x283f_f465_3bdc_bc02),
    ("c6288", 0x8b6e_81e3_88e4_3c10),
    ("sin", 0x8368_782e_ffda_b1ae),
    ("voter", 0xdf79_fc0f_cd68_4f74),
    ("square", 0x8886_8c4f_0b12_c3de),
    ("multiplier", 0x8a6b_0b02_e555_756e),
    ("log2", 0x5ec8_d497_ad8b_b9d9),
];

#[test]
fn cut_fingerprints_small_generators() {
    let mut actual: Vec<(String, u64)> = Benchmark::ALL
        .iter()
        .map(|b| (b.name().to_string(), fingerprint(&b.build_small())))
        .collect();
    actual.extend(
        ExtBenchmark::ALL
            .iter()
            .map(|b| (b.name().to_string(), fingerprint(&b.build_small()))),
    );
    check(actual, SMALL);
}

#[test]
fn cut_fingerprints_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/corpus");
    let actual = CORPUS
        .iter()
        .map(|&(file, _)| {
            let design = Design::read(&dir.join(file)).expect("corpus design parses");
            (file.to_string(), fingerprint(&design.aig))
        })
        .collect();
    check(actual, CORPUS);
}

/// Paper-scale tier: run by CI's `differential-slow` job and by hand before
/// shipping cut or detection changes.
#[test]
#[ignore = "paper-scale cut fingerprints; run explicitly or in the slow CI job"]
fn cut_fingerprints_paper_scale() {
    let actual = Benchmark::ALL
        .iter()
        .map(|b| (b.name().to_string(), fingerprint(&b.build())))
        .collect();
    check(actual, PAPER);
}
