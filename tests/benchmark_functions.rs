//! Functional verification of every benchmark generator against plain
//! software arithmetic, via bit-parallel AIG simulation (64 test vectors per
//! simulated word).
//!
//! These are the tests that justify generating the benchmarks instead of
//! reading the EPFL/ISCAS files (`sfq-circuits`' crate docs): the circuits
//! we synthesize really compute the arithmetic functions those suites
//! compute.

use sfq_t1::circuits::{self, reference};
use sfq_t1::netlist::Aig;

/// Simple deterministic xorshift* stream for pattern words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Drives an AIG whose inputs are words named by prefix with 64 random
/// vectors; returns per-vector input words and per-vector output words.
fn simulate_words(aig: &Aig, widths: &[usize], seed: u64) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    assert_eq!(
        widths.iter().sum::<usize>(),
        aig.num_inputs(),
        "width layout"
    );
    let mut rng = Rng(seed);
    let patterns: Vec<u64> = (0..aig.num_inputs()).map(|_| rng.next()).collect();
    let outs = aig.simulate(&patterns);

    let decode = |bits: &[u64], vector: usize| -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &w)| acc | ((w >> vector) & 1) << i)
    };

    let mut in_words = Vec::with_capacity(64);
    let mut out_bits = Vec::with_capacity(64);
    for v in 0..64 {
        let mut offset = 0;
        let mut row = Vec::new();
        for &w in widths {
            row.push(decode(&patterns[offset..offset + w], v));
            offset += w;
        }
        in_words.push(row);
        // Output word boundaries are the caller's business; hand out the
        // flat per-vector bit list.
        out_bits.push(outs.iter().map(|&w| (w >> v) & 1).collect::<Vec<u64>>());
    }
    (in_words, out_bits)
}

fn word_of(bits: &[u64]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | b << i)
}

#[test]
fn adder_matches_software_addition() {
    let bits = 16;
    let aig = circuits::adder(bits);
    let (ins, outs) = simulate_words(&aig, &[bits, bits], 1);
    for (iw, ob) in ins.iter().zip(&outs) {
        let expect = iw[0] + iw[1];
        assert_eq!(word_of(ob), expect, "a={} b={}", iw[0], iw[1]);
    }
}

#[test]
fn adder128_headline_instance_is_well_formed() {
    let aig = circuits::adder(128);
    assert_eq!(aig.num_inputs(), 256);
    assert_eq!(aig.num_outputs(), 129);
    // One FA per bit; XOR3+MAJ3 cost 7 AIG nodes with sharing, minus
    // constant folding at the carry-in.
    assert!(aig.num_ands() > 500, "ripple chain was folded away?");
}

#[test]
fn multiplier_matches_software_product() {
    let bits = 8;
    let aig = circuits::multiplier(bits);
    let (ins, outs) = simulate_words(&aig, &[bits, bits], 2);
    for (iw, ob) in ins.iter().zip(&outs) {
        let expect = iw[0] * iw[1];
        assert_eq!(word_of(ob), expect, "a={} b={}", iw[0], iw[1]);
    }
}

#[test]
fn c6288_is_a_16x16_multiplier() {
    let aig = circuits::c6288();
    assert_eq!(aig.num_inputs(), 32);
    assert_eq!(aig.num_outputs(), 32);
    let (ins, outs) = simulate_words(&aig, &[16, 16], 3);
    for (iw, ob) in ins.iter().zip(&outs) {
        assert_eq!(word_of(ob), iw[0] * iw[1]);
    }
}

#[test]
fn square_matches_software_square() {
    let bits = 10;
    let aig = circuits::square(bits);
    let (ins, outs) = simulate_words(&aig, &[bits], 4);
    for (iw, ob) in ins.iter().zip(&outs) {
        assert_eq!(word_of(ob), iw[0] * iw[0], "a={}", iw[0]);
    }
}

#[test]
fn voter_matches_majority_count() {
    let n = 31;
    let aig = circuits::voter(n);
    let (ins, outs) = simulate_words(&aig, &[n], 5);
    for (iw, ob) in ins.iter().zip(&outs) {
        let ones = iw[0].count_ones() as usize;
        let expect = u64::from(2 * ones > n);
        assert_eq!(ob[0], expect, "ballots={:b}", iw[0]);
    }
}

#[test]
fn sin_cordic_matches_reference_model() {
    let (bits, iters) = (10, 6);
    let aig = circuits::sin_cordic(bits, iters);
    let (ins, outs) = simulate_words(&aig, &[bits], 6);
    for (iw, ob) in ins.iter().zip(&outs) {
        let theta = iw[0] & ((1 << (bits - 1)) - 1); // domain [0, π/2)
                                                     // Re-simulate this single masked angle through the circuit.
        let patterns: Vec<u64> = (0..bits)
            .map(|i| if theta >> i & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        let raw = aig.simulate(&patterns);
        let sin_bits: Vec<u64> = raw[..bits].iter().map(|&w| w & 1).collect();
        let cos_bits: Vec<u64> = raw[bits..].iter().map(|&w| w & 1).collect();
        let (sin_ref, cos_ref) = reference::sin_cordic_ref(theta, bits, iters);
        assert_eq!(word_of(&sin_bits), sin_ref, "sin(theta={theta})");
        assert_eq!(word_of(&cos_bits), cos_ref, "cos(theta={theta})");
        let _ = ob;
    }
}

#[test]
fn sin_cordic_is_numerically_a_sine() {
    // Beyond bit-exactness vs the model: the model itself must approximate
    // sin(πx) to the fixed-point tolerance.
    let (bits, iters) = (12, 10);
    let scale = (1u64 << (bits - 2)) as f64;
    for k in 1..16u64 {
        let theta = k << (bits - 5); // sample [0, π/2)
        let (s, _) = reference::sin_cordic_ref(theta, bits, iters);
        let angle = theta as f64 / (1u64 << bits) as f64 * std::f64::consts::PI;
        let measured = s as f64 / scale;
        assert!(
            (measured - angle.sin()).abs() < 0.02,
            "sin({angle:.3}) = {measured:.3} vs {:.3}",
            angle.sin()
        );
    }
}

#[test]
fn log2_matches_reference_model() {
    let bits = 8;
    let aig = circuits::log2_shift_add(bits);
    let frac_bits = (bits / 2).max(4);
    for x in 1..(1u64 << bits) {
        let patterns: Vec<u64> = (0..bits)
            .map(|i| if x >> i & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        let raw = aig.simulate(&patterns);
        let int_w = aig.num_outputs() - frac_bits;
        let int_bits: Vec<u64> = raw[..int_w].iter().map(|&w| w & 1).collect();
        let frac_out: Vec<u64> = raw[int_w..].iter().map(|&w| w & 1).collect();
        let (pos_ref, frac_ref) = reference::log2_ref(x, bits);
        assert_eq!(word_of(&int_bits), pos_ref, "leading one of {x}");
        assert_eq!(word_of(&frac_out), frac_ref, "fraction of {x}");
    }
}

#[test]
fn log2_is_numerically_a_logarithm() {
    let bits = 16;
    let frac_bits = (bits / 2).max(4);
    for x in [3u64, 7, 100, 255, 1000, 40_000, 65_535] {
        let (pos, frac) = reference::log2_ref(x, bits);
        let measured = pos as f64 + frac as f64 / (1u64 << frac_bits) as f64;
        let exact = (x as f64).log2();
        assert!(
            (measured - exact).abs() < 0.01,
            "log2({x}) = {measured:.4} vs {exact:.4}"
        );
    }
}

#[test]
fn c7552_mix_matches_add_compare_parity() {
    let bits = 10;
    let aig = circuits::c7552_sized(bits);
    let (ins, outs) = simulate_words(&aig, &[bits, bits, 1], 7);
    for (iw, ob) in ins.iter().zip(&outs) {
        let (a, b, cin) = (iw[0], iw[1], iw[2]);
        let sum_bits = &ob[..bits + 1];
        assert_eq!(word_of(sum_bits), a + b + cin, "sum");
        assert_eq!(ob[bits + 1], u64::from(a > b), "comparator");
        assert_eq!(ob[bits + 2], u64::from(a.count_ones() % 2 == 1), "parity a");
        assert_eq!(ob[bits + 3], u64::from(b.count_ones() % 2 == 1), "parity b");
    }
}

#[test]
fn paper_scale_instances_have_table1_order_of_magnitude() {
    // The paper's networks are 10³–10⁵ gates; our stand-ins must be in the
    // same regime for the Table I comparison to be meaningful.
    use sfq_t1::prelude::Benchmark;
    for bench in Benchmark::ALL {
        let aig = bench.build();
        let nodes = aig.num_ands();
        assert!(
            (500..2_000_000).contains(&nodes),
            "{}: {} nodes out of expected regime",
            bench.name(),
            nodes
        );
    }
}
