//! Structural generators for the paper's benchmark circuits.
//!
//! The paper evaluates on EPFL and ISCAS-85 arithmetic benchmarks. The
//! original suites ship as AIGER/Verilog files; this crate regenerates
//! functionally-verified implementations of the *same arithmetic functions*
//! from scratch; `tests/benchmark_functions.rs` checks each one against
//! software arithmetic:
//!
//! | paper benchmark | generator | function |
//! |---|---|---|
//! | `adder`      | [`adder`]       | 128-bit ripple-carry addition |
//! | `c6288`      | [`c6288`]       | 16×16 array multiplier (c6288's function) |
//! | `c7552`      | [`c7552`]       | 34-bit adder/comparator/parity mix |
//! | `sin`        | [`sin_cordic`]  | fixed-point sine via CORDIC rotations |
//! | `voter`      | [`voter`]       | 1001-input majority via FA popcount tree |
//! | `square`     | [`square`]      | 64-bit squarer (folded partial products) |
//! | `multiplier` | [`multiplier`]  | array multiplier (64×64 in Table I runs) |
//! | `log2`       | [`log2_shift_add`] | fixed-point log₂ via normalize + digit recurrence |
//!
//! Every generator returns an [`Aig`]; integration tests verify each against
//! plain software arithmetic via bit-parallel simulation. Sizes are
//! parameterized so tests can run scaled-down instances.

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

use sfq_netlist::{Aig, AigLit};

mod arith;
pub mod ext;
pub mod reference;

pub use arith::{add_words, mul_words, negate_word, shift_right_arith, square_word, sub_words};
pub use ext::{bar, div_restoring, hyp, max4, sqrt_word, ExtBenchmark};

/// The benchmark set of the paper's Table I, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 128-bit adder (EPFL `adder`).
    Adder,
    /// ISCAS-85 c7552 stand-in.
    C7552,
    /// ISCAS-85 c6288: 16×16 multiplier.
    C6288,
    /// EPFL `sin` stand-in (CORDIC).
    Sin,
    /// EPFL `voter` stand-in (1001-input majority).
    Voter,
    /// EPFL `square` stand-in (64-bit squarer).
    Square,
    /// EPFL `multiplier` stand-in.
    Multiplier,
    /// EPFL `log2` stand-in.
    Log2,
}

impl Benchmark {
    /// All benchmarks in Table I row order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Adder,
        Benchmark::C7552,
        Benchmark::C6288,
        Benchmark::Sin,
        Benchmark::Voter,
        Benchmark::Square,
        Benchmark::Multiplier,
        Benchmark::Log2,
    ];

    /// The paper's name for the row.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Adder => "adder",
            Benchmark::C7552 => "c7552",
            Benchmark::C6288 => "c6288",
            Benchmark::Sin => "sin",
            Benchmark::Voter => "voter",
            Benchmark::Square => "square",
            Benchmark::Multiplier => "multiplier",
            Benchmark::Log2 => "log2",
        }
    }

    /// Generates the benchmark at full (paper) scale.
    pub fn build(self) -> Aig {
        match self {
            Benchmark::Adder => adder(128),
            Benchmark::C7552 => c7552(),
            Benchmark::C6288 => c6288(),
            Benchmark::Sin => sin_cordic(24, 12),
            Benchmark::Voter => voter(1001),
            Benchmark::Square => square(64),
            Benchmark::Multiplier => multiplier(64),
            Benchmark::Log2 => log2_shift_add(32),
        }
    }

    /// Generates a scaled-down instance for fast tests (same structure).
    pub fn build_small(self) -> Aig {
        match self {
            Benchmark::Adder => adder(16),
            Benchmark::C7552 => c7552_sized(8),
            Benchmark::C6288 => mult_sized("c6288", 6),
            Benchmark::Sin => sin_cordic(10, 6),
            Benchmark::Voter => voter(31),
            Benchmark::Square => square(10),
            Benchmark::Multiplier => multiplier(8),
            Benchmark::Log2 => log2_shift_add(8),
        }
    }
}

/// `bits`-bit ripple-carry adder: `s = a + b` with carry-out
/// (EPFL `adder` is a 128-bit adder).
pub fn adder(bits: usize) -> Aig {
    let mut aig = Aig::new(format!("adder{bits}"));
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let sum = add_words(&mut aig, &a, &b, None);
    aig.output_word("s", &sum);
    aig
}

/// `bits`×`bits` array multiplier (EPFL `multiplier` is 64×64).
pub fn multiplier(bits: usize) -> Aig {
    mult_sized(&format!("multiplier{bits}"), bits)
}

/// ISCAS-85 c6288: a 16×16 array multiplier.
pub fn c6288() -> Aig {
    mult_sized("c6288", 16)
}

fn mult_sized(name: &str, bits: usize) -> Aig {
    let mut aig = Aig::new(name.to_string());
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let p = mul_words(&mut aig, &a, &b);
    aig.output_word("p", &p);
    aig
}

/// `bits`-bit squarer: `p = a²` (EPFL `square` is 64-bit).
pub fn square(bits: usize) -> Aig {
    let mut aig = Aig::new(format!("square{bits}"));
    let a = aig.input_word("a", bits);
    let p = square_word(&mut aig, &a);
    aig.output_word("p", &p);
    aig
}

/// 1001-input (or any odd `n`) majority via a full-adder popcount tree and
/// final comparison against `n/2` (EPFL `voter`).
///
/// # Panics
/// Panics if `n` is even or below 3.
pub fn voter(n: usize) -> Aig {
    assert!(
        n >= 3 && n % 2 == 1,
        "majority needs an odd input count ≥ 3"
    );
    let mut aig = Aig::new(format!("voter{n}"));
    let ins = aig.input_word("x", n);

    // Carry-save popcount: repeatedly compress columns of equal weight with
    // full adders — exactly the FA-rich structure T1 cells feed on.
    let mut columns: Vec<Vec<AigLit>> = vec![ins];
    loop {
        let mut next: Vec<Vec<AigLit>> = vec![Vec::new(); columns.len() + 1];
        let mut any_compress = false;
        for (w, col) in columns.iter().enumerate() {
            let mut i = 0;
            while i + 2 < col.len() {
                let (s, c) = aig.full_adder(col[i], col[i + 1], col[i + 2]);
                next[w].push(s);
                next[w + 1].push(c);
                any_compress = true;
                i += 3;
            }
            if i + 1 < col.len() {
                let (s, c) = aig.half_adder(col[i], col[i + 1]);
                next[w].push(s);
                next[w + 1].push(c);
                any_compress = true;
                i += 2;
            }
            while i < col.len() {
                next[w].push(col[i]);
                i += 1;
            }
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        columns = next;
        if !any_compress {
            break;
        }
    }
    // At most two entries per column remain: add the two rows and compare
    // count ≥ (n+1)/2 via the adder's carry-out.
    let width = columns.len();
    let mut wa: Vec<AigLit> = Vec::with_capacity(width);
    let mut wb: Vec<AigLit> = Vec::with_capacity(width);
    for col in &columns {
        assert!(col.len() <= 2, "popcount reduction leaves ≤ 2 per column");
        wa.push(col.first().copied().unwrap_or(AigLit::FALSE));
        wb.push(col.get(1).copied().unwrap_or(AigLit::FALSE));
    }
    let count = add_words(&mut aig, &wa, &wb, None);
    // count ≥ threshold ⟺ count + (2^w − threshold) produces a carry.
    let threshold = (n as u64).div_ceil(2);
    let w = count.len();
    let comp = (1u64 << w) - threshold;
    let comp_bits: Vec<AigLit> = (0..w)
        .map(|i| {
            if comp >> i & 1 == 1 {
                aig.const_true()
            } else {
                aig.const_false()
            }
        })
        .collect();
    let sum = add_words(&mut aig, &count, &comp_bits, None);
    let maj = *sum.last().unwrap(); // carry-out = comparison result
    aig.output("maj", maj);
    aig
}

/// Fixed-point sine via CORDIC rotation (EPFL `sin` computes sin on 24 bits;
/// this generator uses a `bits`-wide datapath and `iters` rotations).
///
/// The input word is an angle expressed as a `bits`-bit fraction of π
/// (meaningful domain `[0, π/2)`, i.e. inputs below `2^(bits−1)`); outputs
/// are the sine and cosine scaled by `2^(bits−2)`.
/// [`reference::sin_cordic_ref`] implements the bit-identical software model.
pub fn sin_cordic(bits: usize, iters: usize) -> Aig {
    assert!(
        (6..=28).contains(&bits),
        "datapath width out of supported range"
    );
    let mut aig = Aig::new(format!("sin{bits}"));
    let theta = aig.input_word("theta", bits);

    let consts = reference::cordic_constants(bits, iters);
    let const_word = |aig: &mut Aig, v: u64, w: usize| -> Vec<AigLit> {
        (0..w)
            .map(|i| {
                if v >> i & 1 == 1 {
                    aig.const_true()
                } else {
                    aig.const_false()
                }
            })
            .collect()
    };

    let mut x = const_word(&mut aig, consts.k_scaled, bits);
    let mut y = const_word(&mut aig, 0, bits);
    let mut z: Vec<AigLit> = theta.clone();

    for (i, &atan) in consts.atan_table.iter().enumerate() {
        let atan_w = const_word(&mut aig, atan, bits);
        // Rotation direction: MSB of z (two's complement sign).
        let neg = *z.last().unwrap();
        let xs = shift_right_arith(&mut aig, &x, i, true);
        let ys = shift_right_arith(&mut aig, &y, i, true);
        let x_minus = sub_words(&mut aig, &x, &ys);
        let x_plus = add_words(&mut aig, &x, &ys, None);
        let y_minus = sub_words(&mut aig, &y, &xs);
        let y_plus = add_words(&mut aig, &y, &xs, None);
        let z_minus = sub_words(&mut aig, &z, &atan_w);
        let z_plus = add_words(&mut aig, &z, &atan_w, None);
        let mut nx = Vec::with_capacity(bits);
        let mut ny = Vec::with_capacity(bits);
        let mut nz = Vec::with_capacity(bits);
        for bit in 0..bits {
            // z < 0 → rotate by −atan(2^-i): x+ys, y−xs, z+atan.
            nx.push(aig.mux(neg, x_plus[bit], x_minus[bit]));
            ny.push(aig.mux(neg, y_minus[bit], y_plus[bit]));
            nz.push(aig.mux(neg, z_plus[bit], z_minus[bit]));
        }
        x = nx;
        y = ny;
        z = nz;
    }
    aig.output_word("sin", &y);
    aig.output_word("cos", &x);
    aig
}

/// Fixed-point log₂ via leading-one normalization and square-and-compare
/// digit recurrence (EPFL `log2` is 32-bit).
///
/// Outputs the leading-one position (integer part) and `max(bits/2, 4)`
/// fraction bits of `log₂` of the normalized mantissa, LSB first.
/// [`reference::log2_ref`] is the bit-identical software model.
pub fn log2_shift_add(bits: usize) -> Aig {
    assert!((4..=32).contains(&bits), "width out of supported range");
    let mut aig = Aig::new(format!("log2_{bits}"));
    let x = aig.input_word("x", bits);
    let int_bits = usize::BITS as usize - (bits - 1).leading_zeros() as usize;

    // Priority encoder for the leading one + normalizing shifter.
    let mut pos: Vec<AigLit> = vec![aig.const_false(); int_bits];
    let mut any_above = aig.const_false();
    let mut mant: Vec<AigLit> = vec![aig.const_false(); bits];
    for i in (0..bits).rev() {
        let not_above = !any_above;
        let found = aig.and(x[i], not_above);
        any_above = aig.or(any_above, x[i]);
        for (b, p) in pos.iter_mut().enumerate() {
            if i >> b & 1 == 1 {
                *p = aig.or(*p, found);
            }
        }
        let shift = bits - 1 - i;
        for j in shift..bits {
            let t = aig.and(found, x[j - shift]);
            mant[j] = aig.or(mant[j], t);
        }
    }
    // Digit recurrence on the normalized mantissa m ∈ [1, 2).
    let frac_bits = (bits / 2).max(4);
    let mut y = mant;
    let mut frac_msb_first: Vec<AigLit> = Vec::with_capacity(frac_bits);
    for _ in 0..frac_bits {
        let sq = square_word(&mut aig, &y);
        // y² ∈ [1,4) with the binary point at 2(bits−1): integer bit 2.
        let digit = sq[2 * bits - 1];
        frac_msb_first.push(digit);
        let mut ny = Vec::with_capacity(bits);
        for j in 0..bits {
            let hi = sq[bits + j]; // renormalized y²/2 when digit = 1
            let lo = sq[bits + j - 1]; // y² when digit = 0
            ny.push(aig.mux(digit, hi, lo));
        }
        y = ny;
    }
    let frac: Vec<AigLit> = frac_msb_first.into_iter().rev().collect();
    aig.output_word("int", &pos);
    aig.output_word("frac", &frac);
    aig
}

/// ISCAS-85 c7552 stand-in: a 34-bit adder plus magnitude comparator and
/// parity trees over the operands — the documented function mix of c7552.
pub fn c7552() -> Aig {
    c7552_sized(34)
}

/// Parameterized c7552 stand-in (34 bits at paper scale).
pub fn c7552_sized(bits: usize) -> Aig {
    let mut aig = Aig::new(if bits == 34 {
        "c7552".to_string()
    } else {
        format!("c7552_{bits}")
    });
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let cin = aig.input("cin");
    let sum = add_words(&mut aig, &a, &b, Some(cin));
    aig.output_word("s", &sum);
    // Magnitude comparison a > b via the borrow of a − b − 1... use a + ¬b:
    // carry-out = 1 ⟺ a ≥ b + 1 ⟺ a > b (unsigned).
    let nb: Vec<AigLit> = b.iter().map(|&x| !x).collect();
    let diff = add_words(&mut aig, &a, &nb, None);
    aig.output("a_gt_b", *diff.last().unwrap());
    // Parity trees.
    let mut pa = a[0];
    let mut pb = b[0];
    for i in 1..bits {
        pa = aig.xor(pa, a[i]);
        pb = aig.xor(pb, b[i]);
    }
    aig.output("par_a", pa);
    aig.output("par_b", pb);
    aig
}

#[cfg(test)]
mod tests;
