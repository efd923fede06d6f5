//! The SFQ cell library: cell kinds, T1 output ports, and the JJ area model.
//!
//! Area is measured in Josephson-junction (JJ) counts, as in the paper's
//! Table I. Per-cell JJ numbers are representative values from published RSFQ
//! cell libraries, calibrated so that the paper's two stated anchors hold:
//! a T1-based full adder costs 29 JJ and a conventional full adder ≈ 2.5×
//! more.

use sfq_tt::{T1Base, TruthTable};
use std::fmt;

/// Number of synchronous output ports a T1 macro-cell exposes.
pub const T1_NUM_PORTS: usize = 5;

/// The synchronous output ports of a T1 macro-cell (paper Fig. 1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum T1Port {
    /// `S` — fires on the reset/clock pulse when the loop holds 1: XOR3.
    S,
    /// `C` — `C*` latched by a DFF: MAJ3.
    C,
    /// `Q` — `Q*` latched by a DFF (which absorbs double pulses): OR3.
    Q,
    /// `C*` through a clocked inverter: ¬MAJ3.
    NotC,
    /// `Q*` through a clocked inverter: ¬OR3.
    NotQ,
}

impl T1Port {
    /// All ports, in port-index order.
    pub const ALL: [T1Port; T1_NUM_PORTS] =
        [T1Port::S, T1Port::C, T1Port::Q, T1Port::NotC, T1Port::NotQ];

    /// Port index used in [`Signal::port`](crate::Signal).
    pub fn index(self) -> u8 {
        match self {
            T1Port::S => 0,
            T1Port::C => 1,
            T1Port::Q => 2,
            T1Port::NotC => 3,
            T1Port::NotQ => 4,
        }
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    /// Panics if `idx >= 5`.
    pub fn from_index(idx: u8) -> Self {
        Self::ALL[idx as usize]
    }

    /// The port computing this port's complement, when the cell offers one
    /// (`C ↔ C*+INV`, `Q ↔ Q*+INV`). `S` has no complement port: the `S`
    /// pulse fires at the cell's own clock stage, too late for a same-stage
    /// inverter.
    pub fn complement(self) -> Option<Self> {
        match self {
            T1Port::S => None,
            T1Port::C => Some(T1Port::NotC),
            T1Port::NotC => Some(T1Port::C),
            T1Port::Q => Some(T1Port::NotQ),
            T1Port::NotQ => Some(T1Port::Q),
        }
    }

    /// The Boolean function of the port over the cell's (post-inverter)
    /// inputs.
    pub fn function(self) -> TruthTable {
        match self {
            T1Port::S => TruthTable::xor3(),
            T1Port::C => TruthTable::maj3(),
            T1Port::Q => TruthTable::or3(),
            T1Port::NotC => !TruthTable::maj3(),
            T1Port::NotQ => !TruthTable::or3(),
        }
    }

    /// The port realizing `base` with the given output polarity, if any.
    ///
    /// `(Xor3, negated)` returns `None`: the five synchronous outputs do not
    /// include an inverted `S` (the `S` pulse fires at the cell's own clock
    /// stage, leaving no room for a same-stage inverter).
    pub fn for_match(base: T1Base, output_negated: bool) -> Option<Self> {
        match (base, output_negated) {
            (T1Base::Xor3, false) => Some(T1Port::S),
            (T1Base::Xor3, true) => None,
            (T1Base::Maj3, false) => Some(T1Port::C),
            (T1Base::Maj3, true) => Some(T1Port::NotC),
            (T1Base::Or3, false) => Some(T1Port::Q),
            (T1Base::Or3, true) => Some(T1Port::NotQ),
        }
    }
}

impl fmt::Display for T1Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            T1Port::S => "S",
            T1Port::C => "C",
            T1Port::Q => "Q",
            T1Port::NotC => "C*+INV",
            T1Port::NotQ => "Q*+INV",
        };
        f.write_str(s)
    }
}

/// Clocked single-output SFQ logic gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Clocked inverter (one input).
    Inv,
    /// Clocked buffer (one input). Used only in tests; never produced by the
    /// mapper.
    Buf,
    /// Two-input AND.
    And2,
    /// Two-input OR.
    Or2,
    /// Two-input XOR.
    Xor2,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
    /// Two-input XNOR.
    Xnor2,
}

impl GateKind {
    /// All gate kinds.
    pub const ALL: [GateKind; 8] = [
        GateKind::Inv,
        GateKind::Buf,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xnor2,
    ];

    /// Number of data inputs.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Inv | GateKind::Buf => 1,
            _ => 2,
        }
    }

    /// Truth table over the gate's inputs.
    pub fn truth_table(self) -> TruthTable {
        let a1 = TruthTable::var(1, 0);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        match self {
            GateKind::Inv => !a1,
            GateKind::Buf => a1,
            GateKind::And2 => a & b,
            GateKind::Or2 => a | b,
            GateKind::Xor2 => a ^ b,
            GateKind::Nand2 => !(a & b),
            GateKind::Nor2 => !(a | b),
            GateKind::Xnor2 => !(a ^ b),
        }
    }

    /// Evaluates the gate on concrete input bits.
    pub fn eval(self, a: bool, b: bool) -> bool {
        self.eval_word(u64::from(a), u64::from(b)) & 1 == 1
    }

    /// Evaluates the gate bitwise on 64 vectors at once.
    #[inline]
    pub fn eval_word(self, a: u64, b: u64) -> u64 {
        match self {
            GateKind::Inv => !a,
            GateKind::Buf => a,
            GateKind::And2 => a & b,
            GateKind::Or2 => a | b,
            GateKind::Xor2 => a ^ b,
            GateKind::Nand2 => !(a & b),
            GateKind::Nor2 => !(a | b),
            GateKind::Xnor2 => !(a ^ b),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Inv => "INV",
            GateKind::Buf => "BUF",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::Xnor2 => "XNOR2",
        };
        f.write_str(s)
    }
}

/// The kind of a cell in a mapped [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Primary input.
    Input,
    /// A clocked logic gate.
    Gate(GateKind),
    /// A T1 macro-cell; `used_ports` is a bitmask over [`T1Port::index`].
    T1 {
        /// Enabled output ports, as a bitmask over [`T1Port::index`].
        used_ports: u8,
    },
    /// Path-balancing D flip-flop (inserted by retiming).
    Dff,
}

impl CellKind {
    /// Number of data inputs the cell consumes.
    pub fn arity(self) -> usize {
        match self {
            CellKind::Input => 0,
            CellKind::Gate(g) => g.arity(),
            CellKind::T1 { .. } => 3,
            CellKind::Dff => 1,
        }
    }

    /// Number of output ports.
    pub fn num_ports(self) -> usize {
        match self {
            CellKind::T1 { .. } => T1_NUM_PORTS,
            _ => 1,
        }
    }

    /// True for clocked elements (everything except primary inputs — in
    /// RSFQ even "combinational" gates latch and need a clock pulse).
    pub fn is_clocked(self) -> bool {
        !matches!(self, CellKind::Input)
    }

    /// True for T1 macro-cells.
    pub fn is_t1(self) -> bool {
        matches!(self, CellKind::T1 { .. })
    }
}

/// JJ-count area model for the SFQ cell library (calibration in the module
/// docs).
///
/// # Example
///
/// ```
/// use sfq_netlist::Library;
/// let lib = Library::default();
/// // The paper's anchor: a T1-cell full adder (XOR3 on S + MAJ3 on C)
/// // costs 29 JJ.
/// assert_eq!(lib.t1_area(0b011), 29);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Library {
    /// D flip-flop.
    pub dff: u64,
    /// Splitter (1→2 fanout element).
    pub splitter: u64,
    /// Confluence buffer / merger (2→1).
    pub merger: u64,
    /// Clocked inverter.
    pub inv: u64,
    /// Clocked buffer.
    pub buf: u64,
    /// AND2 / NAND2.
    pub and2: u64,
    /// OR2 / NOR2.
    pub or2: u64,
    /// XOR2 / XNOR2.
    pub xor2: u64,
    /// Bare T1 flip-flop (loop + JQ, JC, JS, JR).
    pub t1_core: u64,
}

impl Default for Library {
    fn default() -> Self {
        Library {
            dff: 6,
            splitter: 3,
            merger: 5,
            inv: 9,
            buf: 2,
            and2: 11,
            or2: 9,
            xor2: 11,
            t1_core: 13,
        }
    }
}

impl Library {
    /// Area of a clocked gate.
    pub fn gate_area(&self, g: GateKind) -> u64 {
        match g {
            GateKind::Inv => self.inv,
            GateKind::Buf => self.buf,
            GateKind::And2 | GateKind::Nand2 => self.and2,
            GateKind::Or2 | GateKind::Nor2 => self.or2,
            GateKind::Xor2 | GateKind::Xnor2 => self.xor2,
        }
    }

    /// Area of a T1 macro-cell with the given used-port bitmask.
    ///
    /// Counts the bare cell, the two input mergers (three pulses into `T`),
    /// a latching DFF for each used `C`/`Q` port and a clocked inverter for
    /// each used `C*`/`Q*` port.
    pub fn t1_area(&self, used_ports: u8) -> u64 {
        let mut area = self.t1_core + 2 * self.merger;
        for port in T1Port::ALL {
            if used_ports >> port.index() & 1 == 1 {
                area += match port {
                    T1Port::S => 0,
                    T1Port::C | T1Port::Q => self.dff,
                    T1Port::NotC | T1Port::NotQ => self.inv,
                };
            }
        }
        area
    }

    /// Area of a cell.
    pub fn cell_area(&self, kind: CellKind) -> u64 {
        match kind {
            CellKind::Input => 0,
            CellKind::Gate(g) => self.gate_area(g),
            CellKind::T1 { used_ports } => self.t1_area(used_ports),
            CellKind::Dff => self.dff,
        }
    }

    /// Area of the splitter tree needed to drive `fanout` sinks from one pin.
    pub fn splitter_area(&self, fanout: usize) -> u64 {
        self.splitter * fanout.saturating_sub(1) as u64
    }
}
