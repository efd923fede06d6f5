//! Mapped multi-output SFQ netlists.
//!
//! A [`Network`] is the subject of the whole T1 flow: after technology
//! mapping it contains primary inputs and clocked gates; T1 detection
//! introduces multi-output [`CellKind::T1`] macro-cells; DFF insertion adds
//! [`CellKind::Dff`] cells. Splitters and the T1 input mergers are *not*
//! explicit cells — fanout trees are implied by the connectivity and priced
//! by [`Library::splitter_area`], matching how the paper reports JJ counts.
//!
//! # Data layout of the rebuild / evaluation passes
//!
//! Cell ids are dense (`CellId(i)` indexes the cell vector directly), and
//! every traversal here exploits that instead of hashing (ISSUE 2):
//!
//! * [`Network::cleaned`] runs over dense liveness marks, a dense
//!   old-cell → new-cell translation table and one staged fanin buffer.
//!   The original allocate-per-cell pass survives as
//!   [`Network::cleaned_reference`], the executable
//!   specification checked by `tests/differential_mapping.rs` (criterion
//!   gate `cleaned/multiplier12`: 61 µs → 50 µs).
//! * [`Network::simulate_words`] is the one evaluator: it evaluates each
//!   cell once across all pattern words into a flat per-pin table (a T1
//!   cell owns five consecutive pins, a DFF none, every other cell one),
//!   and [`Network::simulate`] is its one-word call. A DFF is transparent,
//!   so its pin aliases its driver's, resolved when the walk reaches it: a
//!   timed network's DFFs (128k on the 1φ log2) cost one index write each
//!   and no value slots. The flow's equivalence check simulates each
//!   network once for all its words instead of once per word (criterion
//!   gate `simulate/log2_1phi`, 4 words over the 1φ timed log2 on a 2-vCPU
//!   x86-64 Xeon: 22 ms as four one-word calls, 3.7 ms in one pass; with
//!   aliased DFF pins, 2.46 → 1.98 ms, medians of alternating runs). [`Network::cone_function`] memoizes pin
//!   values in a flat `(cell × port)` byte table reset through a touch
//!   list — no per-row `HashMap` churn.
//! * [`Network::topological_order`] is a flat-CSR Kahn sweep. The
//!   order-independent passes — simulation, [`Network::levels`] and the
//!   acyclicity half of [`Network::validate`] — skip it when every fanin id
//!   is below its cell's id, which holds for every network the flow builds
//!   (mapping, `cleaned`, T1 detection, DFF emission); index order is then
//!   already topological. Only a network built with forward references
//!   pays for Kahn.

use crate::cell::{CellKind, GateKind, Library, T1Port, T1_NUM_PORTS};
use sfq_tt::TruthTable;
use std::fmt;

/// Index of a cell within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// A reference to one output pin of a cell.
///
/// Single-output cells drive port 0; T1 cells drive ports indexed by
/// [`T1Port::index`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal {
    /// Driving cell.
    pub cell: CellId,
    /// Output port of the driving cell.
    pub port: u8,
}

impl Signal {
    /// Port-0 signal of a cell.
    pub fn from_cell(cell: CellId) -> Self {
        Signal { cell, port: 0 }
    }

    /// Signal of a specific T1 port.
    pub fn t1(cell: CellId, port: T1Port) -> Self {
        Signal {
            cell,
            port: port.index(),
        }
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.port == 0 {
            write!(f, "c{}", self.cell.0)
        } else {
            write!(f, "c{}.{}", self.cell.0, self.port)
        }
    }
}

/// Structural problems detected by [`Network::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A cell has the wrong number of fanins for its kind.
    BadArity {
        /// The offending cell.
        cell: CellId,
        /// Fanin count its kind requires.
        expected: usize,
        /// Fanin count it actually has.
        got: usize,
    },
    /// A fanin references a cell id that does not exist.
    DanglingFanin {
        /// The referencing cell.
        cell: CellId,
        /// The dangling fanin signal.
        fanin: Signal,
    },
    /// A fanin references an output port the driver does not expose or use.
    BadPort {
        /// The referencing cell.
        cell: CellId,
        /// The fanin signal with the unavailable port.
        fanin: Signal,
    },
    /// The network contains a combinational cycle.
    Cyclic,
    /// An output references a cell id that does not exist or a bad port.
    BadOutput {
        /// Index into the output list.
        index: usize,
        /// The invalid signal.
        signal: Signal,
    },
    /// An input list entry is not an [`CellKind::Input`] cell.
    NotAnInput {
        /// The offending entry.
        cell: CellId,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BadArity {
                cell,
                expected,
                got,
            } => {
                write!(
                    f,
                    "cell c{} expects {} fanins, has {}",
                    cell.0, expected, got
                )
            }
            NetworkError::DanglingFanin { cell, fanin } => {
                write!(f, "cell c{} references missing driver {:?}", cell.0, fanin)
            }
            NetworkError::BadPort { cell, fanin } => {
                write!(f, "cell c{} reads unavailable port {:?}", cell.0, fanin)
            }
            NetworkError::Cyclic => write!(f, "network contains a combinational cycle"),
            NetworkError::BadOutput { index, signal } => {
                write!(f, "output {} references invalid signal {:?}", index, signal)
            }
            NetworkError::NotAnInput { cell } => {
                write!(f, "input list entry c{} is not an Input cell", cell.0)
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Maximum fanin count of any cell kind (T1 macro-cells, at three).
const MAX_FANINS: usize = 3;

/// One cell, with its fanins stored inline. No cell kind has more than
/// [`MAX_FANINS`] inputs, so a fixed array replaces the former
/// `Vec<Signal>` — building a network performs zero per-cell heap
/// allocations, which is what makes the rebuild passes (`cleaned`, T1
/// replacement, DFF insertion) allocation-bounded by the cell vector alone.
#[derive(Debug, Clone)]
struct Cell {
    kind: CellKind,
    num_fanins: u8,
    fanins: [Signal; MAX_FANINS],
}

impl Cell {
    fn new(kind: CellKind, fanins: &[Signal]) -> Self {
        assert!(fanins.len() <= MAX_FANINS, "at most {MAX_FANINS} fanins");
        let filler = Signal {
            cell: CellId(u32::MAX),
            port: 0,
        };
        let mut buf = [filler; MAX_FANINS];
        buf[..fanins.len()].copy_from_slice(fanins);
        Cell {
            kind,
            num_fanins: fanins.len() as u8,
            fanins: buf,
        }
    }

    #[inline]
    fn fanins(&self) -> &[Signal] {
        &self.fanins[..self.num_fanins as usize]
    }
}

/// A mapped multi-output SFQ netlist.
///
/// # Example
///
/// ```
/// use sfq_netlist::{GateKind, Library, Network};
///
/// let mut net = Network::new("half_adder");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let s = net.add_gate(GateKind::Xor2, &[a, b]);
/// let c = net.add_gate(GateKind::And2, &[a, b]);
/// net.add_output("s", s);
/// net.add_output("c", c);
/// net.validate().unwrap();
/// assert_eq!(net.num_gates(), 2);
/// // a and b each fan out to two gates → two splitters.
/// assert_eq!(net.area(&Library::default()), 11 + 11 + 2 * 3);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    cells: Vec<Cell>,
    inputs: Vec<CellId>,
    input_names: Vec<String>,
    outputs: Vec<Signal>,
    output_names: Vec<String>,
}

/// JJ area decomposed by cell class (see [`Network::area_breakdown`]).
///
/// # Example
///
/// ```
/// use sfq_netlist::{GateKind, Library, Network};
/// let mut net = Network::new("t");
/// let a = net.add_input("a");
/// let g = net.add_gate(GateKind::Inv, &[a]);
/// let d = net.add_dff(g);
/// net.add_output("o", d);
/// let b = net.area_breakdown(&Library::default());
/// assert_eq!(b.gates, 9);
/// assert_eq!(b.dffs, 6);
/// assert_eq!(b.total(), net.area(&Library::default()));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaBreakdown {
    /// Clocked logic gates.
    pub gates: u64,
    /// T1 macro-cells (including their internal latches/inverters).
    pub t1_cells: u64,
    /// Path-balancing DFFs.
    pub dffs: u64,
    /// Implied splitter trees on multi-fanout pins.
    pub splitters: u64,
}

impl AreaBreakdown {
    /// Sum of all classes.
    pub fn total(&self) -> u64 {
        self.gates + self.t1_cells + self.dffs + self.splitters
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            cells: Vec::new(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
        }
    }

    /// Creates an empty network with room for `cells` cells.
    pub fn with_capacity(name: impl Into<String>, cells: usize) -> Self {
        let mut net = Network::new(name);
        net.cells.reserve_exact(cells);
        net
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input; returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Signal {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell::new(CellKind::Input, &[]));
        self.inputs.push(id);
        self.input_names.push(name.into());
        Signal::from_cell(id)
    }

    /// Adds a clocked gate; returns its output signal.
    ///
    /// # Panics
    /// Panics if `fanins.len()` does not match the gate arity.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Signal {
        assert_eq!(fanins.len(), kind.arity(), "gate arity mismatch for {kind}");
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell::new(CellKind::Gate(kind), fanins));
        Signal::from_cell(id)
    }

    /// Adds a T1 macro-cell with the given used-port mask; returns its id.
    ///
    /// Use [`Signal::t1`] to reference individual ports.
    ///
    /// # Panics
    /// Panics if `fanins.len() != 3`, the mask is empty, or the mask has bits
    /// above the five ports.
    pub fn add_t1(&mut self, used_ports: u8, fanins: &[Signal]) -> CellId {
        assert_eq!(fanins.len(), 3, "T1 cells have exactly three fanins");
        assert!(used_ports != 0, "T1 cell must use at least one port");
        assert!(used_ports < 1 << T1_NUM_PORTS, "invalid T1 port mask");
        let id = CellId(self.cells.len() as u32);
        self.cells
            .push(Cell::new(CellKind::T1 { used_ports }, fanins));
        id
    }

    /// Enables an additional output port on an existing T1 macro-cell and
    /// returns its signal (used when a consumer wants a complement the cell
    /// can produce internally — e.g. `C*`+INV instead of an external
    /// inverter on `C`).
    ///
    /// # Panics
    /// Panics if `id` is not a T1 cell.
    pub fn enable_t1_port(&mut self, id: CellId, port: T1Port) -> Signal {
        match &mut self.cells[id.0 as usize].kind {
            CellKind::T1 { used_ports } => {
                *used_ports |= 1 << port.index();
                Signal::t1(id, port)
            }
            other => panic!("cell c{} is {other:?}, not a T1 macro-cell", id.0),
        }
    }

    /// Adds a path-balancing DFF; returns its output signal.
    pub fn add_dff(&mut self, fanin: Signal) -> Signal {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell::new(CellKind::Dff, &[fanin]));
        Signal::from_cell(id)
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: Signal) {
        self.outputs.push(signal);
        self.output_names.push(name.into());
    }

    /// Number of cells (inputs included).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic cells (gates + T1 cells, excluding inputs and DFFs).
    pub fn num_gates(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Gate(_) | CellKind::T1 { .. }))
            .count()
    }

    /// Number of DFF cells.
    pub fn num_dffs(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Dff))
            .count()
    }

    /// Number of T1 macro-cells.
    pub fn num_t1(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::T1 { .. }))
            .count()
    }

    /// Kind of a cell.
    pub fn kind(&self, id: CellId) -> CellKind {
        self.cells[id.0 as usize].kind
    }

    /// Fanins of a cell.
    pub fn fanins(&self, id: CellId) -> &[Signal] {
        self.cells[id.0 as usize].fanins()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[CellId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Name of input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Name of output `i`.
    pub fn output_name(&self, i: usize) -> &str {
        &self.output_names[i]
    }

    /// All cell ids in index order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Per-cell list of `(consumer, fanin_index)` pairs, covering all ports.
    pub fn fanouts(&self) -> Vec<Vec<(CellId, usize)>> {
        let mut fo = vec![Vec::new(); self.cells.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            for (k, f) in cell.fanins().iter().enumerate() {
                fo[f.cell.0 as usize].push((CellId(i as u32), k));
            }
        }
        fo
    }

    /// Fanout count of each individual output *pin* `(cell, port)`,
    /// including primary-output connections.
    pub fn pin_fanout_counts(&self) -> Vec<[u32; T1_NUM_PORTS]> {
        let mut counts = vec![[0u32; T1_NUM_PORTS]; self.cells.len()];
        for cell in &self.cells {
            for f in cell.fanins() {
                counts[f.cell.0 as usize][f.port as usize] += 1;
            }
        }
        for o in &self.outputs {
            counts[o.cell.0 as usize][o.port as usize] += 1;
        }
        counts
    }

    /// Topological order over cells (inputs first). Cells are stored in
    /// creation order which is already topological for append-only
    /// construction, but rebuilt networks may interleave — this recomputes a
    /// valid order.
    ///
    /// # Errors
    /// Returns [`NetworkError::Cyclic`] if the connectivity has a cycle.
    pub fn topological_order(&self) -> Result<Vec<CellId>, NetworkError> {
        let n = self.cells.len();
        let mut indegree = vec![0u32; n];
        for (i, cell) in self.cells.iter().enumerate() {
            indegree[i] = u32::from(cell.num_fanins);
        }
        // Flat CSR fanout adjacency (filled in the same cell-major order the
        // nested `fanouts()` lists use, so the Kahn output is unchanged),
        // avoiding one Vec allocation per cell on this very hot helper.
        let mut counts = vec![0u32; n];
        for cell in &self.cells {
            for f in cell.fanins() {
                counts[f.cell.0 as usize] += 1;
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut cursor = offsets.clone();
        let mut consumers = vec![0u32; offsets[n] as usize];
        for (i, cell) in self.cells.iter().enumerate() {
            for f in cell.fanins() {
                let c = &mut cursor[f.cell.0 as usize];
                consumers[*c as usize] = i as u32;
                *c += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(CellId(i));
            for &consumer in
                &consumers[offsets[i as usize] as usize..offsets[i as usize + 1] as usize]
            {
                let d = &mut indegree[consumer as usize];
                *d -= 1;
                if *d == 0 {
                    queue.push(consumer);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(NetworkError::Cyclic)
        }
    }

    /// Checks structural sanity (arity, ports, acyclicity, outputs).
    ///
    /// # Errors
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetworkError> {
        let mut index_ordered = true;
        for (i, cell) in self.cells.iter().enumerate() {
            let id = CellId(i as u32);
            let expected = cell.kind.arity();
            if cell.fanins().len() != expected {
                return Err(NetworkError::BadArity {
                    cell: id,
                    expected,
                    got: cell.fanins().len(),
                });
            }
            for &f in cell.fanins() {
                if f.cell.0 as usize >= self.cells.len() {
                    return Err(NetworkError::DanglingFanin { cell: id, fanin: f });
                }
                if !self.port_is_available(f) {
                    return Err(NetworkError::BadPort { cell: id, fanin: f });
                }
                index_ordered &= (f.cell.0 as usize) < i;
            }
        }
        for &i in &self.inputs {
            if !matches!(self.cells[i.0 as usize].kind, CellKind::Input) {
                return Err(NetworkError::NotAnInput { cell: i });
            }
        }
        for (idx, &o) in self.outputs.iter().enumerate() {
            if o.cell.0 as usize >= self.cells.len() || !self.port_is_available(o) {
                return Err(NetworkError::BadOutput {
                    index: idx,
                    signal: o,
                });
            }
        }
        // An index-ordered network is acyclic; only forward fanins need Kahn.
        if !index_ordered {
            self.topological_order()?;
        }
        Ok(())
    }

    fn port_is_available(&self, s: Signal) -> bool {
        match self.cells[s.cell.0 as usize].kind {
            CellKind::T1 { used_ports } => {
                (s.port as usize) < T1_NUM_PORTS && used_ports >> s.port & 1 == 1
            }
            _ => s.port == 0,
        }
    }

    /// Bit-parallel functional simulation ignoring timing: `patterns[i]`
    /// carries 64 vectors for input `i`; returns one word per output. The
    /// one-word call of [`Network::simulate_words`].
    ///
    /// DFFs are treated as transparent (pure retiming elements), so the
    /// result is the steady-state combinational function — the reference
    /// against which pulse-level simulation is checked.
    ///
    /// # Panics
    /// Panics if `patterns.len() != num_inputs()` or the network is cyclic.
    pub fn simulate(&self, patterns: &[u64]) -> Vec<u64> {
        self.simulate_words(patterns, 1)
    }

    /// [`Network::simulate`] over `words` pattern words in one pass.
    /// `patterns` is word-major — word `w` of input `i` is
    /// `patterns[w * num_inputs() + i]` — and so is the result: word `w` of
    /// output `k` is at `w * num_outputs() + k`. Equal, word for word, to
    /// `words` one-word calls.
    ///
    /// Each cell is evaluated once across all words into a flat per-pin
    /// table. A DFF gets no slot: its pin aliases its driver's pin, resolved
    /// in visit order, so a chain of DFFs reads the value at its head.
    /// Cells are visited in index order when every fanin id is below its
    /// cell's id (true of every network the flow builds), and in
    /// [`Network::topological_order`] otherwise.
    ///
    /// # Panics
    /// Panics if `patterns.len() != words * num_inputs()` or the network is
    /// cyclic.
    pub fn simulate_words(&self, patterns: &[u64], words: usize) -> Vec<u64> {
        let ni = self.inputs.len();
        assert_eq!(
            patterns.len(),
            words * ni,
            "one pattern word per input and word"
        );
        // Pin `p` of cell `i` is pin `first_pin[i] + p`; its `words` values
        // are contiguous in `values`. A DFF owns no pin: it is transparent,
        // so its `first_pin` is set, when it is visited, to its driver's pin.
        let mut first_pin = Vec::with_capacity(self.cells.len());
        let mut pins = 0usize;
        for cell in &self.cells {
            first_pin.push(pins as u32);
            if cell.kind != CellKind::Dff {
                pins += cell.kind.num_ports();
            }
        }
        let pin = |first_pin: &[u32], s: Signal| first_pin[s.cell.0 as usize] + u32::from(s.port);
        let mut values = vec![0u64; pins * words];
        for (k, &id) in self.inputs.iter().enumerate() {
            let at = first_pin[id.0 as usize] as usize * words;
            for w in 0..words {
                values[at + w] = patterns[w * ni + k];
            }
        }
        self.visit_topological(|i| {
            let cell = &self.cells[i];
            let slot = |s: Signal| pin(&first_pin, s) as usize * words;
            let at = first_pin[i] as usize * words;
            match cell.kind {
                CellKind::Input => {}
                CellKind::Gate(g) => {
                    let a = slot(cell.fanins[0]);
                    let b = if g.arity() == 2 {
                        slot(cell.fanins[1])
                    } else {
                        a
                    };
                    for w in 0..words {
                        values[at + w] = g.eval_word(values[a + w], values[b + w]);
                    }
                }
                CellKind::T1 { .. } => {
                    let [a, b, c] = cell.fanins.map(slot);
                    for w in 0..words {
                        let (x, y, z) = (values[a + w], values[b + w], values[c + w]);
                        let maj3 = (x & y) | (x & z) | (y & z);
                        let or3 = x | y | z;
                        let port = |p: T1Port| at + p.index() as usize * words + w;
                        values[port(T1Port::S)] = x ^ y ^ z;
                        values[port(T1Port::C)] = maj3;
                        values[port(T1Port::Q)] = or3;
                        values[port(T1Port::NotC)] = !maj3;
                        values[port(T1Port::NotQ)] = !or3;
                    }
                }
                CellKind::Dff => first_pin[i] = pin(&first_pin, cell.fanins[0]),
            }
        });
        let mut out = Vec::with_capacity(words * self.outputs.len());
        for w in 0..words {
            out.extend(
                self.outputs
                    .iter()
                    .map(|&o| values[pin(&first_pin, o) as usize * words + w]),
            );
        }
        out
    }

    /// True when every fanin id is below its cell's id, so index order is
    /// a topological order.
    fn is_index_ordered(&self) -> bool {
        self.cells
            .iter()
            .enumerate()
            .all(|(i, cell)| cell.fanins().iter().all(|f| (f.cell.0 as usize) < i))
    }

    /// Calls `visit` with every cell index in a topological order: index
    /// order when the network is index-ordered, else the Kahn order of
    /// [`Network::topological_order`].
    ///
    /// # Panics
    /// Panics if the network is cyclic.
    pub(crate) fn visit_topological(&self, mut visit: impl FnMut(usize)) {
        if self.is_index_ordered() {
            (0..self.cells.len()).for_each(visit);
        } else {
            let order = self.topological_order().expect("network must be acyclic");
            order.into_iter().for_each(|id| visit(id.0 as usize));
        }
    }

    /// Logic level of every cell: inputs at 0, every clocked cell one above
    /// its deepest fanin. DFFs count as levels (they are clocked).
    ///
    /// # Panics
    /// Panics if the network is cyclic.
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.cells.len()];
        self.visit_topological(|i| {
            let cell = &self.cells[i];
            if cell.kind.is_clocked() && cell.num_fanins != 0 {
                lv[i] = 1 + cell
                    .fanins()
                    .iter()
                    .map(|f| lv[f.cell.0 as usize])
                    .max()
                    .unwrap();
            }
        });
        lv
    }

    /// Maximum output level (logic depth in clocked levels).
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.outputs
            .iter()
            .map(|o| lv[o.cell.0 as usize])
            .max()
            .unwrap_or(0)
    }

    /// Total area in JJs: every cell plus implied splitter trees on
    /// multi-fanout pins.
    pub fn area(&self, lib: &Library) -> u64 {
        self.area_breakdown(lib).total()
    }

    /// Area decomposed by cell class — the view behind the paper's claim
    /// that path-balancing DFFs dominate SFQ layouts.
    pub fn area_breakdown(&self, lib: &Library) -> AreaBreakdown {
        let counts = self.pin_fanout_counts();
        let mut b = AreaBreakdown::default();
        for (i, cell) in self.cells.iter().enumerate() {
            match cell.kind {
                CellKind::Input => {}
                CellKind::Gate(_) => b.gates += lib.cell_area(cell.kind),
                CellKind::T1 { .. } => b.t1_cells += lib.cell_area(cell.kind),
                CellKind::Dff => b.dffs += lib.cell_area(cell.kind),
            }
            for &fanout in counts[i].iter().take(cell.kind.num_ports()) {
                b.splitters += lib.splitter_area(fanout as usize);
            }
        }
        b
    }

    /// Removes cells unreachable from the primary outputs; inputs are always
    /// kept. Returns the cleaned network and, for bookkeeping, the number of
    /// removed cells.
    pub fn cleaned(&self) -> (Network, usize) {
        let n = self.cells.len();
        let mut live = vec![false; n];
        let mut remap: Vec<Option<CellId>> = vec![None; n];
        let mut fanin_buf: Vec<Signal> = Vec::new();
        let mut stack: Vec<u32> = self.outputs.iter().map(|o| o.cell.0).collect();
        while let Some(i) = stack.pop() {
            if live[i as usize] {
                continue;
            }
            live[i as usize] = true;
            for f in self.cells[i as usize].fanins() {
                stack.push(f.cell.0);
            }
        }
        for &i in &self.inputs {
            live[i.0 as usize] = true;
        }
        let order = self.topological_order().expect("network must be acyclic");
        let mut out = Network::new(self.name.clone());
        // Inputs first, preserving declaration order and names.
        for (k, &i) in self.inputs.iter().enumerate() {
            let s = out.add_input(self.input_names[k].clone());
            remap[i.0 as usize] = Some(s.cell);
        }
        let mut removed = 0usize;
        for id in order {
            let i = id.0 as usize;
            if remap[i].is_some() {
                continue;
            }
            if !live[i] {
                removed += 1;
                continue;
            }
            let cell = &self.cells[i];
            fanin_buf.clear();
            fanin_buf.extend(cell.fanins().iter().map(|f| Signal {
                cell: remap[f.cell.0 as usize].expect("fanin live"),
                port: f.port,
            }));
            let new_id = match cell.kind {
                CellKind::Input => unreachable!("inputs already mapped"),
                CellKind::Gate(g) => out.add_gate(g, &fanin_buf).cell,
                CellKind::T1 { used_ports } => out.add_t1(used_ports, &fanin_buf),
                CellKind::Dff => out.add_dff(fanin_buf[0]).cell,
            };
            remap[i] = Some(new_id);
        }
        for (k, &o) in self.outputs.iter().enumerate() {
            let s = Signal {
                cell: remap[o.cell.0 as usize].expect("output live"),
                port: o.port,
            };
            out.add_output(self.output_names[k].clone(), s);
        }
        (out, removed)
    }

    /// Reference implementation of [`Network::cleaned`]: the original
    /// allocate-per-cell rebuild, kept verbatim as the executable
    /// specification for the differential harness
    /// (`tests/differential_mapping.rs`). Bit-identical to `cleaned` by
    /// construction and by test.
    pub fn cleaned_reference(&self) -> (Network, usize) {
        let mut live = vec![false; self.cells.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|o| o.cell.0).collect();
        while let Some(i) = stack.pop() {
            if live[i as usize] {
                continue;
            }
            live[i as usize] = true;
            for f in self.cells[i as usize].fanins() {
                stack.push(f.cell.0);
            }
        }
        for &i in &self.inputs {
            live[i.0 as usize] = true;
        }
        let order = self.topological_order().expect("network must be acyclic");
        let mut remap: Vec<Option<CellId>> = vec![None; self.cells.len()];
        let mut out = Network::new(self.name.clone());
        // Inputs first, preserving declaration order and names.
        for (k, &i) in self.inputs.iter().enumerate() {
            let s = out.add_input(self.input_names[k].clone());
            remap[i.0 as usize] = Some(s.cell);
        }
        let mut removed = 0usize;
        for id in order {
            let i = id.0 as usize;
            if remap[i].is_some() {
                continue;
            }
            if !live[i] {
                removed += 1;
                continue;
            }
            let cell = &self.cells[i];
            let fanins: Vec<Signal> = cell
                .fanins()
                .iter()
                .map(|f| Signal {
                    cell: remap[f.cell.0 as usize].expect("fanin live"),
                    port: f.port,
                })
                .collect();
            let new_id = match cell.kind {
                CellKind::Input => unreachable!("inputs already mapped"),
                CellKind::Gate(g) => out.add_gate(g, &fanins).cell,
                CellKind::T1 { used_ports } => out.add_t1(used_ports, &fanins),
                CellKind::Dff => out.add_dff(fanins[0]).cell,
            };
            remap[i] = Some(new_id);
        }
        for (k, &o) in self.outputs.iter().enumerate() {
            let s = Signal {
                cell: remap[o.cell.0 as usize].expect("output live"),
                port: o.port,
            };
            out.add_output(self.output_names[k].clone(), s);
        }
        (out, removed)
    }

    /// Truth table of a small cone: evaluates the function of `root`'s pin
    /// over the given `leaves` (at most 6), treating leaves as free variables.
    /// Cells outside the cone must not be reached — callers pass a cut whose
    /// leaves dominate the cone.
    ///
    /// # Panics
    /// Panics if more than 6 leaves are given or the cone escapes the leaves
    /// (reaches a primary input not in `leaves`).
    pub fn cone_function(&self, root: Signal, leaves: &[Signal]) -> TruthTable {
        assert!(leaves.len() <= TruthTable::MAX_VARS, "at most 6 leaves");
        let n = leaves.len();
        // Dense per-pin memo (0 = unset, 1 = false, 2 = true) reset between
        // rows through the touch list — no hash map churn per row.
        let mut memo = vec![0u8; self.cells.len() * T1_NUM_PORTS];
        let mut touched: Vec<u32> = Vec::new();
        let slot = |s: Signal| s.cell.0 as usize * T1_NUM_PORTS + s.port as usize;
        let mut bits = 0u64;
        for row in 0..(1usize << n) {
            for &t in &touched {
                memo[t as usize] = 0;
            }
            touched.clear();
            for (i, &l) in leaves.iter().enumerate() {
                let v = (row >> i) & 1 == 1;
                memo[slot(l)] = 1 + u8::from(v);
                touched.push(slot(l) as u32);
            }
            if self.eval_cone(root, &mut memo, &mut touched) {
                bits |= 1 << row;
            }
        }
        TruthTable::from_bits_truncated(n, bits)
    }

    fn eval_cone(&self, s: Signal, memo: &mut [u8], touched: &mut Vec<u32>) -> bool {
        let slot = s.cell.0 as usize * T1_NUM_PORTS + s.port as usize;
        match memo[slot] {
            1 => return false,
            2 => return true,
            _ => {}
        }
        let cell = &self.cells[s.cell.0 as usize];
        let v = match cell.kind {
            CellKind::Input => panic!("cone evaluation escaped the cut leaves"),
            CellKind::Gate(g) => {
                let a = self.eval_cone(cell.fanins[0], memo, touched);
                let b = if g.arity() == 2 {
                    self.eval_cone(cell.fanins[1], memo, touched)
                } else {
                    false
                };
                g.eval(a, b)
            }
            CellKind::T1 { .. } => {
                let a = self.eval_cone(cell.fanins[0], memo, touched);
                let b = self.eval_cone(cell.fanins[1], memo, touched);
                let c = self.eval_cone(cell.fanins[2], memo, touched);
                match T1Port::from_index(s.port) {
                    T1Port::S => a ^ b ^ c,
                    T1Port::C => (a & b) | (a & c) | (b & c),
                    T1Port::Q => a | b | c,
                    T1Port::NotC => !((a & b) | (a & c) | (b & c)),
                    T1Port::NotQ => !(a | b | c),
                }
            }
            CellKind::Dff => self.eval_cone(cell.fanins[0], memo, touched),
        };
        memo[slot] = 1 + u8::from(v);
        touched.push(slot as u32);
        v
    }
}
