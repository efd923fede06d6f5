//! Tick-accurate pulse simulation of a [`TimedNetwork`].
//!
//! Time advances in *stages* (global tick `τ`); a cell at stage `σ` fires at
//! every tick `τ ≥ σ` with `τ ≡ σ (mod n)`, consuming the pulses buffered on
//! its inputs since its previous firing and emitting result pulses that are
//! delivered to sinks instantly (interconnect delay is abstracted into the
//! stage discipline, as in the paper's model). Primary inputs release wave
//! `w`'s pulses at tick `w·n`; outputs are sampled where their drivers fire,
//! at `σ_out + w·n`.
//!
//! The simulator is deliberately strict: any double pulse on a gate input,
//! any `T`/`T` or `T`/`R` collision at a T1 cell, and any pulse surviving
//! past its lifetime turns into a [`Hazard`]. A correct flow output never
//! produces one — that is precisely the property the paper's constraints
//! (eqs. 3–5) enforce, and the test suite leans on it.
//!
//! # Data layout
//!
//! [`PulseSim::new`] builds the whole schedule once, on dense tables:
//!
//! * **Pins**: cell `i` owns `num_ports()` consecutive pins (five for a T1
//!   cell, one for every other cell, DFFs included, since a DFF delays its
//!   pulse), in cell-id order, so pin order is `(cell, port)` order and
//!   every per-pin table is O(pins).
//! * **Sinks** are a CSR table: pin `q`'s consumers, as `(cell, fanin)`
//!   pairs in consumer-id then fanin order, sit in one contiguous slice.
//! * **Firing lists**: one per phase, every clocked cell of that phase
//!   sorted by `(stage, id)`. Tick `τ` fires the prefix of phase
//!   `τ mod n`'s list whose stage is `≤ τ` — cells in increasing stage,
//!   ties in id order, so a producer always fires before its same-tick
//!   consumers.
//!
//! A run keeps per-cell gate, DFF and T1 state in one flat vector. "This
//! pin emitted at this tick" and "this T1 took a `T` pulse at this tick"
//! are tick stamps, so nothing is cleared between ticks, and a run
//! allocates and sorts nothing per tick (a traced run sorts its event list
//! once, at the end).
//!
//! # Firing order and determinism
//!
//! Within a tick the primary inputs fire first, in declaration order, then
//! the phase's firing list in order; every pulse is delivered to its sinks
//! the moment it is emitted. The order is a function of the network alone,
//! so the hazard list of a failing run — and the `first:` hazard its
//! message names — is the same on every run.

use crate::t1cell::{T1Cell, T1Input};
use sfq_core::TimedNetwork;
use sfq_netlist::{CellId, CellKind, Signal, T1Port, T1_NUM_PORTS};
use std::fmt;

/// A timing violation observed during pulse simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// A second pulse arrived on the same gate input before the cell fired.
    DoublePulse {
        /// The receiving cell.
        cell: CellId,
        /// Which of its fanins double-pulsed.
        fanin: usize,
        /// Simulation tick of the second pulse.
        tick: u64,
    },
    /// Two pulses reached a T1 `T` input at the same tick (merger collision).
    T1Collision {
        /// The T1 cell.
        cell: CellId,
        /// Tick of the collision.
        tick: u64,
    },
    /// A data pulse hit a T1 cell at its own clock tick.
    T1DataOnClock {
        /// The T1 cell.
        cell: CellId,
        /// Tick of the ill-timed pulse.
        tick: u64,
    },
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::DoublePulse { cell, fanin, tick } => {
                write!(
                    f,
                    "double pulse on input {fanin} of c{} at tick {tick}",
                    cell.0
                )
            }
            Hazard::T1Collision { cell, tick } => {
                write!(
                    f,
                    "T-input pulse collision at T1 c{} at tick {tick}",
                    cell.0
                )
            }
            Hazard::T1DataOnClock { cell, tick } => {
                write!(
                    f,
                    "data pulse during clock tick at T1 c{} at tick {tick}",
                    cell.0
                )
            }
        }
    }
}

/// Simulation failure: the run never started (malformed stimulus) or one or
/// more hazards fired while it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// One or more timing hazards fired; all hazards recorded before the
    /// simulator gave up.
    Hazards(Vec<Hazard>),
    /// A stimulus wave carries a different number of values than the
    /// network has primary inputs, so the run was rejected up front.
    WaveArity {
        /// Index of the offending wave.
        wave: usize,
        /// Values the wave carries.
        got: usize,
        /// Primary inputs the network has.
        expected: usize,
    },
}

impl SimError {
    /// The recorded hazards (empty for non-hazard failures).
    pub fn hazards(&self) -> &[Hazard] {
        match self {
            SimError::Hazards(hazards) => hazards,
            SimError::WaveArity { .. } => &[],
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hazards(hazards) => write!(
                f,
                "pulse simulation detected {} hazard(s); first: {}",
                hazards.len(),
                hazards[0]
            ),
            SimError::WaveArity {
                wave,
                got,
                expected,
            } => write!(
                f,
                "wave {wave} carries {got} value(s), but the design has {expected} input(s)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// How many hazards a run collects before it gives up: collection stops
/// after the first tick that ends with more than this many recorded, since
/// a run that broken has shown enough evidence.
const MAX_HAZARDS: usize = 32;

/// One clocked cell in its phase's firing list.
#[derive(Debug, Clone, Copy)]
struct Firing {
    stage: u32,
    cell: u32,
    /// The cell's first pin.
    pin: u32,
    kind: CellKind,
}

/// One consumer of a pin: `(cell, fanin)` plus what a delivery needs to
/// know about the cell without looking it up.
#[derive(Debug, Clone, Copy, Default)]
struct Sink {
    cell: u32,
    stage: u32,
    fanin: u8,
    /// `stage mod n`.
    phase: u8,
    /// A T1 cell (its `T` input) rather than a gate or DFF slot.
    t1: bool,
}

/// The run-time state of one cell; each kind reads only its own fields.
#[derive(Debug, Clone, Default)]
struct CellState {
    /// Gate/DFF: pulses buffered per fanin for the next firing.
    buf: [bool; 2],
    /// Gate/DFF: pulses that arrived while the cell fired this tick, so
    /// they belong to the firing after.
    pending: [bool; 2],
    /// T1: the storage loop.
    t1: T1Cell,
    /// T1: `C*` / `Q*` pulses latched since the last clock.
    c_latch: bool,
    q_latch: bool,
    /// T1: the tick of the last accepted `T` pulse (collision check).
    t_tick: u64,
}

impl CellState {
    /// Clocks a gate or DFF: returns the pulses buffered for this firing
    /// and promotes the ones that arrived for the next.
    fn clock(&mut self) -> [bool; 2] {
        let inputs = self.buf;
        self.buf = self.pending;
        self.pending = [false; 2];
        inputs
    }
}

/// Everything one run mutates.
struct Run<'t> {
    /// The current tick and its phase (`tick mod n`).
    tick: u64,
    phase: u8,
    cells: Vec<CellState>,
    /// Per pin: the last tick it emitted (the "emitted this tick" set,
    /// cleared for free as the tick advances).
    fired: Vec<u64>,
    hazards: Vec<Hazard>,
    events: Option<&'t mut Vec<(u64, Signal)>>,
}

/// Tick stamp of "never": ticks count up from 0 and stop well short of it.
const NEVER: u64 = u64::MAX;

/// A reusable pulse simulator for one timed network.
#[derive(Debug)]
pub struct PulseSim<'a> {
    timed: &'a TimedNetwork,
    /// Clocked cells grouped by phase, each group sorted by `(stage, id)`:
    /// phase `p` is `firing[phase_start[p]..phase_start[p + 1]]`.
    firing: Vec<Firing>,
    phase_start: Vec<u32>,
    /// CSR sinks: pin `q` feeds `sinks[sink_start[q]..sink_start[q + 1]]`,
    /// in consumer-id then fanin order.
    sink_start: Vec<u32>,
    sinks: Vec<Sink>,
    /// Port-0 pin of every primary input, in declaration order.
    input_pins: Vec<u32>,
    /// Pin of every primary output (`None`: a pin that never fires).
    output_pins: Vec<Option<u32>>,
    num_pins: usize,
}

impl<'a> PulseSim<'a> {
    /// Prepares the firing schedule for `timed`.
    pub fn new(timed: &'a TimedNetwork) -> Self {
        let n = timed.num_phases as u32;
        let net = &timed.network;
        let num_cells = net.num_cells();

        let mut first_pin = Vec::with_capacity(num_cells);
        let mut num_pins = 0u32;
        for id in net.cell_ids() {
            first_pin.push(num_pins);
            num_pins += net.kind(id).num_ports() as u32;
        }
        // A signal naming a cell or port that does not exist never fires.
        let pin_of = |s: Signal| {
            let cell = s.cell.0 as usize;
            (cell < num_cells && (s.port as usize) < net.kind(s.cell).num_ports())
                .then(|| first_pin[cell] + s.port as u32)
        };

        let mut firing: Vec<Firing> = net
            .cell_ids()
            .filter(|&id| net.kind(id).is_clocked())
            .map(|id| Firing {
                stage: timed.stages[id.0 as usize],
                cell: id.0,
                pin: first_pin[id.0 as usize],
                kind: net.kind(id),
            })
            .collect();
        firing.sort_unstable_by_key(|f| (f.stage % n, f.stage, f.cell));
        let mut phase_start = vec![0u32; n as usize + 1];
        for f in &firing {
            phase_start[(f.stage % n) as usize + 1] += 1;
        }
        for p in 0..n as usize {
            phase_start[p + 1] += phase_start[p];
        }

        let mut sink_start = vec![0u32; num_pins as usize + 1];
        for id in net.cell_ids() {
            for &f in net.fanins(id) {
                if let Some(pin) = pin_of(f) {
                    sink_start[pin as usize + 1] += 1;
                }
            }
        }
        for q in 0..num_pins as usize {
            sink_start[q + 1] += sink_start[q];
        }
        let mut cursor = sink_start.clone();
        let mut sinks = vec![Sink::default(); sink_start[num_pins as usize] as usize];
        for id in net.cell_ids() {
            let stage = timed.stages[id.0 as usize];
            for (k, &f) in net.fanins(id).iter().enumerate() {
                let Some(pin) = pin_of(f) else { continue };
                let at = &mut cursor[pin as usize];
                sinks[*at as usize] = Sink {
                    cell: id.0,
                    stage,
                    fanin: k as u8,
                    phase: (stage % n) as u8,
                    t1: net.kind(id).is_t1(),
                };
                *at += 1;
            }
        }

        PulseSim {
            timed,
            firing,
            phase_start,
            sink_start,
            sinks,
            input_pins: net
                .inputs()
                .iter()
                .map(|&i| first_pin[i.0 as usize])
                .collect(),
            output_pins: net.outputs().iter().map(|&o| pin_of(o)).collect(),
            num_pins: num_pins as usize,
        }
    }

    /// Streams `waves` through the pipeline; `waves[w][i]` is input `i` of
    /// wave `w`. Returns one output vector per wave.
    ///
    /// # Errors
    /// [`SimError::WaveArity`] if a wave's length differs from the input
    /// count; [`SimError::Hazards`] when the timing discipline is violated
    /// (a flow bug — audited networks simulate cleanly). The hazards are
    /// listed in the order they fired; collection stops after the first
    /// tick that ends with more than 32 of them, so a badly broken run
    /// reports a prefix rather than every hazard.
    pub fn run(&self, waves: &[Vec<bool>]) -> Result<Vec<Vec<bool>>, SimError> {
        self.run_inner(waves, None)
    }

    /// Like [`run`](Self::run), but also records every pulse on every pin —
    /// the raw material for waveform viewers (see [`crate::vcd`]).
    ///
    /// # Errors
    /// See [`run`](Self::run).
    pub fn run_traced(
        &self,
        waves: &[Vec<bool>],
    ) -> Result<(Vec<Vec<bool>>, PulseTrace), SimError> {
        let mut trace = PulseTrace {
            last_tick: 0,
            events: Vec::new(),
        };
        let outputs = self.run_inner(waves, Some(&mut trace))?;
        Ok((outputs, trace))
    }

    fn run_inner(
        &self,
        waves: &[Vec<bool>],
        trace: Option<&mut PulseTrace>,
    ) -> Result<Vec<Vec<bool>>, SimError> {
        let timed = self.timed;
        let net = &timed.network;
        let n = timed.num_phases as u64;
        let w_count = waves.len() as u64;
        for (wave, w) in waves.iter().enumerate() {
            if w.len() != net.num_inputs() {
                return Err(SimError::WaveArity {
                    wave,
                    got: w.len(),
                    expected: net.num_inputs(),
                });
            }
        }

        let last_tick = timed.output_stage as u64 + w_count.saturating_sub(1) * n;
        let mut run = Run {
            tick: 0,
            phase: 0,
            cells: vec![
                CellState {
                    t_tick: NEVER,
                    ..CellState::default()
                };
                net.num_cells()
            ],
            fired: vec![NEVER; self.num_pins],
            hazards: Vec::new(),
            events: trace.map(|t| {
                t.last_tick = last_tick;
                &mut t.events
            }),
        };
        let mut outputs = vec![vec![false; self.output_pins.len()]; waves.len()];

        for tick in 0..=last_tick {
            let phase = (tick % n) as usize;
            run.tick = tick;
            run.phase = phase as u8;
            // Primary inputs fire at phase 0 with their wave's data.
            if phase == 0 {
                let wave = tick / n;
                if wave < w_count {
                    let inputs = self.input_pins.iter().zip(net.inputs());
                    for ((&pin, &cell), &bit) in inputs.zip(&waves[wave as usize]) {
                        if bit {
                            self.emit(&mut run, pin, Signal::from_cell(cell));
                        }
                    }
                }
            }
            // Deliveries are processed immediately inside emit(); firing
            // in increasing stage order means producers at this tick never
            // race their same-tick consumers (all spans ≥ 1).
            let list = &self.firing
                [self.phase_start[phase] as usize..self.phase_start[phase + 1] as usize];
            for f in list {
                if f.stage as u64 > tick {
                    break;
                }
                self.fire(&mut run, f);
            }

            // Sample primary outputs.
            let out_stage = timed.output_stage as u64;
            if tick >= out_stage && (tick - out_stage).is_multiple_of(n) {
                let wave = (tick - out_stage) / n;
                if wave < w_count {
                    for (k, pin) in self.output_pins.iter().enumerate() {
                        outputs[wave as usize][k] =
                            pin.is_some_and(|q| run.fired[q as usize] == tick);
                    }
                }
            }
            if run.hazards.len() > MAX_HAZARDS {
                break; // enough evidence; stop collecting
            }
        }
        if let Some(events) = run.events {
            events.sort_unstable();
        }
        if run.hazards.is_empty() {
            Ok(outputs)
        } else {
            Err(SimError::Hazards(run.hazards))
        }
    }

    /// Fires one clocked cell: consume buffered inputs, emit results.
    fn fire(&self, run: &mut Run<'_>, f: &Firing) {
        let id = CellId(f.cell);
        let st = &mut run.cells[f.cell as usize];
        match f.kind {
            CellKind::Input => {}
            CellKind::Gate(g) => {
                let [a, b] = st.clock();
                if g.eval(a, b) {
                    self.emit(run, f.pin, Signal::from_cell(id));
                }
            }
            CellKind::Dff => {
                if st.clock()[0] {
                    self.emit(run, f.pin, Signal::from_cell(id));
                }
            }
            CellKind::T1 { used_ports } => {
                let s = st.t1.pulse(T1Input::R).s;
                let (c, q) = (st.c_latch, st.q_latch);
                st.c_latch = false;
                st.q_latch = false;
                for port in T1Port::ALL {
                    if used_ports >> port.index() & 1 == 0 {
                        continue;
                    }
                    let fire = match port {
                        T1Port::S => s,
                        T1Port::C => c,
                        T1Port::Q => q,
                        T1Port::NotC => !c,
                        T1Port::NotQ => !q,
                    };
                    if fire {
                        let pin = f.pin + port.index() as u32;
                        self.emit(run, pin, Signal::t1(id, port));
                    }
                }
            }
        }
    }

    /// Delivers a pulse from `pin` (named `signal` in traces) to every sink.
    fn emit(&self, run: &mut Run<'_>, pin: u32, signal: Signal) {
        let tick = run.tick;
        let stamp = &mut run.fired[pin as usize];
        if *stamp != tick {
            *stamp = tick;
            if let Some(events) = run.events.as_deref_mut() {
                events.push((tick, signal));
            }
        }
        let q = pin as usize;
        let sinks = &self.sinks[self.sink_start[q] as usize..self.sink_start[q + 1] as usize];
        for sink in sinks {
            // Does this pulse belong to the sink's *next* firing, or the
            // one after (same-tick emission at span n)?
            let fires_this_tick = tick >= sink.stage as u64 && sink.phase == run.phase;
            let cell = CellId(sink.cell);
            let st = &mut run.cells[sink.cell as usize];
            if sink.t1 {
                if fires_this_tick {
                    run.hazards.push(Hazard::T1DataOnClock { cell, tick });
                    continue;
                }
                if st.t_tick == tick {
                    run.hazards.push(Hazard::T1Collision { cell, tick });
                    continue;
                }
                st.t_tick = tick;
                let ev = st.t1.pulse(T1Input::T);
                st.c_latch |= ev.c_star;
                st.q_latch |= ev.q_star;
            } else {
                let fanin = sink.fanin as usize;
                let slot = if fires_this_tick {
                    &mut st.pending[fanin]
                } else {
                    &mut st.buf[fanin]
                };
                if *slot {
                    run.hazards.push(Hazard::DoublePulse { cell, fanin, tick });
                }
                *slot = true;
            }
        }
    }
}

/// Every pulse observed during a traced run: `(tick, pin)` pairs in
/// `(tick, cell, port)` order. Consumed by [`crate::vcd`].
#[derive(Debug, Clone, Default)]
pub struct PulseTrace {
    /// The last tick the simulation executed.
    pub last_tick: u64,
    /// One entry per pulse per pin per tick.
    pub events: Vec<(u64, Signal)>,
}

/// Convenience wrapper: build a [`PulseSim`] and run `waves`.
///
/// # Errors
/// See [`PulseSim::run`].
pub fn simulate_waves(
    timed: &TimedNetwork,
    waves: &[Vec<bool>],
) -> Result<Vec<Vec<bool>>, SimError> {
    PulseSim::new(timed).run(waves)
}

const _: () = assert!(T1_NUM_PORTS == 5);
