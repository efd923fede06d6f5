//! # sfq-t1 — T1-aware multiphase technology mapping for SFQ arithmetic
//!
//! A from-scratch Rust reproduction of *"Unleashing the Power of T1-cells in
//! SFQ Arithmetic Circuits"* (Bairamkulov, Yu, De Micheli — DAC 2024,
//! [arXiv:2403.05901](https://arxiv.org/abs/2403.05901)).
//!
//! Rapid single-flux-quantum (RSFQ) logic communicates with picosecond
//! pulses; almost every gate is clocked, so every reconvergent path must be
//! balanced with D flip-flops (DFFs), which dominate layout area. The paper
//! attacks this with two combined ideas:
//!
//! 1. **T1 flip-flops** — a pulse-counter cell that computes `XOR3`, `MAJ3`
//!    and `OR3` (plus complements) of three inputs *simultaneously*, turning
//!    a full adder into 29 JJs instead of ~73 — *if* its three input pulses
//!    can be kept temporally separated;
//! 2. **multiphase clocking** — `n` interleaved clock phases per period give
//!    exactly the fine-grained arrival-time control that requirement needs.
//!
//! This workspace rebuilds the full stack the paper sits on: truth tables and
//! Boolean matching ([`tt`]), logic networks / cuts / mapping ([`netlist`]),
//! an MILP solver ([`solver`]), the three-stage T1 flow itself
//! ([`core`]), a pulse-level simulator with energy and jitter-margin
//! analyses ([`sim`]), the benchmark circuits ([`circuits`]), the experiment
//! harness (`sfq-bench`), and the `sfqt1` command-line tool (`sfq-cli`) for
//! driving the flow on external AIGER/BLIF netlists.
//!
//! ## Quickstart
//!
//! ```
//! use sfq_t1::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a 16-bit ripple-carry adder and run the paper's three flows.
//! let aig = sfq_t1::circuits::adder(16);
//! for config in [FlowConfig::single_phase(), FlowConfig::multiphase(4), FlowConfig::t1(4)] {
//!     let result = run_flow(&aig, &config)?;
//!     println!(
//!         "{:>2}-phase t1={} area={} JJ, dffs={}, depth={} cycles",
//!         config.phases, config.use_t1, result.report.area,
//!         result.report.num_dffs, result.report.depth_cycles,
//!     );
//! }
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! regeneration of every table and figure in the paper.

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub use sfq_circuits as circuits;
pub use sfq_core as core;
pub use sfq_netlist as netlist;
pub use sfq_sim as sim;
pub use sfq_solver as solver;
pub use sfq_tt as tt;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use sfq_circuits::Benchmark;
    pub use sfq_core::report::StageReport;
    pub use sfq_core::{run_flow, run_flow_on_network, FlowConfig, FlowReport, FlowResult};
    pub use sfq_netlist::{map_aig, parse_blif, Aig, AigLit, Library, Network};
    pub use sfq_sim::energy::{measure_energy, EnergyModel};
    pub use sfq_sim::margin::{analyze_margins, MarginConfig};
    pub use sfq_sim::{
        check_against_aig, check_timed, simulate_waves, write_verilog_timed, EquivConfig, PulseSim,
        T1Cell, T1Input,
    };
    pub use sfq_tt::TruthTable;
}
