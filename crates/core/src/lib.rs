//! T1-aware multiphase technology mapping for SFQ circuits.
//!
//! This crate implements the contribution of *"Unleashing the Power of
//! T1-cells in SFQ Arithmetic Circuits"* (DAC 2024): a three-stage flow that
//!
//! 1. **detects** groups of cuts realizable by a single T1 flip-flop
//!    (XOR3 / MAJ3 / OR3 and complements over shared leaves) and replaces
//!    their fanout-free cones when the JJ-area gain is positive
//!    ([`detect`], paper §II-A, eq. 2);
//! 2. **assigns a clock stage** `σ(g) = n·S(g) + φ(g)` to every clocked cell
//!    under an `n`-phase clock, minimizing path-balancing DFFs subject to the
//!    T1 input-separation constraint ([`phase`], §II-B, eqs. 1, 3, 4) — with
//!    an exact MILP engine and a scalable local-search engine;
//! 3. **inserts DFF chains** so every pulse is consumed within its lifetime
//!    and the three T1 fanins arrive at pairwise-distinct stages
//!    ([`dff`], §II-C, eq. 5).
//!
//! The single-phase (`n = 1`) and plain multiphase (`n = 4`, no T1) baselines
//! of the paper's Table I are the same machinery with detection disabled —
//! see [`FlowConfig`].
//!
//! # Example
//!
//! ```
//! use sfq_core::{run_flow, FlowConfig};
//! use sfq_netlist::Aig;
//!
//! // A 4-bit ripple-carry adder.
//! let mut aig = Aig::new("add4");
//! let a = aig.input_word("a", 4);
//! let b = aig.input_word("b", 4);
//! let mut carry = aig.const_false();
//! let mut sums = Vec::new();
//! for i in 0..4 {
//!     let (s, c) = aig.full_adder(a[i], b[i], carry);
//!     sums.push(s);
//!     carry = c;
//! }
//! sums.push(carry);
//! aig.output_word("s", &sums);
//!
//! let result = run_flow(&aig, &FlowConfig::t1(4)).unwrap();
//! assert!(result.report.t1_used >= 1);
//! result.timed.audit().unwrap();
//! ```

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub mod chains;
pub mod detect;
pub mod detect_reference;
pub mod dff;
pub mod engine;
pub mod flow;
pub mod phase;
pub mod report;
pub mod supervise;
pub mod timed;

pub use detect::{detect_t1, detect_t1_with_threshold, T1Detection, T1Group};
pub use detect_reference::{detect_t1_reference, detect_t1_with_threshold_reference};
pub use dff::{insert_dffs, insert_dffs_reference};
pub use engine::TimingEngine;
pub use flow::{run_flow, run_flow_on_network, FlowConfig, FlowError, FlowReport, FlowResult};
pub use supervise::{supervise, FlowOutcome, Limits, TaskOutcome};

pub use phase::{
    arrival_cost, assign_phases, assign_phases_reference, assign_phases_with_restarts,
    solve_arrivals, solve_arrivals_enum, ArrivalCache, PhaseEngine, PhaseError, StageAssignment,
};
pub use timed::{TimedNetwork, TimingError};

#[cfg(test)]
mod tests;
