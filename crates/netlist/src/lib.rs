//! Logic-network data structures for SFQ synthesis.
//!
//! This crate is the workspace's stand-in for the mockturtle logic-synthesis
//! library the paper builds on. It provides:
//!
//! * [`Aig`] — an and-inverter graph with structural hashing, used by the
//!   benchmark generators and as the entry point of the flow;
//! * [`Network`] — a multi-output mapped netlist over the SFQ cell library
//!   (clocked gates, T1 cells, DFFs), the subject of T1 detection, phase
//!   assignment and DFF insertion;
//! * [`Library`] — the JJ-count area model;
//! * cut enumeration ([`cuts`]), maximum-fanout-free cones ([`mffc`]), and
//!   a cut-based technology mapper ([`map_aig`]) from AIGs to SFQ cells;
//! * the worker-count policy and the one fan-out primitive of the
//!   workspace ([`par::map_ordered`]);
//! * ASCII AIGER I/O ([`aiger`]), BLIF I/O ([`blif`]), BLIF/Verilog/DOT
//!   export of mapped networks ([`export`]), and a unified external-design
//!   ingestion layer ([`design`]: format auto-detection, canonical
//!   re-emission, content-hash parse cache);
//! * the containment primitives of the supervised flow runner in
//!   `sfq_core`: cooperative work budgets ([`budget`]), per-item panic
//!   isolation in the fan-out primitive ([`par::map_ordered_caught`]), and
//!   feature-gated deterministic fault injection ([`faultpt`]).
//!
//! # Example
//!
//! ```
//! use sfq_netlist::{Aig, Library, map_aig};
//!
//! let mut aig = Aig::new("toy");
//! let a = aig.input("a");
//! let b = aig.input("b");
//! let s = aig.xor(a, b);
//! let c = aig.and(a, b);
//! aig.output("sum", s);
//! aig.output("carry", c);
//!
//! let net = map_aig(&aig, &Library::default());
//! assert!(net.num_gates() >= 2);
//! ```

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub mod aig;
pub mod aiger;
pub mod blif;
pub mod budget;
pub mod cell;
pub mod cuts;
pub mod design;
pub mod export;
pub mod faultpt;
pub mod mapper;
pub mod mapper_reference;
pub mod mffc;
pub mod network;
pub mod par;
pub mod sync;

pub use aig::{Aig, AigLit, AigNodeId};
pub use blif::{parse_blif, write_blif, BlifError};
pub use budget::BudgetExceeded;
pub use cell::{CellKind, GateKind, Library, T1Port, T1_NUM_PORTS};
pub use cuts::{enumerate_cuts, for_each_node_cuts, Cut, CutConfig, CutSet};
pub use design::{CacheStats, Design, DesignCache, DesignError, DesignFormat};
pub use mapper::map_aig;
pub use mapper_reference::map_aig_reference;
pub use mffc::{mffc_area, mffc_nodes};
pub use network::{AreaBreakdown, CellId, Network, NetworkError, Signal};

#[cfg(test)]
mod tests;
