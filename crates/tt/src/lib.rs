//! Truth tables for functions of up to six variables, plus the Boolean
//! matching utilities used by T1-aware SFQ technology mapping.
//!
//! This crate is the stand-in for the `kitty` truth-table library that the
//! paper's mockturtle-based implementation relies on. A [`TruthTable`] packs
//! the function's output column into a single `u64` (functions of `n ≤ 6`
//! variables), which makes the bitwise algebra, cofactoring and canonization
//! operations cheap enough for cut-based matching over large networks.
//!
//! # Example
//!
//! ```
//! use sfq_tt::TruthTable;
//!
//! let a = TruthTable::var(3, 0);
//! let b = TruthTable::var(3, 1);
//! let c = TruthTable::var(3, 2);
//! let maj = (a & b) | (a & c) | (b & c);
//! assert_eq!(maj, TruthTable::maj3());
//! assert!(maj.is_totally_symmetric());
//! ```

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

mod npn;
mod t1db;
mod table;

pub use npn::{npn_canonize, NpnTransform};
pub use t1db::{T1Base, T1Match, T1MatchDb};
pub use table::{TruthTable, TruthTableError};

#[cfg(test)]
mod tests;
