//! Batched flow driver over the checked-in external-design corpus.
//!
//! `crates/bench/corpus/` holds small AIGER (`.aag`) and BLIF (`.blif`)
//! designs stored in **canonical form** — each file is byte-identical to
//! `Design::write_native` of its own parse, so interchange regressions show
//! up as plain byte diffs. [`run_corpus`] applies the paper's 4φ-vs-T1
//! protocol to every design, fanning the flows over
//! [`sfq_netlist::par::workers`] scoped threads with an input-order merge:
//! the formatted table is bit-identical for every worker count, which CI
//! checks against the committed golden `tests/golden/corpus_table.txt` at
//! `SFQ_WORKERS=1` and `SFQ_WORKERS=4`.

use sfq_core::{run_flow, FlowConfig, FlowError, FlowReport};
use sfq_netlist::design::{Design, DesignError};
use sfq_netlist::par;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The checked-in corpus directory (`crates/bench/corpus`).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Errors from the corpus driver.
#[derive(Debug)]
pub enum CorpusError {
    /// Listing the corpus directory failed.
    Io {
        /// The directory involved.
        dir: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The directory holds no `.aag`/`.blif` designs.
    Empty(String),
    /// A design failed to load or parse.
    Design(DesignError),
    /// A flow failed on one design.
    Flow {
        /// The corpus file the flow ran on.
        file: String,
        /// The flow failure.
        source: FlowError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { dir, source } => write!(f, "{dir}: {source}"),
            CorpusError::Empty(dir) => write!(f, "{dir}: no .aag/.blif designs"),
            CorpusError::Design(e) => write!(f, "{e}"),
            CorpusError::Flow { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<DesignError> for CorpusError {
    fn from(e: DesignError) -> Self {
        CorpusError::Design(e)
    }
}

/// One corpus design with its measured 4φ and T1 reports.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// Corpus file name (the row label).
    pub file: String,
    /// The parsed design.
    pub design: Design,
    /// The 4φ baseline flow report.
    pub four: FlowReport,
    /// The 4φ+T1 flow report.
    pub t1: FlowReport,
}

/// Loads every `.aag`/`.blif` design of `dir` in file-name order, through a
/// content-hash parse cache.
///
/// # Errors
/// [`CorpusError`] on I/O or parse failures, or an empty directory.
pub fn load_corpus(dir: &Path) -> Result<Vec<(String, Design)>, CorpusError> {
    let (designs, _cache_hits) = sfq_netlist::design::load_dir(dir)?;
    if designs.is_empty() {
        return Err(CorpusError::Empty(dir.display().to_string()));
    }
    Ok(designs)
}

/// Runs the 4φ and 4φ+T1 flows on every design of `dir`.
///
/// Flows fan over [`par::map_ordered`]; rows come back in input
/// (file-name) order for every worker count.
///
/// # Errors
/// [`CorpusError`] — the first failure in input order.
pub fn run_corpus(dir: &Path) -> Result<Vec<CorpusRow>, CorpusError> {
    let designs = load_corpus(dir)?;
    let results: Vec<Result<CorpusRow, CorpusError>> =
        par::map_ordered(designs, |(file, design)| {
            let flow = |config: &FlowConfig| {
                run_flow(&design.aig, config).map_err(|source| CorpusError::Flow {
                    file: file.clone(),
                    source,
                })
            };
            let four = flow(&FlowConfig::multiphase(4))?.report;
            let t1 = flow(&FlowConfig::t1(4))?.report;
            Ok(CorpusRow {
                file,
                design,
                four,
                t1,
            })
        });
    results.into_iter().collect()
}

/// Formats corpus rows in the `table1_extended` layout (4φ vs T1 per
/// design, with DFF/area ratios). Deterministic — no wall-clock columns —
/// so the output can be golden-diffed.
pub fn format_corpus_table(rows: &[CorpusRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>4} | {:>4} {:>4} | {:>5} {:>4} | {:>7} {:>7} {:>5} | {:>8} {:>8} {:>5} | {:>4} {:>4}",
        "design", "fmt", "in", "out", "found", "used", "DFF 4φ", "DFF T1", "r",
        "Area 4φ", "Area T1", "r", "D4φ", "DT1"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>4} | {:>4} {:>4} | {:>5} {:>4} | {:>7} {:>7} {:>5.2} | {:>8} {:>8} {:>5.2} | {:>4} {:>4}",
            row.file,
            row.design.format.extension(),
            row.design.aig.num_inputs(),
            row.design.aig.num_outputs(),
            row.t1.t1_found,
            row.t1.t1_used,
            row.four.num_dffs,
            row.t1.num_dffs,
            row.t1.num_dffs as f64 / row.four.num_dffs.max(1) as f64,
            row.four.area,
            row.t1.area,
            row.t1.area as f64 / row.four.area.max(1) as f64,
            row.four.depth_cycles,
            row.t1.depth_cycles
        );
    }
    out
}
