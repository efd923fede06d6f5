//! The benchmark's inputs and their expected outputs: the paper's eight
//! generators under the three Table I configurations, the served corpus
//! with its golden verify rows, and the pulse-level cross-check.

use sfq_circuits::Benchmark;
use sfq_core::{FlowConfig, TimedNetwork};
use sfq_netlist::design::content_hash;
use sfq_netlist::{Aig, Design, DesignFormat};
use sfq_sim::EquivConfig;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One Table I column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// `FlowConfig::t1(4)`: the paper's contribution.
    T1,
    /// `FlowConfig::single_phase()`: the 1φ baseline.
    SinglePhase,
    /// `FlowConfig::multiphase(4)`: the 4φ baseline.
    Multiphase,
}

impl Column {
    /// The program's default configuration for this column. Built fresh
    /// each time, because the default restart count follows
    /// `par::workers()`.
    pub fn config(self) -> FlowConfig {
        match self {
            Column::T1 => FlowConfig::t1(4),
            Column::SinglePhase => FlowConfig::single_phase(),
            Column::Multiphase => FlowConfig::multiphase(4),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Column::T1 => "t1",
            Column::SinglePhase => "1phi",
            Column::Multiphase => "4phi",
        }
    }
}

/// Expected `(t1_used, dffs)` per design and column. The T1 column is the
/// `BENCH_flow.json` snapshot; the baseline columns were pinned once from
/// the commit that introduced this benchmark.
const PINS: [(&str, (usize, usize), usize, usize); 8] = [
    // (design, T1 (t1_used, dffs), 1φ dffs, 4φ dffs)
    ("adder", (126, 6268), 48770, 11970),
    ("c7552", (33, 1163), 6555, 1330),
    ("c6288", (121, 352), 2592, 446),
    ("sin", (710, 3075), 23496, 4413),
    ("voter", (646, 587), 2105, 2),
    ("square", (1067, 8145), 41986, 8918),
    ("multiplier", (2317, 8720), 46424, 8777),
    ("log2", (3575, 22577), 127934, 24419),
];

/// The pinned `(t1_used, dffs)` of `design` under `column`.
pub fn pinned(design: &str, column: Column) -> Option<(usize, usize)> {
    PINS.iter()
        .find(|p| p.0 == design)
        .map(|&(_, t1, single, multi)| match column {
            Column::T1 => t1,
            Column::SinglePhase => (0, single),
            Column::Multiphase => (0, multi),
        })
}

/// One flow the benchmark runs: an input design under one configuration.
pub struct Case {
    pub name: String,
    pub design: String,
    pub aig: Aig,
    pub column: Column,
}

/// Builds the eight paper-scale generators, each under every column.
pub fn paper_cases(columns: &[Column]) -> Vec<Case> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| {
            let aig = b.build();
            columns.iter().map(move |&column| Case {
                name: format!("{}/{}", b.name(), column.label()),
                design: b.name().to_string(),
                aig: aig.clone(),
                column,
            })
        })
        .collect()
}

/// The served corpus, compiled in so the benchmark reads no input files.
pub const CORPUS: [(&str, &str); 7] = [
    (
        "adder8.aag",
        include_str!("../../crates/bench/corpus/adder8.aag"),
    ),
    (
        "c7552_mini.aag",
        include_str!("../../crates/bench/corpus/c7552_mini.aag"),
    ),
    (
        "mult4.aag",
        include_str!("../../crates/bench/corpus/mult4.aag"),
    ),
    (
        "mux8.blif",
        include_str!("../../crates/bench/corpus/mux8.blif"),
    ),
    (
        "parity12.aag",
        include_str!("../../crates/bench/corpus/parity12.aag"),
    ),
    (
        "square4.blif",
        include_str!("../../crates/bench/corpus/square4.blif"),
    ),
    (
        "voter7.blif",
        include_str!("../../crates/bench/corpus/voter7.blif"),
    ),
];

const GOLDEN_VERIFY: &str = include_str!("../../tests/golden/corpus_verify.txt");

/// The golden `verify=1` row of each corpus design, in [`CORPUS`] order.
pub fn golden_rows() -> Vec<String> {
    CORPUS
        .iter()
        .map(|(name, _)| {
            GOLDEN_VERIFY
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("golden verify table lacks `{name}`"))
                .to_string()
        })
        .collect()
}

/// Format and fallback name of a corpus file, as the daemon derives them.
pub fn corpus_format(name: &str, content: &str) -> (DesignFormat, String) {
    let path = Path::new(name);
    let format = DesignFormat::detect(Some(path), content).expect("corpus formats are known");
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or(name);
    (format, stem.to_string())
}

/// The corpus designs as flow cases under the daemon's `FLOW t1=1`
/// configuration.
pub fn corpus_cases() -> Vec<Case> {
    CORPUS
        .iter()
        .map(|&(name, content)| {
            let (format, stem) = corpus_format(name, content);
            let design = Design::parse(content, format, &stem).expect("corpus designs parse");
            Case {
                name: name.to_string(),
                design: name.to_string(),
                aig: design.aig,
                column: Column::T1,
            }
        })
        .collect()
}

/// Pulse-level cross-check (`sfq_sim::check_against_aig`) of timed
/// networks against their source AIGs, remembered across runs by
/// fingerprint: a network identical to one that already passed is not
/// simulated again (the 1φ baseline networks take tens of seconds).
pub struct CrossCheck {
    file: PathBuf,
    passed: HashSet<String>,
}

impl CrossCheck {
    pub fn open(run_dir: &Path) -> CrossCheck {
        let file = run_dir.join("verified-networks.txt");
        let passed = std::fs::read_to_string(&file)
            .map(|s| s.lines().map(str::to_string).collect())
            .unwrap_or_default();
        CrossCheck { file, passed }
    }

    fn fingerprint(aig: &Aig, timed: &TimedNetwork) -> String {
        let verilog = sfq_sim::write_verilog_timed(timed);
        let mut aag = Vec::new();
        sfq_netlist::aiger::write_aag(aig, &mut aag).expect("writing to memory cannot fail");
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        verilog.hash(&mut sip);
        aag.hash(&mut sip);
        format!(
            "{:016x}-{:016x}-{:016x}-{}-{}",
            content_hash(verilog.as_bytes()),
            content_hash(&aag),
            sip.finish(),
            verilog.len(),
            aag.len()
        )
    }

    /// Checks `timed` against `aig`; `Ok(true)` when it had to simulate.
    pub fn check(&mut self, aig: &Aig, timed: &TimedNetwork) -> Result<bool, String> {
        let key = Self::fingerprint(aig, timed);
        if self.passed.contains(&key) {
            return Ok(false);
        }
        sfq_sim::check_against_aig(aig, timed, &EquivConfig::default())
            .map_err(|e| e.to_string())?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.file)
            .map_err(|e| format!("{}: {e}", self.file.display()))?;
        writeln!(f, "{key}").map_err(|e| format!("{}: {e}", self.file.display()))?;
        self.passed.insert(key);
        Ok(true)
    }
}
