//! End-to-end synthesis flows and their Table I-style reports.
//!
//! Three configurations reproduce the paper's comparison:
//!
//! * [`FlowConfig::single_phase`] — classic 1φ SFQ with full path balancing;
//! * [`FlowConfig::multiphase`]   — `n`-phase clocking, no T1 cells (the 4φ
//!   baseline);
//! * [`FlowConfig::t1`]           — `n`-phase clocking with T1 detection (the
//!   paper's contribution).
//!
//! Every flow ends with a structural timing audit and a functional
//! equivalence check (bit-parallel simulation against the input network), so
//! a [`FlowResult`] is a verified artifact, not just numbers.
//!
//! A flow keeps alive only what a later stage reads. [`run_flow`] drops
//! the mapped network once it is cleaned; a flow that commits no T1 cells
//! runs phase assignment on the clean network itself, not on a copy; and
//! the T1-detected subject and the timing engine are dropped once DFF
//! emission has run, before the audit and the equivalence check.

use crate::detect::detect_t1_with_threshold;
use crate::engine::TimingEngine;
use crate::phase::{PhaseEngine, PhaseError};
use crate::timed::{TimedNetwork, TimingError};
use sfq_netlist::{map_aig, Aig, CutConfig, Library, Network};

/// Configuration of one synthesis flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Number of clock phases per period (`n`).
    pub phases: u8,
    /// Whether T1 detection runs.
    pub use_t1: bool,
    /// Phase-assignment engine selection.
    pub engine: PhaseEngine,
    /// JJ area model.
    pub library: Library,
    /// Cut enumeration parameters for T1 detection.
    pub cut_config: CutConfig,
    /// T1 commit cutoff: only groups with `ΔA > gain_threshold` JJs are
    /// considered (the paper uses 0).
    pub gain_threshold: i64,
    /// Number of 64-vector random pattern words for the equivalence check
    /// (0 disables the check). Both networks are simulated once over all
    /// words ([`Network::simulate_words`]), walking cells in index order
    /// (every network the flow builds is index-ordered), so a word costs a
    /// few operations per cell rather than a full pass with its own
    /// topological sort. A mismatch reports the lowest differing output of
    /// the earliest differing word.
    pub equivalence_words: usize,
    /// Phase-assignment descent restarts (heuristic paths only). The
    /// default is `1`: the single ASAP descent. Extra restarts descend from
    /// deterministically perturbed ASAP seeds and are merged by `(cost,
    /// index)` (see [`TimingEngine::optimize`]); restart 0 is the plain
    /// descent, so any count ≥ 1 is never worse than `restarts: 1`. They run
    /// one after another on the flow's thread, charged to its budget, so the
    /// result is the same for every worker count. They are opt-in because
    /// on the paper's 16 Table I flows restart 0 always won, so by default
    /// extra restarts only cost run time.
    pub restarts: usize,
}

impl FlowConfig {
    /// The paper's 1φ baseline: single-phase clocking, no T1 cells.
    pub fn single_phase() -> Self {
        FlowConfig {
            phases: 1,
            use_t1: false,
            engine: PhaseEngine::Auto,
            library: Library::default(),
            cut_config: CutConfig::default(),
            gain_threshold: 0,
            equivalence_words: 4,
            restarts: 1,
        }
    }

    /// The paper's multiphase baseline (e.g. 4φ): no T1 cells.
    pub fn multiphase(phases: u8) -> Self {
        FlowConfig {
            phases,
            ..Self::single_phase()
        }
    }

    /// The paper's T1 flow: multiphase clocking plus T1 detection.
    pub fn t1(phases: u8) -> Self {
        FlowConfig {
            phases,
            use_t1: true,
            ..Self::single_phase()
        }
    }
}

/// Table I-style metrics of a finished flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowReport {
    /// Design name.
    pub name: String,
    /// Number of clock phases.
    pub phases: u8,
    /// Positive-gain T1 candidates ("T1 cells found").
    pub t1_found: usize,
    /// Committed T1 cells ("T1 cells used").
    pub t1_used: usize,
    /// Logic cells after mapping/detection (gates + T1 macro-cells).
    pub num_gates: usize,
    /// Inserted path-balancing DFFs ("#DFF").
    pub num_dffs: usize,
    /// Total area in JJs ("Area").
    pub area: u64,
    /// Logic depth in clock cycles ("Depth").
    pub depth_cycles: u32,
}

/// A finished flow: the timed netlist plus its report.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The audited, retimed netlist.
    pub timed: TimedNetwork,
    /// Table I-style metrics.
    pub report: FlowReport,
}

/// Errors from running a flow.
#[derive(Debug)]
pub enum FlowError {
    /// Phase assignment failed.
    Phase(PhaseError),
    /// The final audit failed (always a bug in the flow, never user error).
    Audit(TimingError),
    /// The retimed network is not functionally equivalent to the input
    /// (always a bug in the flow, never user error).
    NotEquivalent {
        /// Index of the first differing primary output.
        output: usize,
    },
    /// The input network failed validation.
    BadInput(String),
    /// An armed `err`-action fault point fired (`fault-injection` feature
    /// only — see [`sfq_netlist::faultpt`]). Never produced in production
    /// builds.
    Fault(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Phase(e) => write!(f, "phase assignment: {e}"),
            FlowError::Audit(e) => write!(f, "timing audit failed: {e}"),
            FlowError::NotEquivalent { output } => {
                write!(f, "flow broke functional equivalence at output {output}")
            }
            FlowError::BadInput(e) => write!(f, "invalid input network: {e}"),
            FlowError::Fault(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PhaseError> for FlowError {
    fn from(e: PhaseError) -> Self {
        FlowError::Phase(e)
    }
}

/// Stage boundary of a supervised flow: deadline checkpoint plus a named
/// fault point (context = design/network name). Both are no-ops outside
/// supervised/fault-injected runs; the checkpoint is what lets a deadline
/// fire between hot loops rather than only inside them.
fn stage_gate(site: &'static str, name: &str) -> Result<(), FlowError> {
    sfq_netlist::budget::checkpoint();
    if sfq_netlist::faultpt::hit(site, name) {
        return Err(FlowError::Fault(site.to_string()));
    }
    Ok(())
}

/// Runs a flow starting from an AIG (technology mapping included).
///
/// # Errors
/// See [`FlowError`].
pub fn run_flow(aig: &Aig, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    stage_gate("flow.map", aig.name())?;
    let mapped = map_aig(aig, &config.library);
    let clean = validated_clean(&mapped)?;
    drop(mapped);
    run_flow_on_clean(clean, config)
}

/// Runs a flow starting from an already-mapped network.
///
/// # Errors
/// See [`FlowError`].
pub fn run_flow_on_network(net: &Network, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    run_flow_on_clean(validated_clean(net)?, config)
}

/// Validates the flow's input network and sweeps its dead cells.
fn validated_clean(net: &Network) -> Result<Network, FlowError> {
    net.validate()
        .map_err(|e| FlowError::BadInput(e.to_string()))?;
    Ok(net.cleaned().0)
}

/// The stages after cleaning. The T1-detected subject and the timing
/// engine are dropped once DFF emission has run, so the audit and the
/// equivalence check run beside only the clean and the timed networks.
fn run_flow_on_clean(clean: Network, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    stage_gate("flow.detect", clean.name())?;
    let (detected, t1_found, t1_used) = detect_stage(&clean, config);
    let subject = detected.as_ref().unwrap_or(&clean);

    // Stages 2 + 3: phase assignment and DFF insertion share one
    // incremental timing engine — the winning descent state's arrivals and
    // memoized chain plans feed the emission pass directly, so nothing is
    // derived twice.
    stage_gate("flow.phase", clean.name())?;
    let mut engine = TimingEngine::new(subject, config.phases)?;
    engine.assign(config.engine, config.restarts)?;
    stage_gate("flow.dff", clean.name())?;
    let timed = engine.emit();
    drop(engine);
    drop(detected);

    // Verification: audit + functional equivalence against the input.
    stage_gate("flow.verify", clean.name())?;
    timed.audit().map_err(FlowError::Audit)?;
    if config.equivalence_words > 0 {
        check_equivalence(&clean, &timed.network, config.equivalence_words)?;
    }

    let report = FlowReport {
        name: clean.name().to_string(),
        phases: config.phases,
        t1_found,
        t1_used,
        num_gates: timed.network.num_gates(),
        num_dffs: timed.num_dffs(),
        area: timed.area(&config.library),
        depth_cycles: timed.depth_cycles(),
    };
    Ok(FlowResult { timed, report })
}

/// Stage 1: T1 detection on the cleaned network. Returns the T1-detected
/// subject of phase assignment (`None`: the subject is `clean` itself)
/// plus the found/used T1 counts. A T1 cell needs three pairwise-distinct
/// arrival slots inside its input window of n−1 stages, so with n < 4
/// candidates are still *found* (reported) but none can commit.
pub(crate) fn detect_stage(
    clean: &Network,
    config: &FlowConfig,
) -> (Option<Network>, usize, usize) {
    if !config.use_t1 {
        return (None, 0, 0);
    }
    let det = detect_t1_with_threshold(
        clean,
        &config.library,
        &config.cut_config,
        config.gain_threshold,
    );
    if config.phases >= 4 {
        (Some(det.network), det.found, det.used)
    } else {
        (None, det.found, 0)
    }
}

/// Bit-parallel equivalence check on deterministic pseudo-random patterns:
/// `words` words of 64 xorshift* vectors, simulated in one pass per network.
/// Reports the lowest differing output of the earliest differing word.
pub(crate) fn check_equivalence(a: &Network, b: &Network, words: usize) -> Result<(), FlowError> {
    assert_eq!(
        a.num_inputs(),
        b.num_inputs(),
        "flows preserve the interface"
    );
    assert_eq!(
        a.num_outputs(),
        b.num_outputs(),
        "flows preserve the interface"
    );
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift* — deterministic, dependency-free pattern source.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    // Word-major, as `simulate_words` takes them and returns its results.
    let pats: Vec<u64> = (0..words * a.num_inputs()).map(|_| next()).collect();
    let ra = a.simulate_words(&pats, words);
    let rb = b.simulate_words(&pats, words);
    match ra.iter().zip(&rb).position(|(x, y)| x != y) {
        Some(j) => Err(FlowError::NotEquivalent {
            output: j % a.num_outputs(),
        }),
        None => Ok(()),
    }
}
