//! Shared job execution: supervised flows fanned over workers, result rows
//! **streamed back in input order**.
//!
//! This is the one engine behind `sfqt1 flow --batch`, `sfqt1 verify
//! --batch` (local) and the `sfqt1d` daemon's `FLOW` requests: the same row
//! rendering, the same containment policy, the same ordering guarantee — so
//! daemon responses are byte-identical to local batch rows by construction,
//! not by convention. A [`JobKind`] says what each job runs: the flow
//! alone, or the flow gated by pulse-level verification.
//!
//! Rows are emitted through [`sfq_netlist::par::map_ordered_streamed`]: row
//! `k` is handed to the sink as soon as designs `0..=k` have finished, while
//! later designs are still running. That replaces the old batch driver's
//! buffer-everything-then-print shape — a terminal user (or a daemon
//! client) sees the first rows of a long batch immediately.

use crate::state::OutcomeKind;
use sfq_core::{run_flow, supervise, FlowConfig, FlowReport, Limits, TaskOutcome};
use sfq_netlist::budget::BudgetExceeded;
use sfq_netlist::{par, Design};
use sfq_sim::margin::{analyze_margins, MarginConfig, MarginReport};
use sfq_sim::{check_against_aig, EquivConfig, EquivReport};
use std::error::Error;

/// One job: a display name plus its ingested design (ingest failures carry
/// their rendered reason and become `FAILED(...)` rows).
pub struct JobEntry {
    /// Display name — first column of the row.
    pub name: String,
    /// The parsed design, or the ingest failure reason.
    pub design: Result<Design, String>,
}

/// One finished job's rendered row plus its outcome class.
pub struct JobRow {
    /// Zero-based input index of the job.
    pub index: usize,
    /// The rendered table row.
    pub line: String,
    /// Outcome class, for summaries and daemon counters.
    pub kind: OutcomeKind,
}

impl JobRow {
    /// True when the job finished and verified.
    pub fn is_ok(&self) -> bool {
        self.kind == OutcomeKind::Ok
    }
}

/// Sweep and margin knobs of one verification batch. The daemon always
/// runs the defaults (the wire protocol carries only `verify=0|1`); the
/// local `sfqt1 verify` driver may override them — with the defaults, both
/// entry points render byte-identical rows.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Equivalence-sweep parameters (exhaustive/sampled thresholds, seeds,
    /// shrink budget).
    pub equiv: EquivConfig,
    /// Monte-Carlo margin-analysis parameters (period, jitter, trials).
    pub margin: MarginConfig,
}

/// What every job of a run does with its design.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// The flow alone: one report row per design.
    Flow,
    /// The flow, then its timed netlist co-simulated against the
    /// **original** AIG and Monte-Carlo'd for analog margins: one
    /// verification row per design.
    Verify(VerifyOptions),
}

impl JobKind {
    /// The table header row of this kind's rows (shared by the local batch
    /// drivers and the daemon client, so their tables stay identical below
    /// the preamble).
    pub fn header(&self) -> String {
        match self {
            JobKind::Flow => format!(
                "{:<16} {:>4} | {:>4} {:>4} | {:>6} {:>5} | {:>6} {:>6} {:>8} {:>6}",
                "design", "fmt", "in", "out", "found", "used", "cells", "dffs", "area JJ", "depth"
            ),
            JobKind::Verify(_) => format!(
                "{:<16} {:>4} | {:>4} {:>4} | {:>10} {:>6} | {:>4} {:>7} {:>9}",
                "design", "fmt", "in", "out", "sweep", "waves", "t1", "hazard", "worst ps"
            ),
        }
    }
}

/// Formats one successful flow row's columns.
fn report_row(name: &str, design: &Design, r: &FlowReport) -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>6} {:>5} | {:>6} {:>6} {:>8} {:>6}",
        name,
        design.format.extension(),
        design.aig.num_inputs(),
        design.aig.num_outputs(),
        r.t1_found,
        r.t1_used,
        r.num_gates,
        r.num_dffs,
        r.area,
        r.depth_cycles
    )
}

/// Formats one successful verify row's columns. Floating-point columns use
/// fixed precision (and `worst ps` renders `inf` for T1-free designs), so
/// rows are byte-deterministic.
fn verify_row(name: &str, design: &Design, equiv: &EquivReport, margin: &MarginReport) -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>10} {:>6} | {:>4} {:>7.4} {:>9.3}",
        name,
        design.format.extension(),
        design.aig.num_inputs(),
        design.aig.num_outputs(),
        equiv.mode.to_string(),
        equiv.waves,
        margin.t1_cells,
        margin.hazard_rate(),
        margin.worst_separation_ps,
    )
}

/// One job's work, rendered as its row. Runs inside the supervision
/// envelope: for [`JobKind::Verify`], one envelope contains the flow, the
/// sweep and the margin run, so a panic or deadline in any stage yields one
/// classified outcome. Every error renders the same deterministic one-line
/// reason it displays.
fn job_row(
    name: &str,
    design: &Design,
    config: &FlowConfig,
    kind: &JobKind,
) -> Result<String, Box<dyn Error>> {
    let flow = run_flow(&design.aig, config)?;
    Ok(match kind {
        JobKind::Flow => report_row(name, design, &flow.report),
        JobKind::Verify(v) => {
            let equiv = check_against_aig(&design.aig, &flow.timed, &v.equiv)?;
            let margin = analyze_margins(&flow.timed, &v.margin);
            verify_row(name, design, &equiv, &margin)
        }
    })
}

/// Runs one job supervised and renders its row.
///
/// Containment policy (applied *before* the row is emitted, since streamed
/// rows cannot be amended): every failure renders as `FAILED(<reason>)`
/// with a deterministic reason. A panicked job is not retried: one design
/// runs on one thread at every worker count, so a retry would rerun the
/// identical program and panic again.
fn run_job(
    index: usize,
    entry: &JobEntry,
    config: &FlowConfig,
    kind: &JobKind,
    limits: &Limits,
) -> JobRow {
    let name = &entry.name;
    let outcome = match &entry.design {
        Err(reason) => TaskOutcome::Failed(reason.clone().into()),
        Ok(design) => supervise(limits, || job_row(name, design, config, kind)),
    };
    let (kind, reason) = match outcome {
        TaskOutcome::Ok(line) => {
            return JobRow {
                index,
                line: *line,
                kind: OutcomeKind::Ok,
            }
        }
        TaskOutcome::Failed(e) => (OutcomeKind::Failed, e.to_string()),
        TaskOutcome::Panicked { message } => {
            (OutcomeKind::Panicked, format!("panicked: {message}"))
        }
        TaskOutcome::TimedOut => (OutcomeKind::TimedOut, BudgetExceeded::Deadline.to_string()),
        TaskOutcome::OverBudget => (OutcomeKind::Failed, BudgetExceeded::Nodes.to_string()),
    };
    JobRow {
        index,
        line: format!("{name:<16} FAILED({reason})"),
        kind,
    }
}

/// Runs every job supervised as `kind` asks, fanned over [`par::workers`]
/// scoped threads, and hands each rendered row to `emit` **in input order,
/// as soon as it is unblocked** — row `k` arrives while jobs `> k` may
/// still be running. Returns the `(ok, failed)` totals.
///
/// `emit` runs under the streaming lock: keep it to a write+flush.
pub fn run_jobs_streamed(
    entries: &[JobEntry],
    config: &FlowConfig,
    kind: &JobKind,
    limits: &Limits,
    mut emit: impl FnMut(JobRow) + Send,
) -> (usize, usize) {
    let indices: Vec<usize> = (0..entries.len()).collect();
    let (mut ok, mut failed) = (0usize, 0usize);
    par::map_ordered_streamed(
        indices,
        |i| run_job(i, &entries[i], config, kind, limits),
        |k, row| {
            // Worker bodies never panic (run_job contains everything), so
            // an Err here is unreachable; render it defensively anyway
            // rather than poisoning the daemon.
            let row = row.unwrap_or_else(|p| JobRow {
                index: k,
                line: format!("{:<16} FAILED(panicked: {})", entries[k].name, p.message()),
                kind: OutcomeKind::Panicked,
            });
            if row.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
            emit(row);
        },
    );
    (ok, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_entry(name: &str) -> JobEntry {
        let content = format!(".model {name}\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
        let mut cache = sfq_netlist::DesignCache::with_capacity(4);
        let design = cache
            .parse_cached(&content, Some(name))
            .expect("toy design parses")
            .clone();
        JobEntry {
            name: format!("{name}.blif"),
            design: Ok(design),
        }
    }

    fn verify_kind() -> JobKind {
        JobKind::Verify(VerifyOptions::default())
    }

    /// Runs two toy designs around an ingest failure as `kind`; returns the
    /// rows after checking order and containment.
    fn check_rows_stream_in_order(kind: &JobKind) -> Vec<JobRow> {
        let entries = vec![
            toy_entry("a"),
            JobEntry {
                name: "broken.aag".into(),
                design: Err("aag: truncated header".into()),
            },
            toy_entry("b"),
        ];
        let config = FlowConfig::t1(4);
        let mut rows = Vec::new();
        let (ok, failed) =
            run_jobs_streamed(&entries, &config, kind, &Limits::NONE, |row| rows.push(row));
        assert_eq!((ok, failed), (2, 1), "{kind:?}");
        assert_eq!(
            rows.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(rows[1].line.contains("FAILED(aag: truncated header)"));
        assert_eq!(rows[1].kind, OutcomeKind::Failed);
        assert!(rows[0].is_ok() && rows[2].is_ok(), "{kind:?}");
        assert!(rows[0].line.starts_with("a.blif"));
        rows
    }

    /// A zero deadline classifies as timed out under both flow configs.
    fn check_deadline_rows_time_out(kind: &JobKind) {
        for config in [FlowConfig::multiphase(4), FlowConfig::t1(4)] {
            let entries = vec![toy_entry("t")];
            let limits = Limits {
                deadline: Some(std::time::Duration::ZERO),
                max_nodes: None,
            };
            let mut rows = Vec::new();
            run_jobs_streamed(&entries, &config, kind, &limits, |row| rows.push(row));
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].kind, OutcomeKind::TimedOut, "{kind:?}");
            assert!(
                rows[0].line.contains("FAILED(deadline exceeded)"),
                "{}",
                rows[0].line
            );
        }
    }

    /// The `|` column separators line up between `kind`'s header and rows.
    fn check_header_matches_rows(kind: &JobKind) {
        for config in [FlowConfig::multiphase(4), FlowConfig::t1(4)] {
            let header = kind.header();
            let entries = vec![toy_entry("w")];
            let mut rows = Vec::new();
            run_jobs_streamed(&entries, &config, kind, &Limits::NONE, |row| rows.push(row));
            let row = &rows[0].line;
            let bars = |s: &str| s.match_indices('|').map(|(i, _)| i).collect::<Vec<_>>();
            assert_eq!(bars(&header), bars(row), "{header}\n{row}");
        }
    }

    #[test]
    fn rows_stream_in_input_order_with_failures_contained() {
        check_rows_stream_in_order(&JobKind::Flow);
    }

    #[test]
    fn verify_rows_stream_with_failures_contained() {
        let rows = check_rows_stream_in_order(&verify_kind());
        // A 2-input design sweeps exhaustively: 2^2 waves.
        assert!(
            rows[0].line.contains("exhaustive") && rows[0].line.contains(" 4 "),
            "{}",
            rows[0].line
        );
    }

    #[test]
    fn deadline_rows_classify_as_timed_out() {
        check_deadline_rows_time_out(&JobKind::Flow);
    }

    #[test]
    fn verify_deadline_rows_classify_as_timed_out() {
        check_deadline_rows_time_out(&verify_kind());
    }

    #[test]
    fn header_and_rows_share_column_layout() {
        check_header_matches_rows(&JobKind::Flow);
    }

    #[test]
    fn verify_header_and_rows_share_column_layout() {
        check_header_matches_rows(&verify_kind());
    }
}
