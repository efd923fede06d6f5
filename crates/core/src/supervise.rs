//! Fault-tolerant supervision: run one task inside a bounded, observable,
//! recoverable envelope.
//!
//! This is the containment layer batch drivers and the `sfqt1d` daemon put
//! between themselves and each design's work (a [`run_flow`], or a flow
//! followed by pulse-level verification): one broken or runaway design must
//! never take down the whole run. [`supervise`]:
//!
//! 1. installs a cooperative **budget** ([`sfq_netlist::budget`]) for the
//!    requested [`Limits`] — a wall-clock deadline and/or a node-count
//!    ceiling, checked at cheap intervals inside cut enumeration, the
//!    detection scoring loop and the phase descent, and at every flow stage
//!    boundary;
//! 2. runs the task under `catch_unwind`, so a panic (a flow bug, or an
//!    injected fault) is captured with its message instead of propagating;
//! 3. classifies the result as a [`TaskOutcome`]: budget unwinds become
//!    [`TaskOutcome::TimedOut`] / [`TaskOutcome::OverBudget`], other panics
//!    [`TaskOutcome::Panicked`], and ordinary results map through. A
//!    supervised flow's outcome is a [`FlowOutcome`].
//!
//! `catch_unwind` requires an [`UnwindSafe`](std::panic::UnwindSafe)
//! closure; the flow entry points take only shared references and build all
//! mutable state internally, so a panic can never leave observable broken
//! state behind — which is exactly the justification for the
//! `AssertUnwindSafe` in [`supervise`].
//!
//! While a supervised closure runs on this thread, the default "thread
//! panicked" report is suppressed (the panic is expected and captured);
//! panics on other threads still report normally.
//!
//! [`run_flow`]: crate::flow::run_flow

use crate::flow::{FlowError, FlowResult};
use sfq_netlist::budget::{self, BudgetExceeded};
use sfq_netlist::par::panic_message;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Resource limits of one supervised flow. The default has no limits: the
/// flow is still panic-isolated, just never aborted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock deadline, measured from the start of the flow.
    pub deadline: Option<Duration>,
    /// Ceiling on budget units (≈ processed nodes/candidates — see
    /// [`sfq_netlist::budget::tick`]).
    pub max_nodes: Option<u64>,
}

impl Limits {
    /// No limits: panic isolation only.
    pub const NONE: Limits = Limits {
        deadline: None,
        max_nodes: None,
    };
}

thread_local! {
    /// True while [`supervise`] is executing its closure on this thread —
    /// the panic hook consults it to keep expected, captured panics quiet.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the default panic hook once, per process: panics raised on a
/// thread currently inside [`supervise`] are captured anyway, so their
/// default stderr report is suppressed.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.get() {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread supervised for its lifetime, restoring the
/// previous flag on drop (so nested supervision behaves).
struct SupervisedScope {
    was: bool,
}

impl SupervisedScope {
    fn enter() -> Self {
        let was = SUPERVISED.replace(true);
        SupervisedScope { was }
    }
}

impl Drop for SupervisedScope {
    fn drop(&mut self) {
        SUPERVISED.set(self.was);
    }
}

/// What happened to one supervised task — the typed outcome batch drivers
/// consume in place of a bare `Result`.
#[derive(Debug)]
pub enum TaskOutcome<T, E> {
    /// The task finished.
    Ok(Box<T>),
    /// The task failed with its typed error.
    Failed(E),
    /// The task panicked and was contained.
    Panicked {
        /// The panic message (payload text, or a placeholder for non-string
        /// payloads).
        message: String,
    },
    /// The task exceeded its wall-clock deadline and was aborted.
    TimedOut,
    /// The task exceeded its node-count ceiling and was aborted.
    OverBudget,
}

/// What happened to one supervised flow.
pub type FlowOutcome = TaskOutcome<FlowResult, FlowError>;

impl<T, E: fmt::Display> TaskOutcome<T, E> {
    /// True for [`TaskOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// The finished task's result, if there is one.
    pub fn result(&self) -> Option<&T> {
        match self {
            TaskOutcome::Ok(res) => Some(res),
            _ => None,
        }
    }

    /// Deterministic one-line failure reason (`None` for
    /// [`TaskOutcome::Ok`]). Contains no timings or addresses, so batch
    /// rows built from it are byte-identical across runs, builds and worker
    /// counts.
    pub fn failure(&self) -> Option<String> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed(e) => Some(e.to_string()),
            TaskOutcome::Panicked { message } => Some(format!("panicked: {message}")),
            TaskOutcome::TimedOut => Some(BudgetExceeded::Deadline.to_string()),
            TaskOutcome::OverBudget => Some(BudgetExceeded::Nodes.to_string()),
        }
    }
}

/// Runs a fallible task under the supervision envelope: budget installed
/// per `limits`, panics contained, outcome classified.
///
/// `f` runs on the calling thread (supervision adds isolation, not
/// concurrency), so budget ticks inside the task's hot loops see the
/// installed budget.
pub fn supervise<T, E, F>(limits: &Limits, f: F) -> TaskOutcome<T, E>
where
    F: FnOnce() -> Result<T, E>,
{
    install_quiet_hook();
    let _budget = budget::install(limits.deadline, limits.max_nodes);
    let caught = {
        let _scope = SupervisedScope::enter();
        // AssertUnwindSafe: supervised entry points take shared references
        // and keep every piece of mutable state internal, so an unwound
        // task leaves nothing observable behind (see module docs).
        catch_unwind(AssertUnwindSafe(f))
    };
    match caught {
        Ok(Ok(result)) => TaskOutcome::Ok(Box::new(result)),
        Ok(Err(e)) => TaskOutcome::Failed(e),
        Err(payload) => match payload.downcast_ref::<BudgetExceeded>() {
            Some(BudgetExceeded::Deadline) => TaskOutcome::TimedOut,
            Some(BudgetExceeded::Nodes) => TaskOutcome::OverBudget,
            None => TaskOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
        },
    }
}
