//! Cooperative per-flow work budgets: wall-clock deadlines and node-count
//! ceilings.
//!
//! A budget is installed on the current thread ([`install`] returns an RAII
//! [`BudgetGuard`] that clears it again) and checked cooperatively from the
//! flow's hot loops via [`tick`] and at stage boundaries via [`checkpoint`].
//! When a limit is exceeded the checking call aborts the flow by unwinding
//! with a [`BudgetExceeded`] payload (`std::panic::panic_any`), which the
//! supervision layer one crate up (`sfq_core::supervise`) catches and maps
//! to its `TimedOut` / `OverBudget` outcomes. Unwinding keeps the hot-loop
//! signatures untouched: cut enumeration, detection scoring and the phase
//! descent never have to thread a `Result` through every call.
//!
//! Design points:
//!
//! * **Thread-local.** The budget lives in a thread-local slot, so ticks on
//!   a thread that never installed one are no-ops. One design's flow runs
//!   entirely on the supervising thread (only the batch drivers fan out,
//!   and a supervised batch design installs its budget on the worker that
//!   runs it), so every tick is charged and the *node-ceiling* abort
//!   decision is identical for every worker count.
//! * **Cheap.** A tick is a thread-local read/write; the wall clock is only
//!   consulted every [`CLOCK_CHECK_INTERVAL`] ticks (and at every
//!   [`checkpoint`]), so per-node overhead in the hot loops stays in the
//!   nanoseconds.
//! * **No budget, no cost.** With nothing installed (every non-supervised
//!   caller: tests, the corpus drivers, library users) the first branch of
//!   [`tick`] bails out immediately, so behavior and results are unchanged.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Why a budgeted flow was aborted — the unwind payload thrown by [`tick`]
/// / [`checkpoint`] and caught by the supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The node-count ceiling was exceeded.
    Nodes,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Deadline => f.write_str("deadline exceeded"),
            BudgetExceeded::Nodes => f.write_str("node budget exceeded"),
        }
    }
}

/// Ticks between wall-clock reads in [`tick`]. Node-ceiling checks happen
/// on every tick (they are just an integer compare); `Instant::now` is
/// amortized over this many ticks so the hot loops never feel it.
pub const CLOCK_CHECK_INTERVAL: u32 = 256;

/// The installed budget of the current thread.
#[derive(Clone, Copy)]
struct Active {
    /// Absolute deadline (`None` = no time limit).
    deadline: Option<Instant>,
    /// Inclusive ceiling on cumulative tick units.
    max_nodes: u64,
    /// Units spent so far.
    spent: u64,
    /// Ticks since the wall clock was last consulted.
    unchecked: u32,
}

thread_local! {
    static ACTIVE: Cell<Option<Active>> = const { Cell::new(None) };
}

/// Clears the current thread's budget when dropped. Returned by
/// [`install`]; intentionally neither `Send` nor `Clone`, so the budget can
/// only be cleared on the thread that installed it.
#[derive(Debug)]
pub struct BudgetGuard {
    /// Keeps the type `!Send` (raw pointers are not `Send`/`Sync`).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        ACTIVE.set(None);
    }
}

/// Installs a budget on the current thread: an optional wall-clock
/// `deadline` (measured from now) and an optional `max_nodes` ceiling on
/// cumulative [`tick`] units. Passing `None` for both yields a guard that
/// never fires.
///
/// Budgets do not nest: a second `install` replaces the first, and whichever
/// guard drops first clears the slot. The supervision layer is the only
/// intended installer, one budget per supervised flow.
#[must_use = "dropping the guard immediately uninstalls the budget"]
pub fn install(deadline: Option<Duration>, max_nodes: Option<u64>) -> BudgetGuard {
    ACTIVE.set(Some(Active {
        deadline: deadline.map(|d| Instant::now() + d),
        max_nodes: max_nodes.unwrap_or(u64::MAX),
        spent: 0,
        unchecked: 0,
    }));
    BudgetGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// True when the current thread has a budget installed (used by tests and
/// by callers that want to skip preparing tick totals entirely).
pub fn active() -> bool {
    ACTIVE.get().is_some()
}

/// Charges `units` of work (one unit ≈ one processed node/candidate) to the
/// current thread's budget. No-op without an installed budget.
///
/// # Panics
/// Unwinds with a [`BudgetExceeded`] payload when the ceiling or (every
/// [`CLOCK_CHECK_INTERVAL`] ticks) the deadline is exceeded. The panic is
/// part of the protocol: the supervision layer catches it.
#[inline]
pub fn tick(units: u64) {
    let Some(mut a) = ACTIVE.get() else { return };
    a.spent = a.spent.saturating_add(units);
    if a.spent > a.max_nodes {
        exceed(BudgetExceeded::Nodes);
    }
    a.unchecked += 1;
    if a.unchecked >= CLOCK_CHECK_INTERVAL {
        a.unchecked = 0;
        if let Some(deadline) = a.deadline {
            if Instant::now() >= deadline {
                exceed(BudgetExceeded::Deadline);
            }
        }
    }
    ACTIVE.set(Some(a));
}

/// Immediately checks both limits (the deadline without the tick-interval
/// amortization). Called at flow stage boundaries and from long sleeps, so
/// a deadline fires promptly even between hot loops. No-op without an
/// installed budget.
///
/// # Panics
/// Unwinds with a [`BudgetExceeded`] payload when a limit is exceeded.
pub fn checkpoint() {
    let Some(a) = ACTIVE.get() else { return };
    if a.spent > a.max_nodes {
        exceed(BudgetExceeded::Nodes);
    }
    if let Some(deadline) = a.deadline {
        if Instant::now() >= deadline {
            exceed(BudgetExceeded::Deadline);
        }
    }
}

/// Units charged so far on the current thread (0 without a budget).
pub fn spent() -> u64 {
    ACTIVE.get().map_or(0, |a| a.spent)
}

#[cold]
fn exceed(why: BudgetExceeded) -> ! {
    // Leave the slot installed — the guard clears it — but unwind now; the
    // supervision layer downcasts this payload to classify the outcome.
    std::panic::panic_any(why)
}
