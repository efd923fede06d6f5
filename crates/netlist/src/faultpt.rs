//! Deterministic fault injection at named sites (the `fault-injection`
//! feature).
//!
//! Every hardened layer of the flow declares *fault points* — named sites
//! where a test (or an operator probing a deployment) can force a failure:
//!
//! | site          | where it fires                                   | context (`ctx`)        |
//! |---------------|--------------------------------------------------|------------------------|
//! | `parse`       | [`crate::design::Design::parse`]                 | design fallback name   |
//! | `flow.map`    | start of technology mapping (`sfq_core`)         | design name            |
//! | `flow.detect` | before T1 detection                              | network name           |
//! | `flow.phase`  | before phase assignment                          | network name           |
//! | `flow.dff`    | before DFF emission                              | network name           |
//! | `flow.verify` | before audit + equivalence check                 | network name           |
//! | `par.item`    | inside every [`crate::par::map_ordered`] worker  | item index (decimal)   |
//!
//! Faults are armed programmatically ([`arm`] / [`arm_limited`]) or from the
//! `SFQ_FAULTS` environment variable (read once, at first use), a
//! comma-separated list of `site[@ctx]:action` specs where `action` is
//! `panic`, `err`, or `delay:<ms>`:
//!
//! ```text
//! SFQ_FAULTS='parse@adder8:err,flow.detect@mult4:panic,flow.phase@voter7:delay:60000'
//! ```
//!
//! An armed site without `@ctx` matches every context. Actions:
//!
//! * `panic` — [`hit`] panics with the deterministic message
//!   `injected panic at <site>`, exercising the containment paths
//!   (supervised `catch_unwind`, per-item isolation in `map_ordered`);
//! * `err` — [`hit`] returns `true`; the call site maps that to its own
//!   typed error (e.g. [`crate::design::DesignError::Injected`]);
//! * `delay:<ms>` — [`hit`] sleeps that long in short slices, calling
//!   [`crate::budget::checkpoint`] between slices so an armed deadline
//!   aborts the sleep promptly — this is how deadline handling is tested in
//!   bounded wall-clock time.
//!
//! Without the `fault-injection` feature every function here compiles to a
//! no-op ([`hit`] constantly `false`), so production builds carry zero
//! overhead and no `SFQ_FAULTS` parsing.

/// What an armed fault point does when [`hit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with `injected panic at <site>`.
    Panic,
    /// Report the hit (`true`) so the call site returns its own error.
    Err,
    /// Sleep for this many milliseconds (sliced, deadline-aware).
    Delay(u64),
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::FaultAction;
    use crate::sync::{Mutex, Once, OnceLock};

    struct Fault {
        site: String,
        /// `None` matches every context.
        ctx: Option<String>,
        action: FaultAction,
        /// Remaining fires; `None` = unlimited.
        remaining: Option<u32>,
    }

    fn table() -> &'static Mutex<Vec<Fault>> {
        static TABLE: OnceLock<Mutex<Vec<Fault>>> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Parses `SFQ_FAULTS` exactly once, before the first table access.
    fn load_env() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let Ok(spec) = std::env::var("SFQ_FAULTS") else {
                return;
            };
            for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
                let (site_spec, action) = parse_spec(part.trim())
                    .unwrap_or_else(|| panic!("SFQ_FAULTS: malformed fault spec `{part}`"));
                let (site, ctx) = match site_spec.split_once('@') {
                    Some((s, c)) => (s.to_string(), Some(c.to_string())),
                    None => (site_spec.to_string(), None),
                };
                table().lock().expect("fault table lock").push(Fault {
                    site,
                    ctx,
                    action,
                    remaining: None,
                });
            }
        });
    }

    /// Splits `site[@ctx]:action` into the site part and the parsed action.
    fn parse_spec(part: &str) -> Option<(&str, FaultAction)> {
        let (site_spec, action) = part.split_once(':')?;
        let action = match action {
            "panic" => FaultAction::Panic,
            "err" => FaultAction::Err,
            delay => {
                let ms = delay.strip_prefix("delay:")?.parse().ok()?;
                FaultAction::Delay(ms)
            }
        };
        Some((site_spec, action))
    }

    pub fn arm(site: &str, ctx: Option<&str>, action: FaultAction, remaining: Option<u32>) {
        load_env();
        table().lock().expect("fault table lock").push(Fault {
            site: site.to_string(),
            ctx: ctx.map(str::to_string),
            action,
            remaining,
        });
    }

    pub fn disarm(site: &str, ctx: Option<&str>) {
        load_env();
        table()
            .lock()
            .expect("fault table lock")
            .retain(|f| !(f.site == site && f.ctx.as_deref() == ctx));
    }

    pub fn armed() -> usize {
        load_env();
        table().lock().expect("fault table lock").len()
    }

    pub fn hit(site: &str, ctx: &str) -> bool {
        load_env();
        let action = {
            let mut table = table().lock().expect("fault table lock");
            let found = table.iter_mut().find(|f| {
                f.site == site
                    && f.ctx.as_deref().is_none_or(|c| c == ctx)
                    && f.remaining != Some(0)
            });
            let Some(fault) = found else { return false };
            if let Some(n) = fault.remaining.as_mut() {
                *n -= 1;
            }
            fault.action
            // Lock released here: the action below may panic or sleep.
        };
        match action {
            FaultAction::Panic => panic!("injected panic at {site}"),
            FaultAction::Err => true,
            FaultAction::Delay(ms) => {
                // Sliced so an installed deadline budget fires mid-sleep
                // instead of after the full delay.
                let mut left = ms;
                while left > 0 {
                    crate::budget::checkpoint();
                    let slice = left.min(5);
                    std::thread::sleep(std::time::Duration::from_millis(slice));
                    left -= slice;
                }
                crate::budget::checkpoint();
                false
            }
        }
    }
}

/// Arms a fault at `site` (optionally only for context `ctx`), firing on
/// every [`hit`] until [`disarm`]ed. No-op without the `fault-injection`
/// feature.
pub fn arm(site: &str, ctx: Option<&str>, action: FaultAction) {
    #[cfg(feature = "fault-injection")]
    imp::arm(site, ctx, action, None);
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (site, ctx, action);
    }
}

/// Arms a fault that fires at most `count` times, then lies dormant until
/// [`disarm`]ed — the hook for "fails once, retry succeeds" tests. No-op
/// without the `fault-injection` feature.
pub fn arm_limited(site: &str, ctx: Option<&str>, action: FaultAction, count: u32) {
    #[cfg(feature = "fault-injection")]
    imp::arm(site, ctx, action, Some(count));
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (site, ctx, action, count);
    }
}

/// Removes every armed fault matching `site` and `ctx` exactly (a `None`
/// ctx only removes match-all entries). No-op without the feature.
pub fn disarm(site: &str, ctx: Option<&str>) {
    #[cfg(feature = "fault-injection")]
    imp::disarm(site, ctx);
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (site, ctx);
    }
}

/// Number of armed fault entries (including exhausted limited ones);
/// constantly 0 without the feature.
pub fn armed() -> usize {
    #[cfg(feature = "fault-injection")]
    {
        imp::armed()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        0
    }
}

/// Fires the fault point `site` in context `ctx`, if one is armed.
///
/// Returns `true` when an `err`-action fault fired (the call site should
/// fail with its own error type), `false` otherwise. Without the
/// `fault-injection` feature this is constantly `false` and the call
/// optimizes away.
///
/// # Panics
/// When a `panic`-action fault is armed for this site/context, or when an
/// armed `delay` overlaps an exceeded budget deadline.
#[inline]
pub fn hit(site: &str, ctx: &str) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        imp::hit(site, ctx)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (site, ctx);
        false
    }
}
