//! Worker-count policy and the fan-out primitive of the in-flow parallelism.
//!
//! Cut enumeration (and, one crate up, T1 detection's collection/scoring
//! passes, the phase-descent restarts and the Monte-Carlo margin trials)
//! fan out over scoped worker threads. This module owns the two policy
//! decisions those fan-outs share — how many workers the host delivers
//! ([`workers`]) and whether one site should use them ([`width`]) — and
//! the one primitive every chunked fan-out spawns through
//! ([`map_ordered`]). Chunking and deterministic merges live next to the
//! loops they parallelize; the cut frontier keeps its own work-stealing
//! protocol.
//!
//! The default worker count is the parallelism a one-time spin-loop probe
//! measures, not the number of CPUs the host reports: a 2-vCPU guest that
//! delivers about one core resolves to one worker, so its fan-outs stay
//! sequential. `SFQ_WORKERS=1` is the sequential reference run: every
//! fan-out site then runs its sequential body.

use crate::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override installed by [`force_workers`] (0 = none).
///
/// Deliberately a plain std atomic even under the `chk` feature: it is
/// process-wide *configuration* read before a fan-out starts, not part of
/// any protocol a model explores (model tests pin it with
/// [`force_workers`] before checking).
static FORCED: AtomicUsize = AtomicUsize::new(0);

/// Sanity cap on *explicit* worker overrides ([`force_workers`],
/// `SFQ_WORKERS`). The default worker count is the host's available
/// parallelism, so this bound only matters for deliberate oversubscription
/// (the determinism tests run 8 workers on 1-core CI hosts) — it exists so
/// a typo like `SFQ_WORKERS=10000` cannot spawn an absurd thread count,
/// not as a tuning knob.
pub const MAX_WORKERS: usize = 64;

/// Forces [`workers`] to return `n` for the rest of the process (`0`
/// clears the override).
///
/// This is the in-process testing hook: the differential tests use it to
/// exercise the parallel merges even on single-core hosts. It exists so
/// tests never have to call `std::env::set_var` at runtime (a data race
/// against concurrent `getenv` on POSIX); the `SFQ_WORKERS` environment
/// variable serves the same purpose from *outside* the process, where it
/// is inherited before any thread starts and read exactly once.
pub fn force_workers(n: usize) {
    FORCED.store(n, Ordering::SeqCst);
}

/// The current [`force_workers`] override (`0` when none is installed).
/// Lets callers that need a temporary override (e.g. the batch driver's
/// sequential retry of a panicked design) save and restore the previous
/// value instead of clobbering it.
pub fn forced_workers() -> usize {
    FORCED.load(Ordering::SeqCst)
}

/// Validates an `SFQ_WORKERS` value: a positive integer, capped at
/// [`MAX_WORKERS`]. `0` and non-numeric values are rejected with a reason —
/// silently falling back would let a typo like `SFQ_WORKERS=all` change
/// behavior with no signal, which a long-running daemon cannot afford.
///
/// # Errors
/// A human-readable rejection reason.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("worker count must be at least 1".to_string()),
        Ok(n) => Ok(n.min(MAX_WORKERS)),
        Err(_) => Err(format!("`{value}` is not a number")),
    }
}

/// Number of scoped worker threads the in-flow fan-outs may use.
///
/// In order of precedence: a [`force_workers`] override, then the
/// `SFQ_WORKERS` environment variable (read once, at first use), then the
/// host's delivered parallelism ([`delivered_parallelism`], probed once per
/// process). Explicit overrides may exceed the host's core count up to
/// [`MAX_WORKERS`], which is how single-core CI exercises the parallel
/// merges, and they skip the probe.
///
/// Fan-out sites should ask [`width`] rather than call this directly, so
/// that small inputs never pay for the probe.
pub fn workers() -> usize {
    workers_reaching(2)
}

/// [`workers`] for a caller that can only use `at_least` workers or more:
/// without an override, a host reporting fewer CPUs than that answers 1
/// without running the probe, whose answer could not reach `at_least`
/// either. The probe starts threads, so this keeps a process that never
/// fans out single-threaded.
fn workers_reaching(at_least: usize) -> usize {
    resolve_workers(FORCED.load(Ordering::SeqCst), env_workers(), || {
        if available_cpus() < at_least {
            1
        } else {
            delivered_parallelism()
        }
    })
}

/// `std::thread::available_parallelism()`, read once: it respects CPU
/// quotas and affinity masks, and on Linux reads cgroup files to do so.
fn available_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The precedence rule behind [`workers`]: a non-zero `forced` override,
/// else the `env` override, else `probe()`. The probe runs only when
/// neither override is set.
pub(crate) fn resolve_workers(
    forced: usize,
    env: Option<usize>,
    probe: impl FnOnce() -> usize,
) -> usize {
    if forced != 0 {
        return forced.clamp(1, MAX_WORKERS);
    }
    env.unwrap_or_else(probe)
}

/// The validated `SFQ_WORKERS` override, read once per process.
fn env_workers() -> Option<usize> {
    static FROM_ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("SFQ_WORKERS") {
        Err(_) => None,
        Ok(v) => match parse_workers(&v) {
            Ok(w) => Some(w),
            Err(reason) => {
                // One-time by construction: the OnceLock initializer runs
                // exactly once per process.
                eprintln!(
                    "warning: ignoring SFQ_WORKERS={v:?}: {reason}; \
                     using the host's delivered parallelism"
                );
                None
            }
        },
    })
}

/// The width a fan-out site may use for `items` units of work: `1` (run
/// the sequential body) when `items` is below the site's `grain` or the
/// host delivers fewer than `break_even` workers, else [`workers`] capped
/// at `items`.
///
/// `grain` is the smallest input that amortizes the site's thread spawns;
/// `break_even` is the smallest worker count at which the site's parallel
/// driver beats its sequential body, measured per site (restarts and
/// margin trials break even at 2; the cut frontier, detect's passes and
/// the chunked sort need 3). The [`delivered_parallelism`] probe runs only
/// when neither check can settle the answer: never for inputs below the
/// grain, and never for a break-even width above the host's CPU count.
/// Every site's output is bit-identical at every width, so this decides
/// cost only, never results.
pub fn width(items: usize, grain: usize, break_even: usize) -> usize {
    if items < grain.max(2) {
        return 1;
    }
    let break_even = break_even.max(2);
    let w = workers_reaching(break_even).min(items);
    if w < break_even {
        1
    } else {
        w
    }
}

/// The parallelism this host delivers to the process, capped at
/// `std::thread::available_parallelism()`: measured once by a spin-loop
/// probe (see `probe_parallelism` in the source; ~5–10 ms, skipped on
/// one-CPU hosts) and cached for the rest of the process.
pub fn delivered_parallelism() -> usize {
    static PROBED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PROBED.get_or_init(probe_parallelism)
}

/// Measures how many of the host's reported CPUs deliver a full core.
///
/// `available_parallelism()` counts the CPUs the process may run on, not
/// how much of them it gets: a 2-vCPU guest on a busy machine reports 2
/// and delivers about 1, and there every fan-out costs CPU time (spawns,
/// time-slicing, cache refills) without a wall-time gain. The probe runs
/// four trials, each one spin loop alone and then `k = min(nproc, 8)`
/// identical loops at once: `k` free cores finish `k` loops in the time of
/// one. The single-loop arm keeps its best trial (the core's undisturbed
/// speed); the concurrent arm sums its trials, so one lucky millisecond in
/// which a busy host's other CPUs happened to be idle cannot stand for the
/// whole run. The throughput ratio, allowing 5 % slack for timer and
/// start-up jitter, is rounded down; when all `k` loops ran in parallel the
/// reported CPU count stands. With `nproc == 1` nothing is measured.
///
/// Cost: `4 × (1 + k / delivered)` loops of ~0.5 ms — about 5 ms on a
/// 2-vCPU host, about 10 ms when 8 reported CPUs deliver two. A host that
/// stalls the loops (heavy steal time) stops the probe after the trial that
/// crosses [`PROBE_BUDGET`]; the trials so far give the same ratio.
pub(crate) fn probe_parallelism() -> usize {
    use std::time::{Duration, Instant};
    let nproc = available_cpus();
    if nproc == 1 {
        return 1;
    }
    let k = nproc.min(PROBE_LOOPS);
    let begin = Instant::now();
    let mut solo = Duration::MAX;
    let mut spans = Duration::ZERO;
    let mut trials = 0;
    while trials < PROBE_TRIALS && (trials == 0 || begin.elapsed() < PROBE_BUDGET) {
        let t = Instant::now();
        spin(PROBE_ITERS);
        solo = solo.min(t.elapsed());
        spans += concurrent_span(k);
        trials += 1;
    }
    let work = (k * trials) as f64 * solo.as_secs_f64();
    let ratio = work / spans.as_secs_f64().max(1e-9);
    let delivered = ((ratio * (1.0 + PROBE_SLACK)) as usize).clamp(1, k);
    if delivered == k {
        nproc
    } else {
        delivered
    }
}

/// Spin loops the probe runs at once at most; beyond this the reported
/// CPU count is trusted once all of them ran in parallel.
const PROBE_LOOPS: usize = 8;
/// Trials of each probe arm.
const PROBE_TRIALS: usize = 4;
/// Wall time after which the probe starts no further trial.
const PROBE_BUDGET: std::time::Duration = std::time::Duration::from_millis(10);
/// Iterations of one probe loop: ~0.5 ms of dependent xorshift steps at
/// 1–3 ns each — long against thread start-up (tens of µs), short enough
/// to keep the whole probe near 10 ms.
const PROBE_ITERS: u64 = 200_000;
/// Relative allowance before rounding down: `k` loops that all ran in
/// parallel still read slightly under `k`.
const PROBE_SLACK: f64 = 0.05;

/// A dependent xorshift chain the optimizer cannot elide: pure register
/// work, so concurrent copies only compete for cores, not for memory.
fn spin(iters: u64) -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Runs `k` probe loops at once (the caller's thread plus `k - 1` scoped
/// helpers) and returns the span from the earliest loop start to the latest
/// loop end. The loops start together off a yielding spin barrier and each
/// stamps its own start, so thread spawn cost stays out of the span, while
/// loops that time-slice one core still add up.
fn concurrent_span(k: usize) -> std::time::Duration {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;
    // A one-shot measurement, not a protocol the model checker explores,
    // so the barrier is a std atomic like [`FORCED`]; only the spawn goes
    // through the crate's funnel.
    let arrived = AtomicUsize::new(0);
    let timed = || {
        arrived.fetch_add(1, Ordering::AcqRel);
        while arrived.load(Ordering::Acquire) < k {
            std::thread::yield_now();
        }
        let start = Instant::now();
        spin(PROBE_ITERS);
        (start, Instant::now())
    };
    let stamps: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..k).map(|_| sync::spawn_scoped(scope, timed)).collect();
        let mut stamps = vec![timed()];
        stamps.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("probe loops cannot panic")),
        );
        stamps
    });
    let first = stamps.iter().map(|s| s.0).min().expect("k >= 1");
    let last = stamps.iter().map(|s| s.1).max().expect("k >= 1");
    last - first
}

/// Smallest worker count at which the chunked sort may beat
/// `sort_unstable_by_key`. The chunk sorts overlap, but the k-way merge
/// runs on one thread after them: sorting 20k–1M 20-byte records at 2
/// workers took 1.04–1.59× the wall time and 1.27–1.59× the CPU time of
/// one (best of 5, 2-vCPU x86 host). Three is the smallest width not
/// measured to lose.
const SORT_BREAK_EVEN: usize = 3;

/// Sorts `items` by `key` across up to [`workers`] scoped threads: the
/// vector is split into one contiguous chunk per worker, each chunk is
/// `sort_unstable_by_key`ed in place (one [`map_ordered`] item per chunk),
/// and the sorted chunks are k-way merged (smallest key first, ties broken
/// by chunk order, i.e. input order). Small inputs and single-worker configurations fall through to
/// plain `sort_unstable_by_key` with no threads spawned.
///
/// **Determinism:** when no two elements have equal keys (a strict total
/// order — e.g. a compound key ending in a unique index), the result is
/// byte-identical to `slice::sort_unstable_by_key` for *every* worker
/// count. With duplicate keys the order within a run of equals is as
/// unspecified as `sort_unstable` itself — callers that need worker-count
/// independence must provide deduplicating keys.
pub fn sort_unstable_by_key<T, K, F>(items: &mut Vec<T>, key: F)
where
    T: Copy + Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    // A chunk must amortize its thread spawn; tiny sorts run inline.
    const MIN_ITEMS: usize = 4096;
    let n = items.len();
    let w = width(n, MIN_ITEMS, SORT_BREAK_EVEN).min(n / (MIN_ITEMS / 4));
    if w < 2 {
        items.sort_unstable_by_key(|t| key(t));
        return;
    }
    let chunk = n.div_ceil(w);
    map_ordered(items.chunks_mut(chunk).collect(), |part: &mut [T]| {
        part.sort_unstable_by_key(|t| key(t))
    });
    // Sequential k-way merge (k = worker count, so a linear scan over the
    // chunk heads beats a heap). `T: Copy` keeps the element moves trivial.
    let mut cursors: Vec<(usize, usize)> = (0..w)
        .map(|c| (c * chunk, ((c + 1) * chunk).min(n)))
        .collect();
    let mut out: Vec<T> = Vec::with_capacity(n);
    loop {
        let mut best: Option<usize> = None;
        for (c, &(lo, hi)) in cursors.iter().enumerate() {
            if lo < hi && best.is_none_or(|b| key(&items[lo]) < key(&items[cursors[b].0])) {
                best = Some(c);
            }
        }
        let Some(b) = best else { break };
        out.push(items[cursors[b].0]);
        cursors[b].0 += 1;
    }
    *items = out;
}

/// A panic captured from one item of [`map_ordered_caught`]: the original
/// unwind payload, so nothing is lost between the worker and the caller.
pub struct ItemPanic {
    payload: Box<dyn std::any::Any + Send + 'static>,
}

impl ItemPanic {
    /// Best-effort human-readable panic message (the `&str` / `String`
    /// payload of an ordinary `panic!`, or a placeholder for exotic
    /// payloads).
    pub fn message(&self) -> String {
        panic_message(self.payload.as_ref())
    }

    /// Borrows the raw unwind payload (for `downcast_ref` classification —
    /// e.g. the supervision layer recognizing [`crate::BudgetExceeded`]).
    pub fn payload(&self) -> &(dyn std::any::Any + Send + 'static) {
        self.payload.as_ref()
    }

    /// Re-raises the captured panic on the current thread with its original
    /// payload.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ItemPanic({:?})", self.message())
    }
}

/// Renders a panic payload as text: the `&str` / `String` carried by an
/// ordinary `panic!`, or a placeholder for any other `panic_any` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f` on one claimed item with per-item panic isolation, so one
/// poisoned item cannot take down the whole fan-out.
fn run_item<T, U>(k: usize, item: T, f: &(impl Fn(T) -> U + Sync)) -> Result<U, ItemPanic> {
    #[cfg(not(feature = "fault-injection"))]
    let _ = k;
    // AssertUnwindSafe: `f` is shared immutably across items, and a panicked
    // item's partial state is dropped with the closure scope — the caller
    // only ever observes completed results or the captured payload.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        crate::faultpt::hit("par.item", &k.to_string());
        f(item)
    }))
    .map_err(|payload| ItemPanic { payload })
}

/// Maps `f` over `items` on up to [`workers`] scoped threads, returning the
/// results **in input order** regardless of scheduling.
///
/// This is the workspace's one chunked fan-out primitive: the batch
/// drivers (`sfqt1 flow --batch`, the corpus table, Table I) pass one item
/// per design, and the in-flow sites (detect's passes, the phase-descent
/// restarts, the margin trials, [`sort_unstable_by_key`]) pass one item per
/// [`width`]-sized chunk. Items are claimed from an atomic cursor, so
/// uneven per-item cost balances automatically, every spawn goes through
/// the crate's `sync` funnel (and so under the `chk` model checker), and
/// the order-preserving merge keeps the observable output bit-identical for
/// every worker count. With one worker (a single-core host or
/// `SFQ_WORKERS=1`) it degenerates to a plain in-order map on the calling
/// thread with no thread spawns.
///
/// A panicking item no longer aborts its worker: every item runs to a
/// result either way (see [`map_ordered_caught`]), and the panic of the
/// **lowest input index** is then re-raised on the calling thread — so the
/// failure surface is deterministic and independent of worker count.
/// Callers that want to survive poisoned items use [`map_ordered_caught`]
/// directly.
pub fn map_ordered<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let mut first_panic: Option<ItemPanic> = None;
    let results: Vec<U> = map_ordered_caught(items, f)
        .into_iter()
        .filter_map(|r| match r {
            Ok(u) => Some(u),
            Err(p) => {
                first_panic.get_or_insert(p);
                None
            }
        })
        .collect();
    match first_panic {
        None => results,
        Some(p) => p.resume(),
    }
}

/// [`map_ordered`] with per-item panic containment: each item yields either
/// its result or the captured panic ([`ItemPanic`]), **in input order**.
///
/// A panicking worker closure poisons only its own item — the worker thread
/// survives and keeps claiming items, so the surviving results are
/// byte-identical to a run where the poisoned item was simply absent, for
/// any worker count. This is what lets `sfqt1 flow --batch` degrade
/// gracefully instead of dying with the first broken design.
pub fn map_ordered_caught<T, U, F>(items: Vec<T>, f: F) -> Vec<Result<U, ItemPanic>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    // Emission is in input order, so collecting into a Vec preserves it.
    map_ordered_streamed(items, f, |_k, r| results.push(r));
    results
}

/// In-order state of one [`map_ordered_streamed`] run: completed results
/// that are still waiting for an earlier item to finish.
struct EmitState<U> {
    next: usize,
    pending: std::collections::BTreeMap<usize, Result<U, ItemPanic>>,
}

/// [`map_ordered_caught`] that **streams**: `emit(k, result)` is called for
/// every item, in input order, as soon as all items `0..=k` have finished —
/// instead of buffering the whole result vector until the slowest item is
/// done. The first item's result is observable while later items are still
/// running, which is what lets batch drivers and the `sfqt1d` daemon print
/// or transmit result rows before a batch completes.
///
/// `emit` runs under an internal lock (on whichever worker finished the
/// unblocking item), so it may be `FnMut`; long work inside `emit` delays
/// other workers' emissions but not their computations. Panic containment
/// and ordering semantics are exactly those of [`map_ordered_caught`].
pub fn map_ordered_streamed<T, U, F, E>(items: Vec<T>, f: F, emit: E)
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
    E: FnMut(usize, Result<U, ItemPanic>) + Send,
{
    let n = items.len();
    let threads = workers().min(n);
    let mut emit = emit;
    if threads <= 1 {
        for (k, item) in items.into_iter().enumerate() {
            emit(k, run_item(k, item, &f));
        }
        return;
    }
    let work: Vec<sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| sync::Mutex::new(Some(item)))
        .collect();
    let cursor = sync::AtomicUsize::new(0);
    let sink = sync::Mutex::new((
        EmitState {
            next: 0,
            pending: std::collections::BTreeMap::new(),
        },
        emit,
    ));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                sync::spawn_scoped(scope, || loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let item = work[k]
                        .lock()
                        .expect("work slot lock")
                        .take()
                        .expect("each work item is claimed once");
                    let result = run_item(k, item, &f);
                    let (state, emit) = &mut *sink.lock().expect("emit sink lock");
                    state.pending.insert(k, result);
                    // Drain the contiguous prefix: emit everything that is
                    // now unblocked, in input order.
                    while let Some(r) = state.pending.remove(&state.next) {
                        emit(state.next, r);
                        state.next += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            // Worker bodies catch per item, so a worker can only die on a
            // panic outside `f` (a poisoned slot lock); preserve that
            // payload instead of replacing it with a join message.
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
}
