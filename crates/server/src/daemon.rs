//! The `sfqt1d` daemon proper: Unix-socket acceptor, connection thread
//! pool, graceful shutdown.
//!
//! # Job lifecycle
//!
//! The acceptor polls a nonblocking [`UnixListener`] and feeds accepted
//! connections to a fixed pool of handler threads over a closable
//! [`WorkQueue`] (handlers serialize only the dequeue, never the
//! handling). Each connection carries one request: the handler parses
//! it, ingests designs through the shared [`ServerState`] cache, runs the
//! flows via [`run_jobs_streamed`] — which fans designs over
//! [`par::workers`](sfq_netlist::par::workers) threads *within* the
//! request — and streams `ROW` lines back, flushing each one, so clients
//! see results while later designs still run.
//!
//! # Shutdown semantics
//!
//! Three triggers set one flag: a `STOP` request, `SIGTERM`/`SIGINT` (when
//! [`ServerConfig::handle_signals`] is on), and the idle timeout (no
//! connection accepted or finishing for [`ServerConfig::idle_timeout`]
//! while none is active). Once set, the acceptor stops accepting and
//! [`close`](WorkQueue::close)s the queue; handlers drain the
//! already-accepted backlog, finish their in-flight streams (every started
//! `FLOW` response runs to its `END` line — shutdown never corrupts a
//! stream), and exit. The socket file is removed on the way out. The
//! handshake is exhaustively schedule-explored by `tests/chk_models.rs`
//! (see [`crate::sync`]).

use crate::jobs::{run_jobs_streamed, JobEntry};
use crate::protocol::{read_request, FlowRequest, ProtocolError, Request};
use crate::queue::WorkQueue;
use crate::state::ServerState;
use crate::sync::{AtomicBool, AtomicUsize, Mutex, Ordering};
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long the acceptor sleeps between polls of the nonblocking listener.
/// Small enough that shutdown and new connections feel immediate, large
/// enough that an idle daemon costs nothing measurable.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Configuration of one [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Connection-handler threads — the number of requests served
    /// concurrently (each request additionally fans its designs over
    /// [`par::workers`](sfq_netlist::par::workers)).
    pub conn_threads: usize,
    /// Shut down after this long with no connection activity (`None`:
    /// serve until `STOP` or a signal).
    pub idle_timeout: Option<Duration>,
    /// Capacity of the shared design cache (entries).
    pub cache_capacity: usize,
    /// Force the worker-thread count each request fans its designs over,
    /// for the daemon's lifetime (`sfqt1d --workers N`); one design always
    /// runs on one thread. `None` keeps the default policy: `SFQ_WORKERS`
    /// if set, else the host's delivered parallelism.
    pub workers: Option<usize>,
    /// Install `SIGTERM`/`SIGINT` handlers that trigger graceful shutdown.
    /// Off for in-process tests, on for the `sfqt1d` binary.
    pub handle_signals: bool,
}

impl ServerConfig {
    /// Defaults for `socket`: 4 handler threads, no idle timeout, a
    /// 256-entry cache, signals handled.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            conn_threads: 4,
            idle_timeout: None,
            cache_capacity: 256,
            workers: None,
            handle_signals: true,
        }
    }
}

/// Errors that keep the daemon from serving.
#[derive(Debug)]
pub enum ServerError {
    /// A socket operation failed.
    Io {
        /// What the daemon was doing.
        context: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// Another live daemon already owns the socket.
    AlreadyRunning(PathBuf),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io { context, source } => write!(f, "{context}: {source}"),
            ServerError::AlreadyRunning(p) => {
                write!(f, "a daemon is already serving `{}`", p.display())
            }
        }
    }
}

impl std::error::Error for ServerError {}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> ServerError {
    let context = context.into();
    move |source| ServerError::Io { context, source }
}

/// Set by the signal handler; polled by every acceptor loop. Process-wide
/// because POSIX signal dispositions are.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs `SIGTERM`/`SIGINT` handlers that set [`SIGNALLED`]. Raw
/// `signal(2)` FFI — the workspace links nothing beyond std, and storing
/// one atomic flag is async-signal-safe.
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal(2)` with a valid signum and an `extern "C" fn(i32)`
    // handler is sound; the handler body only stores to a static atomic
    // (async-signal-safe), and nothing else installs signal dispositions.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Binds the listener, recovering the socket path from a **stale** previous
/// daemon (file exists, nobody accepts) but refusing to displace a live
/// one (a connect probe succeeds).
fn bind(socket: &PathBuf) -> Result<UnixListener, ServerError> {
    match UnixListener::bind(socket) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(ServerError::AlreadyRunning(socket.clone()));
            }
            std::fs::remove_file(socket).map_err(io_err(format!(
                "removing stale socket `{}`",
                socket.display()
            )))?;
            UnixListener::bind(socket).map_err(io_err(format!("binding `{}`", socket.display())))
        }
        Err(e) => Err(io_err(format!("binding `{}`", socket.display()))(e)),
    }
}

/// Runs the daemon until `STOP`, a handled signal, or the idle timeout.
///
/// Blocks the calling thread for the daemon's whole lifetime; tests run it
/// on a background thread with [`ServerConfig::handle_signals`] off.
///
/// # Errors
/// Socket setup failures and [`ServerError::AlreadyRunning`]. Per-client
/// I/O errors (malformed requests, disappearing clients) are contained in
/// the handlers and never abort the daemon.
pub fn serve(config: &ServerConfig) -> Result<(), ServerError> {
    if config.handle_signals {
        install_signal_handlers();
    }
    if let Some(w) = config.workers {
        sfq_netlist::par::force_workers(w);
    }
    let listener = bind(&config.socket)?;
    listener
        .set_nonblocking(true)
        .map_err(io_err("setting the listener nonblocking"))?;
    let state = ServerState::new(config.cache_capacity);
    let queue: WorkQueue<UnixStream> = WorkQueue::new();
    // Accepted-but-unfinished connections; > 0 blocks the idle timeout.
    let active = AtomicUsize::new(0);
    let last_activity = Mutex::new(Instant::now());
    let touch = || {
        *last_activity.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
    };

    std::thread::scope(|scope| {
        let handlers: Vec<_> = (0..config.conn_threads.max(1))
            .map(|_| {
                crate::sync::spawn_scoped(scope, || {
                    // `pop` blocks while the queue is open and returns None
                    // only once it is closed **and** drained — so handlers
                    // always finish the accepted backlog before retiring.
                    while let Some(stream) = queue.pop() {
                        handle_connection(stream, &state);
                        active.fetch_sub(1, Ordering::SeqCst);
                        touch();
                    }
                })
            })
            .collect();
        loop {
            if state.shutdown_requested() || SIGNALLED.load(Ordering::SeqCst) {
                break;
            }
            if let Some(idle) = config.idle_timeout {
                let quiet = last_activity
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .elapsed();
                if active.load(Ordering::SeqCst) == 0 && quiet >= idle {
                    break;
                }
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    active.fetch_add(1, Ordering::SeqCst);
                    touch();
                    if let Err(refused) = queue.push(stream) {
                        // Only this loop closes the queue, so a refusal is
                        // unreachable; dropping the connection (client sees
                        // a hangup) still beats serving past shutdown.
                        drop(refused);
                        active.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                // Transient per-connection accept failures (e.g. the peer
                // vanished between connect and accept) must not kill the
                // daemon.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Stop accepting; handlers drain the backlog and finish in-flight
        // streams before retiring. Joining keeps a handler panic visible
        // (and is what the model checker requires of scoped spawns).
        queue.close();
        for h in handlers {
            // A handler can only die outside its containment (already a
            // bug); keep shutting down — the remaining handlers and the
            // socket cleanup matter more than re-raising here.
            let _ = h.join();
        }
    });
    std::fs::remove_file(&config.socket).map_err(io_err(format!(
        "removing socket `{}`",
        config.socket.display()
    )))?;
    Ok(())
}

/// Serves one connection: read the single request, answer it. All failures
/// are contained here — a broken client costs the daemon nothing but this
/// handler's time.
fn handle_connection(stream: UnixStream, state: &ServerState) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    match read_request(&mut reader) {
        // Transport died mid-request: nobody is left to answer.
        Err(ProtocolError::Io(_)) => {}
        Err(ProtocolError::Malformed(m)) => {
            let _ = writeln!(writer, "ERR {m}");
        }
        Ok(Request::Ping) => {
            let _ = writeln!(writer, "PONG");
        }
        Ok(Request::Stats) => {
            let _ = writeln!(writer, "{}", state.stats());
        }
        Ok(Request::Stop) => {
            state.request_shutdown();
            let _ = writeln!(writer, "BYE");
        }
        Ok(Request::Flow(request)) => handle_flow(&request, state, &mut writer),
    }
    settle_cpu_time();
    let _ = writer.flush();
}

/// Folds this handler thread's running CPU time into the process total
/// before the reply's last line leaves.
///
/// Linux adds a running thread's time to the process clock
/// (`CLOCK_PROCESS_CPUTIME_ID`) only at a scheduler tick, when the thread
/// blocks, or when the thread reads its own CPU clock. A handler that
/// served a short request without blocking would otherwise stay unsettled
/// until it waits for the next connection, which races the client's read
/// of `END`: a process-clock reading taken after `END` (an in-process
/// client, a profiler) then misses up to the whole request. Reading the
/// thread clock here settles it, so such readings attribute every request
/// its own CPU time. On other systems this is a no-op.
fn settle_cpu_time() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = [0i64; 2];
        // The result is unused: the read itself is the point.
        // SAFETY: `clock_gettime(2)` writes one `struct timespec` (two
        // 64-bit fields on 64-bit Linux) through a valid, exclusive pointer.
        unsafe {
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
        }
    }
}

/// Runs one `FLOW` request and streams its rows.
fn handle_flow(request: &FlowRequest, state: &ServerState, writer: &mut (impl Write + Send)) {
    let entries: Vec<JobEntry> = request
        .designs
        .iter()
        .map(|source| JobEntry {
            name: source.name().to_string(),
            design: state.ingest(source),
        })
        .collect();
    let options = &request.options;
    // A client that disappears mid-stream turns writes into errors; the
    // remaining jobs still run (their outcomes count in the daemon stats),
    // we just stop transmitting.
    let mut client_alive = true;
    let (ok, failed) = run_jobs_streamed(
        &entries,
        &options.flow_config(),
        &options.job_kind(),
        &options.limits(),
        |row| {
            state.record(row.kind);
            if client_alive {
                let sent = writeln!(writer, "ROW {} {}", row.index, row.line)
                    .and_then(|()| writer.flush());
                client_alive = sent.is_ok();
            }
        },
    );
    if client_alive {
        let _ = writeln!(writer, "END ok={ok} failed={failed}");
    }
}
