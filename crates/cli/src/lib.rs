//! `sfqt1` — the command-line front end of the T1-aware SFQ mapping flow.
//!
//! The library crates expose the full API; this binary makes the flow usable
//! without writing Rust:
//!
//! ```text
//! sfqt1 bench adder --small --aag adder.aag      # generate a benchmark
//! sfqt1 flow adder.aag --t1 --phases 4 \
//!       --blif out.blif --dot out.dot --vcd out.vcd
//! sfqt1 flow --batch designs/ --t1               # every .aag/.blif in a dir
//! sfqt1 energy adder.aag --t1                    # first-order RSFQ energy
//! sfqt1 margin adder.aag --jitter 1.5            # Monte-Carlo timing margin
//! sfqt1 convert adder.aag --blif adder.blif      # format conversion
//! ```
//!
//! Inputs are combinational ASCII AIGER (`.aag`) or BLIF (`.blif`) files.
//! Exit codes are distinct: 0 when everything succeeded, 1 for usage
//! mistakes and fatal errors, 2 when a batch completed but some designs
//! failed (see [`exit_code`]). The dispatch logic lives in this library so
//! the test suite can drive it end to end without spawning processes.

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

use sfq_circuits::{Benchmark, ExtBenchmark};
use sfq_core::report::StageReport;
use sfq_core::{run_flow, FlowConfig, FlowResult, Limits, PhaseEngine};
use sfq_netlist::design::{Design, DesignError, DesignFormat};
use sfq_netlist::{aiger, export, map_aig, Aig, Library};
use sfq_server::{
    run_jobs_streamed, DesignSource, FlowOptions as DaemonFlowOptions, FlowRequest, JobEntry,
    JobKind, JobRow, VerifyOptions,
};
use sfq_sim::energy::{measure_energy, EnergyModel};
use sfq_sim::margin::{analyze_margins, MarginConfig};
use sfq_sim::{check_against_aig, vcd, EquivConfig, PulseSim};
use std::fmt;
use std::io::Write;
use std::path::Path;

mod args;

pub use args::{Args, ParseArgsError};

/// Top-level CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Wrong invocation; the caller should print usage and exit 2.
    Usage(String),
    /// Reading or writing a file failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An input file failed to parse.
    Input(String),
    /// The synthesis flow itself failed.
    Flow(String),
    /// A batch run completed (graceful degradation) but some designs
    /// failed — reported after the per-design `FAILED(...)` rows and the
    /// summary line, and mapped to exit code 2 by [`exit_code`].
    Partial {
        /// Designs that finished and verified.
        ok: usize,
        /// Designs that failed (ingest, flow error, panic or budget abort).
        failed: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Input(m) => write!(f, "{m}"),
            CliError::Flow(m) => write!(f, "{m}"),
            CliError::Partial { ok, failed } => {
                write!(f, "batch: {failed} of {} designs failed", ok + failed)
            }
        }
    }
}

/// Maps a [`run`] result onto the process exit code: `0` when everything
/// succeeded, `1` for usage mistakes and fatal errors, `2` when a batch
/// completed but some designs failed ([`CliError::Partial`]).
pub fn exit_code(result: &Result<(), CliError>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(CliError::Partial { .. }) => 2,
        Err(_) => 1,
    }
}

impl std::error::Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::Usage(e.0)
    }
}

/// The usage text printed by `sfqt1 help` and on usage errors.
pub const USAGE: &str = "\
sfqt1 — T1-aware multiphase technology mapping for SFQ circuits

USAGE:
  sfqt1 flow <input.{aag,blif}> [--phases N] [--t1] [--engine auto|exact|heuristic]
        [--gain-threshold K] [--waves K] [--stats]
        [--blif P] [--dot P] [--vcd P] [--verilog P]
  sfqt1 flow --batch <dir> [--phases N] [--t1] [--engine E] [--gain-threshold K]
        [--keep-going|--fail-fast] [--deadline-ms T] [--max-nodes N]
        [--workers N] [--daemon SOCKET]
  sfqt1 verify <input.{aag,blif}> [--phases N] [--t1] [--engine E] [--gain-threshold K]
        [--waves K] [--seed S] [--jitter PS] [--period PS] [--trials K]
  sfqt1 verify --batch <dir> [--phases N] [--t1] [--engine E] [--gain-threshold K]
        [--keep-going|--fail-fast] [--deadline-ms T] [--max-nodes N]
        [--workers N] [--daemon SOCKET]
  sfqt1 daemon <ping|stats|stop> <socket>
  sfqt1 table <input> [--phases N]
  sfqt1 bench <name> [--small] [--aag P] [--blif P]
  sfqt1 energy <input> [--phases N] [--t1] [--waves K]
  sfqt1 margin <input> [--phases N] [--t1] [--jitter PS] [--period PS] [--trials K]
  sfqt1 convert <input> [--aag P] [--blif P] [--dot P] [--verilog P]
  sfqt1 bench-list
  sfqt1 help

SUBCOMMANDS:
  flow      run a synthesis flow and print the Table I-style report;
            optional artifacts: mapped BLIF, stage-annotated Graphviz DOT,
            structural Verilog, VCD pulse waveform of random operand waves.
            --batch runs every .aag/.blif design in a directory (one table
            row per design, input order; identical content parses once;
            the flows fan over the --workers threads).
            Each batch design runs supervised: a design that fails to
            parse, panics, or exceeds --deadline-ms / --max-nodes renders
            as a FAILED(reason) row while the rest continue (--keep-going,
            the default) or the batch stops at the first failure
            (--fail-fast); any failure makes the exit code 2.
            --workers N (--batch only) caps the worker threads the batch
            fans its designs over (default: SFQ_WORKERS if set, else the
            cores the host delivers; one design always runs on one thread,
            results are byte-identical for every worker count, and 1 is
            the sequential reference run).
            --daemon SOCKET serves the flow through a running sfqt1d
            instead of computing locally: batches submit designs by path,
            a single <input> is submitted inline, and result rows stream
            back in input order (start the daemon with `sfqt1d <socket>`;
            set its worker count with `sfqt1d --workers N`)
  verify    run the flow, then gate it with pulse-level verification: the
            timed netlist is co-simulated against the original AIG over a
            deterministic vector sweep (exhaustive for designs with at most
            10 inputs, corner + walking-one + seeded random vectors above),
            a mismatch is shrunk to a minimal counterexample, and the
            Monte-Carlo timing-margin analysis runs on the survivors.
            Defaults to the T1 flow on 4 phases when neither --t1 nor
            --phases is given. --batch verifies every design of a directory
            (one row per design, same containment/exit-code contract as
            flow --batch); --daemon serves the batch through sfqt1d with
            the default sweep settings. Any verification failure makes the
            exit code 2.
  daemon    control a running sfqt1d: ping, counter/cache stats, graceful
            stop (drains in-flight requests, then removes the socket)
  table     run the paper's three-flow comparison (1φ / nφ / nφ+T1) on a file
  bench     generate a built-in benchmark circuit (EPFL/ISCAS stand-ins)
  energy    pulse-simulate random waves and report static/dynamic power
  margin    Monte-Carlo analog jitter analysis of the T1 timing discipline
  convert   read AIGER or BLIF, write AIGER / mapped BLIF / DOT / Verilog
  bench-list  list available benchmark names
";

/// Dispatches one parsed command line, writing human-readable output to
/// `out`.
///
/// `argv` excludes the program name. Pass `&mut std::io::stdout()` (or any
/// `&mut` writer — see C-RW-VALUE) as `out`.
///
/// # Errors
/// [`CliError::Usage`] for invocation mistakes (exit code 2 in `main`),
/// other [`CliError`] variants for I/O, parse and flow failures.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "flow" => cmd_flow(rest, out),
        "verify" => cmd_verify(rest, out),
        "table" => cmd_table(rest, out),
        "bench" => cmd_bench(rest, out),
        "energy" => cmd_energy(rest, out),
        "margin" => cmd_margin(rest, out),
        "convert" => cmd_convert(rest, out),
        "daemon" => cmd_daemon(rest, out),
        "bench-list" => cmd_bench_list(out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_err("<stdout>"))?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`\n\n{USAGE}"
        ))),
    }
}

fn io_err(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |source| CliError::Io {
        path: path.to_string(),
        source,
    }
}

/// The usage error for an input whose extension is not `.aag`/`.blif` (in
/// any case): the one extension test of the ingestion layer, shared with
/// `--batch` and the daemon.
fn check_input_format(path: &str) -> Result<(), CliError> {
    match DesignFormat::from_extension(Path::new(path)) {
        Some(_) => Ok(()),
        None => Err(CliError::Usage(format!(
            "{path}: unknown input format (expected .aag or .blif)"
        ))),
    }
}

/// Reads an `.aag` or `.blif` file into an [`Aig`] through the ingestion
/// layer ([`Design::read`]).
fn read_design(path: &str) -> Result<Aig, CliError> {
    check_input_format(path)?;
    match Design::read(Path::new(path)) {
        Ok(design) => Ok(design.aig),
        Err(DesignError::Io { path, source }) => Err(CliError::Io { path, source }),
        // The parser's own message, without the format tag batch rows carry.
        Err(DesignError::Aiger(e)) => Err(CliError::Input(format!("{path}: {e}"))),
        Err(DesignError::Blif(e)) => Err(CliError::Input(format!("{path}: {e}"))),
        Err(e) => Err(CliError::Input(format!("{path}: {e}"))),
    }
}

/// The flow options every flow-running subcommand shares.
fn flow_config(a: &Args) -> Result<FlowConfig, CliError> {
    let phases: u8 = a.parsed_option("phases", 4)?;
    if phases == 0 {
        return Err(CliError::Usage("--phases must be at least 1".into()));
    }
    let mut config = if a.flag("t1") {
        FlowConfig::t1(phases)
    } else {
        FlowConfig::multiphase(phases)
    };
    config.gain_threshold = a.parsed_option("gain-threshold", 0)?;
    config.engine = match a.option("engine").unwrap_or("auto") {
        "auto" => PhaseEngine::Auto,
        "exact" => PhaseEngine::Exact,
        "heuristic" => PhaseEngine::Heuristic,
        other => {
            return Err(CliError::Usage(format!(
                "--engine must be auto, exact or heuristic (got `{other}`)"
            )));
        }
    };
    Ok(config)
}

/// [`flow_config`] for `verify` and `margin`: the T1 flow on 4 phases when
/// neither `--t1` nor `--phases` is given — both analyses are most
/// interesting on the netlists that commit T1 cells. `--engine` and
/// `--gain-threshold` apply either way.
fn t1_default_config(a: &Args) -> Result<FlowConfig, CliError> {
    let config = flow_config(a)?;
    if a.flag("t1") || a.option("phases").is_some() {
        return Ok(config);
    }
    Ok(FlowConfig {
        engine: config.engine,
        gain_threshold: config.gain_threshold,
        ..FlowConfig::t1(4)
    })
}

/// Applies `--workers N`: a per-invocation override of the worker-thread
/// count a batch fans its designs over, equivalent to `SFQ_WORKERS` without
/// the environment variable. Rejected without `--batch` — a single design
/// runs on one thread — and together with `--daemon` — the flow then runs
/// in the daemon's process, whose count is fixed at `sfqt1d` startup
/// (`sfqt1d --workers N`).
fn apply_workers_override(a: &Args, cmd: &str) -> Result<(), CliError> {
    let Some(v) = a.option("workers") else {
        return Ok(());
    };
    if a.option("batch").is_none() {
        return Err(CliError::Usage(format!(
            "{cmd}: --workers only applies to --batch"
        )));
    }
    if a.option("daemon").is_some() {
        return Err(CliError::Usage(format!(
            "{cmd}: --workers does not combine with --daemon \
             (set the daemon's count with `sfqt1d --workers N`)"
        )));
    }
    let n = sfq_netlist::par::parse_workers(v)
        .map_err(|reason| CliError::Usage(format!("{cmd}: --workers: {reason}")))?;
    sfq_netlist::par::force_workers(n);
    Ok(())
}

/// The batch, daemon and single-design dispatch `flow` and `verify` share.
///
/// `--batch <dir>` runs every design of a directory, locally or through
/// `--daemon <socket>`, and `--daemon` alone serves the one input inline;
/// those print `kind`'s rows and return `None`. Otherwise the options are
/// checked for a single local run and the input's path is returned, for
/// the command to run and render itself. The job options — flow config,
/// `kind` and the `--deadline-ms`/`--max-nodes` limits — are parsed once
/// into the daemon's wire options, whatever runs the jobs.
fn dispatch_jobs<'a>(
    a: &'a Args,
    cmd: &str,
    config: &FlowConfig,
    kind: &JobKind,
    out: &mut dyn Write,
) -> Result<Option<&'a str>, CliError> {
    let usage = |m: &str| CliError::Usage(format!("{cmd}: {m}"));
    apply_workers_override(a, cmd)?;
    let (batch, sock) = (a.option("batch"), a.option("daemon"));
    let fail_fast = a.flag("fail-fast");
    let input = || a.positional(0).ok_or_else(|| usage("missing <input> file"));
    if batch.is_none() && (a.flag("keep-going") || fail_fast) {
        return Err(usage("--keep-going/--fail-fast only apply to --batch"));
    }
    if batch.is_none()
        && sock.is_none()
        && (a.option("deadline-ms").is_some() || a.option("max-nodes").is_some())
    {
        return Err(usage("--deadline-ms/--max-nodes only apply to --batch"));
    }
    if batch.is_some() {
        if a.positional(0).is_some() {
            return Err(usage("--batch <dir> takes no positional input"));
        }
        if a.flag("keep-going") && fail_fast {
            return Err(usage("--keep-going and --fail-fast are mutually exclusive"));
        }
        if sock.is_some() && fail_fast {
            return Err(usage(
                "--fail-fast does not combine with --daemon (the daemon keeps going)",
            ));
        }
    }
    let options = DaemonFlowOptions {
        phases: config.phases,
        use_t1: config.use_t1,
        engine: config.engine,
        gain_threshold: config.gain_threshold,
        verify: matches!(kind, JobKind::Verify(_)),
        deadline_ms: a
            .option("deadline-ms")
            .map(|_| a.parsed_option("deadline-ms", 0))
            .transpose()?,
        max_nodes: a
            .option("max-nodes")
            .map(|_| a.parsed_option("max-nodes", 0))
            .transpose()?,
    };
    let (sock, designs) = match (batch, sock) {
        (None, None) => return input().map(Some),
        (Some(dir), None) => {
            cmd_batch(dir, config, kind, &options.limits(), fail_fast, out)?;
            return Ok(None);
        }
        (Some(dir), Some(sock)) => {
            let designs = daemon_batch_sources(dir)?;
            writeln!(out, "daemon batch: {} designs via {sock}", designs.len())
                .map_err(io_err("<stdout>"))?;
            (sock, designs)
        }
        (None, Some(sock)) => (sock, vec![inline_source(input()?)?]),
    };
    writeln!(out, "{}", kind.header()).map_err(io_err("<stdout>"))?;
    stream_daemon_flow(sock, FlowRequest { options, designs }, out)?;
    Ok(None)
}

fn run_configured_flow(aig: &Aig, config: &FlowConfig) -> Result<FlowResult, CliError> {
    run_flow(aig, config).map_err(|e| CliError::Flow(e.to_string()))
}

/// Deterministic pseudo-random operand waves (`xorshift*`).
fn random_waves(inputs: usize, count: usize) -> Vec<Vec<bool>> {
    let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..count)
        .map(|_| (0..inputs).map(|_| next() & 1 == 1).collect())
        .collect()
}

fn write_report(out: &mut dyn Write, res: &FlowResult) -> Result<(), CliError> {
    let r = &res.report;
    writeln!(out, "design       {}", r.name).map_err(io_err("<stdout>"))?;
    writeln!(out, "phases       {}", r.phases).map_err(io_err("<stdout>"))?;
    writeln!(out, "t1 found     {}", r.t1_found).map_err(io_err("<stdout>"))?;
    writeln!(out, "t1 used      {}", r.t1_used).map_err(io_err("<stdout>"))?;
    writeln!(out, "logic cells  {}", r.num_gates).map_err(io_err("<stdout>"))?;
    writeln!(out, "dffs         {}", r.num_dffs).map_err(io_err("<stdout>"))?;
    writeln!(out, "area (JJ)    {}", r.area).map_err(io_err("<stdout>"))?;
    writeln!(out, "depth        {} cycles", r.depth_cycles).map_err(io_err("<stdout>"))?;
    Ok(())
}

fn cmd_flow(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(
        argv,
        &[
            "phases",
            "engine",
            "gain-threshold",
            "waves",
            "batch",
            "daemon",
            "deadline-ms",
            "max-nodes",
            "workers",
            "blif",
            "dot",
            "vcd",
            "verilog",
        ],
        &["t1", "stats", "keep-going", "fail-fast"],
    )?;
    let per_design = ["blif", "dot", "vcd", "verilog", "waves"]
        .iter()
        .any(|t| a.option(t).is_some())
        || a.flag("stats");
    for mode in ["batch", "daemon"] {
        if per_design && a.option(mode).is_some() {
            return Err(CliError::Usage(format!(
                "flow: per-design artifact/report options do not combine with --{mode}"
            )));
        }
    }
    let config = flow_config(&a)?; // validate options before touching files
    let Some(path) = dispatch_jobs(&a, "flow", &config, &JobKind::Flow, out)? else {
        return Ok(());
    };
    let aig = read_design(path)?;
    let res = run_configured_flow(&aig, &config)?;
    write_report(out, &res)?;
    if a.flag("stats") {
        writeln!(out, "\n{}", StageReport::summarize(&res.timed)).map_err(io_err("<stdout>"))?;
    }

    if let Some(p) = a.option("blif") {
        std::fs::write(p, export::render_blif(&res.timed.network)).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    if let Some(p) = a.option("dot") {
        let dot = export::render_dot(&res.timed.network, Some(&res.timed.stages));
        std::fs::write(p, dot).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    if let Some(p) = a.option("verilog") {
        std::fs::write(p, export::render_verilog(&res.timed.network)).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    if let Some(p) = a.option("vcd") {
        let waves = random_waves(aig.num_inputs(), a.parsed_option("waves", 8usize)?);
        let (_, trace) = PulseSim::new(&res.timed)
            .run_traced(&waves)
            .map_err(|e| CliError::Flow(e.to_string()))?;
        std::fs::write(p, vcd::render_vcd(&res.timed, &trace)).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    Ok(())
}

/// Maps a directory-listing failure onto the CLI's error type.
fn dir_err(e: DesignError) -> CliError {
    match e {
        DesignError::Io { path, source } => CliError::Io { path, source },
        other => CliError::Input(other.to_string()),
    }
}

/// `sfqt1 flow|verify --batch <dir>`: every design of a directory as one
/// `kind` row each, with graceful degradation.
///
/// Designs are ingested sequentially through the shared fault-tolerant
/// [`design::load_dir_results`](sfq_netlist::design::load_dir_results)
/// path (only a missing/unlistable directory, or one with no design files
/// at all, is an error here — unparseable files become `FAILED` rows). The
/// batch then runs on the shared streaming job engine
/// ([`sfq_server::jobs`]): the supervised jobs fan over
/// [`par::workers`](sfq_netlist::par::workers) scoped threads, and each row
/// **prints as soon as it is unblocked, in input order** — the first rows of
/// a long batch appear while later designs still run, and the table stays
/// byte-identical for any worker count (failure reasons are deterministic
/// strings).
///
/// Containment policy (owned by the engine): a design that fails —
/// unparseable, flow or verification error, panic, deadline or node-budget
/// abort — renders as a `FAILED(<reason>)` row. A panicked design is not
/// retried: a design runs on one thread, so a rerun would panic
/// identically. Without `fail_fast` (`--keep-going`, the default) every
/// design runs; `--fail-fast` stops the output at the first failed row.
/// Either way the run ends with a `batch summary:` line, and any failure
/// surfaces as [`CliError::Partial`] (exit code 2).
fn cmd_batch(
    dir: &str,
    config: &FlowConfig,
    kind: &JobKind,
    limits: &Limits,
    fail_fast: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (entries, cache_hits) =
        sfq_netlist::design::load_dir_results(Path::new(dir)).map_err(dir_err)?;
    if entries.is_empty() {
        return Err(CliError::Usage(format!(
            "flow: no .aag/.blif designs in `{dir}`"
        )));
    }
    writeln!(
        out,
        "batch: {} designs ({} parsed, {} cache hits)",
        entries.len(),
        entries.len() - cache_hits,
        cache_hits
    )
    .map_err(io_err("<stdout>"))?;
    writeln!(out, "{}", kind.header()).map_err(io_err("<stdout>"))?;
    let jobs: Vec<JobEntry> = entries
        .into_iter()
        .map(|(name, design)| JobEntry {
            name,
            design: design.map_err(|e| e.to_string()),
        })
        .collect();
    // The engine emits rows from worker threads; `out` is not `Send`, so
    // rows cross back over a channel and print on this thread — still one
    // row at a time, as each finishes.
    let (tx, rx) = std::sync::mpsc::channel::<JobRow>();
    let (mut ok, mut failed) = (0usize, 0usize);
    let mut stopped = false;
    let mut write_err: Option<std::io::Error> = None;
    std::thread::scope(|scope| {
        let engine = sfq_netlist::sync::spawn_scoped(scope, move || {
            run_jobs_streamed(&jobs, config, kind, limits, |row| {
                // A dropped receiver (fail-fast caller gone) is harmless:
                // remaining rows are computed and discarded.
                let _ = tx.send(row);
            });
        });
        for row in rx {
            if stopped || write_err.is_some() {
                continue; // keep draining; the jobs ran either way
            }
            if let Err(e) = writeln!(out, "{}", row.line) {
                write_err = Some(e);
                continue;
            }
            if row.is_ok() {
                ok += 1;
            } else {
                failed += 1;
                if fail_fast {
                    if let Err(e) = writeln!(out, "batch: stopping at first failure (--fail-fast)")
                    {
                        write_err = Some(e);
                    }
                    stopped = true;
                }
            }
        }
        engine
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    });
    if let Some(source) = write_err {
        return Err(CliError::Io {
            path: "<stdout>".to_string(),
            source,
        });
    }
    writeln!(out, "batch summary: {ok} ok, {failed} failed").map_err(io_err("<stdout>"))?;
    if failed > 0 {
        return Err(CliError::Partial { ok, failed });
    }
    Ok(())
}

/// The designs of `--batch <dir> --daemon`, submitted **by path** (daemon
/// and client share a filesystem), absolute so the daemon's working
/// directory does not matter.
fn daemon_batch_sources(dir: &str) -> Result<Vec<DesignSource>, CliError> {
    let paths = sfq_netlist::design::list_dir(Path::new(dir)).map_err(dir_err)?;
    if paths.is_empty() {
        return Err(CliError::Usage(format!(
            "flow: no .aag/.blif designs in `{dir}`"
        )));
    }
    Ok(paths
        .iter()
        .map(|p| {
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("design")
                .to_string();
            let path = p.canonicalize().unwrap_or_else(|_| p.clone());
            DesignSource::Path { name, path }
        })
        .collect())
}

/// The one design of `<input> --daemon`, submitted **inline** (the daemon
/// never touches the client's file).
fn inline_source(path: &str) -> Result<DesignSource, CliError> {
    check_input_format(path)?;
    let content = std::fs::read_to_string(path).map_err(io_err(path))?;
    let name = Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("design")
        .to_string();
    Ok(DesignSource::Inline { name, content })
}

/// Runs one daemon `FLOW` request, printing rows as they stream in, then
/// applies the batch summary/exit-code contract to the daemon's totals.
fn stream_daemon_flow(
    sock: &str,
    request: FlowRequest,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut write_err: Option<std::io::Error> = None;
    let (ok, failed) = sfq_server::client::flow(Path::new(sock), &request, |_, row| {
        if write_err.is_none() {
            if let Err(e) = writeln!(out, "{row}") {
                write_err = Some(e);
            }
        }
    })
    .map_err(|e| CliError::Flow(e.to_string()))?;
    if let Some(source) = write_err {
        return Err(CliError::Io {
            path: "<stdout>".to_string(),
            source,
        });
    }
    writeln!(out, "batch summary: {ok} ok, {failed} failed").map_err(io_err("<stdout>"))?;
    if failed > 0 {
        return Err(CliError::Partial { ok, failed });
    }
    Ok(())
}

/// Sweep/margin knobs of `sfqt1 verify` (`--waves`/`--seed` steer the
/// equivalence sweep, `--jitter`/`--period`/`--trials` the margin run).
fn verify_options(a: &Args) -> Result<VerifyOptions, CliError> {
    let ed = EquivConfig::default();
    let md = MarginConfig::default();
    Ok(VerifyOptions {
        equiv: EquivConfig {
            random_waves: a.parsed_option("waves", ed.random_waves)?,
            seed: a.parsed_option("seed", ed.seed)?,
            ..ed
        },
        margin: MarginConfig {
            period_ps: a.parsed_option("period", md.period_ps)?,
            jitter_ps: a.parsed_option("jitter", md.jitter_ps)?,
            trials: a.parsed_option("trials", md.trials)?,
            ..md
        },
    })
}

/// `sfqt1 verify` — the flow plus its pulse-level verification gate:
/// equivalence sweep against the original AIG (mismatches shrunk to a
/// minimal stimulus) and Monte-Carlo margin analysis. Single-design,
/// `--batch` and `--daemon` forms mirror `sfqt1 flow`.
fn cmd_verify(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(
        argv,
        &[
            "phases",
            "engine",
            "gain-threshold",
            "waves",
            "seed",
            "jitter",
            "period",
            "trials",
            "batch",
            "daemon",
            "deadline-ms",
            "max-nodes",
            "workers",
        ],
        &["t1", "keep-going", "fail-fast"],
    )?;
    let sweep_knobs = ["waves", "seed", "jitter", "period", "trials"];
    if a.option("daemon").is_some() && sweep_knobs.iter().any(|t| a.option(t).is_some()) {
        return Err(CliError::Usage(
            "verify: the daemon runs the default sweep settings (drop --waves/--seed/\
             --jitter/--period/--trials, or verify locally)"
                .into(),
        ));
    }
    let config = t1_default_config(&a)?; // validate options before touching files
    let vopts = verify_options(&a)?;
    let kind = JobKind::Verify(vopts.clone());
    let Some(path) = dispatch_jobs(&a, "verify", &config, &kind, out)? else {
        return Ok(());
    };
    let aig = read_design(path)?;
    let res = run_configured_flow(&aig, &config)?;
    writeln!(out, "design            {}", res.report.name).map_err(io_err("<stdout>"))?;
    match check_against_aig(&aig, &res.timed, &vopts.equiv) {
        Err(e) => {
            writeln!(out, "verdict           FAILED({e})").map_err(io_err("<stdout>"))?;
            Err(CliError::Partial { ok: 0, failed: 1 })
        }
        Ok(report) => {
            let m = analyze_margins(&res.timed, &vopts.margin);
            writeln!(out, "sweep             {}", report.mode).map_err(io_err("<stdout>"))?;
            writeln!(out, "waves             {}", report.waves).map_err(io_err("<stdout>"))?;
            writeln!(out, "t1 cells          {}", m.t1_cells).map_err(io_err("<stdout>"))?;
            writeln!(out, "trials            {}", m.trials).map_err(io_err("<stdout>"))?;
            writeln!(out, "hazard rate       {:.4}", m.hazard_rate())
                .map_err(io_err("<stdout>"))?;
            writeln!(out, "worst separation  {:.3} ps", m.worst_separation_ps)
                .map_err(io_err("<stdout>"))?;
            writeln!(out, "verdict           PASS").map_err(io_err("<stdout>"))?;
            Ok(())
        }
    }
}

/// `sfqt1 daemon <ping|stats|stop> <socket>`: control-plane requests
/// against a running `sfqt1d`.
fn cmd_daemon(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(argv, &[], &[])?;
    let action = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("daemon: missing <ping|stats|stop>".into()))?;
    let sock = a
        .positional(1)
        .ok_or_else(|| CliError::Usage("daemon: missing <socket> path".into()))?;
    let client_err = |e: sfq_server::ClientError| CliError::Flow(e.to_string());
    match action {
        "ping" => {
            sfq_server::client::ping(Path::new(sock)).map_err(client_err)?;
            writeln!(out, "daemon at {sock} is alive").map_err(io_err("<stdout>"))?;
        }
        "stats" => {
            let stats = sfq_server::client::stats(Path::new(sock)).map_err(client_err)?;
            writeln!(out, "{stats}").map_err(io_err("<stdout>"))?;
        }
        "stop" => {
            sfq_server::client::stop(Path::new(sock)).map_err(client_err)?;
            writeln!(out, "daemon at {sock} is stopping").map_err(io_err("<stdout>"))?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "daemon: unknown action `{other}` (expected ping, stats or stop)"
            )));
        }
    }
    Ok(())
}

/// Builds a benchmark by name from the core or extended suite.
fn build_bench(name: &str, small: bool) -> Option<Aig> {
    for b in Benchmark::ALL {
        if b.name() == name {
            return Some(if small { b.build_small() } else { b.build() });
        }
    }
    for b in ExtBenchmark::ALL {
        if b.name() == name {
            return Some(if small { b.build_small() } else { b.build() });
        }
    }
    None
}

fn cmd_bench(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(argv, &["aag", "blif"], &["small"])?;
    let name = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("bench: missing <name> (see bench-list)".into()))?;
    let aig = build_bench(name, a.flag("small")).ok_or_else(|| {
        CliError::Usage(format!(
            "bench: unknown benchmark `{name}` (see bench-list)"
        ))
    })?;
    writeln!(
        out,
        "{}: {} inputs, {} outputs, {} AND nodes, depth {}",
        aig.name(),
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands(),
        aig.depth()
    )
    .map_err(io_err("<stdout>"))?;
    if let Some(p) = a.option("aag") {
        let mut buf = Vec::new();
        aiger::write_aag(&aig, &mut buf).map_err(io_err(p))?;
        std::fs::write(p, buf).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    if let Some(p) = a.option("blif") {
        let net = map_aig(&aig, &Library::default());
        std::fs::write(p, export::render_blif(&net)).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    Ok(())
}

fn cmd_bench_list(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "Table I benchmarks:").map_err(io_err("<stdout>"))?;
    for b in Benchmark::ALL {
        writeln!(out, "  {}", b.name()).map_err(io_err("<stdout>"))?;
    }
    writeln!(out, "extended EPFL arithmetic controls:").map_err(io_err("<stdout>"))?;
    for b in ExtBenchmark::ALL {
        writeln!(out, "  {}", b.name()).map_err(io_err("<stdout>"))?;
    }
    Ok(())
}

fn cmd_energy(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(
        argv,
        &["phases", "engine", "gain-threshold", "waves"],
        &["t1"],
    )?;
    let path = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("energy: missing <input> file".into()))?;
    let config = flow_config(&a)?; // validate options before touching files
    let aig = read_design(path)?;
    let res = run_configured_flow(&aig, &config)?;

    let waves = random_waves(aig.num_inputs(), a.parsed_option("waves", 32usize)?);
    let (_, trace) = PulseSim::new(&res.timed)
        .run_traced(&waves)
        .map_err(|e| CliError::Flow(e.to_string()))?;
    let model = EnergyModel::default();
    let e = measure_energy(&res.timed, &trace, waves.len(), &config.library, &model);
    writeln!(out, "design          {}", res.report.name).map_err(io_err("<stdout>"))?;
    writeln!(out, "area            {} JJ", res.report.area).map_err(io_err("<stdout>"))?;
    writeln!(out, "waves           {}", e.waves).map_err(io_err("<stdout>"))?;
    writeln!(out, "static power    {:.2} µW", e.static_power_uw).map_err(io_err("<stdout>"))?;
    writeln!(
        out,
        "dynamic power   {:.3} µW @ {} GHz",
        e.dynamic_power_uw, model.clock_ghz
    )
    .map_err(io_err("<stdout>"))?;
    writeln!(out, "total power     {:.2} µW", e.total_power_uw).map_err(io_err("<stdout>"))?;
    writeln!(out, "energy per op   {:.1} aJ", e.energy_per_wave_aj).map_err(io_err("<stdout>"))?;
    Ok(())
}

fn cmd_margin(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(
        argv,
        &[
            "phases",
            "engine",
            "gain-threshold",
            "jitter",
            "period",
            "trials",
            "seed",
        ],
        &["t1"],
    )?;
    let path = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("margin: missing <input> file".into()))?;
    let config = t1_default_config(&a)?; // validate options before touching files
    let aig = read_design(path)?;
    let res = run_configured_flow(&aig, &config)?;

    let defaults = MarginConfig::default();
    let cfg = MarginConfig {
        period_ps: a.parsed_option("period", defaults.period_ps)?,
        jitter_ps: a.parsed_option("jitter", defaults.jitter_ps)?,
        trials: a.parsed_option("trials", defaults.trials)?,
        seed: a.parsed_option("seed", defaults.seed)?,
        ..defaults
    };
    let r = analyze_margins(&res.timed, &cfg);
    writeln!(out, "design            {}", res.report.name).map_err(io_err("<stdout>"))?;
    writeln!(out, "t1 cells          {}", r.t1_cells).map_err(io_err("<stdout>"))?;
    writeln!(out, "stage spacing     {:.2} ps", r.stage_spacing_ps).map_err(io_err("<stdout>"))?;
    writeln!(out, "jitter (1σ)       {:.2} ps", cfg.jitter_ps).map_err(io_err("<stdout>"))?;
    writeln!(out, "trials            {}", r.trials).map_err(io_err("<stdout>"))?;
    writeln!(out, "hazard rate       {:.4}", r.hazard_rate()).map_err(io_err("<stdout>"))?;
    writeln!(out, "worst separation  {:.2} ps", r.worst_separation_ps)
        .map_err(io_err("<stdout>"))?;
    writeln!(out, "mean separation   {:.2} ps", r.mean_min_separation_ps)
        .map_err(io_err("<stdout>"))?;
    Ok(())
}

fn cmd_convert(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(argv, &["aag", "blif", "dot", "verilog"], &[])?;
    let path = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("convert: missing <input> file".into()))?;
    let targets = ["aag", "blif", "dot", "verilog"];
    if targets.iter().all(|t| a.option(t).is_none()) {
        return Err(CliError::Usage(
            "convert: give at least one of --aag, --blif, --dot, --verilog".into(),
        ));
    }
    let aig = read_design(path)?;
    if let Some(p) = a.option("aag") {
        let mut buf = Vec::new();
        aiger::write_aag(&aig, &mut buf).map_err(io_err(p))?;
        std::fs::write(p, buf).map_err(io_err(p))?;
        writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
    }
    // BLIF / DOT / Verilog describe mapped netlists; convert via the
    // default library.
    if targets[1..].iter().any(|t| a.option(t).is_some()) {
        let net = map_aig(&aig, &Library::default());
        if let Some(p) = a.option("blif") {
            std::fs::write(p, export::render_blif(&net)).map_err(io_err(p))?;
            writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
        }
        if let Some(p) = a.option("dot") {
            std::fs::write(p, export::render_dot(&net, None)).map_err(io_err(p))?;
            writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
        }
        if let Some(p) = a.option("verilog") {
            std::fs::write(p, export::render_verilog(&net)).map_err(io_err(p))?;
            writeln!(out, "wrote {p}").map_err(io_err("<stdout>"))?;
        }
    }
    Ok(())
}

/// `sfqt1 table <input>` — the Table I protocol (1φ / 4φ / T1) on one file.
fn cmd_table(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let a = Args::parse(argv, &["phases", "engine", "gain-threshold"], &[])?;
    let path = a
        .positional(0)
        .ok_or_else(|| CliError::Usage("table: missing <input> file".into()))?;
    let phases: u8 = a.parsed_option("phases", 4)?;
    if phases < 4 {
        return Err(CliError::Usage(
            "table: --phases must be ≥ 4 (T1 cells need four phases)".into(),
        ));
    }
    let aig = read_design(path)?;

    let mut base = flow_config(&a)?;
    base.phases = phases;
    let single = FlowConfig {
        phases: 1,
        use_t1: false,
        ..base.clone()
    };
    let multi = FlowConfig {
        use_t1: false,
        ..base.clone()
    };
    let t1 = FlowConfig {
        use_t1: true,
        ..base
    };

    let r1 = run_configured_flow(&aig, &single)?.report;
    let rn = run_configured_flow(&aig, &multi)?.report;
    let rt = run_configured_flow(&aig, &t1)?.report;

    writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>7}   (T1 found {} / used {})",
        "flow", "DFFs", "area JJ", "depth", rt.t1_found, rt.t1_used
    )
    .map_err(io_err("<stdout>"))?;
    let multi_label = format!("{phases}φ");
    for (label, r) in [("1φ", &r1), (multi_label.as_str(), &rn), ("T1", &rt)] {
        writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>7}",
            label, r.num_dffs, r.area, r.depth_cycles
        )
        .map_err(io_err("<stdout>"))?;
    }
    writeln!(
        out,
        "T1 vs {phases}φ: DFFs {:.2}, area {:.2}, depth {:.2}",
        rt.num_dffs as f64 / rn.num_dffs.max(1) as f64,
        rt.area as f64 / rn.area as f64,
        f64::from(rt.depth_cycles) / f64::from(rn.depth_cycles.max(1)),
    )
    .map_err(io_err("<stdout>"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_netlist::par;
    use std::path::PathBuf;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run(&argv(args), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sfqt1-cli-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(&["help"]).expect("help runs");
        assert!(text.contains("USAGE"));
        assert!(text.contains("sfqt1 flow"));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        assert!(matches!(run_to_string(&["frob"]), Err(CliError::Usage(_))));
        assert!(matches!(run_to_string(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn bench_list_names_every_benchmark() {
        let text = run_to_string(&["bench-list"]).expect("runs");
        for b in Benchmark::ALL {
            assert!(text.contains(b.name()), "missing {}", b.name());
        }
        for b in ExtBenchmark::ALL {
            assert!(text.contains(b.name()), "missing {}", b.name());
        }
    }

    #[test]
    fn bench_writes_aag_and_flow_consumes_it() {
        let aag = scratch("adder.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        let text =
            run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench runs");
        assert!(text.contains("wrote"));

        let text = run_to_string(&["flow", aag_s, "--t1", "--phases", "4"]).expect("flow runs");
        assert!(text.contains("t1 used"), "{text}");
        assert!(text.contains("area (JJ)"), "{text}");
        let used: usize = text
            .lines()
            .find(|l| l.starts_with("t1 used"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .expect("t1 used line");
        assert!(used > 0, "the small adder commits T1 cells:\n{text}");
        std::fs::remove_file(&aag).ok();
    }

    #[test]
    fn flow_writes_all_artifacts() {
        let aag = scratch("fa.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        let blif = scratch("fa.blif");
        let dot = scratch("fa.dot");
        let vcd = scratch("fa.vcd");
        run_to_string(&[
            "flow",
            aag_s,
            "--t1",
            "--blif",
            blif.to_str().expect("utf8"),
            "--dot",
            dot.to_str().expect("utf8"),
            "--vcd",
            vcd.to_str().expect("utf8"),
            "--waves",
            "4",
        ])
        .expect("flow with artifacts");
        let blif_text = std::fs::read_to_string(&blif).expect("blif written");
        assert!(blif_text.contains(".subckt t1_cell"), "T1 cells exported");
        assert!(std::fs::read_to_string(&dot)
            .expect("dot")
            .starts_with("digraph"));
        assert!(std::fs::read_to_string(&vcd)
            .expect("vcd")
            .contains("$enddefinitions"));
        for p in [aag, blif, dot, vcd] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn blif_input_round_trips_through_convert() {
        let src = scratch("mux.blif");
        std::fs::write(
            &src,
            ".model mux\n.inputs s a b\n.outputs y\n.names s a b y\n11- 1\n0-1 1\n.end\n",
        )
        .expect("write blif");
        let aag = scratch("mux.aag");
        run_to_string(&[
            "convert",
            src.to_str().expect("utf8"),
            "--aag",
            aag.to_str().expect("utf8"),
        ])
        .expect("convert");
        let text = std::fs::read_to_string(&aag).expect("aag written");
        assert!(text.starts_with("aag "));
        let report =
            run_to_string(&["flow", aag.to_str().expect("utf8")]).expect("flow on converted");
        assert!(report.contains("depth"));
        std::fs::remove_file(src).ok();
        std::fs::remove_file(aag).ok();
    }

    #[test]
    fn energy_and_margin_report_on_t1_flows() {
        let aag = scratch("en.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        let text = run_to_string(&["energy", aag_s, "--t1", "--waves", "8"]).expect("energy");
        assert!(text.contains("static power"), "{text}");
        assert!(text.contains("energy per op"), "{text}");

        let text = run_to_string(&["margin", aag_s, "--jitter", "0.5", "--trials", "200"])
            .expect("margin");
        assert!(text.contains("hazard rate"), "{text}");
        assert!(text.contains("t1 cells"), "{text}");
        std::fs::remove_file(aag).ok();
    }

    fn corpus_design(file: &str) -> String {
        format!("{}/../bench/corpus/{file}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn margin_and_verify_keep_the_gain_threshold_on_their_t1_default() {
        let adder = corpus_design("adder8.aag");
        // The default T1 flow commits cells on adder8; a threshold no
        // candidate reaches commits none, with or without --t1.
        let text = run_to_string(&["margin", &adder]).expect("margin");
        assert!(!text.contains("t1 cells          0\n"), "{text}");
        for cmd in ["margin", "verify"] {
            let text = run_to_string(&[cmd, &adder, "--gain-threshold", "1000000"])
                .unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(text.contains("t1 cells          0\n"), "{cmd}:\n{text}");
        }
    }

    #[test]
    fn single_file_commands_accept_uppercase_extensions() {
        let adder = corpus_design("adder8.aag");
        let upper = scratch("ADDER8.AAG");
        std::fs::copy(&adder, &upper).expect("copy adder8");
        let upper_s = upper.to_str().expect("utf8 path");
        let original = run_to_string(&["flow", &adder, "--t1"]).expect("flow");
        let copied = run_to_string(&["flow", upper_s, "--t1"]).expect("flow on ADDER8.AAG");
        assert_eq!(original, copied);
        let converted = scratch("ADDER8-converted.aag");
        for args in [
            vec!["verify", upper_s, "--trials", "50"],
            vec!["energy", upper_s, "--t1", "--waves", "4"],
            vec!["margin", upper_s, "--trials", "50"],
            vec!["table", upper_s],
            vec![
                "convert",
                upper_s,
                "--aag",
                converted.to_str().expect("utf8"),
            ],
        ] {
            run_to_string(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        }
        // Unknown extensions stay a usage error with the same message.
        match run_to_string(&["flow", "x.txt"]) {
            Err(CliError::Usage(m)) => {
                assert_eq!(m, "x.txt: unknown input format (expected .aag or .blif)")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        std::fs::remove_file(upper).ok();
        std::fs::remove_file(converted).ok();
    }

    #[test]
    fn table_compares_three_flows() {
        let aag = scratch("tbl.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        let text = run_to_string(&["table", aag_s]).expect("table runs");
        assert!(text.contains("1φ"), "{text}");
        assert!(text.contains("4φ"), "{text}");
        assert!(text.contains("T1 vs 4φ"), "{text}");
        assert!(
            matches!(
                run_to_string(&["table", aag_s, "--phases", "2"]),
                Err(CliError::Usage(_))
            ),
            "table needs ≥ 4 phases"
        );
        std::fs::remove_file(aag).ok();
    }

    #[test]
    fn flow_and_convert_write_verilog() {
        let aag = scratch("vl.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        let v1 = scratch("vl_flow.v");
        run_to_string(&[
            "flow",
            aag_s,
            "--t1",
            "--verilog",
            v1.to_str().expect("utf8"),
        ])
        .expect("flow --verilog");
        let text = std::fs::read_to_string(&v1).expect("verilog written");
        assert!(text.contains("module SFQ_T1"), "T1 library module exported");
        let v2 = scratch("vl_conv.v");
        run_to_string(&["convert", aag_s, "--verilog", v2.to_str().expect("utf8")])
            .expect("convert --verilog");
        assert!(std::fs::read_to_string(&v2)
            .expect("written")
            .contains("endmodule"));
        for p in [aag, v1, v2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn flow_batch_reports_every_design_in_order() {
        let dir = scratch("batch-dir");
        std::fs::create_dir_all(&dir).expect("batch dir");
        let mux = ".model mux\n.inputs s a b\n.outputs y\n.names s a b y\n11- 1\n0-1 1\n.end\n";
        std::fs::write(dir.join("b_mux.blif"), mux).expect("write blif");
        std::fs::write(dir.join("c_mux_twin.blif"), mux).expect("write twin");
        let aag = dir.join("a_adder.aag");
        run_to_string(&[
            "bench",
            "adder",
            "--small",
            "--aag",
            aag.to_str().expect("utf8"),
        ])
        .expect("bench");
        std::fs::write(dir.join("ignored.txt"), "not a design").expect("write noise");

        let text = run_to_string(&["flow", "--batch", dir.to_str().expect("utf8"), "--t1"])
            .expect("batch runs");
        assert!(
            text.contains("batch: 3 designs (2 parsed, 1 cache hits)"),
            "identical twins parse once:\n{text}"
        );
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(".aag") || l.contains(".blif"))
            .collect();
        assert_eq!(rows.len(), 3, "one row per design:\n{text}");
        assert!(
            rows[0].starts_with("a_adder.aag") && rows[1].starts_with("b_mux.blif"),
            "rows come in file-name order:\n{text}"
        );
        assert!(text.contains("area JJ"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flow_batch_misuse_is_rejected() {
        let dir = scratch("batch-misuse");
        std::fs::create_dir_all(&dir).expect("dir");
        for args in [
            vec!["flow", "--batch", dir.to_str().expect("utf8")], // empty dir
            vec!["flow", "x.aag", "--batch", dir.to_str().expect("utf8")],
            vec![
                "flow",
                "--batch",
                dir.to_str().expect("utf8"),
                "--blif",
                "x",
            ],
            vec!["flow", "--batch", dir.to_str().expect("utf8"), "--stats"],
            vec![
                "flow",
                "--batch",
                dir.to_str().expect("utf8"),
                "--waves",
                "4",
            ],
        ] {
            assert!(
                matches!(run_to_string(&args), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misuse_is_reported_as_usage() {
        for args in [
            vec!["flow"],
            vec!["flow", "x.txt"],
            vec!["flow", "x.aag", "--engine", "quantum"],
            vec!["bench", "nonexistent"],
            vec!["convert", "x.aag"],
            vec!["margin"],
        ] {
            assert!(
                matches!(run_to_string(&args), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let e = run_to_string(&["flow", "/nonexistent/x.aag"]).expect_err("io");
        assert!(matches!(e, CliError::Io { .. }), "{e}");
    }

    // --------------------------------------------- batch degradation ----

    /// Like [`run_to_string`], but also returns the captured output when
    /// `run` errs — batch runs print their rows and summary *before*
    /// reporting partial failure.
    fn run_capture(args: &[&str]) -> (Result<(), CliError>, String) {
        let mut out = Vec::new();
        let result = run(&argv(args), &mut out);
        (result, String::from_utf8(out).expect("utf8 output"))
    }

    fn mux_blif(model: &str) -> String {
        format!(".model {model}\n.inputs s a b\n.outputs y\n.names s a b y\n11- 1\n0-1 1\n.end\n")
    }

    #[test]
    fn exit_codes_distinguish_ok_partial_and_fatal() {
        assert_eq!(exit_code(&Ok(())), 0);
        assert_eq!(exit_code(&Err(CliError::Usage("x".into()))), 1);
        assert_eq!(exit_code(&Err(CliError::Partial { ok: 3, failed: 2 })), 2);
        let io = run_to_string(&["flow", "/nonexistent/x.aag"]).expect_err("io");
        assert_eq!(exit_code(&Err(io)), 1);
    }

    #[test]
    fn partial_failure_reports_its_counts() {
        let e = CliError::Partial { ok: 3, failed: 2 };
        assert_eq!(e.to_string(), "batch: 2 of 5 designs failed");
    }

    #[test]
    fn flow_batch_survives_an_unparseable_design() {
        let dir = scratch("batch-lenient");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a_good.blif"), mux_blif("lenient_a")).expect("write");
        std::fs::write(dir.join("b_broken.aag"), "aag 1 garbage\n").expect("write");
        std::fs::write(dir.join("c_good.blif"), mux_blif("lenient_c")).expect("write");

        let (result, text) = run_capture(&["flow", "--batch", dir.to_str().expect("utf8")]);
        assert!(
            matches!(result, Err(CliError::Partial { ok: 2, failed: 1 })),
            "{result:?}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("a_good.blif") && !l.contains("FAILED")),
            "good design before the broken one still runs:\n{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("b_broken.aag") && l.contains("FAILED(")),
            "broken design renders as a FAILED row:\n{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("c_good.blif") && !l.contains("FAILED")),
            "good design after the broken one still runs:\n{text}"
        );
        assert!(text.contains("batch summary: 2 ok, 1 failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flow_batch_fail_fast_stops_at_the_first_failure() {
        let dir = scratch("batch-failfast");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a_broken.blif"), "not a netlist\n").expect("write");
        std::fs::write(dir.join("b_good.blif"), mux_blif("failfast_b")).expect("write");

        let (result, text) = run_capture(&[
            "flow",
            "--batch",
            dir.to_str().expect("utf8"),
            "--fail-fast",
        ]);
        assert!(
            matches!(result, Err(CliError::Partial { failed: 1, .. })),
            "{result:?}"
        );
        assert!(
            text.contains("batch: stopping at first failure (--fail-fast)"),
            "{text}"
        );
        assert!(
            !text.lines().any(|l| l.starts_with("b_good.blif")),
            "rows after the first failure are not printed:\n{text}"
        );
        assert!(text.contains("batch summary: 0 ok, 1 failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flow_batch_deadline_zero_times_out_every_design() {
        let dir = scratch("batch-deadline");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a.blif"), mux_blif("deadline_a")).expect("write");
        std::fs::write(dir.join("b.blif"), mux_blif("deadline_b")).expect("write");

        let (result, text) = run_capture(&[
            "flow",
            "--batch",
            dir.to_str().expect("utf8"),
            "--deadline-ms",
            "0",
        ]);
        assert!(
            matches!(result, Err(CliError::Partial { ok: 0, failed: 2 })),
            "{result:?}"
        );
        let failed_rows = text
            .lines()
            .filter(|l| l.contains("FAILED(deadline exceeded)"))
            .count();
        assert_eq!(failed_rows, 2, "{text}");
        assert!(text.contains("batch summary: 0 ok, 2 failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flow_batch_node_ceiling_renders_over_budget_rows() {
        let dir = scratch("batch-nodes");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a.blif"), mux_blif("nodes_a")).expect("write");

        let (result, text) = run_capture(&[
            "flow",
            "--batch",
            dir.to_str().expect("utf8"),
            "--max-nodes",
            "1",
        ]);
        assert!(
            matches!(result, Err(CliError::Partial { ok: 0, failed: 1 })),
            "{result:?}"
        );
        assert!(text.contains("FAILED(node budget exceeded)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_only_options_are_rejected_outside_batch() {
        let aag = scratch("nonbatch.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        let dir = scratch("nonbatch-dir");
        std::fs::create_dir_all(&dir).expect("dir");
        for args in [
            vec!["flow", aag_s, "--keep-going"],
            vec!["flow", aag_s, "--fail-fast"],
            vec!["flow", aag_s, "--deadline-ms", "5"],
            vec!["flow", aag_s, "--max-nodes", "100"],
            vec![
                "flow",
                "--batch",
                dir.to_str().expect("utf8"),
                "--keep-going",
                "--fail-fast",
            ],
        ] {
            assert!(
                matches!(run_to_string(&args), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        std::fs::remove_file(aag).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Worker-forcing tests share the process-global override; serialize
    /// them so a concurrent test never observes a half-forced state.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn batch_output_is_identical_sequential_and_parallel() {
        let dir = scratch("batch-seqpar");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a.blif"), mux_blif("seqpar_a")).expect("write");
        std::fs::write(dir.join("b_broken.blif"), "garbage\n").expect("write");
        std::fs::write(dir.join("c.blif"), mux_blif("seqpar_c")).expect("write");
        std::fs::write(dir.join("d.blif"), mux_blif("seqpar_d")).expect("write");
        let args = ["flow", "--batch", dir.to_str().expect("utf8"), "--t1"];

        let _guard = FORCE_LOCK.lock().expect("force lock");
        par::force_workers(1);
        let (seq_res, seq_text) = run_capture(&args);
        par::force_workers(4);
        let (par_res, par_text) = run_capture(&args);
        par::force_workers(0);

        assert_eq!(
            seq_text, par_text,
            "batch output (including FAILED rows) is worker-count independent"
        );
        assert!(matches!(
            seq_res,
            Err(CliError::Partial { ok: 3, failed: 1 })
        ));
        assert!(matches!(
            par_res,
            Err(CliError::Partial { ok: 3, failed: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workers_flag_forces_the_count_and_rejects_bad_values() {
        let dir = scratch("batch-workersflag");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a.blif"), mux_blif("workersflag_a")).expect("write");
        std::fs::write(dir.join("b.blif"), mux_blif("workersflag_b")).expect("write");
        let dir_s = dir.to_str().expect("utf8");
        let aag = scratch("workersflag.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");

        let _guard = FORCE_LOCK.lock().expect("force lock");
        let baseline = run_to_string(&["flow", "--batch", dir_s, "--t1"]).expect("batch");
        let forced =
            run_to_string(&["flow", "--batch", dir_s, "--t1", "--workers", "3"]).expect("batch");
        assert_eq!(par::workers(), 3, "--workers installs the override");
        par::force_workers(0);
        assert_eq!(baseline, forced, "table is worker-count independent");

        let before = par::workers();
        // A count that differs from the current one, so an installed
        // override would show.
        let other = (before % par::MAX_WORKERS + 1).to_string();
        for args in [
            vec!["flow", "--batch", dir_s, "--workers", "0"],
            vec!["flow", "--batch", dir_s, "--workers", "three"],
            vec![
                "flow",
                "--batch",
                dir_s,
                "--workers",
                &other,
                "--daemon",
                "unused.sock",
            ],
            vec!["verify", "--batch", dir_s, "--workers", "0"],
            vec!["flow", aag_s, "--t1", "--workers", &other],
            vec!["verify", aag_s, "--workers", &other],
        ] {
            assert!(
                matches!(run_to_string(&args), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        assert_eq!(
            par::workers(),
            before,
            "rejected --workers values must not install an override"
        );
        std::fs::remove_file(aag).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The acceptance scenario: a poisoned batch (one parse failure, one
    /// injected panic, one deadline overrun) completes the remaining
    /// designs with rows byte-identical to the clean run, prints the
    /// summary, and maps to exit code 2.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn poisoned_batch_degrades_gracefully_with_identical_surviving_rows() {
        use sfq_netlist::faultpt::{arm, disarm, FaultAction};

        let dir = scratch("batch-poison");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a_one.blif"), mux_blif("poison_a")).expect("write");
        std::fs::write(dir.join("b_two.blif"), mux_blif("poison_b")).expect("write");
        std::fs::write(dir.join("c_three.blif"), mux_blif("poison_c")).expect("write");
        std::fs::write(dir.join("d_four.blif"), mux_blif("poison_d")).expect("write");
        std::fs::write(dir.join("e_broken.blif"), "garbage\n").expect("write");
        let dir_s = dir.to_str().expect("utf8");

        let (clean_res, clean_text) = run_capture(&["flow", "--batch", dir_s, "--t1"]);
        assert!(
            matches!(clean_res, Err(CliError::Partial { ok: 4, failed: 1 })),
            "only the broken file fails the clean run: {clean_res:?}"
        );

        // Unlimited arming: the flow fans nothing out, so the poisoned
        // design panics once at any worker count and rows stay identical.
        arm("flow.detect", Some("poison_a"), FaultAction::Panic);
        arm("flow.phase", Some("poison_b"), FaultAction::Delay(60_000));
        let (poison_res, poison_text) =
            run_capture(&["flow", "--batch", dir_s, "--t1", "--deadline-ms", "2000"]);
        disarm("flow.detect", Some("poison_a"));
        disarm("flow.phase", Some("poison_b"));

        assert!(
            matches!(poison_res, Err(CliError::Partial { ok: 2, failed: 3 })),
            "{poison_res:?}"
        );
        assert_eq!(exit_code(&poison_res), 2);
        let row = |text: &str, file: &str| -> String {
            text.lines()
                .find(|l| l.starts_with(file))
                .unwrap_or_else(|| panic!("row for {file} in:\n{text}"))
                .to_string()
        };
        assert!(
            row(&poison_text, "a_one.blif")
                .contains("FAILED(panicked: injected panic at flow.detect)"),
            "{poison_text}"
        );
        assert!(
            row(&poison_text, "b_two.blif").contains("FAILED(deadline exceeded)"),
            "{poison_text}"
        );
        for survivor in ["c_three.blif", "d_four.blif", "e_broken.blif"] {
            assert_eq!(
                row(&clean_text, survivor),
                row(&poison_text, survivor),
                "surviving rows are byte-identical to the clean run"
            );
        }
        assert!(
            poison_text.contains("batch summary: 2 ok, 3 failed"),
            "{poison_text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // --------------------------------------------------------- verify ----

    #[test]
    fn verify_passes_and_reports_the_sweep() {
        let aag = scratch("verify.aag");
        let aag_s = aag.to_str().expect("utf8 path");
        run_to_string(&["bench", "adder", "--small", "--aag", aag_s]).expect("bench");
        // No --t1/--phases: verify defaults to the T1 flow on 4 phases.
        let text = run_to_string(&["verify", aag_s, "--trials", "200"]).expect("verify passes");
        // The small adder has 32 inputs — above the exhaustive threshold.
        assert!(text.contains("sweep             sampled"), "{text}");
        assert!(text.contains("verdict           PASS"), "{text}");
        assert!(text.contains("hazard rate"), "{text}");
        std::fs::remove_file(aag).ok();
    }

    #[test]
    fn verify_batch_renders_verify_rows() {
        let dir = scratch("verify-batch");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a.blif"), mux_blif("verify_a")).expect("write");
        std::fs::write(dir.join("b_broken.aag"), "aag 1 garbage\n").expect("write");
        std::fs::write(dir.join("c.blif"), mux_blif("verify_c")).expect("write");

        let (result, text) = run_capture(&["verify", "--batch", dir.to_str().expect("utf8")]);
        assert!(
            matches!(result, Err(CliError::Partial { ok: 2, failed: 1 })),
            "{result:?}"
        );
        assert!(text.contains("sweep"), "verify header present:\n{text}");
        assert!(
            text.lines()
                .any(|l| l.starts_with("a.blif") && l.contains("exhaustive")),
            "3-input mux sweeps exhaustively:\n{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("b_broken.aag") && l.contains("FAILED(")),
            "{text}"
        );
        assert!(text.contains("batch summary: 2 ok, 1 failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_misuse_is_rejected() {
        let dir = scratch("verify-misuse");
        std::fs::create_dir_all(&dir).expect("dir");
        let dir_s = dir.to_str().expect("utf8");
        for args in [
            vec!["verify"],
            vec!["verify", "x.aag", "--fail-fast"],
            vec!["verify", "x.aag", "--deadline-ms", "5"],
            vec!["verify", "x.aag", "--batch", dir_s],
            vec!["verify", "--batch", dir_s, "--keep-going", "--fail-fast"],
            // The daemon runs the default sweep settings only.
            vec![
                "verify",
                "x.aag",
                "--daemon",
                "/tmp/x.sock",
                "--trials",
                "7",
            ],
            vec![
                "verify",
                "--batch",
                dir_s,
                "--daemon",
                "/tmp/x.sock",
                "--waves",
                "9",
            ],
        ] {
            assert!(
                matches!(run_to_string(&args), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The verification acceptance scenario: an injected pulse mismatch is
    /// caught, shrunk to a minimal counterexample rendered inside the
    /// `FAILED(...)` row, and mapped to exit code 2 — while every other
    /// design's row stays byte-identical to the clean run.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_mismatch_is_caught_and_shrunk() {
        use sfq_netlist::faultpt::{arm, disarm, FaultAction};

        let dir = scratch("verify-mismatch");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("a_one.blif"), mux_blif("vmx_a")).expect("write");
        std::fs::write(dir.join("b_two.blif"), mux_blif("vmx_b")).expect("write");
        let dir_s = dir.to_str().expect("utf8");

        let (clean_res, clean_text) = run_capture(&["verify", "--batch", dir_s]);
        assert!(clean_res.is_ok(), "clean batch verifies: {clean_res:?}");

        arm("verify.equiv", Some("vmx_a"), FaultAction::Err);
        let (res, text) = run_capture(&["verify", "--batch", dir_s]);
        disarm("verify.equiv", Some("vmx_a"));

        assert!(
            matches!(res, Err(CliError::Partial { ok: 1, failed: 1 })),
            "{res:?}"
        );
        assert_eq!(exit_code(&res), 2);
        let row = text
            .lines()
            .find(|l| l.starts_with("a_one.blif"))
            .expect("poisoned row");
        assert!(
            row.contains("FAILED(pulse mismatch:") && row.contains("minimal stimulus"),
            "shrunk counterexample in the row: {row}"
        );
        let clean_row = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("b_two.blif"))
                .map(str::to_string)
        };
        assert_eq!(
            clean_row(&clean_text),
            clean_row(&text),
            "untouched design's row is byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
