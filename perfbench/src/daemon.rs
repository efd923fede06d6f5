//! The `daemon-corpus` workload: an in-process `sfq_server::serve` on a
//! Unix socket in the run directory, driven over that socket through
//! `sfq_server::client` by closed-loop clients, one corpus design per
//! `FLOW t1=1 verify=1` request.

use crate::cases::{corpus_cases, corpus_format, golden_rows, Case, CrossCheck, CORPUS};
use crate::flows::warm_up;
use crate::host::process_cpu;
use crate::report::{Report, Timings};
use crate::stats::{median, ms, Rng};
use crate::trace::{SpanId, Tracer};
use sfq_core::TimedNetwork;
use sfq_netlist::Design;
use sfq_server::protocol::{read_request, write_request};
use sfq_server::{client, serve, DesignSource, FlowOptions, FlowRequest, Request, ServerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Clients of the timed run. One, so that the process CPU time spent
/// during a request is that request's cost.
const TIMED_CLIENTS: usize = 1;

/// Concurrent clients of the traced run's closed loop (the host's `nproc`),
/// which exercises the shared cache and the handler pool.
const TRACE_CLIENTS: usize = 2;

/// Pings per traced run (`server.ping_ms_p50` needs ≥ 20).
const PINGS: usize = 40;

/// Round trips per traced run for `protocol.us` and `ingest.us`.
const CODEC_REPS: usize = 60;

/// Serves a daemon from a scoped thread of this process for the length of
/// `f`, which gets its socket once it answers `PING`; then stops it with
/// `STOP` and joins it. The daemon runs the default `ServerConfig` except
/// that it handles no signals (it shares this process) and has an idle
/// timeout, so its thread ends even if `STOP` cannot reach it. Returns
/// `None` when the daemon never came up.
fn with_daemon<T>(
    run_dir: &Path,
    tag: &str,
    report: &mut Report,
    f: impl FnOnce(&Path, &mut Report) -> T,
) -> Option<T> {
    let socket = run_dir.join(format!("sfqt1d-{}-{tag}.sock", std::process::id()));
    let mut config = ServerConfig::new(&socket);
    config.handle_signals = false;
    config.idle_timeout = Some(Duration::from_secs(20));
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&config));
        let deadline = Instant::now() + Duration::from_secs(20);
        let up = loop {
            match client::ping(&socket) {
                Ok(()) => break Ok(()),
                Err(e) if server.is_finished() || Instant::now() > deadline => {
                    break Err(format!("daemon did not answer PING: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let out = match up {
            Ok(()) => Some(f(&socket, report)),
            Err(e) => {
                report.check(false, || e);
                None
            }
        };
        let stopped = match client::stop(&socket) {
            Ok(()) => Ok(()),
            Err(_) if server.is_finished() => Ok(()),
            Err(e) => Err(format!("STOP: {e}")),
        };
        let served = match server.join() {
            Ok(r) => r.map_err(|e| format!("serve: {e}")),
            Err(_) => Err("the serving thread panicked".to_string()),
        };
        let result = stopped.and(served);
        report.check(result.is_ok(), || result.clone().unwrap_err());
        out
    })
}

/// One `FLOW t1=1 verify=1` request carrying corpus design `d` inline.
fn flow_request(d: usize) -> FlowRequest {
    let (name, content) = CORPUS[d];
    FlowRequest {
        options: FlowOptions {
            use_t1: true,
            verify: true,
            ..FlowOptions::default()
        },
        designs: vec![DesignSource::Inline {
            name: name.to_string(),
            content: content.to_string(),
        }],
    }
}

/// Sends corpus design `d` and returns its single result row.
fn request(socket: &Path, d: usize) -> Result<String, String> {
    let mut rows = Vec::new();
    let (ok, failed) = client::flow(socket, &flow_request(d), |_, row| {
        rows.push(row.to_string())
    })
    .map_err(|e| e.to_string())?;
    match rows.pop() {
        Some(row) if rows.is_empty() && (ok, failed) == (1, 0) => Ok(row),
        row => Err(format!("END ok={ok} failed={failed}, row {row:?}")),
    }
}

fn check_row(report: &mut Report, golden: &[String], d: usize, row: &Result<String, String>) {
    report.check(row.as_ref().is_ok_and(|r| *r == golden[d]), || {
        format!("{}: row {row:?} != golden {:?}", CORPUS[d].0, golden[d])
    });
}

/// One request as a client saw it.
struct Sample {
    client: usize,
    design: usize,
    start: Instant,
    end: Instant,
    /// Process CPU time spent during the request; attributable to it only
    /// when a single client runs.
    cpu_ms: f64,
    row: Result<String, String>,
}

struct LoopRun {
    samples: Vec<Sample>,
    /// `(wall ms, cpu ms)` per completed client pass.
    passes: Vec<(f64, f64)>,
    wall: Duration,
    cpu: Duration,
}

/// Pass `k` visits the corpus in one seeded order shared by all clients;
/// each client enters that order at its own seeded offset.
fn client_loop(
    socket: &Path,
    client: usize,
    seed: u64,
    start: Instant,
    seconds: f64,
) -> (Vec<Sample>, Vec<(f64, f64)>) {
    let n = CORPUS.len();
    let offset = Rng::new(seed).fork(client as u64 + 1).below(n);
    let (mut samples, mut passes) = (Vec::new(), Vec::new());
    for k in 0u64.. {
        if !passes.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut order: Vec<usize> = (0..n).collect();
        Rng::new(seed).fork(1000 + k).shuffle(&mut order);
        order.rotate_left(offset);
        let pass = (Instant::now(), process_cpu());
        for d in order {
            let (t, cpu) = (Instant::now(), process_cpu());
            let row = request(socket, d);
            samples.push(Sample {
                client,
                design: d,
                start: t,
                end: Instant::now(),
                cpu_ms: ms(process_cpu() - cpu),
                row,
            });
        }
        passes.push((ms(pass.0.elapsed()), ms(process_cpu() - pass.1)));
    }
    (samples, passes)
}

fn closed_loop(socket: &Path, seed: u64, seconds: f64, clients: usize) -> LoopRun {
    let (start, cpu) = (Instant::now(), process_cpu());
    let parts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client_loop(socket, c, seed, start, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client loops contain their errors"))
            .collect()
    });
    let (wall, cpu) = (start.elapsed(), process_cpu() - cpu);
    let (mut samples, mut passes) = (Vec::new(), Vec::new());
    for (s, p) in parts {
        samples.extend(s);
        passes.extend(p);
    }
    LoopRun {
        samples,
        passes,
        wall,
        cpu,
    }
}

/// Each corpus design through `run_flow` under the request's
/// configuration: the quality-of-result numbers of the served corpus and
/// the networks the pulse-level layers replay.
pub fn corpus_flows(
    cross: &mut CrossCheck,
    report: &mut Report,
) -> (Vec<(Case, TimedNetwork)>, u64, usize) {
    let cases = corpus_cases();
    let (results, area, dffs) = warm_up(&cases, cross, report);
    let flows = cases
        .into_iter()
        .zip(results)
        .filter_map(|(case, r)| r.map(|r| (case, r.timed)))
        .collect();
    (flows, area, dffs)
}

/// Checks the daemon's own counters once the clients are done.
fn check_stats(socket: &Path, report: &mut Report) -> Option<sfq_server::StatsReply> {
    match client::stats(socket) {
        Ok(s) => {
            report.check(s.failed + s.panicked + s.timed_out == 0, || {
                format!("daemon counters report failures: {s}")
            });
            Some(s)
        }
        Err(e) => {
            report.check(false, || format!("STATS: {e}"));
            None
        }
    }
}

/// Warm-up pass of a fresh daemon: every corpus design once, rows checked.
fn warm_up_pass(socket: &Path, seed: u64, golden: &[String], report: &mut Report) {
    let mut order: Vec<usize> = (0..CORPUS.len()).collect();
    Rng::new(seed).fork(999).shuffle(&mut order);
    for d in order {
        check_row(report, golden, d, &request(socket, d));
    }
}

/// One measuring process of `daemon-corpus`. Its set-up, timed: a fresh
/// daemon answering `PING`, plus a warm-up pass whose rows are checked.
/// Then one closed-loop client for `seconds`.
pub fn measure(seed: u64, seconds: f64, run_dir: &Path, report: &mut Report) -> Timings {
    let golden = golden_rows();
    let setup = Instant::now();
    let run = with_daemon(run_dir, "measure", report, |socket, report| {
        warm_up_pass(socket, seed, &golden, report);
        let setup_s = setup.elapsed().as_secs_f64();
        let run = closed_loop(socket, seed, seconds, TIMED_CLIENTS);
        for s in &run.samples {
            check_row(report, &golden, s.design, &s.row);
        }
        check_stats(socket, report);
        (setup_s, run)
    });
    let Some((setup_s, run)) = run else {
        return Timings::default();
    };
    Timings {
        names: CORPUS.iter().map(|c| c.0.to_string()).collect(),
        setup_s: vec![setup_s],
        requests: run
            .samples
            .iter()
            .map(|s| (s.design, ms(s.end - s.start), s.cpu_ms))
            .collect(),
        passes: run.passes,
        wall_s: run.wall.as_secs_f64(),
        cpu_s: run.cpu.as_secs_f64(),
    }
}

/// The service layers of every traced run: ping, the wire codec, ingest,
/// and a closed loop of corpus requests (one span each) whose cache
/// counters give `cache.hit_ratio`.
pub fn trace_service(
    seed: u64,
    budget: f64,
    run_dir: &Path,
    tr: &mut Tracer,
    root: SpanId,
    report: &mut Report,
) {
    let golden = golden_rows();

    let codec = tr.open("codec", Some(root));
    let (mut protocol_us, mut ingest_us) = (Vec::new(), Vec::new());
    for _ in 0..CODEC_REPS {
        let (mut p, mut g) = (0.0, 0.0);
        for (d, &(name, content)) in CORPUS.iter().enumerate() {
            let request = Request::Flow(flow_request(d));
            let t = Instant::now();
            let mut wire = Vec::new();
            let round_trip = write_request(&mut wire, &request)
                .map_err(|e| e.to_string())
                .and_then(|()| read_request(&mut wire.as_slice()).map_err(|e| e.to_string()));
            p += t.elapsed().as_secs_f64() * 1e6;
            report.check(round_trip.as_ref() == Ok(&request), || {
                format!("{name}: protocol round trip changed the request: {round_trip:?}")
            });
            let (format, stem) = corpus_format(name, content);
            let t = Instant::now();
            let parsed = Design::parse(content, format, &stem);
            g += t.elapsed().as_secs_f64() * 1e6;
            report.check(parsed.is_ok(), || format!("{name}: ingest failed"));
        }
        protocol_us.push(p);
        ingest_us.push(g);
    }
    tr.close(codec);
    report.metric("protocol.us", median(&protocol_us), "us", protocol_us.len());
    report.metric("ingest.us", median(&ingest_us), "us", ingest_us.len());

    with_daemon(run_dir, "trace", report, |socket, report| {
        let mut pings = Vec::new();
        for _ in 0..PINGS {
            let (pong, t) = tr.time("ping", Some(root), || client::ping(socket));
            report.check(pong.is_ok(), || format!("PING: {}", pong.unwrap_err()));
            pings.push(t);
        }
        report.metric("server.ping_ms_p50", median(&pings), "ms", pings.len());

        let loop_span = tr.open("closed_loop", Some(root));
        let run = closed_loop(socket, seed, budget, TRACE_CLIENTS);
        tr.close(loop_span);
        let clients: Vec<SpanId> = (0..TRACE_CLIENTS)
            .map(|c| {
                let mine = run.samples.iter().filter(|s| s.client == c);
                let start = mine.clone().map(|s| s.start).min();
                let end = mine.map(|s| s.end).max();
                match (start, end) {
                    (Some(a), Some(b)) => tr.record(format!("client{c}"), Some(loop_span), a, b),
                    _ => loop_span,
                }
            })
            .collect();
        for s in &run.samples {
            tr.record(
                format!("request:{}", CORPUS[s.design].0),
                Some(clients[s.client]),
                s.start,
                s.end,
            );
            check_row(report, &golden, s.design, &s.row);
        }
        if let Some(stats) = check_stats(socket, report) {
            let lookups = stats.cache.hits + stats.cache.misses;
            report.metric(
                "cache.hit_ratio",
                stats.cache.hits as f64 / lookups.max(1) as f64,
                "ratio",
                lookups,
            );
        }
    });
}
