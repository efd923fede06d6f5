//! `perfbench` — the repository benchmark.
//!
//! Drives the public entry points from one process: `sfq_core::run_flow`
//! for the paper workloads, `sfq_server::serve` plus `sfq_server::client`
//! over a Unix socket for the daemon. A timed run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) replays the same inputs
//! through each layer's public function and prints the per-layer metrics.
//! Either way the last line of stdout is one JSON result object. See
//! README.md for the workloads and metrics.

mod cases;
mod daemon;
mod flows;
mod host;
mod json;
mod report;
mod stats;
mod trace;

use cases::{corpus_cases, paper_cases, Column, CrossCheck};
use host::{peak_rss_mb, Host};
use json::Json;
use report::{Report, Timings};
use stats::Rng;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Run directory, relative to the working directory: sockets, run records,
/// span files and the cross-check memory.
const RUN_DIR: &str = ".perfbench";

/// Minimum passes of every traced replay, whatever `--seconds` says.
const MIN_TRACE_PASSES: usize = 3;

/// Fresh processes a timed run's measurement is split across.
const MEASURING_PROCESSES: usize = 5;

const USAGE: &str = "usage: perfbench --workload <paper-t1|paper-baseline|daemon-corpus|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperT1,
    PaperBaseline,
    DaemonCorpus,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperT1,
        Workload::PaperBaseline,
        Workload::DaemonCorpus,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperT1 => "paper-t1",
            Workload::PaperBaseline => "paper-baseline",
            Workload::DaemonCorpus => "daemon-corpus",
        }
    }

    fn columns(self) -> &'static [Column] {
        match self {
            Workload::PaperT1 => &[Column::T1],
            Workload::PaperBaseline => &[Column::SinglePhase, Column::Multiphase],
            Workload::DaemonCorpus => &[],
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only on the measuring processes a timed run starts.
    child: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    let w = Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?;
                    vec![w]
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                }
            }
            "--child" => {
                parsed.child = Some(value.parse().map_err(|_| format!("bad child `{value}`"))?)
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("`--workload` is required".into());
    }
    Ok(parsed)
}

/// The traced run: layer replay under the default configuration, again
/// under `par::force_workers(1)`, then the service layers.
fn traced(w: Workload, args: &Args, host: &Host, run_dir: &Path, report: &mut Report) {
    let s = args.seconds;
    let mut tr = Tracer::new();
    let root = tr.open(format!("run:{}", w.name()), None);
    let mut rng = Rng::new(args.seed);
    let mut cross = CrossCheck::open(run_dir);

    let (corpus, _, _) = daemon::corpus_flows(&mut cross, report);
    let cases = if w == Workload::DaemonCorpus {
        corpus_cases()
    } else {
        let cases = paper_cases(w.columns());
        flows::warm_up(&cases, &mut cross, report);
        cases
    };

    for suffix in ["", "_seq"] {
        sfq_netlist::par::force_workers(if suffix.is_empty() { 0 } else { 1 });
        flows::trace_flows(
            &cases,
            &mut rng,
            0.35 * s,
            MIN_TRACE_PASSES,
            &mut tr,
            root,
            suffix,
            report,
        );
        flows::trace_sim(
            &corpus,
            &mut rng,
            0.075 * s,
            MIN_TRACE_PASSES,
            &mut tr,
            root,
            suffix,
            report,
        );
    }
    sfq_netlist::par::force_workers(0);
    daemon::trace_service(args.seed, 0.15 * s, run_dir, &mut tr, root, report);
    tr.close(root);

    let path = run_dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
    let doc = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("host", host.to_json()),
        ("spans", tr.to_json()),
    ]);
    match std::fs::write(&path, doc.to_string()) {
        Ok(()) => report
            .notes
            .push(format!("trace  spans written to {}", path.display())),
        Err(e) => report.check(false, || format!("{}: {e}", path.display())),
    }
}

/// The timed run: one checked pass in this process, then the set-up and
/// the measurement in `MEASURING_PROCESSES` fresh processes run one after
/// another. The flows' speed differs from process to process by up to
/// ±15 % (probably memory layout), and the host's speed changes in
/// episodes of seconds; pooling several processes spread over the run
/// keeps both out of the run-to-run spread, set-up time included.
fn timed(w: Workload, args: &Args, run_dir: &Path, report: &mut Report) {
    let mut cross = CrossCheck::open(run_dir);
    let (area, dffs) = if w == Workload::DaemonCorpus {
        let (_, area, dffs) = daemon::corpus_flows(&mut cross, report);
        (area, dffs)
    } else {
        let (_, area, dffs) = flows::warm_up(&paper_cases(w.columns()), &mut cross, report);
        (area, dffs)
    };
    let mut t = Timings::default();
    let mut rss = peak_rss_mb();
    for k in 0..MEASURING_PROCESSES {
        match measuring_process(w, args, k) {
            Ok(child) => {
                report.absorb(child.attempted, child.failed, child.problems);
                rss = rss.max(child.peak_rss_mb);
                t.extend(child.timings);
            }
            Err(e) => report.check(false, || format!("measuring process {k}: {e}")),
        }
    }
    if t.passes.is_empty() {
        return;
    }
    let designs = t.names.len();
    report.timings(&t);
    report.metric("area_jj", area as f64, "JJ", designs);
    report.metric("dffs", dffs as f64, "count", designs);
    report.metric("peak_rss_mb", rss, "MiB", MEASURING_PROCESSES + 1);
}

/// What a measuring process hands back on its last stdout line.
struct ChildResult {
    timings: Timings,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    peak_rss_mb: f64,
}

impl ChildResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("timings", self.timings.to_json()),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::str(p.as_str()))
                        .collect(),
                ),
            ),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
        ])
    }

    fn from_json(v: &Json) -> Option<ChildResult> {
        Some(ChildResult {
            timings: Timings::from_json(v.get("timings")?)?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
        })
    }
}

/// Runs measuring process `k` (this executable with `--child k`) to
/// completion and reads its result.
fn measuring_process(w: Workload, args: &Args, k: usize) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let seconds = args.seconds / MEASURING_PROCESSES as f64;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0", "--child", &k.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildResult::from_json)
        .ok_or_else(|| format!("{} and no result", out.status))
}

/// Body of a measuring process: measure, print the raw result, exit.
fn child(w: Workload, args: &Args, k: usize, run_dir: &Path) -> ExitCode {
    let mut report = Report::default();
    let seed = Rng::new(args.seed).fork(k as u64 + 1).next_u64();
    let timings = if w == Workload::DaemonCorpus {
        daemon::measure(seed, args.seconds, run_dir, &mut report)
    } else {
        flows::measure(w.columns(), seed, args.seconds, &mut report)
    };
    let result = ChildResult {
        timings,
        attempted: report.attempted,
        failed: report.failed,
        problems: report.problems,
        peak_rss_mb: peak_rss_mb(),
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

fn run(w: Workload, args: &Args, host: &Host, run_dir: &Path) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(w, args, host, run_dir, &mut report);
    } else {
        timed(w, args, run_dir, &mut report);
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: {RUN_DIR}: {e}");
        return ExitCode::from(2);
    }
    if let (Some(k), [w]) = (args.child, args.workloads.as_slice()) {
        return child(*w, &args, k, &run_dir);
    }
    let host = Host::probe();
    println!("{}", host.summary());

    let mut results = Vec::new();
    for &w in &args.workloads {
        println!(
            "perfbench workload={} seed={} seconds={} trace={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let report = run(w, &args, &host, &run_dir);
        for line in report.lines() {
            println!("{line}");
        }
        let record = Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("host", host.to_json()),
            ("report", report.record_json()),
        ]);
        let path = run_dir.join(format!(
            "run-{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::write(&path, record.to_string()) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
        results.push((w, report));
    }

    let result = if let [(_, only)] = results.as_slice() {
        only.result_json()
    } else {
        // `--workload all`: one line, metrics prefixed by workload.
        let mut all = Report::default();
        for (w, r) in results.iter_mut() {
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.metrics.extend(r.metrics.drain(..).map(|mut m| {
                m.name = format!("{}/{}", w.name(), m.name);
                m
            }));
        }
        all.result_json()
    };
    let correct = result.get("correct") == Some(&Json::Bool(true));
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload paper-t1 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workloads: vec![Workload::PaperT1],
                seed: 7,
                seconds: 10.0,
                trace: true,
                child: None,
            }
        );
        assert_eq!(
            args("--workload all").expect("valid").workloads,
            Workload::ALL
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload paper-t1 --trace 2").is_err());
        assert!(args("--workload paper-t1 --seconds").is_err());
    }

    #[test]
    fn same_seed_same_inputs() {
        // The generators are deterministic and the seed only orders them.
        let names = |cases: Vec<cases::Case>| -> Vec<(String, usize)> {
            cases
                .into_iter()
                .map(|c| (c.name, c.aig.num_ands()))
                .collect()
        };
        assert_eq!(names(corpus_cases()), names(corpus_cases()));
        let order = |seed| {
            let mut v: Vec<usize> = (0..8).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(3), order(3));
    }
}
