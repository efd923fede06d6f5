//! The flow workloads: `paper-t1` and `paper-baseline` timed through
//! `sfq_core::run_flow`, and the traced replay of a flow layer by layer
//! through each layer's public function.

use crate::cases::{paper_cases, pinned, Case, Column, CrossCheck};
use crate::host::process_cpu;
use crate::report::{Report, Timings};
use crate::stats::{median, ms, Rng};
use crate::trace::{SpanId, Tracer};
use sfq_core::{
    detect_t1_with_threshold, run_flow, FlowConfig, FlowError, FlowReport, FlowResult, PhaseEngine,
    TimedNetwork, TimingEngine,
};
use sfq_netlist::{enumerate_cuts, map_aig, Network};
use sfq_sim::{analyze_margins, check_against_aig, EquivConfig, MarginConfig};
use std::collections::BTreeMap;
use std::time::Instant;

fn check_pin(report: &mut Report, case: &Case, r: &FlowReport) {
    if let Some((t1_used, dffs)) = pinned(&case.design, case.column) {
        report.check((r.t1_used, r.num_dffs) == (t1_used, dffs), || {
            format!(
                "{}: t1_used/dffs {}/{} != pinned {t1_used}/{dffs}",
                case.name, r.t1_used, r.num_dffs
            )
        });
    }
}

/// Checks the outputs of a warm-up pass outside any timed window: pinned
/// counts and the pulse-level cross-check. Returns the results with the
/// pass's total area and DFF count.
fn check_warm(
    cases: &[Case],
    results: Vec<Result<FlowResult, FlowError>>,
    cross: &mut CrossCheck,
    report: &mut Report,
) -> (Vec<Option<FlowResult>>, u64, usize) {
    let (mut area, mut dffs) = (0u64, 0usize);
    let checked = cases
        .iter()
        .zip(results)
        .map(|(case, result)| match result {
            Ok(r) => {
                check_pin(report, case, &r.report);
                let verdict = cross.check(&case.aig, &r.timed);
                report.check(verdict.is_ok(), || {
                    format!(
                        "{}: cross-check: {}",
                        case.name,
                        verdict.clone().unwrap_err()
                    )
                });
                area += r.report.area;
                dffs += r.report.num_dffs;
                Some(r)
            }
            Err(e) => {
                report.check(false, || format!("{}: {e}", case.name));
                None
            }
        })
        .collect();
    (checked, area, dffs)
}

/// One untimed pass of `cases` under their default configurations, with
/// its outputs checked (see [`check_warm`]).
pub fn warm_up(
    cases: &[Case],
    cross: &mut CrossCheck,
    report: &mut Report,
) -> (Vec<Option<FlowResult>>, u64, usize) {
    let results = cases
        .iter()
        .map(|c| run_flow(&c.aig, &c.column.config()))
        .collect();
    check_warm(cases, results, cross, report)
}

/// One measuring process of a paper workload. Its set-up, timed: the
/// generators built plus a warm-up pass whose reports every later pass
/// must repeat. Then closed-loop passes for `seconds` with one caller, the
/// design order shuffled in every pass.
pub fn measure(columns: &[Column], seed: u64, seconds: f64, report: &mut Report) -> Timings {
    let setup = Instant::now();
    let cases = paper_cases(columns);
    let configs: Vec<FlowConfig> = cases.iter().map(|c| c.column.config()).collect();
    let expected: Vec<Option<FlowReport>> = cases
        .iter()
        .zip(&configs)
        .map(|(case, config)| match run_flow(&case.aig, config) {
            Ok(r) => {
                check_pin(report, case, &r.report);
                Some(r.report)
            }
            Err(e) => {
                report.check(false, || format!("{}: {e}", case.name));
                None
            }
        })
        .collect();

    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut t = Timings {
        names: cases.iter().map(|c| c.name.clone()).collect(),
        setup_s: vec![setup.elapsed().as_secs_f64()],
        ..Timings::default()
    };
    let (start, cpu_start) = (Instant::now(), process_cpu());
    while t.passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let pass = (Instant::now(), process_cpu());
        for &i in &order {
            let (wall, cpu) = (Instant::now(), process_cpu());
            let result = run_flow(&cases[i].aig, &configs[i]);
            t.requests
                .push((i, ms(wall.elapsed()), ms(process_cpu() - cpu)));
            let got = result.as_ref().ok().map(|r| &r.report);
            report.check(got.is_some() && got == expected[i].as_ref(), || {
                format!("{}: report changed between passes: {got:?}", cases[i].name)
            });
        }
        t.passes
            .push((ms(pass.0.elapsed()), ms(process_cpu() - pass.1)));
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.cpu_s = (process_cpu() - cpu_start).as_secs_f64();
    t
}

/// The flow layers, in pipeline order. `cuts` runs inside `detect` in the
/// real flow, so it is timed separately and left out of the stage sum.
const FLOW_LAYERS: [&str; 9] = [
    "map", "validate", "clean", "cuts", "detect", "phase", "dff", "audit", "equiv",
];

/// Work counts of one pass of the layer replay.
#[derive(Default, Clone, Copy)]
struct Counts {
    cases: usize,
    map_cells: usize,
    cells_removed: usize,
    cuts: usize,
    t1_found: usize,
    t1_used: usize,
    exact: usize,
    dffs: usize,
}

/// The flow's own 4-word check (`run_flow`'s equivalence step), replayed
/// through `Network::simulate` with the same pattern stream.
fn equivalence(a: &Network, b: &Network, words: usize) -> bool {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    (0..words).all(|_| {
        let pats: Vec<u64> = (0..a.num_inputs()).map(|_| next()).collect();
        a.simulate(&pats) == b.simulate(&pats)
    })
}

/// Replays one flow stage by stage, mirroring `run_flow_on_network`, with
/// one span per layer call. With `replay_detect`, cuts and detect run even
/// when the configuration skips them (they then stay out of the stage
/// sum). Returns the stage sum in ms and the timed network.
fn replay(
    tr: &mut Tracer,
    parent: SpanId,
    case: &Case,
    config: &FlowConfig,
    replay_detect: bool,
    times: &mut BTreeMap<&'static str, f64>,
    counts: &mut Counts,
) -> Result<(f64, TimedNetwork), String> {
    let p = Some(parent);
    let mut stage_sum = 0.0;
    let mut add = |layer: &'static str, ms: f64, in_flow: bool| {
        *times.entry(layer).or_default() += ms;
        if in_flow {
            stage_sum += ms;
        }
    };
    let lib = &config.library;
    let (mapped, t) = tr.time("map", p, || map_aig(&case.aig, lib));
    add("map", t, true);
    let (valid, t) = tr.time("validate", p, || mapped.validate());
    add("validate", t, true);
    valid.map_err(|e| format!("validate: {e}"))?;
    let ((clean, removed), t) = tr.time("clean", p, || mapped.cleaned());
    add("clean", t, true);

    let mut subject = None;
    if config.use_t1 || replay_detect {
        let (cuts, t) = tr.time("cuts", p, || enumerate_cuts(&clean, &config.cut_config));
        add("cuts", t, false);
        counts.cuts += cuts.total();
        drop(cuts);
        let (det, t) = tr.time("detect", p, || {
            detect_t1_with_threshold(&clean, lib, &config.cut_config, config.gain_threshold)
        });
        add("detect", t, config.use_t1);
        counts.t1_found += det.found;
        if config.use_t1 && config.phases >= 4 {
            counts.t1_used += det.used;
            subject = Some(det.network);
        }
    }
    let subject = subject.unwrap_or_else(|| clean.clone());

    let (engine, t) = tr.time("phase", p, || {
        let mut engine = TimingEngine::new(&subject, config.phases)?;
        engine.assign(config.engine, config.restarts)?;
        Ok::<_, sfq_core::PhaseError>(engine)
    });
    add("phase", t, true);
    let mut engine = engine.map_err(|e| format!("phase: {e}"))?;
    // `PhaseEngine::Auto` takes the exact MILP path on small subjects
    // (`TimingEngine::assign`'s size predicate, restated here).
    let clocked = subject
        .cell_ids()
        .filter(|&c| subject.kind(c).is_clocked())
        .count();
    if config.engine == PhaseEngine::Auto && clocked <= 40 && engine.num_t1() <= 4 {
        counts.exact += 1;
    }
    let (timed, t) = tr.time("dff", p, || engine.emit());
    add("dff", t, true);
    let (audit, t) = tr.time("audit", p, || timed.audit());
    add("audit", t, true);
    audit.map_err(|e| format!("audit: {e}"))?;
    let (equal, t) = tr.time("equiv", p, || {
        equivalence(&clean, &timed.network, config.equivalence_words)
    });
    add("equiv", t, true);
    if !equal {
        return Err("equivalence check failed".into());
    }

    counts.cases += 1;
    counts.map_cells += mapped.num_cells();
    counts.cells_removed += removed;
    counts.dffs += timed.num_dffs();
    Ok((stage_sum, timed))
}

/// Traced replay of `cases` for at least `budget` and `min_passes`
/// passes: per pass, each case runs once untraced through `run_flow` and
/// once layer by layer. `suffix` is `""` for the default configuration and
/// `"_seq"` under `par::force_workers(1)`.
#[allow(clippy::too_many_arguments)]
pub fn trace_flows(
    cases: &[Case],
    rng: &mut Rng,
    budget: f64,
    min_passes: usize,
    tr: &mut Tracer,
    root: SpanId,
    suffix: &str,
    report: &mut Report,
) {
    // Built after any worker override, so restarts follow it as they do
    // for a user who sets SFQ_WORKERS.
    let configs: Vec<FlowConfig> = cases.iter().map(|c| c.column.config()).collect();
    // Baseline workloads replay detect once per design (on its 4φ case) so
    // that every traced run reports the detect layer.
    let has_t1 = cases.iter().any(|c| c.column == Column::T1);
    let replay_detect: Vec<bool> = cases
        .iter()
        .map(|c| !has_t1 && c.column == Column::Multiphase)
        .collect();

    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut flow_ms = vec![Vec::new(); cases.len()];
    let mut stage_ms = vec![Vec::new(); cases.len()];
    let mut counts = Counts::default();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        rng.shuffle(&mut order);
        let pass_span = tr.open(format!("pass{suffix}"), Some(root));
        let mut times = BTreeMap::new();
        let mut pass_counts = Counts::default();
        for &i in &order {
            let case = &cases[i];
            let span = tr.open(format!("case:{}", case.name), Some(pass_span));
            let (flow, t) = tr.time("run_flow", Some(span), || run_flow(&case.aig, &configs[i]));
            *times.entry("flow").or_default() += t;
            flow_ms[i].push(t);
            let replayed = replay(
                tr,
                span,
                case,
                &configs[i],
                replay_detect[i],
                &mut times,
                &mut pass_counts,
            );
            tr.close(span);
            match (flow, replayed) {
                (Ok(flow), Ok((sum, timed))) => {
                    stage_ms[i].push(sum);
                    check_pin(report, case, &flow.report);
                    report.check(timed.num_dffs() == flow.report.num_dffs, || {
                        format!(
                            "{}: replayed dffs {} != run_flow's {}",
                            case.name,
                            timed.num_dffs(),
                            flow.report.num_dffs
                        )
                    });
                }
                (Err(e), _) => report.check(false, || format!("{}: run_flow: {e}", case.name)),
                (_, Err(e)) => report.check(false, || format!("{}: replay: {e}", case.name)),
            }
        }
        tr.close(pass_span);
        passes.push(times);
        counts = pass_counts;
    }

    let n = passes.len();
    for layer in std::iter::once("flow").chain(FLOW_LAYERS) {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| p.get(layer).copied().unwrap_or(0.0))
            .collect();
        report.metric(format!("{layer}.ms{suffix}"), median(&per_pass), "ms", n);
    }
    if !suffix.is_empty() {
        return;
    }
    report.metric("map.cells", counts.map_cells as f64, "count", counts.cases);
    report.metric(
        "clean.cells_removed",
        counts.cells_removed as f64,
        "count",
        counts.cases,
    );
    report.metric("cuts.count", counts.cuts as f64, "count", counts.cases);
    report.metric(
        "detect.t1_found",
        counts.t1_found as f64,
        "count",
        counts.cases,
    );
    report.metric(
        "detect.t1_used",
        counts.t1_used as f64,
        "count",
        counts.cases,
    );
    report.metric(
        "detect.use_ratio",
        counts.t1_used as f64 / counts.t1_found.max(1) as f64,
        "ratio",
        counts.cases,
    );
    report.metric(
        "phase.exact_share",
        counts.exact as f64 / counts.cases.max(1) as f64,
        "ratio",
        counts.cases,
    );
    report.metric("dff.dffs", counts.dffs as f64, "count", counts.cases);

    // Stage sum over untraced run_flow, per case from medians.
    let (mut stages, mut flows) = (0.0, 0.0);
    for (i, case) in cases.iter().enumerate() {
        let (s, f) = (median(&stage_ms[i]), median(&flow_ms[i]));
        if s.is_finite() && f.is_finite() {
            stages += s;
            flows += f;
            report.notes.push(format!(
                "trace  stage_sum_ratio[{}] = {:.4} ({s:.3} ms / {f:.3} ms)",
                case.name,
                s / f
            ));
        }
    }
    report.metric("trace.stage_sum_ratio", stages / flows, "ratio", n);
}

/// Traced replay of the daemon's verify layers (`check_against_aig`,
/// `analyze_margins`) over finished corpus flows.
#[allow(clippy::too_many_arguments)]
pub fn trace_sim(
    flows: &[(Case, TimedNetwork)],
    rng: &mut Rng,
    budget: f64,
    min_passes: usize,
    tr: &mut Tracer,
    root: SpanId,
    suffix: &str,
    report: &mut Report,
) {
    let (equiv_cfg, margin_cfg) = (EquivConfig::default(), MarginConfig::default());
    let (mut equiv_ms, mut margin_ms) = (Vec::new(), Vec::new());
    let mut waves = 0;
    let mut order: Vec<usize> = (0..flows.len()).collect();
    let start = Instant::now();
    while equiv_ms.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        rng.shuffle(&mut order);
        let pass_span = tr.open(format!("sim_pass{suffix}"), Some(root));
        let (mut e_sum, mut m_sum) = (0.0, 0.0);
        waves = 0;
        for &i in &order {
            let (case, timed) = &flows[i];
            let span = tr.open(format!("verify:{}", case.name), Some(pass_span));
            let (equiv, t) = tr.time("sim.equiv", Some(span), || {
                check_against_aig(&case.aig, timed, &equiv_cfg)
            });
            e_sum += t;
            let (_margin, t) = tr.time("sim.margin", Some(span), || {
                analyze_margins(timed, &margin_cfg)
            });
            m_sum += t;
            tr.close(span);
            match equiv {
                Ok(r) => waves += r.waves,
                Err(e) => report.check(false, || format!("{}: sim.equiv: {e}", case.name)),
            }
        }
        tr.close(pass_span);
        equiv_ms.push(e_sum);
        margin_ms.push(m_sum);
    }
    let n = equiv_ms.len();
    report.metric(format!("sim.equiv_ms{suffix}"), median(&equiv_ms), "ms", n);
    report.metric(
        format!("sim.margin_ms{suffix}"),
        median(&margin_ms),
        "ms",
        n,
    );
    if suffix.is_empty() {
        report.metric("sim.waves", waves as f64, "count", flows.len());
    }
}
