//! Scaling probe: per-stage wall-clock on the Table I instances.
//!
//! ```text
//! cargo run -p sfq-bench --release --bin profile_scale             # paper scale, table to stdout
//! cargo run -p sfq-bench --release --bin profile_scale -- --small  # scaled-down instances
//! cargo run -p sfq-bench --release --bin profile_scale -- --json -
//! ```
//!
//! `--json PATH` additionally writes the snapshot as a machine-readable
//! `sfq-t1-flow-profile/v1` object (`-` for stdout, with the human table
//! moving to stderr). The committed `BENCH_flow.json` at the repo root is
//! a **different, wrapping** schema (`sfq-t1-flow-trajectory/v1`): it
//! holds an array of these snapshot objects over time. To record a new
//! perf PR, emit a snapshot with `--json -`, give it a `label`, and
//! append it to that file's `snapshots` array by hand (or with jq) — do
//! **not** point `--json` at `BENCH_flow.json`, which would overwrite the
//! history with a bare snapshot.
//!
//! The benchmarks profile one after another, so no row's stage timings
//! include another row's contention; `"workers"` in the JSON records the
//! resolved worker count (`sfq_netlist::par::workers`), which only the
//! batch drivers use.

use sfq_circuits::Benchmark;
use sfq_core::{assign_phases, detect_t1, insert_dffs, PhaseEngine};
use sfq_netlist::{map_aig, par, CutConfig, Library};
use std::time::{Duration, Instant};

struct ProfileRow {
    name: &'static str,
    aig_ands: usize,
    gates: usize,
    t1_used: usize,
    build: Duration,
    map: Duration,
    detect: Duration,
    phase: Duration,
    dff: Duration,
    dffs: usize,
}

fn profile(bench: Benchmark, small: bool) -> ProfileRow {
    let lib = Library::default();
    let t0 = Instant::now();
    let aig = if small {
        bench.build_small()
    } else {
        bench.build()
    };
    let t_build = t0.elapsed();
    let t0 = Instant::now();
    // Mirror run_flow exactly (map, sweep dead cells, detect) so the
    // t1/dff columns line up with table1's.
    let (mapped, _) = map_aig(&aig, &lib).cleaned();
    let t_map = t0.elapsed();
    let t0 = Instant::now();
    let det = detect_t1(&mapped, &lib, &CutConfig::default());
    let t_det = t0.elapsed();
    let t0 = Instant::now();
    let asg = assign_phases(&det.network, 4, PhaseEngine::Heuristic).expect("feasible");
    let t_phase = t0.elapsed();
    let t0 = Instant::now();
    let timed = insert_dffs(&det.network, &asg, 4).expect("insertable");
    let t_dff = t0.elapsed();
    ProfileRow {
        name: bench.name(),
        aig_ands: aig.num_ands(),
        gates: mapped.num_gates(),
        t1_used: det.used,
        build: t_build,
        map: t_map,
        detect: t_det,
        phase: t_phase,
        dff: t_dff,
        dffs: timed.num_dffs(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn render_json(rows: &[ProfileRow], small: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sfq-t1-flow-profile/v1\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if small { "small" } else { "paper" }
    ));
    out.push_str(&format!("  \"workers\": {},\n", par::workers()));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"aig_ands\": {}, \"gates\": {}, \"t1_used\": {}, \
             \"dffs\": {}, \"stage_ms\": {{\"build\": {:.3}, \"map\": {:.3}, \
             \"detect\": {:.3}, \"phase\": {:.3}, \"dff\": {:.3}}}}}{}\n",
            r.name,
            r.aig_ands,
            r.gates,
            r.t1_used,
            r.dffs,
            ms(r.build),
            ms(r.map),
            ms(r.detect),
            ms(r.phase),
            ms(r.dff),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        match args.get(i + 1) {
            // A following flag is not a path — default to stdout.
            Some(p) if !p.starts_with('-') => p.clone(),
            _ => "-".to_string(),
        }
    });
    // With JSON going to stdout, the human table moves to stderr so the
    // output stays pipeable (`profile_scale --json - | jq ...`).
    let json_on_stdout = json_path.as_deref() == Some("-");

    let rows: Vec<ProfileRow> = Benchmark::ALL.iter().map(|&b| profile(b, small)).collect();

    for r in &rows {
        let line = format!(
            "{:<12} aig={:>6} gates={:>6} t1={:>5} | build {:.1?} map {:.1?} detect {:.1?} phase {:.1?} dff {:.1?} | dffs={}",
            r.name, r.aig_ands, r.gates, r.t1_used,
            r.build, r.map, r.detect, r.phase, r.dff, r.dffs
        );
        if json_on_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    if let Some(path) = json_path {
        let json = render_json(&rows, small);
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(&path, json).expect("write --json output");
            eprintln!("wrote {path}");
        }
    }
}
