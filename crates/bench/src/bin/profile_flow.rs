//! Engine comparison probe: heuristic vs exact phase assignment wall-clock
//! on a mapped ripple adder (used to calibrate the `PhaseEngine::Auto`
//! threshold, the size predicate in `TimingEngine::assign`).
use sfq_core::{assign_phases, PhaseEngine};
use sfq_netlist::{map_aig, Library};
use std::time::Instant;

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let aig = sfq_circuits::adder(bits);
    let net = map_aig(&aig, &Library::default());
    println!("adder{bits}: mapped gates = {}", net.num_gates());
    for n in [1u8, 4] {
        let t = Instant::now();
        let h = assign_phases(&net, n, PhaseEngine::Heuristic).expect("feasible");
        println!(
            "heuristic n={n}: {:?} (out stage {})",
            t.elapsed(),
            h.output_stage
        );
        let t = Instant::now();
        let e = assign_phases(&net, n, PhaseEngine::Exact).expect("feasible");
        println!(
            "exact     n={n}: {:?} (out stage {})",
            t.elapsed(),
            e.output_stage
        );
    }
}
