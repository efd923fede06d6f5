//! The flow's stages spawn no worker threads at any worker count: with
//! every [`sfq_netlist::par::map_ordered`] item armed to panic and eight
//! workers forced, `run_flow` still succeeds for each default
//! configuration. A fan-out anywhere in the default flow — cut
//! enumeration, detection, the single phase descent, DFF emission or the
//! equivalence check — would run an item and fire the fault.
//!
//! Its own test binary: the fault arming and the worker override are
//! process-global and must not leak into other tests.
#![cfg(feature = "fault-injection")]

use sfq_core::{run_flow, FlowConfig};
use sfq_netlist::faultpt::{arm, FaultAction};
use sfq_netlist::{par, Aig};

fn ripple_adder_aig(bits: usize) -> Aig {
    let mut aig = Aig::new(format!("add{bits}"));
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let mut carry = aig.const_false();
    let mut sums = Vec::new();
    for i in 0..bits {
        let (s, c) = aig.full_adder(a[i], b[i], carry);
        sums.push(s);
        carry = c;
    }
    sums.push(carry);
    aig.output_word("s", &sums);
    aig
}

#[test]
fn default_flows_spawn_no_fan_out_at_eight_workers() {
    let aig = ripple_adder_aig(64);
    arm("par.item", None, FaultAction::Panic);
    par::force_workers(8);
    for (label, config) in [
        ("t1(4)", FlowConfig::t1(4)),
        ("multiphase(4)", FlowConfig::multiphase(4)),
        ("single_phase()", FlowConfig::single_phase()),
    ] {
        // A fan-out would re-raise the armed item's panic right here.
        let result = run_flow(&aig, &config);
        assert!(result.is_ok(), "{label}: flow failed: {:?}", result.err());
    }
}
