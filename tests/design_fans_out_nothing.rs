//! One design's flow and verification spawn no worker threads at any
//! worker count: with every [`sfq_netlist::par::map_ordered`] item armed
//! to panic and eight workers forced, `run_flow` still succeeds for each
//! default configuration and for a four-restart descent, and the pulse-level
//! equivalence check and the Monte-Carlo margin trials still run on the T1
//! result. A fan-out anywhere inside a design — cut enumeration, detection,
//! the phase descent and its restarts, DFF emission, the flow's equivalence
//! check, `check_against_aig` or `analyze_margins` — would run an item and
//! fire the fault. Only the batch drivers fan out, across designs.
//!
//! Its own test binary: the fault arming and the worker override are
//! process-global and must not leak into other tests.
#![cfg(feature = "fault-injection")]

use sfq_core::{run_flow, FlowConfig};
use sfq_netlist::faultpt::{arm, FaultAction};
use sfq_netlist::{par, Aig};
use sfq_sim::margin::{analyze_margins, MarginConfig};
use sfq_sim::{check_against_aig, EquivConfig};

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
fn one_design_spawns_no_fan_out_at_eight_workers() {
    let aig = ripple_adder_aig(64);
    arm("par.item", None, FaultAction::Panic);
    par::force_workers(8);
    for (label, config) in [
        ("t1(4)", FlowConfig::t1(4)),
        ("multiphase(4)", FlowConfig::multiphase(4)),
        ("single_phase()", FlowConfig::single_phase()),
        (
            "t1(4) restarts: 4",
            FlowConfig {
                restarts: 4,
                ..FlowConfig::t1(4)
            },
        ),
    ] {
        // A fan-out would re-raise the armed item's panic right here.
        let result = run_flow(&aig, &config);
        assert!(result.is_ok(), "{label}: flow failed: {:?}", result.err());
    }

    let t1 = run_flow(&aig, &FlowConfig::t1(4)).expect("t1 flow");
    let equiv = check_against_aig(&aig, &t1.timed, &EquivConfig::default());
    assert!(equiv.is_ok(), "equivalence check failed: {:?}", equiv.err());
    let margins = analyze_margins(&t1.timed, &MarginConfig::default());
    assert!(margins.t1_cells > 0, "the T1 adder has T1 sites to sample");
    assert_eq!(margins.trials, MarginConfig::default().trials);
}
