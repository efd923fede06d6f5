//! Lost-wakeup / termination stress for the work-stealing cut frontier:
//! tiny force-engaged inputs at a forced worker count of 8 — far more
//! workers than the ready frontier can ever feed, so almost every worker
//! spends the run parked on the condvar and the drain/termination wakeups
//! are exercised hundreds of times.
//!
//! A lost wakeup here is a **hang**, not a wrong answer, so each iteration
//! doubles as a liveness probe (the test binary's timeout is the watchdog);
//! the cut tables are additionally held bit-identical to the sequential
//! enumeration, the same golden the `chk` schedule exploration in
//! `tests/chk_models.rs` uses — this stress run covers the wall-clock
//! schedules the bounded model search cannot.

use sfq_netlist::cuts::{enumerate_cuts_frontier, enumerate_cuts_sequential, CutConfig};
use sfq_netlist::{map_aig, par, Aig, Library};

/// A ripple adder of `bits` — multi-level with shared fanins, still tiny.
fn adder_net(bits: usize) -> sfq_netlist::Network {
    let mut aig = Aig::new(format!("stress_add{bits}"));
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
    map_aig(&aig, &Library::default())
}

/// A half adder — the smallest interesting frontier (two independent
/// cones, then nothing: workers park almost immediately).
fn half_adder_net() -> sfq_netlist::Network {
    let mut aig = Aig::new("stress_ha");
    let a = aig.input("a");
    let b = aig.input("b");
    let s = aig.xor(a, b);
    let c = aig.and(a, b);
    aig.output("sum", s);
    aig.output("carry", c);
    map_aig(&aig, &Library::default())
}

/// One test fn: the worker override is process-global, and a single owner
/// needs no locking against parallel test threads (this is the binary's
/// only test).
#[test]
fn oversubscribed_frontier_never_strands_a_worker() {
    // Mirror a `--workers 8` deployment for anything consulting the
    // global policy; the frontier itself is force-engaged below the
    // dispatcher's size threshold by calling it directly with 8 workers.
    par::force_workers(8);
    let config = CutConfig::default();
    let nets = [half_adder_net(), adder_net(2), adder_net(3), adder_net(4)];
    for net in &nets {
        let golden = enumerate_cuts_sequential(net, &config);
        for round in 0..25 {
            let got = enumerate_cuts_frontier(net, &config, 8);
            assert_eq!(
                got.total(),
                golden.total(),
                "total cut count ({}, round {round})",
                net.name()
            );
            for id in net.cell_ids() {
                assert_eq!(
                    got.of(id),
                    golden.of(id),
                    "cut set of c{} ({}, round {round})",
                    id.0,
                    net.name()
                );
            }
        }
    }
    par::force_workers(0);
}
