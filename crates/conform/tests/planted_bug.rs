//! Planted-bug self-test: prove the harness can actually catch a
//! divergent implementation, not merely bless healthy ones.
//!
//! Built only with `--features planted-bug`: the token-ring mutant whose
//! root increments by two is executed by the simulator while the healthy
//! ring serves as the oracle. The harness must (a) flag the divergence
//! as an invalid step the moment the mutated action fires, (b) shrink
//! the seeded fault schedule to a ≤5-event reproducer, and (c) replay
//! the shrunk schedule to the bit-identical divergence — twice.
#![cfg(feature = "planted-bug")]

use nonmask_conform::{
    check_run, run_sim, shrink_schedule, FaultSchedule, Protocol, ProtocolOracle, ProtocolSpec,
    SimRunConfig,
};
use nonmask_graph::Topology;
use nonmask_program::{Predicate, Program};
use nonmask_protocols::spanning_tree::planted_trusting_mutant;
use nonmask_protocols::token_ring::TokenRing;

fn harness() -> (ProtocolSpec, Program, ProtocolOracle) {
    let spec = Protocol::TokenRing { nodes: 4, k: 4 }.spec();
    let mutant = TokenRing::planted_mutant(4, 4).program().clone();
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    (spec, mutant, oracle)
}

/// The healthy spanning-tree spec on the corpus 4-ring and the mutant in
/// which node 2 trusts node 1 as its parent unconditionally.
fn trusting_parent_harness() -> (ProtocolSpec, Program) {
    let spec = Protocol::SpanningTree { nodes: 4 }.spec();
    let mutant = planted_trusting_mutant(&Topology::ring(4), 0, 2, 1);
    (spec, mutant)
}

/// Fixed horizon so the token always revisits the mutated root action.
fn horizon_cfg() -> (Predicate, SimRunConfig) {
    (
        Predicate::always_false(),
        SimRunConfig {
            max_rounds: 60,
            ..SimRunConfig::default()
        },
    )
}

#[test]
fn the_mutant_is_detected_as_a_wrong_effect() {
    let (spec, mutant, oracle) = harness();
    let (never, cfg) = horizon_cfg();
    let outcome = run_sim(&mutant, &never, 7, &FaultSchedule::empty(), &cfg).unwrap();
    let report = check_run(&oracle, &spec, &outcome, false);
    assert!(!report.conforms(), "planted bug went undetected");
    let first = &report.divergences[0];
    assert_eq!(first.kind, "invalid-step");
    assert!(
        first.detail.contains("pass@0"),
        "divergence should name the mutated root action: {first}"
    );
}

#[test]
fn the_schedule_shrinks_to_at_most_five_events_and_replays_deterministically() {
    let (spec, mutant, oracle) = harness();
    let (never, cfg) = horizon_cfg();
    let seed = 11;
    let divergences_of = |schedule: &FaultSchedule| {
        let outcome = run_sim(&mutant, &never, seed, schedule, &cfg).unwrap();
        check_run(&oracle, &spec, &outcome, false).divergences
    };

    let schedule = FaultSchedule::random(&spec.program, 4, seed, 8, 40);
    assert!(
        !divergences_of(&schedule).is_empty(),
        "the full schedule must already diverge"
    );
    let shrunk = shrink_schedule(&schedule, |s| !divergences_of(s).is_empty());
    assert!(
        shrunk.len() <= 5,
        "shrunk schedule has {} events (> 5):\n{}",
        shrunk.len(),
        shrunk.render()
    );
    // The root misfires with no faults at all, so ddmin should reach
    // the true minimum.
    assert!(shrunk.is_empty(), "expected the empty schedule");

    // Deterministic reproducer: two replays, bit-identical divergences.
    let first = divergences_of(&shrunk);
    let second = divergences_of(&shrunk);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "replay of the shrunk schedule must be deterministic"
    );

    // And the triple survives serialization: parse(render(s)) replays
    // to the same divergences.
    let reparsed = FaultSchedule::parse(&shrunk.render()).unwrap();
    assert_eq!(divergences_of(&reparsed), first);
}

/// The second planted bug, on the spanning tree: node 2 adopts node 1
/// as its parent unconditionally — the "Byzantine node accepted as
/// parent" mistake. The healthy 4-ring spec is the oracle; the wrong
/// effect surfaces the first time node 2 repairs while its other
/// neighbor is strictly closer to the root.
#[test]
fn the_trusting_parent_mutant_is_detected_as_a_wrong_effect() {
    let (spec, mutant) = trusting_parent_harness();
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let (never, cfg) = horizon_cfg();
    let outcome = run_sim(&mutant, &never, 1, &FaultSchedule::empty(), &cfg).unwrap();
    let report = check_run(&oracle, &spec, &outcome, false);
    assert!(!report.conforms(), "planted parent bug went undetected");
    let first = &report.divergences[0];
    assert_eq!(first.kind, "invalid-step");
    assert!(
        first.detail.contains("adopt@2"),
        "divergence should name the trusting node's repair: {first}"
    );
}

#[test]
fn the_trusting_parent_schedule_shrinks_and_replays_deterministically() {
    let (spec, mutant) = trusting_parent_harness();
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let (never, cfg) = horizon_cfg();
    let seed = 4;
    let divergences_of = |schedule: &FaultSchedule| {
        let outcome = run_sim(&mutant, &never, seed, schedule, &cfg).unwrap();
        check_run(&oracle, &spec, &outcome, false).divergences
    };

    let schedule = FaultSchedule::random(&spec.program, 4, seed, 8, 40);
    assert!(
        !divergences_of(&schedule).is_empty(),
        "the full schedule must already diverge"
    );
    let shrunk = shrink_schedule(&schedule, |s| !divergences_of(s).is_empty());
    assert!(
        shrunk.len() <= 5,
        "shrunk schedule has {} events (> 5):\n{}",
        shrunk.len(),
        shrunk.render()
    );
    // Seed 4's initial state already has node 3 closer to the root
    // than node 1, so the trusting repair misfires with no faults at
    // all and ddmin reaches the true minimum.
    assert!(shrunk.is_empty(), "expected the empty schedule");

    let first = divergences_of(&shrunk);
    let second = divergences_of(&shrunk);
    assert!(!first.is_empty());
    assert_eq!(first, second, "shrunk replay must be deterministic");
}
