//! The checker's committed resource gates.
//!
//! - **CSR bytes per state.** Each instance has a ceiling about 15% over
//!   its measured footprint, so noise passes but a layout regression
//!   (anything that adds bytes per transition) does not.
//! - **Frontier work.** Within the memory budget the frontier keeps each
//!   segment's rows across rounds, so it evaluates each transition of its
//!   region (the states outside the goal; `T = true`) at most once, and
//!   still reaches the `converges` verdict.
//! - **Flat throughput** (weekly tier). Within a protocol family, the
//!   slowest instance's CSR-build transitions/s stays within 2× of the
//!   fastest's. A transition evaluated is the size-invariant unit of
//!   enumeration work: scaling a family up adds variables to decode and
//!   enabled actions per state, so states/s falls with size even when
//!   per-transition throughput is flat. The rate divides by the CSR count
//!   and fill phases the checker journals, not by wall clock, so one-time
//!   column allocation is not billed as enumeration.
//!
//! The weekly tier enumerates two 16.7M-state instances and is ignored by
//! default; run it with
//! `cargo test --release --test checker_gates -- --ignored`.

use nonmask_checker::{
    check_convergence_frontier_stats, Bitset, CheckOptions, ConvergenceResult, Fairness, StateSpace,
};
use nonmask_obs::{Event, Journal};
use nonmask_program::{Predicate, Program};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

/// One gated instance. `goal` enables the frontier gate.
struct Instance {
    name: &'static str,
    family: &'static str,
    program: Program,
    goal: Option<Predicate>,
    max_bytes_per_state: f64,
}

fn ring(name: &'static str, n: usize, max_bytes_per_state: f64) -> Instance {
    Instance {
        name,
        family: "token-ring",
        program: TokenRing::new(n, n as i64).program().clone(),
        goal: None,
        max_bytes_per_state,
    }
}

fn diffusing(name: &'static str, depth: usize, max_bytes_per_state: f64) -> Instance {
    let dc = DiffusingComputation::new(&Tree::binary(depth));
    Instance {
        name,
        family: "diffusing-binary",
        goal: Some(dc.invariant()),
        program: dc.program().clone(),
        max_bytes_per_state,
    }
}

/// What the resident enumeration of an instance shows.
struct Measured {
    states: usize,
    bytes_per_state: f64,
    transitions_per_second: f64,
    /// Transitions leaving states outside the goal, if there is one.
    region_transitions: Option<u64>,
}

fn measure(inst: &Instance) -> Measured {
    let opts = CheckOptions::default();
    let (journal, buffer) = Journal::memory();
    let space = StateSpace::enumerate_journaled(&inst.program, opts, &journal)
        .expect("gated instances fit the default budget");
    journal.flush();
    let build_micros: u64 = buffer
        .contents()
        .lines()
        .filter_map(|l| Event::parse_line(l).ok())
        .filter_map(|r| match r.event {
            Event::CsrPhase { micros, .. } => Some(micros),
            _ => None,
        })
        .sum();
    let region_transitions = inst.goal.as_ref().map(|goal| {
        let in_goal = Bitset::for_predicate(&space, goal, opts).expect("goal cache");
        space
            .ids()
            .filter(|&id| !in_goal.contains(id))
            .map(|id| space.successor_ids(id).len() as u64)
            .sum()
    });
    Measured {
        states: space.len(),
        bytes_per_state: space.resident_bytes() as f64 / space.len() as f64,
        transitions_per_second: space.transition_count() as f64 / (build_micros as f64 / 1e6),
        region_transitions,
    }
}

fn assert_under_ceiling(inst: &Instance, m: &Measured) {
    assert!(
        m.bytes_per_state <= inst.max_bytes_per_state,
        "{}: {:.2} bytes/state exceeds the committed ceiling {:.1}",
        inst.name,
        m.bytes_per_state,
        inst.max_bytes_per_state
    );
}

/// The frontier verdict from `true` to the instance's goal converges, in
/// at most one successor evaluation per region transition.
fn assert_frontier_within_region(inst: &Instance, m: &Measured) {
    let goal = inst.goal.as_ref().expect("frontier instances have a goal");
    let (result, stats) = check_convergence_frontier_stats(
        &inst.program,
        &Predicate::always_true(),
        goal,
        Fairness::Unfair,
        CheckOptions::default(),
        &Journal::disabled(),
    )
    .expect("frontier mode stays within the default budget");
    assert!(
        matches!(result, ConvergenceResult::Converges),
        "{}: frontier verdict is {result:?}",
        inst.name
    );
    let region = m.region_transitions.expect("measured with a goal");
    assert!(
        stats.evals <= region,
        "{}: frontier made {} successor evaluations for {region} region transitions",
        inst.name,
        stats.evals
    );
}

#[test]
fn csr_bytes_per_state_stay_under_the_committed_ceilings() {
    for inst in [
        ring("token-ring-n5-k5", 5, 36.0),
        ring("token-ring-n7-k7", 7, 52.0),
        diffusing("diffusing-binary-9", 9, 78.0),
    ] {
        assert_under_ceiling(&inst, &measure(&inst));
    }
}

#[test]
fn frontier_on_diffusing_binary_9_converges_within_its_region_transitions() {
    let inst = diffusing("diffusing-binary-9", 9, 78.0);
    assert_frontier_within_region(&inst, &measure(&inst));
}

/// Instances below this size are exempt from the flatness gate: their
/// build phases finish in about a millisecond, so their rates are noise.
const FLATNESS_MIN_STATES: usize = 100_000;

/// Within one family the fastest transitions/s may be at most this
/// factor above the slowest.
const FLATNESS_FACTOR: f64 = 2.0;

#[test]
#[ignore = "weekly tier: enumerates two 16.7M-state instances; run with --release --ignored"]
fn weekly_full_tier_footprint_frontier_and_flat_throughput() {
    let instances = [
        ring("token-ring-n7-k7", 7, 52.0),
        ring("token-ring-n8-k8", 8, 62.0),
        diffusing("diffusing-binary-9", 9, 78.0),
        diffusing("diffusing-binary-12", 12, 110.0),
    ];
    let mut rates: Vec<(&str, &str, f64)> = Vec::new();
    for inst in &instances {
        let m = measure(inst);
        assert_under_ceiling(inst, &m);
        if inst.goal.is_some() {
            assert_frontier_within_region(inst, &m);
        }
        if m.states >= FLATNESS_MIN_STATES {
            rates.push((inst.family, inst.name, m.transitions_per_second));
        }
    }
    for family in ["token-ring", "diffusing-binary"] {
        let in_family = || rates.iter().filter(|r| r.0 == family);
        let (_, min_name, min) = in_family().min_by(|a, b| a.2.total_cmp(&b.2)).unwrap();
        let (_, max_name, max) = in_family().max_by(|a, b| a.2.total_cmp(&b.2)).unwrap();
        assert!(
            *max <= *min * FLATNESS_FACTOR,
            "{family}: transitions/s is not flat — {max_name} at {max:.0} \
             is more than {FLATNESS_FACTOR}x {min_name} at {min:.0}"
        );
    }
}
