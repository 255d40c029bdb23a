//! The headline claim: from the decompositions alone, the synthesizer
//! re-derives repairs **extensionally identical** to the paper's
//! hand-written ones.
//!
//! State ids are a pure mixed-radix function of the variable layout, and
//! the synth specs reproduce the hand programs' layouts exactly, so a
//! synthesized action and its hand counterpart can be compared
//! transition-for-transition across their separately enumerated spaces.

use nonmask::TheoremOutcome;
use nonmask_checker::{StateId, StateSpace};
use nonmask_obs::Journal;
use nonmask_program::{ActionId, Program};
use nonmask_protocols::coloring::TreeColoring;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::windowed_design;
use nonmask_protocols::Tree;
use nonmask_synth::{specs, synthesize, SynthMetrics, SynthOptions, SynthResult, SynthSpec};

fn synth(spec: &SynthSpec) -> SynthResult {
    synthesize(spec, &SynthOptions::default(), &Journal::disabled()).expect("synthesis succeeds")
}

/// Sorted successor set of `action` at state `i`.
fn succs(space: &StateSpace, i: usize, action: ActionId) -> Vec<u32> {
    let mut out: Vec<u32> = space
        .successors(StateId::from_index(i))
        .into_iter()
        .filter(|(a, _)| *a == action)
        .map(|(_, s)| s.index() as u32)
        .collect();
    out.sort_unstable();
    out
}

/// Assert two actions of two same-layout programs have identical
/// extensions (same enabledness, same successors, at every state).
fn assert_same_extension(
    hand: &(StateSpace, &Program),
    hand_action: ActionId,
    synthd: &(StateSpace, &Program),
    synth_action: ActionId,
    label: &str,
) {
    assert_eq!(hand.0.len(), synthd.0.len(), "{label}: state spaces differ");
    for i in 0..hand.0.len() {
        assert_eq!(
            succs(&hand.0, i, hand_action),
            succs(&synthd.0, i, synth_action),
            "{label}: transitions differ at state {i}"
        );
    }
}

/// Check the two programs enumerate identical variable layouts, so the
/// state-id bijection is shared and extension comparison is meaningful.
fn assert_same_layout(hand: &Program, synthd: &Program) {
    let hv: Vec<_> = hand
        .var_ids()
        .map(|v| hand.var(v).name().to_string())
        .collect();
    let sv: Vec<_> = synthd
        .var_ids()
        .map(|v| synthd.var(v).name().to_string())
        .collect();
    assert_eq!(hv, sv, "variable layouts must match");
}

#[test]
fn token_ring_resynthesizes_the_papers_layered_design() {
    let spec = specs::token_ring_windowed(4, 3);
    let out = synth(&spec);

    assert!(out.report.is_tolerant());
    assert!(
        matches!(out.report.theorem, TheoremOutcome::Theorem3 { layers: 2 }),
        "expected the paper's two-layer partition, got {:?}",
        out.report.theorem.name()
    );
    assert_eq!(out.distance, 0, "every guard should be exactly required");
    // The derived layers are ge.* below eq.*.
    assert_eq!(out.layers, vec![vec![0, 1, 2], vec![3, 4, 5]]);

    let (hand_design, handles) = windowed_design(4, 3).unwrap();
    let hand_prog = hand_design.program();
    let synth_prog = out.design.program();
    assert_same_layout(hand_prog, synth_prog);
    let hand_space = StateSpace::enumerate(hand_prog).unwrap();
    let synth_space = StateSpace::enumerate(synth_prog).unwrap();
    let h = (hand_space, hand_prog);
    let s = (synth_space, synth_prog);

    // Base action: the root increment.
    assert_same_extension(
        &h,
        handles.root,
        &s,
        ActionId::from_index(0),
        "root increment",
    );
    // repair.ge.j ≡ hand repair-ge@j; repair.eq.j ≡ hand copy@j.
    for j in 1..4usize {
        assert_same_extension(
            &h,
            handles.layer1[j - 1],
            &s,
            ActionId::from_index(1 + (j - 1)),
            &format!("repair.ge.{j}"),
        );
        assert_same_extension(
            &h,
            handles.layer2[j - 1],
            &s,
            ActionId::from_index(4 + (j - 1)),
            &format!("repair.eq.{j}"),
        );
    }

    // Same certificate as the hand design.
    let hand_report = hand_design.verify().unwrap();
    assert_eq!(out.report.worst_case_moves, hand_report.worst_case_moves);
}

#[test]
fn diffusing_resynthesizes_the_merged_propagate_repair() {
    let spec = specs::diffusing(7);
    let out = synth(&spec);

    assert!(out.report.is_tolerant());
    assert!(out.report.theorem.applies());
    assert_eq!(out.distance, 0);
    assert_eq!(out.layers.len(), 1, "R.j are pairwise incomparable");

    let dc = DiffusingComputation::new(&Tree::binary(7));
    let hand_prog = dc.program();
    let synth_prog = out.design.program();
    assert_same_layout(hand_prog, synth_prog);
    let hand_space = StateSpace::enumerate(hand_prog).unwrap();
    let synth_space = StateSpace::enumerate(synth_prog).unwrap();
    let h = (hand_space, hand_prog);
    let s = (synth_space, synth_prog);

    // Synth program layout: initiate.0, reflect.0..reflect.6, then
    // repair.R.1..repair.R.6.
    assert_same_extension(
        &h,
        dc.initiate_action(),
        &s,
        ActionId::from_index(0),
        "initiate",
    );
    for j in 0..7usize {
        assert_same_extension(
            &h,
            dc.reflect_action(j),
            &s,
            ActionId::from_index(1 + j),
            &format!("reflect.{j}"),
        );
    }
    for j in 1..7usize {
        assert_same_extension(
            &h,
            dc.combined_action(j).unwrap(),
            &s,
            ActionId::from_index(8 + (j - 1)),
            &format!("repair.R.{j} vs propagate/repair@{j}"),
        );
    }
}

#[test]
fn coloring_synthesizes_the_recoloring_action_from_scratch() {
    let spec = specs::coloring(7, 3);
    let out = synth(&spec);

    assert!(out.report.is_tolerant());
    assert!(out.report.theorem.applies());
    assert_eq!(out.distance, 0);

    let tc = TreeColoring::new(&Tree::binary(7), 3);
    let hand_prog = tc.program();
    let synth_prog = out.design.program();
    assert_same_layout(hand_prog, synth_prog);
    let hand_space = StateSpace::enumerate(hand_prog).unwrap();
    let synth_space = StateSpace::enumerate(synth_prog).unwrap();
    let h = (hand_space, hand_prog);
    let s = (synth_space, synth_prog);

    // Hand program: recolor@1..recolor@6 (ids 0..6); synth: repair.R.1..
    for j in 1..7usize {
        assert_same_extension(
            &h,
            ActionId::from_index(j - 1),
            &s,
            ActionId::from_index(j - 1),
            &format!("repair.R.{j} vs recolor@{j}"),
        );
    }
}

/// Regenerate a golden with
/// `nonmask-run synth --protocol P --out crates/synth/golden/P.txt`
/// (`token_ring.txt` for `token-ring`); any grammar, prune or selection
/// change must update it deliberately.
#[test]
fn renders_match_the_committed_goldens() {
    let cases: [(&str, SynthSpec, &str); 3] = [
        (
            "token_ring.txt",
            specs::token_ring_windowed(4, 3),
            include_str!("../golden/token_ring.txt"),
        ),
        (
            "diffusing.txt",
            specs::diffusing(7),
            include_str!("../golden/diffusing.txt"),
        ),
        (
            "coloring.txt",
            specs::coloring(7, 3),
            include_str!("../golden/coloring.txt"),
        ),
    ];
    for (file, spec, golden) in cases {
        assert_eq!(
            synth(&spec).render(),
            golden,
            "synthesized design drifted from golden/{file}"
        );
    }
}

/// The work accounting of the three benchmarked instances, pinned so a
/// change to how candidates are pruned or certified cannot silently
/// change how many it prunes or certifies.
#[test]
fn metrics_of_the_benchmarked_specs_are_pinned() {
    let pin = |states, candidates, survivors, certified, oracle_calls, unpruned| SynthMetrics {
        states,
        candidates,
        survivors,
        certified,
        oracle_calls,
        oracle_calls_unpruned: unpruned,
        attribution_sweeps: 1,
        verify_attempts: 1,
    };
    let cases = [
        (
            specs::token_ring_windowed(4, 3),
            pin(256, 420, 37, 37, 113, 1470),
        ),
        (specs::diffusing(7), pin(16384, 858, 78, 42, 156, 1716)),
        (specs::coloring(7, 3), pin(2187, 336, 96, 96, 192, 672)),
    ];
    for (spec, want) in cases {
        assert_eq!(synth(&spec).metrics, want, "{}", spec.name);
    }
}

/// The attribution prune saves at least 10x full-space certification
/// sweeps over unpruned enumeration.
fn assert_prune_saves_10x(out: &SynthResult) {
    let m = &out.metrics;
    assert!(
        m.oracle_calls.max(1) * 10 <= m.oracle_calls_unpruned,
        "prune saves only {}x ({} vs {})",
        m.oracle_calls_unpruned as f64 / m.oracle_calls.max(1) as f64,
        m.oracle_calls,
        m.oracle_calls_unpruned
    );
}

#[test]
fn pruning_saves_at_least_10x_oracle_calls_on_the_token_ring() {
    let out = synth(&specs::token_ring_windowed(4, 3));
    assert!(
        out.metrics.candidates >= 400,
        "grammar too small: {}",
        out.metrics.candidates
    );
    assert_prune_saves_10x(&out);
}

/// The weekly tier: on a larger ring the prune still saves at least 10×
/// certification sweeps, and both larger instances synthesize tolerant
/// designs at ideal distance 0.
#[test]
#[ignore = "weekly tier: larger synthesis instances; run with --release --ignored"]
fn weekly_larger_instances_keep_the_prune_saving_at_distance_0() {
    let ring = synth(&specs::token_ring_windowed(5, 4));
    assert!(ring.report.is_tolerant());
    assert_eq!(ring.distance, 0);
    assert_prune_saves_10x(&ring);

    let coloring = synth(&specs::coloring(9, 3));
    assert!(coloring.report.is_tolerant());
    assert_eq!(coloring.distance, 0);
}
