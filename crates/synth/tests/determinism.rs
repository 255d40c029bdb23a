//! Synthesis is a *deterministic* search: the chosen action set, the
//! rendered design, the metrics, and the journaled phase trace are
//! bit-identical for every worker-thread count. Only wall-clock
//! timestamps may differ, so journals are compared as parsed event
//! sequences.

use nonmask_obs::{parse_journal, Event, Journal};
use nonmask_synth::{specs, synthesize, SynthMetrics, SynthOptions, SynthSpec};

/// Run one synthesis and return everything that must be invariant.
fn fingerprint(spec: &SynthSpec, threads: usize) -> (String, Vec<Event>, SynthMetrics, u64) {
    let (journal, buffer) = Journal::memory();
    let out = synthesize(spec, &SynthOptions { threads }, &journal).unwrap();
    journal.flush();
    let events: Vec<Event> = parse_journal(&buffer.contents())
        .unwrap()
        .into_iter()
        .map(|r| r.event)
        .collect();
    (out.render(), events, out.metrics, out.distance)
}

#[test]
fn synthesis_is_invariant_across_thread_counts() {
    for spec in [
        specs::coloring(5, 3),
        specs::token_ring_windowed(4, 3),
        specs::diffusing(5),
    ] {
        let baseline = fingerprint(&spec, 1);
        for threads in [2usize, 4, 7] {
            let got = fingerprint(&spec, threads);
            let at = format!("{} at t={threads}", spec.name);
            assert_eq!(baseline.0, got.0, "render differs: {at}");
            assert_eq!(baseline.1, got.1, "journal differs: {at}");
            assert_eq!(baseline.2, got.2, "metrics differ: {at}");
            assert_eq!(baseline.3, got.3, "distance differs: {at}");
        }
    }
}

#[test]
fn journal_follows_the_phase_order() {
    let spec = specs::coloring(3, 3);
    let (_, events, _, _) = fingerprint(&spec, 2);
    let phases: Vec<String> = events
        .iter()
        .map(|e| match e {
            Event::Synth { phase, .. } => phase.clone(),
            other => panic!("non-synth event in a synthesis journal: {other:?}"),
        })
        .collect();
    // k=2 constraints: grammar×2, classify, prune×2, certify×2,
    // select×2, verify.
    assert_eq!(
        phases,
        vec![
            "grammar", "grammar", "classify", "prune", "prune", "certify", "certify", "select",
            "select", "verify"
        ]
    );
}
