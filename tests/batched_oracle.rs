//! Differential tests for the batched verification paths.
//!
//! `Design::verify_with` builds every predicate cache in one decode pass
//! ([`Bitset::for_predicates`]) and answers the theorem oracle's
//! preservation queries from one [`violation_matrix`] sweep per
//! assumption. These tests hold both to the per-predicate and per-query
//! paths they replaced, on every protocol design at an enumerable size
//! plus a synthetic design with more than 64 constraints, and hold the
//! verdict part of each `ToleranceReport` to a committed golden rendering.

use nonmask::{Design, ToleranceReport};
use nonmask_checker::{preserves_given_bits, violation_matrix, Bitset, CheckOptions, StateSpace};
use nonmask_graph::{ConstraintRef, Layering, NodePartition};
use nonmask_program::{Domain, Predicate, Program};
use nonmask_protocols::aggregate::WaveAggregation;
use nonmask_protocols::atomic::AtomicActions;
use nonmask_protocols::coloring::TreeColoring;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::reset::DistributedReset;
use nonmask_protocols::{token_ring, xyz, Tree};

/// Constraints of the synthetic wide design: more than one 64-bit word of
/// violation mask per action.
const WIDE: usize = 70;

/// Four variables in `0..=3`; constraint `i` relates `v[i % 4]` to
/// `v[(i + 1) % 4]` and has its own repair writing the latter. One closure
/// action rotates `v0`, so preservation queries under `T` and `S` both
/// have work to do. Two layers split the four-edge cycle so that each
/// layer's graph is acyclic and Theorem 3's per-layer queries run.
fn wide_design() -> Design {
    let mut b = Program::builder("wide");
    let v: Vec<_> = (0..4)
        .map(|j| b.var(format!("v{j}"), Domain::range(0, 3)))
        .collect();
    let v0 = v[0];
    b.closure_action(
        "rotate",
        [v0],
        [v0],
        |_| true,
        move |s| {
            let x = s.get(v0);
            s.set(v0, (x + 1) % 4);
        },
    );
    let mut constraints = Vec::new();
    for i in 0..WIDE {
        let (from, to) = (v[i % 4], v[(i + 1) % 4]);
        let k = i as i64;
        let c = Predicate::new(format!("c{i}"), [from, to], move |s| {
            (s.get(from) + k) % 4 != s.get(to)
        });
        let guard = c.clone();
        let fix = b.convergence_action(
            format!("fix{i}"),
            [from, to],
            [to],
            move |s| !guard.holds(s),
            move |s| {
                let x = s.get(from);
                s.set(to, (x + k + 1) % 4);
            },
        );
        constraints.push((format!("c{i}"), c, fix));
    }
    let program = b.build();
    let mut partition = NodePartition::new();
    for (j, &var) in v.iter().enumerate() {
        partition = partition.group(format!("v{j}"), [var]);
    }
    let layers: Vec<Vec<ConstraintRef>> = [false, true]
        .into_iter()
        .map(|last| {
            (0..WIDE)
                .filter(|i| (i % 4 == 3) == last)
                .map(ConstraintRef)
                .collect()
        })
        .collect();
    let mut builder = Design::builder(program)
        .partition(partition)
        .layering(Layering::new(layers).unwrap());
    for (name, c, fix) in constraints {
        builder = builder.constraint(name, c, fix);
    }
    builder.build().unwrap()
}

/// Every protocol design at an enumerable size, and the wide design.
fn designs() -> Vec<(&'static str, Design)> {
    vec![
        ("xyz-out-tree", xyz::out_tree().unwrap().0),
        ("xyz-ordered", xyz::ordered().unwrap().0),
        ("xyz-interfering", xyz::interfering().unwrap().0),
        (
            "diffusing-binary-4",
            DiffusingComputation::new(&Tree::binary(4))
                .design()
                .unwrap(),
        ),
        (
            "windowed-ring-4-3",
            token_ring::windowed_design(4, 3).unwrap().0,
        ),
        (
            "coloring-binary-5-3",
            TreeColoring::new(&Tree::binary(5), 3).design().unwrap(),
        ),
        (
            "reset-binary-4",
            DistributedReset::new(&Tree::binary(4), 3, 0)
                .design()
                .unwrap(),
        ),
        (
            "aggregate-chain-3",
            WaveAggregation::new(&Tree::chain(3), 1).design().unwrap(),
        ),
        ("atomic-4", AtomicActions::new(4).design().unwrap()),
        ("wide-70", wide_design()),
    ]
}

/// The verdict part of a report: everything but `counters` and `timings`.
fn verdict_line(name: &str, r: &ToleranceReport) -> String {
    format!(
        "{name}: {:?} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?}",
        r.shape,
        r.closure,
        r.theorem,
        r.convergence,
        r.convergence_unfair,
        r.worst_case_moves,
        r.state_counts
    )
}

#[test]
fn batched_caches_equal_per_predicate_caches_on_every_design() {
    for (name, design) in designs() {
        let space = StateSpace::enumerate(design.program()).unwrap();
        let s = design.invariant();
        let mut preds = vec![&s, design.fault_span()];
        preds.extend(design.constraints().iter().map(|c| c.predicate()));
        for threads in [1, 4] {
            let opts = CheckOptions::default().threads(threads);
            let batched = Bitset::for_predicates(space.index(), &preds, opts).unwrap();
            assert_eq!(batched.len(), preds.len(), "{name}");
            for (pred, bits) in preds.iter().zip(&batched) {
                let single = Bitset::for_predicate(&space, pred, opts).unwrap();
                assert_eq!(bits, &single, "{name}: cache of `{}`", pred.name());
            }
        }
    }
}

#[test]
fn violation_matrix_agrees_with_per_query_scans_on_every_design() {
    let mut widest = 0;
    for (name, design) in designs() {
        let p = design.program();
        let space = StateSpace::enumerate(p).unwrap();
        let opts = CheckOptions::default().threads(4);
        let t_bits = Bitset::for_predicate(&space, design.fault_span(), opts).unwrap();
        let s_bits = Bitset::for_predicate(&space, &design.invariant(), opts).unwrap();
        let c_bits: Vec<Bitset> = design
            .constraints()
            .iter()
            .map(|c| Bitset::for_predicate(&space, c.predicate(), opts).unwrap())
            .collect();
        widest = widest.max(c_bits.len());
        // The oracle's assumption tags: T, S, and Theorem 3's per-layer
        // `T ∧ ¬S ∧ lower layers`.
        let mut assumptions = vec![
            ("T".to_string(), t_bits.clone()),
            ("S".to_string(), s_bits.clone()),
        ];
        if let Some(layering) = design.layering() {
            for layer in 0..layering.len() {
                let mut assuming = t_bits.and(&s_bits.not());
                for c in layering.below(layer) {
                    assuming = assuming.and(&c_bits[c.0]);
                }
                assumptions.push((format!("layer {layer}"), assuming));
            }
        }
        for (tag, assuming) in &assumptions {
            let matrix = violation_matrix(&space, p, &c_bits, assuming, opts).unwrap();
            let serial =
                violation_matrix(&space, p, &c_bits, assuming, CheckOptions::serial()).unwrap();
            assert_eq!(matrix, serial, "{name} under {tag}: thread count");
            for a in p.action_ids() {
                for (ci, bits) in c_bits.iter().enumerate() {
                    let scan = preserves_given_bits(&space, a, bits, assuming, opts)
                        .unwrap()
                        .is_none();
                    assert_eq!(
                        matrix.preserves(a, ci),
                        scan,
                        "{name} under {tag}: action `{}`, constraint {ci}",
                        p.action(a).name()
                    );
                }
            }
        }
    }
    assert!(widest > 64, "some design needs a multi-word mask");
}

#[test]
fn work_counters_count_the_passes_made() {
    for (name, design) in designs() {
        let c = design.verify().unwrap().counters;
        let tags = 2 + design.layering().map_or(0, |l| l.len()) as u64;
        assert_eq!(
            c.bitset_builds,
            2 + design.constraints().len() as u64,
            "{name}"
        );
        assert_eq!(c.states_decoded, c.states, "{name}: one decode pass");
        assert!(c.cache_misses <= tags, "{name}: one sweep per assumption");
        assert_eq!(c.csr_rows_visited % c.states, 0, "{name}: whole sweeps");
    }
}

#[test]
fn tolerance_reports_match_the_golden_verdicts() {
    let golden = include_str!("golden/tolerance_reports.txt");
    let lines: Vec<String> = designs()
        .iter()
        .map(|(name, design)| verdict_line(name, &design.verify().unwrap()))
        .collect();
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), want.len(), "one golden line per design");
    for (got, want) in lines.iter().zip(want) {
        assert_eq!(got, want);
    }
}
