//! Constraint-level replay of witness computations.
//!
//! The paper's §4 design method decomposes the invariant into constraints
//! `c.1 .. c.n`, each repaired by its own convergence action. A
//! counterexample or witness path from the checker
//! ([`crate::convergence::shortest_path_to`]) is a sequence of states and
//! actions; replaying it against the constraint list turns the raw path
//! into the object the paper reasons about — *which constraint was
//! violated when, and which action re-established it*. The transitions
//! are journaled as [`Event::ConstraintViolated`] /
//! [`Event::ConstraintRepaired`] records, which the `nonmask-run trace`
//! subcommand renders as a repair timeline.

use nonmask_obs::{Event, Journal};
use nonmask_program::{Predicate, Program, State};

use crate::convergence::{shortest_path_to, PathStep};
use crate::{CheckError, StateSpace};

/// One constraint-status transition observed while replaying a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintTransition {
    /// Zero-based step index in the replayed computation.
    pub step: usize,
    /// Name of the constraint whose status changed.
    pub constraint: String,
    /// `Some(action)` when the constraint was repaired by that action;
    /// `None` when it was violated (at step 0, by the initial state
    /// itself; later, by the step's action).
    pub repaired_by: Option<String>,
}

/// Replay `path` against `constraints`, journaling and returning every
/// violation/repair transition in step order.
///
/// Step 0 reports each constraint the initial state already violates;
/// each later step reports constraints whose truth value flipped under
/// that step's action. Constraints are evaluated in the given order, so
/// the transition order within one step is deterministic.
pub fn replay_constraints(
    program: &Program,
    path: &[PathStep],
    constraints: &[Predicate],
    journal: &Journal,
) -> Vec<ConstraintTransition> {
    let mut transitions = Vec::new();
    let Some(first) = path.first() else {
        return transitions;
    };
    let mut held: Vec<bool> = constraints.iter().map(|c| c.holds(&first.state)).collect();
    for (ci, constraint) in constraints.iter().enumerate() {
        if !held[ci] {
            transitions.push(ConstraintTransition {
                step: 0,
                constraint: constraint.name().to_string(),
                repaired_by: None,
            });
        }
    }
    for (step, path_step) in path.iter().enumerate().skip(1) {
        let action = path_step
            .action
            .map(|a| program.action(a).name().to_string());
        for (ci, constraint) in constraints.iter().enumerate() {
            let holds = constraint.holds(&path_step.state);
            if holds == held[ci] {
                continue;
            }
            held[ci] = holds;
            transitions.push(ConstraintTransition {
                step,
                constraint: constraint.name().to_string(),
                repaired_by: holds.then(|| action.clone().unwrap_or_default()),
            });
        }
    }
    for t in &transitions {
        journal.emit_with(|| match &t.repaired_by {
            Some(action) => Event::ConstraintRepaired {
                step: t.step as u64,
                constraint: t.constraint.clone(),
                action: action.clone(),
            },
            None => Event::ConstraintViolated {
                step: t.step as u64,
                constraint: t.constraint.clone(),
            },
        });
    }
    transitions
}

/// A shortest computation from `start` into the states where every
/// constraint holds — the witness [`replay_constraints`] turns into a
/// repair timeline — or `None` when program steps cannot reach one.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a constraint panics at some state.
pub fn repair_path(
    space: &StateSpace,
    program: &Program,
    start: &State,
    constraints: &[Predicate],
) -> Result<Option<Vec<PathStep>>, CheckError> {
    let vars: Vec<_> = program.var_ids().collect();
    let start = start.clone();
    let from = Predicate::new("start", vars.clone(), move |s| *s == start);
    let all_hold = Predicate::new("all-constraints", vars, {
        let constraints = constraints.to_vec();
        move |s| constraints.iter().all(|c| c.holds(s))
    });
    let targets: Vec<State> = space
        .satisfying(&all_hold)?
        .into_iter()
        .map(|id| space.state(id))
        .collect();
    shortest_path_to(space, &from, &targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_obs::Record;
    use nonmask_program::Domain;

    /// A two-variable countdown with one convergence action per variable.
    fn setup() -> (Program, Vec<Predicate>) {
        let mut b = Program::builder("pair");
        let x = b.var("x", Domain::range(0, 2));
        let y = b.var("y", Domain::range(0, 2));
        b.convergence_action(
            "fix-x",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        b.convergence_action(
            "fix-y",
            [y],
            [y],
            move |s| s.get(y) > 0,
            move |s| s.set(y, 0),
        );
        let p = b.build();
        let constraints = vec![
            Predicate::new("x=0", [x], move |s| s.get(x) == 0),
            Predicate::new("y=0", [y], move |s| s.get(y) == 0),
        ];
        (p, constraints)
    }

    fn step(program: &Program, action: &str, state: [i64; 2]) -> PathStep {
        PathStep {
            action: program
                .action_ids()
                .find(|&a| program.action(a).name() == action),
            state: program.state_from(state).unwrap(),
        }
    }

    #[test]
    fn replay_reports_initial_violations_and_repairs() {
        let (p, constraints) = setup();
        let path = vec![
            PathStep {
                action: None,
                state: p.state_from([2, 1]).unwrap(),
            },
            step(&p, "fix-x", [0, 1]),
            step(&p, "fix-y", [0, 0]),
        ];
        let (journal, buffer) = Journal::memory();
        let transitions = replay_constraints(&p, &path, &constraints, &journal);
        journal.flush();

        assert_eq!(
            transitions,
            vec![
                ConstraintTransition {
                    step: 0,
                    constraint: "x=0".into(),
                    repaired_by: None,
                },
                ConstraintTransition {
                    step: 0,
                    constraint: "y=0".into(),
                    repaired_by: None,
                },
                ConstraintTransition {
                    step: 1,
                    constraint: "x=0".into(),
                    repaired_by: Some("fix-x".into()),
                },
                ConstraintTransition {
                    step: 2,
                    constraint: "y=0".into(),
                    repaired_by: Some("fix-y".into()),
                },
            ]
        );

        // The journal carries the same transitions, in the same order.
        let records: Vec<Record> = buffer
            .contents()
            .lines()
            .map(|l| Event::parse_line(l).expect("valid journal line"))
            .collect();
        assert_eq!(records.len(), transitions.len());
        assert!(matches!(
            &records[2].event,
            Event::ConstraintRepaired { step: 1, constraint, action }
                if constraint == "x=0" && action == "fix-x"
        ));
    }

    #[test]
    fn satisfied_path_yields_no_transitions() {
        let (p, constraints) = setup();
        let path = vec![PathStep {
            action: None,
            state: p.state_from([0, 0]).unwrap(),
        }];
        let journal = Journal::disabled();
        assert!(replay_constraints(&p, &path, &constraints, &journal).is_empty());
    }

    #[test]
    fn empty_path_is_fine() {
        let (p, constraints) = setup();
        assert!(replay_constraints(&p, &[], &constraints, &Journal::disabled()).is_empty());
    }

    #[test]
    fn a_reviolated_constraint_is_reported_again() {
        let (p, constraints) = setup();
        let path = vec![
            PathStep {
                action: None,
                state: p.state_from([1, 0]).unwrap(),
            },
            step(&p, "fix-x", [0, 0]),
            // An adversarial hop back out (as a fault would produce).
            step(&p, "fix-y", [1, 0]),
        ];
        let transitions = replay_constraints(&p, &path, &constraints, &Journal::disabled());
        let kinds: Vec<(usize, bool)> = transitions
            .iter()
            .map(|t| (t.step, t.repaired_by.is_some()))
            .collect();
        assert_eq!(kinds, vec![(0, false), (1, true), (2, false)]);
    }
}
