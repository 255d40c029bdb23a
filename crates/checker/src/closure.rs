//! The preservation oracle and closure checking.
//!
//! "An action of `p` preserves a state predicate `R` iff starting from any
//! state where the action is enabled and `R` holds, executing the action
//! yields a state where `R` holds. A state predicate `R` of `p` is closed
//! iff each action of `p` preserves `R`." (Section 2.)
//!
//! The checks run over the precomputed transition table (a `(action,
//! successor)` pair exists exactly when the action is enabled, so guards
//! are never re-evaluated) and over [`Bitset`] predicate caches (each
//! predicate is evaluated once per state, in parallel). Multi-threaded runs
//! report the same first violation as a sequential scan: workers own
//! contiguous id ranges and the lowest-id witness wins. A
//! [`ViolationMatrix`] answers every `(action, constraint)` preservation
//! query under one assumption from a single sweep.

use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::{run_chunks, CheckOptions};
use crate::segment::SegmentedSpace;
use crate::space::{SpaceError, StateId, StateSpace};

/// A witnessed preservation failure: executing `action` at `before` (where
/// the checked predicate held) produced `after` (where it does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violating action.
    pub action: ActionId,
    /// The state before execution (predicate held, guard held).
    pub before: State,
    /// The state after execution (predicate violated).
    pub after: State,
}

impl Violation {
    /// Render the violation against `program` for diagnostics.
    pub fn render(&self, program: &Program) -> String {
        format!(
            "action `{}` violated the predicate: {} -> {}",
            program.action(self.action).name(),
            program.render_state(&self.before),
            program.render_state(&self.after),
        )
    }
}

/// Does `action` preserve `pred`?
///
/// Checks every state of `space` where `pred` and the guard hold; returns
/// the first violation found, or `None` if the action preserves `pred`.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `pred` panics at some state.
pub fn preserves(
    space: &StateSpace,
    program: &Program,
    action: ActionId,
    pred: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    preserves_given(space, program, action, pred, &Predicate::always_true())
}

/// Does `action` preserve `pred` in states where `assuming` also holds?
///
/// This is Theorem 3's conditional preservation: "each closure action of
/// `p` preserves each constraint in that partition *whenever all constraints
/// in lower numbered partitions hold*". Only states satisfying
/// `assuming ∧ pred ∧ guard` are considered.
pub fn preserves_given(
    space: &StateSpace,
    program: &Program,
    action: ActionId,
    pred: &Predicate,
    assuming: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    let _ = program;
    let opts = CheckOptions::default();
    let pred_bits = Bitset::for_predicate(space, pred, opts)?;
    let assuming_bits = Bitset::for_predicate(space, assuming, opts)?;
    preserves_given_bits(space, action, &pred_bits, &assuming_bits, opts)
}

/// [`preserves_given`] over precomputed predicate caches.
///
/// `pred_bits` and `assuming_bits` must be evaluations of the predicates
/// over exactly this `space` (see [`Bitset::for_predicate`]). This is the
/// hot path shared by the closure report, the theorem side conditions, and
/// Theorem 3's layered obligations: one bit test per state and per
/// successor, no predicate evaluation at all.
pub fn preserves_given_bits(
    space: &StateSpace,
    action: ActionId,
    pred_bits: &Bitset,
    assuming_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let workers = opts.workers_for(space.len());
    let first = run_chunks(space.len(), workers, |range| {
        for i in range {
            if !pred_bits.get(i) || !assuming_bits.get(i) {
                continue;
            }
            for (a, succ) in space.successors(StateId::from_index(i)) {
                if a == action && !pred_bits.contains(succ) {
                    return Some((i, succ));
                }
            }
        }
        None
    })?
    .into_iter()
    .flatten()
    .next();
    Ok(first.map(|(i, succ)| Violation {
        action,
        before: space.state(StateId::from_index(i)),
        after: space.state(succ),
    }))
}

/// Which `(action, constraint)` pairs break conditional preservation
/// under one assumption, computed by [`violation_matrix`]: entry
/// `[a][ci]` is set iff some transition `s -a-> t` with `assuming(s)` has
/// `c_ci(s) ∧ ¬c_ci(t)`. Rows are multi-word masks, so any number of
/// constraints fits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationMatrix {
    constraints: usize,
    /// Words per action row: `constraints.div_ceil(64)`.
    stride: usize,
    /// Action-major rows of `stride` words each.
    words: Vec<u64>,
}

impl ViolationMatrix {
    /// Does `action` preserve constraint `ci` under the matrix's
    /// assumption? Equal to
    /// `preserves_given_bits(space, action, &c_bits[ci], assuming, _)?.is_none()`.
    ///
    /// # Panics
    ///
    /// Panics if `action` or `ci` is out of range.
    pub fn preserves(&self, action: ActionId, ci: usize) -> bool {
        assert!(ci < self.constraints, "constraint {ci} out of range");
        self.words[action.index() * self.stride + ci / 64] & (1 << (ci % 64)) == 0
    }
}

/// [`preserves_given_bits`] for every `(action, constraint)` pair at once:
/// one parallel sweep over the `assuming` states of `space` answers every
/// preservation query under that assumption.
///
/// `c_bits` are the constraint caches over exactly this `space`. At each
/// swept state only the constraints that hold there, and that the row's
/// action has not yet been seen to break, are tested at the successor.
/// Per-worker matrices are OR-merged, so the result is the same for every
/// thread count.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-sweep.
pub fn violation_matrix(
    space: &StateSpace,
    program: &Program,
    c_bits: &[Bitset],
    assuming: &Bitset,
    opts: CheckOptions,
) -> Result<ViolationMatrix, CheckError> {
    let constraints = c_bits.len();
    let stride = constraints.div_ceil(64);
    let size = program.action_count() * stride;
    let workers = opts.workers_for(space.len());
    let parts = run_chunks(space.len(), workers, |range| {
        let mut words = vec![0u64; size];
        let mut holds = vec![0u64; stride];
        for i in range {
            if !assuming.get(i) {
                continue;
            }
            holds.fill(0);
            for (ci, bits) in c_bits.iter().enumerate() {
                if bits.get(i) {
                    holds[ci / 64] |= 1 << (ci % 64);
                }
            }
            for (a, t) in space.successors(StateId::from_index(i)) {
                let row = &mut words[a.index() * stride..(a.index() + 1) * stride];
                for (w, (seen, &held)) in row.iter_mut().zip(&holds).enumerate() {
                    let mut open = held & !*seen;
                    while open != 0 {
                        let bit = open.trailing_zeros() as usize;
                        open &= open - 1;
                        if !c_bits[w * 64 + bit].contains(t) {
                            *seen |= 1 << bit;
                        }
                    }
                }
            }
        }
        words
    })?;
    let mut words = vec![0u64; size];
    for part in parts {
        for (w, p) in words.iter_mut().zip(part) {
            *w |= p;
        }
    }
    Ok(ViolationMatrix {
        constraints,
        stride,
        words,
    })
}

/// Is `pred` closed in `program` (preserved by *every* action)?
///
/// Returns the first violation found, or `None` when `pred` is closed.
/// This discharges the paper's Closure requirement for both the invariant
/// `S` and the fault-span `T`.
pub fn is_closed(
    space: &StateSpace,
    program: &Program,
    pred: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    is_closed_bits(
        space,
        program,
        &Bitset::for_predicate(space, pred, CheckOptions::default())?,
        CheckOptions::default(),
    )
}

/// [`is_closed`] over a precomputed predicate cache.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-scan.
pub fn is_closed_bits(
    space: &StateSpace,
    program: &Program,
    pred_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let everywhere = Bitset::ones(space.len());
    for a in program.action_ids() {
        if let Some(v) = preserves_given_bits(space, a, pred_bits, &everywhere, opts)? {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// [`is_closed`] without a resident transition relation: a single
/// work-stealing sweep over the [`SegmentedSpace`]'s plan, each segment
/// built, checked against every action's rows, and dropped. Use this when
/// the full CSR would exceed the memory budget.
///
/// The violation reported is the one at the **lowest state id** (then in
/// action order within that state) — every thread count and segment size
/// agrees on it. Note the monolithic [`is_closed`] orders by lowest
/// *action* first instead (it sweeps the space once per action); both are
/// deterministic, but the two entry points can surface different members
/// of the same violation set.
///
/// # Errors
///
/// [`SpaceError`] for segment-build failures (budget, domain escapes) or
/// worker panics.
pub fn is_closed_segmented(
    seg_space: &SegmentedSpace<'_>,
    pred_bits: &Bitset,
) -> Result<Option<Violation>, SpaceError> {
    let index = seg_space.index();
    let hit = seg_space.scan_find(|_, seg| {
        for i in seg.range() {
            if !pred_bits.get(i) {
                continue;
            }
            for (a, succ) in seg.successors(StateId::from_index(i)) {
                if !pred_bits.contains(succ) {
                    return Some((i, a, succ));
                }
            }
        }
        None
    })?;
    Ok(hit.map(|(i, action, succ)| Violation {
        action,
        before: index.state(StateId::from_index(i)),
        after: index.state(succ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::Domain;

    /// x, y in 0..=3; action `copy` sets y := x; action `bump` increments x
    /// (wrapping).
    fn program() -> Program {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        b.closure_action(
            "copy",
            [x, y],
            [y],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(y, v);
            },
        );
        b.closure_action(
            "bump",
            [x],
            [x],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(x, (v + 1) % 4);
            },
        );
        b.build()
    }

    #[test]
    fn copy_preserves_equality_bump_does_not() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
        let copy = p.action_ids().next().unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        assert!(preserves(&space, &p, copy, &eq).unwrap().is_none());
        let v = preserves(&space, &p, bump, &eq)
            .unwrap()
            .expect("bump breaks x=y");
        assert_eq!(v.action, bump);
        assert!(eq.holds(&v.before));
        assert!(!eq.holds(&v.after));
        assert!(v.render(&p).contains("bump"));
    }

    #[test]
    fn closure_of_trivial_predicates() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        assert!(is_closed(&space, &p, &Predicate::always_true())
            .unwrap()
            .is_none());
        // `false` is vacuously closed: it never holds before execution.
        assert!(is_closed(&space, &p, &Predicate::always_false())
            .unwrap()
            .is_none());
    }

    #[test]
    fn is_closed_finds_any_violator() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let x0 = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let v = is_closed(&space, &p, &x0)
            .unwrap()
            .expect("bump violates x=0");
        assert_eq!(p.action(v.action).name(), "bump");
    }

    #[test]
    fn conditional_preservation() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        // bump does not preserve y<=x in general (x wraps 3 -> 0) …
        let le = Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x));
        assert!(preserves(&space, &p, bump, &le).unwrap().is_some());
        // … but it does when assuming x<3 (no wrap happens).
        let small = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        assert!(preserves_given(&space, &p, bump, &le, &small)
            .unwrap()
            .is_none());
    }

    #[test]
    fn guard_restriction_matters() {
        // An action whose effect would break the predicate, but whose guard
        // never lets it run in predicate states, preserves the predicate.
        let mut b = Program::builder("g");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "wreck",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| s.set(x, 3),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let small = Predicate::new("x<=1", [x], move |s| s.get(x) <= 1);
        let a = p.action_ids().next().unwrap();
        assert!(preserves(&space, &p, a, &small).unwrap().is_none());
    }

    #[test]
    fn parallel_violation_matches_serial() {
        // A large space with many violations: every worker count must
        // report the sequentially-first witness.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let a = p.action_ids().next().unwrap();
        // "x is even" is broken at every even x < 9999.
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::serial()).unwrap();
        let everywhere = Bitset::ones(space.len());
        let serial = preserves_given_bits(&space, a, &bits, &everywhere, CheckOptions::serial())
            .unwrap()
            .unwrap();
        assert_eq!(serial.before.slots()[0], 0, "lowest-id witness");
        for threads in [2, 4, 8] {
            let par = preserves_given_bits(
                &space,
                a,
                &bits,
                &everywhere,
                CheckOptions::default().threads(threads),
            )
            .unwrap()
            .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn segmented_closure_matches_monolithic_verdict() {
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::default()).unwrap();
        // Broken at every even x: the segmented sweep must report the
        // lowest-id witness for every thread count and segment size.
        for threads in [1, 2, 8] {
            for seg in [512, 1000] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let seg_space = SegmentedSpace::new(&p, opts).unwrap();
                let v = is_closed_segmented(&seg_space, &bits)
                    .unwrap()
                    .expect("inc breaks evenness");
                assert_eq!(v.before.slots()[0], 0, "threads={threads} seg={seg}");
                assert_eq!(v.after.slots()[0], 1);
            }
        }
        // A closed predicate passes.
        let all = Bitset::ones(space.len());
        let seg_space = SegmentedSpace::new(&p, CheckOptions::default()).unwrap();
        assert!(is_closed_segmented(&seg_space, &all).unwrap().is_none());
    }

    #[test]
    fn poisoned_predicate_surfaces_as_worker_failed() {
        // A predicate that panics mid-scan must produce a typed error from
        // the public API, on both the serial and the threaded path.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let poisoned = Predicate::new("poisoned", [x], move |s| {
            if s.get(x) == 7777 {
                panic!("predicate poisoned at x=7777");
            }
            true
        });
        let err = is_closed(&space, &p, &poisoned).unwrap_err();
        assert!(
            matches!(err, CheckError::WorkerFailed { ref payload }
                if payload.contains("poisoned at x=7777")),
            "got {err:?}"
        );
        // Small spaces run the scan on the calling thread; the panic must
        // still be caught, not unwind through the caller.
        let mut b = Program::builder("small");
        let y = b.var("y", Domain::range(0, 3));
        let small = b.build();
        let small_space = StateSpace::enumerate(&small).unwrap();
        let always_panics = Predicate::new("boom", [y], |_| panic!("always boom"));
        let err = is_closed(&small_space, &small, &always_panics).unwrap_err();
        assert!(matches!(err, CheckError::WorkerFailed { .. }));
    }
}
