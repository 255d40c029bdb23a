//! Exhaustive verification of closure and convergence.
//!
//! The paper's design method discharges two proof obligations per program
//! (Section 3):
//!
//! - **Closure** — the invariant `S` and the fault-span `T` are closed
//!   under every program action; each closure action moreover preserves
//!   each individual constraint (the first antecedent of Theorems 1–3).
//! - **Convergence** — every computation starting in `T` reaches `S`.
//!
//! The paper discharges these by hand; this crate discharges them
//! mechanically for programs over bounded domains, by enumerating the full
//! state space:
//!
//! - [`StateSpace`] — enumeration and indexing of every state.
//! - [`closure`] — the *preservation oracle* (`does action a preserve
//!   predicate c?`), plain and conditional (Theorem 3's "whenever all
//!   constraints in lower-numbered partitions hold").
//! - [`convergence`] — convergence checking under an unfair daemon (no
//!   cycle may exist outside `S`) and under the paper's weakly fair daemon
//!   (no *fair-admissible* cycle may exist: a strongly connected component
//!   every always-enabled action of which can be executed without leaving
//!   the component).
//! - [`bounds`] — worst-case convergence move counts and variant-function
//!   validation (the concluding remarks' discussion of variant functions).
//!
//! # Performance model
//!
//! State ids are assigned *arithmetically*: a state's id is its mixed-radix
//! enumeration position, so reverse lookup ([`StateSpace::id_of`]) is a few
//! multiply-adds with no hash map, and the forward direction means states
//! are never materialized — [`StateSpace::state`] decodes any state from
//! its id on demand, and hot loops decode into reusable scratch buffers
//! ([`StateSpace::decode_state`]). Transitions live in flat CSR arrays
//! (`offsets` + parallel `actions`/`succs` columns): resident memory is
//! 4 bytes per state plus 8 per transition, gated by an explicit
//! [`CheckOptions::memory_budget`] instead of a blunt state-count cap (see
//! the [`space`] module docs).
//!
//! Every state-space sweep — enumeration, transition construction,
//! predicate evaluation, closure, the convergence region analysis, and the
//! bounds region build — runs in parallel, controlled by
//! [`CheckOptions::threads`]; results are **bit-identical for every thread
//! count** because per-task results are reduced in task order (the
//! lowest-id witness always wins). Predicates are evaluated once per state
//! into [`Bitset`] caches (`*_bits` function variants) that callers can
//! share across passes and compose with bitwise `and`/`not`. Convergence
//! peels the region down to the states that can stay in it forever before
//! running any SCC analysis, so the Tarjan pass vanishes in the common
//! converging case (see the [`convergence`] module docs).
//!
//! ## Out-of-core: segments, work-stealing, and the frontier
//!
//! When the whole CSR table does not fit the memory budget, the id range
//! splits into contiguous **segments** ([`SegmentPlan`], [`segment`]):
//! each segment's offsets/actions/succs columns are built independently
//! from the arithmetic index, scanned, and dropped, so resident memory is
//! one segment per worker instead of the whole table. Workers claim
//! segments through a **work-stealing** scheduler (an atomic claim
//! counter; no fixed chunk assignment), which keeps the cores busy even
//! when transition density is skewed across the id range — and because
//! per-segment results are still merged in segment order, verdicts and
//! witnesses remain bit-identical for every thread count and claim order.
//! [`SegmentedSpace`] exposes the scan/find primitives;
//! [`closure::is_closed_segmented`] is closure checking on top of them.
//!
//! For convergence-only queries on such instances, the **frontier** mode
//! ([`frontier`], [`check_convergence_frontier`]) goes further and never
//! materializes transitions at all: it runs the Kahn-style peel as a
//! round-based fixpoint over per-segment row buffers, decoding successors
//! on demand, with four bitsets of live memory plus whatever rows fit the
//! memory budget between rounds. Its verdicts, witnesses,
//! and statistics are bit-identical to the resident checker's.
//!
//! # Example: verifying a tiny stabilizing program
//!
//! ```
//! use nonmask_program::{Domain, Predicate, Program};
//! use nonmask_checker::{StateSpace, convergence::{check_convergence, Fairness, ConvergenceResult}};
//!
//! // One variable that convergence actions drive to 0.
//! let mut b = Program::builder("to-zero");
//! let x = b.var("x", Domain::range(0, 3));
//! b.convergence_action("dec", [x], [x], move |s| s.get(x) > 0, move |s| {
//!     let v = s.get(x);
//!     s.set(x, v - 1);
//! });
//! let p = b.build();
//! let space = StateSpace::enumerate(&p).unwrap();
//! let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
//! let t = Predicate::always_true();
//! let result = check_convergence(&space, &p, &t, &s, Fairness::WeaklyFair).unwrap();
//! assert!(matches!(result, ConvergenceResult::Converges));
//! ```
//!
//! # Observability
//!
//! Passes accept a [`nonmask_obs::Journal`] through the `*_journaled` /
//! `*_stats` variants ([`StateSpace::enumerate_journaled`],
//! [`convergence::check_convergence_stats`]) and emit structured JSON-lines
//! events (CSR build phases, convergence wave sizes). [`CheckCounters`]
//! aggregates per-pass work counts for reports. With the default disabled
//! journal no event is ever formatted, so instrumented paths cost
//! near-nothing.
//!
//! A panic in a caller-supplied closure (predicate, guard, action body) no
//! longer aborts the process: every public entry point returns
//! [`CheckError::WorkerFailed`] with the captured payload instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod closure;
pub mod containment;
pub mod convergence;
pub mod counters;
pub mod error;
pub mod expected;
pub mod frontier;
pub mod options;
pub mod oracle;
pub mod replay;
pub mod segment;
pub mod space;
pub mod span;

pub use bounds::{check_variant, worst_case_moves, worst_case_moves_bits, VariantReport};
pub use cache::{Bitset, OnesIter};
pub use closure::{
    is_closed, is_closed_bits, is_closed_segmented, preserves, preserves_given,
    preserves_given_bits, violation_matrix, Violation, ViolationMatrix,
};
pub use containment::{certify_containment, ContainmentVerdict};
pub use convergence::{
    check_convergence, check_convergence_bits, check_convergence_opts, check_convergence_stats,
    shortest_path_to, ConvergenceResult, ConvergenceStats, Fairness, PathStep,
};
pub use counters::CheckCounters;
pub use error::CheckError;
pub use expected::{expected_moves, ExpectedMoves};
pub use frontier::{
    check_convergence_frontier, check_convergence_frontier_bits_stats,
    check_convergence_frontier_opts, check_convergence_frontier_stats, FrontierStats,
};
pub use options::{
    steal_find, steal_tasks, CheckOptions, SegmentPlan, DEFAULT_MEMORY_BUDGET,
    DEFAULT_SEGMENT_STATES,
};
pub use oracle::{attribute_constraints, ConstraintAttribution, StepFault, StepOracle};
pub use replay::{repair_path, replay_constraints, ConstraintTransition};
pub use segment::{Segment, SegmentedSpace};
pub use space::{
    SpaceError, SpaceIndex, StateId, StateSpace, Transitions, TransitionsIter, DEFAULT_STATE_LIMIT,
};
pub use span::{compute_fault_span, compute_fault_span_opts, StateSet};
