//! Message-passing refinement of guarded-command programs.
//!
//! The paper designs its protocols in a shared-memory model where an
//! action reads the state of a process and at most one neighbour, and
//! notes that "refinement of this program into one where the neighboring
//! processes communicate via message passing is left as an exercise to the
//! reader" (§7.1) and that low-atomicity refinements are studied in a
//! companion paper (§8). This crate is that exercise, as a substrate for
//! the reproduction experiments:
//!
//! - [`Refinement`] — validates that a program is *refinable* (every
//!   action writes the variables of a single process) and extracts the
//!   ownership and readership structure from declared read/write sets.
//! - [`Simulation`] — a deterministic round-based engine: every process
//!   holds authoritative copies of its own variables and possibly-stale
//!   *caches* of the remote variables its actions read; writes are
//!   propagated to readers through FIFO channels with configurable delay
//!   and loss; faults corrupt node state at runtime.
//! - [`EventSim`] — an event-driven (continuous virtual time) engine:
//!   processes wake at random times and messages carry random latencies,
//!   so nothing is synchronized — the harshest deterministic schedule
//!   model here.
//!
//! The `nonmask-net` crate takes the same [`Refinement`] one step
//! further: concurrent nodes whose *only* channel is a TCP loopback
//! socket, each acting on its own possibly-stale local view (the
//! low-atomicity refinement of §8), with fault-injecting transport and
//! runtime stabilization detection — the refinement over a real network
//! stack.
//!
//! The engine never consults global state to *execute* — only to *measure*
//! (stabilization detection uses the god's-eye [`Simulation::ground_truth`]
//! assembled from authoritative slots, exactly like the paper's proofs
//! quantify over the real state).
//!
//! # Example
//!
//! ```
//! use nonmask_program::{Domain, Predicate, ProcessId, Program};
//! use nonmask_sim::{Refinement, SimConfig, Simulation};
//!
//! // A two-process program: each process copies the other's bit.
//! let mut b = Program::builder("copycat");
//! let a = b.var_of("a", Domain::Bool, ProcessId(0));
//! let c = b.var_of("c", Domain::Bool, ProcessId(1));
//! b.combined_action("copy@1", [a, c], [c],
//!     move |s| s.get(a) != s.get(c),
//!     move |s| { let v = s.get(a); s.set(c, v); });
//! let p = b.build();
//!
//! let refinement = Refinement::new(&p)?;
//! let mut sim = Simulation::new(&p, refinement, p.state_from([1, 0]).unwrap(),
//!     SimConfig::default());
//! let equal = Predicate::new("a=c", [a, c], move |s| s.get(a) == s.get(c));
//! let report = sim.run_until_stable(&equal, 1);
//! assert!(report.stabilized_at_round.is_some());
//! # Ok::<(), nonmask_sim::RefineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod refine;

pub use engine::{SimConfig, SimReport, Simulation};
pub use events::{EventConfig, EventReport, EventSim};
pub use refine::{RefineError, Refinement};
