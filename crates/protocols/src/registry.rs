//! The protocol registry: one place that turns a protocol family and its
//! parameters into the paper's design tuple.
//!
//! In the paper (§4–§5) a design is four things: a program, its
//! invariant, the invariant's constraint decomposition, and one
//! convergence action per constraint. [`Protocol::spec`] builds exactly
//! that tuple as a [`ProtocolSpec`]; the conformance harness, the fleet
//! and the `nonmask-run` CLI all read it from here instead of building
//! their own copies, so a protocol's key, program, goal and constraints
//! cannot drift between layers.
//!
//! ```
//! use nonmask_protocols::registry::Protocol;
//!
//! let spec = Protocol::TokenRing { nodes: 4, k: 4 }.spec();
//! assert_eq!(spec.name, "token-ring-4x4");
//! assert_eq!(spec.constraints.len(), 3);
//! ```

use nonmask_graph::Topology;
use nonmask_program::{ActionId, Predicate, Program};

use crate::coloring::TreeColoring;
use crate::diffusing::DiffusingComputation;
use crate::token_ring::TokenRing;
use crate::{MinPlusOne, SpanningTree, Tree};

/// Every protocol family the registry builds, with a one-line summary:
/// the names `nonmask-run` accepts and `nonmask-run --list` prints.
pub const FAMILIES: [(&str, &str); 5] = [
    ("token-ring", "Dijkstra's K-state token ring"),
    ("diffusing", "diffusing computation on a binary tree"),
    ("coloring", "proper 3-coloring of a binary tree (silent)"),
    ("bfs", "min+1 BFS distances on a random connected graph"),
    ("spanning-tree", "BFS spanning tree on a ring"),
];

/// One protocol as every layer sees it: the guarded-command program,
/// the stabilization goal, the §4 constraint decomposition, and the
/// *designated* repair pairs — which convergence action the design
/// holds responsible for re-establishing which constraint. The
/// conformance harness cross-validates the designation against the
/// checker's own constraint attribution, so a spec cannot silently
/// claim repairs the transition relation does not deliver.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Registry key (`token-ring-4x4`, `diffusing-7`, ...).
    pub name: String,
    /// The reference program — the transition relation the checker
    /// enumerates and every executed step is validated against.
    pub program: Program,
    /// The stabilization goal (the protocol invariant).
    pub goal: Predicate,
    /// The constraint decomposition `c.1 ... c.m` from the paper's §4.
    pub constraints: Vec<Predicate>,
    /// Designated repair pairs: `(action, constraint index)` means the
    /// design holds `action` responsible for re-establishing
    /// `constraints[index]` whenever it executes.
    pub designated: Vec<(ActionId, usize)>,
}

/// A protocol family with its parameters — the `(protocol, parameters)`
/// pair that keys the fleet's verdict cache and names a corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Protocol {
    /// Dijkstra's K-state token ring (`nodes` processes, counter
    /// modulus `k`).
    TokenRing {
        /// Ring size.
        nodes: usize,
        /// Counter modulus (`k >= nodes` for self-stabilization).
        k: i64,
    },
    /// Diffusing computation on a binary tree of `nodes` nodes.
    Diffusing {
        /// Tree size.
        nodes: usize,
    },
    /// Tree coloring on a binary tree of `nodes` nodes with `colors`
    /// colors.
    Coloring {
        /// Tree size.
        nodes: usize,
        /// Number of colors.
        colors: i64,
    },
    /// Min+1 BFS distances (root 0, byzantine-free) on
    /// `Topology::random_connected(nodes, 2, 1)`.
    Bfs {
        /// Graph size.
        nodes: usize,
    },
    /// BFS spanning tree (root 0, lowest-id tie-break, byzantine-free)
    /// on `Topology::ring(nodes)`.
    SpanningTree {
        /// Ring size.
        nodes: usize,
    },
}

impl Protocol {
    /// The protocol of family `family` (a name from [`FAMILIES`]) on
    /// `nodes` nodes. `k` is the token ring's modulus (default `nodes`)
    /// and is ignored by the other families; every other parameter is
    /// the corpus instance's (3 colors, the corpus topologies).
    ///
    /// # Errors
    ///
    /// An unknown family, or a size the family cannot build.
    pub fn from_family(family: &str, nodes: usize, k: Option<i64>) -> Result<Self, String> {
        let (protocol, min_nodes) = match family {
            "token-ring" => {
                let k = k.unwrap_or(nodes as i64);
                (Protocol::TokenRing { nodes, k }, 2)
            }
            "diffusing" => (Protocol::Diffusing { nodes }, 1),
            "coloring" => (Protocol::Coloring { nodes, colors: 3 }, 1),
            "bfs" => (Protocol::Bfs { nodes }, 2),
            "spanning-tree" => (Protocol::SpanningTree { nodes }, 2),
            other => {
                let known: Vec<&str> = FAMILIES.iter().map(|(name, _)| *name).collect();
                return Err(format!("unknown protocol `{other}` ({})", known.join(", ")));
            }
        };
        if nodes < min_nodes {
            return Err(format!("{family} needs nodes >= {min_nodes}"));
        }
        if matches!(protocol, Protocol::TokenRing { k, .. } if k < 2) {
            return Err("token-ring needs a modulus k >= 2".to_owned());
        }
        Ok(protocol)
    }

    /// The registry key: family plus parameters, stable across runs.
    /// Fleet digests hash these strings, so they must never change.
    pub fn key(&self) -> String {
        match *self {
            Protocol::TokenRing { nodes, k } => format!("token-ring-{nodes}x{k}"),
            Protocol::Diffusing { nodes } => format!("diffusing-{nodes}"),
            Protocol::Coloring { nodes, colors } => format!("coloring-{nodes}c{colors}"),
            Protocol::Bfs { nodes } => format!("bfs-{nodes}"),
            Protocol::SpanningTree { nodes } => format!("spanning-tree-{nodes}"),
        }
    }

    /// Build the design tuple: program, goal, constraints and
    /// designated repairs, named by [`Protocol::key`].
    pub fn spec(&self) -> ProtocolSpec {
        let name = self.key();
        match *self {
            // Constraints are the agreement boundaries
            // `c.j ≡ x.j = x.(j-1)` for `j = 1..n`; the designated repair
            // of `c.j` is `pass@j`, whose effect `x.j := x.(j-1)`
            // re-establishes the boundary from any state.
            Protocol::TokenRing { nodes, k } => {
                let ring = TokenRing::new(nodes, k);
                let repairs = (1..nodes).map(|j| {
                    let xj = ring.counter_var(j);
                    let xp = ring.counter_var(j - 1);
                    let c =
                        Predicate::new(format!("c.{j}"), [xj, xp], move |s| s.get(xj) == s.get(xp));
                    Some((ring.pass_action(j), c))
                });
                assemble(name, ring.program(), ring.invariant(), repairs)
            }
            // Constraints are the per-node `R.j` predicates; the
            // designated repair of `R.j` is the combined
            // propagate/repair action at `j` (the root has no
            // constraint — its actions drive the wave).
            Protocol::Diffusing { nodes } => {
                let dc = DiffusingComputation::new(&Tree::binary(nodes));
                let repairs = (0..nodes).map(|j| Some((dc.combined_action(j)?, dc.constraint(j))));
                assemble(name, dc.program(), dc.invariant(), repairs)
            }
            // Constraints are the per-edge `R.j ≡ c.j ≠ c.(P.j)`
            // predicates; the designated repair of `R.j` is `recolor@j`.
            // Unlike the wave protocols this design is *silent* inside
            // the invariant, so runs exercise the termination path of
            // every execution layer.
            Protocol::Coloring { nodes, colors } => {
                let tc = TreeColoring::new(&Tree::binary(nodes), colors);
                let repairs = (1..nodes).map(|j| Some((tc.recolor_action(j)?, tc.constraint(j))));
                assemble(name, tc.program(), tc.invariant(), repairs)
            }
            // Constraints are the per-node min+1 equations `c.j`; the
            // designated repair of `c.j` is `fix@j` (`anchor@root` at
            // the root), whose effect rewrites `d.j` to the equation's
            // value.
            Protocol::Bfs { nodes } => {
                let proto = MinPlusOne::new(&Topology::random_connected(nodes, 2, 1), 0);
                let repairs = (0..nodes).map(|j| Some((proto.fix_action(j)?, proto.constraint(j))));
                assemble(name, proto.program(), proto.invariant(), repairs)
            }
            // Constraints are the per-node BFS equations over both
            // variables; the designated repair of `c.j` is the node's
            // single combined repair action.
            Protocol::SpanningTree { nodes } => {
                let proto = SpanningTree::new(&Topology::ring(nodes), 0);
                let repairs = (0..nodes).map(|j| Some((proto.fix_action(j)?, proto.constraint(j))));
                assemble(name, proto.program(), proto.invariant(), repairs)
            }
        }
    }

    /// The conformance corpus: the worked designs of the paper that
    /// every execution layer can refine, one instance per family.
    /// Byzantine containment has its own battery (`nonmask-run
    /// byzantine`); these instances are byzantine-free.
    pub fn corpus() -> Vec<Protocol> {
        vec![
            Protocol::TokenRing { nodes: 4, k: 4 },
            Protocol::Diffusing { nodes: 7 },
            Protocol::Coloring {
                nodes: 7,
                colors: 3,
            },
            Protocol::Bfs { nodes: 6 },
            Protocol::SpanningTree { nodes: 4 },
        ]
    }

    /// Eight distinct small token-ring configurations (3–5 nodes).
    ///
    /// The fleet default: every instance keeps at most five variables,
    /// so per-tenant storage (state slots + metadata) stays within the
    /// 64-byte budget, and eight distinct cache keys exercise the
    /// verdict cache's miss path more than once.
    pub fn ring_mix() -> Vec<Protocol> {
        [
            (3, 3),
            (4, 4),
            (5, 5),
            (4, 5),
            (5, 4),
            (3, 4),
            (4, 3),
            (5, 6),
        ]
        .into_iter()
        .map(|(nodes, k)| Protocol::TokenRing { nodes, k })
        .collect()
    }

    /// A heterogeneous fleet mix: rings plus tree protocols. Larger
    /// per-tenant state (the arena stride follows the widest program),
    /// but three protocol families share one fleet.
    pub fn mixed() -> Vec<Protocol> {
        vec![
            Protocol::TokenRing { nodes: 4, k: 4 },
            Protocol::TokenRing { nodes: 5, k: 5 },
            Protocol::Diffusing { nodes: 7 },
            Protocol::Coloring {
                nodes: 7,
                colors: 3,
            },
        ]
    }
}

/// A spec whose `i`-th constraint is designated to the `i`-th repair;
/// nodes without a repair (`None`) carry no constraint.
fn assemble(
    name: String,
    program: &Program,
    goal: Predicate,
    repairs: impl Iterator<Item = Option<(ActionId, Predicate)>>,
) -> ProtocolSpec {
    let (designated, constraints) = repairs
        .flatten()
        .enumerate()
        .map(|(i, (action, c))| ((action, i), c))
        .unzip();
    ProtocolSpec {
        name,
        program: program.clone(),
        goal,
        constraints,
        designated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_spec_is_well_formed() {
        // (family, nodes, key, constraint count) of each corpus instance:
        // the token ring has one boundary per non-root node, diffusing
        // skips the root, coloring has one constraint per tree edge, and
        // BFS and the spanning tree carry one equation per node, root
        // included.
        let table = [
            ("token-ring", 4, "token-ring-4x4", 3),
            ("diffusing", 7, "diffusing-7", 6),
            ("coloring", 7, "coloring-7c3", 6),
            ("bfs", 6, "bfs-6", 6),
            ("spanning-tree", 4, "spanning-tree-4", 4),
        ];
        assert_eq!(FAMILIES.map(|(name, _)| name), table.map(|row| row.0));
        let mut names = std::collections::HashSet::new();
        for ((family, nodes, key, count), protocol) in table.into_iter().zip(Protocol::corpus()) {
            assert_eq!(
                Protocol::from_family(family, nodes, None),
                Ok(protocol.clone())
            );
            let spec = protocol.spec();
            assert_eq!(spec.name, key);
            assert!(names.insert(spec.name.clone()), "{key}: duplicate name");
            assert_eq!(spec.constraints.len(), count, "{key}");
            assert_eq!(spec.designated.len(), count, "{key}");
            for &(_, c) in &spec.designated {
                assert!(c < spec.constraints.len(), "{key}: index {c}");
            }
        }
        assert_eq!(Protocol::corpus().len(), table.len());
        assert_eq!(
            Protocol::TokenRing { nodes: 4, k: 5 }.key(),
            "token-ring-4x5"
        );
        assert!(Protocol::from_family("token-ring", 1, None).is_err());
        assert!(Protocol::from_family("token-ring", 4, Some(1)).is_err());
        assert!(Protocol::from_family("ring", 4, None).is_err());
        // Fleet digest inputs: the fleet hashes these keys in this
        // order, so changing either changes every recorded digest.
        assert_eq!(
            Protocol::mixed()
                .iter()
                .map(Protocol::key)
                .collect::<Vec<_>>(),
            [
                "token-ring-4x4",
                "token-ring-5x5",
                "diffusing-7",
                "coloring-7c3"
            ]
        );
    }
}
