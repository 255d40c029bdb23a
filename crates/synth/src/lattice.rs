//! The constraint implication lattice: deriving Theorem 3's hierarchical
//! partition from extensions alone.
//!
//! Over the spec's state space each constraint is a [`Bitset`]; strict
//! extension inclusion `ext(c.i) ⊂ ext(c.j)` means `c.i` *implies* `c.j`
//! — `c.j` is the weaker constraint and must be established first, so it
//! belongs to a strictly lower layer. The layer of a constraint is the
//! length of the longest strict-implication chain below it (equal
//! extensions condense to one node for free: they have identical chains).
//!
//! For the windowed token ring this recovers the paper's two-layer
//! partition — every `x.(j-1) = x.j` strictly implies its
//! `x.(j-1) ≥ x.j` — and for decompositions with incomparable
//! constraints (diffusing, coloring) it degenerates to a single layer,
//! exactly when Theorem 3 adds nothing over Theorems 1/2.

use nonmask_checker::Bitset;

/// The derived hierarchy. Layers are lowest-first; within a layer
/// constraints keep their spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicationLattice {
    /// Constraint indices per layer, lowest layer first.
    pub layers: Vec<Vec<usize>>,
    /// `layer_of[i]` is the layer index of constraint `i`.
    pub layer_of: Vec<usize>,
}

impl ImplicationLattice {
    /// Constraint indices in layers strictly below constraint `i`'s.
    pub fn lower(&self, i: usize) -> Vec<usize> {
        let l = self.layer_of[i];
        self.layers[..l].iter().flatten().copied().collect()
    }
}

/// Whether `a ⊆ b` as state sets.
fn subset(a: &Bitset, b: &Bitset) -> bool {
    a.and(&b.not()).count_ones() == 0
}

/// Classify constraint extensions into the implication lattice.
///
/// Strict implication is a strict partial order, so the longest-chain
/// recursion terminates; the result depends only on the extensions, never
/// on thread count or evaluation order.
pub fn classify(bits: &[Bitset]) -> ImplicationLattice {
    let k = bits.len();
    let mut strict = vec![vec![false; k]; k];
    for i in 0..k {
        for j in 0..k {
            if i != j && subset(&bits[i], &bits[j]) && !subset(&bits[j], &bits[i]) {
                strict[i][j] = true;
            }
        }
    }

    fn depth_of(i: usize, strict: &[Vec<bool>], memo: &mut [Option<usize>]) -> usize {
        if let Some(d) = memo[i] {
            return d;
        }
        let mut d = 0;
        for j in 0..strict.len() {
            if strict[i][j] {
                d = d.max(1 + depth_of(j, strict, memo));
            }
        }
        memo[i] = Some(d);
        d
    }

    let mut memo = vec![None; k];
    let layer_of: Vec<usize> = (0..k).map(|i| depth_of(i, &strict, &mut memo)).collect();
    let depth = layer_of.iter().copied().max().map_or(0, |d| d + 1);
    let mut layers = vec![Vec::new(); depth];
    for (i, &l) in layer_of.iter().enumerate() {
        layers[l].push(i);
    }
    ImplicationLattice { layers, layer_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitset over `len` states with exactly `members` set.
    fn set(len: usize, members: &[usize]) -> Bitset {
        let mut b = Bitset::zeros(len);
        for &m in members {
            b.set(m);
        }
        b
    }

    #[test]
    fn incomparable_constraints_share_one_layer() {
        let bits = vec![set(8, &[0, 1]), set(8, &[2, 3]), set(8, &[1, 2])];
        let lat = classify(&bits);
        assert_eq!(lat.layers, vec![vec![0, 1, 2]]);
        assert!(lat.lower(0).is_empty());
    }

    #[test]
    fn strict_chains_become_layers() {
        // c0 ⊂ c1 ⊂ c2: c2 is weakest → layer 0, c0 strongest → layer 2.
        let bits = vec![set(8, &[0]), set(8, &[0, 1]), set(8, &[0, 1, 2])];
        let lat = classify(&bits);
        assert_eq!(lat.layers, vec![vec![2], vec![1], vec![0]]);
        assert_eq!(lat.lower(0), vec![2, 1]);
        assert_eq!(lat.lower(1), vec![2]);
    }

    #[test]
    fn equal_extensions_condense_to_one_layer_slot() {
        let bits = vec![set(8, &[0, 1]), set(8, &[0, 1]), set(8, &[0, 1, 2])];
        let lat = classify(&bits);
        assert_eq!(lat.layers, vec![vec![2], vec![0, 1]]);
    }

    #[test]
    fn token_ring_shape_two_strata() {
        // Three "ge"-like weak constraints, three "eq"-like strict subsets.
        let u = 16;
        let ge: Vec<Bitset> = (0..3).map(|i| set(u, &[i, i + 4, i + 8, 12])).collect();
        let eq: Vec<Bitset> = (0..3).map(|i| set(u, &[i, 12])).collect();
        let bits: Vec<Bitset> = ge.into_iter().chain(eq).collect();
        let lat = classify(&bits);
        assert_eq!(lat.layers, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(lat.lower(4), vec![0, 1, 2]);
    }
}
