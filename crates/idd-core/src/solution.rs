//! Candidate solutions: index deployment orders.

use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::types::IndexId;
use serde::{Deserialize, Serialize};

/// A deployment order — a permutation of the instance's indexes.
///
/// Position 0 is deployed first. This corresponds to the paper's decision
/// variable `T` (with `T_i` being the position of index `i`); we store the
/// inverse mapping (position → index) because that is what evaluators and
/// local-search moves consume, and expose `position_of` for the `T_i` view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deployment {
    order: Vec<IndexId>,
}

impl Deployment {
    /// Creates a deployment from an explicit order (position → index).
    pub fn new(order: Vec<IndexId>) -> Self {
        Self { order }
    }

    /// The identity order `i0 → i1 → ... → i(n-1)`.
    pub fn identity(n: usize) -> Self {
        Self {
            order: (0..n).map(IndexId::new).collect(),
        }
    }

    /// Creates a deployment from raw positions (position → raw index id).
    pub fn from_raw(order: impl IntoIterator<Item = usize>) -> Self {
        Self {
            order: order.into_iter().map(IndexId::new).collect(),
        }
    }

    /// Number of indexes in the order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The index deployed at `position` (0-based).
    pub fn at(&self, position: usize) -> IndexId {
        self.order[position]
    }

    /// The full order as a slice (position → index).
    pub fn order(&self) -> &[IndexId] {
        &self.order
    }

    /// The position of each index (`T_i` in the paper), as a vector keyed by
    /// raw index id.
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.order.len()];
        for (p, &i) in self.order.iter().enumerate() {
            if i.raw() < pos.len() {
                pos[i.raw()] = p;
            }
        }
        pos
    }

    /// The position of one index, or `None` if it does not appear.
    pub fn position_of(&self, index: IndexId) -> Option<usize> {
        self.order.iter().position(|&i| i == index)
    }

    /// Swaps the indexes at two positions (a local-search move).
    pub fn swap(&mut self, a: usize, b: usize) {
        self.order.swap(a, b);
    }

    /// Returns a copy with two positions swapped.
    pub fn with_swap(&self, a: usize, b: usize) -> Self {
        let mut c = self.clone();
        c.swap(a, b);
        c
    }

    /// Moves the index at position `from` to position `to`, shifting the
    /// intermediate indexes (an *insertion* move).
    pub fn relocate(&mut self, from: usize, to: usize) {
        let idx = self.order.remove(from);
        self.order.insert(to, idx);
    }

    /// Concatenates a frozen prefix and a suffix into one order (mid-flight
    /// replanning: the built prefix is taken verbatim, never reordered).
    pub fn splice(prefix: &[IndexId], suffix: &[IndexId]) -> Self {
        let mut order = Vec::with_capacity(prefix.len() + suffix.len());
        order.extend_from_slice(prefix);
        order.extend_from_slice(suffix);
        Self { order }
    }

    /// `true` when this order begins with exactly `prefix` (the
    /// prefix-immutability check of the deployment runtime).
    pub fn starts_with(&self, prefix: &[IndexId]) -> bool {
        self.order.len() >= prefix.len() && self.order[..prefix.len()] == *prefix
    }

    /// Iterates over `(position, index)` pairs in deployment order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, IndexId)> + '_ {
        self.order.iter().copied().enumerate()
    }

    /// Checks that this deployment is a permutation of exactly the instance's
    /// indexes and respects every hard precedence constraint.
    pub fn validate(&self, instance: &ProblemInstance) -> Result<()> {
        let n = instance.num_indexes();
        if self.order.len() != n {
            return Err(CoreError::NotAPermutation {
                reason: format!("expected {n} indexes, got {}", self.order.len()),
            });
        }
        let mut seen = vec![false; n];
        for &i in &self.order {
            if i.raw() >= n {
                return Err(CoreError::NotAPermutation {
                    reason: format!("index {i} is out of range"),
                });
            }
            if seen[i.raw()] {
                return Err(CoreError::NotAPermutation {
                    reason: format!("index {i} appears twice"),
                });
            }
            seen[i.raw()] = true;
        }
        let positions = self.positions();
        for pr in instance.precedences() {
            if positions[pr.before.raw()] > positions[pr.after.raw()] {
                return Err(CoreError::PrecedenceViolated {
                    before: pr.before,
                    after: pr.after,
                });
            }
        }
        Ok(())
    }

    /// Returns `true` when [`Deployment::validate`] succeeds.
    pub fn is_valid_for(&self, instance: &ProblemInstance) -> bool {
        self.validate(instance).is_ok()
    }

    /// Renders the order in the paper's arrow notation, e.g. `"i3→i1→i2"`.
    pub fn arrow_notation(&self) -> String {
        self.order
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("→")
    }
}

impl From<Vec<IndexId>> for Deployment {
    fn from(order: Vec<IndexId>) -> Self {
        Self::new(order)
    }
}

impl std::ops::Index<usize> for Deployment {
    type Output = IndexId;

    fn index(&self, position: usize) -> &IndexId {
        &self.order[position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("t");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let _i2 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0, i1], 5.0);
        b.add_precedence(i0, i1);
        b.build().unwrap()
    }

    #[test]
    fn identity_is_valid_when_precedence_agrees() {
        let inst = small_instance();
        let d = Deployment::identity(3);
        assert!(d.is_valid_for(&inst));
        assert_eq!(d.arrow_notation(), "i0→i1→i2");
    }

    #[test]
    fn precedence_violation_is_detected() {
        let inst = small_instance();
        let d = Deployment::from_raw([1, 0, 2]);
        assert!(matches!(
            d.validate(&inst),
            Err(CoreError::PrecedenceViolated { .. })
        ));
    }

    #[test]
    fn duplicate_and_wrong_length_are_rejected() {
        let inst = small_instance();
        assert!(!Deployment::from_raw([0, 0, 1]).is_valid_for(&inst));
        assert!(!Deployment::from_raw([0, 1]).is_valid_for(&inst));
        assert!(!Deployment::from_raw([0, 1, 5]).is_valid_for(&inst));
    }

    #[test]
    fn positions_are_the_inverse_of_order() {
        let d = Deployment::from_raw([2, 0, 1]);
        assert_eq!(d.positions(), vec![1, 2, 0]);
        assert_eq!(d.position_of(IndexId::new(2)), Some(0));
        assert_eq!(d.position_of(IndexId::new(7)), None);
    }

    #[test]
    fn swap_and_relocate_move_indexes() {
        let mut d = Deployment::from_raw([0, 1, 2, 3]);
        d.swap(0, 3);
        assert_eq!(d.order(), &[3, 1, 2, 0].map(IndexId::new));
        d.relocate(1, 3);
        assert_eq!(d.order(), &[3, 2, 0, 1].map(IndexId::new));
        let e = d.with_swap(0, 1);
        assert_eq!(e.at(0), IndexId::new(2));
        // Original untouched.
        assert_eq!(d.at(0), IndexId::new(3));
    }

    #[test]
    fn splice_keeps_the_prefix_verbatim() {
        let prefix = [IndexId::new(2), IndexId::new(0)];
        let suffix = [IndexId::new(1), IndexId::new(3)];
        let d = Deployment::splice(&prefix, &suffix);
        assert_eq!(d.order(), &[2, 0, 1, 3].map(IndexId::new));
        assert!(d.starts_with(&prefix));
        assert!(d.starts_with(&[]));
        assert!(!d.starts_with(&[IndexId::new(0)]));
        assert!(!Deployment::from_raw([1]).starts_with(&prefix));
    }

    #[test]
    fn serde_round_trip() {
        let d = Deployment::from_raw([2, 1, 0]);
        let json = serde_json::to_string(&d).unwrap();
        let back: Deployment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
