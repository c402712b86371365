//! Multi-level (taxonomy-aware) frequent-pattern mining.
//!
//! The paper's pattern component builds on MeTA ("Characterization of
//! Medical Treatments at Different Abstraction Levels", ACM TIST 2015):
//! when leaf-level exams are too rare to clear the support threshold,
//! patterns should still surface at the condition-group or clinical-
//! domain level. Following Srikant & Agrawal's generalized-rule
//! technique, every transaction is *extended* with the ancestors of its
//! items and mined with FP-growth; itemsets that pair an item with its
//! own ancestor (trivially implied) are pruned.

use super::{fpgrowth, normalize_transaction, FrequentItemset, Item, Transaction};

/// An item hierarchy: `parent[i]` is the parent of item `i`, or `None`
/// at a root. Item ids must cover leaves and internal nodes in one dense
/// space (e.g. exams `0..159`, condition groups `159..169`, domains
/// `169..173`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemHierarchy {
    parent: Vec<Option<Item>>,
}

impl ItemHierarchy {
    /// Creates a hierarchy from the parent map.
    ///
    /// # Panics
    /// Panics when a parent id is out of range or the map contains a
    /// cycle.
    pub fn new(parent: Vec<Option<Item>>) -> Self {
        let n = parent.len();
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert!((*p as usize) < n, "parent {p} of {i} out of range");
            }
        }
        let h = Self { parent };
        // Cycle check: walking up from any node must terminate.
        for i in 0..n {
            let mut steps = 0;
            let mut cur = Some(i as Item);
            while let Some(c) = cur {
                cur = h.parent_of(c);
                steps += 1;
                assert!(steps <= n, "cycle detected at item {i}");
            }
        }
        h
    }

    /// Number of items (leaves + internal nodes).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the hierarchy is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `item`, or `None` at a root.
    pub fn parent_of(&self, item: Item) -> Option<Item> {
        self.parent.get(item as usize).copied().flatten()
    }

    /// All strict ancestors of `item`, nearest first.
    pub fn ancestors_of(&self, item: Item) -> Vec<Item> {
        let mut out = Vec::new();
        let mut cur = self.parent_of(item);
        while let Some(c) = cur {
            out.push(c);
            cur = self.parent_of(c);
        }
        out
    }

    /// True when `ancestor` is a strict ancestor of `item`.
    pub fn is_ancestor(&self, ancestor: Item, item: Item) -> bool {
        self.ancestors_of(item).contains(&ancestor)
    }

    /// Extends a transaction with the ancestors of every item.
    pub fn extend_transaction(&self, t: &Transaction) -> Transaction {
        let mut items: Vec<Item> = t.clone();
        for &item in t {
            items.extend(self.ancestors_of(item));
        }
        normalize_transaction(items)
    }
}

/// Mines multi-level frequent itemsets: transactions are extended with
/// ancestors, mined at `min_support`, and itemsets mixing an item with
/// its own ancestor are pruned.
///
/// The result therefore contains patterns at *every* abstraction level
/// (pure-leaf, pure-group, and mixed-level as long as no containment
/// relation links the members), in canonical order.
pub fn mine(
    transactions: &[Transaction],
    hierarchy: &ItemHierarchy,
    min_support: usize,
) -> Vec<FrequentItemset> {
    let extended: Vec<Transaction> = transactions
        .iter()
        .map(|t| hierarchy.extend_transaction(t))
        .collect();
    let mut frequent = fpgrowth::mine(&extended, min_support);
    frequent.retain(|f| {
        // Drop itemsets containing both an item and one of its ancestors:
        // their support equals the descendant-only itemset's support.
        !f.items.iter().any(|&a| {
            f.items
                .iter()
                .any(|&b| a != b && hierarchy.is_ancestor(a, b))
        })
    });
    frequent
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leaves 0..4, groups 4..6, root 6:
    /// 0,1 -> 4; 2,3 -> 5; 4,5 -> 6.
    fn toy_hierarchy() -> ItemHierarchy {
        ItemHierarchy::new(vec![
            Some(4),
            Some(4),
            Some(5),
            Some(5),
            Some(6),
            Some(6),
            None,
        ])
    }

    #[test]
    fn ancestor_queries() {
        let h = toy_hierarchy();
        assert_eq!(h.ancestors_of(0), vec![4, 6]);
        assert_eq!(h.ancestors_of(6), Vec::<Item>::new());
        assert!(h.is_ancestor(6, 2));
        assert!(h.is_ancestor(4, 1));
        assert!(!h.is_ancestor(5, 0));
        assert!(!h.is_ancestor(0, 0));
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn extend_adds_all_ancestors() {
        let h = toy_hierarchy();
        assert_eq!(h.extend_transaction(&vec![0, 2]), vec![0, 2, 4, 5, 6]);
        assert_eq!(h.extend_transaction(&vec![]), Vec::<Item>::new());
    }

    #[test]
    fn generalization_lifts_rare_leaves_above_threshold() {
        let h = toy_hierarchy();
        // Leaves 0 and 1 each appear twice — below min_support 3 — but
        // their group 4 appears in all four transactions.
        let t = vec![vec![0], vec![0], vec![1], vec![1]];
        let result = mine(&t, &h, 3);
        let sets: Vec<&[Item]> = result.iter().map(|f| f.items.as_slice()).collect();
        assert!(sets.contains(&&[4][..]), "group-level pattern missing");
        assert!(sets.contains(&&[6][..]));
        assert!(
            !sets.contains(&&[0][..]),
            "rare leaf must stay below threshold"
        );
        let group = result.iter().find(|f| f.items == vec![4]).unwrap();
        assert_eq!(group.support, 4);
    }

    #[test]
    fn prunes_item_with_own_ancestor() {
        let h = toy_hierarchy();
        let t = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
        let result = mine(&t, &h, 2);
        for f in &result {
            for &a in &f.items {
                for &b in &f.items {
                    assert!(
                        a == b || !h.is_ancestor(a, b),
                        "redundant itemset {:?} survived",
                        f.items
                    );
                }
            }
        }
        // Cross-group leaf pattern {0,1} survives (siblings, not
        // ancestor-related) and the pure-group singleton {4} survives.
        assert!(result.iter().any(|f| f.items == vec![0, 1]));
        assert!(result.iter().any(|f| f.items == vec![4]));
        // But {0,4} (item + own group) must not.
        assert!(!result.iter().any(|f| f.items == vec![0, 4]));
    }

    #[test]
    fn mixed_level_patterns_survive_when_unrelated() {
        let h = toy_hierarchy();
        // Leaf 0 (group 4) co-occurs with group-5 leaves.
        let t = vec![vec![0, 2], vec![0, 3], vec![0, 2]];
        let result = mine(&t, &h, 3);
        // {0, 5}: leaf from group 4 with group node 5 — unrelated levels.
        assert!(
            result.iter().any(|f| f.items == vec![0, 5]),
            "mixed-level pattern missing: {result:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cyclic_hierarchy() {
        let _ = ItemHierarchy::new(vec![Some(1), Some(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_dangling_parent() {
        let _ = ItemHierarchy::new(vec![Some(9)]);
    }
}
