//! Secondary column index shared by the in-memory and paged backends.

use std::collections::BTreeMap;

/// A B-tree index over one column: value → row ids (sorted by insertion).
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    tree: BTreeMap<i64, Vec<u32>>,
}

impl ColumnIndex {
    /// Builds the index over a column slice.
    pub fn build(col: &[i64]) -> Self {
        let mut tree: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, &v) in col.iter().enumerate() {
            tree.entry(v).or_default().push(i as u32);
        }
        Self { tree }
    }

    /// Row ids with exactly value `v`.
    pub fn eq(&self, v: i64) -> &[u32] {
        self.tree.get(&v).map_or(&[], Vec::as_slice)
    }

    /// Row ids with value `<= v`, in value order.
    pub fn le(&self, v: i64) -> impl Iterator<Item = u32> + '_ {
        self.tree
            .range(..=v)
            .flat_map(|(_, ids)| ids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_eq_and_range() {
        let idx = ColumnIndex::build(&[5, 3, 5, 1, 9]);
        assert_eq!(idx.eq(5), &[0, 2]);
        assert_eq!(idx.eq(7), &[] as &[u32]);
        let le: Vec<u32> = idx.le(5).collect();
        assert_eq!(le, vec![3, 1, 0, 2]); // value order: 1, 3, 5
    }
}
