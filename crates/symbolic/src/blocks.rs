//! Row-block structure of a supernode's below-diagonal rows.
//!
//! RLB (the right-looking *blocked* method) issues one DSYRK/DGEMM per
//! pair of *blocks*: maximal runs of consecutive row indices that stay
//! inside a single ancestor supernode. Fewer, larger blocks mean fewer
//! BLAS calls — which is exactly what partition refinement (see
//! [`crate::pr`]) optimizes.

use crate::supernodes::SupernodePartition;

/// A maximal dense row block of a supernode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    /// Offset of the block's first row within the supernode's `rows` list.
    pub offset: usize,
    /// Number of consecutive rows in the block.
    pub len: usize,
    /// First global row index of the block.
    pub first: usize,
    /// The ancestor supernode the block lies in.
    pub target: usize,
}

/// Decomposes `rows` (sorted global indices) into maximal blocks of
/// consecutive indices, split additionally at supernode boundaries of the
/// targets (a block must lie within one ancestor supernode).
pub fn row_blocks(rows: &[usize], sn: &SupernodePartition) -> Vec<RowBlock> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < rows.len() {
        let first = rows[k];
        let target = sn.col_to_sn[first];
        let target_end = sn.end_col(target);
        let mut len = 1usize;
        while k + len < rows.len()
            && rows[k + len] == first + len // consecutive
            && rows[k + len] < target_end
        // same ancestor supernode
        {
            len += 1;
        }
        out.push(RowBlock {
            offset: k,
            len,
            first,
            target,
        });
        k += len;
    }
    out
}

/// Number of blocks [`row_blocks`] splits `rows` into, counted in place:
/// a block starts at the first row and wherever a row does not follow its
/// predecessor in the same supernode.
fn block_count(rows: &[usize], sn: &SupernodePartition) -> usize {
    let breaks = rows
        .windows(2)
        .filter(|w| w[1] != w[0] + 1 || sn.col_to_sn[w[1]] != sn.col_to_sn[w[0]])
        .count();
    usize::from(!rows.is_empty()) + breaks
}

/// Total number of blocks over all supernodes — the metric partition
/// refinement minimizes (paper §IV-A: "the number of blocks was reduced").
pub fn total_blocks(all_rows: &[Vec<usize>], sn: &SupernodePartition) -> usize {
    all_rows.iter().map(|r| block_count(r, sn)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_rows_in_one_target_form_one_block() {
        let sn = SupernodePartition::from_starts(vec![0, 4, 10]);
        let b = row_blocks(&[4, 5, 6], &sn);
        assert_eq!(b.len(), 1);
        assert_eq!(
            b[0],
            RowBlock {
                offset: 0,
                len: 3,
                first: 4,
                target: 1
            }
        );
    }

    #[test]
    fn gaps_split_blocks() {
        let sn = SupernodePartition::from_starts(vec![0, 10]);
        let b = row_blocks(&[2, 3, 5, 6, 9], &sn);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].len, 2);
        assert_eq!(b[1].len, 2);
        assert_eq!(b[2].len, 1);
        assert_eq!(b[1].first, 5);
        assert_eq!(b[2].offset, 4);
    }

    #[test]
    fn supernode_boundaries_split_blocks() {
        // Rows 3,4 are consecutive but 4 starts a new supernode.
        let sn = SupernodePartition::from_starts(vec![0, 4, 8]);
        let b = row_blocks(&[2, 3, 4, 5], &sn);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].target, 0);
        assert_eq!(b[1].target, 1);
        assert_eq!(b[1].first, 4);
    }

    #[test]
    fn empty_rows_no_blocks() {
        let sn = SupernodePartition::from_starts(vec![0, 4]);
        assert!(row_blocks(&[], &sn).is_empty());
    }

    #[test]
    fn total_blocks_sums() {
        let sn = SupernodePartition::from_starts(vec![0, 2, 4, 8]);
        let rows = vec![vec![2, 3, 4], vec![5, 7], vec![]];
        // First: {2,3} in sn1 + {4} in sn2 → 2 blocks; second: {5},{7} → 2.
        assert_eq!(total_blocks(&rows, &sn), 4);
    }

    #[test]
    fn block_count_matches_row_blocks() {
        let sn = SupernodePartition::from_starts(vec![0, 3, 4, 7, 12]);
        // Every subset of 0..12 (as a bitmask), sorted ascending.
        for mask in 0u32..1 << 12 {
            let rows: Vec<usize> = (0..12).filter(|&i| mask >> i & 1 == 1).collect();
            assert_eq!(
                block_count(&rows, &sn),
                row_blocks(&rows, &sn).len(),
                "{rows:?}"
            );
        }
    }
}
