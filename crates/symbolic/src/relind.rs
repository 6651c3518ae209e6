//! Relative indices (Schreiber) for scattering supernode updates.
//!
//! When supernode `J` updates an ancestor supernode `P`, each global row
//! index `i ∈ rows(J)` with `i ∈ cols(P) ∪ rows(P)` must be located inside
//! `P`'s dense storage array, whose row dimension is indexed by the list
//! `cols(P) ++ rows(P)`. `relind(J, P)` maps each such `i` to its 0-based
//! position **from the top** of that list.
//!
//! The paper (and ref [1]) uses *generalized* relative indices measured as
//! distances from the bottom of the ancestor's index set; the two
//! conventions carry the same information, and
//! [`generalized_from_bottom`] converts for display/compatibility.

/// Positions of the sorted indices `sub` inside the index list of a target
/// supernode with columns `[p_first, p_first + p_ncols)` followed by the
/// sorted below-diagonal rows `p_rows`.
///
/// Every element of `sub` must be present in the target's list (this is an
/// invariant of supernodal elimination; violations panic in debug builds
/// and produce garbage in release builds).
pub fn relative_indices(
    sub: &[usize],
    p_first: usize,
    p_ncols: usize,
    p_rows: &[usize],
) -> Vec<usize> {
    let mut out = Vec::new();
    relative_indices_into(sub, p_first, p_ncols, p_rows, &mut out);
    out
}

/// [`relative_indices`] written into `out` (cleared first), so a caller
/// that scatters many segments reuses one buffer.
pub fn relative_indices_into(
    sub: &[usize],
    p_first: usize,
    p_ncols: usize,
    p_rows: &[usize],
    out: &mut Vec<usize>,
) {
    out.clear();
    out.reserve(sub.len());
    let p_end = p_first + p_ncols;
    let mut cursor = 0usize; // two-pointer walk over p_rows
    for &i in sub {
        if i < p_end {
            debug_assert!(i >= p_first, "index {i} above target supernode");
            out.push(i - p_first);
        } else {
            while cursor < p_rows.len() && p_rows[cursor] < i {
                cursor += 1;
            }
            debug_assert!(
                cursor < p_rows.len() && p_rows[cursor] == i,
                "index {i} missing from target rows"
            );
            out.push(p_ncols + cursor);
        }
    }
}

/// Relative index of a single global row `i` inside the target's index
/// list — the allocation-free form of [`relative_indices`] for callers
/// that need one generalized index per block (the RLB update loop).
///
/// Same invariant as [`relative_indices`]: `i` must be present in the
/// target's column range or row list.
#[inline]
pub fn relative_index_of(i: usize, p_first: usize, p_ncols: usize, p_rows: &[usize]) -> usize {
    let p_end = p_first + p_ncols;
    if i < p_end {
        debug_assert!(i >= p_first, "index {i} above target supernode");
        i - p_first
    } else {
        let pos = p_rows.partition_point(|&r| r < i);
        debug_assert!(
            pos < p_rows.len() && p_rows[pos] == i,
            "index {i} missing from target rows"
        );
        p_ncols + pos
    }
}

/// Converts top-based relative indices into the paper's "distance from the
/// bottom" convention for an index list of total length `list_len`.
pub fn generalized_from_bottom(relind: &[usize], list_len: usize) -> Vec<usize> {
    relind.iter().map(|&p| list_len - 1 - p).collect()
}

/// Splits `rows` (sorted global indices) into the segment lying inside the
/// target supernode's columns and the remainder, returning
/// `(within_cols, below)` as index ranges into `rows`.
pub fn split_at_supernode(rows: &[usize], p_first: usize, p_end: usize) -> (usize, usize) {
    let lo = rows.partition_point(|&r| r < p_first);
    let hi = rows.partition_point(|&r| r < p_end);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_column_and_row_segments() {
        // Target P: columns 4..7, rows {12, 13, 14}: list = [4,5,6,12,13,14].
        let sub = vec![5, 6, 13];
        let r = relative_indices(&sub, 4, 3, &[12, 13, 14]);
        assert_eq!(r, vec![1, 2, 4]);
    }

    #[test]
    fn paper_fig1_relind_j3_to_j6() {
        // J3's rows {12,13,14} into J6 (cols 12..15, no rows below):
        // top-based positions [0,1,2]; the paper's bottom-based view is
        // [2,1,0].
        let r = relative_indices(&[12, 13, 14], 12, 3, &[]);
        assert_eq!(r, vec![0, 1, 2]);
        assert_eq!(generalized_from_bottom(&r, 3), vec![2, 1, 0]);
    }

    #[test]
    fn paper_fig1_relind_j1_to_j3() {
        // J1's rows {5, 6, 13}: the part inside J3 (cols 4..7) is {5, 6};
        // 13 locates inside J3's row list {12, 13, 14} at position 1.
        let r = relative_indices(&[5, 6, 13], 4, 3, &[12, 13, 14]);
        assert_eq!(r, vec![1, 2, 4]);
    }

    #[test]
    fn split_at_supernode_partitions() {
        let rows = [5, 6, 13, 20, 21];
        // Target covering columns 4..7.
        let (lo, hi) = split_at_supernode(&rows, 4, 7);
        assert_eq!((lo, hi), (0, 2));
        // Target covering columns 13..22.
        let (lo, hi) = split_at_supernode(&rows, 13, 22);
        assert_eq!((lo, hi), (2, 5));
        // Target not intersecting.
        let (lo, hi) = split_at_supernode(&rows, 7, 13);
        assert_eq!((lo, hi), (2, 2));
    }

    #[test]
    fn empty_sub_is_empty() {
        assert!(relative_indices(&[], 0, 4, &[9, 11]).is_empty());
    }

    #[test]
    fn single_index_matches_bulk() {
        let p_rows = [12, 13, 14, 20, 31];
        for &i in &[4, 5, 6, 12, 14, 20, 31] {
            let bulk = relative_indices(&[i], 4, 3, &p_rows)[0];
            assert_eq!(relative_index_of(i, 4, 3, &p_rows), bulk, "i={i}");
        }
    }
}
