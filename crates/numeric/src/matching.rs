//! Maximum bipartite matching over a sparse matrix pattern.
//!
//! The structural rank of a matrix is the size of a maximum matching between
//! its rows and columns in the bipartite graph induced by the nonzero
//! pattern. A square system whose structural rank is below its dimension is
//! *structurally singular*: no permutation produces a zero-free diagonal, so
//! every factorization — dense or sparse, with any pivoting — must hit an
//! exactly zero pivot. Detecting this from the pattern alone lets a lint
//! pass reject such systems before any numeric work happens, and name the
//! deficient rows instead of reporting a cryptic "singular matrix at t=…".
//!
//! The implementation is Kuhn's augmenting-path algorithm (Hopcroft–Karp
//! without the layering): `O(V · E)` worst case, which is ample for MNA
//! patterns whose nonzero count is a small multiple of the unknown count.
//! The pattern is held as a CSR adjacency (columns of each row, ascending)
//! and each row's search stamps the columns it visits with that row's
//! generation, so starting a search clears nothing and a pattern whose
//! augmenting paths stay short is matched in near-linear time.

/// Result of a structural-rank analysis of an `n × n` sparsity pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralRank {
    /// Size of the maximum row↔column matching.
    pub rank: usize,
    /// Matrix dimension the pattern was analyzed against.
    pub dim: usize,
    /// Rows left unmatched by the maximum matching (sorted ascending).
    /// Empty iff `rank == dim`.
    pub unmatched_rows: Vec<usize>,
}

impl StructuralRank {
    /// `true` when the pattern admits a zero-free diagonal under some
    /// permutation — i.e. the system is not structurally singular.
    pub fn is_full(&self) -> bool {
        self.rank == self.dim
    }
}

/// Computes the structural rank of an `n × n` pattern given as `(row, col)`
/// nonzero positions. Duplicate entries are tolerated; entries out of range
/// are ignored.
pub fn structural_rank(n: usize, pattern: &[(usize, usize)]) -> StructuralRank {
    let adjacency = RowAdjacency::new(n, pattern);

    // match_col[c] = row currently matched to column c.
    let mut match_col: Vec<Option<usize>> = vec![None; n];
    let mut match_row: Vec<Option<usize>> = vec![None; n];
    // visited[c] == row + 1: column c was reached by row `row`'s search.
    let mut visited = vec![0usize; n];
    let mut path = Vec::new();

    let mut rank = 0;
    for row in 0..n {
        if augment(
            row,
            &adjacency,
            &mut match_col,
            &mut match_row,
            &mut visited,
            &mut path,
        ) {
            rank += 1;
        }
    }

    let unmatched_rows = (0..n).filter(|&r| match_row[r].is_none()).collect();
    StructuralRank {
        rank,
        dim: n,
        unmatched_rows,
    }
}

/// The columns of each row, ascending and deduplicated, in CSR form.
struct RowAdjacency {
    /// Row `r`'s columns are `cols[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    cols: Vec<usize>,
}

impl RowAdjacency {
    /// Builds the adjacency of an `n × n` pattern, ignoring entries out of
    /// range.
    fn new(n: usize, pattern: &[(usize, usize)]) -> Self {
        let in_range = |&&(r, c): &&(usize, usize)| r < n && c < n;
        let mut starts = vec![0usize; n + 1];
        for &(r, _) in pattern.iter().filter(in_range) {
            starts[r + 1] += 1;
        }
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        let mut fill = starts.clone();
        let mut cols = vec![0usize; starts[n]];
        for &(r, c) in pattern.iter().filter(in_range) {
            cols[fill[r]] = c;
            fill[r] += 1;
        }
        // Sort and deduplicate each row in place, compacting as we go.
        let mut kept = 0;
        for r in 0..n {
            let (lo, hi) = (starts[r], starts[r + 1]);
            cols[lo..hi].sort_unstable();
            starts[r] = kept;
            for k in lo..hi {
                if k == lo || cols[k] != cols[k - 1] {
                    cols[kept] = cols[k];
                    kept += 1;
                }
            }
        }
        starts[n] = kept;
        cols.truncate(kept);
        RowAdjacency { starts, cols }
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.starts[r]..self.starts[r + 1]]
    }
}

/// Searches for an augmenting path from the unmatched row `root`, depth
/// first with columns tried in ascending order, and flips the matching along
/// it if one exists. `path` holds the search stack: each entry is a row and
/// the position in its adjacency of the next column to try, so a found path
/// is read off the stack (every row's column is the one before its cursor).
fn augment(
    root: usize,
    adjacency: &RowAdjacency,
    match_col: &mut [Option<usize>],
    match_row: &mut [Option<usize>],
    visited: &mut [usize],
    path: &mut Vec<(usize, usize)>,
) -> bool {
    let stamp = root + 1;
    path.clear();
    path.push((root, 0));
    while let Some((row, cursor)) = path.last_mut() {
        let Some(&c) = adjacency.row(*row).get(*cursor) else {
            path.pop();
            continue;
        };
        *cursor += 1;
        if visited[c] == stamp {
            continue;
        }
        visited[c] = stamp;
        match match_col[c] {
            Some(other) => path.push((other, 0)),
            None => {
                for &(r, next) in path.iter() {
                    let col = adjacency.row(r)[next - 1];
                    match_col[col] = Some(r);
                    match_row[r] = Some(col);
                }
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_pattern_is_full_rank() {
        let pattern: Vec<(usize, usize)> = (0..5).map(|i| (i, i)).collect();
        let sr = structural_rank(5, &pattern);
        assert!(sr.is_full());
        assert!(sr.unmatched_rows.is_empty());
    }

    #[test]
    fn empty_row_is_unmatched() {
        // Row 1 has no entries.
        let pattern = vec![(0, 0), (2, 2), (2, 1)];
        let sr = structural_rank(3, &pattern);
        assert_eq!(sr.rank, 2);
        assert_eq!(sr.unmatched_rows, vec![1]);
    }

    #[test]
    fn duplicate_rows_competing_for_one_column() {
        // Rows 1 and 2 both only reach column 0; one must lose.
        let pattern = vec![(0, 1), (0, 2), (1, 0), (2, 0)];
        let sr = structural_rank(3, &pattern);
        assert_eq!(sr.rank, 2);
        assert_eq!(sr.unmatched_rows.len(), 1);
        assert!(sr.unmatched_rows[0] == 1 || sr.unmatched_rows[0] == 2);
    }

    #[test]
    fn augmenting_path_reassigns_earlier_match() {
        // Row 0 can take col 0 or 1, row 1 only col 0: augmentation must
        // move row 0 to col 1 so both match.
        let pattern = vec![(0, 0), (0, 1), (1, 0)];
        let sr = structural_rank(2, &pattern);
        assert!(sr.is_full());
    }

    #[test]
    fn duplicates_and_out_of_range_tolerated() {
        let pattern = vec![(0, 0), (0, 0), (7, 1), (1, 9), (1, 1)];
        let sr = structural_rank(2, &pattern);
        assert!(sr.is_full());
    }

    #[test]
    fn dense_full_pattern_full_rank() {
        let mut pattern = Vec::new();
        for r in 0..8 {
            for c in 0..8 {
                pattern.push((r, c));
            }
        }
        let sr = structural_rank(8, &pattern);
        assert!(sr.is_full());
    }
}
