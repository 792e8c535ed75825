//! Sparse compressed-sparse-column matrices and LU factorization.
//!
//! The MNA matrices this workspace stamps are overwhelmingly sparse — a
//! ladder node row touches at most four neighbours, a branch row couples two
//! nodes and (through mutual inductance) a handful of other branches — yet
//! [`crate::DenseMatrix`] pays O(n²) storage and O(n³) factor cost
//! regardless. This module provides the sparse counterpart used by the
//! transient fast path on large circuits:
//!
//! * [`CscMatrix`] — compressed-sparse-column storage assembled from
//!   (row, column, value) triplets, with duplicate entries summed exactly as
//!   repeated `add_at` stamps would be.
//! * [`SparseLu`] — a left-looking (Gilbert–Peierls) LU factorization with
//!   partial pivoting, preceded by a greedy minimum-degree column ordering on
//!   the symmetrized pattern (the Markowitz-style fill reduction for
//!   unsymmetric MNA stamps). The symbolic structure — elimination order,
//!   pivot sequence and the L/U patterns — is computed once by
//!   [`SparseLu::factor`] and reused: [`SparseLu::solve_into`] performs the
//!   allocation-free triangular solves of the factor-once transient kernel.
//!
//! Pivot health is observable through [`SparseLu::pivot_extremes`], mirroring
//! [`crate::LuFactors::pivot_extremes`], so callers can gate the sparse path
//! the same way the dense kernels gate the Sherman–Morrison–Woodbury update
//! and degrade to dense LU on near-singular stamps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::matrix::SolveError;

/// Pivots smaller than this in absolute value are treated as singular — the
/// same floor the dense factorization uses.
const PIVOT_FLOOR: f64 = 1e-300;

/// Relative threshold for preferring the diagonal entry over the largest
/// off-diagonal candidate during partial pivoting. Keeping the pivot on the
/// diagonal when it is within this factor of the maximum preserves the
/// fill-reducing column ordering; genuinely small diagonals (a voltage-source
/// branch row has a structural zero there) still pivot away.
const DIAGONAL_PREFERENCE: f64 = 0.1;

/// A sentinel for "row not yet chosen as a pivot".
const UNPIVOTED: usize = usize::MAX;

/// A square sparse matrix in compressed-sparse-column form.
///
/// Built from stamping triplets; duplicate (row, column) entries are summed,
/// so the assembly semantics match repeated dense `add_at` calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CscMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Assembles an `n x n` matrix from (row, column, value) triplets,
    /// summing duplicates. Row indices within each column end up sorted.
    ///
    /// # Panics
    /// Panics if any triplet index is out of bounds.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> CscMatrix {
        let mut count = vec![0usize; n + 1];
        for &(r, c, _) in triplets {
            assert!(
                r < n && c < n,
                "triplet ({r}, {c}) out of bounds for n = {n}"
            );
            count[c + 1] += 1;
        }
        for k in 0..n {
            count[k + 1] += count[k];
        }
        // Scatter triplets into per-column runs, then sort and merge each run.
        let mut cursor = count.clone();
        let mut rows = vec![0usize; triplets.len()];
        let mut vals = vec![0.0; triplets.len()];
        for &(r, c, v) in triplets {
            let p = cursor[c];
            rows[p] = r;
            vals[p] = v;
            cursor[c] += 1;
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        col_ptr.push(0);
        for c in 0..n {
            scratch.clear();
            scratch.extend(
                rows[count[c]..count[c + 1]]
                    .iter()
                    .copied()
                    .zip(vals[count[c]..count[c + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in scratch.iter() {
                if row_idx.len() > col_ptr[c] && *row_idx.last().unwrap() == r {
                    *values.last_mut().unwrap() += v;
                } else {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Entry at (`row`, `col`); zero when not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let range = self.col_ptr[col]..self.col_ptr[col + 1];
        match self.row_idx[range.clone()].binary_search(&row) {
            Ok(p) => self.values[range.start + p],
            Err(_) => 0.0,
        }
    }

    /// Largest absolute entry (0 for an empty matrix) — the scale reference
    /// for pivot-health checks.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Dense matrix-vector product `y = A x` (test and cross-check helper).
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.row_idx[p]] += self.values[p] * xc;
            }
        }
        y
    }
}

/// A sparse LU factorization `P A Q = L U` with partial pivoting (`P`) and a
/// fill-reducing minimum-degree column ordering (`Q`).
///
/// [`SparseLu::factor`] performs the symbolic analysis (ordering, per-column
/// reachability, pivot selection) and the numeric factorization together;
/// the resulting structure is retained so that [`SparseLu::solve_into`] is
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// Fill-reducing column order: `col_order[k]` is the original column
    /// eliminated at step `k`.
    col_order: Vec<usize>,
    /// Row permutation from partial pivoting: `pinv[original_row]` is the
    /// pivotal position of that row.
    pinv: Vec<usize>,
    /// `pivot_row[k]` is the original row chosen as pivot at step `k`.
    pivot_row: Vec<usize>,
    // L stored by pivotal column with ORIGINAL row indices, strictly below
    // the (implicit unit) diagonal.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    // U stored by pivotal column with PIVOTAL row indices sorted ascending;
    // the diagonal entry is last in each column.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    // `l_rows_mapped[p] == pinv[l_rows[p]]`: L's original row indices
    // translated to pivotal coordinates for the forward solve.
    l_rows_mapped: Vec<usize>,
    // Reusable solve/factor scratch.
    work: Vec<f64>,
}

impl SparseLu {
    /// Creates an empty factorization; populated by [`SparseLu::factor`].
    pub fn empty() -> SparseLu {
        SparseLu::default()
    }

    /// Structural nonzeros of the computed factors (L strictly-lower plus U
    /// including diagonals) — the per-solve work measure.
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len()
    }

    /// Factorizes `a`, replacing any previous contents and reusing the
    /// allocations of this factorization object.
    ///
    /// # Errors
    /// Returns [`SolveError::Singular`] when no acceptable pivot exists for
    /// some column (reported as the *original* column index).
    pub fn factor(&mut self, a: &CscMatrix) -> Result<(), SolveError> {
        let n = a.dim();
        self.n = n;
        self.col_order = min_degree_order(a);
        self.pinv.clear();
        self.pinv.resize(n, UNPIVOTED);
        self.pivot_row.clear();
        self.pivot_row.resize(n, UNPIVOTED);
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_rows.clear();
        self.u_vals.clear();
        self.work.clear();
        self.work.resize(n, 0.0);

        // flag[i] == k marks original row i as visited while processing
        // column k; topo collects the reach in DFS postorder.
        let mut flag = vec![UNPIVOTED; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut u_entries: Vec<(usize, f64)> = Vec::new();

        for k in 0..n {
            let col = self.col_order[k];
            // Symbolic step: reach of A(:, col) through the graph of L.
            topo.clear();
            for p in a.col_ptr[col]..a.col_ptr[col + 1] {
                let start = a.row_idx[p];
                if flag[start] == k {
                    continue;
                }
                flag[start] = k;
                stack.push((start, 0));
                while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                    let j = self.pinv[node];
                    let (lo, hi) = if j == UNPIVOTED {
                        (0, 0)
                    } else {
                        (self.l_colptr[j], self.l_colptr[j + 1])
                    };
                    let mut advanced = false;
                    while lo + *cursor < hi {
                        let child = self.l_rows[lo + *cursor];
                        *cursor += 1;
                        if flag[child] != k {
                            flag[child] = k;
                            stack.push((child, 0));
                            advanced = true;
                            break;
                        }
                    }
                    if !advanced {
                        stack.pop();
                        topo.push(node);
                    }
                }
            }
            // Numeric step: scatter A(:, col) and eliminate in topological
            // (reverse-postorder) order.
            for p in a.col_ptr[col]..a.col_ptr[col + 1] {
                self.work[a.row_idx[p]] = a.values[p];
            }
            for &i in topo.iter().rev() {
                let j = self.pinv[i];
                if j == UNPIVOTED {
                    continue;
                }
                let xi = self.work[i];
                if xi != 0.0 {
                    for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                        self.work[self.l_rows[p]] -= self.l_vals[p] * xi;
                    }
                }
            }
            // Pivot selection: largest unpivoted magnitude, with a relative
            // preference for the structural diagonal to limit fill.
            let mut best = UNPIVOTED;
            let mut best_abs = 0.0;
            for &i in topo.iter() {
                if self.pinv[i] == UNPIVOTED {
                    let v = self.work[i].abs();
                    if v > best_abs {
                        best_abs = v;
                        best = i;
                    }
                }
            }
            if self.pinv[col] == UNPIVOTED
                && flag[col] == k
                && self.work[col].abs() >= DIAGONAL_PREFERENCE * best_abs
            {
                best = col;
                best_abs = self.work[col].abs();
            }
            if best == UNPIVOTED || best_abs < PIVOT_FLOOR {
                // Leave the scratch clean before bailing out.
                for &i in topo.iter() {
                    self.work[i] = 0.0;
                }
                return Err(SolveError::Singular { column: col });
            }
            let pivot = self.work[best];
            self.pinv[best] = k;
            self.pivot_row[k] = best;

            // Split the column: pivoted rows feed U, the rest feed L.
            u_entries.clear();
            for &i in topo.iter() {
                let j = self.pinv[i];
                if i == best {
                    continue;
                }
                if j != UNPIVOTED && j < k {
                    u_entries.push((j, self.work[i]));
                } else {
                    let v = self.work[i] / pivot;
                    if v != 0.0 {
                        self.l_rows.push(i);
                        self.l_vals.push(v);
                    }
                }
                self.work[i] = 0.0;
            }
            self.work[best] = 0.0;
            self.l_colptr.push(self.l_rows.len());
            u_entries.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in u_entries.iter() {
                self.u_rows.push(r);
                self.u_vals.push(v);
            }
            self.u_rows.push(k);
            self.u_vals.push(pivot);
            self.u_colptr.push(self.u_rows.len());
        }
        self.l_rows_mapped.clear();
        self.l_rows_mapped
            .extend(self.l_rows.iter().map(|&i| self.pinv[i]));
        Ok(())
    }

    /// Solves `A x = b` using the stored factors; allocation-free.
    ///
    /// The solve makes two permutation passes: it gathers `b` into pivotal
    /// order, solves forward through L and backward through U in place,
    /// and scatters the result through the column order.
    ///
    /// # Panics
    /// Panics if `b` or `x` do not match the factored dimension, or if called
    /// before a successful [`SparseLu::factor`].
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "solution dimension mismatch");
        // Gather P b into pivotal order, then forward solve L y = P b with
        // L's rows in pivotal coordinates.
        let y = &mut self.work;
        for (yk, &row) in y.iter_mut().zip(&self.pivot_row) {
            *yk = b[row];
        }
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                    y[self.l_rows_mapped[p]] -= self.l_vals[p] * yk;
                }
            }
        }
        // Backward solve U z = y in place.
        for k in (0..n).rev() {
            let (lo, hi) = (self.u_colptr[k], self.u_colptr[k + 1]);
            let zk = y[k] / self.u_vals[hi - 1];
            y[k] = zk;
            if zk != 0.0 {
                for p in lo..hi - 1 {
                    y[self.u_rows[p]] -= self.u_vals[p] * zk;
                }
            }
        }
        // Undo the column permutation: solution[q[k]] = z[k].
        for (&zk, &col) in y.iter().zip(&self.col_order) {
            x[col] = zk;
        }
    }

    /// Smallest and largest absolute pivot of the stored factorization —
    /// the sparse counterpart of [`crate::LuFactors::pivot_extremes`], used
    /// to gate the sparse kernel and fall back to dense LU on near-singular
    /// stamps. Returns `(0.0, 0.0)` while empty.
    pub fn pivot_extremes(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for k in 0..self.n {
            let d = self.u_vals[self.u_colptr[k + 1] - 1].abs();
            min = min.min(d);
            max = max.max(d);
        }
        if self.n == 0 {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }
}

/// Greedy minimum-degree ordering on the symmetrized pattern of `a`
/// (Markowitz-style fill reduction for unsymmetric stamps): repeatedly
/// eliminate the live node of smallest current degree, ties going to the
/// smallest index, and connect its neighbours into a clique. The
/// elimination graph is exact. Each node's neighbours are kept in a sorted
/// vector, and a heap keyed by (degree, node) yields the next node: entries
/// left behind by a degree change or an elimination are skipped when
/// popped. A step costs the merges of its neighbours' lists and a heap
/// operation per changed degree, not a scan over every live node.
fn min_degree_order(a: &CscMatrix) -> Vec<usize> {
    let n = a.dim();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &a.row_idx[a.col_ptr[c]..a.col_ptr[c + 1]] {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for neighbours in adj.iter_mut() {
        neighbours.sort_unstable();
        neighbours.dedup();
    }
    let mut queue: BinaryHeap<Reverse<(usize, usize)>> = adj
        .iter()
        .enumerate()
        .map(|(v, neighbours)| Reverse((neighbours.len(), v)))
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut merged: Vec<usize> = Vec::new();
    while let Some(Reverse((degree, v))) = queue.pop() {
        if eliminated[v] || degree != adj[v].len() {
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        let clique = std::mem::take(&mut adj[v]);
        for &w in &clique {
            merged.clear();
            merge_excluding(&adj[w], &clique, [v, w], &mut merged);
            let changed = merged.len() != adj[w].len();
            std::mem::swap(&mut adj[w], &mut merged);
            if changed {
                queue.push(Reverse((adj[w].len(), w)));
            }
        }
    }
    order
}

/// Appends the sorted union of the sorted, duplicate-free lists `a` and
/// `b` to `out`, leaving out both values of `skip`.
fn merge_excluding(a: &[usize], b: &[usize], skip: [usize; 2], out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => return,
        };
        if !skip.contains(&next) {
            out.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    /// The quadratic reference of [`min_degree_order`]: a scan over every
    /// live node per elimination, with `BTreeSet` adjacency.
    fn min_degree_order_reference(a: &CscMatrix) -> Vec<usize> {
        let n = a.dim();
        let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for c in 0..n {
            for p in a.col_ptr[c]..a.col_ptr[c + 1] {
                let r = a.row_idx[p];
                if r != c {
                    adj[r].insert(c);
                    adj[c].insert(r);
                }
            }
        }
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut neighbours: Vec<usize> = Vec::new();
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| !eliminated[v])
                .min_by_key(|&v| adj[v].len())
                .expect("one live node remains per step");
            eliminated[v] = true;
            order.push(v);
            neighbours.clear();
            neighbours.extend(adj[v].iter().copied());
            for &w in neighbours.iter() {
                adj[w].remove(&v);
            }
            for (i, &w1) in neighbours.iter().enumerate() {
                for &w2 in neighbours.iter().skip(i + 1) {
                    adj[w1].insert(w2);
                    adj[w2].insert(w1);
                }
            }
            adj[v].clear();
        }
        order
    }

    /// The five-pass reference of [`SparseLu::solve_into`]: forward solve in
    /// original row coordinates, gather, backward solve, scatter, copy back.
    fn solve_reference(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.n;
        let mut work = b.to_vec();
        for k in 0..n {
            let yk = work[lu.pivot_row[k]];
            if yk != 0.0 {
                for p in lu.l_colptr[k]..lu.l_colptr[k + 1] {
                    work[lu.l_rows[p]] -= lu.l_vals[p] * yk;
                }
            }
        }
        let mut z: Vec<f64> = lu.pivot_row.iter().map(|&row| work[row]).collect();
        for k in (0..n).rev() {
            let (lo, hi) = (lu.u_colptr[k], lu.u_colptr[k + 1]);
            let zk = z[k] / lu.u_vals[hi - 1];
            z[k] = zk;
            if zk != 0.0 {
                for p in lo..hi - 1 {
                    z[lu.u_rows[p]] -= lu.u_vals[p] * zk;
                }
            }
        }
        let mut x = vec![0.0; n];
        for (&zk, &col) in z.iter().zip(&lu.col_order) {
            x[col] = zk;
        }
        x
    }

    /// An MNA-shaped pattern builder: node voltages first, then one branch
    /// unknown per voltage source and inductor, stamped the way `rlc-spice`
    /// stamps them (every value 1.0; only the pattern matters).
    struct Pattern {
        nodes: usize,
        branches: Vec<(usize, usize)>,
        links: Vec<(usize, usize)>,
        grounded: Vec<usize>,
        mutuals: Vec<(usize, usize)>,
    }

    impl Pattern {
        fn new(nodes: usize) -> Pattern {
            Pattern {
                nodes,
                branches: Vec::new(),
                links: Vec::new(),
                grounded: Vec::new(),
                mutuals: Vec::new(),
            }
        }

        /// A resistor or capacitor between two nodes.
        fn link(&mut self, a: usize, b: usize) {
            self.links.push((a, b));
        }

        /// A capacitor (or conductance) from a node to ground.
        fn ground(&mut self, a: usize) {
            self.grounded.push(a);
        }

        /// An inductor or voltage source between two nodes (`usize::MAX` is
        /// ground): returns its branch index.
        fn branch(&mut self, a: usize, b: usize) -> usize {
            self.branches.push((a, b));
            self.branches.len() - 1
        }

        fn matrix(&self) -> CscMatrix {
            let n = self.nodes + self.branches.len();
            let mut t = Vec::new();
            for v in 0..self.nodes {
                t.push((v, v, 1.0));
            }
            for &v in &self.grounded {
                t.push((v, v, 1.0));
            }
            for &(a, b) in &self.links {
                t.extend([(a, a, 1.0), (b, b, 1.0), (a, b, 1.0), (b, a, 1.0)]);
            }
            for (k, &(a, b)) in self.branches.iter().enumerate() {
                let row = self.nodes + k;
                for node in [a, b] {
                    if node != usize::MAX {
                        t.extend([(node, row, 1.0), (row, node, 1.0)]);
                    }
                }
            }
            for &(j, k) in &self.mutuals {
                let (rj, rk) = (self.nodes + j, self.nodes + k);
                t.extend([(rj, rk, 1.0), (rk, rj, 1.0)]);
            }
            CscMatrix::from_triplets(n, &t)
        }
    }

    /// A driven RLC ladder: a source branch at node 0, then per segment a
    /// resistor, an inductor branch and a grounded capacitor.
    fn ladder(pattern: &mut Pattern, from: usize, segments: usize) -> Vec<usize> {
        let mut inductors = Vec::new();
        let mut node = from;
        for _ in 0..segments {
            let mid = pattern.nodes;
            let next = mid + 1;
            pattern.nodes += 2;
            pattern.link(node, mid);
            inductors.push(pattern.branch(mid, next));
            pattern.ground(next);
            node = next;
        }
        inductors
    }

    fn mna_ladder(segments: usize) -> CscMatrix {
        let mut p = Pattern::new(1);
        p.branch(0, usize::MAX);
        ladder(&mut p, 0, segments);
        p.matrix()
    }

    fn mna_tree(depth: usize) -> CscMatrix {
        let mut p = Pattern::new(1);
        p.branch(0, usize::MAX);
        let mut tips = vec![0];
        for level in 0..depth {
            let mut next = Vec::new();
            for &tip in &tips {
                for _ in 0..2 {
                    ladder(&mut p, tip, 1 + level % 3);
                    next.push(p.nodes - 1);
                }
            }
            tips = next;
        }
        p.matrix()
    }

    fn mna_coupled_bus(segments: usize) -> CscMatrix {
        let mut p = Pattern::new(2);
        p.branch(0, usize::MAX);
        p.branch(1, usize::MAX);
        let victim = ladder(&mut p, 0, segments);
        let first_aggressor_node = p.nodes;
        let aggressor = ladder(&mut p, 1, segments);
        for (k, (&v, &a)) in victim.iter().zip(&aggressor).enumerate() {
            p.mutuals.push((v, a));
            // Coupling capacitance between matching far nodes.
            p.link(2 + 2 * k + 1, first_aggressor_node + 2 * k + 1);
        }
        p.matrix()
    }

    fn mna_floating_nodes(segments: usize) -> CscMatrix {
        let mut p = Pattern::new(1);
        p.branch(0, usize::MAX);
        ladder(&mut p, 0, segments);
        // A node held only by its gmin floor, and a pair of nodes coupled to
        // each other by a capacitor but to nothing else.
        p.nodes += 3;
        let lone = p.nodes - 3;
        p.link(lone + 1, lone + 2);
        p.matrix()
    }

    fn random_pattern(n: usize, density: f64, seed: u64) -> CscMatrix {
        let mut unit = crate::splitmix_stream(seed);
        let mut triplets = Vec::new();
        for c in 0..n {
            if unit() < 0.8 {
                triplets.push((c, c, 1.0));
            }
            for r in 0..n {
                if r != c && unit() < density {
                    triplets.push((r, c, 1.0));
                }
            }
        }
        CscMatrix::from_triplets(n, &triplets)
    }

    #[test]
    fn min_degree_order_matches_the_quadratic_reference() {
        let mut cases: Vec<(String, CscMatrix)> = vec![
            ("empty".into(), CscMatrix::from_triplets(0, &[])),
            (
                "one node".into(),
                CscMatrix::from_triplets(1, &[(0, 0, 1.0)]),
            ),
        ];
        for segments in [1, 5, 40, 64] {
            cases.push((format!("ladder {segments}"), mna_ladder(segments)));
            cases.push((format!("bus {segments}"), mna_coupled_bus(segments)));
            cases.push((format!("floating {segments}"), mna_floating_nodes(segments)));
        }
        for depth in [1, 3, 5] {
            cases.push((format!("tree depth {depth}"), mna_tree(depth)));
        }
        for seed in 0..40u64 {
            let n = 1 + (seed as usize * 7) % 90;
            let density = [0.01, 0.05, 0.15, 0.4][seed as usize % 4];
            cases.push((
                format!("random seed {seed}"),
                random_pattern(n, density, seed),
            ));
        }
        for (name, a) in &cases {
            assert_eq!(
                min_degree_order(a),
                min_degree_order_reference(a),
                "{name}: the orders differ"
            );
        }
    }

    #[test]
    fn solve_into_matches_the_five_pass_reference_bit_for_bit() {
        let mut matrices: Vec<CscMatrix> = (0..12u64)
            .map(|seed| random_system(5 + 11 * seed as usize, 1 + seed as usize % 4, seed).1)
            .collect();
        for a in [mna_ladder(40), mna_coupled_bus(10), mna_tree(3)] {
            // Unit values make the MNA patterns singular; give them a
            // dominant diagonal and asymmetric off-diagonals.
            let n = a.dim();
            let mut unit = crate::splitmix_stream(n as u64);
            let mut triplets = Vec::new();
            for c in 0..n {
                triplets.push((c, c, 4.0 + unit()));
                for p in a.col_ptr[c]..a.col_ptr[c + 1] {
                    if a.row_idx[p] != c {
                        triplets.push((a.row_idx[p], c, unit() - 0.5));
                    }
                }
            }
            matrices.push(CscMatrix::from_triplets(n, &triplets));
        }
        for a in &matrices {
            let n = a.dim();
            let mut lu = SparseLu::empty();
            lu.factor(a).unwrap();
            let mut unit = crate::splitmix_stream(n as u64 ^ 0x5eed);
            for round in 0..3 {
                // Exact zeros in the RHS exercise the skipped updates.
                let b: Vec<f64> = (0..n)
                    .map(|k| {
                        if (k + round) % 3 == 0 {
                            0.0
                        } else {
                            unit() - 0.5
                        }
                    })
                    .collect();
                let mut x = vec![f64::NAN; n];
                lu.solve_into(&b, &mut x);
                let expected = solve_reference(&lu, &b);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&expected), "n = {n}, round {round}");
            }
        }
    }

    /// A pseudo-random sparse system with a dense-solver cross-check.
    fn random_system(
        n: usize,
        extra_per_col: usize,
        seed: u64,
    ) -> (Vec<(usize, usize, f64)>, CscMatrix) {
        let mut unit = crate::splitmix_stream(seed);
        let mut triplets = Vec::new();
        for c in 0..n {
            // Guaranteed nonzero diagonal keeps the dense reference factorable.
            triplets.push((c, c, 2.0 + unit()));
            for _ in 0..extra_per_col {
                let r = (unit() * n as f64) as usize % n;
                triplets.push((r, c, unit() - 0.5));
            }
        }
        let a = CscMatrix::from_triplets(n, &triplets);
        (triplets, a)
    }

    fn dense_from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n, n);
        for &(r, c, v) in triplets {
            m.add_at(r, c, v);
        }
        m
    }

    #[test]
    fn assembly_sums_duplicates_and_sorts_rows() {
        let a = CscMatrix::from_triplets(
            3,
            &[
                (2, 0, 1.0),
                (0, 0, 4.0),
                (2, 0, 0.5),
                (1, 2, -2.0),
                (1, 1, 3.0),
            ],
        );
        assert_eq!(a.dim(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(2, 0), 1.5);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(1, 2), -2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert!((a.max_abs() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn solve_matches_dense_on_random_systems() {
        for (n, extra, seed) in [(5, 2, 1u64), (40, 3, 2), (120, 4, 3)] {
            let (triplets, a) = random_system(n, extra, seed);
            let dense = dense_from_triplets(n, &triplets);
            let b: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
            let expected = dense.solve(&b).unwrap();
            let mut lu = SparseLu::empty();
            lu.factor(&a).unwrap();
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x);
            for k in 0..n {
                assert!(
                    (x[k] - expected[k]).abs() < 1e-9 * expected[k].abs().max(1.0),
                    "n={n} seed={seed} x[{k}] = {} vs {}",
                    x[k],
                    expected[k]
                );
            }
            // Residual check straight against the assembled matrix.
            let ax = a.mul_vec(&x);
            for k in 0..n {
                assert!((ax[k] - b[k]).abs() < 1e-9, "residual at {k}");
            }
        }
    }

    #[test]
    fn handles_structural_zero_diagonals_like_mna_branch_rows() {
        // A voltage-source-style block: node row [g, 1; 1, 0] — the branch
        // row has a structural zero diagonal, so factorization must pivot.
        let triplets = [
            (0, 0, 1e-3),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (2, 2, 0.5),
            (2, 1, 0.2),
            (1, 2, -0.4),
        ];
        let a = CscMatrix::from_triplets(3, &triplets);
        let dense = dense_from_triplets(3, &triplets);
        let b = [1.0, -2.0, 0.5];
        let expected = dense.solve(&b).unwrap();
        let mut lu = SparseLu::empty();
        lu.factor(&a).unwrap();
        let mut x = vec![0.0; 3];
        lu.solve_into(&b, &mut x);
        for k in 0..3 {
            assert!((x[k] - expected[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        // Column 1 is structurally empty.
        let a = CscMatrix::from_triplets(3, &[(0, 0, 1.0), (2, 2, 1.0), (0, 2, 0.5)]);
        let mut lu = SparseLu::empty();
        assert!(matches!(lu.factor(&a), Err(SolveError::Singular { .. })));
        // Numerically singular: two proportional columns.
        let b = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 2.0), (1, 1, 4.0)]);
        assert!(matches!(lu.factor(&b), Err(SolveError::Singular { .. })));
    }

    #[test]
    fn pivot_extremes_track_the_scale() {
        let a = CscMatrix::from_triplets(3, &[(0, 0, 100.0), (1, 1, 1.0), (2, 2, 1e-6)]);
        let mut lu = SparseLu::empty();
        lu.factor(&a).unwrap();
        let (min, max) = lu.pivot_extremes();
        assert!((min - 1e-6).abs() < 1e-18);
        assert!((max - 100.0).abs() < 1e-9);
        assert_eq!(SparseLu::empty().pivot_extremes(), (0.0, 0.0));
    }

    #[test]
    fn min_degree_keeps_tridiagonal_fill_free() {
        // A 1-D ladder (tridiagonal) has a perfect elimination order; the
        // factor nonzeros must stay within the band (no fill blow-up).
        let n = 200;
        let mut triplets = Vec::new();
        for k in 0..n {
            triplets.push((k, k, 4.0));
            if k + 1 < n {
                triplets.push((k, k + 1, -1.0));
                triplets.push((k + 1, k, -1.0));
            }
        }
        let a = CscMatrix::from_triplets(n, &triplets);
        let mut lu = SparseLu::empty();
        lu.factor(&a).unwrap();
        // Tridiagonal LU has at most n-1 off-diagonal entries per factor.
        assert!(
            lu.factor_nnz() <= 3 * n,
            "fill blow-up: {} stored factor entries for a tridiagonal system",
            lu.factor_nnz()
        );
        let b: Vec<f64> = (0..n).map(|k| if k % 7 == 0 { 1.0 } else { 0.0 }).collect();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x);
        let ax = a.mul_vec(&x);
        for k in 0..n {
            assert!((ax[k] - b[k]).abs() < 1e-10);
        }
    }

    #[test]
    fn repeated_solves_are_consistent() {
        let (_, a) = random_system(30, 2, 11);
        let mut lu = SparseLu::empty();
        lu.factor(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|k| k as f64).collect();
        let mut x1 = vec![0.0; 30];
        let mut x2 = vec![0.0; 30];
        lu.solve_into(&b, &mut x1);
        lu.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }
}
