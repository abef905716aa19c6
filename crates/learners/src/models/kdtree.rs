//! A k-d tree for exact nearest-neighbor queries — the indexing structure
//! that keeps the tutorial's k-NN machinery (prediction, KNN-Shapley,
//! CPClean) scalable beyond brute-force scans (§2.4's scalability theme).
//!
//! Queries return exactly the same neighbors as a brute-force scan: leaf
//! points are offered to the workspace's bounded k-nearest selector
//! (`nde_parallel::neighbor_order::KNearest`), so the tree ranks by the
//! same `(distance, index)` order as every other k-NN path.
//!
//! That order compares distances with `f64::total_cmp`, under which a NaN
//! with its sign bit set ranks before every number. A far subtree can
//! therefore only be pruned when none of its distances can be NaN: rows
//! with a NaN cell stay outside the tree and are scanned on every query,
//! and a query whose bound is NaN or whose worst kept distance is NaN or
//! `+∞` searches both sides of each split.
//!
//! Split axes are chosen by **widest spread**, not by cycling dimensions:
//! encoded tables are full of constant and one-hot columns (see
//! `preprocessing/encoder.rs`), and a cycling splitter that gives up as
//! soon as its current axis is constant collapses whole partitions into a
//! single brute-force leaf. Spread-based selection only stops splitting
//! when *every* axis is constant — i.e. all remaining points coincide.
//!
//! # Layout
//!
//! Building borrows the caller's matrix and gathers its rows once, into
//! leaf order: each leaf is a contiguous `start..end` range of the tree's
//! own row-major buffer, and the NaN rows form a tail range after the last
//! leaf. `ids` maps every gathered row back to its original index, which
//! is the index every point is offered under. Leaf ranges are scanned with
//! the candidate-blocked [`sq_dists`] kernel, which equals
//! [`sq_dist`](crate::matrix::sq_dist) bit for bit. Partitions split with
//! a selection on the same `(value, index)` order a full sort would use,
//! so the partitions, the thresholds and hence the pruning are those of a
//! sorted median split.
//!
//! # Observability
//!
//! Building records a `kdtree.build` span (point count, dimensions, and
//! the resulting depth/leaf shape). Each query bumps the `kdtree.query`
//! counter and adds the number of candidate points actually scanned to
//! `kdtree.points_scanned` — the scanned-to-total ratio is the pruning
//! power of the index. All instrumentation is observational and free when
//! `NDE_TRACE` is off.

use crate::matrix::{sq_dists, Matrix};
use nde_parallel::neighbor_order::{from_order_key, order_key, KNearest};
use std::ops::Range;

/// Rows per [`sq_dists`] call in a leaf scan: the size of the stack
/// buffer a query scans through, so a query allocates nothing per leaf.
const SCAN_ROWS: usize = 32;

/// A node: either a leaf range of the gathered rows or a split.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        rows: Range<usize>,
    },
    Split {
        axis: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// An immutable k-d tree over the rows of a matrix.
#[derive(Debug, Clone)]
pub struct KdTree {
    /// The indexed rows in leaf order, then the NaN tail.
    rows: Matrix,
    /// The original index of each row of `rows`.
    ids: Vec<usize>,
    root: Node,
    /// Start of the tail of rows with a NaN cell, offered to every query
    /// (see module docs).
    nan_start: usize,
    leaf_size: usize,
}

/// Scratch space reused by every node of one build.
struct Splitter<'a> {
    data: &'a Matrix,
    leaf_size: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    keyed: Vec<(u64, usize)>,
}

impl KdTree {
    /// Builds a tree over the rows of `data` (median splits on the
    /// widest-spread axis of each partition).
    pub fn build(data: &Matrix) -> Self {
        Self::with_leaf_size(data, 16)
    }

    /// Builds with a custom leaf size (mostly for tests).
    pub fn with_leaf_size(data: &Matrix, leaf_size: usize) -> Self {
        let leaf_size = leaf_size.max(1);
        let mut span = nde_trace::span("kdtree.build");
        span.field("n", data.nrows());
        span.field("dims", data.ncols());
        let (mut ids, nan_rows): (Vec<usize>, Vec<usize>) =
            (0..data.nrows()).partition(|&i| !data.row(i).iter().any(|v| v.is_nan()));
        let nan_start = ids.len();
        let mut splitter = Splitter {
            data,
            leaf_size,
            lo: vec![0.0; data.ncols()],
            hi: vec![0.0; data.ncols()],
            keyed: Vec::with_capacity(nan_start),
        };
        let root = splitter.node(&mut ids, 0);
        ids.extend(nan_rows);
        let tree = KdTree {
            rows: data.take_rows(&ids),
            ids,
            root,
            nan_start,
            leaf_size,
        };
        span.field("depth", tree.depth());
        span.field("leaves", tree.n_leaves());
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The configured leaf size.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Depth of the tree: 0 for a single leaf, else 1 + the deeper child.
    /// A tree that actually splits its data has depth ≥ 1 — the assertion
    /// that the degenerate-axis fix holds on one-hot layouts.
    pub fn depth(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }

    /// Number of leaf nodes. A healthy tree over `n` points has roughly
    /// `n / leaf_size` leaves; a degenerated one has exactly 1.
    pub fn n_leaves(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// The indices of the `k` nearest rows to `query`, ordered by
    /// increasing distance with ties broken by index — identical to a
    /// brute-force scan.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<usize> {
        self.nearest_with_distances(query, k)
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    }

    /// [`KdTree::nearest`], returning `(squared distance, index)` pairs —
    /// the entry shape of the workspace's neighbor caches.
    ///
    /// # Panics
    ///
    /// When `query` is not as wide as the indexed rows.
    pub fn nearest_with_distances(&self, query: &[f64], k: usize) -> Vec<(f64, usize)> {
        self.select(query, k).into_sorted()
    }

    /// How many points a query for the `k` nearest to `query` scans: what
    /// it adds to `kdtree.points_scanned`.
    pub fn points_scanned(&self, query: &[f64], k: usize) -> usize {
        self.select(query, k).offered()
    }

    fn select(&self, query: &[f64], k: usize) -> KNearest {
        let mut best = KNearest::new(k.min(self.len()));
        if self.is_empty() || k == 0 {
            return best;
        }
        let mut dists = [0.0f64; SCAN_ROWS];
        self.scan(self.nan_start..self.len(), query, &mut best, &mut dists);
        self.search(&self.root, query, &mut best, &mut dists);
        if nde_trace::enabled() {
            nde_trace::counter("kdtree.query").incr();
            nde_trace::counter("kdtree.points_scanned").add(best.offered() as u64);
        }
        best
    }

    /// Offers every row of `range` under its original index.
    fn scan(
        &self,
        range: Range<usize>,
        query: &[f64],
        best: &mut KNearest,
        dists: &mut [f64; SCAN_ROWS],
    ) {
        let d = self.rows.ncols();
        let data = self.rows.data();
        for start in range.clone().step_by(SCAN_ROWS) {
            let end = (start + SCAN_ROWS).min(range.end);
            let dists = &mut dists[..end - start];
            sq_dists(&data[start * d..end * d], query, dists);
            for (&dist, &id) in dists.iter().zip(&self.ids[start..end]) {
                best.offer(dist, id);
            }
        }
    }

    fn search(
        &self,
        node: &Node,
        query: &[f64],
        best: &mut KNearest,
        dists: &mut [f64; SCAN_ROWS],
    ) {
        match node {
            Node::Leaf { rows } => self.scan(rows.clone(), query, best, dists),
            Node::Split {
                axis,
                threshold,
                left,
                right,
            } => {
                let diff = query[*axis] - threshold;
                let (near, far) = if diff < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.search(near, query, best, dists);
                // Prune the far side only when even its closest possible
                // point is provably farther than the current worst
                // candidate: false for a NaN bound (NaN query coordinate)
                // and for a NaN or `+∞` worst distance.
                let provably_farther = diff * diff > best.worst_distance();
                if !provably_farther {
                    self.search(far, query, best, dists);
                }
            }
        }
    }
}

impl Splitter<'_> {
    /// The axis with the largest value spread (max − min) across `ids`,
    /// or `None` when every axis is constant (all points coincide). Ties
    /// go to the lowest axis index, keeping builds deterministic. One pass
    /// reads the rows in order; without NaN the spreads do not depend on
    /// the order of `ids`.
    fn widest_spread_axis(&mut self, ids: &[usize]) -> Option<usize> {
        self.lo.fill(f64::INFINITY);
        self.hi.fill(f64::NEG_INFINITY);
        for &i in ids {
            for ((lo, hi), &v) in self.lo.iter_mut().zip(&mut self.hi).zip(self.data.row(i)) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        let mut best: Option<(f64, usize)> = None;
        for (axis, (lo, hi)) in self.lo.iter().zip(&self.hi).enumerate() {
            let spread = hi - lo;
            if spread > 0.0 && best.is_none_or(|(s, _)| spread > s) {
                best = Some((spread, axis));
            }
        }
        best.map(|(_, axis)| axis)
    }

    /// Builds the subtree over `ids`, which sit at `offset..` in leaf
    /// order, partitioning `ids` in place.
    fn node(&mut self, ids: &mut [usize], offset: usize) -> Node {
        let leaf = |ids: &[usize]| Node::Leaf {
            rows: offset..offset + ids.len(),
        };
        if ids.len() <= self.leaf_size || self.data.ncols() == 0 {
            return leaf(ids);
        }
        // Pick the axis that actually discriminates this partition.
        // Cycling axes (`depth % ncols`) degenerates on real encoded data:
        // the moment the cycling axis is constant — every one-hot column
        // is, on a partition of a single category — the whole partition
        // used to collapse into one giant brute-force leaf even though
        // other axes still discriminate.
        let Some(axis) = self.widest_spread_axis(ids) else {
            // All points identical; nothing any axis can split.
            return leaf(ids);
        };
        // Median split under the `(value, index)` order, on integer keys
        // that rank as `total_cmp`. Selection puts the same points on each
        // side as a full sort would.
        let mid = ids.len() / 2;
        self.keyed.clear();
        self.keyed
            .extend(ids.iter().map(|&i| (order_key(self.data.get(i, axis)), i)));
        self.keyed.select_nth_unstable(mid);
        let threshold = from_order_key(self.keyed[mid].0);
        for (id, &(_, i)) in ids.iter_mut().zip(&self.keyed) {
            *id = i;
        }
        let (left, right) = ids.split_at_mut(mid);
        Node::Split {
            axis,
            threshold,
            left: Box::new(self.node(left, offset)),
            right: Box::new(self.node(right, offset + mid)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::sq_dist;

    fn brute_force(data: &Matrix, query: &[f64], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..data.nrows()).collect();
        order.sort_by(|&a, &b| {
            sq_dist(data.row(a), query)
                .total_cmp(&sq_dist(data.row(b), query))
                .then(a.cmp(&b))
        });
        order.truncate(k.min(data.nrows()));
        order
    }

    fn grid_data(n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 37 + j * 13) % 101) as f64 / 7.0)
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// Rows shaped like the standard table encoding: a constant bias
    /// column, a one-hot block, and one informative numeric column.
    fn one_hot_data(n: usize, categories: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![1.0]; // constant column
                for c in 0..categories {
                    row.push(f64::from(u8::from(i % categories == c)));
                }
                row.push(((i * 31) % 97) as f64 / 9.0); // informative numeric
                row
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_brute_force_exactly() {
        let data = grid_data(300, 3);
        let tree = KdTree::with_leaf_size(&data, 4);
        for qi in 0..20 {
            let query: Vec<f64> = vec![qi as f64, (qi * 2) as f64 % 13.0, 3.5];
            for k in [1usize, 3, 10] {
                assert_eq!(
                    tree.nearest(&query, k),
                    brute_force(&data, &query, k),
                    "query {qi}, k {k}"
                );
            }
        }
    }

    #[test]
    fn handles_duplicate_points_with_index_tiebreak() {
        let rows = vec![vec![1.0, 1.0]; 10];
        let data = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::with_leaf_size(&data, 2);
        assert_eq!(tree.nearest(&[1.0, 1.0], 3), vec![0, 1, 2]);
    }

    #[test]
    fn all_identical_points_collapse_to_one_leaf() {
        let rows = vec![vec![2.0, 3.0]; 40];
        let tree = KdTree::with_leaf_size(&Matrix::from_rows(&rows).unwrap(), 4);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn constant_leading_axis_still_splits() {
        // Axis 0 is constant on the full set; a cycling splitter would
        // have bailed into a single leaf at the root.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![7.0, i as f64]).collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::with_leaf_size(&data, 4);
        assert!(tree.depth() >= 3, "depth {}", tree.depth());
        assert!(tree.n_leaves() >= 8, "leaves {}", tree.n_leaves());
        assert_eq!(
            tree.nearest(&[7.0, 31.5], 4),
            brute_force(&data, &[7.0, 31.5], 4)
        );
    }

    #[test]
    fn one_hot_layout_splits_instead_of_degenerating() {
        // Mimics encoder output (constant + one-hot + numeric). The old
        // cycling build hit the constant column at the root and returned a
        // single 256-point leaf; spread-based selection must keep the
        // leaves near leaf_size and still agree with brute force.
        let data = one_hot_data(256, 4);
        let tree = KdTree::with_leaf_size(&data, 8);
        assert!(tree.depth() >= 4, "depth {}", tree.depth());
        assert!(
            tree.n_leaves() >= 256 / 8 / 2,
            "leaves {} — tree degenerated",
            tree.n_leaves()
        );
        for qi in 0..12 {
            let mut query = vec![1.0];
            for c in 0..4 {
                query.push(f64::from(u8::from(qi % 4 == c)));
            }
            query.push(qi as f64);
            for k in [1usize, 5, 9] {
                assert_eq!(
                    tree.nearest(&query, k),
                    brute_force(&data, &query, k),
                    "query {qi}, k {k}"
                );
            }
        }
    }

    #[test]
    fn nearest_with_distances_reports_squared_distances() {
        let data = grid_data(50, 2);
        let tree = KdTree::with_leaf_size(&data, 4);
        let query = [1.0, 2.0];
        for (d, i) in tree.nearest_with_distances(&query, 5) {
            assert_eq!(d, sq_dist(data.row(i), &query));
        }
    }

    #[test]
    fn k_exceeding_size_returns_everything() {
        let data = grid_data(5, 2);
        let tree = KdTree::build(&data);
        let all = tree.nearest(&[0.0, 0.0], 100);
        assert_eq!(all.len(), 5);
        assert_eq!(all, brute_force(&data, &[0.0, 0.0], 100));
    }

    #[test]
    fn empty_and_zero_k() {
        let tree = KdTree::build(&Matrix::zeros(0, 2));
        assert!(tree.nearest(&[0.0, 0.0], 3).is_empty());
        assert!(tree.is_empty());
        let tree = KdTree::build(&grid_data(5, 2));
        assert!(tree.nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn single_dimension_and_single_point() {
        let data = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let tree = KdTree::build(&data);
        assert_eq!(tree.nearest(&[0.0], 1), vec![0]);
    }

    #[test]
    fn nan_query_coordinate_matches_brute_force() {
        // A NaN coordinate makes every distance NaN, so the pruning bound
        // must never fire: the tree used to search only the right side of
        // each split and return a different neighbor set.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![((i * 7) % 31) as f64, ((i * 13) % 17) as f64])
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::build(&data);
        let query = [f64::NAN, 3.0];
        assert_eq!(tree.nearest(&query, 5), brute_force(&data, &query, 5));
    }

    #[test]
    fn high_dimension_queries() {
        let data = grid_data(200, 16);
        let tree = KdTree::with_leaf_size(&data, 8);
        let query = vec![3.0; 16];
        assert_eq!(tree.nearest(&query, 7), brute_force(&data, &query, 7));
    }
}
