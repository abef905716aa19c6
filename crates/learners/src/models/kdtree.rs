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
//! # Observability
//!
//! Building records a `kdtree.build` span (point count, dimensions, and
//! the resulting depth/leaf shape). Each query bumps the `kdtree.query`
//! counter and adds the number of candidate points actually scanned to
//! `kdtree.points_scanned` — the scanned-to-total ratio is the pruning
//! power of the index. All instrumentation is observational and free when
//! `NDE_TRACE` is off.

use crate::matrix::{sq_dist, Matrix};
use nde_parallel::neighbor_order::KNearest;

/// A node: either a leaf of point indices or a split.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        points: Vec<usize>,
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
    data: Matrix,
    root: Node,
    /// Rows with a NaN cell, offered to every query (see module docs).
    nan_rows: Vec<usize>,
    leaf_size: usize,
}

impl KdTree {
    /// Builds a tree over the rows of `data` (median splits on the
    /// widest-spread axis of each partition).
    pub fn build(data: Matrix) -> Self {
        Self::with_leaf_size(data, 16)
    }

    /// Builds with a custom leaf size (mostly for tests).
    pub fn with_leaf_size(data: Matrix, leaf_size: usize) -> Self {
        let leaf_size = leaf_size.max(1);
        let mut span = nde_trace::span("kdtree.build");
        span.field("n", data.nrows());
        span.field("dims", data.ncols());
        let (indices, nan_rows): (Vec<usize>, Vec<usize>) =
            (0..data.nrows()).partition(|&i| !data.row(i).iter().any(|v| v.is_nan()));
        let root = build_node(&data, indices, leaf_size);
        let tree = KdTree {
            data,
            root,
            nan_rows,
            leaf_size,
        };
        span.field("depth", tree.depth());
        span.field("leaves", tree.n_leaves());
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.data.nrows()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.data.nrows() == 0
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
    pub fn nearest_with_distances(&self, query: &[f64], k: usize) -> Vec<(f64, usize)> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut best = KNearest::new(k.min(self.len()));
        for &i in &self.nan_rows {
            best.offer(sq_dist(self.data.row(i), query), i);
        }
        search(&self.data, &self.root, query, &mut best);
        if nde_trace::enabled() {
            nde_trace::counter("kdtree.query").incr();
            nde_trace::counter("kdtree.points_scanned").add(best.offered() as u64);
        }
        best.into_sorted()
    }
}

/// The axis with the largest value spread (max − min) across `indices`,
/// or `None` when every axis is constant (all points coincide). Ties go to
/// the lowest axis index, keeping builds deterministic.
fn widest_spread_axis(data: &Matrix, indices: &[usize]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for axis in 0..data.ncols() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in indices {
            let v = data.get(i, axis);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let spread = hi - lo;
        if spread > 0.0 && best.is_none_or(|(s, _)| spread > s) {
            best = Some((spread, axis));
        }
    }
    best.map(|(_, axis)| axis)
}

fn build_node(data: &Matrix, mut indices: Vec<usize>, leaf_size: usize) -> Node {
    if indices.len() <= leaf_size || data.ncols() == 0 {
        return Node::Leaf { points: indices };
    }
    // Pick the axis that actually discriminates this partition. Cycling
    // axes (`depth % ncols`) degenerates on real encoded data: the moment
    // the cycling axis is constant — every one-hot column is, on a
    // partition of a single category — the whole partition used to
    // collapse into one giant brute-force leaf even though other axes
    // still discriminate.
    let Some(axis) = widest_spread_axis(data, &indices) else {
        // All points identical; nothing any axis can split.
        return Node::Leaf { points: indices };
    };
    indices.sort_by(|&a, &b| {
        data.get(a, axis)
            .total_cmp(&data.get(b, axis))
            .then(a.cmp(&b))
    });
    let mid = indices.len() / 2;
    let threshold = data.get(indices[mid], axis);
    let right: Vec<usize> = indices.split_off(mid);
    Node::Split {
        axis,
        threshold,
        left: Box::new(build_node(data, indices, leaf_size)),
        right: Box::new(build_node(data, right, leaf_size)),
    }
}

fn search(data: &Matrix, node: &Node, query: &[f64], best: &mut KNearest) {
    match node {
        Node::Leaf { points } => {
            for &i in points {
                best.offer(sq_dist(data.row(i), query), i);
            }
        }
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
            search(data, near, query, best);
            // Prune the far side only when even its closest possible point
            // is provably farther than the current worst candidate: false
            // for a NaN bound (NaN query coordinate) and for a NaN or `+∞`
            // worst distance.
            let provably_farther = diff * diff > best.worst_distance();
            if !provably_farther {
                search(data, far, query, best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let tree = KdTree::with_leaf_size(data.clone(), 4);
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
        let tree = KdTree::with_leaf_size(data, 2);
        assert_eq!(tree.nearest(&[1.0, 1.0], 3), vec![0, 1, 2]);
    }

    #[test]
    fn all_identical_points_collapse_to_one_leaf() {
        let rows = vec![vec![2.0, 3.0]; 40];
        let tree = KdTree::with_leaf_size(Matrix::from_rows(&rows).unwrap(), 4);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn constant_leading_axis_still_splits() {
        // Axis 0 is constant on the full set; a cycling splitter would
        // have bailed into a single leaf at the root.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![7.0, i as f64]).collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::with_leaf_size(data.clone(), 4);
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
        let tree = KdTree::with_leaf_size(data.clone(), 8);
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
        let tree = KdTree::with_leaf_size(data.clone(), 4);
        let query = [1.0, 2.0];
        for (d, i) in tree.nearest_with_distances(&query, 5) {
            assert_eq!(d, sq_dist(data.row(i), &query));
        }
    }

    #[test]
    fn k_exceeding_size_returns_everything() {
        let data = grid_data(5, 2);
        let tree = KdTree::build(data.clone());
        let all = tree.nearest(&[0.0, 0.0], 100);
        assert_eq!(all.len(), 5);
        assert_eq!(all, brute_force(&data, &[0.0, 0.0], 100));
    }

    #[test]
    fn empty_and_zero_k() {
        let tree = KdTree::build(Matrix::zeros(0, 2));
        assert!(tree.nearest(&[0.0, 0.0], 3).is_empty());
        assert!(tree.is_empty());
        let tree = KdTree::build(grid_data(5, 2));
        assert!(tree.nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn single_dimension_and_single_point() {
        let data = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let tree = KdTree::build(data);
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
        let tree = KdTree::build(data.clone());
        let query = [f64::NAN, 3.0];
        assert_eq!(tree.nearest(&query, 5), brute_force(&data, &query, 5));
    }

    #[test]
    fn high_dimension_queries() {
        let data = grid_data(200, 16);
        let tree = KdTree::with_leaf_size(data.clone(), 8);
        let query = vec![3.0; 16];
        assert_eq!(tree.nearest(&query, 7), brute_force(&data, &query, 7));
    }
}
