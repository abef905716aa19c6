//! Oracle tests for the Identify kernels: each fast kernel must equal its
//! plain reference bit for bit, on inputs that include every IEEE corner
//! the neighbor order ranks (`±0.0`, NaN of both signs, `±∞`).
//!
//! - `sq_dists` against `sq_dist` per row, and `Matrix::dot_rows` (the
//!   AUM logit kernel) against `dot` per (row, weight row);
//! - `rank_all` (integer keys) against a comparator sort under
//!   `neighbor_order::cmp` on arbitrary `f64` bit patterns;
//! - the leaf-ordered `KdTree` against the brute-force `k_nearest`, and
//!   its scanned-point count, depth and leaf count against the reference
//!   tree below: a copy of the index-list tree it replaced, which scans
//!   leaves with `sq_dist` and splits on a full sort.

use nde_learners::matrix::{dot, sq_dist, sq_dists, Matrix};
use nde_learners::models::kdtree::KdTree;
use nde_parallel::neighbor_order::{cmp, k_nearest, rank_all};
use proptest::prelude::*;

/// A cell value: mostly a small grid (so ties, duplicates and zeros of
/// both signs are common), sometimes a non-finite value or arbitrary bits.
fn arb_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-3i32..4).prop_map(|v| f64::from(v) / 2.0),
        (-3i32..4).prop_map(|v| f64::from(v) / 2.0),
        (-3i32..4).prop_map(|v| f64::from(v) / 2.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// A finite cell value on the grid, or (rarely) one IEEE corner.
fn arb_tree_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        (-4i32..5).prop_map(f64::from),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// `n` rows of width `d` plus one extra row-width vector; a third of the
/// blocks have zero width.
fn arb_block() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    let width = prop_oneof![Just(0usize), 1usize..7, 1usize..7];
    (0usize..11, width).prop_flat_map(|(n, d)| {
        (
            Just(n),
            prop::collection::vec(arb_cell(), n * d..=n * d),
            prop::collection::vec(arb_cell(), d..=d),
        )
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A copy of the k-d tree before leaf ordering: leaves hold index lists
/// into the caller's matrix, partitions split on a full sort, and the
/// split axis comes from one column-strided min/max pass per axis.
mod reference {
    use nde_learners::matrix::{sq_dist, Matrix};
    use nde_parallel::neighbor_order::KNearest;

    enum Node {
        Leaf(Vec<usize>),
        Split {
            axis: usize,
            threshold: f64,
            left: Box<Node>,
            right: Box<Node>,
        },
    }

    pub struct Tree<'a> {
        data: &'a Matrix,
        root: Node,
        nan_rows: Vec<usize>,
    }

    impl<'a> Tree<'a> {
        pub fn build(data: &'a Matrix, leaf_size: usize) -> Self {
            let (indices, nan_rows): (Vec<usize>, Vec<usize>) =
                (0..data.nrows()).partition(|&i| !data.row(i).iter().any(|v| v.is_nan()));
            let root = build_node(data, indices, leaf_size.max(1));
            Tree {
                data,
                root,
                nan_rows,
            }
        }

        /// `(neighbors, points offered)` of a k-nearest query.
        pub fn query(&self, query: &[f64], k: usize) -> (Vec<(f64, usize)>, usize) {
            if self.data.nrows() == 0 || k == 0 {
                return (Vec::new(), 0);
            }
            let mut best = KNearest::new(k.min(self.data.nrows()));
            for &i in &self.nan_rows {
                best.offer(sq_dist(self.data.row(i), query), i);
            }
            search(self.data, &self.root, query, &mut best);
            let offered = best.offered();
            (best.into_sorted(), offered)
        }

        pub fn depth(&self) -> usize {
            fn walk(node: &Node) -> usize {
                match node {
                    Node::Leaf(_) => 0,
                    Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
                }
            }
            walk(&self.root)
        }

        pub fn n_leaves(&self) -> usize {
            fn walk(node: &Node) -> usize {
                match node {
                    Node::Leaf(_) => 1,
                    Node::Split { left, right, .. } => walk(left) + walk(right),
                }
            }
            walk(&self.root)
        }
    }

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
            return Node::Leaf(indices);
        }
        let Some(axis) = widest_spread_axis(data, &indices) else {
            return Node::Leaf(indices);
        };
        indices.sort_by(|&a, &b| {
            data.get(a, axis)
                .total_cmp(&data.get(b, axis))
                .then(a.cmp(&b))
        });
        let mid = indices.len() / 2;
        let threshold = data.get(indices[mid], axis);
        let right = indices.split_off(mid);
        Node::Split {
            axis,
            threshold,
            left: Box::new(build_node(data, indices, leaf_size)),
            right: Box::new(build_node(data, right, leaf_size)),
        }
    }

    fn search(data: &Matrix, node: &Node, query: &[f64], best: &mut KNearest) {
        match node {
            Node::Leaf(points) => {
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
                let provably_farther = diff * diff > best.worst_distance();
                if !provably_farther {
                    search(data, far, query, best);
                }
            }
        }
    }
}

/// Zero-width rows: every block of four and the remainder give `-0.0`,
/// the empty `Iterator::sum`, as `sq_dist` and `dot` do.
#[test]
fn zero_width_rows_give_negative_zero() {
    for n in 0..10 {
        let mut out = vec![1.0; n];
        sq_dists(&[], &[], &mut out);
        assert!(
            out.iter()
                .all(|d| d.to_bits() == sq_dist(&[], &[]).to_bits()),
            "n {n}"
        );
        let x = Matrix::new(n, 0, Vec::new()).unwrap();
        let w = Matrix::new(3, 0, Vec::new()).unwrap();
        let mut logits = vec![1.0; n * 3];
        x.dot_rows(&w, &mut logits);
        assert!(
            logits
                .iter()
                .all(|z| z.to_bits() == dot(&[], &[]).to_bits()),
            "n {n}"
        );
    }
}

proptest! {
    /// `sq_dists` equals `sq_dist` row by row, bit for bit: any `n`
    /// (blocks of four plus a remainder), `d = 0`, and every IEEE corner.
    #[test]
    fn sq_dists_equals_sq_dist((n, rows, q) in arb_block()) {
        let d = q.len();
        let mut out = vec![1.0; n];
        sq_dists(&rows, &q, &mut out);
        let expected: Vec<f64> = (0..n).map(|i| sq_dist(&rows[i * d..(i + 1) * d], &q)).collect();
        prop_assert_eq!(bits(&out), bits(&expected));
    }

    /// `Matrix::dot_rows` equals `dot(w_k, x_i)` for every (row, weight
    /// row), bit for bit, including zero rows, zero width and zero classes.
    #[test]
    fn dot_rows_equals_dot(
        (n, rows, q) in arb_block(),
        c in 0usize..4,
        seed in prop::collection::vec(arb_cell(), 0..24),
    ) {
        let d = q.len();
        let x = Matrix::new(n, d, rows).unwrap();
        let cells: Vec<f64> = (0..c * d).map(|j| seed.get(j).copied().unwrap_or(0.5)).collect();
        let w = Matrix::new(c, d, cells).unwrap();
        let mut out = vec![1.0; n * c];
        x.dot_rows(&w, &mut out);
        let mut expected = Vec::with_capacity(n * c);
        for i in 0..n {
            for k in 0..c {
                expected.push(dot(w.row(k), x.row(i)));
            }
        }
        prop_assert_eq!(bits(&out), bits(&expected));
    }

    /// `rank_all` equals a comparator sort under `neighbor_order::cmp` on
    /// arbitrary bit patterns, returning every distance's exact bits.
    #[test]
    fn rank_all_equals_the_comparator_sort(dists in prop::collection::vec(arb_cell(), 0..64)) {
        let ranked = rank_all(dists.len(), |i| dists[i]);
        let mut expected: Vec<(f64, u32)> =
            dists.iter().enumerate().map(|(i, &d)| (d, i as u32)).collect();
        expected.sort_by(cmp);
        let as_bits = |list: &[(f64, u32)]| -> Vec<(u64, u32)> {
            list.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
        };
        prop_assert_eq!(as_bits(&ranked), as_bits(&expected));
    }

    /// The leaf-ordered tree returns the brute-force neighbors bit for
    /// bit, and scans exactly as many points as the reference tree, with
    /// the same depth and leaf count.
    #[test]
    fn leaf_ordered_tree_matches_brute_force_and_the_reference_tree(
        (n, d) in (0usize..60, 1usize..5),
        cells in prop::collection::vec(arb_tree_cell(), 0..300),
        queries in prop::collection::vec(prop::collection::vec(arb_tree_cell(), 4..=4), 1..6),
        leaf_size in 1usize..7,
        k in 0usize..9,
    ) {
        let data: Vec<f64> = (0..n * d).map(|j| cells.get(j).copied().unwrap_or(j as f64 % 3.0)).collect();
        let x = Matrix::new(n, d, data).unwrap();
        let tree = KdTree::with_leaf_size(&x, leaf_size);
        let reference = reference::Tree::build(&x, leaf_size);
        prop_assert_eq!(tree.len(), n);
        prop_assert_eq!(tree.depth(), reference.depth());
        prop_assert_eq!(tree.n_leaves(), reference.n_leaves());
        for q in &queries {
            let q = &q[..d];
            let got = tree.nearest_with_distances(q, k);
            let oracle = k_nearest(n, k, |i| sq_dist(x.row(i), q));
            let (expected, offered) = reference.query(q, k);
            let as_bits = |list: &[(f64, usize)]| -> Vec<(u64, usize)> {
                list.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
            };
            prop_assert_eq!(as_bits(&got), as_bits(&oracle));
            prop_assert_eq!(as_bits(&got), as_bits(&expected));
            prop_assert_eq!(tree.points_scanned(q, k), offered);
        }
    }
}
