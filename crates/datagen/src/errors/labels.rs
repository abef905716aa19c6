//! Label-error injection (`nde.inject_labelerrors` in the paper's Figure 2).

use crate::errors::InjectionReport;
use nde_tabular::{Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Flips the labels of a uniformly random `fraction` of rows.
///
/// For each selected row, the string label in `label_col` is replaced by a
/// different label drawn deterministically from the column's observed
/// vocabulary (for binary labels this is *the* opposite label). Null labels
/// are never selected.
pub fn flip_labels(
    table: &Table,
    label_col: &str,
    fraction: f64,
    seed: u64,
) -> nde_tabular::Result<(Table, InjectionReport)> {
    let col = table.column(label_col)?;
    let cells = col
        .as_str()
        .ok_or_else(|| nde_tabular::TableError::TypeMismatch {
            expected: nde_tabular::DataType::Str,
            found: col.dtype().to_string(),
        })?;
    let mut vocab: Vec<&str> = cells.iter().flatten().map(|s| &**s).collect();
    vocab.sort_unstable();
    vocab.dedup();
    if vocab.len() < 2 {
        // A single observed label has no "different label" to flip to.
        return Ok((
            table.clone(),
            InjectionReport {
                affected: Vec::new(),
                description: format!("no flips: {label_col:?} has fewer than two labels"),
            },
        ));
    }

    let mut candidates: Vec<usize> = (0..table.num_rows()).filter(|&i| !col.is_null(i)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    let n_flip = ((table.num_rows() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    let mut affected: Vec<usize> = candidates.into_iter().take(n_flip).collect();
    affected.sort_unstable();

    let mut out = table.clone();
    for &i in &affected {
        let current = out.get(i, label_col)?;
        let current = current.as_str().expect("selected rows are non-null");
        // Deterministic "next label in vocabulary" flip.
        let pos = vocab
            .iter()
            .position(|&v| v == current)
            .expect("vocab is observed");
        let replacement = vocab[(pos + 1) % vocab.len()];
        out.set(i, label_col, Value::from(replacement))?;
    }
    Ok((
        out,
        InjectionReport {
            affected,
            description: format!("flipped {n_flip} labels in {label_col:?}"),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(n: usize) -> Table {
        let labels: Vec<String> = (0..n)
            .map(|i| if i % 2 == 0 { "positive" } else { "negative" }.to_owned())
            .collect();
        Table::builder()
            .int("id", (0..n as i64).collect::<Vec<_>>())
            .str("sentiment", labels)
            .build()
            .unwrap()
    }

    #[test]
    fn flips_requested_fraction() {
        let t = demo(100);
        let (dirty, report) = flip_labels(&t, "sentiment", 0.1, 7).unwrap();
        assert_eq!(report.count(), 10);
        // Exactly the reported rows differ.
        for i in 0..100 {
            let changed = dirty.get(i, "sentiment").unwrap() != t.get(i, "sentiment").unwrap();
            assert_eq!(changed, report.is_affected(i), "row {i}");
        }
    }

    #[test]
    fn binary_flip_is_the_opposite_label() {
        let t = demo(10);
        let (dirty, report) = flip_labels(&t, "sentiment", 0.5, 3).unwrap();
        for &i in &report.affected {
            let orig = t.get(i, "sentiment").unwrap();
            let new = dirty.get(i, "sentiment").unwrap();
            assert_ne!(orig, new);
            assert!(new == Value::from("positive") || new == Value::from("negative"));
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let t = demo(50);
        let (a, ra) = flip_labels(&t, "sentiment", 0.2, 9).unwrap();
        let (b, rb) = flip_labels(&t, "sentiment", 0.2, 9).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (_, rc) = flip_labels(&t, "sentiment", 0.2, 10).unwrap();
        assert_ne!(ra.affected, rc.affected);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let t = demo(20);
        let (clean, report) = flip_labels(&t, "sentiment", 0.0, 0).unwrap();
        assert_eq!(clean, t);
        assert_eq!(report.count(), 0);
    }

    #[test]
    fn skips_null_labels() {
        let t = Table::builder()
            .str_opt("sentiment", vec![None, Some("a".into()), Some("b".into())])
            .build()
            .unwrap();
        let (dirty, report) = flip_labels(&t, "sentiment", 1.0, 1).unwrap();
        assert!(!report.is_affected(0) || dirty.get(0, "sentiment").unwrap() != Value::Null);
        assert!(report.count() <= 2);
    }

    #[test]
    fn wrong_column_type_errors() {
        let t = Table::builder().int("x", [1, 2]).build().unwrap();
        assert!(flip_labels(&t, "x", 0.5, 0).is_err());
        assert!(flip_labels(&t, "missing", 0.5, 0).is_err());
    }
}
