//! Table-to-features encoding: the `ColumnTransformer` of the paper's
//! pipeline sketch. Turns a [`Table`] into a [`ClassDataset`] given
//! per-column encoding specs, preserving row order one-to-one (crucial for
//! provenance: output row `i` of the encoder comes from input row `i`).

use nde_tabular::Table;
use std::sync::Arc;

use crate::dataset::ClassDataset;
use crate::matrix::Matrix;
use crate::preprocessing::onehot::OneHotEncoder;
use crate::preprocessing::text::SentenceEmbedder;
use crate::{LearnError, Result};

/// How one table column becomes features.
#[derive(Debug, Clone)]
pub enum ColumnSpec {
    /// Numeric column: nulls imputed with the fitted mean, then standardized
    /// (z-score) using fitted statistics.
    Numeric {
        /// Column name.
        name: String,
    },
    /// Categorical string column: one-hot with fitted vocabulary.
    Categorical {
        /// Column name.
        name: String,
    },
    /// Free-text column: pseudo-sentence-embedding of the given width.
    Text {
        /// Column name.
        name: String,
        /// Embedding dimensionality.
        dims: usize,
    },
}

impl ColumnSpec {
    /// Numeric spec.
    pub fn numeric(name: impl Into<String>) -> Self {
        ColumnSpec::Numeric { name: name.into() }
    }

    /// Categorical spec.
    pub fn categorical(name: impl Into<String>) -> Self {
        ColumnSpec::Categorical { name: name.into() }
    }

    /// Text spec.
    pub fn text(name: impl Into<String>, dims: usize) -> Self {
        ColumnSpec::Text {
            name: name.into(),
            dims,
        }
    }

    /// The column this spec reads.
    pub fn column_name(&self) -> &str {
        match self {
            ColumnSpec::Numeric { name }
            | ColumnSpec::Categorical { name }
            | ColumnSpec::Text { name, .. } => name,
        }
    }
}

/// A (not yet fitted) table encoder: column specs plus the label column.
#[derive(Debug, Clone)]
pub struct TableEncoder {
    specs: Vec<ColumnSpec>,
    label: String,
}

enum FittedSpec {
    Numeric {
        name: String,
        mean: f64,
        std: f64,
    },
    Categorical {
        name: String,
        encoder: OneHotEncoder,
    },
    Text {
        name: String,
        embedder: SentenceEmbedder,
    },
}

/// A fitted encoder: holds per-column statistics/vocabularies and the label
/// vocabulary, and can transform any table with the same schema.
pub struct FittedTableEncoder {
    fitted: Vec<FittedSpec>,
    label: String,
    classes: Vec<String>,
    width: usize,
}

impl TableEncoder {
    /// Creates an encoder for `specs`, with `label` as the target column
    /// (a string column; its sorted distinct values become classes 0..k).
    pub fn new(specs: Vec<ColumnSpec>, label: impl Into<String>) -> Self {
        TableEncoder {
            specs,
            label: label.into(),
        }
    }

    /// Fits statistics/vocabularies on `table`.
    pub fn fit(&self, table: &Table) -> Result<FittedTableEncoder> {
        let mut span = nde_trace::span("learners.encoder_fit");
        span.field("rows", table.num_rows());
        span.field("columns", self.specs.len());
        let mut fitted = Vec::with_capacity(self.specs.len());
        let mut width = 0usize;
        for spec in &self.specs {
            match spec {
                ColumnSpec::Numeric { name } => {
                    let col = table.column(name).map_err(|e| LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
                    let vals: Vec<f64> = col
                        .to_f64()
                        .map_err(|e| LearnError::Encoding {
                            detail: e.to_string(),
                        })?
                        .into_iter()
                        .flatten()
                        .collect();
                    let mean = if vals.is_empty() {
                        0.0
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    };
                    let var = if vals.is_empty() {
                        0.0
                    } else {
                        vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                            / vals.len() as f64
                    };
                    let std = if var.sqrt() < 1e-12 { 1.0 } else { var.sqrt() };
                    width += 1;
                    fitted.push(FittedSpec::Numeric {
                        name: name.clone(),
                        mean,
                        std,
                    });
                }
                ColumnSpec::Categorical { name } => {
                    let encoder = OneHotEncoder::fit(table, name)?;
                    width += encoder.width();
                    fitted.push(FittedSpec::Categorical {
                        name: name.clone(),
                        encoder,
                    });
                }
                ColumnSpec::Text { name, dims } => {
                    table.column(name).map_err(|e| LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
                    width += *dims;
                    fitted.push(FittedSpec::Text {
                        name: name.clone(),
                        embedder: SentenceEmbedder::new(*dims),
                    });
                }
            }
        }
        let labels = label_strings(table, &self.label)?;
        let mut classes: Vec<&str> = labels.iter().flatten().map(|s| &**s).collect();
        classes.sort_unstable();
        classes.dedup();
        let classes: Vec<String> = classes.into_iter().map(str::to_owned).collect();
        if classes.is_empty() {
            return Err(LearnError::Encoding {
                detail: format!("label column {:?} has no non-null values", self.label),
            });
        }
        Ok(FittedTableEncoder {
            fitted,
            label: self.label.clone(),
            classes,
            width,
        })
    }

    /// Fit on `table` and transform it in one call.
    pub fn fit_transform(&self, table: &Table) -> Result<(FittedTableEncoder, ClassDataset)> {
        let fitted = self.fit(table)?;
        let data = fitted.transform(table)?;
        Ok((fitted, data))
    }
}

fn label_strings<'t>(table: &'t Table, label: &str) -> Result<&'t [Option<Arc<str>>]> {
    let col = table.column(label).map_err(|e| LearnError::Encoding {
        detail: e.to_string(),
    })?;
    col.as_str().ok_or_else(|| LearnError::Encoding {
        detail: format!("label column {label:?} must be a string column"),
    })
}

impl FittedTableEncoder {
    /// Total feature width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The label vocabulary (class `i` is `classes()[i]`).
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// The class index for a label string, if known.
    pub fn class_index(&self, label: &str) -> Option<usize> {
        self.classes
            .binary_search_by(|c| c.as_str().cmp(label))
            .ok()
    }

    /// Encodes only the features of `table` (row `i` of the output comes
    /// from row `i` of the input). Every spec writes its columns straight
    /// into one row-major `rows × width` buffer, so a zero-row table still
    /// yields `width` columns.
    pub fn transform_features(&self, table: &Table) -> Result<Matrix> {
        let n = table.num_rows();
        let width = self.width;
        let mut data = vec![0.0; n * width];
        let mut offset = 0;
        for spec in &self.fitted {
            match spec {
                FittedSpec::Numeric { name, mean, std } => {
                    let col = table.column(name).map_err(|e| LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
                    let vals = col.to_f64().map_err(|e| LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
                    for (i, v) in vals.into_iter().enumerate() {
                        let x = v.unwrap_or(*mean);
                        data[i * width + offset] = (x - mean) / std;
                    }
                    offset += 1;
                }
                FittedSpec::Categorical { name, encoder } => {
                    encoder.transform_into(table, name, &mut data, width, offset)?;
                    offset += encoder.width();
                }
                FittedSpec::Text { name, embedder } => {
                    let col = table.column(name).map_err(|e| LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
                    let cells = col.as_str().ok_or_else(|| LearnError::Encoding {
                        detail: format!("text column {name:?} must be a string column"),
                    })?;
                    embedder.embed_rows(
                        n,
                        |i| cells[i].as_deref().unwrap_or(""),
                        &mut data,
                        width,
                        offset,
                    );
                    offset += embedder.dims;
                }
            }
        }
        Matrix::new(n, width, data)
    }

    /// Encodes features and labels into a [`ClassDataset`]. Rows whose label
    /// is null or unseen are an error (filter them upstream).
    pub fn transform(&self, table: &Table) -> Result<ClassDataset> {
        let mut span = nde_trace::span("learners.encoder_transform");
        span.field("rows", table.num_rows());
        let x = self.transform_features(table)?;
        let labels = label_strings(table, &self.label)?;
        let mut y = Vec::with_capacity(labels.len());
        for (i, label) in labels.iter().enumerate() {
            let label = label.as_deref().ok_or_else(|| LearnError::Encoding {
                detail: format!("row {i}: null label"),
            })?;
            let idx = self
                .class_index(label)
                .ok_or_else(|| LearnError::Encoding {
                    detail: format!("row {i}: unseen label {label:?}"),
                })?;
            y.push(idx);
        }
        ClassDataset::new(x, y, self.classes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .float("rating", [Some(1.0), None, Some(5.0), Some(3.0)])
            .str("degree", ["bsc", "msc", "bsc", "phd"])
            .str(
                "letter",
                [
                    "outstanding brilliant work",
                    "poor terrible effort",
                    "outstanding excellent results",
                    "mediocre average performance",
                ],
            )
            .str(
                "sentiment",
                ["positive", "negative", "positive", "negative"],
            )
            .build()
            .unwrap()
    }

    fn specs() -> Vec<ColumnSpec> {
        vec![
            ColumnSpec::numeric("rating"),
            ColumnSpec::categorical("degree"),
            ColumnSpec::text("letter", 16),
        ]
    }

    #[test]
    fn widths_add_up() {
        let enc = TableEncoder::new(specs(), "sentiment");
        let (fitted, data) = enc.fit_transform(&demo()).unwrap();
        // 1 numeric + 3 one-hot + 16 text = 20.
        assert_eq!(fitted.width(), 20);
        assert_eq!(data.n_features(), 20);
        assert_eq!(data.len(), 4);
        assert_eq!(data.n_classes, 2);
    }

    #[test]
    fn empty_table_keeps_width() {
        let enc = TableEncoder::new(specs(), "sentiment");
        let fitted = enc.fit(&demo()).unwrap();
        let data = fitted.transform(&demo().head(0)).unwrap();
        assert_eq!(data.len(), 0);
        assert_eq!(data.n_features(), fitted.width());
        assert_eq!(data.x.ncols(), 20);
    }

    #[test]
    fn classes_are_sorted() {
        let enc = TableEncoder::new(specs(), "sentiment");
        let fitted = enc.fit(&demo()).unwrap();
        assert_eq!(fitted.classes(), &["negative", "positive"]);
        assert_eq!(fitted.class_index("positive"), Some(1));
        assert_eq!(fitted.class_index("nope"), None);
    }

    #[test]
    fn numeric_nulls_imputed_with_mean() {
        let enc = TableEncoder::new(vec![ColumnSpec::numeric("rating")], "sentiment");
        let (_, data) = enc.fit_transform(&demo()).unwrap();
        // Mean-imputed value standardizes to 0.
        assert!(data.x.get(1, 0).abs() < 1e-12);
    }

    #[test]
    fn transform_applies_to_new_table() {
        let enc = TableEncoder::new(specs(), "sentiment");
        let fitted = enc.fit(&demo()).unwrap();
        let fresh = Table::builder()
            .float("rating", [2.0])
            .str("degree", ["unknown-degree"])
            .str("letter", ["fine work"])
            .str("sentiment", ["positive"])
            .build()
            .unwrap();
        let data = fitted.transform(&fresh).unwrap();
        assert_eq!(data.len(), 1);
        // Unknown category encodes to zeros (cols 1..4).
        assert_eq!(data.x.get(0, 1), 0.0);
        assert_eq!(data.x.get(0, 2), 0.0);
        assert_eq!(data.x.get(0, 3), 0.0);
    }

    #[test]
    fn unseen_label_is_error() {
        let enc = TableEncoder::new(specs(), "sentiment");
        let fitted = enc.fit(&demo()).unwrap();
        let fresh = Table::builder()
            .float("rating", [2.0])
            .str("degree", ["bsc"])
            .str("letter", ["x"])
            .str("sentiment", ["neutral"])
            .build()
            .unwrap();
        assert!(fitted.transform(&fresh).is_err());
    }

    #[test]
    fn missing_columns_and_bad_label_errors() {
        let enc = TableEncoder::new(vec![ColumnSpec::numeric("nope")], "sentiment");
        assert!(enc.fit(&demo()).is_err());
        let enc = TableEncoder::new(vec![], "rating");
        assert!(enc.fit(&demo()).is_err()); // non-string label
    }

    #[test]
    fn end_to_end_trainable() {
        use crate::models::knn::KnnClassifier;
        use crate::traits::Learner;
        let enc = TableEncoder::new(specs(), "sentiment");
        let (_, data) = enc.fit_transform(&demo()).unwrap();
        let model = KnnClassifier::new(1).fit(&data).unwrap();
        // 1-NN perfectly memorizes the training set.
        for i in 0..data.len() {
            assert_eq!(model.predict(data.x.row(i)), data.y[i]);
        }
    }
}
