//! Per-column profile sketches and whole-table profiles: the mergeable
//! unit the pipeline collects at operator boundaries and `quality_report`
//! snapshots into `PROFILE_*.json`.

use crate::distinct::{hash_str, DistinctSketch};
use crate::heavy::HeavyHitters;
use crate::moments::Moments;
use crate::quantile::QuantileSketch;
use nde_trace::json::{self, JsonValue};
use std::collections::{BTreeMap, BTreeSet};

/// What a column's cells are, for sketch routing: numeric cells feed the
/// moments + quantile sketches, categorical cells the heavy-hitters
/// sketch; both feed the distinct estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// `Int` / `Float` / `Bool` cells, widened to `f64`.
    Numeric,
    /// String cells.
    Categorical,
}

impl ColumnKind {
    /// Serialized tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ColumnKind::Numeric => "numeric",
            ColumnKind::Categorical => "categorical",
        }
    }

    /// Parses a serialized tag.
    pub fn from_str_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "numeric" => Ok(ColumnKind::Numeric),
            "categorical" => Ok(ColumnKind::Categorical),
            other => Err(format!("unknown column kind {other:?}")),
        }
    }
}

/// The full streaming profile of one column: null accounting plus the
/// four mergeable sketches. All mutation is deterministic, so two
/// sketches fed the same cells (directly or via in-order shard merges)
/// are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    /// Column name.
    pub name: String,
    /// Cell kind (decides which sketches are populated).
    pub kind: ColumnKind,
    /// Total cells observed, including nulls.
    pub count: u64,
    /// Null cells observed.
    pub nulls: u64,
    /// Mean/min/max/M2 over non-null numeric cells.
    pub moments: Moments,
    /// Quantile sketch over non-null numeric cells.
    pub quantiles: QuantileSketch,
    /// Heavy-hitters sketch over non-null categorical cells.
    pub heavy: HeavyHitters,
    /// Distinct estimator over non-null cells of either kind.
    pub distinct: DistinctSketch,
}

impl ColumnSketch {
    /// An empty sketch for a numeric column.
    pub fn numeric(name: impl Into<String>) -> Self {
        Self::empty(name, ColumnKind::Numeric)
    }

    /// An empty sketch for a categorical column.
    pub fn categorical(name: impl Into<String>) -> Self {
        Self::empty(name, ColumnKind::Categorical)
    }

    fn empty(name: impl Into<String>, kind: ColumnKind) -> Self {
        ColumnSketch {
            name: name.into(),
            kind,
            count: 0,
            nulls: 0,
            moments: Moments::new(),
            quantiles: QuantileSketch::new(),
            heavy: HeavyHitters::new(),
            distinct: DistinctSketch::new(),
        }
    }

    /// Observes one numeric cell (`None` = null).
    pub fn push_num(&mut self, value: Option<f64>) {
        self.count += 1;
        match value {
            None => self.nulls += 1,
            Some(v) => {
                self.moments.push(Some(v));
                self.quantiles.push(v);
                self.distinct.push_f64(v);
            }
        }
    }

    /// Observes one categorical cell (`None` = null).
    pub fn push_str(&mut self, value: Option<&str>) {
        self.count += 1;
        match value {
            None => self.nulls += 1,
            Some(v) => {
                // One hash feeds both sketches.
                let hash = hash_str(v);
                self.heavy.push_hashed(v, hash);
                self.distinct.push_hash(hash);
            }
        }
    }

    /// Folds `other` into `self`. Panics on a name or kind mismatch —
    /// shard profiles must be built against the same schema.
    pub fn merge(&mut self, other: &ColumnSketch) {
        assert_eq!(self.name, other.name, "merging different columns");
        assert_eq!(self.kind, other.kind, "merging different column kinds");
        self.count += other.count;
        self.nulls += other.nulls;
        self.moments.merge(&other.moments);
        self.quantiles.merge(&other.quantiles);
        self.heavy.merge(&other.heavy);
        self.distinct.merge(&other.distinct);
    }

    /// Fraction of observed cells that are null (`0.0` when empty).
    pub fn null_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nulls as f64 / self.count as f64
        }
    }

    /// Estimated distinct non-null values.
    pub fn distinct_estimate(&self) -> f64 {
        self.distinct.estimate()
    }

    /// Approximate quantile of a numeric column (`None` for categorical
    /// or all-null columns).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantiles.quantile(q)
    }

    /// Serializes to a JSON value (full sketch state; lossless through
    /// [`ColumnSketch::from_json_value`]).
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj: Vec<(String, JsonValue)> = vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("kind".into(), JsonValue::String(self.kind.as_str().into())),
            ("count".into(), JsonValue::Int(self.count as i128)),
            ("nulls".into(), JsonValue::Int(self.nulls as i128)),
        ];
        // Moments: only the payload fields; count/nulls live above.
        obj.push((
            "moments".into(),
            JsonValue::Object(vec![
                ("count".into(), JsonValue::Int(self.moments.count as i128)),
                ("nulls".into(), JsonValue::Int(self.moments.nulls as i128)),
                ("min".into(), opt_f64(self.moments.min)),
                ("max".into(), opt_f64(self.moments.max)),
                ("mean".into(), JsonValue::Number(self.moments.mean)),
                ("m2".into(), JsonValue::Number(self.moments.m2)),
            ]),
        ));
        let (qk, qcount, qcompactions, qlevels) = self.quantiles.state();
        obj.push((
            "quantiles".into(),
            JsonValue::Object(vec![
                ("k".into(), JsonValue::Int(qk as i128)),
                ("count".into(), JsonValue::Int(qcount as i128)),
                ("compactions".into(), JsonValue::Int(qcompactions as i128)),
                (
                    "levels".into(),
                    JsonValue::Array(
                        qlevels
                            .iter()
                            .map(|level| {
                                JsonValue::Array(
                                    level.iter().map(|&v| JsonValue::Number(v)).collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
        let (hcap, htotal, hentries) = self.heavy.state();
        obj.push((
            "heavy".into(),
            JsonValue::Object(vec![
                ("capacity".into(), JsonValue::Int(hcap as i128)),
                ("total".into(), JsonValue::Int(htotal as i128)),
                (
                    "entries".into(),
                    JsonValue::Array(
                        hentries
                            .iter()
                            .map(|(key, &(count, err))| {
                                JsonValue::Array(vec![
                                    JsonValue::String(key.clone()),
                                    JsonValue::Int(count as i128),
                                    JsonValue::Int(err as i128),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
        let (dk, dsat, dhashes) = self.distinct.state();
        obj.push((
            "distinct".into(),
            JsonValue::Object(vec![
                ("k".into(), JsonValue::Int(dk as i128)),
                ("saturated".into(), JsonValue::Bool(dsat)),
                (
                    "hashes".into(),
                    JsonValue::Array(dhashes.iter().map(|&h| JsonValue::Int(h as i128)).collect()),
                ),
            ]),
        ));
        JsonValue::Object(obj)
    }

    /// Deserializes from [`ColumnSketch::to_json_value`] output.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let name = req_str(value, "name")?.to_owned();
        let kind = ColumnKind::from_str_tag(req_str(value, "kind")?)?;
        let count = req_u64(value, "count")?;
        let nulls = req_u64(value, "nulls")?;

        let m = value.get("moments").ok_or("column missing moments")?;
        let moments = Moments {
            count: req_u64(m, "count")?,
            nulls: req_u64(m, "nulls")?,
            min: opt_f64_field(m, "min"),
            max: opt_f64_field(m, "max"),
            mean: req_f64(m, "mean")?,
            m2: req_f64(m, "m2")?,
        };

        let q = value.get("quantiles").ok_or("column missing quantiles")?;
        let levels = match q.get("levels") {
            Some(JsonValue::Array(levels)) => levels
                .iter()
                .map(|level| match level {
                    JsonValue::Array(items) => Ok(items
                        .iter()
                        .map(|v| v.as_f64().unwrap_or(f64::NAN))
                        .collect::<Vec<f64>>()),
                    _ => Err("quantile level is not an array".to_owned()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("quantiles missing levels".into()),
        };
        let quantiles = QuantileSketch::from_state(
            req_u64(q, "k")? as usize,
            req_u64(q, "count")?,
            req_u64(q, "compactions")?,
            levels,
        );

        let h = value.get("heavy").ok_or("column missing heavy")?;
        let mut entries = BTreeMap::new();
        if let Some(JsonValue::Array(items)) = h.get("entries") {
            for item in items {
                let JsonValue::Array(triple) = item else {
                    return Err("heavy entry is not an array".into());
                };
                let key = triple
                    .first()
                    .and_then(JsonValue::as_str)
                    .ok_or("heavy entry missing key")?;
                let cnt = triple
                    .get(1)
                    .and_then(JsonValue::as_u64)
                    .ok_or("heavy entry missing count")?;
                let err = triple
                    .get(2)
                    .and_then(JsonValue::as_u64)
                    .ok_or("heavy entry missing error")?;
                entries.insert(key.to_owned(), (cnt, err));
            }
        }
        let heavy = HeavyHitters::from_state(
            req_u64(h, "capacity")? as usize,
            req_u64(h, "total")?,
            entries,
        );

        let d = value.get("distinct").ok_or("column missing distinct")?;
        let mut hashes = BTreeSet::new();
        if let Some(JsonValue::Array(items)) = d.get("hashes") {
            for item in items {
                hashes.insert(item.as_u64().ok_or("distinct hash is not a u64")?);
            }
        }
        let saturated = matches!(d.get("saturated"), Some(JsonValue::Bool(true)));
        let distinct = DistinctSketch::from_state(req_u64(d, "k")? as usize, saturated, hashes);

        Ok(ColumnSketch {
            name,
            kind,
            count,
            nulls,
            moments,
            quantiles,
            heavy,
            distinct,
        })
    }

    /// A compact summary object for the trace sink (`{"type":"profile"}`
    /// records): null rate, distinct estimate, approximate quantiles, and
    /// the top categories — readable next to spans, without the full
    /// sketch state.
    pub fn summary_json_value(&self) -> JsonValue {
        let mut obj: Vec<(String, JsonValue)> = vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("kind".into(), JsonValue::String(self.kind.as_str().into())),
            ("count".into(), JsonValue::Int(self.count as i128)),
            ("nulls".into(), JsonValue::Int(self.nulls as i128)),
            ("null_rate".into(), JsonValue::Number(self.null_rate())),
            (
                "distinct".into(),
                JsonValue::Number(self.distinct_estimate()),
            ),
        ];
        if self.kind == ColumnKind::Numeric {
            obj.push(("min".into(), opt_f64(self.moments.min)));
            obj.push(("max".into(), opt_f64(self.moments.max)));
            obj.push(("mean".into(), opt_f64(self.moments.mean_opt())));
            obj.push(("p50".into(), opt_f64(self.quantile(0.5))));
            obj.push(("p95".into(), opt_f64(self.quantile(0.95))));
            obj.push(("p99".into(), opt_f64(self.quantile(0.99))));
        } else {
            let top: Vec<JsonValue> = self
                .heavy
                .top()
                .into_iter()
                .take(3)
                .map(|(key, count)| {
                    JsonValue::Array(vec![JsonValue::String(key), JsonValue::Int(count as i128)])
                })
                .collect();
            obj.push(("top".into(), JsonValue::Array(top)));
        }
        JsonValue::Object(obj)
    }
}

fn opt_f64(v: Option<f64>) -> JsonValue {
    match v {
        Some(v) => JsonValue::Number(v),
        None => JsonValue::Null,
    }
}

fn opt_f64_field(obj: &JsonValue, key: &str) -> Option<f64> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => None,
        Some(v) => v.as_f64(),
    }
}

fn req_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn req_f64(obj: &JsonValue, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number field {key:?}"))
}

/// A whole-table profile: one [`ColumnSketch`] per column, in schema
/// order, plus the row count. Shard profiles over row ranges merge with
/// [`TableProfile::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Rows observed.
    pub rows: u64,
    /// Per-column sketches, in schema order.
    pub columns: Vec<ColumnSketch>,
}

impl TableProfile {
    /// An empty profile with the given column skeletons.
    pub fn with_columns(columns: Vec<ColumnSketch>) -> Self {
        TableProfile { rows: 0, columns }
    }

    /// The sketch for column `name`, if present.
    pub fn column(&self, name: &str) -> Option<&ColumnSketch> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Folds `other` into `self`. Panics when schemas differ (shards must
    /// come from the same table).
    pub fn merge(&mut self, other: &TableProfile) {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "merging profiles with different column counts"
        );
        self.rows += other.rows;
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            mine.merge(theirs);
        }
    }

    /// Serializes the full profile (lossless round trip through
    /// [`TableProfile::from_json_value`]).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("rows".into(), JsonValue::Int(self.rows as i128)),
            (
                "columns".into(),
                JsonValue::Array(
                    self.columns
                        .iter()
                        .map(ColumnSketch::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders [`TableProfile::to_json_value`] as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::write_value(&mut out, &self.to_json_value());
        out
    }

    /// Deserializes from [`TableProfile::to_json_value`] output.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let rows = req_u64(value, "rows")?;
        let columns = match value.get("columns") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(ColumnSketch::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("profile missing columns".into()),
        };
        Ok(TableProfile { rows, columns })
    }

    /// Parses a profile from a JSON string.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = json::parse(input).map_err(|e| e.to_string())?;
        Self::from_json_value(&value)
    }

    /// The compact per-column summary used in trace-sink records.
    pub fn summary_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("rows".into(), JsonValue::Int(self.rows as i128)),
            (
                "columns".into(),
                JsonValue::Array(
                    self.columns
                        .iter()
                        .map(ColumnSketch::summary_json_value)
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile() -> TableProfile {
        let mut num = ColumnSketch::numeric("x");
        for i in 0..500 {
            num.push_num(if i % 10 == 0 {
                None
            } else {
                Some(i as f64 * 0.5)
            });
        }
        let mut cat = ColumnSketch::categorical("label");
        for i in 0..500 {
            cat.push_str(Some(if i % 3 == 0 { "pos" } else { "neg" }));
        }
        let mut profile = TableProfile::with_columns(vec![num, cat]);
        profile.rows = 500;
        profile
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let profile = demo_profile();
        let rendered = profile.to_json();
        let parsed = TableProfile::from_json(&rendered).unwrap();
        assert_eq!(parsed, profile);
        // Including a second render (stable bytes).
        assert_eq!(parsed.to_json(), rendered);
    }

    #[test]
    fn sharded_merge_matches_single_pass_counts() {
        let values: Vec<Option<f64>> = (0..200)
            .map(|i| if i % 7 == 0 { None } else { Some(i as f64) })
            .collect();
        let mut whole = ColumnSketch::numeric("v");
        for &v in &values {
            whole.push_num(v);
        }
        let mut merged = ColumnSketch::numeric("v");
        for chunk in values.chunks(33) {
            let mut shard = ColumnSketch::numeric("v");
            for &v in chunk {
                shard.push_num(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.nulls, whole.nulls);
        assert_eq!(merged.moments.min, whole.moments.min);
        assert_eq!(merged.moments.max, whole.moments.max);
        // Distinct is order-independent, so it matches exactly.
        assert_eq!(merged.distinct, whole.distinct);
        // And re-merging the same shards reproduces the same bits.
        let mut again = ColumnSketch::numeric("v");
        for chunk in values.chunks(33) {
            let mut shard = ColumnSketch::numeric("v");
            for &v in chunk {
                shard.push_num(v);
            }
            again.merge(&shard);
        }
        assert_eq!(again, merged);
    }

    #[test]
    fn summary_carries_quantiles_and_top_categories() {
        let profile = demo_profile();
        let summary = profile.summary_json_value();
        let cols = match summary.get("columns") {
            Some(JsonValue::Array(cols)) => cols,
            _ => panic!("no columns"),
        };
        assert!(cols[0].get("p95").unwrap().as_f64().is_some());
        assert!(matches!(cols[1].get("top"), Some(JsonValue::Array(_))));
        assert!(cols[1].get("p95").is_none());
    }

    #[test]
    #[should_panic(expected = "different columns")]
    fn merging_mismatched_columns_panics() {
        let mut a = ColumnSketch::numeric("x");
        let b = ColumnSketch::numeric("y");
        a.merge(&b);
    }
}
