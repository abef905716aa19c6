//! Minimal CSV reader/writer (RFC-4180-style quoting) so datasets can be
//! persisted and inspected without external tooling.

use crate::column::Column;
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::{Result, TableError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses one CSV record (handles quoted fields, embedded commas/quotes).
fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            '"' => {
                return Err(TableError::Csv {
                    line: line_no,
                    detail: "unexpected quote inside unquoted field".into(),
                })
            }
            ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(TableError::Csv {
            line: line_no,
            detail: "unterminated quoted field".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Infers the narrowest type for a textual column: Int ⊂ Float; `true/false`
/// is Bool; anything else is Str. Empty strings are nulls and carry no vote.
fn infer_dtype(cells: &[String]) -> DataType {
    let mut dtype: Option<DataType> = None;
    for cell in cells.iter().filter(|c| !c.is_empty()) {
        let this = if cell.parse::<i64>().is_ok() {
            DataType::Int
        } else if cell.parse::<f64>().is_ok() {
            DataType::Float
        } else if cell == "true" || cell == "false" {
            DataType::Bool
        } else {
            DataType::Str
        };
        dtype = Some(match (dtype, this) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                DataType::Float
            }
            _ => DataType::Str,
        });
        if dtype == Some(DataType::Str) {
            break;
        }
    }
    dtype.unwrap_or(DataType::Str)
}

fn parse_cell(cell: &str, dtype: DataType, line: usize) -> Result<Value> {
    if cell.is_empty() {
        return Ok(Value::Null);
    }
    let parsed = match dtype {
        DataType::Int => cell.parse::<i64>().ok().map(Value::Int),
        DataType::Float => cell.parse::<f64>().ok().map(Value::Float),
        DataType::Bool => cell.parse::<bool>().ok().map(Value::Bool),
        DataType::Str => Some(Value::Str(cell.to_owned())),
    };
    parsed.ok_or_else(|| TableError::Csv {
        line,
        detail: format!("cannot parse {cell:?} as {dtype}"),
    })
}

impl Table {
    /// Reads a table from CSV text with a header row. Column types are
    /// inferred from the data; empty fields become nulls.
    ///
    /// Limitation: records are read line-wise, so quoted fields containing
    /// *embedded newlines* are rejected (reported as an unterminated
    /// quote). The letter generator never emits newlines, so round trips
    /// of workspace data are exact.
    pub fn from_csv_reader<R: Read>(reader: R) -> Result<Table> {
        let buf = BufReader::new(reader);
        let mut lines = buf.lines().enumerate();
        let header = match lines.next() {
            Some((_, line)) => parse_record(&line?, 1)?,
            None => return Ok(Table::empty()),
        };
        let mut raw: Vec<Vec<String>> = vec![Vec::new(); header.len()];
        for (i, line) in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let record = parse_record(&line, i + 1)?;
            if record.len() != header.len() {
                return Err(TableError::Csv {
                    line: i + 1,
                    detail: format!("expected {} fields, found {}", header.len(), record.len()),
                });
            }
            for (col, cell) in raw.iter_mut().zip(record) {
                col.push(cell);
            }
        }
        let mut pairs = Vec::with_capacity(header.len());
        for (name, cells) in header.into_iter().zip(raw) {
            let dtype = infer_dtype(&cells);
            let mut col = Column::empty(dtype);
            col.reserve(cells.len());
            for (i, cell) in cells.iter().enumerate() {
                col.push(parse_cell(cell, dtype, i + 2)?)?;
            }
            pairs.push((name, col));
        }
        Table::from_columns(pairs)
    }

    /// Reads a table from a CSV file.
    pub fn from_csv_path(path: impl AsRef<Path>) -> Result<Table> {
        Table::from_csv_reader(std::fs::File::open(path)?)
    }

    /// Writes the table as CSV (nulls as empty fields).
    pub fn to_csv_writer<W: Write>(&self, mut writer: W) -> Result<()> {
        let header: Vec<String> = self.schema().names().iter().map(|n| escape(n)).collect();
        writeln!(writer, "{}", header.join(","))?;
        for i in 0..self.num_rows() {
            let record: Vec<String> = self
                .columns()
                .map(|c| match c.get(i) {
                    Value::Null => String::new(),
                    v => escape(&v.to_string()),
                })
                .collect();
            writeln!(writer, "{}", record.join(","))?;
        }
        Ok(())
    }

    /// Writes the table to a CSV file.
    pub fn to_csv_path(&self, path: impl AsRef<Path>) -> Result<()> {
        self.to_csv_writer(std::fs::File::create(path)?)
    }

    /// Serializes the table to a CSV string.
    pub fn to_csv_string(&self) -> String {
        let mut out = Vec::new();
        self.to_csv_writer(&mut out)
            .expect("writing to Vec cannot fail");
        String::from_utf8(out).expect("CSV output is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_table() {
        let t = Table::builder()
            .int("id", [Some(1), None, Some(3)])
            .str("name", ["plain", "with,comma", "with\"quote"])
            .float("x", [1.5, 2.5, 3.5])
            .bool("ok", [true, false, true])
            .build()
            .unwrap();
        let csv = t.to_csv_string();
        let back = Table::from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn type_inference() {
        let csv = "a,b,c,d\n1,1.5,true,hello\n2,2,false,world\n";
        let t = Table::from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.schema().field("a").unwrap().dtype, DataType::Int);
        assert_eq!(t.schema().field("b").unwrap().dtype, DataType::Float);
        assert_eq!(t.schema().field("c").unwrap().dtype, DataType::Bool);
        assert_eq!(t.schema().field("d").unwrap().dtype, DataType::Str);
    }

    #[test]
    fn empty_cells_are_null() {
        let csv = "a,b\n1,\n,2\n";
        let t = Table::from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.null_count(), 2);
        assert_eq!(t.get(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn ragged_record_is_error() {
        let csv = "a,b\n1\n";
        assert!(matches!(
            Table::from_csv_reader(csv.as_bytes()),
            Err(TableError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "a\n\"x,y\"\n\"he said \"\"hi\"\"\"\n";
        let t = Table::from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.get(0, "a").unwrap(), Value::from("x,y"));
        assert_eq!(t.get(1, "a").unwrap(), Value::from("he said \"hi\""));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let csv = "a\n\"oops\n";
        assert!(Table::from_csv_reader(csv.as_bytes()).is_err());
    }

    #[test]
    fn embedded_newlines_are_rejected_not_corrupted() {
        // Documented limitation: the line-wise reader reports quoted
        // fields with embedded newlines as errors instead of silently
        // misparsing them.
        let t = Table::builder().str("s", ["line1\nline2"]).build().unwrap();
        let csv = t.to_csv_string();
        assert!(Table::from_csv_reader(csv.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_table() {
        let t = Table::from_csv_reader("".as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn mixed_numeric_column_widens_to_float() {
        let csv = "a\n1\n2.5\n";
        let t = Table::from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.schema().field("a").unwrap().dtype, DataType::Float);
    }
}
