//! A minimal CSV loader for building relations from files.
//!
//! Supports the common analytical-data subset: a header row naming
//! columns, integer columns, and everything else dictionary-encoded as
//! strings. Quoting follows RFC 4180 double-quote rules (embedded commas
//! and `""` escapes); all rows must have the header's arity.

use crate::column::Column;
use crate::relation::{Relation, RelationBuilder};
use roulette_core::{Error, Result};

/// Splits one CSV record, honoring double quotes.
fn split_record(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => return Err(Error::Parse("stray quote inside unquoted field".into())),
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(Error::Parse("unterminated quoted field".into()));
    }
    fields.push(cur);
    Ok(fields)
}

/// Parses CSV text into a relation named `name`.
///
/// Column types are inferred from the data: a column whose every non-empty
/// value parses as `i64` becomes `Int64` (empty cells become 0); anything
/// else is dictionary-encoded.
pub fn relation_from_csv_str(name: &str, text: &str) -> Result<Relation> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| Error::Parse("empty CSV: missing header".into()))?;
    let columns = split_record(header)?;
    if columns.is_empty() || columns.iter().any(|c| c.trim().is_empty()) {
        return Err(Error::Parse("blank column name in CSV header".into()));
    }
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); columns.len()];
    for (lineno, line) in lines.enumerate() {
        let record = split_record(line)?;
        if record.len() != columns.len() {
            return Err(Error::Parse(format!(
                "row {} has {} fields, header has {}",
                lineno + 2,
                record.len(),
                columns.len()
            )));
        }
        for (col, value) in cells.iter_mut().zip(record) {
            col.push(value);
        }
    }

    let mut builder = RelationBuilder::new(name);
    for (col_name, values) in columns.iter().zip(cells) {
        let all_int = values
            .iter()
            .all(|v| v.trim().is_empty() || v.trim().parse::<i64>().is_ok());
        if all_int {
            let ints: Vec<i64> =
                values.iter().map(|v| v.trim().parse::<i64>().unwrap_or(0)).collect();
            builder.int64(col_name.trim(), ints);
        } else {
            builder.column(col_name.trim(), Column::dict_from_strings(values));
        }
    }
    builder.try_build()
}

/// Loads a relation from a CSV file; the relation is named after the file
/// stem unless `name` is given.
pub fn relation_from_csv_path(path: &std::path::Path, name: Option<&str>) -> Result<Relation> {
    roulette_core::sync::assert_no_locks_held();
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Parse(format!("reading {}: {e}", path.display())))?;
    let name = match name {
        Some(n) => n.to_string(),
        None => path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| Error::Parse(format!("bad file name: {}", path.display())))?
            .to_string(),
    };
    relation_from_csv_str(&name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_int_and_string_columns() {
        let rel = relation_from_csv_str(
            "people",
            "id,name,age\n1,Alice,30\n2,Bob,41\n3,Alice,\n",
        )
        .unwrap();
        assert_eq!(rel.rows(), 3);
        let id = rel.column_id("id").unwrap();
        let name = rel.column_id("name").unwrap();
        let age = rel.column_id("age").unwrap();
        assert_eq!(rel.column(id).value(2), 3);
        assert_eq!(rel.column(name).string(0).unwrap(), "Alice");
        assert_eq!(rel.column(name).value(0), rel.column(name).value(2));
        assert_eq!(rel.column(age).value(2), 0); // empty → 0
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let rel = relation_from_csv_str(
            "t",
            "a,b\n\"hello, world\",1\n\"say \"\"hi\"\"\",2\n",
        )
        .unwrap();
        let a = rel.column_id("a").unwrap();
        assert_eq!(rel.column(a).string(0).unwrap(), "hello, world");
        assert_eq!(rel.column(a).string(1).unwrap(), "say \"hi\"");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = relation_from_csv_str("t", "a,b\n1\n").unwrap_err();
        assert!(err.to_string().contains("fields"));
    }

    #[test]
    fn empty_and_malformed_inputs_rejected() {
        assert!(relation_from_csv_str("t", "").is_err());
        assert!(relation_from_csv_str("t", "a,\n1,2\n").is_err());
        assert!(relation_from_csv_str("t", "a,b\n\"unterminated,1\n").is_err());
    }

    #[test]
    fn duplicate_header_names_rejected_not_panicking() {
        let err = relation_from_csv_str("t", "a,a\n1,2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate column"), "{err}");
    }

    #[test]
    fn negative_numbers_stay_integer() {
        let rel = relation_from_csv_str("t", "x\n-5\n10\n").unwrap();
        let x = rel.column_id("x").unwrap();
        assert_eq!(rel.column(x).value(0), -5);
        assert_eq!(rel.column(x).min_max(), Some((-5, 10)));
    }

    #[test]
    fn loads_from_path() {
        let dir = std::env::temp_dir().join("roulette_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("orders.csv");
        std::fs::write(&path, "k,v\n1,2\n").unwrap();
        let rel = relation_from_csv_path(&path, None).unwrap();
        assert_eq!(rel.name(), "orders");
        assert_eq!(rel.rows(), 1);
        let named = relation_from_csv_path(&path, Some("renamed")).unwrap();
        assert_eq!(named.name(), "renamed");
    }
}
