//! Machine-readable experiment summaries.
//!
//! Every `exp_*` binary writes a `BENCH_<id>.json` file alongside its
//! stdout report so CI and downstream tooling can assert on experiment
//! outcomes (row counts, violation counts, overheads) without scraping
//! text tables. Files land in `$BENCH_OUT_DIR` when set, else at the
//! workspace root (see [`out_dir`]); every binary funnels through
//! [`emit_json`] so the destination and the trailing `wrote <path>`
//! line stay uniform.

use crate::table::Table;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
enum Value {
    Int(i128),
    Num(f64),
    Str(String),
}

/// A flat JSON summary of one experiment run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    id: String,
    fields: Vec<(String, Value)>,
    tables: Vec<(String, usize)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Starts a report for the experiment with the given id (the binary
    /// name without the `exp_` prefix).
    pub fn new(id: &str) -> BenchReport {
        BenchReport {
            id: id.to_string(),
            fields: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Records an integer field.
    pub fn int(&mut self, key: &str, value: i128) -> &mut BenchReport {
        self.fields.push((key.to_string(), Value::Int(value)));
        self
    }

    /// Records a floating-point field (non-finite values serialize as
    /// `null` to keep the file parseable).
    pub fn num(&mut self, key: &str, value: f64) -> &mut BenchReport {
        self.fields.push((key.to_string(), Value::Num(value)));
        self
    }

    /// Records a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut BenchReport {
        self.fields
            .push((key.to_string(), Value::Str(value.to_string())));
        self
    }

    /// Records a table's title and row count in the `tables` array.
    pub fn table(&mut self, table: &Table) -> &mut BenchReport {
        self.tables.push((table.title().to_string(), table.len()));
        self
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(&self.id));
        for (key, value) in &self.fields {
            let _ = write!(out, "  \"{}\": ", json_escape(key));
            match value {
                Value::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Num(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Str(v) => {
                    let _ = write!(out, "\"{}\"", json_escape(v));
                }
            }
            out.push_str(",\n");
        }
        out.push_str("  \"tables\": [");
        for (i, (title, rows)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{ \"title\": \"{}\", \"rows\": {rows} }}",
                json_escape(title)
            );
        }
        if !self.tables.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Writes `BENCH_<id>.json` into `dir`, creating `dir` and its
    /// parents when missing, and returns the path.
    ///
    /// # Panics
    /// Panics when the directory cannot be created or the file cannot
    /// be written — an experiment whose summary is lost should fail
    /// loudly, not silently.
    pub fn write_to(&self, dir: &std::path::Path) -> PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.id));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .expect("writable BENCH output directory");
        path
    }

    /// Writes the summary to [`out_dir`] and returns the path.
    ///
    /// # Panics
    /// Panics when the file cannot be written.
    pub fn write(&self) -> PathBuf {
        self.write_to(&out_dir())
    }
}

/// The standardized destination for every `exp_*` artifact:
/// `$BENCH_OUT_DIR` when set, else the workspace root — so running a
/// binary from any subdirectory lands `BENCH_<id>.json` in the one
/// place CI looks — falling back to the current directory if the
/// compile-time workspace path no longer exists (e.g. an installed
/// binary).
pub fn out_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("BENCH_OUT_DIR") {
        return PathBuf::from(dir);
    }
    if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .filter(|p| p.is_dir())
    {
        return root.to_path_buf();
    }
    PathBuf::from(".")
}

/// Writes `report` to [`out_dir`] and prints the standard trailing
/// `wrote <path>` line; the single exit path shared by every `exp_*`
/// binary. Returns the written path.
///
/// # Panics
/// Panics when the file cannot be written.
pub fn emit_json(report: &BenchReport) -> PathBuf {
    let path = report.write();
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_escaping() {
        let mut t = Table::new("λ \"sweep\"", &["a"]);
        t.row(vec!["1".into()]);
        let mut r = BenchReport::new("demo");
        r.int("cases", 42)
            .num("ratio", 1.5)
            .num("bad", f64::NAN)
            .text("note", "line1\nline2")
            .table(&t);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"demo\""), "{json}");
        assert!(json.contains("\"cases\": 42"), "{json}");
        assert!(json.contains("\"ratio\": 1.5"), "{json}");
        assert!(json.contains("\"bad\": null"), "{json}");
        assert!(json.contains("line1\\nline2"), "{json}");
        assert!(
            json.contains("\"title\": \"λ \\\"sweep\\\"\", \"rows\": 1"),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_tables_array_stays_valid() {
        let json = BenchReport::new("x").to_json();
        assert!(json.contains("\"tables\": []"), "{json}");
    }

    #[test]
    fn out_dir_defaults_to_the_workspace_root() {
        // Under `cargo test` BENCH_OUT_DIR is normally unset; when a
        // caller exports it the override must win, so only assert the
        // default shape in the clean case.
        if std::env::var_os("BENCH_OUT_DIR").is_none() {
            let dir = out_dir();
            assert!(dir.join("Cargo.toml").is_file(), "{}", dir.display());
            assert!(dir.join("crates").is_dir(), "{}", dir.display());
        }
    }

    #[test]
    fn write_to_creates_the_file() {
        // A fresh nested directory: `write_to` creates the missing
        // levels instead of losing the report.
        let root = std::env::temp_dir().join(format!("postal-bench-report-{}", std::process::id()));
        let dir = root.join("nested").join("out");
        let _ = std::fs::remove_dir_all(&root);
        let mut r = BenchReport::new("report-module-test");
        r.int("ok", 1);
        let path = r.write_to(&dir);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "BENCH_report-module-test.json"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": 1"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    #[should_panic(expected = "writable BENCH output directory")]
    fn write_to_panics_on_an_unwritable_directory() {
        // A path under a regular file can never become a directory.
        let file = std::env::temp_dir().join(format!("postal-bench-file-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let mut r = BenchReport::new("report-module-test");
        r.int("ok", 1);
        let result = std::panic::catch_unwind(|| r.write_to(&file.join("sub")));
        std::fs::remove_file(&file).unwrap();
        std::panic::resume_unwind(result.unwrap_err());
    }
}
