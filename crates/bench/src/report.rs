//! The one result type every experiment returns, and its text and JSON
//! renderings.

use serde::{Serialize, Value};
use std::fmt;

/// One figure's result: a title, named columns, rows of typed cells and
/// optional footnote lines.
#[derive(Debug, Serialize)]
pub struct Table {
    /// The figure's title line ("Figure 4a: ...").
    pub title: String,
    /// Column names, in print order.
    pub columns: &'static [&'static str],
    /// One cell per column in each row.
    pub rows: Vec<Vec<Cell>>,
    /// Lines printed under the rows.
    pub notes: Vec<String>,
}

/// One table cell. The kind fixes how the text table prints it; JSON carries
/// the bare value.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label, left-aligned.
    Text(String),
    /// A count.
    Int(u64),
    /// A throughput in Gbit/s, printed with three decimals.
    Gbps(f64),
    /// A ratio (speedup, rate, size in KiB), printed with the given number of
    /// decimals.
    Ratio(f64, usize),
    /// A share in percent (0–100), printed with one decimal.
    Percent(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Gbps(gbps) => write!(f, "{gbps:.3}"),
            Cell::Ratio(value, decimals) => write!(f, "{value:.decimals$}"),
            Cell::Percent(pct) => write!(f, "{pct:.1}"),
        }
    }
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        match self {
            Cell::Text(text) => Value::String(text.clone()),
            Cell::Int(n) => Value::UInt(*n),
            Cell::Gbps(v) | Cell::Ratio(v, _) | Cell::Percent(v) => Value::Float(*v),
        }
    }
}

impl Table {
    /// An empty table with `title` and `columns`.
    pub fn new(title: impl Into<String>, columns: &'static [&'static str]) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Renders the table as text: `# title`, the header, one line per row
    /// with every column as wide as its widest entry (labels left-aligned,
    /// numbers right-aligned), then the notes.
    pub fn to_text(&self) -> String {
        let header = self.columns.iter().map(|name| name.to_string()).collect();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(
                self.rows
                    .iter()
                    .map(|row| row.iter().map(Cell::to_string).collect()),
            )
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                lines
                    .iter()
                    .map(|line| line[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("# {}\n", self.title);
        for line in &lines {
            let fields: Vec<String> = (line.iter().zip(&widths).enumerate())
                .map(
                    |(c, (field, &width))| match self.rows.first().map(|row| &row[c]) {
                        Some(Cell::Text(_)) => format!("{field:<width$}"),
                        _ => format!("{field:>width$}"),
                    },
                )
                .collect();
            out.push_str(fields.join(" ").trim_end());
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders the table as pretty JSON: `title`, `columns`, `rows` (arrays
    /// of bare values) and `notes`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a table is always serialisable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_table_contains_every_row() {
        let mut table = Table::new(
            "Figure 4a: test",
            &[
                "trace",
                "engine",
                "Gbps(mean)",
                "±std",
                "speedup/DFC",
                "matches",
            ],
        );
        for (engine, gbps, speedup) in [("DFC", 1.5, 1.0), ("V-PATCH", 3.2, 1.8)] {
            let trace = Cell::Text("ISCX day2".into());
            let speedup = Cell::Ratio(speedup, 2);
            let row = [
                trace,
                Cell::Text(engine.into()),
                Cell::Gbps(gbps),
                Cell::Gbps(0.1),
                speedup,
                Cell::Int(42),
            ];
            table.rows.push(row.to_vec());
        }
        let text = table.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# Figure 4a: test");
        assert_eq!(
            lines[1],
            "trace     engine  Gbps(mean)  ±std speedup/DFC matches"
        );
        assert_eq!(
            lines[2],
            "ISCX day2 DFC          1.500 0.100        1.00      42"
        );
        assert_eq!(
            lines[3],
            "ISCX day2 V-PATCH      3.200 0.100        1.80      42"
        );
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn every_cell_kind_renders_at_its_precision_and_as_json() {
        let mut table = Table::new("Cache", &["fraction", "share (%)", "rate"]);
        let row = [
            Cell::Text("40%".into()),
            Cell::Percent(30.04),
            Cell::Ratio(0.012_34, 4),
        ];
        table.rows.push(row.to_vec());
        table.notes.push("AC / DFC: 3.00x".into());
        let text =
            "# Cache\nfraction share (%)   rate\n40%           30.0 0.0123\nAC / DFC: 3.00x\n";
        assert_eq!(table.to_text(), text);
        let json = table.to_json();
        assert!(json.starts_with("{\n  \"title\": \"Cache\",\n  \"columns\": [\n    \"fraction\","));
        assert!(json.contains(
            "\"rows\": [\n    [\n      \"40%\",\n      30.04,\n      0.01234\n    ]\n  ],"
        ));
        assert!(
            json.ends_with("\"notes\": [\n    \"AC / DFC: 3.00x\"\n  ]\n}"),
            "{json}"
        );
    }
}
