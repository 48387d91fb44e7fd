//! The presentation layer: renders [`ExperimentOutput`] as an aligned
//! ASCII table, JSON (via the vendored `serde_json`) or CSV, plus the
//! cell formatting helpers ([`ratio`], [`duration`]).
//!
//! Every format renders the *same* structured data — the typed column
//! schema decides alignment and float precision, so no experiment owns
//! a `println!` format string anymore.

use std::fmt;
use std::str::FromStr;

use pim_core::{CellValue, ColumnType, ExperimentOutput, Histogram, Table};

/// Formats a ratio as `x.xx×`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Humanizes a nanosecond duration (`812 ns`, `4.05 us`, `2.236 ms`,
/// `1.500 s`) — the table rendering of [`ColumnType::Duration`]; JSON
/// and CSV keep raw nanoseconds.
pub fn duration(ns: f64) -> String {
    let abs = ns.abs();
    if abs < 1e3 {
        format!("{ns:.0} ns")
    } else if abs < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if abs < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Output format selector for the `pim-bench` CLI (`--format`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Format {
    /// Aligned human-readable tables (the default).
    Table,
    /// Pretty-printed JSON array of [`ExperimentOutput`]s.
    Json,
    /// CSV, one header+rows block per table with `#` comment lines.
    Csv,
}

impl FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "table" => Ok(Format::Table),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!(
                "unknown format `{other}` (expected table, json or csv)"
            )),
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Table => "table",
            Format::Json => "json",
            Format::Csv => "csv",
        })
    }
}

/// Renders one cell per its column's type: fixed or scientific float
/// precision, `x.xx×`-style ratios, plain integers and labels.
pub fn format_cell(v: &CellValue, ty: &ColumnType) -> String {
    match (v, ty) {
        (CellValue::Str(s), _) => s.clone(),
        (CellValue::UInt(u), _) => u.to_string(),
        (CellValue::Int(i), _) => i.to_string(),
        (CellValue::Duration(ns), _) => duration(*ns),
        (CellValue::Float(f), ColumnType::Ratio) => ratio(*f),
        (
            CellValue::Float(f),
            ColumnType::Float {
                precision,
                scientific: true,
            },
        ) => format!("{f:.prec$e}", prec = *precision as usize),
        (
            CellValue::Float(f),
            ColumnType::Float {
                precision,
                scientific: false,
            },
        ) => format!("{f:.prec$}", prec = *precision as usize),
        // Schema mismatch (caught by Table::validate in tests): shortest
        // faithful rendering.
        (CellValue::Float(f), _) => f.to_string(),
    }
}

/// The raw (format-hint-free) rendering used by CSV: floats keep full
/// precision so the output stays machine-consumable.
fn raw_cell(v: &CellValue) -> String {
    match v {
        CellValue::Str(s) => s.clone(),
        CellValue::UInt(u) => u.to_string(),
        CellValue::Int(i) => i.to_string(),
        CellValue::Float(f) => f.to_string(),
        // Raw nanoseconds: machine-consumable, no unit suffix.
        CellValue::Duration(ns) => ns.to_string(),
    }
}

fn render_table_text(t: &Table, out: &mut String) {
    out.push_str(&format!("\n=== {} ===\n", t.title));
    let mut cells: Vec<Vec<String>> = vec![t.columns.iter().map(|c| c.name.clone()).collect()];
    for row in &t.rows {
        cells.push(
            row.iter()
                .zip(&t.columns)
                .map(|(v, c)| format_cell(v, &c.ty))
                .collect(),
        );
    }
    let widths: Vec<usize> = (0..t.columns.len())
        .map(|ci| cells.iter().map(|r| r[ci].len()).max().unwrap_or(0))
        .collect();
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .zip(&t.columns)
            .zip(&widths)
            .map(|((cell, col), w)| {
                if matches!(col.ty, ColumnType::Str) {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            })
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
}

/// Bar width of the widest histogram bin in the table rendering.
const HISTOGRAM_BAR_WIDTH: usize = 40;

fn histogram_edge(h: &Histogram, e: f64) -> String {
    if h.unit == "ns" {
        duration(e)
    } else {
        format!("{e} {}", h.unit)
    }
}

fn render_histogram_text(h: &Histogram, out: &mut String) {
    out.push_str(&format!("\n=== {} ===\n", h.title));
    let max = h.counts.iter().copied().max().unwrap_or(0).max(1);
    let labels: Vec<String> = h
        .edges
        .windows(2)
        .map(|w| {
            format!(
                "[{} .. {})",
                histogram_edge(h, w[0]),
                histogram_edge(h, w[1])
            )
        })
        .collect();
    let label_w = labels.iter().map(String::len).max().unwrap_or(0);
    let count_w = h
        .counts
        .iter()
        .map(|c| c.to_string().len())
        .max()
        .unwrap_or(1);
    for (label, &count) in labels.iter().zip(&h.counts) {
        let bar = "#".repeat((count as usize * HISTOGRAM_BAR_WIDTH).div_ceil(max as usize));
        out.push_str(format!("{label:<label_w$}  {count:>count_w$}  {bar}").trim_end());
        out.push('\n');
    }
}

fn render_histogram_csv(experiment: &str, h: &Histogram, out: &mut String) {
    out.push_str(&format!(
        "# experiment: {experiment} | histogram: {} ({})\n",
        h.title, h.unit
    ));
    out.push_str("bin_lo,bin_hi,count\n");
    for (w, count) in h.edges.windows(2).zip(&h.counts) {
        out.push_str(&format!("{},{},{count}\n", w[0], w[1]));
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn render_table_csv(experiment: &str, t: &Table, out: &mut String) {
    out.push_str(&format!(
        "# experiment: {experiment} | table: {}\n",
        t.title
    ));
    let header: Vec<String> = t.columns.iter().map(|c| csv_escape(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &t.rows {
        let line: Vec<String> = row.iter().map(|v| csv_escape(&raw_cell(v))).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
}

/// Renders experiment outputs in the requested [`Format`].
///
/// The table format prints one `=== title ===` section per table
/// (schema-driven alignment and precision); JSON is a pretty-printed
/// array of the full structured outputs; CSV emits one header+rows
/// block per table with `#` comment lines for provenance and notes.
pub fn render(outputs: &[ExperimentOutput], format: Format) -> String {
    let mut out = String::new();
    match format {
        Format::Table => {
            for o in outputs {
                for t in &o.tables {
                    render_table_text(t, &mut out);
                }
                for h in &o.histograms {
                    render_histogram_text(h, &mut out);
                }
                for note in &o.notes {
                    out.push('\n');
                    out.push_str(note.trim_end());
                    out.push('\n');
                }
            }
        }
        Format::Json => {
            out.push_str(&serde_json::to_string_pretty(&outputs).expect("serializable"));
            out.push('\n');
        }
        Format::Csv => {
            for o in outputs {
                for t in &o.tables {
                    render_table_csv(&o.experiment, t, &mut out);
                }
                for h in &o.histograms {
                    render_histogram_csv(&o.experiment, h, &mut out);
                }
                for note in &o.notes {
                    for line in note.lines() {
                        out.push_str("# note: ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::Column;

    fn sample() -> ExperimentOutput {
        let mut o = ExperimentOutput::new("demo", "a demo");
        let mut t = Table::new(
            "demo table",
            vec![
                Column::str("name"),
                Column::uint("n"),
                Column::float("v", 2),
                Column::sci("e", 3),
                Column::ratio("r"),
            ],
        );
        t.push(vec![
            "alpha, beta".into(),
            42u64.into(),
            1.23456.into(),
            512345.0.into(),
            2.236.into(),
        ]);
        o.tables.push(t);
        o.notes.push("a note".to_string());
        o
    }

    #[test]
    fn ratio_format() {
        assert_eq!(ratio(2.236), "2.24x");
    }

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!("table".parse::<Format>(), Ok(Format::Table));
        assert_eq!("JSON".parse::<Format>(), Ok(Format::Json));
        assert_eq!("csv".parse::<Format>(), Ok(Format::Csv));
        assert!("yaml".parse::<Format>().is_err());
    }

    #[test]
    fn cells_render_by_schema() {
        let t = &sample().tables[0];
        let rendered: Vec<String> = t.rows[0]
            .iter()
            .zip(&t.columns)
            .map(|(v, c)| format_cell(v, &c.ty))
            .collect();
        assert_eq!(
            rendered,
            vec!["alpha, beta", "42", "1.23", "5.123e5", "2.24x"]
        );
    }

    #[test]
    fn table_format_aligns_and_sections() {
        let text = render(&[sample()], Format::Table);
        assert!(text.contains("=== demo table ==="), "{text}");
        assert!(text.contains("2.24x"));
        assert!(text.contains("\na note\n"));
    }

    #[test]
    fn csv_escapes_and_headers() {
        let text = render(&[sample()], Format::Csv);
        assert!(text.contains("# experiment: demo | table: demo table"));
        assert!(text.contains("name,n,v,e,r"));
        assert!(text.contains("\"alpha, beta\""), "{text}");
        assert!(text.contains("# note: a note"));
    }

    fn sample_with_histogram() -> ExperimentOutput {
        let mut o = ExperimentOutput::new("demo", "a demo");
        let mut t = Table::new(
            "latency",
            vec![Column::str("point"), Column::percentile("p99")],
        );
        t.push(vec!["light".into(), CellValue::Duration(4_416_637.0)]);
        o.tables.push(t);
        let mut h = Histogram::new("latency distribution", "ns", vec![0.0, 1e6, 4e6, 16e6]);
        for v in [0.5e6, 2e6, 2.5e6, 3e6, 8e6] {
            h.record(v);
        }
        o.histograms.push(h);
        o
    }

    #[test]
    fn durations_humanize_in_tables_and_stay_raw_in_csv() {
        assert_eq!(duration(812.0), "812 ns");
        assert_eq!(duration(4_050.0), "4.05 us");
        assert_eq!(duration(2_235_698.0), "2.236 ms");
        assert_eq!(duration(1.5e9), "1.500 s");
        let o = sample_with_histogram();
        let text = render(std::slice::from_ref(&o), Format::Table);
        assert!(text.contains("4.417 ms"), "{text}");
        let csv = render(std::slice::from_ref(&o), Format::Csv);
        assert!(csv.contains("light,4416637"), "{csv}");
    }

    #[test]
    fn histograms_render_in_all_three_formats() {
        let o = sample_with_histogram();
        let text = render(std::slice::from_ref(&o), Format::Table);
        assert!(text.contains("=== latency distribution ==="), "{text}");
        // Three bins with counts 1, 3, 1; the modal bin gets the full bar.
        assert!(text.contains(&"#".repeat(HISTOGRAM_BAR_WIDTH)), "{text}");
        assert!(text.contains("[0 ns .. 1.000 ms)"), "{text}");
        let csv = render(std::slice::from_ref(&o), Format::Csv);
        assert!(
            csv.contains("# experiment: demo | histogram: latency distribution (ns)"),
            "{csv}"
        );
        assert!(csv.contains("bin_lo,bin_hi,count"), "{csv}");
        assert!(csv.contains("1000000,4000000,3"), "{csv}");
        let json = render(std::slice::from_ref(&o), Format::Json);
        assert!(json.contains("\"histograms\""), "{json}");
        assert!(json.contains("\"counts\""), "{json}");
        serde_json::from_str(&json).expect("valid JSON");
    }

    #[test]
    fn json_round_trips_through_the_vendored_parser() {
        let text = render(&[sample()], Format::Json);
        let parsed = serde_json::from_str(&text).expect("valid JSON");
        let re = serde_json::to_string(&parsed).unwrap();
        assert!(re.contains("\"experiment\""));
        assert!(re.contains("demo table"));
    }
}
