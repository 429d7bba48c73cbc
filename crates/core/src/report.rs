//! Report structures used by the experiment harness: speedup tables
//! (Tables III and IV, the per-operator averages behind Fig. 5) and series
//! (the training curves of Figs. 6 and 7).

use std::fmt;

use mlir_rl_obs::json_string;

/// A table of speedups: one row per benchmark, one column per system.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupTable {
    /// Table title (e.g. "Table III: neural-network models").
    pub title: String,
    /// Column headers (system names).
    pub columns: Vec<String>,
    /// Rows: benchmark name and one value per column (`NaN` = not
    /// evaluated).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl SpeedupTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the number of columns.
    pub fn push_row(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the column count"
        );
        self.rows.push((name.into(), values));
    }

    /// Geometric mean of each column (ignoring NaN entries).
    pub fn column_geomeans(&self) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> = self
                    .rows
                    .iter()
                    .map(|(_, v)| v[c])
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .collect();
                if vals.is_empty() {
                    f64::NAN
                } else {
                    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
                }
            })
            .collect()
    }

    /// Serializes the table to JSON.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|(name, values)| {
            format!(
                "[{}, {}]",
                json_string(name),
                json::array(values.iter().map(|v| json::number(*v)))
            )
        });
        json::object(
            1,
            [
                ("title", json_string(&self.title)),
                (
                    "columns",
                    json::array(self.columns.iter().map(|c| json_string(c))),
                ),
                ("rows", json::array(rows)),
            ],
        )
    }
}

/// Hand-rolled JSON emission (the workspace has no serialization library, so
/// report types build their JSON directly). Public so the
/// benchmark harness's `--json` output modes emit records the same way.
pub mod json {
    use std::fmt::Write;

    use mlir_rl_obs::json_string;

    /// JSON numbers cannot express NaN/inf; follow serde_json and emit
    /// `null` for non-finite values.
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Joins pre-rendered JSON values into an array.
    pub fn array(items: impl Iterator<Item = String>) -> String {
        let body: Vec<String> = items.collect();
        format!("[{}]", body.join(", "))
    }

    /// Appends an indented `"name": value` field (no trailing comma).
    pub fn field(out: &mut String, indent: usize, name: &str, value: String) {
        let _ = write!(out, "{}{}: {value}", "  ".repeat(indent), json_string(name));
    }

    /// Joins pre-rendered `(name, value)` fields into a multi-line object:
    /// one field per line at `indent` levels, the closing brace one level
    /// out (so an object nested as a field value at level `indent - 1`
    /// lines up). No fields give `{}`.
    pub fn object<'a>(
        indent: usize,
        fields: impl IntoIterator<Item = (&'a str, String)>,
    ) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in fields.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            field(&mut out, indent, name, value);
        }
        if out.len() > 1 {
            out.push('\n');
            out.push_str(&"  ".repeat(indent.saturating_sub(1)));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for SpeedupTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let name_width = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(std::iter::once("benchmark".len()))
            .max()
            .unwrap_or(10)
            + 2;
        write!(f, "{:<name_width$}", "benchmark")?;
        for c in &self.columns {
            write!(f, "{c:>24}")?;
        }
        writeln!(f)?;
        for (name, values) in &self.rows {
            write!(f, "{name:<name_width$}")?;
            for v in values {
                if v.is_finite() {
                    write!(f, "{v:>24.2}")?;
                } else {
                    write!(f, "{:>24}", "-")?;
                }
            }
            writeln!(f)?;
        }
        write!(f, "{:<name_width$}", "geomean")?;
        for g in self.column_geomeans() {
            if g.is_finite() {
                write!(f, "{g:>24.2}")?;
            } else {
                write!(f, "{:>24}", "-")?;
            }
        }
        writeln!(f)
    }
}

/// A named series of `(x, y)` points (one line of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (legend entry).
    pub name: String,
    /// Points, in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure: several series plus axis labels, serializable to JSON for
/// external plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Serializes the figure to JSON.
    pub fn to_json(&self) -> String {
        let series = self.series.iter().map(|s| {
            let points = s
                .points
                .iter()
                .map(|(x, y)| format!("[{}, {}]", json::number(*x), json::number(*y)));
            format!(
                "{{\"name\": {}, \"points\": {}}}",
                json_string(&s.name),
                json::array(points)
            )
        });
        json::object(
            1,
            [
                ("title", json_string(&self.title)),
                ("x_label", json_string(&self.x_label)),
                ("y_label", json_string(&self.y_label)),
                ("series", json::array(series)),
            ],
        )
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== {} ({} vs {}) ==",
            self.title, self.y_label, self.x_label
        )?;
        for s in &self.series {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("({x:.2}, {y:.3})"))
                .collect();
            writeln!(f, "  {}: {}", s.name, points.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_and_geomean() {
        let mut t = SpeedupTable::new("Table III", vec!["MLIR RL".into(), "PyTorch".into()]);
        t.push_row("ResNet-18", vec![25.43, 374.77]);
        t.push_row("VGG", vec![54.64, 321.99]);
        let g = t.column_geomeans();
        assert!((g[0] - (25.43f64 * 54.64).sqrt()).abs() < 1e-6);
        let text = t.to_string();
        assert!(text.contains("ResNet-18"));
        assert!(text.contains("geomean"));
        assert!(t.to_json().contains("\"MLIR RL\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = SpeedupTable::new("t", vec!["a".into()]);
        t.push_row("x", vec![1.0, 2.0]);
    }

    #[test]
    fn nan_entries_are_skipped_in_geomean_and_display() {
        let mut t = SpeedupTable::new("t", vec!["a".into(), "b".into()]);
        t.push_row("x", vec![2.0, f64::NAN]);
        t.push_row("y", vec![8.0, f64::NAN]);
        let g = t.column_geomeans();
        assert!((g[0] - 4.0).abs() < 1e-9);
        assert!(g[1].is_nan());
        assert!(t.to_string().contains('-'));
    }

    #[test]
    fn json_object_joins_fields_and_indents_the_closing_brace() {
        assert_eq!(json::object(1, []), "{}");
        assert_eq!(
            json::object(1, [("a", json::number(1.0))]),
            "{\n  \"a\": 1\n}"
        );
        let inner = json::object(2, [("x", json_string("y")), ("z", "null".to_string())]);
        assert_eq!(
            json::object(1, [("n", json::number(0.5)), ("inner", inner)]),
            "{\n  \"n\": 0.5,\n  \"inner\": {\n    \"x\": \"y\",\n    \"z\": null\n  }\n}"
        );
    }

    #[test]
    fn series_and_figures() {
        let mut s = Series::new("final reward");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        s.push(2.0, 2.5);
        assert_eq!(s.points, vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.5)]);
        let mut fig = Figure::new("Fig. 7", "iteration", "speedup");
        fig.series.push(s);
        assert!(fig.to_string().contains("final reward"));
        assert!(fig.to_json().contains("\"points\""));
    }
}
