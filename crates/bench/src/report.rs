//! One declaration per report field, one renderer for all of them.
//!
//! A report type lists its fields once, in order, as [`Row`]s — JSON key,
//! text label, [`Value`] — and [`Rendered`] turns any such list into both
//! the `--json` object and the human-readable text. A field therefore
//! cannot exist in one output and be missing, renamed or reordered in the
//! other, and `tests/golden/report_keys.txt` pins the key paths CI reads.
//! The run invariants live next to the fields, in [`Report::check`]: the
//! `exp` binary exits non-zero when it fails and the smoke tests call it.

use std::fmt;

use mlir_rl_core::report::json;
use mlir_rl_core::{Figure, ServiceMetrics, SpeedupTable};
use mlir_rl_obs::json_string;

/// What one report field holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count or a measurement (`NaN` renders as JSON `null` / text `-`).
    Number(f64),
    /// A pass/fail flag.
    Bool(bool),
    /// A name.
    Text(String),
    /// A type that renders itself: a [`SpeedupTable`], a [`Figure`] or a
    /// [`ServiceMetrics`] snapshot.
    Embedded {
        /// Its `to_json()`.
        json: String,
        /// Its text form.
        text: String,
    },
    /// One sub-report (a JSON object; a one-line table in text).
    Object(Vec<Row>),
    /// A list of like sub-reports (a JSON array; a table in text).
    List(Vec<Vec<Row>>),
}

/// One report field: JSON key, text label, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The JSON key.
    pub key: &'static str,
    /// The label of the text line (the column header inside a table).
    pub label: &'static str,
    /// The field's value.
    pub value: Value,
}

impl Row {
    /// A row from anything that converts into a [`Value`].
    pub fn new(key: &'static str, label: &'static str, value: impl Into<Value>) -> Self {
        Self {
            key,
            label,
            value: value.into(),
        }
    }
}

/// Lists `$report`'s named fields as rows keyed by the field names:
/// `rows!(self; episodes "episodes", speedup "parallel speedup")`.
macro_rules! rows {
    ($report:expr; $($field:ident $label:literal),* $(,)?) => {
        vec![$($crate::report::Row::new(stringify!($field), $label, &$report.$field)),*]
    };
}
pub(crate) use rows;

/// Declares a report struct and its [`Rows`] from one field list, so a
/// field is spelled once: doc, name (= JSON key), type, text label.
macro_rules! report {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* $field:ident: $kind:ty = $label:literal,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $kind,)*
        }
        impl $crate::report::Rows for $name {
            fn rows(&self) -> Vec<$crate::report::Row> {
                $crate::report::rows!(self; $($field $label),*)
            }
        }
    };
}
pub(crate) use report;

/// The body of a [`Report::check`]: `Ok(())` when every listed condition
/// holds, else `Err` quoting the first that does not. The values it
/// compares are in the report, which `exp` prints before it checks.
macro_rules! ensure_all {
    ($($condition:expr),+ $(,)?) => {{
        $(
            let holds: bool = $condition;
            if !holds {
                return Err(format!("`{}` does not hold", stringify!($condition)));
            }
        )+
        Ok(())
    }};
}
pub(crate) use ensure_all;

/// A type that lists its fields as rows. Sub-reports (one stream, one
/// batch size, one searcher) implement only this.
pub trait Rows {
    /// The fields, in output order.
    fn rows(&self) -> Vec<Row>;
}

/// What an experiment returns: its fields plus its run invariants.
pub trait Report: Rows {
    /// The invariants the run must satisfy, or the first one it broke.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A bare row list is a report with nothing to check: the table- and
/// figure-only paper experiments, whose values the golden documents pin.
impl Rows for Vec<Row> {
    fn rows(&self) -> Vec<Row> {
        self.clone()
    }
}
impl Report for Vec<Row> {}

/// How each field type becomes a [`Value`].
macro_rules! values {
    ($($kind:ty: |$value:ident| $body:expr,)*) => {$(
        impl From<&$kind> for Value {
            fn from($value: &$kind) -> Self {
                $body
            }
        }
    )*};
}
values!(
    usize: |v| Value::Number(*v as f64),
    u64: |v| Value::Number(*v as f64),
    f64: |v| Value::Number(*v),
    Option<f64>: |v| Value::Number(v.unwrap_or(f64::NAN)),
    bool: |v| Value::Bool(*v),
    String: |v| Value::Text(v.clone()),
    SpeedupTable: |v| Value::Embedded { json: v.to_json(), text: v.to_string() },
    Figure: |v| Value::Embedded { json: v.to_json(), text: v.to_string() },
    ServiceMetrics: |v| Value::Embedded { json: v.to_json(), text: v.to_json() },
    // `(completed, stopped, skipped, rejected)` counts of a served stream.
    (usize, usize, usize, usize): |v| Value::Object(vec![
        Row::new("completed", "completed", &v.0),
        Row::new("stopped", "stopped", &v.1),
        Row::new("skipped", "skipped", &v.2),
        Row::new("rejected", "rejected", &v.3),
    ]),
);

impl<T: Rows> From<&T> for Value {
    fn from(report: &T) -> Self {
        Value::Object(report.rows())
    }
}

impl<T: Rows> From<&Vec<T>> for Value {
    fn from(reports: &Vec<T>) -> Self {
        Value::List(reports.iter().map(Rows::rows).collect())
    }
}

impl Value {
    fn json(&self, indent: usize) -> String {
        match self {
            Value::Number(value) => json::number(*value),
            Value::Bool(value) => value.to_string(),
            Value::Text(value) => json_string(value),
            Value::Embedded { json, .. } => json.clone(),
            Value::Object(rows) => object_json(indent + 1, None, rows),
            Value::List(items) => {
                json::array(items.iter().map(|rows| object_json(indent + 1, None, rows)))
            }
        }
    }

    /// The value as one table cell or the right-hand side of a text line.
    fn text(&self) -> String {
        match self {
            Value::Number(value) if !value.is_finite() => "-".to_string(),
            Value::Number(value) if value.fract() == 0.0 && value.abs() < 1e15 => {
                format!("{value:.0}")
            }
            Value::Number(value) if value.abs() >= 1.0 => format!("{value:.2}"),
            Value::Number(value) => format!("{value:.6}"),
            Value::Bool(value) => value.to_string(),
            Value::Text(value) => value.clone(),
            nested => nested.json(0),
        }
    }
}

fn object_json(indent: usize, experiment: Option<&str>, rows: &[Row]) -> String {
    let experiment = experiment.map(|name| ("experiment", json_string(&format!("exp_{name}"))));
    let fields = rows.iter().map(|row| (row.key, row.value.json(indent)));
    json::object(indent, experiment.into_iter().chain(fields))
}

/// A table: one header line of labels, one line per sub-report; names
/// align left, everything else right.
fn write_table(f: &mut fmt::Formatter<'_>, label: &str, items: &[Vec<Row>]) -> fmt::Result {
    writeln!(f, "-- {label} --")?;
    let Some(header) = items.first() else {
        return Ok(());
    };
    let mut lines = vec![header.iter().map(|row| row.label.to_string()).collect()];
    lines.extend(
        items
            .iter()
            .map(|rows| -> Vec<String> { rows.iter().map(|row| row.value.text()).collect() }),
    );
    let width = |column: usize| {
        lines
            .iter()
            .map(|line| line[column].len())
            .max()
            .unwrap_or(0)
    };
    let widths: Vec<usize> = (0..header.len()).map(width).collect();
    for line in &lines {
        let mut text = String::new();
        for ((cell, width), row) in line.iter().zip(&widths).zip(header) {
            if matches!(row.value, Value::Text(_)) {
                text.push_str(&format!("{cell:<width$}  "));
            } else {
                text.push_str(&format!("{cell:>width$}  "));
            }
        }
        writeln!(f, "{}", text.trim_end())?;
    }
    Ok(())
}

/// A report ready to print: `Display` is the text form, [`Rendered::to_json`]
/// the machine-readable one, both from the same rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// The registry name; the JSON carries `"experiment": "exp_<name>"`.
    pub name: &'static str,
    rows: Vec<Row>,
}

impl Rendered {
    /// `report`'s rows under the registry name `name`.
    pub fn new(name: &'static str, report: &dyn Report) -> Self {
        Self {
            name,
            rows: report.rows(),
        }
    }

    /// The report as one JSON object: `experiment`, then every row in
    /// declaration order.
    pub fn to_json(&self) -> String {
        self.json_at(1)
    }

    /// [`Rendered::to_json`] for a report nested `indent - 1` levels deep.
    pub(crate) fn json_at(&self, indent: usize) -> String {
        object_json(indent, Some(self.name), &self.rows)
    }
}

impl fmt::Display for Rendered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== exp_{} ==", self.name)?;
        let width = self
            .rows
            .iter()
            .map(|row| row.label.len())
            .max()
            .unwrap_or(0);
        for row in &self.rows {
            match &row.value {
                Value::Embedded { text, .. } => {
                    writeln!(f, "-- {} --\n{}", row.label, text.trim_end())?
                }
                Value::Object(rows) => write_table(f, row.label, std::slice::from_ref(rows))?,
                Value::List(items) => write_table(f, row.label, items)?,
                scalar => writeln!(f, "{:<width$}  {}", row.label, scalar.text())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Inner {
        name: String,
        hits: usize,
    }
    impl Rows for Inner {
        fn rows(&self) -> Vec<Row> {
            rows!(self; name "name", hits "hits")
        }
    }

    #[test]
    fn one_row_list_renders_both_forms() {
        let inner = |name: &str, hits| Inner {
            name: name.to_string(),
            hits,
        };
        let report = vec![
            Row::new("rate", "hit rate", &0.25),
            Row::new("missing", "not measured", &None::<f64>),
            Row::new("ok", "all good", &true),
            Row::new("best", "best stream", &inner("warm", 7)),
            Row::new(
                "streams",
                "streams",
                &vec![inner("warm", 7), inner("cold", 12)],
            ),
        ];
        let rendered = Rendered::new("demo", &report);
        assert_eq!(
            rendered.to_json(),
            "{\n  \"experiment\": \"exp_demo\",\n  \"rate\": 0.25,\n  \"missing\": null,\n  \
             \"ok\": true,\n  \"best\": {\n    \"name\": \"warm\",\n    \"hits\": 7\n  },\n  \
             \"streams\": [{\n    \"name\": \"warm\",\n    \"hits\": 7\n  }, {\n    \
             \"name\": \"cold\",\n    \"hits\": 12\n  }]\n}"
        );
        assert_eq!(
            rendered.to_string(),
            "== exp_demo ==\nhit rate      0.250000\nnot measured  -\nall good      true\n\
             -- best stream --\nname  hits\nwarm     7\n-- streams --\nname  hits\n\
             warm     7\ncold    12\n"
        );
        assert_eq!(report.check(), Ok(()));
    }
}
