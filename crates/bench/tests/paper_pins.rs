//! Pins what the harness must not move while it is refactored.
//!
//! * `golden/paper_smoke.json` / `golden/paper_standard.json`: the paper's
//!   deterministic experiments (Sec. IV-A accounting, Tables II/V, Fig. 5,
//!   Tables III–IV, the interchange ablation, Figs. 6–7) as one JSON
//!   document, compared byte for byte. `json::number` prints the shortest
//!   round-trip form of an `f64`, so this pins every bit of every value.
//!   There is no bless switch: a deliberate re-pin is regenerated from the
//!   harness's own output and reviewed as a diff of these files.
//! * `golden/report_keys.txt`: the ordered, recursive key paths (with value
//!   types) of every timing-dependent `--json` report, which CI's python
//!   reads by key.

use mlir_rl_bench::cli::ExpArgs;
use mlir_rl_bench::report::Rendered;
use mlir_rl_bench::{paper_document, registry, ExperimentScale};

/// The `--json` report of every experiment whose values depend on timing,
/// at smoke scale, in `report_keys.txt` order.
fn timing_reports() -> Vec<(&'static str, String)> {
    let args = ExpArgs::new(ExperimentScale::smoke(), 2);
    let names = [
        "rollout_throughput",
        "train_split",
        "lookup_split",
        "nn_throughput",
        "portfolio",
        "service",
        "load",
        "online",
    ];
    names
        .map(|name| {
            let experiment = registry::find(name).expect("a registered experiment");
            let (report, _) = (experiment.run)(&args);
            (name, Rendered::new(name, report.as_ref()).to_json())
        })
        .to_vec()
}

/// Fails with the first differing line instead of two multi-kilobyte blobs.
fn assert_same_text(actual: &str, golden: &str, what: &str) {
    for (number, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{what}: line {} differs", number + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{what}: line counts differ"
    );
}

#[test]
fn paper_smoke_matches_the_golden_document_byte_for_byte() {
    assert_same_text(
        &paper_document(&ExperimentScale::smoke()),
        include_str!("golden/paper_smoke.json"),
        "golden/paper_smoke.json",
    );
}

#[test]
#[ignore = "seconds in a debug build (Table III alone 4.9 s); CI diffs the release binary's output"]
fn paper_standard_matches_the_golden_document_byte_for_byte() {
    assert_same_text(
        &paper_document(&ExperimentScale::standard()),
        include_str!("golden/paper_standard.json"),
        "golden/paper_standard.json",
    );
}

#[test]
fn timing_report_key_paths_match_the_golden_list() {
    let mut actual = String::new();
    for (name, report) in timing_reports() {
        actual.push_str(&format!("# {name}\n"));
        for line in key_paths(&report) {
            actual.push_str(&line);
            actual.push('\n');
        }
    }
    assert_same_text(
        &actual,
        include_str!("golden/report_keys.txt"),
        "golden/report_keys.txt",
    );
}

/// Every object key of `document` as `path: type`, in document order;
/// array elements share the path `parent[]` and repeated lines collapse
/// into their first occurrence, so a list of like objects reads once.
fn key_paths(document: &str) -> Vec<String> {
    let mut walker = Walker {
        text: document.as_bytes(),
        at: 0,
        lines: Vec::new(),
    };
    walker.value("");
    walker.skip_whitespace();
    assert_eq!(walker.at, walker.text.len(), "trailing text after the JSON");
    let mut seen = std::collections::HashSet::new();
    walker.lines.retain(|line| seen.insert(line.clone()));
    walker.lines
}

/// Just enough of a JSON reader to walk a well-formed document's keys.
struct Walker<'a> {
    text: &'a [u8],
    at: usize,
    lines: Vec<String>,
}

impl Walker<'_> {
    fn skip_whitespace(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.text.get(self.at) == Some(&byte);
        self.at += usize::from(found);
        found
    }

    fn string(&mut self) -> String {
        assert!(self.eat(b'"'), "expected a string at byte {}", self.at);
        let start = self.at;
        while self.text[self.at] != b'"' {
            self.at += 1 + usize::from(self.text[self.at] == b'\\');
        }
        self.at += 1;
        String::from_utf8_lossy(&self.text[start..self.at - 1]).into_owned()
    }

    /// Consumes one value, records the keys below it, returns its type.
    fn value(&mut self, path: &str) -> &'static str {
        self.skip_whitespace();
        match self.text[self.at] {
            b'{' => {
                self.at += 1;
                while !self.eat(b'}') {
                    let key = self.string();
                    assert!(self.eat(b':'), "expected `:` after key `{key}`");
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    let slot = self.lines.len();
                    self.lines.push(String::new());
                    let kind = self.value(&child);
                    self.lines[slot] = format!("{child}: {kind}");
                    self.eat(b',');
                }
                "object"
            }
            b'[' => {
                self.at += 1;
                let element = format!("{path}[]");
                while !self.eat(b']') {
                    self.value(&element);
                    self.eat(b',');
                }
                "array"
            }
            b'"' => {
                self.string();
                "string"
            }
            _ => {
                let start = self.at;
                while !matches!(self.text[self.at], b',' | b'}' | b']')
                    && !self.text[self.at].is_ascii_whitespace()
                {
                    self.at += 1;
                }
                match &self.text[start..self.at] {
                    b"true" | b"false" => "bool",
                    b"null" => "null",
                    number => {
                        let number = std::str::from_utf8(number).expect("ascii");
                        number.parse::<f64>().expect("a JSON number");
                        "number"
                    }
                }
            }
        }
    }
}
