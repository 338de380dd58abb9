//! Plain-text experiment reports.
//!
//! Every experiment produces a [`Report`]: a titled, aligned table plus a
//! pass/fail verdict. The `repro` binary prints them; the integration
//! test suite asserts `pass` for every experiment, so the published
//! tables are exactly what CI checks.

use std::fmt;
use std::time::Duration;
use vqd_budget::Exhausted;

/// Resource accounting for the run that produced a report: how much work
/// the budget observed, the wall time, and whether the budget tripped.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Checkpoints passed during the run.
    pub steps: u64,
    /// Tuples charged during the run.
    pub tuples: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// `Some(description)` when the budget tripped and the run degraded
    /// to a partial table; `None` for a completed run.
    pub tripped: Option<String>,
}

/// One experiment's output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (`E1`…`E17`).
    pub id: &'static str,
    /// Human-readable title (paper result).
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
    /// Overall verdict: did every check in the experiment hold?
    pub pass: bool,
    /// Budget accounting, filled by the budgeted runners in
    /// [`crate::experiments`].
    pub stats: Option<RunStats>,
}

impl Report {
    /// Creates an empty passing report.
    pub fn new(id: &'static str, title: &'static str, headers: &[&str]) -> Self {
        Report {
            id,
            title,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            pass: true,
            stats: None,
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Records a check; failing checks flip the verdict and are noted.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.pass = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Records a budget trip: the experiment degraded to a partial table.
    /// The escalating retry driver keys off [`RunStats::tripped`].
    pub fn trip(&mut self, e: &Exhausted) {
        let stats = self.stats.get_or_insert_with(RunStats::default);
        stats.tripped = Some(e.to_string());
        self.notes.push(format!("BUDGET TRIPPED: {e}"));
    }

    /// Whether the run that produced this report tripped its budget.
    pub fn tripped(&self) -> bool {
        self.stats.as_ref().is_some_and(|s| s.tripped.is_some())
    }

    /// Renders the report as a JSON object (hand-rolled: the build
    /// environment has no serde_json).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(items: impl Iterator<Item = String>) -> String {
            format!("[{}]", items.collect::<Vec<_>>().join(","))
        }
        let headers = arr(self.headers.iter().map(|h| format!("\"{}\"", esc(h))));
        let rows = arr(self.rows.iter().map(|r| arr(r.iter().map(|c| format!("\"{}\"", esc(c))))));
        let notes = arr(self.notes.iter().map(|n| format!("\"{}\"", esc(n))));
        let stats = match &self.stats {
            None => "null".to_owned(),
            Some(s) => format!(
                "{{\"steps\":{},\"tuples\":{},\"wall_ms\":{},\"tripped\":{}}}",
                s.steps,
                s.tuples,
                s.wall.as_millis(),
                match &s.tripped {
                    None => "null".to_owned(),
                    Some(t) => format!("\"{}\"", esc(t)),
                },
            ),
        };
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"headers\":{},\"rows\":{},\"notes\":{},\"pass\":{},\"stats\":{}}}",
            esc(self.id), esc(self.title), headers, rows, notes, self.pass, stats,
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  * {note}")?;
        }
        if let Some(s) = &self.stats {
            writeln!(
                f,
                "  governance: {} steps, {} tuples, {:?} — {}",
                s.steps,
                s.tuples,
                s.wall,
                match &s.tripped {
                    None => "completed within budget".to_owned(),
                    Some(t) => format!("TRIPPED ({t})"),
                },
            )?;
        }
        writeln!(f, "  verdict: {}", if self.pass { "PASS" } else { "FAIL" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("E0", "smoke", &["a", "long-header"]);
        r.row(vec!["x".into(), "y".into()]);
        r.note("a note");
        let s = r.to_string();
        assert!(s.contains("E0"));
        assert!(s.contains("long-header"));
        assert!(s.contains("PASS"));
    }

    #[test]
    fn failed_check_flips_verdict() {
        let mut r = Report::new("E0", "smoke", &["a"]);
        r.check(true, "fine");
        assert!(r.pass);
        r.check(false, "broken");
        assert!(!r.pass);
        assert!(r.to_string().contains("FAIL"));
        assert!(r.to_string().contains("broken"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut r = Report::new("E0", "smoke", &["a", "b"]);
        r.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_includes_stats_and_escapes() {
        let mut r = Report::new("E0", "smoke \"quoted\"", &["a"]);
        r.row(vec!["x\ny".into()]);
        r.stats = Some(RunStats {
            steps: 7,
            tuples: 3,
            wall: Duration::from_millis(12),
            tripped: Some("step limit".into()),
        });
        let j = r.to_json();
        assert!(j.contains("\"id\":\"E0\""));
        assert!(j.contains("smoke \\\"quoted\\\""));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"steps\":7"));
        assert!(j.contains("\"tripped\":\"step limit\""));
    }

    #[test]
    fn trip_marks_report_and_display() {
        let mut r = Report::new("E0", "smoke", &["a"]);
        assert!(!r.tripped());
        let e = vqd_budget::Budget::unlimited()
            .trip_after(1)
            .checkpoint_with(&"partial table")
            .unwrap_err();
        r.trip(&e);
        assert!(r.tripped());
        assert!(r.to_string().contains("TRIPPED"));
        // A trip does not by itself fail the report: the escalation
        // driver retries rather than reporting a false negative.
        assert!(r.pass);
    }
}
