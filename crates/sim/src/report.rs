//! Fixed-width table printing — the "figures" the `exp_*` binaries print.

/// A printable table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {c:>w$} |", w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats an `f64` with two decimals for table cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders a schedule snapshot as an ASCII Gantt chart: one row per
/// machine, one column per slot in `[t0, t1)`, job ids shown modulo 10
/// (`.` = idle). Meant for examples and debugging, not big schedules.
pub fn gantt(
    snapshot: &realloc_core::ScheduleSnapshot,
    machines: usize,
    t0: realloc_core::Slot,
    t1: realloc_core::Slot,
) -> String {
    let width = (t1 - t0) as usize;
    let mut rows = vec![vec!['.'; width]; machines];
    for (job, p) in snapshot.iter() {
        if p.machine < machines && (t0..t1).contains(&p.slot) {
            rows[p.machine][(p.slot - t0) as usize] =
                char::from_digit((job.0 % 10) as u32, 10).unwrap();
        }
    }
    let mut out = String::new();
    out.push_str(&format!("slots [{t0}, {t1})\n"));
    for (m, row) in rows.iter().enumerate() {
        out.push_str(&format!("m{m} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_style() {
        let mut t = Table::new("demo", &["n", "cost"]);
        t.row(vec!["10".into(), "1.25".into()]);
        t.row(vec!["100000".into(), "1.50".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| 100000 |"));
        assert!(r.lines().count() == 5);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn gantt_renders_occupancy() {
        use realloc_core::{cost::Placement, JobId, ScheduleSnapshot};
        let mut s = ScheduleSnapshot::new();
        s.set(
            JobId(7),
            Placement {
                machine: 0,
                slot: 2,
            },
        );
        s.set(
            JobId(13),
            Placement {
                machine: 1,
                slot: 0,
            },
        );
        let g = gantt(&s, 2, 0, 4);
        assert!(g.contains("m0 |..7.|"));
        assert!(g.contains("m1 |3...|"));
    }
}
