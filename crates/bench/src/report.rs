//! Terminal table formatting for the experiment runners.

use bayeslsh_core::Composition;

/// A composition's label in reports: the name the paper's tables use for
/// its eight algorithms, the generator × verifier form for any other.
pub fn label(c: Composition) -> String {
    c.paper_name().map_or_else(|| c.to_string(), String::from)
}

/// Render an aligned text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Human-friendly seconds.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.0}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Compact count formatting (1.2e06 style above 100k, plain below).
pub fn fmt_count(n: u64) -> String {
    if n >= 100_000 {
        format!("{:.1e}", n as f64)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer-name"));
        // The value column starts at the same offset in every row.
        let col = lines[3].find("22").unwrap();
        assert_eq!(lines[2].as_bytes()[col] as char, '1');
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.000002), "2us");
        assert_eq!(fmt_secs(0.25), "250.0ms");
        assert_eq!(fmt_secs(3.2), "3.20s");
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(42), "42");
        assert_eq!(fmt_count(5_000_000), "5.0e6");
    }
}
