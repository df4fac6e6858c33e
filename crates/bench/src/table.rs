//! Minimal markdown-table formatting for the `experiments` report.

/// Renders a GitHub-flavoured markdown table, every column padded to its
/// widest cell so the source reads as a table too.
///
/// # Panics
///
/// If a row does not have one cell per header column.
pub fn markdown_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let mut w: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in &rows {
        assert_eq!(row.len(), w.len(), "row arity mismatch");
        for (width, cell) in w.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let pad = |cells: &[String]| {
        cells
            .iter()
            .zip(&w)
            .map(|(c, width)| format!("{c:<width$}"))
            .collect()
    };
    let mut out = line(pad(&header));
    out.push_str(&line(w.iter().map(|width| "-".repeat(*width)).collect()));
    for row in &rows {
        out.push_str(&line(pad(row)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(row: &[&str]) -> Vec<String> {
        row.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn renders_aligned_text_and_markdown() {
        let rows = [["BFS", "2.50", "2.53"], ["Gaussian", "70.00", "70.41"]];
        let md = markdown_table(
            &["app", "native (s)", "CRAC (s)"],
            rows.iter().map(|r| cells(r)),
        );
        assert!(md.starts_with("| app      | native (s) |"));
        assert!(md.contains("| BFS      | 2.50       | 2.53     |"));
        // Header, rule and two rows, all as wide as the header.
        let widths: Vec<usize> = md.lines().map(str::len).collect();
        assert_eq!(widths, [widths[0]; 4]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        markdown_table(&["a", "b"], [cells(&["only one"])]);
    }
}
