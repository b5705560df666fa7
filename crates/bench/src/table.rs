//! Aligned-column text tables for experiment output.

use crate::summary::Row;

/// Renders `rows` as a right-aligned table under `title`: one column per
/// key, headed by the key, each cell [`Row::cell`]`(key)`.
///
/// # Panics
///
/// Panics if a row lacks one of `keys`.
#[must_use]
pub fn render(title: &str, keys: &[&str], rows: &[Row]) -> String {
    let mut lines: Vec<Vec<String>> = vec![keys.iter().map(|&key| key.to_owned()).collect()];
    lines.extend(
        rows.iter()
            .map(|row| keys.iter().map(|key| row.cell(key)).collect()),
    );
    let widths: Vec<usize> = (0..keys.len())
        .map(|i| lines.iter().map(|line| line[i].len()).max().unwrap_or(0))
        .collect();
    let mut out = format!("\n== {title} ==\n");
    for (i, line) in lines.iter().enumerate() {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        out.push_str(&padded.join("  "));
        out.push('\n');
        if i == 0 {
            let rule = widths.iter().sum::<usize>() + 2 * keys.len().saturating_sub(1);
            out.push_str(&"-".repeat(rule));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let rows = [
            Row::new("x").with("a", 1u64).with("bbbb", 2u64),
            Row::new("y").with("a", 333u64).with("bbbb", 4u64),
        ];
        let r = render("demo", &["a", "bbbb"], &rows);
        assert_eq!(
            r,
            "\n== demo ==\n  a  bbbb\n---------\n  1     2\n333     4\n"
        );
    }

    #[test]
    fn bits_formatting() {
        let row = Row::new("x")
            .with("one", 1u64)
            .with("k", 1234u64)
            .with("m", 1_234_567u64)
            .with("obj", crate::Value::Obj(vec![("bits", 1_000u64.into())]));
        let r = render("bits", &["one", "k", "m", "obj.bits"], &[row]);
        assert!(r.ends_with("  1  1_234  1_234_567     1_000\n"), "{r}");
    }

    #[test]
    #[should_panic(expected = "row has no field \"b\"")]
    fn arity_checked() {
        let _ = render("x", &["a", "b"], &[Row::new("r").with("a", 1u64)]);
    }
}
