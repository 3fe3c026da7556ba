//! Report formatting: turning campaign results into the paper-shaped tables
//! printed by the benches and examples.

use std::fmt::Write as _;

use crate::campaign::EnvironmentCampaign;

/// A simple fixed-width text table builder used by every experiment driver.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.header.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (index, cell) in self.header.iter().enumerate() {
            widths[index] = widths[index].max(cell.len());
        }
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut output = String::new();
        let render_row = |cells: &[String], widths: &[usize], output: &mut String| {
            for (index, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(index).unwrap_or(&empty);
                let _ = write!(output, "| {cell:<width$} ");
            }
            output.push_str("|\n");
        };
        render_row(&self.header, &widths, &mut output);
        for (index, width) in widths.iter().enumerate() {
            let _ = write!(output, "|{}", "-".repeat(width + 2));
            if index + 1 == widths.len() {
                output.push_str("|\n");
            }
        }
        for row in &self.rows {
            render_row(row, &widths, &mut output);
        }
        output
    }
}

/// Formats a percentage with one decimal, e.g. `95.0%`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats seconds with one decimal, e.g. `115.3 s`.
pub fn seconds(value: f64) -> String {
    format!("{value:.1} s")
}

/// Formats joules as kilojoules with one decimal, e.g. `61.7 kJ`.
pub fn kilojoules(joules: f64) -> String {
    format!("{:.1} kJ", joules / 1000.0)
}

/// Renders the Table I success-rate table from a list of per-environment
/// campaigns.
pub fn table1_success_rates(campaigns: &[EnvironmentCampaign]) -> String {
    let mut header = vec!["Environment".to_owned()];
    header.extend(campaigns.iter().map(|c| c.environment.label().to_owned()));
    let mut table = TextTable::new(header);
    let labels = ["Golden Run", "Injection Run", "Gaussian-based", "Autoencoder-based"];
    for (index, label) in labels.iter().enumerate() {
        let mut row = vec![(*label).to_owned()];
        for campaign in campaigns {
            let setting = campaign.settings()[index];
            row.push(percent(setting.summary.success_rate));
        }
        table.push_row(row);
    }
    table.render()
}

/// Renders the Fig. 6 flight-time summary (per environment: worst-case
/// inflation of the injection runs and worst-case recovery of both D&R
/// schemes).
pub fn fig6_flight_time_summary(campaigns: &[EnvironmentCampaign]) -> String {
    let mut table = TextTable::new([
        "Environment",
        "Golden max",
        "FI max",
        "FI inflation",
        "D&R(G) max",
        "G recovery",
        "D&R(A) max",
        "A recovery",
    ]);
    for campaign in campaigns {
        let golden = &campaign.golden.summary;
        let injected = &campaign.injected.summary;
        let gaussian = &campaign.gaussian.summary;
        let autoencoder = &campaign.autoencoder.summary;
        table.push_row([
            campaign.environment.label().to_owned(),
            seconds(golden.max_flight_time_s),
            seconds(injected.max_flight_time_s),
            percent(injected.worst_case_inflation_vs(golden)),
            seconds(gaussian.max_flight_time_s),
            percent(gaussian.recovery_vs(golden, injected)),
            seconds(autoencoder.max_flight_time_s),
            percent(autoencoder.recovery_vs(golden, injected)),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(["Name", "Value"]);
        table.push_row(["alpha", "1"]);
        table.push_row(["a-much-longer-name", "12345"]);
        let rendered = table.render();
        assert!(rendered.contains("| Name"));
        assert!(rendered.contains("| a-much-longer-name | 12345 |"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Every line has the same length.
        let lengths: std::collections::HashSet<usize> = rendered.lines().map(str::len).collect();
        assert_eq!(lengths.len(), 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.953), "95.3%");
        assert_eq!(seconds(115.26), "115.3 s");
        assert_eq!(kilojoules(61_700.0), "61.7 kJ");
    }
}
