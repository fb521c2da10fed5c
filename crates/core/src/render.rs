//! How a report reads: the `Display` forms (a [`Finding`] prints in the
//! shape of the paper's Figure 5) and the markdown document. Pure functions
//! of the data model in [`crate::report`].

use predator_sim::Owner;

use crate::report::{
    Finding, FindingKind, FixVerdict, InvalidationTrace, Report, SiteKind, VerifiedFix,
};

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindingKind::Observed => f.write_str("observed"),
            FindingKind::PredictedDoubled => f.write_str("predicted (doubled cache line size)"),
            FindingKind::PredictedScaled { factor_log2 } => {
                write!(f, "predicted ({}x cache line size)", 1u64 << factor_log2)
            }
            FindingKind::PredictedRemap { delta } => {
                write!(
                    f,
                    "predicted (object start shifted, partition offset {delta} bytes)"
                )
            }
        }
    }
}

impl std::fmt::Display for FixVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FixVerdict::Fixes => "fixes",
            FixVerdict::Partial => "partial",
            FixVerdict::Ineffective => "ineffective",
        })
    }
}

impl std::fmt::Display for VerifiedFix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Verified fix ({}, {} pad bytes): {}",
            self.verdict, self.pad_bytes, self.fix
        )?;
        for d in &self.deltas {
            writeln!(
                f,
                "  line {:>3}B: {} -> {} invalidations ({}% removed; MESI {} -> {})",
                d.line_size,
                d.before,
                d.after,
                d.pct_removed(),
                d.mesi_before,
                d.mesi_after
            )?;
        }
        Ok(())
    }
}

/// `label` as a code span inside a GFM table cell. Names arrive from a
/// trace's META chunk: a `|` would end the cell and a backtick the span, so
/// pipes are escaped and the fence is one backtick longer than any run in
/// the label.
fn md_code_cell(label: &str) -> String {
    let longest = label.split(|c| c != '`').map(str::len).max().unwrap_or(0);
    let fence = "`".repeat(longest + 1);
    let pad = if longest > 0 { " " } else { "" };
    format!("{fence}{pad}{}{pad}{fence}", label.replace('|', "\\|"))
}

impl Report {
    /// Renders a GitHub-flavoured-markdown report (for CI artifacts and
    /// issue filing).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# PREDATOR report\n\n");
        if self.findings.is_empty() {
            out.push_str("No sharing problems found above the reporting threshold.\n\n");
        } else {
            out.push_str("| # | class | detection | object | size | invalidations | accesses |\n");
            out.push_str("|---|---|---|---|---|---|---|\n");
            for (i, f) in self.findings.iter().enumerate() {
                let site = md_code_cell(&f.object.label());
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} |",
                    i, f.class, f.kind, site, f.object.size, f.invalidations, f.accesses
                );
            }
            out.push('\n');
            for (i, f) in self.findings.iter().enumerate() {
                let _ = writeln!(out, "## Finding {i}\n\n```text\n{f}```\n");
            }
        }
        let _ = writeln!(
            out,
            "_{} events; {}/{} lines tracked; {} prediction units; {} bytes metadata._",
            self.stats.events,
            self.stats.tracked_lines,
            self.stats.total_lines,
            self.stats.prediction_units,
            self.stats.metadata_bytes
        );
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.findings.is_empty() {
            writeln!(
                f,
                "No sharing problems found above the reporting threshold."
            )?;
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        writeln!(
            f,
            "\n[stats] events: {}; tracked lines: {}/{}; prediction units: {}; metadata: {} bytes",
            self.stats.events,
            self.stats.tracked_lines,
            self.stats.total_lines,
            self.stats.prediction_units,
            self.stats.metadata_bytes
        )
    }
}

impl std::fmt::Display for Finding {
    /// Renders in the shape of the paper's Figure 5.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.object.site {
            SiteKind::Heap { .. } => "HEAP OBJECT",
            SiteKind::Global { .. } => "GLOBAL VARIABLE",
            SiteKind::Unknown => "MEMORY REGION",
        };
        writeln!(
            f,
            "{} {}: start {:#x} end {:#x} (with size {}).",
            self.class, what, self.object.start, self.object.end, self.object.size
        )?;
        writeln!(
            f,
            "Number of accesses: {}; Number of invalidations: {}; Number of writes: {}.",
            self.accesses, self.invalidations, self.writes
        )?;
        writeln!(f, "Detection: {}.", self.kind)?;
        for vr in &self.virtual_lines {
            writeln!(f, "Verified virtual line: {vr}")?;
        }
        if let Some(v) = &self.verified {
            write!(f, "{v}")?;
        }
        match &self.object.site {
            SiteKind::Heap { callsite, owner } => {
                writeln!(f, "Allocated by {owner}. Callsite stack:")?;
                write!(f, "{callsite}")?;
            }
            SiteKind::Global { name } => writeln!(f, "Global variable: {name}")?,
            SiteKind::Unknown => writeln!(f, "(unattributed memory)")?,
        }
        writeln!(f, "\nWord level information:")?;
        for w in &self.words {
            let by = match w.owner {
                Owner::Exclusive(t) => format!(" by {t}"),
                Owner::Shared => " by multiple threads".to_string(),
                Owner::Untouched => String::new(),
            };
            writeln!(
                f,
                "Address {:#x} (line {}): reads {} writes {}{}",
                w.addr, w.line, w.reads, w.writes, by
            )?;
        }
        if !self.invalidation_traces.is_empty() {
            writeln!(f, "\nRecent invalidations (flight recorder):")?;
            for t in &self.invalidation_traces {
                writeln!(f, "{t}")?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for InvalidationTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let victim_word = if self.victim_word == u8::MAX {
            "?".to_string()
        } else {
            format!("{}", self.victim_word)
        };
        write!(
            f,
            "[seq {}] {} wrote word {} of line {}, invalidating {}'s copy (last word {}) — {}",
            self.seq, self.writer, self.writer_word, self.line, self.victim, victim_word, self.site
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::build_report;
    use crate::config::DetectorConfig;
    use crate::runtime::Predator;
    use predator_sim::AccessKind::Write;
    use predator_sim::ThreadId;

    const BASE: u64 = 0x4000_0000;

    fn rt() -> Predator {
        Predator::new(DetectorConfig::sensitive(), BASE, 1 << 20)
    }

    #[test]
    fn markdown_rendering_includes_table_and_details() {
        let rt = rt();
        rt.register_global("victim", BASE, 64);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        let md = r.to_markdown();
        assert!(md.starts_with("# PREDATOR report"), "{md}");
        assert!(md.contains("| # | class | detection |"), "{md}");
        assert!(md.contains("`victim`"), "{md}");
        assert!(md.contains("## Finding 0"), "{md}");
        assert!(md.contains("FALSE SHARING GLOBAL VARIABLE"), "{md}");
        assert!(md.contains("events;"), "{md}");
    }

    #[test]
    fn markdown_for_empty_report() {
        let rt = rt();
        let md = build_report(&rt, None).to_markdown();
        assert!(md.contains("No sharing problems"), "{md}");
    }

    /// Global names arrive from a trace's META chunk: one with a pipe or
    /// a backtick must still render as one cell holding one code span.
    #[test]
    fn markdown_table_survives_pipes_and_backticks_in_names() {
        let rt = rt();
        rt.register_global("a|b`c``d", BASE, 64);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let md = build_report(&rt, None).to_markdown();
        let row = md.lines().find(|l| l.starts_with("| 0 |")).expect("a row");
        assert!(row.contains("| ``` a\\|b`c``d ``` |"), "{row}");
        assert_eq!(row.replace("\\|", "").matches('|').count(), 8, "{row}");
    }
}
