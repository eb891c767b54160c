//! Plain-text table formatting for the experiment harness, in the layout
//! of the paper's tables.

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells already formatted).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with two decimals (the paper's utilization format).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders the stall-attribution table of a profiled run (see
/// [`pc_sim::RunStats::stalls`]): one row per thread with its busy and
/// per-cause stalled cycles, a totals row, and — when any stall was tied
/// to a specific unit class — a per-class breakdown. Returns a notice
/// string when the run was not profiled.
pub fn stall_report(stats: &pc_sim::RunStats) -> String {
    use pc_sim::StallCause;
    if stats.stalls.is_empty() {
        return "stall attribution: not recorded (run with profiling enabled)".to_string();
    }
    let mut header: Vec<&str> = vec!["thread", "alive", "busy"];
    header.extend(StallCause::ALL.iter().map(|c| c.label()));
    header.push("busy%");
    let mut t = Table::new(
        format!("Stall attribution ({} machine cycles)", stats.cycles),
        &header,
    );
    let fill = |row: &mut Vec<String>, alive: u64, busy: u64, cause: &dyn Fn(StallCause) -> u64| {
        row.push(alive.to_string());
        row.push(busy.to_string());
        for c in StallCause::ALL {
            row.push(cause(c).to_string());
        }
        row.push(f2(100.0 * busy as f64 / alive.max(1) as f64));
    };
    for (i, th) in stats.stalls.threads.iter().enumerate() {
        let mut row = vec![format!("t{i}")];
        fill(&mut row, th.alive, th.busy, &|c| th.cause(c));
        t.row(row);
    }
    let mut total = vec!["all".to_string()];
    fill(
        &mut total,
        stats.stalls.total_alive(),
        stats.stalls.total_busy(),
        &|c| stats.stalls.total_cause(c),
    );
    t.row(total);
    let mut s = t.render();
    if !stats.stalls.by_class.is_empty() {
        let mut header: Vec<&str> = vec!["class"];
        header.extend(StallCause::ALL.iter().map(|c| c.label()));
        let mut ct = Table::new("Stalled slots by unit class", &header);
        for (class, by_cause) in &stats.stalls.by_class {
            let mut row = vec![class.label().to_string()];
            row.extend(by_cause.iter().map(u64::to_string));
            ct.row(row);
        }
        s.push('\n');
        s.push_str(&ct.render());
    }
    s
}

/// Counters of one source line after joining dynamic events against a
/// [`pc_isa::DebugMap`]. Line 0 is the explicit "no provenance" bucket:
/// control bubbles, compiler glue, and programs built without debug info
/// all land there rather than disappearing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineStats {
    /// 1-based source line (0 = no provenance).
    pub line: u32,
    /// Innermost enclosing source loop label (e.g. `i@12`), when known.
    pub loop_label: Option<String>,
    /// Operations issued from slots attributed to this line.
    pub issued: u64,
    /// Stalled cycles whose blocked slot attributes to this line,
    /// indexed by [`pc_sim::StallCause::index`].
    pub by_cause: [u64; pc_sim::StallCause::COUNT],
}

impl LineStats {
    /// Total stalled cycles attributed to the line.
    pub fn stalled(&self) -> u64 {
        self.by_cause.iter().sum()
    }
}

/// Per-loop rollup: every line inside the loop aggregated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Loop label (`i@12`, `while@7`); `-` for code outside any loop.
    pub label: String,
    /// Operations issued from the loop's lines.
    pub issued: u64,
    /// Stalled cycles by cause.
    pub by_cause: [u64; pc_sim::StallCause::COUNT],
}

impl LoopStats {
    /// Total stalled cycles attributed to the loop.
    pub fn stalled(&self) -> u64 {
        self.by_cause.iter().sum()
    }
}

/// The structured join of a profiled run against its debug map:
/// per-source-line and per-loop issue/stall counters. Totals are
/// conserved — every stalled cycle in [`pc_sim::StallTable`] lands on
/// exactly one line (possibly line 0, "no provenance"), so
/// [`SourceTable::total_stalled`] equals the machine-level stall total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceTable {
    /// Per-line counters, ascending by line; line 0 (no provenance) last.
    pub lines: Vec<LineStats>,
    /// Per-loop rollups, in loop-table order; code outside loops last.
    pub loops: Vec<LoopStats>,
}

impl SourceTable {
    /// Total stalled cycles across all lines (== the stall-table total).
    pub fn total_stalled(&self) -> u64 {
        self.lines.iter().map(LineStats::stalled).sum()
    }

    /// Total issued operations across all lines.
    pub fn total_issued(&self) -> u64 {
        self.lines.iter().map(|l| l.issued).sum()
    }

    /// The entry for a line, if present.
    pub fn line(&self, line: u32) -> Option<&LineStats> {
        self.lines.iter().find(|l| l.line == line)
    }
}

/// Joins a profiled run's per-slot counters against the compiler's debug
/// map, attributing each static slot to its *primary* span (smallest
/// span id — earliest program order) so every counter lands on exactly
/// one source line. Slots without provenance and stalls without a
/// blocked slot fall into the line-0 "no provenance" bucket.
pub fn source_table(stats: &pc_sim::RunStats, debug: &pc_isa::DebugMap) -> SourceTable {
    use std::collections::BTreeMap;
    let n = pc_sim::StallCause::COUNT;
    // line → (loop label, issued, by_cause)
    let mut lines: BTreeMap<u32, LineStats> = BTreeMap::new();
    // loop label (None = outside) → rollup, keyed by loop id for order.
    let mut loops: BTreeMap<Option<u32>, LoopStats> = BTreeMap::new();

    // Resolve a static coordinate to (line, loop id) via the primary span.
    let resolve = |seg: u32, row: u32, slot: u16| -> (u32, Option<u32>) {
        debug
            .lookup(pc_isa::SegmentId(seg), row, slot)
            .and_then(|ids| {
                let id = *ids.iter().min()?;
                let info = debug.spans.get(id as usize)?;
                Some((info.span.line, info.loop_id))
            })
            .unwrap_or((0, None))
    };
    let mut bump = |line: u32, loop_id: Option<u32>, issued: u64, by_cause: Option<&[u64]>| {
        let e = lines.entry(line).or_insert_with(|| LineStats {
            line,
            ..LineStats::default()
        });
        if e.loop_label.is_none() {
            if let Some(l) = loop_id {
                e.loop_label = debug.loops.get(l as usize).map(pc_isa::LoopInfo::label);
            }
        }
        e.issued += issued;
        let key = if line == 0 { None } else { loop_id };
        let le = loops.entry(key).or_insert_with(|| LoopStats {
            label: key
                .and_then(|l| debug.loops.get(l as usize).map(pc_isa::LoopInfo::label))
                .unwrap_or_else(|| "-".to_string()),
            ..LoopStats::default()
        });
        le.issued += issued;
        if let Some(bc) = by_cause {
            for (i, &c) in bc.iter().enumerate().take(n) {
                e.by_cause[i] += c;
                le.by_cause[i] += c;
            }
        }
    };

    for (&(seg, row, slot), &count) in &stats.stalls.issued_by_slot {
        let (line, loop_id) = resolve(seg, row, slot);
        bump(line, loop_id, count, None);
    }
    for (&(seg, row, slot), by_cause) in &stats.stalls.by_slot {
        let (line, loop_id) = resolve(seg, row, slot);
        bump(line, loop_id, 0, Some(by_cause));
    }
    bump(0, None, 0, Some(&stats.stalls.unattributed));

    // Ascending lines with the no-provenance bucket (line 0) last; drop
    // it entirely when empty.
    let mut out: Vec<LineStats> = lines.into_values().collect();
    out.sort_by_key(|l| if l.line == 0 { u32::MAX } else { l.line });
    out.retain(|l| l.issued > 0 || l.stalled() > 0);
    let mut loop_rows: Vec<(Option<u32>, LoopStats)> = loops.into_iter().collect();
    loop_rows.sort_by_key(|(k, _)| k.map(|v| v as u64).unwrap_or(u64::MAX));
    SourceTable {
        lines: out,
        loops: loop_rows
            .into_iter()
            .map(|(_, v)| v)
            .filter(|l| l.issued > 0 || l.stalled() > 0)
            .collect(),
    }
}

/// Extracts 1-based line `n` of `src`, trimmed and clipped for table
/// cells.
fn src_line(src: Option<&str>, n: u32) -> String {
    let Some(src) = src else {
        return String::new();
    };
    if n == 0 {
        return String::new();
    }
    let text = src.lines().nth(n as usize - 1).map(str::trim).unwrap_or("");
    let mut s: String = text.chars().take(36).collect();
    if text.chars().count() > 36 {
        s.push('…');
    }
    s
}

/// Renders the per-source-line stall attribution of a profiled run — the
/// source-level version of [`stall_report`] — followed by the per-loop
/// rollup with arbitration-loss and presence-wait shares. `src` (the
/// program text) adds a source-excerpt column when available. Returns a
/// notice when the run was not profiled, and reports every counter that
/// lacks provenance under an explicit "(no provenance)" row.
pub fn source_report(
    stats: &pc_sim::RunStats,
    debug: &pc_isa::DebugMap,
    src: Option<&str>,
) -> String {
    use pc_sim::StallCause;
    if stats.stalls.is_empty() {
        return "source attribution: not recorded (run with profiling enabled)".to_string();
    }
    let table = source_table(stats, debug);
    let mut header: Vec<&str> = vec!["line", "loop", "issued"];
    header.extend(StallCause::ALL.iter().map(|c| c.label()));
    header.push("stalled");
    if src.is_some() {
        header.push("source");
    }
    let mut t = Table::new(
        format!("Source-line stall attribution ({} cycles)", stats.cycles),
        &header,
    );
    for l in &table.lines {
        let mut row = vec![
            if l.line == 0 {
                "(no provenance)".to_string()
            } else {
                l.line.to_string()
            },
            l.loop_label.clone().unwrap_or_else(|| "-".to_string()),
            l.issued.to_string(),
        ];
        row.extend(l.by_cause.iter().map(u64::to_string));
        row.push(l.stalled().to_string());
        if src.is_some() {
            row.push(src_line(src, l.line));
        }
        t.row(row);
    }
    let mut totals = vec![
        "all".to_string(),
        String::new(),
        table.total_issued().to_string(),
    ];
    for c in StallCause::ALL {
        totals.push(
            table
                .lines
                .iter()
                .map(|l| l.by_cause[c.index()])
                .sum::<u64>()
                .to_string(),
        );
    }
    totals.push(table.total_stalled().to_string());
    t.row(totals);
    let mut s = t.render();

    if !table.loops.is_empty() {
        let mut lt = Table::new(
            "Loop rollup",
            &["loop", "issued", "stalled", "lost-arb%", "presence%"],
        );
        for l in &table.loops {
            let stalled = l.stalled();
            let share = |c: StallCause| {
                if stalled == 0 {
                    "0.00".to_string()
                } else {
                    f2(100.0 * l.by_cause[c.index()] as f64 / stalled as f64)
                }
            };
            lt.row(vec![
                l.label.clone(),
                l.issued.to_string(),
                stalled.to_string(),
                share(StallCause::LostArbitration),
                share(StallCause::OperandNotPresent),
            ]);
        }
        s.push('\n');
        s.push_str(&lt.render());
    }
    s
}

/// Side-by-side per-line diff of two modes' source tables — the per-line
/// version of the paper's Table 4. Lines are joined by source line
/// number (the two modes may compile different source *variants* of a
/// benchmark; the join is then positional per variant and labelled as
/// such by the caller). The delta column is `b − a` stalled cycles.
pub fn source_diff(
    label_a: &str,
    a: &SourceTable,
    label_b: &str,
    b: &SourceTable,
    src_a: Option<&str>,
) -> String {
    use std::collections::BTreeSet;
    let keys: BTreeSet<u32> = a
        .lines
        .iter()
        .chain(b.lines.iter())
        .map(|l| l.line)
        .collect();
    let mut t = Table::new(
        format!("Per-line mode diff: {label_a} vs {label_b}"),
        &[
            "line",
            &format!("{label_a}:issued"),
            &format!("{label_a}:stalled"),
            &format!("{label_b}:issued"),
            &format!("{label_b}:stalled"),
            "Δstalled",
            "source",
        ],
    );
    // Real lines ascending, the no-provenance bucket last.
    let mut ordered: Vec<u32> = keys.into_iter().collect();
    ordered.sort_by_key(|&l| if l == 0 { u32::MAX } else { l });
    for line in ordered {
        let la = a.line(line);
        let lb = b.line(line);
        let stat = |l: Option<&LineStats>| {
            (
                l.map(|x| x.issued).unwrap_or(0),
                l.map(LineStats::stalled).unwrap_or(0),
            )
        };
        let (ia, sa) = stat(la);
        let (ib, sb) = stat(lb);
        let delta = sb as i64 - sa as i64;
        t.row(vec![
            if line == 0 {
                "(no provenance)".to_string()
            } else {
                line.to_string()
            },
            ia.to_string(),
            sa.to_string(),
            ib.to_string(),
            sb.to_string(),
            format!("{delta:+}"),
            src_line(src_a, line),
        ]);
    }
    let total = |x: &SourceTable| (x.total_issued(), x.total_stalled());
    let (tia, tsa) = total(a);
    let (tib, tsb) = total(b);
    t.row(vec![
        "all".to_string(),
        tia.to_string(),
        tsa.to_string(),
        tib.to_string(),
        tsb.to_string(),
        format!("{:+}", tsb as i64 - tsa as i64),
        String::new(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Benchmark", "Cycles"]);
        t.row(vec!["Matrix".into(), "1992".into()]);
        t.row(vec!["FFT".into(), "33".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Benchmark"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Right-aligned numbers line up.
        assert!(lines[3].ends_with("1992"));
        assert!(lines[4].ends_with("33"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(2.158), "2.16");
        assert_eq!(f2(0.0), "0.00");
    }

    #[test]
    fn stall_report_renders_threads_totals_and_classes() {
        use pc_isa::UnitClass;
        use pc_sim::StallCause;
        let mut stats = pc_sim::RunStats {
            cycles: 10,
            ..Default::default()
        };
        let t = &mut stats.stalls;
        t.record_busy(0);
        let lost = StallCause::LostArbitration;
        stall_at(t, 0, lost, Some(UnitClass::Integer), None, 1);
        stall_at(t, 1, StallCause::EmptyRow, None, None, 1);
        let s = stall_report(&stats);
        assert!(s.contains("t0"), "{s}");
        assert!(s.contains("t1"));
        assert!(s.contains("all"));
        assert!(s.contains("lost-arb"));
        assert!(s.contains("empty-row"));
        assert!(s.contains("Stalled slots by unit class"));
        assert!(s.contains("IU"));
    }

    #[test]
    fn stall_report_notes_unprofiled_runs() {
        let s = stall_report(&pc_sim::RunStats::default());
        assert!(s.contains("not recorded"));
    }

    /// Records `n` stalled cycles the way `pc_sim::StallProfiler` folds
    /// them: per thread and class, and per slot (or unattributed).
    fn stall_at(
        t: &mut pc_sim::StallTable,
        thread: u32,
        cause: pc_sim::StallCause,
        class: Option<pc_isa::UnitClass>,
        at: Option<(u32, u32, u16)>,
        n: u64,
    ) {
        t.record_stall(thread, cause, class, n);
        match at {
            Some(key) => t.by_slot.entry(key).or_default()[cause.index()] += n,
            None => t.unattributed[cause.index()] += n,
        }
    }

    /// A two-line, one-loop debug map with counters on both lines plus
    /// one unattributable stall.
    fn source_fixture() -> (pc_sim::RunStats, pc_isa::DebugMap) {
        use pc_isa::UnitClass;
        use pc_sim::StallCause;
        let mut debug = pc_isa::DebugMap::new();
        debug.loops.push(pc_isa::LoopInfo {
            name: "i".into(),
            line: 3,
        });
        debug.spans.push(pc_isa::SpanInfo {
            span: pc_isa::SrcSpan { line: 3, col: 2 },
            loop_id: Some(0),
        });
        debug.spans.push(pc_isa::SpanInfo {
            span: pc_isa::SrcSpan { line: 7, col: 1 },
            loop_id: None,
        });
        let mut sd = pc_isa::SegmentDebug::default();
        sd.record(0, 0, vec![0]); // line 3, in loop i@3
        sd.record(1, 0, vec![1, 0]); // primary = span 0 → line 3
        sd.record(2, 1, vec![1]); // line 7, outside any loop
        debug.segments.push(sd);

        let mut stats = pc_sim::RunStats {
            cycles: 100,
            ops_issued: 12,
            ..Default::default()
        };
        let t = &mut stats.stalls;
        t.issued_by_slot.insert((0, 0, 0), 8);
        t.issued_by_slot.insert((0, 2, 1), 4);
        let lost = StallCause::LostArbitration;
        stall_at(t, 0, lost, Some(UnitClass::Integer), Some((0, 1, 0)), 5);
        let mem = StallCause::MemoryBusy;
        stall_at(t, 0, mem, Some(UnitClass::Memory), Some((0, 2, 1)), 1);
        stall_at(t, 1, StallCause::EmptyRow, None, None, 1);
        (stats, debug)
    }

    #[test]
    fn source_table_joins_and_conserves() {
        use pc_sim::StallCause;
        let (stats, debug) = source_fixture();
        let t = source_table(&stats, &debug);
        assert_eq!(t.total_issued(), 12);
        assert_eq!(t.total_stalled(), 7);
        let l3 = t.line(3).unwrap();
        assert_eq!(l3.issued, 8);
        assert_eq!(l3.by_cause[StallCause::LostArbitration.index()], 5);
        assert_eq!(l3.loop_label.as_deref(), Some("i@3"));
        let l7 = t.line(7).unwrap();
        assert_eq!(l7.issued, 4);
        assert_eq!(l7.by_cause[StallCause::MemoryBusy.index()], 1);
        // The control bubble lands in the explicit no-provenance bucket.
        let bucket = t.line(0).unwrap();
        assert_eq!(bucket.by_cause[StallCause::EmptyRow.index()], 1);
        // Loop rollup: loop i@3 and the outside-any-loop row.
        assert_eq!(t.loops.len(), 2);
        assert_eq!(t.loops[0].label, "i@3");
        assert_eq!(t.loops[0].stalled(), 5);
        assert_eq!(t.loops[1].label, "-");
    }

    #[test]
    fn source_report_renders_lines_loops_and_fallbacks() {
        let (stats, debug) = source_fixture();
        let s = source_report(&stats, &debug, Some("a\nb\nloop line\n"));
        assert!(s.contains("Source-line stall attribution"), "{s}");
        assert!(s.contains("(no provenance)"), "{s}");
        assert!(s.contains("i@3"), "{s}");
        assert!(s.contains("loop line"), "source excerpt missing:\n{s}");
        assert!(s.contains("Loop rollup"), "{s}");
        assert!(s.contains("100.00"), "lost-arb share missing:\n{s}");
        // Unprofiled runs say so instead of printing an empty table.
        let none = source_report(&pc_sim::RunStats::default(), &debug, None);
        assert!(none.contains("not recorded"), "{none}");
    }

    #[test]
    fn source_diff_shows_per_line_deltas() {
        let (stats, debug) = source_fixture();
        let a = source_table(&stats, &debug);
        let mut b = a.clone();
        b.lines[0].by_cause[0] += 3; // line 3 gains 3 stalls in mode B
        let s = source_diff("SEQ", &a, "Coupled", &b, None);
        assert!(s.contains("Per-line mode diff: SEQ vs Coupled"), "{s}");
        assert!(s.contains("SEQ:stalled"), "{s}");
        assert!(s.contains("+3"), "{s}");
        assert!(s.contains("+0"), "{s}");
        // Totals row carries the aggregate delta.
        let last = s.lines().last().unwrap();
        assert!(last.contains("all"), "{s}");
    }
}
