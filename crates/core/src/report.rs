//! Human-readable rendering of drag reports — the textual output a
//! programmer reads to decide where to rewrite code.
//!
//! All report text is assembled through [`ReportSections`]: callers
//! register the sections they want (summary, top sites, sure bets,
//! retaining paths, coldness, salvage footer) and render in one pass.
//! Sections render in registration order, empty sections vanish, and
//! non-empty sections are separated by exactly one blank line — so the
//! bytes of the classic `summary → sites → sure bets` report are pinned
//! whatever else a caller stacks on top.

use heapdrag_vm::ids::ChainId;
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;

use crate::analyzer::DragReport;
use crate::live::SiteIdleSummary;
use crate::log::SalvageSummary;

/// Resolves chain ids to readable site names.
///
/// Implemented by [`ProgramNamer`] (in-memory phase-1 output) and by
/// [`ParsedLog`](crate::log::ParsedLog) (phase-2 input read from a file).
pub trait ChainNamer {
    /// A readable rendering of the nested site, innermost frame first.
    fn chain_name(&self, chain: ChainId) -> String;
}

/// Names chains against a live [`Program`] and its [`SiteTable`].
#[derive(Debug, Clone, Copy)]
pub struct ProgramNamer<'a> {
    /// The program that ran.
    pub program: &'a Program,
    /// The site table of the run.
    pub sites: &'a SiteTable,
}

impl ChainNamer for ProgramNamer<'_> {
    fn chain_name(&self, chain: ChainId) -> String {
        self.sites.format_chain(self.program, chain)
    }
}

pub(crate) fn fmt_mb2(v: u128) -> String {
    format!("{:.3}", v as f64 / (1024.0 * 1024.0))
}

/// Retaining paths shown per site in the retaining-paths section: the
/// sampled weight ranking makes the first one the optimizer's anchor, and
/// anything past the top few is sampling noise.
const RETAIN_TOP_PATHS: usize = 5;

/// One registered report section, rendered lazily by
/// [`ReportSections::render`].
enum Section<'a> {
    Summary,
    TopSites,
    SureBets,
    RetainingPaths,
    Coldness(&'a [SiteIdleSummary]),
    SalvageFooter(&'a SalvageSummary),
}

/// Composable report assembly: register sections, render once.
///
/// ```
/// # use heapdrag_core::analyzer::DragAnalyzer;
/// # use heapdrag_core::report::{ChainNamer, ReportSections};
/// # use heapdrag_vm::ids::{ChainId, SiteId};
/// # struct N;
/// # impl ChainNamer for N {
/// #     fn chain_name(&self, c: ChainId) -> String { format!("site-{}", c.0) }
/// # }
/// let report = DragAnalyzer::new().analyze(&[], |c| Some(SiteId(c.0)));
/// let text = ReportSections::standard(&report, &N).top(10).render();
/// assert!(text.starts_with("=== drag report ==="));
/// ```
pub struct ReportSections<'a> {
    report: &'a DragReport,
    namer: &'a dyn ChainNamer,
    top: usize,
    sections: Vec<Section<'a>>,
}

impl<'a> ReportSections<'a> {
    /// An empty assembly over `report`; register sections, then
    /// [`render`](Self::render).
    pub fn new(report: &'a DragReport, namer: &'a dyn ChainNamer) -> Self {
        ReportSections {
            report,
            namer,
            top: 10,
            sections: Vec::new(),
        }
    }

    /// The standard drag report: summary, top sites, sure bets, and the
    /// retaining-paths section (which renders only when samples were
    /// attached, so sampling-off output is byte-identical to the
    /// pre-sampling report).
    pub fn standard(report: &'a DragReport, namer: &'a dyn ChainNamer) -> Self {
        ReportSections::new(report, namer)
            .summary()
            .top_sites()
            .sure_bets()
            .retaining_paths()
    }

    /// Row budget for every ranked section (default 10).
    #[must_use]
    pub fn top(mut self, top: usize) -> Self {
        self.top = top;
        self
    }

    /// The header and whole-run integrals.
    #[must_use]
    pub fn summary(mut self) -> Self {
        self.sections.push(Section::Summary);
        self
    }

    /// The ranked nested-allocation-site table.
    #[must_use]
    pub fn top_sites(mut self) -> Self {
        self.sections.push(Section::TopSites);
        self
    }

    /// The never-used "sure bet" sites (renders only when any exist).
    #[must_use]
    pub fn sure_bets(mut self) -> Self {
        self.sections.push(Section::SureBets);
        self
    }

    /// Sampled retaining paths per site (renders only when the report
    /// carries samples — see [`DragReport::attach_retains`]).
    #[must_use]
    pub fn retaining_paths(mut self) -> Self {
        self.sections.push(Section::RetainingPaths);
        self
    }

    /// The live profiler's per-site idle-interval summary (renders only
    /// when `rows` is non-empty).
    #[must_use]
    pub fn coldness(mut self, rows: &'a [SiteIdleSummary]) -> Self {
        self.sections.push(Section::Coldness(rows));
        self
    }

    /// The salvage-ingestion footer; callers register it only for
    /// salvage-mode runs.
    #[must_use]
    pub fn salvage_footer(mut self, summary: &'a SalvageSummary) -> Self {
        self.sections.push(Section::SalvageFooter(summary));
        self
    }

    /// Renders the registered sections in order, one blank line between
    /// non-empty sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            let text = self.render_section(section);
            if text.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&text);
        }
        out
    }

    fn render_section(&self, section: &Section<'_>) -> String {
        match section {
            Section::Summary => self.render_summary(),
            Section::TopSites => self.render_top_sites(),
            Section::SureBets => self.render_sure_bets(),
            Section::RetainingPaths => self.render_retaining(),
            Section::Coldness(rows) => self.render_coldness(rows),
            Section::SalvageFooter(summary) => summary.render_footer(),
        }
    }

    fn render_summary(&self) -> String {
        format!(
            "=== drag report ===\n\
             reachable integral: {} MByte^2\nin-use integral:    {} MByte^2\ntotal drag:         {} MByte^2\n",
            fmt_mb2(self.report.totals.reachable),
            fmt_mb2(self.report.totals.in_use),
            fmt_mb2(self.report.total_drag()),
        )
    }

    fn render_top_sites(&self) -> String {
        let mut out = format!(
            "--- top {} nested allocation sites by drag ---\n",
            self.top.min(self.report.by_nested_site.len())
        );
        out.push_str("rank  drag(MB^2)  objects  never-used  pattern               suggested          site\n");
        for (i, e) in self.report.by_nested_site.iter().take(self.top).enumerate() {
            out.push_str(&format!(
                "{:>4}  {:>10}  {:>7}  {:>10}  {:<20}  {:<17}  {}\n",
                i + 1,
                fmt_mb2(e.stats.drag),
                e.stats.objects,
                e.stats.never_used,
                e.stats.pattern.to_string(),
                e.stats.suggested_transform().to_string(),
                self.namer.chain_name(e.site),
            ));
        }
        out
    }

    fn render_sure_bets(&self) -> String {
        if self.report.never_used_sites.is_empty() {
            return String::new();
        }
        let mut out = String::from("--- never-used allocation sites (\"sure bets\") ---\n");
        for e in self.report.never_used_sites.iter().take(self.top) {
            out.push_str(&format!(
                "{:>10} MB^2  {:>7} objects  {}\n",
                fmt_mb2(e.stats.drag),
                e.stats.objects,
                self.namer.chain_name(e.site),
            ));
        }
        out
    }

    fn render_retaining(&self) -> String {
        if self.report.retaining.is_empty() {
            return String::new();
        }
        let mut out = String::from("--- retaining paths: sampled holders at deep-GC marks ---\n");
        for e in self.report.retaining.iter().take(self.top) {
            out.push_str(&format!(
                "{}: {} sample(s), {} sampled bytes\n",
                self.namer.chain_name(e.site),
                e.samples,
                e.bytes,
            ));
            for p in e.paths.iter().take(RETAIN_TOP_PATHS) {
                out.push_str(&format!(
                    "  {:>10}  {:>5}x  {}{}\n",
                    p.bytes,
                    p.samples,
                    p.path,
                    if p.truncated { " (truncated)" } else { "" },
                ));
            }
            if e.paths.len() > RETAIN_TOP_PATHS {
                out.push_str(&format!(
                    "  ... and {} more path(s)\n",
                    e.paths.len() - RETAIN_TOP_PATHS
                ));
            }
        }
        out
    }

    fn render_coldness(&self, rows: &[SiteIdleSummary]) -> String {
        if rows.is_empty() {
            return String::new();
        }
        let mut out =
            String::from("--- coldness: per-site idle intervals (allocation-clock bytes) ---\n");
        out.push_str("intervals  median-idle     max-idle  site\n");
        for row in rows.iter().take(self.top) {
            out.push_str(&format!(
                "{:>9}  {:>11}  {:>11}  {}\n",
                row.intervals,
                row.median_idle,
                row.max_idle,
                self.namer.chain_name(row.site),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DragAnalyzer;
    use crate::record::ObjectRecord;
    use heapdrag_vm::ids::{ClassId, ObjectId, SiteId};

    struct FixedNamer;
    impl ChainNamer for FixedNamer {
        fn chain_name(&self, chain: ChainId) -> String {
            format!("site-{}", chain.0)
        }
    }

    #[test]
    fn render_contains_sites_and_totals() {
        let records = vec![
            ObjectRecord {
                object: ObjectId(1),
                class: ClassId(0),
                size: 100,
                created: 0,
                freed: 1000,
                last_use: None,
                alloc_site: ChainId(3),
                last_use_site: None,
                at_exit: false,
            },
            ObjectRecord {
                object: ObjectId(2),
                class: ClassId(0),
                size: 10,
                created: 0,
                freed: 100,
                last_use: Some(90),
                alloc_site: ChainId(4),
                last_use_site: Some(ChainId(5)),
                at_exit: false,
            },
        ];
        let report = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));
        let text = ReportSections::standard(&report, &FixedNamer).render();
        assert!(text.contains("site-3"));
        assert!(text.contains("site-4"));
        assert!(text.contains("sure bets"));
        assert!(text.contains("total drag"));
        // Highest-drag site listed first.
        let pos3 = text.find("site-3").unwrap();
        let pos4 = text.find("site-4").unwrap();
        assert!(pos3 < pos4);
    }

    #[test]
    fn render_empty_report() {
        let report = DragAnalyzer::new().analyze(&[], |c| Some(SiteId(c.0)));
        let text = ReportSections::standard(&report, &FixedNamer)
            .top(5)
            .render();
        assert!(text.contains("drag report"));
        assert!(!text.contains("sure bets"));
    }

    /// The retaining-paths section appears only once samples are
    /// attached, ranked heaviest path first, with the overflow ellipsis
    /// past [`RETAIN_TOP_PATHS`].
    #[test]
    fn retaining_section_renders_after_attach() {
        use crate::record::RetainRecord;
        let records = vec![ObjectRecord {
            object: ObjectId(1),
            class: ClassId(0),
            size: 64,
            created: 0,
            freed: 512,
            last_use: Some(100),
            alloc_site: ChainId(2),
            last_use_site: Some(ChainId(2)),
            at_exit: false,
        }];
        let mut report = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));
        let without = ReportSections::standard(&report, &FixedNamer).render();
        assert!(!without.contains("retaining paths"));

        let mut retains = vec![
            RetainRecord {
                alloc_site: ChainId(2),
                size: 96,
                time: 300,
                depth: 2,
                truncated: false,
                path: "static Holder.big -> Thing.next".into(),
            },
            RetainRecord {
                alloc_site: ChainId(2),
                size: 16,
                time: 200,
                depth: 1,
                truncated: true,
                path: "static Holder.small".into(),
            },
        ];
        for i in 0..RETAIN_TOP_PATHS {
            retains.push(RetainRecord {
                alloc_site: ChainId(2),
                size: 1,
                time: 400,
                depth: 1,
                truncated: false,
                path: format!("static Filler.f{i}"),
            });
        }
        report.attach_retains(&retains);
        let text = ReportSections::standard(&report, &FixedNamer).render();
        assert!(text.contains("--- retaining paths: sampled holders at deep-GC marks ---"));
        // Heaviest path first, truncation flagged, overflow elided.
        let big = text.find("static Holder.big -> Thing.next").unwrap();
        let small = text.find("static Holder.small (truncated)").unwrap();
        assert!(big < small);
        assert!(text.contains("... and 2 more path(s)"));
    }
}

/// §3.4's *anchor allocation site*: walking a nested site's call chain
/// outwards from the (usually library-level) innermost frame, the first
/// frame in *application code* — the place a programmer should look at.
///
/// `library_prefixes` name the class-name (or free-function name)
/// prefixes considered library code, e.g. `["jdk."]`. Returns the
/// innermost frame when the whole chain is library code.
pub fn anchor_site(
    program: &Program,
    sites: &SiteTable,
    chain: heapdrag_vm::ids::ChainId,
    library_prefixes: &[&str],
) -> Option<heapdrag_vm::ids::SiteId> {
    let frames = sites.chain(chain);
    let is_library = |site: heapdrag_vm::ids::SiteId| {
        let method = sites.site(site).method;
        let name = program.method_name(method);
        library_prefixes.iter().any(|p| name.starts_with(p))
    };
    frames
        .iter()
        .copied()
        .find(|s| !is_library(*s))
        .or_else(|| frames.first().copied())
}

#[cfg(test)]
mod anchor_tests {
    use super::*;
    use heapdrag_vm::ids::MethodId;

    /// Builds a program with a library helper allocating on behalf of an
    /// application caller, then checks the anchor walk.
    #[test]
    fn anchor_walks_past_library_frames() {
        use heapdrag_vm::builder::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let lib_cls = b.begin_class("jdk.Buf").finish();
        let lib_make = b.declare_method("make", None, true, 0, 1);
        {
            let mut m = b.begin_body(lib_make);
            m.new_obj(lib_cls).ret_val();
            m.finish();
        }
        // Rename to live under the library namespace.
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.call(lib_make).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let mut p = b.finish().unwrap();
        p.methods[lib_make.index()].name = "jdk.make".into();

        let run = crate::profiler::profile(&p, &[], crate::VmConfig::profiling()).unwrap();
        let record = run.records.first().expect("the Buf was profiled");
        let anchor = anchor_site(&p, &run.sites, record.alloc_site, &["jdk."]).unwrap();
        assert_eq!(
            run.sites.site(anchor).method,
            main,
            "anchor is the application frame, not jdk.make"
        );
        // With no library prefixes, the innermost frame is the anchor.
        let inner = anchor_site(&p, &run.sites, record.alloc_site, &[]).unwrap();
        assert_eq!(run.sites.site(inner).method, MethodId(0));
    }

    #[test]
    fn all_library_chain_falls_back_to_innermost() {
        use heapdrag_vm::builder::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").finish();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let run = crate::profiler::profile(&p, &[], crate::VmConfig::profiling()).unwrap();
        let record = run.records.first().unwrap();
        // Everything matches the prefix: fall back to the innermost frame.
        let anchor = anchor_site(&p, &run.sites, record.alloc_site, &["main"]).unwrap();
        assert_eq!(run.sites.site(anchor).method, main);
    }
}
