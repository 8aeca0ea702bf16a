//! Table II shaping: per-thread slice rows and the paper's count format.

use wasteprof_slicer::SliceResult;
use wasteprof_trace::ThreadKind;

/// One Table II row: a thread's slice percentage and instruction count.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRow {
    /// Paper-style label (`All`, `Main`, `Compositor`, `Rasterizer 1`, ...).
    pub label: String,
    /// Instructions of this thread in the slice.
    pub slice: u64,
    /// Total instructions of this thread.
    pub total: u64,
}

impl ThreadRow {
    /// Slice percentage (0–100).
    pub fn percentage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.slice as f64 / self.total as f64 * 100.0
        }
    }
}

/// Builds the Table II rows from a trace's thread table (resident or a
/// `WPTRACE2` footer's): `All` first, then the important threads in the
/// paper's order (Main, Compositor, Rasterizer 1..n).
pub fn thread_rows(threads: &wasteprof_trace::ThreadTable, result: &SliceResult) -> Vec<ThreadRow> {
    let mut rows = vec![ThreadRow {
        label: "All".to_owned(),
        slice: result.slice_count(),
        total: result.considered(),
    }];
    let mut ordered: Vec<(u8, String, wasteprof_trace::ThreadId)> = Vec::new();
    for info in threads.iter() {
        let rank = match info.kind() {
            ThreadKind::Main => 0,
            ThreadKind::Compositor => 1,
            ThreadKind::Raster(i) => 2 + i,
            _ => continue, // the paper's table lists only these threads
        };
        ordered.push((rank, info.name().to_owned(), info.id()));
    }
    ordered.sort();
    for (_, label, tid) in ordered {
        let (slice, total) = result.thread_stats(tid);
        rows.push(ThreadRow {
            label,
            slice,
            total,
        });
    }
    rows
}

/// Formats an instruction count the way the paper does (`6,217 M` scaled
/// to our traces: plain thousands separators).
pub fn format_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};

    #[test]
    fn count_formatting() {
        assert_eq!(format_count(6_217_000), "6,217,000");
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(1_000), "1,000");
    }

    #[test]
    fn thread_rows_order_matches_paper() {
        // A small synthetic run (Bing is the smallest... use a tiny site
        // through the browser directly to keep the test fast).
        use wasteprof_browser::{BrowserConfig, Site, Tab};
        let mut tab = Tab::new(BrowserConfig::desktop());
        tab.load(Site::new("https://t.test", "<body><p>x</p></body>"));
        let session = tab.finish();
        let fwd = ForwardPass::build(&session.trace);
        let r = slice(
            &session.trace,
            &fwd,
            &pixel_criteria(&session.trace),
            &SliceOptions::default(),
        );
        let rows = thread_rows(session.trace.threads(), &r);
        assert_eq!(rows[0].label, "All");
        assert_eq!(rows[1].label, "Main");
        assert_eq!(rows[2].label, "Compositor");
        assert!(rows[3].label.starts_with("Rasterizer 1"));
        assert_eq!(rows[0].total, session.trace.len() as u64);
    }
}
