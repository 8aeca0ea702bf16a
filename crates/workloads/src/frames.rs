//! Multi-frame browse sessions: one recorded Bing session cut into an
//! increasing sequence of frames, the input the incremental slicer
//! ([`wasteprof_slicer::SummaryCache`]) is driven with.
//!
//! A "frame" here is a *session snapshot*: the trace as it stood after
//! the page load (frame 0) and after each subsequent scripted
//! interaction block. Frame `k + 1`'s trace is frame `k`'s trace with
//! rows appended — exactly the prefix structure
//! [`wasteprof_trace::Trace::prefix`] materializes — so a frame sequence
//! re-slices the way a live profiler attached to a browser would: after
//! every user action. The segment hashes of the memo key extend across
//! the append ([`wasteprof_slicer::SegmentHashes::extend_appended`]);
//! the slice itself runs from scratch.
//!
//! Each interaction block varies with the frame index (which control is
//! poked, how many vsyncs follow, when background work runs), so
//! consecutive frames differ by realistic, *small* amounts rather than a
//! fixed repeated suffix.

use wasteprof_browser::{Session, Tab};
use wasteprof_trace::Trace;

use crate::sites::Benchmark;

/// A recorded browse session plus the trace positions where each frame
/// (session snapshot) ends.
#[derive(Debug)]
pub struct FrameSession {
    /// The finished session of the final frame.
    pub session: Session,
    /// Trace length at the end of each frame, strictly increasing; the
    /// last entry equals the full trace length.
    pub frame_ends: Vec<usize>,
}

impl FrameSession {
    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.frame_ends.len()
    }

    /// Materializes frame `k`'s trace (a prefix of the session trace).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn frame_trace(&self, k: usize) -> Trace {
        self.session.trace.prefix(self.frame_ends[k])
    }
}

/// Records a Bing load-and-browse session as `n_frames` session
/// snapshots: frame 0 is the loaded page, every further frame appends
/// one scripted interaction block (menu pokes, news-pane rolls, scrolls,
/// incremental search typing) whose shape varies with the frame index.
///
/// # Panics
///
/// Panics if `n_frames` is zero.
pub fn bing_frames(n_frames: usize) -> FrameSession {
    assert!(n_frames > 0, "a session needs at least one frame");
    let bench = Benchmark::Bing;
    let mut tab = Tab::new(bench.browser_config());
    tab.load(bench.site());
    // The shared post-load timeline of `Benchmark::run`: vsync stream,
    // hero carousel, background utility work, pending timers.
    tab.pump_vsync(66);
    tab.set_animation("photo", true);
    tab.pump_vsync(200);
    tab.pump_utility(240);
    tab.run_timers();

    let mut frame_ends = vec![tab.trace_len() as usize];
    for k in 1..n_frames {
        interaction_block(&mut tab, k);
        frame_ends.push(tab.trace_len() as usize);
    }
    let session = tab.finish();
    // The recorder may close the session with a few trailing rows; fold
    // them into the final frame so it covers the whole trace.
    *frame_ends.last_mut().expect("at least one frame") = session.trace.len();
    FrameSession {
        session,
        frame_ends,
    }
}

/// One per-frame interaction block. The mix cycles through the Bing
/// browse repertoire with frame-indexed variation so every appended
/// suffix is distinct.
fn interaction_block(tab: &mut Tab, k: usize) {
    tab.idle(40_000 + (k as u64 % 5) * 7_000);
    match k % 4 {
        0 => {
            tab.click("menu-btn");
            tab.pump_vsync(24 + (k % 3) as u32 * 8);
            tab.click("menu-btn");
        }
        1 => {
            tab.click("news-roll");
            tab.pump_vsync(32);
        }
        2 => {
            tab.scroll(if k % 8 < 4 { 240.0 } else { -180.0 });
            tab.pump_vsync(16);
        }
        _ => {
            if k == 3 {
                // The first typed character pulls the suggestion module.
                tab.fetch_extra("suggest.js");
            }
            let terms = ["weather today", "news near me", "flight status"];
            tab.type_text("search", terms[(k / 4) % terms.len()]);
            tab.pump_vsync(16);
        }
    }
    if k.is_multiple_of(5) {
        tab.pump_utility(40);
    }
    tab.run_timers();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_strictly_increasing_prefixes() {
        let fs = bing_frames(4);
        assert_eq!(fs.frames(), 4);
        for w in fs.frame_ends.windows(2) {
            assert!(w[0] < w[1], "frame ends must strictly increase");
        }
        assert_eq!(
            *fs.frame_ends.last().unwrap(),
            fs.session.trace.len(),
            "final frame covers the whole session"
        );
        // A frame trace is the row-exact prefix of the next one.
        let a = fs.frame_trace(1);
        let b = fs.frame_trace(2);
        assert!(a.len() < b.len());
        assert_eq!(b.prefix(a.len()).len(), a.len());
    }
}
