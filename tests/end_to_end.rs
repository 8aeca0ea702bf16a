//! Cross-crate integration tests: the full pipeline from synthetic site
//! through the browser, the trace substrate, and the profiler.

use wasteprof::browser::{BrowserConfig, ResourceKind, Session, Site, Tab};
use wasteprof::slicer::{pixel_criteria, slice, syscall_criteria, ForwardPass, SliceOptions};
use wasteprof::trace::{write_trace2, TracePos, TraceReader};

fn small_site() -> Site {
    let html = r#"
<html><head><title>e2e</title><link rel="stylesheet" href="s.css"></head><body>
<div id="top" class="bar">Header</div>
<div class="content"><p>Body text that will wrap across a couple of lines on narrow viewports.</p>
<button id="go">Go</button><div id="log" style="display: none"></div></div>
<script src="a.js"></script>
</body></html>"#;
    let css = "
.bar { background: #333; color: white; height: 40px }
.content { padding: 8px; background: white }
p { color: black } button { width: 90px; height: 28px; background: #08f }
.unused { border: 3px solid red; padding: 20px }
";
    let js = "
var n = 0;
function onGo() { n += 1; var l = document.getElementById('log');
  l.style.display = 'block'; l.textContent = 'clicked ' + n; }
function dead(x) { return x * 42; }
document.getElementById('go').addEventListener('click', function () { onGo(); });
";
    Site::new("https://e2e.test", html)
        .with_resource("s.css", ResourceKind::Css, css)
        .with_resource("a.js", ResourceKind::Js, js)
}

fn run_session() -> Session {
    let mut tab = Tab::new(BrowserConfig::desktop());
    tab.load(small_site());
    tab.click("go");
    tab.scroll(100.0);
    tab.finish()
}

#[test]
fn deterministic_across_runs() {
    let a = run_session();
    let b = run_session();
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.trace.markers().len(), b.trace.markers().len());
    for (x, y) in a.trace.iter().zip(b.trace.iter()) {
        assert_eq!(x, y);
    }
    // Slicing is deterministic too.
    let fa = ForwardPass::build(&a.trace);
    let fb = ForwardPass::build(&b.trace);
    let ra = slice(
        &a.trace,
        &fa,
        &pixel_criteria(&a.trace),
        &SliceOptions::default(),
    );
    let rb = slice(
        &b.trace,
        &fb,
        &pixel_criteria(&b.trace),
        &SliceOptions::default(),
    );
    assert_eq!(ra.slice_count(), rb.slice_count());
}

#[test]
fn trace_serialization_roundtrips_a_real_session() {
    let session = run_session();
    let mut buf = Vec::new();
    write_trace2(&mut buf, &session.trace).expect("write");
    let back = TraceReader::open(std::io::Cursor::new(buf))
        .and_then(TraceReader::read_to_trace)
        .expect("read");
    assert_eq!(back.len(), session.trace.len());
    assert_eq!(back.markers(), session.trace.markers());
    // Slicing the deserialized trace gives identical results.
    let f1 = ForwardPass::build(&session.trace);
    let f2 = ForwardPass::build(&back);
    let r1 = slice(
        &session.trace,
        &f1,
        &pixel_criteria(&session.trace),
        &SliceOptions::default(),
    );
    let r2 = slice(&back, &f2, &pixel_criteria(&back), &SliceOptions::default());
    assert_eq!(r1.slice_count(), r2.slice_count());
}

#[test]
fn pixel_and_syscall_slices_are_nearly_identical() {
    let session = run_session();
    let fwd = ForwardPass::build(&session.trace);
    let pix = slice(
        &session.trace,
        &fwd,
        &pixel_criteria(&session.trace),
        &SliceOptions::default(),
    );
    let sys = slice(
        &session.trace,
        &fwd,
        &syscall_criteria(&session.trace),
        &SliceOptions::default(),
    );
    let p = pix.fraction();
    let s = sys.fraction();
    assert!(
        (p - s).abs() < 0.08,
        "paper §V: the two criteria should produce almost the same slice (pix {p:.3}, sys {s:.3})"
    );
}

#[test]
fn bounded_slice_is_subset_of_full_slice_positions() {
    let session = run_session();
    let fwd = ForwardPass::build(&session.trace);
    let criteria = pixel_criteria(&session.trace);
    let full = slice(&session.trace, &fwd, &criteria, &SliceOptions::default());
    let end = session.load_end;
    let bounded = slice(
        &session.trace,
        &fwd,
        &criteria,
        &SliceOptions {
            end: Some(end),
            ..Default::default()
        },
    );
    // Bounded slicing considers fewer instructions...
    assert!(bounded.considered() <= full.considered());
    // ...and the load-time slice fraction only grows with the full session
    // (browsing makes more load-time work useful, §V-A).
    let full_on_load = full.fraction_in(&session.trace, TracePos(0), end, None);
    assert!(full_on_load + 1e-9 >= bounded.fraction() - 0.02);
}

#[test]
fn the_dead_js_function_never_joins_the_slice() {
    let session = run_session();
    let fwd = ForwardPass::build(&session.trace);
    let result = slice(
        &session.trace,
        &fwd,
        &pixel_criteria(&session.trace),
        &SliceOptions::default(),
    );
    let dead = session
        .trace
        .functions()
        .iter()
        .find(|(_, f)| f.name() == "v8::JsFunction::dead")
        .map(|(id, _)| id)
        .expect("dead function registered (it was compiled)");
    let (in_slice, total) = result.func_stats(dead);
    assert_eq!(total, 0, "dead() must never execute");
    assert_eq!(in_slice, 0);
}

#[test]
fn interaction_rerenders_are_visible_in_the_slice() {
    // The click handler reveals #log and sets its text: that work must be
    // in the pixel slice because the re-render displayed it.
    let mut tab = Tab::new(BrowserConfig::desktop());
    tab.load(small_site());
    let before_click = tab.trace_len();
    tab.click("go");
    let after_click = tab.trace_len();
    let session = tab.finish();
    let fwd = ForwardPass::build(&session.trace);
    let result = slice(
        &session.trace,
        &fwd,
        &pixel_criteria(&session.trace),
        &SliceOptions::default(),
    );
    let frac = result.fraction_in(
        &session.trace,
        TracePos(before_click),
        TracePos(after_click - 1),
        None,
    );
    assert!(frac > 0.15, "click window suspiciously dead: {frac:.3}");
}

#[test]
fn every_marker_points_at_pixel_memory() {
    use wasteprof::trace::Region;
    let session = run_session();
    for m in session.trace.markers() {
        let region = m.tile.start().region();
        assert!(
            matches!(region, Some(Region::PixelTile | Region::Framebuffer)),
            "marker tile in {region:?}"
        );
    }
    assert!(session.trace.validate().is_ok());
}

#[test]
fn mobile_and_desktop_differ_meaningfully() {
    let mut d = Tab::new(BrowserConfig::desktop());
    d.load(small_site());
    let ds = d.finish();
    let mut m = Tab::new(BrowserConfig::mobile());
    m.load(small_site());
    let ms = m.finish();
    // Narrower viewport -> fewer displayed tiles.
    assert!(ms.trace.markers().len() <= ds.trace.markers().len());
    // Same page bytes, same coverage accounting.
    assert_eq!(ms.js_coverage.total_bytes, ds.js_coverage.total_bytes);
}
