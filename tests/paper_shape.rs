//! Shape checks against the paper's headline findings, on the smallest
//! benchmark (Amazon mobile) so the test stays fast.
//!
//! These assert the *qualitative* results the reproduction is built to
//! preserve (who wins, roughly by what factor) with generous tolerances —
//! exact values live in EXPERIMENTS.md.

use wasteprof::analysis::{run_benchmark, thread_rows, Category, CategoryBreakdown};
use wasteprof::workloads::Benchmark;

#[test]
fn amazon_mobile_matches_paper_shape() {
    let run = run_benchmark(Benchmark::AmazonMobile, false);
    let rows = thread_rows(run.session.trace.threads(), &run.pixel);
    let pct = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("{label} row missing"))
            .percentage()
    };

    // Headline: a large share of instructions does NOT feed the pixels.
    let all = pct("All");
    assert!((20.0..60.0).contains(&all), "All = {all:.1}%");

    // Main thread is mostly useful on the lightweight mobile page
    // (paper: 59%).
    let main = pct("Main");
    assert!(main > 40.0, "Main = {main:.1}%");

    // Mobile rasterizers are the paper's most striking number: 13-14%.
    let r1 = pct("Rasterizer 1");
    let r2 = pct("Rasterizer 2");
    assert!(
        r1 < 25.0 && r2 < 25.0,
        "mobile rasterizers too useful: {r1:.1}/{r2:.1}"
    );
    assert!(r1 > 2.0, "mobile rasterizer implausibly dead: {r1:.1}");

    // Compositor sits in the low-30s band and below Main.
    let comp = pct("Compositor");
    assert!((20.0..50.0).contains(&comp), "Compositor = {comp:.1}%");
    assert!(comp < main);

    // Exactly two rasterizers on mobile (the paper saw 3 only for Amazon
    // desktop).
    assert!(
        rows.iter()
            .filter(|r| r.label.starts_with("Rasterizer"))
            .count()
            == 2
    );
}

#[test]
fn javascript_dominates_the_unnecessary_categories() {
    let run = run_benchmark(Benchmark::AmazonMobile, false);
    let b = CategoryBreakdown::compute(&run.session.trace, &run.pixel);
    let js = b.share(Category::JavaScript);
    for c in Category::ALL {
        if c != Category::JavaScript {
            assert!(
                js >= b.share(c),
                "{} ({:.1}%) exceeds JavaScript ({:.1}%)",
                c.label(),
                b.share(c) * 100.0,
                js * 100.0
            );
        }
    }
    // Namespace coverage in the paper's 50-85% ballpark.
    let cov = b.coverage();
    assert!((0.4..0.9).contains(&cov), "coverage {cov:.2}");
}

#[test]
fn table1_shape_for_the_mobile_page() {
    let session = Benchmark::AmazonMobile.run_with_browse();
    let js = session.js_coverage_at_load;
    let css = session.css_coverage_at_load;
    let unused =
        (js.unused_bytes() + css.unused_bytes()) as f64 / (js.total_bytes + css.total_bytes) as f64;
    // Table I band: 40-60% of JS+CSS bytes unused after load.
    assert!(
        (0.35..0.70).contains(&unused),
        "unused fraction {unused:.2}"
    );
    // Browsing only ever uses more code.
    assert!(session.js_coverage.used_bytes >= js.used_bytes);
}
