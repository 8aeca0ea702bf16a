//! A function id outside the function table: the recorder and
//! `Trace::from_parts` both accept one, so the slicer and the namespace
//! analyses must count it rather than index a table sized by the
//! function table with it.

use wasteprof_analysis::{CategoryBreakdown, WasteBreakdown};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
use wasteprof_trace::{site, FuncId, Recorder, Region, ThreadKind};

#[test]
fn out_of_table_function_is_counted_as_uncategorized() {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "root");
    let tile = rec.alloc(Region::PixelTile, 64);
    let junk = rec.alloc_cell(Region::Heap);
    let stray = FuncId(9999);
    rec.enter(site!(), stray);
    let first = rec.pos();
    rec.compute(site!(), &[], &[tile]);
    rec.compute(site!(), &[], &[junk.into()]); // never read: outside the slice
    rec.marker(site!(), tile);
    let trace = rec.finish();
    assert!(stray.index() >= trace.functions().len());

    let fwd = ForwardPass::build(&trace);
    let result = slice(
        &trace,
        &fwd,
        &pixel_criteria(&trace),
        &SliceOptions::default(),
    );
    let (in_slice, total) = result.func_stats(stray);
    assert_eq!(
        total,
        trace.len() as u64 - first.0,
        "every callee instruction"
    );
    assert!(0 < in_slice && in_slice < total, "{in_slice} of {total}");

    let outside = result.considered() - result.slice_count();
    let stray_outside = total - in_slice;
    let categories = CategoryBreakdown::compute(&trace, &result);
    assert_eq!(categories.total_unnecessary(), outside);
    assert!(categories.uncategorized() >= stray_outside);
    let waste = WasteBreakdown::compute(&trace, &result);
    let all = &waste.rows[0];
    assert_eq!(all.total(), outside, "the All row partitions the waste");
    assert!(all.uncategorized >= stray_outside);
}
