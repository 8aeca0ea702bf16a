//! Property test for the incremental slicer: mutate one block (prefix,
//! middle, or suffix window) of a multi-segment synthetic session and
//! assert that slicing *through a shared* [`SummaryCache`] — holding the
//! unmutated session's result — is byte-identical to the from-scratch
//! slicer, and that the witnessed result certifies clean.
//!
//! The mutation may change operand cells *and* which function a block
//! calls, so it covers both the cheap case (content changed, control
//! dependences intact) and the hard one (the dynamic CFG itself shifts).
//! Either way the memo key changes, so the stored result is never
//! served for the variant.

use proptest::prelude::*;
use wasteprof_checker::certify;
use wasteprof_slicer::{
    pixel_criteria, slice, Criteria, ForwardPass, SliceOptions, SlicingCriterion, SummaryCache,
};
use wasteprof_trace::{
    site, Addr, Recorder, Reg, RegSet, Region, ThreadKind, Trace, TracePos, SEGMENT_LEN,
};

/// One segment-aligned block: operand cell choices plus which helper
/// function the block's loop calls.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    a: u8,
    b: u8,
    func: u8,
}

fn arb_block() -> impl Strategy<Value = Block> {
    (0..8u8, 0..8u8, 0..2u8).prop_map(|(a, b, func)| Block { a, b, func })
}

/// Records `blocks`, each padded to exactly [`SEGMENT_LEN`] rows, plus a
/// pixel-sink tail. All blocks share program counters, so two sessions
/// differing in one block differ in exactly that segment's rows.
fn record_blocks(blocks: &[Block]) -> (Trace, Addr) {
    const NCELLS: usize = 8;
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
    let cells: Vec<Addr> = (0..NCELLS).map(|_| rec.alloc_cell(Region::Heap)).collect();
    let carry = rec.alloc_cell(Region::Heap);
    let funcs = [rec.intern_func("work"), rec.intern_func("aux")];
    let pc_seed = site!();
    let pc_mix = site!();
    let pc_fold = site!();
    let pc_call = site!();
    let pc_loop = site!();
    let pc_pad = site!();
    let pc_sink = site!();

    rec.compute(pc_seed, &[], &[carry.into()]);
    for (bi, b) in blocks.iter().enumerate() {
        let target = (bi + 1) * SEGMENT_LEN;
        let a = cells[b.a as usize % NCELLS];
        let c = cells[b.b as usize % NCELLS];
        let func = funcs[b.func as usize % funcs.len()];
        rec.compute(pc_seed, &[], &[a.into()]);
        while (rec.pos().0 as usize) < target - 64 {
            rec.compute(pc_mix, &[a.into(), carry.into()], &[c.into()]);
            rec.in_func(pc_call, func, |rec| {
                rec.branch_mem(pc_loop, c, true);
                rec.compute(pc_fold, &[c.into()], &[carry.into()]);
                rec.branch_mem(pc_loop, c, false);
            });
        }
        while (rec.pos().0 as usize) < target {
            rec.alu(pc_pad, Reg::Rax, RegSet::EMPTY);
        }
        assert_eq!(rec.pos().0 as usize, target, "block {bi} misaligned");
    }
    let tile = rec.alloc(Region::PixelTile, 64);
    rec.compute(pc_sink, &[carry.into()], &[tile]);
    rec.marker(site!(), tile);
    (rec.finish(), carry)
}

fn criteria_for(trace: &Trace, carry: Addr) -> Criteria {
    let mut items = pixel_criteria(trace).items().to_vec();
    items.push(SlicingCriterion::mem_at(
        TracePos(trace.len() as u64 - 1),
        vec![carry.into()],
    ));
    Criteria::new(items)
}

/// Incremental result must equal the from-scratch reference and certify
/// clean against its own witness.
fn check_session(
    label: &str,
    cache: &mut SummaryCache,
    trace: &Trace,
    carry: Addr,
) -> Result<(), TestCaseError> {
    let criteria = criteria_for(trace, carry);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let fwd = ForwardPass::build(trace);
    let want = slice(trace, &fwd, &criteria, &opts);
    let got = cache.slice(trace, &criteria, &opts);
    prop_assert_eq!(&got, &want, "{}: incremental diverged", label);
    let diags = certify(trace, &fwd, &criteria, &got);
    prop_assert!(
        diags.is_empty(),
        "{}: incremental slice failed certification: {}",
        label,
        diags[0]
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A shared memo re-slicing a session whose prefix, middle, or suffix
    /// block was rewritten stays byte-identical and certifiable.
    #[test]
    fn mutated_window_slices_exactly_through_warm_cache(
        blocks in prop::collection::vec(arb_block(), 2..4),
        dirty_sel in 0..3usize,
        replacement in arb_block(),
    ) {
        let dirty = dirty_sel % blocks.len();
        let mut mutated = blocks.clone();
        mutated[dirty] = replacement;
        if mutated[dirty] == blocks[dirty] {
            // Identity mutation: the append/reuse tests cover this case.
            return Ok(());
        }

        let (base, carry) = record_blocks(&blocks);
        let (variant, _) = record_blocks(&mutated);
        prop_assert_eq!(base.len(), variant.len(), "blocks must stay aligned");

        let mut cache = SummaryCache::new();
        check_session("base", &mut cache, &base, carry)?;
        check_session("variant", &mut cache, &variant, carry)?;
        // And back: the memo now holds the variant's result, which must
        // never be served for the base session.
        check_session("base again", &mut cache, &base, carry)?;
    }
}
