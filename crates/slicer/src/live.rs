//! Live-variable sets for the backward pass.
//!
//! The paper's slicer keeps *one* live memory set shared by all threads
//! (threads share an address space) and one live *register* set per thread
//! (each thread has its own architectural context) — §III-B.
//!
//! Live memory is a hybrid of two representations picked per address
//! *region*. The backward walk's traffic is dominated by small operands
//! (heap cells, stack slots, register spills) that are inserted and killed
//! millions of times; those live in a 64-byte-granule bitmap
//! ([`GranuleMap`]) where every operation is a hash probe plus a mask. The
//! rare large operands — pixel tiles, IPC channel payloads, network input,
//! the framebuffer — span hundreds of kilobytes and would touch thousands
//! of granules apiece, so their regions route to a coalesced interval set
//! ([`IntervalSet`]) instead, where a 256 KiB tile is one map entry.
//! Regions are disjoint address spaces, so the two halves never overlap and
//! every query is answered by exactly one of them.

use std::collections::BTreeMap;

use wasteprof_trace::{AddrRange, RegSet, Region, ThreadId, REGION_SHIFT};

/// True if `start`'s region holds large buffers (tiles, channels, network
/// input, framebuffer) and routes to the interval half of the hybrid.
#[inline]
fn routes_to_intervals(start: u64) -> bool {
    const PIXEL_TILE: u64 = Region::PixelTile.index();
    const CHANNEL: u64 = Region::Channel.index();
    const INPUT: u64 = Region::Input.index();
    const FRAMEBUFFER: u64 = Region::Framebuffer.index();
    matches!(
        start >> REGION_SHIFT,
        PIXEL_TILE | CHANNEL | INPUT | FRAMEBUFFER
    )
}

/// A set of byte addresses stored as disjoint, coalesced intervals.
///
/// This is the representation the hybrid [`AddrSet`] uses for large-buffer
/// regions, and the pre-hybrid implementation the differential tests
/// compare against.
///
/// # Examples
///
/// ```
/// use wasteprof_slicer::IntervalSet;
/// use wasteprof_trace::{Addr, AddrRange};
///
/// let mut s = IntervalSet::new();
/// s.insert(AddrRange::new(Addr::new(100), 8));
/// assert!(s.intersects(AddrRange::new(Addr::new(104), 2)));
/// s.remove(AddrRange::new(Addr::new(100), 4));
/// assert!(!s.intersects(AddrRange::new(Addr::new(100), 4)));
/// assert!(s.intersects(AddrRange::new(Addr::new(104), 4)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// start -> end (exclusive); intervals are disjoint and non-adjacent.
    map: BTreeMap<u64, u64>,
    /// Reused scratch for keys absorbed/split during insert/remove —
    /// these run once per traced memory operand in the backward pass, so
    /// a fresh Vec per call would be millions of allocations per slice.
    scratch: Vec<(u64, u64)>,
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        // Scratch capacity is an implementation detail, not set content.
        self.map == other.map
    }
}

impl Eq for IntervalSet {}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no addresses are in the set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of disjoint intervals (diagnostics).
    pub fn interval_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of live bytes.
    pub fn byte_count(&self) -> u64 {
        self.map.iter().map(|(s, e)| e - s).sum()
    }

    /// Adds every byte of `range` to the set, merging intervals.
    pub fn insert(&mut self, range: AddrRange) {
        let mut start = range.start().raw();
        let mut end = range.end().raw();
        // Absorb every interval that overlaps or is adjacent to [start, end).
        // Candidates all have key <= end; walk backwards from there.
        let mut absorbed = std::mem::take(&mut self.scratch);
        absorbed.clear();
        for (&s, &e) in self.map.range(..=end).rev() {
            if e < start {
                break;
            }
            absorbed.push((s, e));
            if s < start {
                start = s;
            }
            if e > end {
                end = e;
            }
        }
        for &(s, _) in &absorbed {
            self.map.remove(&s);
        }
        self.map.insert(start, end);
        self.scratch = absorbed;
    }

    /// Removes every byte of `range` from the set, splitting intervals.
    pub fn remove(&mut self, range: AddrRange) {
        let start = range.start().raw();
        let end = range.end().raw();
        let mut touched = std::mem::take(&mut self.scratch);
        touched.clear();
        for (&s, &e) in self.map.range(..end).rev() {
            if e <= start {
                break;
            }
            touched.push((s, e));
        }
        for &(s, e) in &touched {
            self.map.remove(&s);
            if s < start {
                self.map.insert(s, start);
            }
            if e > end {
                self.map.insert(end, e);
            }
        }
        self.scratch = touched;
    }

    /// True if any byte of `range` is in the set.
    pub fn intersects(&self, range: AddrRange) -> bool {
        let start = range.start().raw();
        let end = range.end().raw();
        match self.map.range(..end).next_back() {
            Some((_, &e)) => e > start,
            None => false,
        }
    }

    /// True if `addr`'s byte is in the set.
    pub fn contains(&self, addr: wasteprof_trace::Addr) -> bool {
        self.intersects(AddrRange::new(addr, 1))
    }

    /// Iterates over the disjoint `(start, end)` intervals in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&s, &e)| (s, e))
    }

    /// True if every byte of `range` is in the set. Intervals are coalesced,
    /// so full coverage means one interval contains the whole range.
    pub fn covers(&self, range: AddrRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let start = range.start().raw();
        let end = range.end().raw();
        match self.map.range(..=start).next_back() {
            Some((_, &e)) => e >= end,
            None => false,
        }
    }
}

/// Bitmap over 64-byte granules, stored in an open-addressing hash table.
///
/// Keys are granule indices (`addr >> 6`); each maps to a 64-bit word with
/// one bit per byte. The table stores `key + 1` so zero can mean "empty
/// slot". Removal only clears word bits and never deletes keys (keeping
/// probe chains intact); zero-word slots are dropped when the table grows.
#[derive(Debug, Clone, Default)]
struct GranuleMap {
    /// Granule index + 1 per slot; 0 marks an empty slot.
    keys: Vec<u64>,
    /// One bit per byte of the granule, parallel to `keys`.
    words: Vec<u64>,
    /// Slots with a nonzero key (including zero-word ones).
    occupied: usize,
    /// Running popcount over `words`: total set bytes.
    set_bytes: u64,
}

/// Fibonacci-hash multiplier (2^64 / golden ratio).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
const GRANULE_SHIFT: u64 = 6;

impl GranuleMap {
    #[inline]
    fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn home_slot(&self, gkey: u64) -> usize {
        // Capacity is a power of two; fibonacci hashing takes the top bits.
        let shift = 64 - self.capacity().trailing_zeros();
        (gkey.wrapping_mul(FIB) >> shift) as usize
    }

    /// Finds the slot holding `gkey`, if present.
    #[inline]
    fn find(&self, gkey: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.capacity() - 1;
        let mut i = self.home_slot(gkey);
        loop {
            let k = self.keys[i];
            if k == 0 {
                return None;
            }
            if k == gkey + 1 {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds the slot for `gkey`, inserting an empty word if absent.
    fn find_or_insert(&mut self, gkey: u64) -> usize {
        if self.occupied * 4 >= self.capacity() * 3 {
            self.grow();
        }
        let mask = self.capacity() - 1;
        let mut i = self.home_slot(gkey);
        loop {
            let k = self.keys[i];
            if k == 0 {
                self.keys[i] = gkey + 1;
                self.occupied += 1;
                return i;
            }
            if k == gkey + 1 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table, dropping slots whose word went to zero.
    fn grow(&mut self) {
        let new_cap = (self.capacity() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_words = std::mem::replace(&mut self.words, vec![0; new_cap]);
        self.occupied = 0;
        let mask = new_cap - 1;
        for (k, w) in old_keys.into_iter().zip(old_words) {
            if k == 0 || w == 0 {
                continue;
            }
            let mut i = ((k - 1).wrapping_mul(FIB) >> (64 - new_cap.trailing_zeros())) as usize;
            while self.keys[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.words[i] = w;
            self.occupied += 1;
        }
    }

    /// Calls `f(granule_key, byte_mask)` for each granule `range` overlaps.
    #[inline]
    fn for_each_granule(range: AddrRange, mut f: impl FnMut(u64, u64)) {
        let start = range.start().raw();
        let end = range.end().raw();
        if start == end {
            return;
        }
        let mut g = start >> GRANULE_SHIFT;
        let last = (end - 1) >> GRANULE_SHIFT;
        while g <= last {
            let base = g << GRANULE_SHIFT;
            let lo = start.max(base) - base;
            let hi = end.min(base + 64) - base;
            let mask = if hi - lo == 64 {
                !0u64
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            f(g, mask);
            g += 1;
        }
    }

    fn insert(&mut self, range: AddrRange) {
        Self::for_each_granule(range, |g, mask| {
            let slot = self.find_or_insert(g);
            let old = self.words[slot];
            self.words[slot] = old | mask;
            self.set_bytes += (mask & !old).count_ones() as u64;
        });
    }

    fn remove(&mut self, range: AddrRange) {
        Self::for_each_granule(range, |g, mask| {
            if let Some(slot) = self.find(g) {
                let old = self.words[slot];
                self.words[slot] = old & !mask;
                self.set_bytes -= (old & mask).count_ones() as u64;
            }
        });
    }

    fn intersects(&self, range: AddrRange) -> bool {
        let mut hit = false;
        Self::for_each_granule(range, |g, mask| {
            if !hit {
                if let Some(slot) = self.find(g) {
                    hit = self.words[slot] & mask != 0;
                }
            }
        });
        hit
    }

    /// True if every byte of `range` has its bit set.
    fn covers(&self, range: AddrRange) -> bool {
        let mut ok = true;
        Self::for_each_granule(range, |g, mask| {
            if ok {
                ok = match self.find(g) {
                    Some(slot) => self.words[slot] & mask == mask,
                    None => false,
                };
            }
        });
        ok
    }

    /// Sorted, coalesced `(start, end)` byte runs (diagnostics/iteration;
    /// not on the hot path — collects and sorts the live granules).
    fn runs(&self) -> Vec<(u64, u64)> {
        let mut granules: Vec<(u64, u64)> = self
            .keys
            .iter()
            .zip(&self.words)
            .filter(|&(&k, &w)| k != 0 && w != 0)
            .map(|(&k, &w)| (k - 1, w))
            .collect();
        granules.sort_unstable_by_key(|&(g, _)| g);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (g, word) in granules {
            let base = g << GRANULE_SHIFT;
            let mut bit = 0u32;
            let mut w = word;
            while w != 0 {
                let skip = w.trailing_zeros();
                bit += skip;
                w = if skip >= 64 { 0 } else { w >> skip };
                let len = w.trailing_ones();
                let start = base + bit as u64;
                let end = start + len as u64;
                match runs.last_mut() {
                    Some(last) if last.1 == start => last.1 = end,
                    _ => runs.push((start, end)),
                }
                bit += len;
                w = if len >= 64 { 0 } else { w >> len };
            }
        }
        runs
    }
}

/// A set of byte addresses: the live-memory set of the backward pass.
///
/// Hybrid representation — small-operand regions (code, heap, stack, the
/// debug ring) live in a 64-byte-granule bitmap; large-buffer regions
/// (pixel tiles, IPC channels, network input, framebuffer) live in a
/// coalesced [`IntervalSet`]. Regions are disjoint, so each byte is owned
/// by exactly one half and counts stay exact.
///
/// # Examples
///
/// ```
/// use wasteprof_slicer::AddrSet;
/// use wasteprof_trace::{Addr, AddrRange};
///
/// let mut s = AddrSet::new();
/// s.insert(AddrRange::new(Addr::new(100), 8));
/// assert!(s.intersects(AddrRange::new(Addr::new(104), 2)));
/// s.remove(AddrRange::new(Addr::new(100), 4));
/// assert!(!s.intersects(AddrRange::new(Addr::new(100), 4)));
/// assert!(s.intersects(AddrRange::new(Addr::new(104), 4)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddrSet {
    /// Dense small-operand traffic, one bit per byte in 64-byte granules.
    bits: GranuleMap,
    /// Large tile/network buffers as coalesced intervals.
    large: IntervalSet,
}

impl PartialEq for AddrSet {
    fn eq(&self, other: &Self) -> bool {
        // Content equality: same byte runs, regardless of table layout.
        self.byte_count() == other.byte_count()
            && self.large == other.large
            && self.bits.runs() == other.bits.runs()
    }
}

impl Eq for AddrSet {}

impl AddrSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no addresses are in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.set_bytes == 0 && self.large.is_empty()
    }

    /// Number of disjoint intervals (diagnostics).
    pub fn interval_count(&self) -> usize {
        self.bits.runs().len() + self.large.interval_count()
    }

    /// Total number of live bytes.
    pub fn byte_count(&self) -> u64 {
        self.bits.set_bytes + self.large.byte_count()
    }

    /// Adds every byte of `range` to the set.
    #[inline]
    pub fn insert(&mut self, range: AddrRange) {
        if routes_to_intervals(range.start().raw()) {
            self.large.insert(range);
        } else {
            self.bits.insert(range);
        }
    }

    /// Removes every byte of `range` from the set.
    #[inline]
    pub fn remove(&mut self, range: AddrRange) {
        if routes_to_intervals(range.start().raw()) {
            self.large.remove(range);
        } else {
            self.bits.remove(range);
        }
    }

    /// True if any byte of `range` is in the set.
    #[inline]
    pub fn intersects(&self, range: AddrRange) -> bool {
        if routes_to_intervals(range.start().raw()) {
            self.large.intersects(range)
        } else {
            self.bits.intersects(range)
        }
    }

    /// True if `addr`'s byte is in the set.
    pub fn contains(&self, addr: wasteprof_trace::Addr) -> bool {
        self.intersects(AddrRange::new(addr, 1))
    }

    /// True if every byte of `range` is in the set.
    #[inline]
    pub fn covers(&self, range: AddrRange) -> bool {
        if routes_to_intervals(range.start().raw()) {
            self.large.covers(range)
        } else {
            self.bits.covers(range)
        }
    }

    /// Iterates over the disjoint `(start, end)` byte runs in order,
    /// merging the bitmap and interval halves.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut runs = self.bits.runs();
        runs.extend(self.large.iter());
        runs.sort_unstable_by_key(|&(s, _)| s);
        // Coalesce adjacency across the two halves (only possible at a
        // region boundary, but iteration promises maximal runs).
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (s, e) in runs {
            match merged.last_mut() {
                Some(last) if last.1 >= s => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged.into_iter()
    }
}

/// The complete liveness state of the backward pass: shared live memory
/// plus one live register set per thread.
#[derive(Debug, Clone, Default)]
pub struct LiveState {
    /// Live memory, shared across threads.
    pub mem: AddrSet,
    regs: Vec<RegSet>,
}

impl LiveState {
    /// Creates an empty state sized for `threads` threads.
    pub fn new(threads: usize) -> Self {
        LiveState {
            mem: AddrSet::new(),
            regs: vec![RegSet::EMPTY; threads],
        }
    }

    /// Live registers of `tid`.
    pub fn regs(&self, tid: ThreadId) -> RegSet {
        self.regs.get(tid.index()).copied().unwrap_or(RegSet::EMPTY)
    }

    /// Mutable live registers of `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is beyond the size given to [`LiveState::new`].
    pub fn regs_mut(&mut self, tid: ThreadId) -> &mut RegSet {
        &mut self.regs[tid.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_scratch_capacity() {
        // Two sets with identical content but different internal scratch
        // history must compare equal (PartialEq is content-only).
        let mut a = AddrSet::new();
        let mut b = AddrSet::new();
        let r = |s: u64, l: u32| AddrRange::new(Addr::new(s), l);
        a.insert(r(10, 10));
        a.insert(r(20, 10)); // adjacent: exercises the absorb scratch
        a.remove(r(25, 2));
        b.insert(r(20, 10));
        b.insert(r(10, 10));
        b.remove(r(25, 2));
        assert_eq!(a, b);
    }

    use wasteprof_trace::Addr;

    fn r(start: u64, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    #[test]
    fn insert_and_query() {
        let mut s = AddrSet::new();
        s.insert(r(10, 10));
        assert!(s.intersects(r(10, 1)));
        assert!(s.intersects(r(19, 1)));
        assert!(!s.intersects(r(20, 1)));
        assert!(!s.intersects(r(5, 5)));
        assert!(s.intersects(r(5, 6)));
    }

    #[test]
    fn inserts_merge_overlaps() {
        let mut s = AddrSet::new();
        s.insert(r(10, 10));
        s.insert(r(15, 10));
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.byte_count(), 15);
    }

    #[test]
    fn inserts_merge_adjacent() {
        let mut s = AddrSet::new();
        s.insert(r(10, 10));
        s.insert(r(20, 5));
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.byte_count(), 15);
    }

    #[test]
    fn insert_spanning_many() {
        let mut s = AddrSet::new();
        s.insert(r(10, 2));
        s.insert(r(20, 2));
        s.insert(r(30, 2));
        s.insert(r(5, 40));
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.byte_count(), 40);
    }

    #[test]
    fn remove_splits() {
        let mut s = AddrSet::new();
        s.insert(r(0, 30));
        s.remove(r(10, 10));
        assert_eq!(s.interval_count(), 2);
        assert!(s.intersects(r(0, 10)));
        assert!(!s.intersects(r(10, 10)));
        assert!(s.intersects(r(20, 10)));
        assert_eq!(s.byte_count(), 20);
    }

    #[test]
    fn remove_exact() {
        let mut s = AddrSet::new();
        s.insert(r(10, 10));
        s.remove(r(10, 10));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_across_intervals() {
        let mut s = AddrSet::new();
        s.insert(r(0, 10));
        s.insert(r(20, 10));
        s.insert(r(40, 10));
        s.remove(r(5, 40));
        assert_eq!(s.interval_count(), 2);
        assert!(s.intersects(r(0, 5)));
        assert!(s.intersects(r(45, 5)));
        assert_eq!(s.byte_count(), 10);
    }

    #[test]
    fn remove_noop_outside() {
        let mut s = AddrSet::new();
        s.insert(r(10, 10));
        s.remove(r(30, 10));
        s.remove(r(0, 10)); // adjacent below, no overlap
        assert_eq!(s.byte_count(), 10);
    }

    #[test]
    fn contains_single_byte() {
        let mut s = AddrSet::new();
        s.insert(r(100, 1));
        assert!(s.contains(Addr::new(100)));
        assert!(!s.contains(Addr::new(101)));
    }

    #[test]
    fn large_regions_route_to_intervals() {
        // A 256 KiB pixel tile must be one interval, not thousands of
        // bitmap granules.
        let tile = AddrRange::new(Region::PixelTile.base(), 256 * 1024);
        let mut s = AddrSet::new();
        s.insert(tile);
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.byte_count(), 256 * 1024);
        assert_eq!(s.bits.set_bytes, 0, "tile leaked into the bitmap half");
        assert!(s.intersects(AddrRange::new(Region::PixelTile.base(), 4)));
        s.remove(tile);
        assert!(s.is_empty());
    }

    #[test]
    fn small_regions_route_to_bitmap() {
        let cell = AddrRange::new(Region::Heap.base(), 8);
        let mut s = AddrSet::new();
        s.insert(cell);
        assert_eq!(s.byte_count(), 8);
        assert_eq!(s.large.interval_count(), 0, "cell leaked into intervals");
        assert!(s.intersects(cell));
    }

    #[test]
    fn iter_merges_bitmap_and_interval_runs_in_order() {
        let mut s = AddrSet::new();
        let heap = Region::Heap.base().raw();
        let tile = Region::PixelTile.base().raw();
        s.insert(r(tile, 1024)); // interval half, higher address
        s.insert(r(heap, 16)); // bitmap half, lower address
        s.insert(r(heap + 100, 4));
        let runs: Vec<_> = s.iter().collect();
        assert_eq!(
            runs,
            vec![
                (heap, heap + 16),
                (heap + 100, heap + 104),
                (tile, tile + 1024)
            ]
        );
    }

    #[test]
    fn granule_map_survives_growth_and_clears() {
        // Force many distinct granules so the table rehashes, with
        // interleaved removes leaving zero words behind.
        let mut s = AddrSet::new();
        for i in 0..4096u64 {
            s.insert(r(i * 64, 8));
        }
        assert_eq!(s.byte_count(), 4096 * 8);
        for i in 0..4096u64 {
            s.remove(r(i * 64, 8));
        }
        assert!(s.is_empty());
        // Reinsert after mass-clear: probe chains must still resolve.
        for i in 0..4096u64 {
            s.insert(r(i * 64, 4));
        }
        assert_eq!(s.byte_count(), 4096 * 4);
    }

    #[test]
    fn granule_spanning_ranges() {
        // A range crossing granule boundaries sets bits in each word.
        let mut s = AddrSet::new();
        s.insert(r(60, 72)); // spans granules 0, 1, and 2
        assert_eq!(s.byte_count(), 72);
        assert_eq!(s.interval_count(), 1);
        assert!(s.contains(Addr::new(60)));
        assert!(s.contains(Addr::new(131)));
        assert!(!s.contains(Addr::new(132)));
        s.remove(r(64, 64)); // clear exactly granule 1
        assert_eq!(s.byte_count(), 8);
        assert_eq!(s.interval_count(), 2);
    }

    #[test]
    fn covers_in_both_halves() {
        let heap = Region::Heap.base().raw();
        let tile = Region::PixelTile.base().raw();
        for base in [heap, tile] {
            let mut s = AddrSet::new();
            s.insert(r(base + 10, 10)); // [10, 20)
            s.insert(r(base + 30, 10)); // [30, 40)
            assert!(s.covers(r(base + 12, 6)));
            assert!(s.covers(r(base + 10, 10)));
            assert!(!s.covers(r(base + 10, 11)));
            assert!(!s.covers(r(base + 25, 2)));
        }
    }

    #[test]
    fn live_state_per_thread_registers() {
        use wasteprof_trace::Reg;
        let mut ls = LiveState::new(2);
        ls.regs_mut(ThreadId(0)).insert(Reg::Rax);
        assert!(ls.regs(ThreadId(0)).contains(Reg::Rax));
        assert!(!ls.regs(ThreadId(1)).contains(Reg::Rax));
        assert!(ls.regs(ThreadId(7)).is_empty()); // out of range reads as empty
    }
}
