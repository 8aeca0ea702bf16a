//! Virtual address space for traced programs.
//!
//! The trace substrate gives every piece of engine state a home in a 64-bit
//! *virtual* address space, mirroring the exact-address traces that Intel Pin
//! collects from a real process. Addresses are grouped into [`Region`]s so
//! that reports can attribute liveness and slice membership to the kind of
//! state involved (heap objects, per-thread stacks, pixel tile buffers, IPC
//! channels, ...).

use std::fmt;

use crate::thread::ThreadId;

/// A byte address in the traced program's virtual address space.
///
/// `Addr` is a plain 64-bit value; the high bits encode the [`Region`] the
/// address belongs to (see [`Region::base`]).
///
/// # Examples
///
/// ```
/// use wasteprof_trace::{Addr, Region};
///
/// let a = Region::Heap.base();
/// assert_eq!(a.region(), Some(Region::Heap));
/// assert_eq!(a.offset(8).raw() - a.raw(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from its raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value of this address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address `bytes` past this one.
    ///
    /// Addresses never wrap: the address space is a flat 64-bit line and
    /// every valid operand stays inside its [`Region`], far below
    /// `u64::MAX`. Wrapping would silently alias the null page, so
    /// overflow is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if `self + bytes` overflows 64 bits.
    pub const fn offset(self, bytes: u64) -> Self {
        match self.0.checked_add(bytes) {
            Some(raw) => Addr(raw),
            None => panic!("Addr::offset overflowed the 64-bit address space"),
        }
    }

    /// Returns the region this address falls into, if any.
    pub fn region(self) -> Option<Region> {
        Region::of(self)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.region() {
            Some(r) => write!(f, "{:?}+{:#x}", r, self.0 - r.base().0),
            None => write!(f, "Addr({:#x})", self.0),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A contiguous range of bytes `[start, start + len)`.
///
/// Ranges are the memory operands of trace instructions: a load reads a
/// range, a store writes one, and a syscall may read and write several.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: Addr,
    len: u32,
}

impl AddrRange {
    /// Creates a range of `len` bytes starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero — empty operands are never recorded — or if
    /// the range would end past `u64::MAX` (see [`AddrRange::try_new`]).
    pub fn new(start: Addr, len: u32) -> Self {
        assert!(len > 0, "memory operand must not be empty");
        AddrRange::try_new(start, len).expect("memory operand wraps the 64-bit address space")
    }

    /// Creates a range of `len` bytes starting at `start`, or `None` if it
    /// would be empty or end past `u64::MAX`. Readers of untrusted input
    /// use this to refuse such operands with an error of their own.
    pub fn try_new(start: Addr, len: u32) -> Option<Self> {
        let fits = len > 0 && start.raw().checked_add(u64::from(len)).is_some();
        fits.then_some(AddrRange { start, len })
    }

    /// Creates a single 8-byte cell range: the natural word of the virtual
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if the cell would end past `u64::MAX`.
    pub fn cell(start: Addr) -> Self {
        AddrRange::new(start, CELL)
    }

    /// First byte of the range.
    pub fn start(self) -> Addr {
        self.start
    }

    /// One past the last byte of the range. Never panics: no range that
    /// ends past `u64::MAX` can be built.
    pub fn end(self) -> Addr {
        self.start.offset(self.len as u64)
    }

    /// Length in bytes.
    pub fn len(self) -> u32 {
        self.len
    }

    /// Whether the range is empty. Answers from `len`, not by fiat: a
    /// hard-coded `false` would silently go stale if zero-length ranges
    /// ever became constructible.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Returns true if `self` and `other` share at least one byte.
    pub fn overlaps(self, other: AddrRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Returns true if `addr` falls inside the range.
    pub fn contains(self, addr: Addr) -> bool {
        self.start <= addr && addr < self.end()
    }

    /// Returns the sub-range `[start + off, start + off + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the sub-range does not fit inside `self` or `len == 0`.
    pub fn slice(self, off: u32, len: u32) -> AddrRange {
        // u64 arithmetic so hostile off/len pairs cannot wrap past the
        // bounds check.
        assert!(
            off as u64 + len as u64 <= self.len as u64,
            "slice [{off}, {}) outside range of {} bytes",
            off as u64 + len as u64,
            self.len
        );
        AddrRange::new(self.start.offset(off as u64), len)
    }
}

impl fmt::Debug for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}; {}]", self.start, self.len)
    }
}

impl From<Addr> for AddrRange {
    /// A bare address converts to its 8-byte cell.
    fn from(a: Addr) -> Self {
        AddrRange::cell(a)
    }
}

/// Size in bytes of the virtual machine's natural word.
pub const CELL: u32 = 8;

/// The kinds of memory a traced browser touches.
///
/// Regions partition the virtual address space; each has a fixed base so an
/// address can be mapped back to its region without side tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Region {
    /// Machine code / compiled bytecode objects (e.g. JS function code).
    Code,
    /// General engine heap: DOM nodes, styles, layout boxes, display items.
    Heap,
    /// Per-thread stack slots (thread id encoded in the address).
    Stack,
    /// Rasterizer tile buffers holding final pixel values.
    PixelTile,
    /// Shared-memory IPC channel to the browser main process.
    Channel,
    /// Built-in debug/trace ring buffers.
    DebugRing,
    /// Bytes received from the network (HTML/CSS/JS source, image data).
    Input,
    /// The composited framebuffer handed to the display.
    Framebuffer,
}

/// Bits below a region's index in an address: `addr >> REGION_SHIFT` is the
/// region index ([`Region::index`]), or `0` for addresses below every
/// region. Public so clients can classify addresses by region index
/// without going through [`Region`].
pub const REGION_SHIFT: u64 = 44;

impl Region {
    /// All regions, in address order.
    pub const ALL: [Region; 8] = [
        Region::Code,
        Region::Heap,
        Region::Stack,
        Region::PixelTile,
        Region::Channel,
        Region::DebugRing,
        Region::Input,
        Region::Framebuffer,
    ];

    /// Dense, stable index of the region in the address space (`1`-based;
    /// index `0` is the sub-region space below [`Region::Code`]).
    pub const fn index(self) -> u64 {
        match self {
            Region::Code => 1,
            Region::Heap => 2,
            Region::Stack => 3,
            Region::PixelTile => 4,
            Region::Channel => 5,
            Region::DebugRing => 6,
            Region::Input => 7,
            Region::Framebuffer => 8,
        }
    }

    /// Base address of the region.
    pub fn base(self) -> Addr {
        Addr(self.index() << REGION_SHIFT)
    }

    /// Maps an address back to its region: the one whose index its high
    /// bits hold, which is its position in [`Region::ALL`] plus one.
    pub fn of(addr: Addr) -> Option<Region> {
        let idx = usize::try_from(addr.raw() >> REGION_SHIFT).ok()?;
        Region::ALL.get(idx.checked_sub(1)?).copied()
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Region::Code => "code",
            Region::Heap => "heap",
            Region::Stack => "stack",
            Region::PixelTile => "pixel-tile",
            Region::Channel => "ipc-channel",
            Region::DebugRing => "debug-ring",
            Region::Input => "net-input",
            Region::Framebuffer => "framebuffer",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bump allocator over the virtual address space.
///
/// Engine components ask the recorder (which owns a `VirtualMemory`) for
/// cells and buffers; the allocator hands out non-overlapping ranges within
/// each region. Nothing is ever freed — a trace needs stable addresses for
/// its whole lifetime, exactly like the paper's post-mortem traces.
///
/// # Examples
///
/// ```
/// use wasteprof_trace::{Region, VirtualMemory};
///
/// let mut vm = VirtualMemory::new();
/// let a = vm.alloc(Region::Heap, 64);
/// let b = vm.alloc(Region::Heap, 8);
/// assert!(!a.overlaps(b));
/// ```
#[derive(Debug, Clone)]
pub struct VirtualMemory {
    next: [u64; Region::ALL.len()],
    stack_next: Vec<u64>,
}

impl VirtualMemory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        VirtualMemory {
            next: [0; Region::ALL.len()],
            stack_next: Vec::new(),
        }
    }

    fn slot(&mut self, region: Region) -> &mut u64 {
        let pos = Region::ALL
            .iter()
            .position(|r| *r == region)
            .expect("region in table");
        &mut self.next[pos]
    }

    /// Allocates `len` bytes in `region`, 8-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or if `region` is [`Region::Stack`] (use
    /// [`VirtualMemory::alloc_stack`], which needs a thread id).
    pub fn alloc(&mut self, region: Region, len: u32) -> AddrRange {
        assert!(
            region != Region::Stack,
            "stack allocation requires a thread id"
        );
        let aligned = (len as u64 + 7) & !7;
        let slot = self.slot(region);
        let off = *slot;
        *slot += aligned;
        AddrRange::new(region.base().offset(off), len)
    }

    /// Allocates one 8-byte cell in `region`.
    pub fn alloc_cell(&mut self, region: Region) -> Addr {
        self.alloc(region, CELL).start()
    }

    /// Allocates `len` bytes of stack space for `tid`.
    ///
    /// Each thread's stack lives at `Stack.base() + (tid << 32)`, so stack
    /// addresses never collide across threads.
    pub fn alloc_stack(&mut self, tid: ThreadId, len: u32) -> AddrRange {
        let idx = tid.index();
        if self.stack_next.len() <= idx {
            self.stack_next.resize(idx + 1, 0);
        }
        let aligned = (len as u64 + 7) & !7;
        let off = self.stack_next[idx];
        self.stack_next[idx] += aligned;
        let base = Region::Stack.base().offset((idx as u64) << 32);
        AddrRange::new(base.offset(off), len)
    }

    /// Total bytes allocated in `region` (excluding stacks).
    pub fn allocated(&self, region: Region) -> u64 {
        let pos = Region::ALL
            .iter()
            .position(|r| *r == region)
            .expect("region in table");
        self.next[pos]
    }
}

impl Default for VirtualMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_roundtrip() {
        for r in Region::ALL {
            assert_eq!(Region::of(r.base()), Some(r));
            assert_eq!(Region::of(r.base().offset(12345)), Some(r));
        }
    }

    #[test]
    fn null_addr_has_no_region() {
        assert_eq!(Region::of(Addr::new(0)), None);
    }

    #[test]
    fn addresses_past_the_last_region_have_none() {
        let past = Region::Framebuffer.index() + 1;
        assert_eq!(Region::of(Addr::new(past << REGION_SHIFT)), None);
        assert_eq!(Region::of(Addr::new(u64::MAX)), None);
    }

    #[test]
    fn ranges_overlap() {
        let base = Region::Heap.base();
        let a = AddrRange::new(base, 16);
        let b = AddrRange::new(base.offset(8), 16);
        let c = AddrRange::new(base.offset(16), 8);
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
        assert!(b.overlaps(c));
    }

    #[test]
    fn range_contains() {
        let base = Region::Heap.base();
        let r = AddrRange::new(base, 8);
        assert!(r.contains(base));
        assert!(r.contains(base.offset(7)));
        assert!(!r.contains(base.offset(8)));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        let _ = AddrRange::new(Region::Heap.base(), 0);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn offset_overflow_panics() {
        let _ = Addr::new(u64::MAX - 3).offset(8);
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn wrapping_range_panics() {
        let _ = AddrRange::new(Addr::new(u64::MAX - 3), 8);
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn wrapping_cell_panics() {
        let _ = AddrRange::cell(Addr::new(u64::MAX - 3));
    }

    #[test]
    fn try_new_refuses_wrapping_and_empty_ranges() {
        assert_eq!(AddrRange::try_new(Addr::new(u64::MAX - 3), 8), None);
        assert_eq!(AddrRange::try_new(Region::Heap.base(), 0), None);
        let last = AddrRange::try_new(Addr::new(u64::MAX - 7), 7).expect("ends at u64::MAX");
        assert_eq!(last.end(), Addr::new(u64::MAX));
    }

    #[test]
    fn constructed_ranges_are_never_empty() {
        assert!(!AddrRange::new(Region::Heap.base(), 1).is_empty());
        assert!(!AddrRange::cell(Region::Heap.base()).is_empty());
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut vm = VirtualMemory::new();
        let mut prev: Option<AddrRange> = None;
        for len in [1u32, 8, 13, 64, 7] {
            let r = vm.alloc(Region::Heap, len);
            if let Some(p) = prev {
                assert!(!p.overlaps(r), "{p:?} overlaps {r:?}");
            }
            prev = Some(r);
        }
    }

    #[test]
    fn stacks_are_disjoint_per_thread() {
        let mut vm = VirtualMemory::new();
        let a = vm.alloc_stack(ThreadId::new(0), 64);
        let b = vm.alloc_stack(ThreadId::new(1), 64);
        assert!(!a.overlaps(b));
        assert_eq!(a.start().region(), Some(Region::Stack));
        assert_eq!(b.start().region(), Some(Region::Stack));
    }

    #[test]
    fn allocated_accounting() {
        let mut vm = VirtualMemory::new();
        vm.alloc(Region::Input, 100);
        assert_eq!(vm.allocated(Region::Input), 104); // aligned up
        assert_eq!(vm.allocated(Region::Heap), 0);
    }
}
