//! Architectural registers of the virtual machine.
//!
//! The register file mirrors x86-64: sixteen general-purpose registers with
//! the SysV calling convention (arguments in `RDI, RSI, RDX, RCX, R8, R9`,
//! return value in `RAX`). The backward slicer keeps one *live register set*
//! per thread (paper §III-B), so registers are identified per thread
//! implicitly by the instruction's thread id.

use std::fmt;

/// One of the sixteen general-purpose registers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[allow(missing_docs)] // register names are self-describing
#[repr(u8)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// All registers in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// SysV integer argument registers, in order.
    pub const ARGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];

    /// Registers a syscall clobbers besides the return register
    /// (`syscall` destroys RCX and R11 on x86-64).
    pub const SYSCALL_CLOBBERS: [Reg; 2] = [Reg::Rcx, Reg::R11];

    /// Registers used as codegen temporaries by the recorder's helpers.
    pub const TEMPS: [Reg; 6] = [Reg::R8, Reg::R9, Reg::R10, Reg::R12, Reg::R14, Reg::R15];

    /// Encoding index, `0..16`.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Decodes a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 16`.
    pub fn from_index(idx: usize) -> Reg {
        Reg::ALL[idx]
    }

    /// Conventional lowercase name (`"rax"`, `"r13"`, ...).
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        NAMES[self.index()]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A compact set of registers, stored as a 16-bit mask.
///
/// # Examples
///
/// ```
/// use wasteprof_trace::{Reg, RegSet};
///
/// let mut s = RegSet::EMPTY;
/// s.insert(Reg::Rax);
/// s.insert(Reg::Rdi);
/// assert!(s.contains(Reg::Rax));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::Rax, Reg::Rdi]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u16);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Creates a set from the given registers.
    pub fn of(regs: &[Reg]) -> RegSet {
        let mut s = RegSet::EMPTY;
        for &r in regs {
            s.insert(r);
        }
        s
    }

    /// Adds a register to the set.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register from the set.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Returns true if the register is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Returns true if no registers are in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Returns true if the intersection is non-empty.
    pub fn intersects(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Removes every register in `other` from `self`.
    pub fn subtract(&mut self, other: RegSet) {
        self.0 &= !other.0;
    }

    /// Iterates over members in encoding order, one step per member: the
    /// lowest set bit is taken and cleared rather than testing all sixteen.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let r = Reg::from_index(bits.trailing_zeros() as usize);
                bits &= bits - 1;
                r
            })
        })
    }

    /// Raw 16-bit mask (for serialization).
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Rebuilds a set from a raw mask.
    pub const fn from_bits(bits: u16) -> RegSet {
        RegSet(bits)
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), r);
        }
    }

    #[test]
    fn set_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Reg::R13);
        assert!(s.contains(Reg::R13));
        assert!(!s.contains(Reg::R12));
        s.remove(Reg::R13);
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = RegSet::of(&[Reg::Rax, Reg::Rbx]);
        let b = RegSet::of(&[Reg::Rbx, Reg::Rcx]);
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b).len(), 1);
        assert!(a.intersects(b));
        let mut c = a;
        c.subtract(b);
        assert!(c.contains(Reg::Rax));
        assert!(!c.contains(Reg::Rbx));
    }

    #[test]
    fn bits_roundtrip() {
        let a = RegSet::of(&[Reg::Rdi, Reg::R15]);
        assert_eq!(RegSet::from_bits(a.bits()), a);
    }

    #[test]
    fn iter_is_every_member_in_encoding_order() {
        for bits in 0..=u16::MAX {
            let s = RegSet::from_bits(bits);
            let all: Vec<Reg> = Reg::ALL.into_iter().filter(|&r| s.contains(r)).collect();
            assert_eq!(s.iter().collect::<Vec<_>>(), all, "{bits:#06x}");
        }
    }

    #[test]
    fn debug_format_nonempty() {
        assert_eq!(format!("{:?}", RegSet::EMPTY), "{}");
        assert_eq!(format!("{:?}", RegSet::of(&[Reg::Rax])), "{rax}");
    }
}
