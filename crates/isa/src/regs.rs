//! Architectural and physical register identifiers.
//!
//! The machine exposes 32 integer and 32 floating-point architectural
//! registers, renamed onto separate physical register files (Table I:
//! 180 int / 168 fp for the 8-wide configuration).

use std::fmt;
use std::num::NonZeroU8;

/// Number of architectural registers per class.
pub const ARCH_REGS_PER_CLASS: u16 = 32;

/// Total number of architectural registers (both classes).
pub const NUM_ARCH_REGS: u16 = 2 * ARCH_REGS_PER_CLASS;

/// Register class: integer or floating point.
///
/// The class selects which physical register file a destination is renamed
/// into and which functional units read the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose integer register.
    Int,
    /// Floating-point / SIMD register.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// An architectural register name, as carried by trace μops.
///
/// Encoded as a flat index: `0..32` are integer registers, `32..64` are
/// floating-point registers. The index is stored biased by one in a
/// `NonZeroU8`, so `Option<ArchReg>` is a single byte and a μop's three
/// register slots cost three bytes of trace memory.
///
/// # Examples
///
/// ```
/// use ballerino_isa::{ArchReg, RegClass};
/// let r = ArchReg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index_in_class(), 5);
/// let f = ArchReg::fp(2);
/// assert_eq!(f.class(), RegClass::Fp);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(NonZeroU8);

impl ArchReg {
    /// Creates an integer architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn int(idx: u16) -> Self {
        assert!(
            idx < ARCH_REGS_PER_CLASS,
            "int reg index {idx} out of range"
        );
        ArchReg::encode(idx)
    }

    /// Creates a floating-point architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn fp(idx: u16) -> Self {
        assert!(idx < ARCH_REGS_PER_CLASS, "fp reg index {idx} out of range");
        ArchReg::encode(ARCH_REGS_PER_CLASS + idx)
    }

    /// Creates a register from its flat index (`0..64`).
    ///
    /// # Panics
    ///
    /// Panics if `flat >= NUM_ARCH_REGS`.
    pub fn from_flat(flat: u16) -> Self {
        assert!(flat < NUM_ARCH_REGS, "flat reg index {flat} out of range");
        ArchReg::encode(flat)
    }

    /// Stores an in-range flat index biased by one.
    fn encode(flat: u16) -> Self {
        ArchReg(NonZeroU8::new(flat as u8 + 1).expect("biased index is non-zero"))
    }

    /// Returns the flat index (`0..64`), usable to index RAT tables.
    #[inline]
    pub fn flat(self) -> u16 {
        u16::from(self.0.get() - 1)
    }

    /// Returns the register class.
    pub fn class(self) -> RegClass {
        if self.flat() < ARCH_REGS_PER_CLASS {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    /// Returns the index within the register's class (`0..32`).
    pub fn index_in_class(self) -> u16 {
        self.flat() % ARCH_REGS_PER_CLASS
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArchReg").field(&self.flat()).finish()
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.index_in_class()),
            RegClass::Fp => write!(f, "f{}", self.index_in_class()),
        }
    }
}

/// A physical register tag, produced by renaming.
///
/// Physical registers of both classes share one tag namespace (the renamer
/// partitions the space); the scoreboard and wakeup logic treat tags
/// uniformly, exactly as destination tags are broadcast in the baseline IQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg(pub u32);

impl PhysReg {
    /// Returns the raw tag value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns the tag as an index usable for scoreboard arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_regs_have_disjoint_flat_indices() {
        let a = ArchReg::int(0);
        let b = ArchReg::fp(0);
        assert_ne!(a, b);
        assert_eq!(a.flat(), 0);
        assert_eq!(b.flat(), 32);
    }

    #[test]
    fn class_round_trips_through_flat_encoding() {
        for i in 0..NUM_ARCH_REGS {
            let r = ArchReg::from_flat(i);
            let rebuilt = match r.class() {
                RegClass::Int => ArchReg::int(r.index_in_class()),
                RegClass::Fp => ArchReg::fp(r.index_in_class()),
            };
            assert_eq!(r, rebuilt);
        }
    }

    #[test]
    fn every_flat_index_round_trips() {
        let all: Vec<ArchReg> = (0..NUM_ARCH_REGS).map(ArchReg::from_flat).collect();
        for (i, r) in (0..NUM_ARCH_REGS).zip(&all) {
            assert_eq!(r.flat(), i);
            let (class, idx) = if i < ARCH_REGS_PER_CLASS {
                (RegClass::Int, i)
            } else {
                (RegClass::Fp, i - ARCH_REGS_PER_CLASS)
            };
            assert_eq!(r.class(), class);
            assert_eq!(r.index_in_class(), idx);
            assert_eq!(format!("{r:?}"), format!("ArchReg({i})"));
        }
        // Order follows the flat index.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_index_out_of_range_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_reg_index_out_of_range_panics() {
        let _ = ArchReg::from_flat(64);
    }

    #[test]
    fn phys_reg_display_and_index() {
        let p = PhysReg(17);
        assert_eq!(p.index(), 17);
        assert_eq!(p.to_string(), "p17");
    }

    #[test]
    fn arch_reg_display() {
        assert_eq!(ArchReg::int(3).to_string(), "r3");
        assert_eq!(ArchReg::fp(7).to_string(), "f7");
    }
}
