//! Micro-op definition: opcode classes, memory info, branch info.

use crate::regs::ArchReg;
use std::fmt;
use std::num::NonZeroU8;

/// Opcode class of a μop, which determines the functional unit it needs
/// and its execution latency (Table I FU mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Pipelined floating-point add.
    FpAdd,
    /// Pipelined floating-point multiply.
    FpMul,
    /// Unpipelined floating-point divide.
    FpDiv,
    /// Memory load (AGU + cache access).
    Load,
    /// Memory store (AGU; data written at commit).
    Store,
    /// Conditional or unconditional branch.
    Branch,
}

impl OpClass {
    /// All opcode classes, in a stable order (useful for stats tables).
    pub const ALL: [OpClass; 9] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// Execution latency in cycles, *excluding* memory hierarchy time for
    /// loads (a load's 1-cycle AGU is followed by the cache access).
    ///
    /// ```
    /// use ballerino_isa::OpClass;
    /// assert_eq!(OpClass::IntAlu.exec_latency(), 1);
    /// assert!(OpClass::FpDiv.exec_latency() > OpClass::FpMul.exec_latency());
    /// ```
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 20,
            OpClass::FpAdd => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 12,
            OpClass::Load => 1,  // AGU; cache latency added by the memory model
            OpClass::Store => 1, // AGU; data commits from the store queue
            OpClass::Branch => 1,
        }
    }

    /// Whether the functional unit is unpipelined (occupies the FU for the
    /// whole latency, blocking back-to-back issue of same-class μops on the
    /// same port).
    pub fn unpipelined(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }

    /// Returns `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Returns `true` for floating-point compute classes.
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "ialu",
            OpClass::IntMul => "imul",
            OpClass::IntDiv => "idiv",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "br",
        };
        write!(f, "{s}")
    }
}

/// Kind of branch, which affects prediction structures used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch (predicted by TAGE).
    Conditional,
    /// Unconditional direct jump (BTB only).
    Direct,
    /// Indirect jump / return (BTB target prediction).
    Indirect,
}

/// Branch outcome information attached to branch μops in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Branch kind.
    pub kind: BranchKind,
    /// Actual direction (always `true` for unconditional branches).
    pub taken: bool,
    /// Actual target address when taken.
    pub target: u64,
}

/// Memory access information attached to load/store μops in a trace.
///
/// The size is non-zero, which also gives `Option<MemInfo>` a niche: it
/// costs 16 bytes, the same as a bare `MemInfo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInfo {
    /// Effective virtual address (byte granular).
    pub addr: u64,
    /// Access size in bytes.
    pub size: NonZeroU8,
}

impl MemInfo {
    /// The 8-byte access the trace builders emit.
    const WORD: NonZeroU8 = NonZeroU8::new(8).expect("8 is non-zero");

    /// Returns the cache-line address for a given line size.
    ///
    /// ```
    /// use ballerino_isa::MemInfo;
    /// use std::num::NonZeroU8;
    /// let m = MemInfo { addr: 0x1234, size: NonZeroU8::new(8).unwrap() };
    /// assert_eq!(m.line(64), 0x1200 / 64);
    /// ```
    pub fn line(&self, line_bytes: u64) -> u64 {
        self.addr / line_bytes
    }

    /// Whether this access overlaps another (byte ranges intersect).
    pub fn overlaps(&self, other: &MemInfo) -> bool {
        let a0 = self.addr;
        let a1 = self.addr + u64::from(self.size.get());
        let b0 = other.addr;
        let b1 = other.addr + u64::from(other.size.get());
        a0 < b1 && b0 < a1
    }
}

/// A single micro-operation in a dynamic trace.
///
/// μops carry *architectural* register names; renaming happens inside the
/// simulated pipeline so that WAR/WAW hazards are removed exactly as in
/// hardware.
///
/// Trace caches keep every μop of a trace resident, so the layout is kept
/// at 48 bytes: one-byte optional registers, and niche-packed optional
/// memory and branch info.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroOp {
    /// Program counter of the parent instruction.
    pub pc: u64,
    /// Opcode class.
    pub class: OpClass,
    /// Up to two register sources.
    pub srcs: [Option<ArchReg>; 2],
    /// Optional register destination.
    pub dst: Option<ArchReg>,
    /// Memory access info for loads/stores.
    pub mem: Option<MemInfo>,
    /// Branch outcome info for branches.
    pub branch: Option<BranchInfo>,
}

impl MicroOp {
    /// Builds an integer ALU μop.
    pub fn alu(pc: u64, dst: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        MicroOp {
            pc,
            class: OpClass::IntAlu,
            srcs,
            dst: Some(dst),
            mem: None,
            branch: None,
        }
    }

    /// Builds a compute μop of an arbitrary class.
    pub fn compute(pc: u64, class: OpClass, dst: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert!(!class.is_mem() && class != OpClass::Branch);
        MicroOp {
            pc,
            class,
            srcs,
            dst: Some(dst),
            mem: None,
            branch: None,
        }
    }

    /// Builds a load μop: `dst = [base]` at `addr`.
    pub fn load(pc: u64, dst: ArchReg, base: Option<ArchReg>, addr: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Load,
            srcs: [base, None],
            dst: Some(dst),
            mem: Some(MemInfo {
                addr,
                size: MemInfo::WORD,
            }),
            branch: None,
        }
    }

    /// Builds a store μop: `[base] = data` at `addr`.
    pub fn store(pc: u64, data: Option<ArchReg>, base: Option<ArchReg>, addr: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Store,
            srcs: [data, base],
            dst: None,
            mem: Some(MemInfo {
                addr,
                size: MemInfo::WORD,
            }),
            branch: None,
        }
    }

    /// Builds a conditional branch μop.
    pub fn branch(pc: u64, cond_src: Option<ArchReg>, taken: bool, target: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Branch,
            srcs: [cond_src, None],
            dst: None,
            mem: None,
            branch: Some(BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target,
            }),
        }
    }

    /// Number of register source operands actually present.
    pub fn num_srcs(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Whether this μop is a load.
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this μop is a store.
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this μop is a branch.
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_positive_and_alu_is_single_cycle() {
        for c in OpClass::ALL {
            assert!(c.exec_latency() >= 1, "{c} latency");
        }
        assert_eq!(OpClass::IntAlu.exec_latency(), 1);
    }

    #[test]
    fn only_divides_are_unpipelined() {
        for c in OpClass::ALL {
            assert_eq!(
                c.unpipelined(),
                matches!(c, OpClass::IntDiv | OpClass::FpDiv)
            );
        }
    }

    #[test]
    fn resident_records_keep_their_footprint() {
        use std::mem::size_of;
        assert_eq!(size_of::<MicroOp>(), 48);
        assert_eq!(size_of::<Option<ArchReg>>(), 1);
        assert_eq!(size_of::<Option<MemInfo>>(), 16);
        assert!(size_of::<crate::DagOp>() <= 12);
    }

    #[test]
    fn mem_overlap_detection() {
        let mem = |addr, size| MemInfo {
            addr,
            size: NonZeroU8::new(size).unwrap(),
        };
        let a = mem(100, 8);
        let b = mem(104, 8);
        let c = mem(108, 4);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn load_and_store_builders_set_mem_info() {
        let ld = MicroOp::load(0x10, ArchReg::int(1), Some(ArchReg::int(2)), 0x1000);
        assert!(ld.is_load());
        assert_eq!(ld.mem.unwrap().addr, 0x1000);
        assert_eq!(ld.num_srcs(), 1);

        let st = MicroOp::store(0x14, Some(ArchReg::int(1)), Some(ArchReg::int(2)), 0x1008);
        assert!(st.is_store());
        assert!(st.dst.is_none());
        assert_eq!(st.num_srcs(), 2);
    }

    #[test]
    fn branch_builder_records_outcome() {
        let b = MicroOp::branch(0x20, Some(ArchReg::int(1)), true, 0x40);
        assert!(b.is_branch());
        let info = b.branch.unwrap();
        assert!(info.taken);
        assert_eq!(info.target, 0x40);
    }

    #[test]
    fn op_class_display_is_stable() {
        assert_eq!(OpClass::Load.to_string(), "load");
        assert_eq!(OpClass::FpMul.to_string(), "fmul");
    }
}
