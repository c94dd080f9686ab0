//! Plain-text trace serialization.
//!
//! A simple line-oriented format so traces can be exported, diffed, and
//! imported from external tools (e.g. a pintool or an emulator):
//!
//! ```text
//! # ballerino-trace v1 <name>
//! C <pc> <class> <dst> <src0> <src1>     # compute
//! L <pc> <dst> <base> <addr> <size>      # load
//! S <pc> <data> <base> <addr> <size>     # store
//! B <pc> <src> <taken|not> <target>      # conditional branch
//! ```
//!
//! Registers are written as `r<n>`, `f<n>` or `-` when absent; numbers
//! are hex for addresses and decimal otherwise.

use crate::op::{BranchInfo, BranchKind, MemInfo, MicroOp, OpClass};
use crate::regs::{ArchReg, ARCH_REGS_PER_CLASS};
use crate::trace::Trace;
use std::fmt::Write as _;
use std::num::NonZeroU8;
use std::str::FromStr;

/// Error produced when parsing a text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

fn reg_to_str(r: Option<ArchReg>) -> String {
    match r {
        Some(r) => r.to_string(),
        None => "-".to_string(),
    }
}

fn parse_reg(s: &str) -> Result<Option<ArchReg>, String> {
    if s == "-" {
        return Ok(None);
    }
    // Split on a char, not a byte offset: the token may start with a
    // multi-byte character.
    let (int, idx) = if let Some(idx) = s.strip_prefix('r') {
        (true, idx)
    } else if let Some(idx) = s.strip_prefix('f') {
        (false, idx)
    } else {
        return Err(format!("bad register class {s:?}"));
    };
    // Range-checked here because `ArchReg::int`/`fp` assert it.
    let n = idx
        .parse::<u16>()
        .ok()
        .filter(|&n| n < ARCH_REGS_PER_CLASS)
        .ok_or_else(|| format!("bad register {s:?}"))?;
    Ok(Some(if int { ArchReg::int(n) } else { ArchReg::fp(n) }))
}

fn class_to_str(c: OpClass) -> &'static str {
    match c {
        OpClass::IntAlu => "ialu",
        OpClass::IntMul => "imul",
        OpClass::IntDiv => "idiv",
        OpClass::FpAdd => "fadd",
        OpClass::FpMul => "fmul",
        OpClass::FpDiv => "fdiv",
        OpClass::Load => "load",
        OpClass::Store => "store",
        OpClass::Branch => "br",
    }
}

fn parse_class(s: &str) -> Result<OpClass, String> {
    Ok(match s {
        "ialu" => OpClass::IntAlu,
        "imul" => OpClass::IntMul,
        "idiv" => OpClass::IntDiv,
        "fadd" => OpClass::FpAdd,
        "fmul" => OpClass::FpMul,
        "fdiv" => OpClass::FpDiv,
        other => return Err(format!("unknown opcode class {other:?}")),
    })
}

/// Serializes a trace to the text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ballerino-trace v1 {}", trace.name);
    for op in &trace.ops {
        match op.class {
            OpClass::Load => {
                let m = op.mem.expect("load has mem");
                let _ = writeln!(
                    out,
                    "L {:#x} {} {} {:#x} {}",
                    op.pc,
                    reg_to_str(op.dst),
                    reg_to_str(op.srcs[0]),
                    m.addr,
                    m.size
                );
            }
            OpClass::Store => {
                let m = op.mem.expect("store has mem");
                let _ = writeln!(
                    out,
                    "S {:#x} {} {} {:#x} {}",
                    op.pc,
                    reg_to_str(op.srcs[0]),
                    reg_to_str(op.srcs[1]),
                    m.addr,
                    m.size
                );
            }
            OpClass::Branch => {
                let b = op.branch.expect("branch has info");
                let _ = writeln!(
                    out,
                    "B {:#x} {} {} {:#x}",
                    op.pc,
                    reg_to_str(op.srcs[0]),
                    if b.taken { "taken" } else { "not" },
                    b.target
                );
            }
            c => {
                let _ = writeln!(
                    out,
                    "C {:#x} {} {} {} {}",
                    op.pc,
                    class_to_str(c),
                    reg_to_str(op.dst),
                    reg_to_str(op.srcs[0]),
                    reg_to_str(op.srcs[1])
                );
            }
        }
    }
    out
}

fn parse_u64(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|_| format!("bad hex number {s:?}"))
    } else {
        u64::from_str(s).map_err(|_| format!("bad number {s:?}"))
    }
}

/// Parses a memory operand's size: non-zero, and with the exclusive end
/// `addr + size` inside a `u64`, so no consumer's range arithmetic can
/// overflow.
fn parse_mem(addr: u64, size: &str) -> Result<MemInfo, String> {
    let size: u8 = size.parse().map_err(|_| format!("bad size {size:?}"))?;
    let size = NonZeroU8::new(size).ok_or("zero access size")?;
    addr.checked_add(u64::from(size.get()))
        .ok_or_else(|| format!("byte range {addr:#x}+{size} ends past u64::MAX"))?;
    Ok(MemInfo { addr, size })
}

/// Parses the text format back into a [`Trace`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the line number on malformed input.
pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new("imported");
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |message: String| ParseTraceError {
            line: lineno,
            message,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(name) = rest.trim().strip_prefix("ballerino-trace v1") {
                trace.name = name.trim().to_string();
            }
            continue;
        }
        let mut f = line.split_whitespace();
        let kind = f.next().ok_or_else(|| err("empty record".into()))?;
        let mut next = |what: &str| -> Result<&str, ParseTraceError> {
            f.next().ok_or_else(|| ParseTraceError {
                line: lineno,
                message: format!("missing field {what}"),
            })
        };
        match kind {
            "C" => {
                let pc = parse_u64(next("pc")?).map_err(&err)?;
                let class = parse_class(next("class")?).map_err(&err)?;
                let dst = parse_reg(next("dst")?).map_err(&err)?;
                let s0 = parse_reg(next("src0")?).map_err(&err)?;
                let s1 = parse_reg(next("src1")?).map_err(&err)?;
                let dst = dst.ok_or_else(|| err("compute needs a destination".into()))?;
                trace.push(MicroOp::compute(pc, class, dst, [s0, s1]));
            }
            "L" => {
                let pc = parse_u64(next("pc")?).map_err(&err)?;
                let dst = parse_reg(next("dst")?)
                    .map_err(&err)?
                    .ok_or_else(|| err("load needs a destination".into()))?;
                let base = parse_reg(next("base")?).map_err(&err)?;
                let addr = parse_u64(next("addr")?).map_err(&err)?;
                let mem = parse_mem(addr, next("size")?).map_err(&err)?;
                let mut op = MicroOp::load(pc, dst, base, addr);
                op.mem = Some(mem);
                trace.push(op);
            }
            "S" => {
                let pc = parse_u64(next("pc")?).map_err(&err)?;
                let data = parse_reg(next("data")?).map_err(&err)?;
                let base = parse_reg(next("base")?).map_err(&err)?;
                let addr = parse_u64(next("addr")?).map_err(&err)?;
                let mem = parse_mem(addr, next("size")?).map_err(&err)?;
                let mut op = MicroOp::store(pc, data, base, addr);
                op.mem = Some(mem);
                trace.push(op);
            }
            "B" => {
                let pc = parse_u64(next("pc")?).map_err(&err)?;
                let src = parse_reg(next("src")?).map_err(&err)?;
                let taken = match next("taken")? {
                    "taken" => true,
                    "not" => false,
                    other => return Err(err(format!("bad direction {other:?}"))),
                };
                let target = parse_u64(next("target")?).map_err(&err)?;
                let mut op = MicroOp::branch(pc, src, taken, target);
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target,
                });
                trace.push(op);
            }
            other => return Err(err(format!("unknown record kind {other:?}"))),
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("roundtrip");
        t.push(MicroOp::alu(
            0x400,
            ArchReg::int(1),
            [Some(ArchReg::int(2)), None],
        ));
        t.push(MicroOp::compute(
            0x404,
            OpClass::FpMul,
            ArchReg::fp(3),
            [Some(ArchReg::fp(1)), Some(ArchReg::fp(2))],
        ));
        t.push(MicroOp::load(
            0x408,
            ArchReg::int(4),
            Some(ArchReg::int(1)),
            0x1000,
        ));
        t.push(MicroOp::store(0x40c, Some(ArchReg::int(4)), None, 0x1008));
        t.push(MicroOp::branch(0x410, Some(ArchReg::int(4)), true, 0x400));
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let text = to_text(&t);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.name, t.name);
        assert_eq!(back.ops, t.ops);
    }

    #[test]
    fn header_carries_the_name() {
        let text = to_text(&sample());
        assert!(text.starts_with("# ballerino-trace v1 roundtrip\n"));
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "# ballerino-trace v1 x\nC 0x400 ialu r1 - -\nZ nonsense\n";
        let e = from_text(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown record"));
    }

    #[test]
    fn missing_fields_are_errors() {
        let e = from_text("L 0x400 r1 -\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("missing field"));
    }

    #[test]
    fn bad_registers_are_errors() {
        // An unknown class, an out-of-range index (`ArchReg::int` would
        // assert), and a token starting with a multi-byte character (a
        // byte-offset split would panic) all surface as line errors.
        for (text, line) in [
            ("C 0x400 ialu x9 - -\n", 1),
            ("C 0x0 ialu r1 - -\nC 0x0 ialu r32 - -\n", 2),
            ("C 0x0 ialu f1 - f99\n", 1),
            ("C 0x0 ialu r1 - -\nC 0x4 ialu é1 - -\n", 2),
        ] {
            let e = from_text(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains("bad register"), "{text:?}: {e}");
        }
    }

    #[test]
    fn bad_memory_operands_are_errors() {
        // A zero size would underflow the last-byte bound in feature
        // extraction; a range past u64::MAX would overflow every
        // `addr + size`. Both surface as line errors, never a panic.
        for (text, line, what) in [
            ("L 0x400 r1 - 0x0 0\n", 1, "zero access size"),
            (
                "C 0x0 ialu r1 - -\nS 0x400 r1 - 0xffffffffffffffff 8\n",
                2,
                "past u64::MAX",
            ),
            ("L 0x0 r1 - 0xfffffffffffffff8 8\n", 1, "past u64::MAX"),
            ("S 0x0 r1 - 0x0 256\n", 1, "bad size"),
        ] {
            let e = from_text(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains(what), "{text:?}: {e}");
        }
        // The highest range whose end still fits is accepted.
        let t = from_text("L 0x0 r1 - 0xfffffffffffffff7 8\n").expect("parse");
        assert_eq!(t.ops[0].mem.unwrap().size.get(), 8);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\nC 0x400 ialu r1 - -\n\n";
        let t = from_text(text).expect("parse");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn generated_workload_traces_round_trip() {
        // Large-ish structural round-trip with every record kind.
        let mut t = Trace::new("mix");
        for i in 0..500u64 {
            match i % 4 {
                0 => t.push(MicroOp::alu(
                    0x400 + i,
                    ArchReg::int((i % 30) as u16),
                    [None, None],
                )),
                1 => t.push(MicroOp::load(0x400 + i, ArchReg::int(1), None, i * 8)),
                2 => t.push(MicroOp::store(
                    0x400 + i,
                    Some(ArchReg::int(1)),
                    None,
                    i * 8,
                )),
                _ => t.push(MicroOp::branch(0x400 + i, None, i % 3 == 0, 0x400)),
            }
        }
        let back = from_text(&to_text(&t)).expect("parse");
        assert_eq!(back.ops, t.ops);
    }
}
