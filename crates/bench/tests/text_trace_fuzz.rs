//! Untrusted text traces never panic: seeded random traces with
//! near-`u64::MAX` addresses, odd access sizes, wild branch targets and
//! the occasional malformed field go through `from_text` →
//! `TraceDag::resolve` → `TraceFeatures::extract` → the tier-0 estimate →
//! every registry kind at widths 2 and 8, at the preset IQ budget and at
//! a small or odd one. `from_text` may return `Err`; nothing may panic.

use ballerino_analytic::predict_point;
use ballerino_bench::KIND_REGISTRY;
use ballerino_isa::rng::Rng64;
use ballerino_isa::{from_text, MemGeometry, TraceDag, TraceFeatures};
use ballerino_sim::{run_point, DesignPoint, Width};
use std::fmt::Write as _;

/// Traces per run.
const CASES: u64 = 256;
/// Records per trace, at most.
const MAX_RECORDS: usize = 48;

/// Random record fields. A `strict` generator writes only fields the
/// parser accepts; a loose one sometimes writes a malformed one.
struct Fields {
    rng: Rng64,
    strict: bool,
}

impl Fields {
    fn bad(&mut self, p: f64) -> bool {
        !self.strict && self.rng.chance(p)
    }

    /// A pc or branch target: small, near `u64::MAX`, or anything.
    fn number(&mut self) -> String {
        if self.bad(0.05) {
            return "0xzz".into();
        }
        match self.rng.below(3) {
            0 => format!("{:#x}", u64::MAX - self.rng.below(300)),
            1 => format!("{:#x}", self.rng.next_u64()),
            _ => format!("{:#x}", 0x1000 + 8 * self.rng.below(512)),
        }
    }

    /// A register: absent, integer or FP (out of range when loose).
    fn reg(&mut self) -> String {
        let n = if self.bad(0.05) {
            32
        } else {
            self.rng.below(32)
        };
        match self.rng.below(10) {
            0 => "-".into(),
            1..=6 => format!("r{n}"),
            _ => format!("f{n}"),
        }
    }

    /// A destination register: loose generators may leave it absent,
    /// which compute and load records reject.
    fn dst(&mut self) -> String {
        match self.reg() {
            r if r == "-" && self.strict => "r1".into(),
            r => r,
        }
    }

    /// An address and an access size: mostly odd sizes, often ending at
    /// `u64::MAX` (past it, or zero-sized, when loose).
    fn access(&mut self) -> String {
        let size = if self.bad(0.05) {
            0
        } else {
            2 * self.rng.below(128) + 1
        };
        let addr = match self.rng.below(3) {
            0 if self.bad(0.3) => u64::MAX - self.rng.below(size.max(1)),
            0 => u64::MAX - size - self.rng.below(300),
            1 => self.rng.next_u64() >> self.rng.below(64),
            _ => 0x1000 + 8 * self.rng.below(4096),
        };
        format!("{addr:#x} {size}")
    }

    fn record(&mut self) -> String {
        let pc = self.number();
        match self.rng.below(20) {
            _ if self.bad(0.02) => format!("X {pc}"),
            0..=7 => {
                let class = ["ialu", "imul", "idiv", "fadd", "fmul", "fdiv"][self.rng.index(6)];
                format!(
                    "C {pc} {class} {} {} {}",
                    self.dst(),
                    self.reg(),
                    self.reg()
                )
            }
            8..=12 => {
                format!("L {pc} {} {} {}", self.dst(), self.reg(), self.access())
            }
            13..=15 => format!("S {pc} {} {} {}", self.reg(), self.reg(), self.access()),
            _ => {
                let dir = ["taken", "not"][self.rng.index(2)];
                format!("B {pc} {} {dir} {}", self.reg(), self.number())
            }
        }
    }
}

/// A random text trace; three in four are strict.
fn random_text(seed: u64) -> String {
    let mut rng = Rng64::new(seed);
    let strict = rng.below(4) != 0;
    let mut f = Fields { rng, strict };
    let mut s = String::from("# ballerino-trace v1 fuzz\n");
    for _ in 0..f.rng.index(MAX_RECORDS) + 1 {
        let _ = writeln!(s, "{}", f.record());
    }
    s
}

#[test]
fn random_text_traces_never_panic() {
    let mut parsed = 0;
    for case in 0..CASES {
        let text = random_text(0xF0_2200 + case);
        let Ok(trace) = from_text(&text) else {
            continue;
        };
        parsed += 1;
        let dag = TraceDag::resolve(&trace);
        let feat = TraceFeatures::extract(&trace, &dag, &MemGeometry::default());
        let small_iq = 1 + 2 * (case as usize % 20);
        for info in KIND_REGISTRY {
            for width in [Width::Two, Width::Eight] {
                for iq in [None, Some(small_iq)] {
                    let point = DesignPoint {
                        iq_entries: iq,
                        ..DesignPoint::new(info.kind, width)
                    };
                    let _ = predict_point(&point, &dag, &feat, "fuzz");
                    let r = run_point(&point, &trace);
                    assert_eq!(r.committed, trace.len() as u64, "{}", point.label());
                }
            }
        }
    }
    // Some traces must get past the parser, or the loop tests nothing.
    assert!(
        parsed >= CASES / 4,
        "only {parsed} of {CASES} traces parsed"
    );
}
