//! The scheduler properties of `ballerino-sched`'s `sched_props` (issue
//! soundness, drain and flush exactness) on the P-IQ cluster: CES and
//! CES+MDA (no S-IQ) and the Ballerino presets. Loads and stores with
//! a handful of store sets are mixed in so MDA steering takes part.

#[path = "../../sched/tests/common/mod.rs"]
mod common;

use ballerino_core::{Ballerino, BallerinoConfig};
use ballerino_isa::rng::Rng64;
use ballerino_isa::OpClass;
use ballerino_mem::SsId;
use ballerino_sched::SchedUop;
use common::{arb_stream, chain_uops, check_flush_is_exact, check_issues_soundly_and_drains};

fn configs() -> Vec<BallerinoConfig> {
    let ces = BallerinoConfig::ces();
    vec![
        ces.clone(),
        BallerinoConfig {
            mda_steering: true,
            ..ces.clone()
        },
        BallerinoConfig {
            num_piqs: 2,
            piq_entries: 7,
            ..ces
        },
        BallerinoConfig::eight_wide(),
        BallerinoConfig::twelve(),
        BallerinoConfig::step1(),
        BallerinoConfig::step2(),
        BallerinoConfig::step3_ideal(),
        BallerinoConfig::ldt(),
        BallerinoConfig::four_wide(),
        BallerinoConfig::two_wide(),
    ]
}

/// [`chain_uops`] with about a third of the μops turned into loads and
/// stores over four store sets.
fn mixed_uops(rng: &mut Rng64) -> Vec<SchedUop> {
    let mut uops = chain_uops(&arb_stream(rng));
    for u in &mut uops {
        match rng.below(6) {
            0 => u.class = OpClass::Load,
            1 => u.class = OpClass::Store,
            _ => continue,
        }
        u.ssid = Some(SsId(rng.below(4) as u8));
    }
    uops
}

#[test]
fn cluster_issues_soundly_and_drains() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0xC1_0001 + case);
        let uops = mixed_uops(&mut rng);
        for cfg in configs() {
            check_issues_soundly_and_drains(&mut Ballerino::new(cfg), &uops);
        }
    }
}

#[test]
fn cluster_flush_is_exact() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0xC1_0002 + case);
        let n = rng.index(39) + 1;
        let flush_at = rng.below(39) + 1;
        for cfg in configs() {
            check_flush_is_exact(&mut Ballerino::new(cfg), n, flush_at);
        }
    }
}
