//! The chip half of a record pinned bit for bit.
//!
//! Every config below runs `advance(2048)` then `advance(8192)` and
//! synthesizes both windows' currents through one reused
//! `trace_to_currents_into` buffer. The FNV-1a hashes over `to_bits` of
//! the toggle counts and of the currents were recorded from the
//! bit-at-a-time LFSR, `Vec`-returning AES round distances and
//! push-per-sample current synthesis, so any later rewrite of those
//! layers must reproduce them exactly.

use psa_gatesim::activity::{ActivitySimulator, ActivityTrace, AesMode, ChipConfig, Source};
use psa_gatesim::current::trace_to_currents_into;

/// Per-source charges: a mix of explicit values and the 2.5 fC default.
const CHARGES_FC: [(Source, f64); 3] = [
    (Source::AesCore, 3.9),
    (Source::UartFifo, 2.2),
    (Source::TrojanT1, 1.7),
];

/// `(config, trace hash, currents hash)` recorded before the block-rate
/// rewrite of the LFSR, AES round distances and current synthesis.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("continuous", 0xc003_3258_4605_21fd, 0xdcbf_35b8_1110_749b),
    ("uart_paced", 0x3780_d23c_f06d_5cbf, 0xc33a_cb13_7c94_601d),
    ("idle", 0x2c46_535c_8851_1585, 0x4dfc_37ae_e2c3_7b9c),
    (
        "force_t2_trigger",
        0xfbf0_cda7_5da8_9deb,
        0xb7a8_77aa_346e_7a81,
    ),
    ("t1_enabled", 0x820b_9fa4_b526_6808, 0xb38e_6fd8_f91a_3b48),
    ("t2_enabled", 0x98f7_1f12_ce03_3faf, 0xd9a9_eed1_f2b7_5ac0),
    ("t3_enabled", 0x64a4_94f7_91aa_e235, 0x9b48_e0ee_52ba_734d),
    ("t4_enabled", 0x29e4_317a_d6b7_8049, 0x6609_82be_c069_5ed8),
];

fn config(name: &str) -> ChipConfig {
    let base = ChipConfig::default();
    let enabled = |i: usize| {
        let mut trojan_enables = [false; 4];
        trojan_enables[i] = true;
        ChipConfig {
            trojan_enables,
            ..ChipConfig::default()
        }
    };
    match name {
        "continuous" => base,
        "uart_paced" => ChipConfig {
            aes_mode: AesMode::UartPaced,
            ..base
        },
        "idle" => ChipConfig {
            aes_mode: AesMode::Idle,
            ..base
        },
        "force_t2_trigger" => ChipConfig {
            force_t2_trigger: true,
            ..base
        },
        "t1_enabled" => enabled(0),
        "t2_enabled" => enabled(1),
        "t3_enabled" => enabled(2),
        "t4_enabled" => enabled(3),
        other => panic!("unknown config {other}"),
    }
}

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn hash_trace(hash: &mut u64, trace: &ActivityTrace) {
    fnv(hash, trace.start_cycle);
    for source in Source::ALL {
        let toggles = &trace.per_source[&source];
        fnv(hash, toggles.len() as u64);
        for v in toggles {
            fnv(hash, v.to_bits());
        }
    }
}

fn hash_currents(hash: &mut u64, currents: &[(Source, Vec<f64>)]) {
    for (source, current) in currents {
        fnv(
            hash,
            Source::ALL.iter().position(|s| s == source).unwrap() as u64,
        );
        fnv(hash, current.len() as u64);
        for v in current {
            fnv(hash, v.to_bits());
        }
    }
}

/// `(trace hash, currents hash)` of one config's two windows.
fn chip_half_hashes(name: &str) -> (u64, u64) {
    let config = config(name);
    let clk_hz = config.clk_hz;
    let mut sim = ActivitySimulator::new(config);
    let mut trace_hash = FNV_OFFSET;
    let mut current_hash = FNV_OFFSET;
    let mut currents = Vec::new();
    for n in [2048, 8192] {
        let trace = sim.advance(n);
        hash_trace(&mut trace_hash, &trace);
        trace_to_currents_into(&trace, &CHARGES_FC, clk_hz, &mut currents);
        hash_currents(&mut current_hash, &currents);
    }
    (trace_hash, current_hash)
}

#[test]
fn chip_half_matches_recorded_hashes() {
    let mut mismatches = Vec::new();
    for (name, trace_hash, current_hash) in GOLDEN {
        let got = chip_half_hashes(name);
        if got != (trace_hash, current_hash) {
            mismatches.push(format!("(\"{name}\", {:#018x}, {:#018x})", got.0, got.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "changed chip half:\n{}",
        mismatches.join("\n")
    );
}
