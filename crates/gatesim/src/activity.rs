//! Cycle-accurate switching-activity simulation for the whole test chip.
//!
//! [`ActivitySimulator`] advances the chip one clock cycle at a time and
//! reports, for every activity source (AES core, UART, PSA control,
//! clock tree share, each Trojan), how many gate outputs toggled that
//! cycle. Downstream, `crate::current` turns these counts into current
//! waveforms and `psa-field` turns currents into sensor voltages.
//!
//! The AES datapath's data-dependent activity uses the standard
//! side-channel abstraction: toggles per cycle proportional to the
//! Hamming distance of consecutive round states of a *real* AES-128
//! encryption (see [`crate::aes`]).

use crate::aes::Aes128;
use crate::lfsr::Lfsr;
use crate::trojan::{CycleContext, Trojan, TrojanKind};
use crate::uart::Uart;
use std::collections::BTreeMap;

/// Cycles per AES block in the round-per-cycle core: 1 load + 10 rounds
/// + 1 writeback.
pub const BLOCK_CYCLES: u64 = 12;

/// Activity sources on the chip (mapped to floorplan modules by
/// `psa-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// The AES-128 datapath and its clock share.
    AesCore,
    /// UART + FIFO.
    UartFifo,
    /// PSA control decoder (nearly static).
    PsaControl,
    /// Trojan T1.
    TrojanT1,
    /// Trojan T2.
    TrojanT2,
    /// Trojan T3.
    TrojanT3,
    /// Trojan T4.
    TrojanT4,
}

impl Source {
    /// All sources in deterministic order.
    pub const ALL: [Source; 7] = [
        Source::AesCore,
        Source::UartFifo,
        Source::PsaControl,
        Source::TrojanT1,
        Source::TrojanT2,
        Source::TrojanT3,
        Source::TrojanT4,
    ];
}

/// What the AES core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AesMode {
    /// Powered up, clock running, no encryption — the paper's *noise*
    /// condition for the SNR measurement.
    Idle,
    /// Back-to-back encryption of LFSR-generated plaintexts (the
    /// `en_LFSR` mode); the paper's *signal* condition.
    #[default]
    Continuous,
    /// Encrypt one block per UART block period (bursty; bench-realistic).
    UartPaced,
}

/// Chip-level simulation configuration.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// System clock, Hz (paper: 33 MHz crystal).
    pub clk_hz: f64,
    /// AES key.
    pub key: [u8; 16],
    /// Operating mode.
    pub aes_mode: AesMode,
    /// External enable pins `en_T1..en_T4`.
    pub trojan_enables: [bool; 4],
    /// Force every plaintext to begin with T2's `16'hAAAA` trigger
    /// prefix (the experiment that activates T2).
    pub force_t2_trigger: bool,
    /// UART baud rate for [`AesMode::UartPaced`].
    pub uart_baud: u32,
    /// Seed for the plaintext LFSR.
    pub seed: u64,
    /// Main-circuit cell counts: (aes, uart, psa_control).
    pub cell_counts: (usize, usize, usize),
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            clk_hz: 33.0e6,
            key: [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            aes_mode: AesMode::Continuous,
            trojan_enables: [false; 4],
            force_t2_trigger: false,
            uart_baud: 1_000_000,
            seed: 0x5EED,
            cell_counts: (21_200, 800, 283),
        }
    }
}

/// Per-source toggle counts over a window of cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityTrace {
    /// First absolute cycle of the window.
    pub start_cycle: u64,
    /// Toggle counts per source, each of the same length.
    pub per_source: BTreeMap<Source, Vec<f64>>,
}

impl ActivityTrace {
    /// Window length in cycles.
    pub fn cycles(&self) -> usize {
        self.per_source.values().next().map_or(0, |v| v.len())
    }
}

/// The stateful chip activity simulator.
///
/// # Example
///
/// ```
/// use psa_gatesim::activity::{ActivitySimulator, ChipConfig, Source};
///
/// let mut sim = ActivitySimulator::new(ChipConfig::default());
/// let trace = sim.advance(1000);
/// assert_eq!(trace.cycles(), 1000);
/// // The AES core dominates chip activity while encrypting.
/// let total = |s: Source| trace.per_source[&s].iter().sum::<f64>();
/// assert!(total(Source::AesCore) > total(Source::UartFifo));
/// ```
#[derive(Debug, Clone)]
pub struct ActivitySimulator {
    config: ChipConfig,
    aes: Aes128,
    plaintext_lfsr: Lfsr,
    uart: Uart,
    trojans: Vec<Trojan>,
    cycle: u64,
    // Current block state.
    block_hds: [u32; 11],
    block_plaintext: [u8; 16],
    block_start: u64,
    uart_byte_index: u64,
}

impl ActivitySimulator {
    /// Fraction of a module's cells toggled by the clock tree every cycle
    /// while the module is operating.
    pub const CLOCK_TREE_FACTOR: f64 = 0.045;
    /// Residual per-cycle toggle fraction when the chip idles: the clock
    /// is gated and only always-on logic (reset sync, a few counters)
    /// ticks. This is the paper's "powered-up, no encryption" noise
    /// condition.
    pub const IDLE_FACTOR: f64 = 0.0015;
    /// Peak fraction of AES cells toggling at full 128-bit state flip.
    pub const AES_DATA_FACTOR: f64 = 0.38;

    /// Creates a simulator at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if the UART baud rate is invalid for the configured clock
    /// (the default configuration is always valid).
    pub fn new(config: ChipConfig) -> Self {
        let aes = Aes128::new(&config.key);
        let uart = Uart::new(config.uart_baud, config.clk_hz)
            .expect("chip config must carry a valid baud rate");
        let trojans = TrojanKind::ALL
            .iter()
            .map(|&k| Trojan::new(k, &config.key))
            .collect();
        let mut sim = ActivitySimulator {
            aes,
            plaintext_lfsr: Lfsr::new_31bit(config.seed as u32 | 1),
            uart,
            trojans,
            cycle: 0,
            block_hds: [0; 11],
            block_plaintext: [0u8; 16],
            block_start: 0,
            uart_byte_index: 0,
            config,
        };
        sim.load_next_block();
        sim
    }

    /// Absolute cycle counter.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn load_next_block(&mut self) {
        let mut pt = self.plaintext_lfsr.next_block();
        if self.config.force_t2_trigger {
            pt[0] = 0xAA;
            pt[1] = 0xAA;
        }
        self.block_plaintext = pt;
        self.block_hds = self.aes.round_hamming_distances(&pt);
        self.block_start = self.cycle;
    }

    /// `(busy, block_cycle)` for the current cycle under the configured
    /// mode.
    fn aes_schedule(&self) -> (bool, u64) {
        match self.config.aes_mode {
            AesMode::Idle => (false, 0),
            AesMode::Continuous => {
                let bc = (self.cycle - self.block_start) % BLOCK_CYCLES;
                (true, bc)
            }
            AesMode::UartPaced => {
                let period = self.uart.cycles_per_block().max(BLOCK_CYCLES);
                let phase = (self.cycle - self.block_start) % period;
                (phase < BLOCK_CYCLES, phase.min(BLOCK_CYCLES - 1))
            }
        }
    }

    /// Advances `n` cycles, returning the toggle counts.
    pub fn advance(&mut self, n: usize) -> ActivityTrace {
        let start_cycle = self.cycle;
        let (aes_cells, uart_cells, ctrl_cells) = self.config.cell_counts;
        // One lane per source, in `Source::ALL` order.
        let mut lanes: [Vec<f64>; 7] = std::array::from_fn(|_| Vec::with_capacity(n));
        let [aes_lane, uart_lane, ctrl_lane, trojan_lanes @ ..] = &mut lanes;

        let clock_factor = match self.config.aes_mode {
            AesMode::Idle => Self::IDLE_FACTOR,
            _ => Self::CLOCK_TREE_FACTOR,
        };
        for _ in 0..n {
            let (busy, block_cycle) = self.aes_schedule();

            // AES core: clock tree + data-dependent round activity.
            let mut aes_toggles = aes_cells as f64 * clock_factor;
            if busy {
                let hd = if block_cycle == 0 {
                    // Load: plaintext into the state register.
                    crate::aes::hamming_weight(&self.block_plaintext) as f64
                } else if (block_cycle as usize) <= self.block_hds.len() {
                    self.block_hds[block_cycle as usize - 1] as f64
                } else {
                    12.0 // writeback cycle: output register load
                };
                aes_toggles += aes_cells as f64 * Self::AES_DATA_FACTOR * hd / 128.0;
            }
            aes_lane.push(aes_toggles);

            // UART: clock share plus streaming activity when paced.
            let mut uart_toggles = uart_cells as f64 * clock_factor;
            if matches!(self.config.aes_mode, AesMode::UartPaced) {
                let byte = self.block_plaintext[(self.uart_byte_index % 16) as usize];
                uart_toggles +=
                    uart_cells as f64 * 0.02 * self.uart.activity_per_cycle(byte) * 100.0;
                if self.cycle % self.uart.cycles_per_byte().max(1) == 0 {
                    self.uart_byte_index += 1;
                }
            }
            uart_lane.push(uart_toggles);

            // PSA control: static except its clock share.
            ctrl_lane.push(ctrl_cells as f64 * clock_factor);

            // Trojans, in `TrojanKind::ALL` order like their lanes.
            let ctx_template = CycleContext {
                cycle: self.cycle,
                clk_hz: self.config.clk_hz,
                plaintext: self.block_plaintext,
                block_cycle: block_cycle as u8,
                aes_busy: busy,
                external_enable: false,
            };
            for ((trojan, lane), &enabled) in self
                .trojans
                .iter_mut()
                .zip(trojan_lanes.iter_mut())
                .zip(&self.config.trojan_enables)
            {
                let mut c = ctx_template;
                c.external_enable = enabled;
                lane.push(trojan.step(&c));
            }

            // Advance the block schedule.
            self.cycle += 1;
            match self.config.aes_mode {
                AesMode::Continuous => {
                    if (self.cycle - self.block_start) % BLOCK_CYCLES == 0 {
                        self.load_next_block();
                    }
                }
                AesMode::UartPaced => {
                    let period = self.uart.cycles_per_block().max(BLOCK_CYCLES);
                    if (self.cycle - self.block_start) % period == 0 {
                        self.load_next_block();
                    }
                }
                AesMode::Idle => {}
            }
        }
        ActivityTrace {
            start_cycle,
            per_source: Source::ALL.into_iter().zip(lanes).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total toggles of one source over the window.
    fn total(t: &ActivityTrace, source: Source) -> f64 {
        t.per_source[&source].iter().sum()
    }

    #[test]
    fn trace_shape() {
        let mut sim = ActivitySimulator::new(ChipConfig::default());
        let t = sim.advance(500);
        assert_eq!(t.cycles(), 500);
        assert_eq!(t.start_cycle, 0);
        assert_eq!(t.per_source.len(), Source::ALL.len());
        let t2 = sim.advance(100);
        assert_eq!(t2.start_cycle, 500);
    }

    #[test]
    fn idle_mode_is_clock_gated_residual() {
        let mut sim = ActivitySimulator::new(ChipConfig {
            aes_mode: AesMode::Idle,
            ..ChipConfig::default()
        });
        let t = sim.advance(1000);
        let aes = &t.per_source[&Source::AesCore];
        let expected = 21_200.0 * ActivitySimulator::IDLE_FACTOR;
        for &v in aes {
            assert!((v - expected).abs() < 1e-9);
        }
        // The idle chip is far quieter than an operating one.
        const { assert!(ActivitySimulator::IDLE_FACTOR < ActivitySimulator::CLOCK_TREE_FACTOR / 10.0) }
    }

    #[test]
    fn continuous_mode_adds_data_activity() {
        let mut idle = ActivitySimulator::new(ChipConfig {
            aes_mode: AesMode::Idle,
            ..ChipConfig::default()
        });
        let mut enc = ActivitySimulator::new(ChipConfig::default());
        let ti = idle.advance(1200);
        let te = enc.advance(1200);
        assert!(
            total(&te, Source::AesCore) > 1.5 * total(&ti, Source::AesCore),
            "encryption must add activity"
        );
    }

    #[test]
    fn activity_varies_with_data() {
        let mut sim = ActivitySimulator::new(ChipConfig::default());
        let t = sim.advance(120);
        let aes = &t.per_source[&Source::AesCore];
        let mean: f64 = aes.iter().sum::<f64>() / aes.len() as f64;
        let var: f64 = aes.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / aes.len() as f64;
        assert!(var > 1.0, "AES activity should be data-dependent");
    }

    #[test]
    fn dormant_trojans_contribute_little() {
        let mut sim = ActivitySimulator::new(ChipConfig::default());
        let t = sim.advance(2000);
        for kind in [TrojanKind::T2, TrojanKind::T3, TrojanKind::T4] {
            let toggles = total(&t, Source::ALL[3 + kind.index()]);
            assert!(toggles < 2000.0 * 3.0, "{kind} dormant total {toggles}");
        }
    }

    #[test]
    fn enabled_trojan_is_loud() {
        let mut cfg = ChipConfig::default();
        cfg.trojan_enables[TrojanKind::T4.index()] = true;
        let mut sim = ActivitySimulator::new(cfg);
        let t = sim.advance(2000);
        let t4 = total(&t, Source::TrojanT4);
        // T4 peak ≈ 2181 × 0.55 ≈ 1200 toggles on pattern-high cycles.
        assert!(t4 > 2000.0 * 100.0, "T4 total {t4}");
        assert!(sim.trojans[TrojanKind::T4.index()].is_triggered());
    }

    #[test]
    fn t2_activates_with_forced_trigger_plaintexts() {
        let cfg = ChipConfig {
            force_t2_trigger: true,
            ..Default::default()
        };
        let mut sim = ActivitySimulator::new(cfg);
        let t = sim.advance(2000);
        assert!(sim.trojans[TrojanKind::T2.index()].is_triggered());
        let loud = total(&t, Source::TrojanT2);

        let mut quiet_sim = ActivitySimulator::new(ChipConfig::default());
        let tq = quiet_sim.advance(2000);
        let quiet = total(&tq, Source::TrojanT2);
        assert!(loud > 50.0 * quiet, "T2 loud {loud} vs quiet {quiet}");
    }

    #[test]
    fn uart_paced_is_bursty() {
        let mut sim = ActivitySimulator::new(ChipConfig {
            aes_mode: AesMode::UartPaced,
            ..ChipConfig::default()
        });
        let period = 330 * 16; // 1 Mbaud at 33 MHz
        let t = sim.advance(2 * period);
        let aes = &t.per_source[&Source::AesCore];
        let clock_only = 21_200.0 * ActivitySimulator::CLOCK_TREE_FACTOR;
        let busy_cycles = aes.iter().filter(|&&v| v > clock_only + 1.0).count();
        // Only ~12 of every 5280 cycles encrypt.
        assert!((12..160).contains(&busy_cycles), "busy {busy_cycles}");
    }

    #[test]
    fn trojan_lanes_follow_source_order() {
        // `advance` fills the lanes after the three chip sources in
        // `TrojanKind::ALL` order.
        let lanes: Vec<Source> = TrojanKind::ALL
            .iter()
            .map(|kind| Source::ALL[3 + kind.index()])
            .collect();
        assert_eq!(
            lanes,
            [
                Source::TrojanT1,
                Source::TrojanT2,
                Source::TrojanT3,
                Source::TrojanT4
            ]
        );
    }

    #[test]
    fn deterministic_given_config() {
        let mut a = ActivitySimulator::new(ChipConfig::default());
        let mut b = ActivitySimulator::new(ChipConfig::default());
        assert_eq!(a.advance(333), b.advance(333));
    }

    #[test]
    fn windows_are_continuous() {
        // advance(2n) == advance(n) ++ advance(n).
        let mut one = ActivitySimulator::new(ChipConfig::default());
        let whole = one.advance(480);
        let mut two = ActivitySimulator::new(ChipConfig::default());
        let first = two.advance(240);
        let second = two.advance(240);
        for s in Source::ALL {
            let joined: Vec<f64> = first.per_source[&s]
                .iter()
                .chain(&second.per_source[&s])
                .copied()
                .collect();
            assert_eq!(&joined, &whole.per_source[&s], "{s:?}");
        }
    }
}
