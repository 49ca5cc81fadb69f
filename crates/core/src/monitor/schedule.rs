//! Activation schedules: what happens *to* the chip while the stream
//! runs.
//!
//! The batch evaluation fixes one [`Scenario`] per campaign; the
//! run-time monitor instead watches a live chip whose state changes
//! under it — a Trojan's trigger fires mid-stream, the supply drifts, an
//! operator rotates the AES key. An [`ActivationSchedule`] scripts those
//! changes on the record clock: record `r` of the stream is acquired
//! under [`ActivationSchedule::scenario_at`]`(r)`, a **pure function**
//! of the record index, which is what keeps whole monitor sessions
//! deterministic (and fan-out-safe) on the campaign engine.

use crate::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;

/// One scripted change to the chip's operating state.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleChange {
    /// The Trojan's trigger condition fires: its payload activates.
    TrojanOn(TrojanKind),
    /// The Trojan's payload deactivates (trigger window ends).
    TrojanOff(TrojanKind),
    /// Supply voltage steps to a new value, V.
    SetVdd(f64),
    /// Ambient temperature steps to a new value, °C.
    SetTempC(f64),
    /// Supply voltage ramps linearly from its current value to `to`
    /// over `over_records` stream records (an operating-condition
    /// drift; `over_records == 0` steps immediately).
    RampVdd {
        /// Target supply voltage, V.
        to: f64,
        /// Records the ramp spans.
        over_records: usize,
    },
    /// Ambient temperature ramps linearly from its current value to
    /// `to` over `over_records` stream records.
    RampTempC {
        /// Target temperature, °C.
        to: f64,
        /// Records the ramp spans.
        over_records: usize,
    },
    /// The AES key is rotated (a legitimate run-time event the monitor
    /// must *not* flag).
    SetKey([u8; 16]),
}

/// A [`ScheduleChange`] pinned to the stream record at which it takes
/// effect.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStep {
    /// Record index (0-based) from which the change applies.
    pub at_record: usize,
    /// The change itself.
    pub change: ScheduleChange,
}

/// A linear ramp in progress.
#[derive(Debug, Clone, Copy)]
struct Ramp {
    start_record: usize,
    from: f64,
    to: f64,
    over_records: usize,
}

impl Ramp {
    fn value_at(&self, record: usize) -> f64 {
        if self.over_records == 0 || record >= self.start_record + self.over_records {
            return self.to;
        }
        let frac = (record - self.start_record) as f64 / self.over_records as f64;
        self.from + (self.to - self.from) * frac
    }

    fn done_at(&self, record: usize) -> bool {
        record >= self.start_record + self.over_records
    }
}

/// A scripted stream: a base [`Scenario`], a horizon in records, and
/// the changes applied along the way.
///
/// # Example
///
/// ```
/// use psa_core::monitor::{ActivationSchedule, ScheduleChange};
/// use psa_core::scenario::Scenario;
/// use psa_gatesim::trojan::TrojanKind;
///
/// let s = ActivationSchedule::constant(Scenario::baseline(), 8)
///     .step(3, ScheduleChange::TrojanOn(TrojanKind::T1));
/// assert_eq!(s.first_activation_record(), Some(3));
/// assert!(s.scenario_at(2).trojan.is_none());
/// assert_eq!(s.scenario_at(3).trojan, Some(TrojanKind::T1));
/// // Per-record seeds advance deterministically from the base seed.
/// assert_eq!(s.scenario_at(5).seed, s.base().seed + 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationSchedule {
    base: Scenario,
    horizon: usize,
    steps: Vec<ScheduleStep>,
}

impl ActivationSchedule {
    /// A schedule that holds `base` unchanged for `horizon` records —
    /// the shape of the Sec. VI-D MTTD sessions, under which the
    /// streaming monitor coincides bit-for-bit with the historical batch
    /// replay loop.
    pub fn constant(base: Scenario, horizon: usize) -> Self {
        ActivationSchedule {
            base,
            horizon,
            steps: Vec::new(),
        }
    }

    /// Convenience: a quiet baseline stream on which `kind` activates at
    /// `at_record`.
    pub fn trojan_at(kind: TrojanKind, at_record: usize, horizon: usize) -> Self {
        ActivationSchedule::constant(Scenario::baseline(), horizon)
            .step(at_record, ScheduleChange::TrojanOn(kind))
    }

    /// Appends a scripted change (kept sorted by record; changes at the
    /// same record apply in insertion order).
    pub fn step(mut self, at_record: usize, change: ScheduleChange) -> Self {
        let insert_at = self
            .steps
            .iter()
            .position(|s| s.at_record > at_record)
            .unwrap_or(self.steps.len());
        self.steps
            .insert(insert_at, ScheduleStep { at_record, change });
        self
    }

    /// Overrides the base scenario's seed (per-session seeding for
    /// multi-seed campaigns; record seeds derive from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }

    /// The base scenario the stream starts from.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Stream length in records.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The effective scenario of stream record `record`: the base with
    /// every change at or before `record` applied, ramps interpolated,
    /// and the record-advanced seed (`base.seed + record`) — exactly the
    /// per-trace seeding of the batch MTTD replay.
    pub fn scenario_at(&self, record: usize) -> Scenario {
        let mut scenario = self.base.clone();
        // Deduplicated: a base scenario listing a kind as both primary
        // and extra must not re-emit the duplicate at every record.
        let mut active: Vec<TrojanKind> = scenario.active_trojans();
        let mut vdd_ramp: Option<Ramp> = None;
        let mut temp_ramp: Option<Ramp> = None;

        // Walk the record clock so ramps capture the value current at
        // their own start, whatever earlier steps did.
        for r in 0..=record {
            for s in self.steps.iter().filter(|s| s.at_record == r) {
                match s.change {
                    ScheduleChange::TrojanOn(k) => {
                        if !active.contains(&k) {
                            active.push(k);
                        }
                    }
                    ScheduleChange::TrojanOff(k) => active.retain(|&a| a != k),
                    ScheduleChange::SetVdd(v) => {
                        scenario.vdd = v;
                        vdd_ramp = None;
                    }
                    ScheduleChange::SetTempC(t) => {
                        scenario.temp_c = t;
                        temp_ramp = None;
                    }
                    ScheduleChange::RampVdd { to, over_records } => {
                        vdd_ramp = Some(Ramp {
                            start_record: r,
                            from: scenario.vdd,
                            to,
                            over_records,
                        });
                    }
                    ScheduleChange::RampTempC { to, over_records } => {
                        temp_ramp = Some(Ramp {
                            start_record: r,
                            from: scenario.temp_c,
                            to,
                            over_records,
                        });
                    }
                    ScheduleChange::SetKey(key) => scenario.key = key,
                }
            }
            if let Some(ramp) = vdd_ramp {
                scenario.vdd = ramp.value_at(r);
                if ramp.done_at(r) {
                    vdd_ramp = None;
                }
            }
            if let Some(ramp) = temp_ramp {
                scenario.temp_c = ramp.value_at(r);
                if ramp.done_at(r) {
                    temp_ramp = None;
                }
            }
        }

        scenario.trojan = active.first().copied();
        scenario.extra_trojans = if active.len() > 1 {
            active[1..].to_vec()
        } else {
            Vec::new()
        };
        let seed = scenario.seed.wrapping_add(record as u64);
        scenario.with_seed(seed)
    }

    /// Whether any Trojan payload is active during record `record`.
    pub fn trojan_active_at(&self, record: usize) -> bool {
        self.scenario_at(record).trojan.is_some()
    }

    /// The first record with an active Trojan (the MTTD clock's zero),
    /// or `None` for a Trojan-free stream.
    pub fn first_activation_record(&self) -> Option<usize> {
        (0..self.horizon).find(|&r| self.trojan_active_at(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_reproduces_batch_seeding() {
        let base = Scenario::trojan_active(TrojanKind::T3).with_seed(42);
        let s = ActivationSchedule::constant(base.clone(), 5);
        for r in 0..5 {
            let expect = base.clone().with_seed(base.seed + r as u64);
            assert_eq!(s.scenario_at(r), expect);
        }
        assert_eq!(s.first_activation_record(), Some(0));
    }

    #[test]
    fn trojan_toggles_on_and_off() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 10)
            .step(2, ScheduleChange::TrojanOn(TrojanKind::T2))
            .step(5, ScheduleChange::TrojanOff(TrojanKind::T2));
        assert!(!s.trojan_active_at(1));
        assert!(s.trojan_active_at(2));
        assert!(s.trojan_active_at(4));
        assert!(!s.trojan_active_at(5));
        assert_eq!(s.first_activation_record(), Some(2));
    }

    #[test]
    fn multi_trojan_overlap_orders_primary_first() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 8)
            .step(1, ScheduleChange::TrojanOn(TrojanKind::T1))
            .step(3, ScheduleChange::TrojanOn(TrojanKind::T4))
            .step(5, ScheduleChange::TrojanOff(TrojanKind::T1));
        let at4 = s.scenario_at(4);
        assert_eq!(at4.trojan, Some(TrojanKind::T1));
        assert_eq!(at4.extra_trojans, vec![TrojanKind::T4]);
        let at5 = s.scenario_at(5);
        assert_eq!(at5.trojan, Some(TrojanKind::T4));
        assert!(at5.extra_trojans.is_empty());
    }

    #[test]
    fn duplicate_trojan_on_is_idempotent() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 8)
            .step(1, ScheduleChange::TrojanOn(TrojanKind::T3))
            .step(2, ScheduleChange::TrojanOn(TrojanKind::T3));
        let at3 = s.scenario_at(3);
        assert_eq!(at3.trojan, Some(TrojanKind::T3));
        assert!(at3.extra_trojans.is_empty());
    }

    #[test]
    fn base_scenario_duplicates_are_deduped_per_record() {
        // A base scenario that lists one kind as both primary and extra
        // (possible through direct field construction) must not
        // double-activate it at every stream record.
        let base = Scenario {
            trojan: Some(TrojanKind::T2),
            extra_trojans: vec![TrojanKind::T2, TrojanKind::T4],
            ..Scenario::baseline()
        };
        let s = ActivationSchedule::constant(base, 4)
            .step(2, ScheduleChange::TrojanOff(TrojanKind::T4));
        let at1 = s.scenario_at(1);
        assert_eq!(at1.trojan, Some(TrojanKind::T2));
        assert_eq!(at1.extra_trojans, vec![TrojanKind::T4]);
        // TrojanOff removes the (single) activation entirely.
        let at2 = s.scenario_at(2);
        assert_eq!(at2.trojan, Some(TrojanKind::T2));
        assert!(at2.extra_trojans.is_empty());
    }

    #[test]
    fn vdd_ramp_interpolates_linearly() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 10).step(
            2,
            ScheduleChange::RampVdd {
                to: 1.2,
                over_records: 4,
            },
        );
        assert_eq!(s.scenario_at(1).vdd, 1.0);
        assert_eq!(s.scenario_at(2).vdd, 1.0);
        assert!((s.scenario_at(4).vdd - 1.1).abs() < 1e-12);
        assert_eq!(s.scenario_at(6).vdd, 1.2);
        assert_eq!(s.scenario_at(9).vdd, 1.2);
    }

    #[test]
    fn temp_ramp_and_step_interact() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 10)
            .step(
                1,
                ScheduleChange::RampTempC {
                    to: 85.0,
                    over_records: 4,
                },
            )
            .step(3, ScheduleChange::SetTempC(0.0));
        // The step cancels the ramp.
        assert_eq!(s.scenario_at(3).temp_c, 0.0);
        assert_eq!(s.scenario_at(9).temp_c, 0.0);
        // Before the step the ramp had started from 25 °C.
        assert!((s.scenario_at(2).temp_c - 40.0).abs() < 1e-9);
    }

    #[test]
    fn key_rotation_applies_from_its_record() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 6)
            .step(3, ScheduleChange::SetKey([7; 16]));
        assert_eq!(s.scenario_at(2).key, Scenario::DEFAULT_KEY);
        assert_eq!(s.scenario_at(3).key, [7; 16]);
    }

    #[test]
    fn steps_sort_by_record_with_stable_same_record_order() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 8)
            .step(5, ScheduleChange::SetVdd(1.1))
            .step(1, ScheduleChange::SetVdd(0.9))
            .step(5, ScheduleChange::SetVdd(1.2));
        let records: Vec<usize> = s.steps.iter().map(|st| st.at_record).collect();
        assert_eq!(records, vec![1, 5, 5]);
        // Same-record steps apply in insertion order: the later 1.2 wins.
        assert_eq!(s.scenario_at(5).vdd, 1.2);
    }

    #[test]
    fn with_seed_rebases_per_record_seeds() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 4).with_seed(900);
        assert_eq!(s.scenario_at(0).seed, 900);
        assert_eq!(s.scenario_at(3).seed, 903);
    }

    #[test]
    fn trojan_free_stream_has_no_activation() {
        let s = ActivationSchedule::constant(Scenario::baseline(), 6);
        assert_eq!(s.first_activation_record(), None);
    }
}
