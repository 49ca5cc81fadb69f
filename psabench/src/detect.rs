//! `detect`: a seeded stream of Table-I-style decisions. Each op is one
//! `CrossDomainDetector::detect_with` call — a 16-sensor × 5-record
//! sweep, plus zero-span identification and k-NN classification when a
//! Trojan is found.

use crate::load::Claim;
use crate::replay::{add_time, Acq, LayerTimes, Replayer};
use crate::workload::{
    finish, repeated_chips, replay_ops, timed, timed_and_serial, Config, Outcome, SetupTimes,
    SimStats,
};
use psa_core::acquisition::AcqContext;
use psa_core::calib;
use psa_core::detector::{CrossDomainDetector, Detector};
use psa_core::identify::{extract_features, TemplateLibrary, TrojanSignature};
use psa_core::scenario::Scenario;
use psa_dsp::rng::{splitmix64, SmallRng};
use psa_dsp::zero_span::ZeroSpan;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::Campaign;

/// Set-up repetitions (the template library dominates at ~5 s each).
const SETUP_REPS: usize = 3;
/// Ops whose verdicts the statistics (and the digest) cover.
pub const STAT_OPS: usize = 40;
/// Ops replayed on one worker for the output check.
const VERIFY_OPS: usize = 2;
/// Ops replayed layer by layer in the traced run: the last full round
/// the statistics cover.
const TRACE_OPS: usize = 5;
/// Records of the zero-span identification stage.
const ZERO_SPAN_RECORDS: usize = 6;
/// The line the traced replay zero-spans (the 48 MHz sideband family).
const ZERO_SPAN_LINE_HZ: f64 = 48.0e6;

/// Every round of five ops holds one Trojan-free decision and one of
/// each Trojan, in a seeded order, so any run mixes the verdicts alike.
const ROUND: [Option<TrojanKind>; 5] = [
    None,
    Some(TrojanKind::T1),
    Some(TrojanKind::T2),
    Some(TrojanKind::T3),
    Some(TrojanKind::T4),
];

/// The active Trojan and the scenario of op `index`.
pub fn op_input(seed: u64, index: usize) -> (Option<TrojanKind>, Scenario) {
    let round = (index / ROUND.len()) as u64;
    let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ round.wrapping_mul(0x9E37_79B9)));
    let mut order = ROUND;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let kind = order[index % ROUND.len()];
    let scenario = kind.map_or_else(Scenario::baseline, Scenario::trojan_active);
    (
        kind,
        scenario.with_seed(splitmix64(seed ^ 0xDE7E_C700_0000_0000 ^ index as u64)),
    )
}

/// The verdict of one decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Whether a Trojan was called.
    pub detected: bool,
    /// Localized sensor.
    pub sensor: Option<usize>,
    /// Identified Trojan.
    pub identified: Option<TrojanKind>,
    /// The decision statistic's bits.
    pub score_bits: u64,
}

/// Runs the `detect` workload.
pub fn run(config: &Config) -> Outcome {
    let baseline_seed = splitmix64(config.seed ^ 0xBA5E);
    let mut library = None;
    let mut baseline = None;
    let (chip, setup) = repeated_chips(SETUP_REPS, |chip| {
        let (b, baseline_s) =
            timed(|| Campaign::new(chip, config.engine).learn_baseline(baseline_seed));
        let (t, templates_s) =
            timed(|| TemplateLibrary::reference(chip).expect("reference templates build"));
        baseline = Some(b);
        library = Some(t);
        SetupTimes {
            baseline_s,
            templates_s,
            ..SetupTimes::default()
        }
    });
    let templates = library.expect("set-up ran");
    let detector = CrossDomainDetector::with_baseline_and_templates(
        baseline.expect("set-up ran"),
        templates.clone(),
    );

    let (run, compared, mismatches) = timed_and_serial(
        config,
        Claim::Shared,
        STAT_OPS,
        VERIFY_OPS,
        || (),
        || AcqContext::new(&chip),
        |(), ctx, i| decide(&detector, ctx, config.seed, i),
    );
    let sim = stats(config.seed, &run);

    let traced = if config.trace {
        let indices: Vec<usize> = (STAT_OPS - TRACE_OPS..STAT_OPS).collect();
        replay_ops(&chip, &config.engine, &run, &indices, |r, i, d, t| {
            replay(r, &templates, config.seed, i, d, t)
        })
    } else {
        Ok(Vec::new())
    };
    let (run, digest) = finish("detect", config, run, STAT_OPS);
    Outcome {
        setup,
        run,
        sim,
        compared,
        mismatches,
        stat_ops: STAT_OPS,
        tail_block: STAT_OPS,
        digest,
        traced,
    }
}

fn decide(
    detector: &CrossDomainDetector,
    ctx: &mut AcqContext<'_>,
    seed: u64,
    index: usize,
) -> Result<Decision, String> {
    let (_, scenario) = op_input(seed, index);
    let out = detector
        .detect_with(ctx, &scenario)
        .map_err(|e| e.to_string())?;
    let consistent = out.detected == out.localized_sensor.is_some()
        && out.detected == out.identified.is_some()
        && out.localized_sensor.is_none_or(|s| s < 16)
        && out.score.is_finite();
    if !consistent {
        return Err(format!("inconsistent verdict {out:?}"));
    }
    Ok(Decision {
        detected: out.detected,
        sensor: out.localized_sensor,
        identified: out.identified,
        score_bits: out.score.to_bits(),
    })
}

/// Accuracy: detected exactly when a Trojan is active, with the right
/// kind identified. False alarms: Trojan-free decisions that alarm.
fn stats(seed: u64, run: &crate::load::LoopRun<Decision>) -> SimStats {
    let (mut correct, mut clean, mut alarms) = (0, 0, 0);
    for i in 0..STAT_OPS {
        let (kind, _) = op_input(seed, i);
        let Some(Ok(d)) = run.get(i).map(|o| &o.outcome) else {
            continue;
        };
        if d.detected == kind.is_some() && d.identified == kind {
            correct += 1;
        }
        if kind.is_none() {
            clean += 1;
            alarms += usize::from(d.detected);
        }
    }
    SimStats {
        units: STAT_OPS,
        accuracy: correct as f64 / STAT_OPS as f64,
        false_alarm_rate: alarms as f64 / clean.max(1) as f64,
        ..SimStats::default()
    }
}

/// The decision's acquisitions through the layers: the 16-sensor sweep,
/// then for a positive verdict the zero-span records on the localized
/// sensor, the envelope, its features and the classification. The replay zero-spans
/// the 48 MHz line the analyzer prefers; the classified signature
/// carries no spectral context, which costs the k-NN the same.
fn replay(
    r: &mut Replayer<'_>,
    templates: &TemplateLibrary,
    seed: u64,
    index: usize,
    decision: &Decision,
    t: &mut LayerTimes,
) -> Result<(), String> {
    let (_, scenario) = op_input(seed, index);
    let acq = |sensor, records, fft| Acq {
        scenario: &scenario,
        sensor,
        records,
        record_cycles: calib::RECORD_CYCLES,
        emitters: &[],
        variation: None,
        fft,
    };
    for sensor in 0..16 {
        r.acquire(&acq(sensor, calib::TRACES_PER_SPECTRUM, true), t)?;
    }
    let Some(sensor) = decision.sensor else {
        return Ok(());
    };
    r.acquire(&acq(sensor, ZERO_SPAN_RECORDS, false), t)?;
    let fs = calib::sample_rate_hz();
    let samples: Vec<f64> = r.records.concat();
    let specan = psa_analog::specan::SpectrumAnalyzer::date24();
    let envelope = add_time(&mut t.zero_span_s, || {
        specan.zero_span_trace_rbw(&samples, fs, ZERO_SPAN_LINE_HZ, calib::IDENTIFY_RBW_HZ)
    })
    .map_err(|e| e.to_string())?;
    let env_fs = ZeroSpan::with_rbw(ZERO_SPAN_LINE_HZ, fs, calib::IDENTIFY_RBW_HZ)
        .map_err(|e| e.to_string())?
        .output_fs_hz();
    let signature = TrojanSignature {
        env: add_time(&mut t.features_s, || extract_features(&envelope, env_fs))
            .map_err(|e| e.to_string())?,
        satellite_offset_mhz: 0.0,
        pedestal_width_mhz: 0.0,
    };
    add_time(&mut t.classify_s, || templates.classify(&signature)).map_err(|e| e.to_string())?;
    Ok(())
}
