//! Tests of the benchmark's own machinery: the tail-percentile rule, the
//! closed-loop load generator's failure capture and throughput estimate, the
//! serial cross-check, the JSON line, and the layer replay's bit
//! identity.

use psa_core::acquisition::{AcqContext, InjectedEmitter, TraceSet};
use psa_core::chip::{ChipVariation, SensorSelect, TestChip};
use psa_core::scenario::Scenario;
use psa_gatesim::synth::SyntheticTrojan;
use psa_runtime::Engine;
use psabench::load::{closed_loop, Claim, LoopRun, OpRecord};
use psabench::replay::{Acq, LayerTimes, Replayer};
use psabench::report::{result_line, Metric};
use psabench::stats::{block_tail, median, quantile, tail, MIN_BEYOND};
use psabench::workload::{timed_and_serial, Config};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled order: the helpers must not rely on sorted input.
    (1..=n).rev().map(|x| x as f64).collect()
}

#[test]
fn tail_is_highest_ladder_percentile_with_ten_samples_beyond() {
    // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
    let t = tail(&ramp(100)).unwrap();
    assert_eq!((t.percentile, t.beyond, t.samples), (90.0, 10, 100));
    assert!((t.value - 90.1).abs() < 1e-9, "{}", t.value);
    // 1000 samples: p99.9 leaves 1, p99 leaves 10.
    let t = tail(&ramp(1000)).unwrap();
    assert_eq!((t.percentile, t.beyond), (99.0, 10));
    // 50 samples: p75 leaves 12.
    assert_eq!(tail(&ramp(50)).unwrap().percentile, 75.0);
    for n in [20, 41, 120, 2500, 20_000] {
        assert!(tail(&ramp(n)).unwrap().beyond >= MIN_BEYOND, "{n} samples");
    }
}

#[test]
fn tail_falls_back_to_the_median_and_shows_the_shortfall() {
    let t = tail(&ramp(15)).unwrap();
    assert_eq!(t.percentile, 50.0);
    assert_eq!(t.value, 8.0);
    assert!(t.beyond < MIN_BEYOND);
    assert!(tail(&[]).is_none());
}

#[test]
fn block_tail_is_the_median_of_per_block_tails() {
    // Three blocks of 100 samples, the middle one twice as slow, plus a
    // partial block that is dropped.
    let mut samples: Vec<f64> = ramp(100);
    samples.extend(ramp(100).iter().map(|x| 2.0 * x));
    samples.extend(ramp(100).iter().map(|x| x + 0.5));
    samples.extend(ramp(40).iter().map(|x| 1e3 * x));
    let t = block_tail(&samples, 100).unwrap();
    assert_eq!((t.percentile, t.samples, t.blocks), (90.0, 100, 3));
    assert!(t.beyond >= MIN_BEYOND);
    assert!((t.value - 90.6).abs() < 1e-9, "{}", t.value);
    // One block is the plain tail.
    let whole = block_tail(&ramp(100), 100).unwrap();
    assert_eq!(whole, tail(&ramp(100)).unwrap());
    assert!(block_tail(&ramp(99), 100).is_none());
}

#[test]
fn quantile_interpolates_and_median_ignores_order() {
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    assert_eq!(quantile(&[7.0], 0.9), 7.0);
    assert!(quantile(&[], 0.5).is_nan());
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
}

#[test]
fn injected_failing_ops_are_counted_not_unwound() {
    let run = closed_loop(
        &Engine::new(2),
        Claim::Shared,
        0.0,
        20,
        || (),
        |(), i| match i {
            7 => Err("injected error".to_string()),
            13 => panic!("injected panic"),
            _ => Ok(i * 10),
        },
    );
    assert_eq!(run.attempted(), 20);
    assert_eq!(run.failed(), 2);
    let failed_frac = run.failed() as f64 / run.attempted() as f64;
    assert!(failed_frac > 0.0);
    assert_eq!(run.get(7).unwrap().outcome, Err("injected error".into()));
    let panicked = run.get(13).unwrap().outcome.clone().unwrap_err();
    assert!(panicked.contains("injected panic"), "{panicked}");
    assert_eq!(run.get(12).unwrap().outcome, Ok(120));
    // Every index below the minimum ran exactly once.
    let indices: Vec<usize> = run.ops.iter().map(|o| o.index).collect();
    assert_eq!(indices, (0..20).collect::<Vec<_>>());
}

#[test]
fn keyed_claims_keep_each_key_on_one_lane_in_order() {
    for keys in [3, 4, 16] {
        let run = closed_loop(
            &Engine::new(2),
            Claim::ByKey(keys),
            0.0,
            24,
            || (),
            |(), i| Ok::<_, String>(i),
        );
        for o in &run.ops {
            assert_eq!(o.lane, (o.index % keys) % run.lanes, "{keys} keys");
        }
        let indices: Vec<usize> = run.ops.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..24).collect::<Vec<_>>(), "{keys} keys");
    }
    // More lanes than keys: only `keys` lanes run.
    let run = closed_loop(
        &Engine::new(4),
        Claim::ByKey(1),
        0.0,
        5,
        || (),
        |(), i| Ok::<_, String>(i),
    );
    assert_eq!((run.lanes, run.attempted()), (1, 5));
}

#[test]
fn throughput_counts_the_finished_share_of_ops_in_flight() {
    let op = |index, lane, start_s, end_s| OpRecord {
        index,
        lane,
        start_s,
        end_s,
        outcome: Ok(()),
    };
    let run = LoopRun {
        ops: vec![
            op(0, 0, 0.0, 1.0),
            op(1, 1, 0.0, 1.5),
            op(2, 0, 1.0, 2.0),
            op(3, 1, 1.5, 3.0),
        ],
        lanes: 2,
        wall_s: 3.0,
    };
    // Lane 0 runs dry at 2 s; op 3 is a third done by then.
    let expect = (3.0 + 1.0 / 3.0) / 2.0;
    assert!((run.ops_per_s() - expect).abs() < 1e-12);
    // Five lane-seconds busy out of six.
    assert!((run.busy_frac() - 5.0 / 6.0).abs() < 1e-12);
    assert!((run.imbalance() - 1.5 / 1.25).abs() < 1e-12);
}

#[test]
fn serial_cross_check_flags_outputs_that_depend_on_the_run() {
    let config = Config {
        seed: 1,
        seconds: 0.0,
        trace: false,
        engine: Engine::new(2),
    };
    let runs = std::sync::atomic::AtomicUsize::new(0);
    let state = || runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // Pure in the index: the two runs agree.
    let (_, compared, mismatches) = timed_and_serial(
        &config,
        Claim::Shared,
        8,
        4,
        state,
        || (),
        |_, (), i| Ok::<_, String>(i),
    );
    assert_eq!((compared, mismatches), (4, 0));
    // Depends on which run it is: every compared op differs.
    let (_, compared, mismatches) = timed_and_serial(
        &config,
        Claim::Shared,
        8,
        4,
        state,
        || (),
        |s, (), i| Ok::<_, String>(i + *s),
    );
    assert_eq!((compared, mismatches), (4, 4));
}

#[test]
fn result_line_has_the_four_keys_and_rejects_non_finite_values() {
    let line = result_line(
        true,
        10,
        1,
        &[
            Metric::new("ops_per_s", 2.5, "1/s"),
            Metric::new("setup_s", 0.125, "s"),
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
         {\"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
         \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
    );
    let bad = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]);
    assert!(bad.starts_with("{\"correct\": false"));
    assert!(bad.contains("\"value\": null"));
}

#[test]
fn replayed_records_match_the_acquisition_context_bit_for_bit() {
    let chip = TestChip::date24();
    let mut replayer = Replayer::new(&chip);
    let trojan = SyntheticTrojan::am_reference(800.0);
    let emitter = [InjectedEmitter {
        trojan: &trojan,
        charge_fc: 2.0,
        coupling: chip.couplings_for(SensorSelect::Psa(10)).unwrap()[0],
    }];
    let variation = ChipVariation::new(3);
    let scenario = Scenario::baseline().with_seed(5);
    let mut t = LayerTimes::default();
    replayer.begin_op();
    for (sensor, emitters, variation) in [
        (10, &emitter[..0], None),
        (3, &emitter[..], None),
        (10, &emitter[..0], Some(&variation)),
    ] {
        let acq = Acq {
            scenario: &scenario,
            sensor,
            records: 2,
            record_cycles: 256,
            emitters,
            variation,
            fft: true,
        };
        replayer
            .acquire(&acq, &mut t)
            .expect("replay matches AcqContext");
        let mut ctx = AcqContext::new(&chip);
        ctx.set_variation(variation.cloned());
        let mut reference = TraceSet::default();
        ctx.acquire_len_with_emitters_into(
            &scenario,
            SensorSelect::Psa(sensor),
            2,
            256,
            emitters,
            &mut reference,
        )
        .unwrap();
        assert_eq!(replayer.records, reference.records);
    }
    // Three acquisitions of the same two records: the first simulates
    // them, the other four passes repeat it.
    assert_eq!((t.records, t.redundant_passes, t.fft_calls), (6, 4, 6));
    assert_eq!(t.samples, 6 * 256 * 8);
    assert!(t.attributed_s() > 0.0);
}
