//! From a workload's [`Outcome`] to named metrics and the printed report.

use crate::report::Metric;
use crate::stats::{block_tail, median};
use crate::workload::{Outcome, SetupTimes, TracedOp};
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. The median op time
/// is printed by [`report`] but left out: on a shared host, op times
/// fall into a fast and a slow mode whose shares swing from run to run,
/// and the median jumps between the modes.
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let op_ms = o.stat_op_ms();
    let setup: Vec<f64> = o.setup.iter().map(SetupTimes::total_s).collect();
    vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("ops_per_s", o.run.ops_per_s(), "1/s"),
        Metric::new(
            "op_tail_ms",
            block_tail(&op_ms, o.tail_block).map_or(f64::NAN, |t| t.value),
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("accuracy", o.sim.accuracy, "frac"),
    ]
}

/// Per-layer metrics of the traced run. A layer an op never calls
/// reads 0.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t: &[TracedOp] = o.traced.as_deref().unwrap_or_default();
    let ms = |f: fn(&TracedOp) -> f64| median(&t.iter().map(f).collect::<Vec<_>>());
    let per_op =
        |f: fn(&TracedOp) -> usize| t.iter().map(f).sum::<usize>() as f64 / t.len().max(1) as f64;
    let records: usize = t.iter().map(|op| op.layers.records).sum();
    let redundant: usize = t.iter().map(|op| op.layers.redundant_passes).sum();
    let setup = SetupTimes::median_of(&o.setup);
    vec![
        Metric::new(
            "gatesim.advance.ms",
            ms(|op| op.layers.advance_s * 1e3),
            "ms",
        ),
        Metric::new(
            "gatesim.advance.calls_per_op",
            per_op(|op| op.layers.advance_calls),
            "count",
        ),
        Metric::new(
            "gatesim.redundant_pass_frac",
            redundant as f64 / records.max(1) as f64,
            "frac",
        ),
        Metric::new(
            "gatesim.current.ms",
            ms(|op| op.layers.current_s * 1e3),
            "ms",
        ),
        Metric::new("field.emf.ms", ms(|op| op.layers.emf_s * 1e3), "ms"),
        Metric::new(
            "analog.frontend.ms",
            ms(|op| op.layers.frontend_s * 1e3),
            "ms",
        ),
        Metric::new(
            "analog.frontend.samples_per_op",
            per_op(|op| op.layers.samples),
            "count",
        ),
        Metric::new("dsp.fft.ms", ms(|op| op.layers.fft_s * 1e3), "ms"),
        Metric::new(
            "dsp.fft.calls_per_op",
            per_op(|op| op.layers.fft_calls),
            "count",
        ),
        Metric::new(
            "dsp.zero_span.ms",
            ms(|op| op.layers.zero_span_s * 1e3),
            "ms",
        ),
        Metric::new(
            "core.identify.ms",
            ms(|op| op.layers.features_s * 1e3),
            "ms",
        ),
        Metric::new("ml.classify.ms", ms(|op| op.layers.classify_s * 1e3), "ms"),
        Metric::new(
            "core.acquire.records_per_op",
            per_op(|op| op.layers.records),
            "count",
        ),
        Metric::new("core.score.ms", ms(TracedOp::remainder_ms), "ms"),
        Metric::new("runtime.busy_frac", o.run.busy_frac(), "frac"),
        Metric::new("runtime.imbalance", o.run.imbalance(), "ratio"),
        Metric::new("setup.chip_s", setup.chip_s, "s"),
        Metric::new("setup.baseline_s", setup.baseline_s, "s"),
        Metric::new("setup.templates_s", setup.templates_s, "s"),
        Metric::new("setup.calibration_s", setup.calibration_s, "s"),
        Metric::new("trace.ops_per_s", o.run.ops_per_s(), "1/s"),
    ]
}

/// The human-readable report printed ahead of the JSON line: every
/// metric by name and unit, plus the statistics the JSON line leaves
/// out (failed share, false alarms, MTTD, localization error) and the
/// output check.
pub fn report(workload: &str, o: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let run = &o.run;
    let _ = writeln!(
        s,
        "psabench {workload}: {} lane(s), {} op(s) in {:.3} s",
        run.lanes,
        run.attempted(),
        run.wall_s
    );
    for m in metrics {
        let _ = writeln!(s, "  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let op_ms = o.stat_op_ms();
    let _ = writeln!(s, "  {:<32} {:>14.6} ms", "op_p50_ms", median(&op_ms));
    if let Some(t) = block_tail(&op_ms, o.tail_block) {
        let _ = writeln!(
            s,
            "  op_p50_ms and op_tail_ms cover ops 0..{}; op_tail_ms is the median over {} block(s) \
             of {} consecutive ops of each block's p{}, at least {} beyond it",
            o.stat_ops, t.blocks, t.samples, t.percentile, t.beyond
        );
    }
    let failed_frac = run.failed() as f64 / run.attempted().max(1) as f64;
    let _ = writeln!(s, "  {:<32} {:>14.6} frac", "failed_frac", failed_frac);
    let _ = writeln!(
        s,
        "  {:<32} {:>14.6} frac   (over the first {} units)",
        "false_alarm_rate", o.sim.false_alarm_rate, o.sim.units
    );
    if let Some(v) = o.sim.mttd_sim_ms {
        let _ = writeln!(s, "  {:<32} {:>14.6} ms (simulated)", "mttd_sim_ms", v);
    }
    if let Some(v) = o.sim.loc_error_um {
        let _ = writeln!(s, "  {:<32} {:>14.6} um", "loc_error_um", v);
    }
    let _ = writeln!(
        s,
        "  output digest {:016x}; {} op(s) replayed on one worker, {} mismatch(es)",
        o.digest, o.compared, o.mismatches
    );
    match &o.traced {
        Ok(traced) if !traced.is_empty() => {
            let _ = writeln!(
                s,
                "  traced ops: index, op ms, attributed ms, unattributed remainder ms"
            );
            for op in traced {
                let _ = writeln!(
                    s,
                    "    {:>5} {:>10.3} {:>10.3} {:>10.3}",
                    op.index,
                    op.op_ms,
                    op.layers.attributed_s() * 1e3,
                    op.remainder_ms()
                );
            }
        }
        Ok(_) => {}
        Err(e) => {
            let _ = writeln!(s, "  traced replay failed: {e}");
        }
    }
    s
}
