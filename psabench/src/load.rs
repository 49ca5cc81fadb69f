//! The closed-loop load generator: lanes on a `psa_runtime::Engine`, each
//! issuing its next op only after the previous one returned.
//!
//! Every op is identified by its index and must be a pure function of
//! that index (plus, for stateful workloads, the ops of the same lane
//! before it), so any run can be checked against a serial replay. Each
//! op runs under `catch_unwind`: an `Err` or a panic is recorded against
//! its index instead of unwinding the run.

use psa_runtime::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How lanes pick their next op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Every lane takes the next unclaimed index from one shared
    /// counter (stateless ops).
    Shared,
    /// Op `i` belongs to key `i % keys`, and lane `w` of `W` runs the ops
    /// of the keys `k ≡ w (mod W)` in index order, so per-key state (a
    /// die's rolling window) sees its ops in order. At most `keys` lanes
    /// run.
    ByKey(usize),
}

/// One executed op: its span on the run clock and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord<O> {
    /// Op index.
    pub index: usize,
    /// The lane that ran it.
    pub lane: usize,
    /// Span start, seconds since the run started.
    pub start_s: f64,
    /// Span end, seconds since the run started.
    pub end_s: f64,
    /// The op's output, or why it failed.
    pub outcome: Result<O, String>,
}

impl<O> OpRecord<O> {
    /// Host time of the op, ms.
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Every op of one closed-loop run, sorted by index.
#[derive(Debug, Clone)]
pub struct LoopRun<O> {
    /// Executed ops, ascending index.
    pub ops: Vec<OpRecord<O>>,
    /// Lanes the run used.
    pub lanes: usize,
    /// From the start of the run to the end of its last op, seconds.
    pub wall_s: f64,
}

impl<O> LoopRun<O> {
    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    /// Ops that returned `Err` or panicked.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| o.outcome.is_err()).count()
    }

    /// Ops completed per second while every lane was busy: up to the
    /// moment the first lane ran out of ops, counting the finished share
    /// of each op in flight then, so the rate does not step with the op
    /// count.
    pub fn ops_per_s(&self) -> f64 {
        let mut last_end = vec![None; self.lanes];
        for o in &self.ops {
            last_end[o.lane] = Some(o.end_s);
        }
        let t = last_end
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        if !t.is_finite() {
            return 0.0;
        }
        let done: f64 = self
            .ops
            .iter()
            .map(|o| ((t - o.start_s) / (o.end_s - o.start_s)).clamp(0.0, 1.0))
            .sum();
        done / t
    }

    /// The op with index `index`, when it ran.
    pub fn get(&self, index: usize) -> Option<&OpRecord<O>> {
        self.ops
            .binary_search_by_key(&index, |o| o.index)
            .ok()
            .map(|i| &self.ops[i])
    }

    /// Busy time of each lane (sum of its op spans), seconds.
    pub fn lane_busy_s(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.lanes];
        for o in &self.ops {
            busy[o.lane] += o.end_s - o.start_s;
        }
        busy
    }

    /// Share of lane-time spent inside ops.
    pub fn busy_frac(&self) -> f64 {
        self.lane_busy_s().iter().sum::<f64>() / (self.lanes as f64 * self.wall_s)
    }

    /// Busiest lane's busy time over the mean lane's (1 = balanced).
    pub fn imbalance(&self) -> f64 {
        let busy = self.lane_busy_s();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        busy.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
    }
}

/// Runs ops in a closed loop on `engine.workers()` lanes.
///
/// A lane keeps issuing ops while the run is younger than `seconds`;
/// every index below `min_ops` runs regardless, so statistics over the
/// first `min_ops` ops are the same on every run of a seed. `init`
/// builds a lane's context, rebuilt after an op panics.
pub fn closed_loop<C, O, I, F>(
    engine: &Engine,
    claim: Claim,
    seconds: f64,
    min_ops: usize,
    init: I,
    op: F,
) -> LoopRun<O>
where
    O: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> Result<O, String> + Sync,
{
    let lanes = match claim {
        Claim::Shared => engine.workers(),
        Claim::ByKey(keys) => engine.workers().min(keys),
    }
    .max(1);
    let next = AtomicUsize::new(0);
    // psa-lint: allow(wallclock-in-lib): the benchmark's run clock; op spans are its output
    let t0 = Instant::now();
    let lane_ids: Vec<usize> = (0..lanes).collect();
    let per_lane = Engine::new(lanes).map_ctx(&lane_ids, &init, |ctx, _, &lane| {
        let mut records = Vec::new();
        let mut own = lane;
        loop {
            let index = match claim {
                Claim::Shared => next.fetch_add(1, Ordering::Relaxed),
                Claim::ByKey(keys) => {
                    let index = own;
                    own += 1;
                    while (own % keys) % lanes != lane {
                        own += 1;
                    }
                    index
                }
            };
            if index >= min_ops && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let start_s = t0.elapsed().as_secs_f64();
            let outcome = match catch_unwind(AssertUnwindSafe(|| op(ctx, index))) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    *ctx = init();
                    Err(panic_message(payload.as_ref()))
                }
            };
            records.push(OpRecord {
                index,
                lane,
                start_s,
                end_s: t0.elapsed().as_secs_f64(),
                outcome,
            });
        }
        records
    });
    let mut ops: Vec<OpRecord<O>> = per_lane.into_iter().flatten().collect();
    ops.sort_by_key(|o| o.index);
    let wall_s = ops.iter().fold(0.0f64, |a, o| a.max(o.end_s));
    LoopRun { ops, lanes, wall_s }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}
