//! What every workload provides to the benchmark loop.

use std::time::{Duration, Instant};

use commsim::{Communicator, StatsSnapshot};

use crate::harness::{LoopPlan, Op};
use crate::trace::Trace;

/// The backend a workload runs its ops on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per PE.
    Threaded,
    /// PEs multiplexed over a pool of `workers` OS threads.
    Mux { workers: usize },
}

/// Full size for the measured runs; companion size for the short traced
/// runs that report the layers a workload does not call itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Companion,
}

/// One timed phase: the ops (in op order), their spans, the panic that
/// ended the phase if any, and the per-layer metrics the workload's own
/// calls yield.
pub struct Phase {
    pub ops: Vec<Op>,
    pub trace: Trace,
    pub panic: Option<String>,
    pub layer: Vec<(&'static str, f64)>,
}

/// The workload's own input, handed to the per-layer probes.
pub struct LayerData {
    /// One PE's share of the input as `u64` keys.
    pub keys: Vec<u64>,
    /// The whole input, for the single-threaded baseline selection.
    pub concat: Vec<u64>,
    /// Rank the baseline selection looks for (1-based).
    pub k: usize,
    /// String tokens for the interning and string-codec probes.
    pub tokens: Vec<String>,
}

pub trait Workload {
    fn backend(&self) -> Backend;
    fn p(&self) -> usize;
    /// Ops repeat their metered counts with this period.
    fn cycle(&self) -> usize;
    /// Warm-up ops before timing starts.
    fn warmup(&self) -> usize;
    /// The loop stops only at multiples of this many ops.
    fn granule(&self) -> usize {
        1
    }
    fn run(&self, plan: LoopPlan) -> Phase;
    /// Words and start-ups of the first `n` ops, replayed on the sequential
    /// backend.
    fn replay_seq(&self, n: usize) -> Vec<(u64, u64)>;
    fn layer_data(&self) -> LayerData;
}

/// Run `f` and meter it: returns its result and the PE's traffic in it.
pub fn metered<C: Communicator, T>(comm: &C, f: impl FnOnce() -> T) -> (T, StatsSnapshot) {
    let before = comm.stats_snapshot();
    let out = f();
    (out, comm.stats_snapshot().since(&before))
}

/// World bottleneck words and start-ups of per-PE snapshots.
pub fn bottleneck(stats: &[StatsSnapshot]) -> (u64, u64) {
    (
        stats
            .iter()
            .map(StatsSnapshot::bottleneck_words)
            .max()
            .unwrap_or(0),
        stats
            .iter()
            .map(StatsSnapshot::bottleneck_messages)
            .max()
            .unwrap_or(0),
    )
}

/// A deterministic 64-bit mix of `x` (splitmix64).
pub fn mix(x: u64) -> u64 {
    topk::util::splitmix64(x)
}

/// Run `f` and return its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}
