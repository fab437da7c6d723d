//! The closed loop and the statistics every workload shares.
//!
//! One caller issues an op, waits until every PE has finished it, and only
//! then issues the next: every PE of an SPMD program waits on the
//! collective result, so a closed loop is how these programs are used.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use commsim::{run_spmd, Comm, Communicator, StatsSnapshot};

use crate::trace::{PeTrace, Trace};

/// How long a loop runs: `warmup` untimed ops, then timed ops until
/// `seconds` have passed and at least `min_ops` ran.  The loop only stops
/// after an op whose index + 1 is a multiple of `granule`, so a stream
/// session is never cut short.
#[derive(Debug, Clone, Copy)]
pub struct LoopPlan {
    pub warmup: usize,
    pub min_ops: usize,
    pub seconds: f64,
    pub granule: usize,
    pub trace: bool,
}

impl LoopPlan {
    pub fn done(&self, ops: usize, timed: Duration) -> bool {
        ops >= self.warmup + self.min_ops
            && ops.is_multiple_of(self.granule)
            && timed.as_secs_f64() >= self.seconds
    }
}

/// One PE's view of one op.
#[derive(Debug)]
pub struct PeOp<R> {
    pub t0: Instant,
    pub t1: Instant,
    pub stats: StatsSnapshot,
    pub out: R,
}

/// One op as the world saw it.  Counts are world bottlenecks: the largest
/// per-PE `max(sent, received)` words and messages inside the op.
#[derive(Debug, Clone)]
pub struct Op {
    pub t0: Instant,
    pub t1: Instant,
    pub latency: Duration,
    /// Spread between the first and the last PE's finish time.
    pub skew: Duration,
    pub words: u64,
    pub startups: u64,
    pub pooled_reuses: u64,
    pub received: u64,
    pub items: u64,
    pub ok: bool,
}

impl Op {
    /// Combine the per-PE records of one op; `ok` and `items` come from the
    /// workload's oracle.
    pub fn from_pes<R>(pes: &[&PeOp<R>], items: u64, ok: bool) -> Op {
        let t0 = pes.iter().map(|r| r.t0).min().expect("at least one PE");
        let t1 = pes.iter().map(|r| r.t1).max().expect("at least one PE");
        let first_done = pes.iter().map(|r| r.t1).min().expect("at least one PE");
        Op {
            t0,
            t1,
            latency: t1 - t0,
            skew: t1 - first_done,
            words: pes
                .iter()
                .map(|r| r.stats.bottleneck_words())
                .max()
                .unwrap_or(0),
            startups: pes
                .iter()
                .map(|r| r.stats.bottleneck_messages())
                .max()
                .unwrap_or(0),
            pooled_reuses: pes.iter().map(|r| r.stats.pooled_reuses).sum(),
            received: pes.iter().map(|r| r.stats.received_messages).sum(),
            items,
            ok,
        }
    }
}

/// A barrier whose waiters give up once a peer has panicked, so one failed
/// PE ends the loop instead of hanging it.
struct Gate {
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    parties: usize,
    poisoned: AtomicBool,
}

impl Gate {
    fn new(parties: usize) -> Self {
        Gate {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            parties,
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let mut st = self
            .state
            .lock()
            .expect("gate lock is never held across a panic");
        let generation = st.1;
        st.0 += 1;
        if st.0 == self.parties {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return;
        }
        while st.1 == generation {
            assert!(!self.poisoned.load(Ordering::SeqCst), "a peer PE panicked");
            st = self
                .cv
                .wait_timeout(st, Duration::from_millis(20))
                .expect("gate lock is never held across a panic")
                .0;
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// What a threaded loop leaves behind: per PE, the records of every op it
/// finished, the spans, and the panic message if the world failed.
pub struct LoopOut<R> {
    pub per_pe: Vec<Vec<PeOp<R>>>,
    pub trace: Trace,
    pub panic: Option<String>,
}

impl<R> LoopOut<R> {
    /// Ops every PE finished, as per-PE record tuples in op order.
    pub fn complete_ops(&self) -> usize {
        self.per_pe.iter().map(Vec::len).min().unwrap_or(0)
    }

    pub fn op(&self, i: usize) -> Vec<&PeOp<R>> {
        self.per_pe.iter().map(|v| &v[i]).collect()
    }
}

/// Run a closed loop of ops on the threaded backend with `p` PEs inside one
/// SPMD region.  `init` builds each PE's state once; `op` runs op `i` and
/// is metered (words, start-ups) and timed around its call only; `digest`
/// then checks its result outside the timed region and keeps only what the
/// report needs, so the records stay small however many ops a run makes.
pub fn closed_loop<S, R, V, I, F, D>(
    p: usize,
    plan: LoopPlan,
    init: I,
    op: F,
    digest: D,
) -> LoopOut<V>
where
    V: Send,
    I: Fn(&Comm) -> S + Sync,
    F: Fn(&Comm, &mut S, usize, &mut PeTrace) -> R + Sync,
    D: Fn(&Comm, usize, R) -> V + Sync,
{
    let gate = Gate::new(p);
    let stop_at = AtomicUsize::new(usize::MAX);
    let records: Vec<Mutex<Vec<PeOp<V>>>> = (0..p).map(|_| Mutex::new(Vec::new())).collect();
    let traces: Vec<Mutex<Trace>> = (0..p).map(|_| Mutex::new(Trace::default())).collect();
    let panic = catch_unwind(AssertUnwindSafe(|| {
        run_spmd(p, |comm| {
            let rank = comm.rank();
            let mut tr = PeTrace::new(plan.trace, rank);
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut state = init(comm);
                let mut timed_start = Instant::now();
                let mut i = 0usize;
                loop {
                    gate.wait();
                    if i >= stop_at.load(Ordering::SeqCst) {
                        break;
                    }
                    tr.set_op(i);
                    tr.begin("bench.op");
                    let t0 = Instant::now();
                    let before = comm.stats_snapshot();
                    let out = op(comm, &mut state, i, &mut tr);
                    let stats = comm.stats_snapshot().since(&before);
                    let t1 = Instant::now();
                    tr.end();
                    let out = digest(comm, i, out);
                    records[rank]
                        .lock()
                        .expect("record lock is never held across a panic")
                        .push(PeOp { t0, t1, stats, out });
                    i += 1;
                    if i == plan.warmup {
                        timed_start = Instant::now();
                    }
                    if rank == 0 && plan.done(i, timed_start.elapsed()) {
                        stop_at.store(i, Ordering::SeqCst);
                    }
                }
            }));
            if let Err(payload) = body {
                gate.poison();
                resume_unwind(payload);
            }
            traces[rank]
                .lock()
                .expect("trace lock is never held across a panic")
                .add(tr.into_spans());
        });
    }))
    .err()
    .map(panic_message);
    let mut trace = Trace::default();
    for t in traces {
        trace.absorb("", t.into_inner().unwrap_or_default());
    }
    LoopOut {
        per_pe: records
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_default())
            .collect(),
        trace,
        panic,
    }
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The value at quantile `q` of ascending `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Check that op `i`'s counts equal those of the op at the same position in
/// the first cycle of `cycle` ops.
pub fn check_cycle_counts(ops: &[Op], cycle: usize) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate().skip(cycle) {
        let first = &ops[i % cycle];
        if (op.words, op.startups) != (first.words, first.startups) {
            return Err(format!(
                "op {i} metered {} words / {} start-ups, op {} metered {} / {}",
                op.words,
                op.startups,
                i % cycle,
                first.words,
                first.startups
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn closed_loop_runs_whole_granules_and_meters_each_op() {
        let plan = LoopPlan {
            warmup: 1,
            min_ops: 4,
            seconds: 0.0,
            granule: 3,
            trace: true,
        };
        let out = closed_loop(
            2,
            plan,
            |_| 0u64,
            |comm, _, _, _| comm.allreduce_sum(1),
            |_, _, sum| sum,
        );
        assert!(out.panic.is_none());
        assert_eq!(out.complete_ops(), 6);
        for i in 0..6 {
            let op = Op::from_pes(&out.op(i), 0, true);
            assert!(op.words > 0 && op.startups > 0);
            assert_eq!(out.op(i)[0].out, 2);
        }
        assert_eq!(out.trace.micros_of("bench.op").len(), 12);
    }

    #[test]
    fn a_panicking_pe_ends_the_loop_instead_of_hanging_it() {
        let plan = LoopPlan {
            warmup: 0,
            min_ops: 10,
            seconds: 0.0,
            granule: 1,
            trace: false,
        };
        let out = closed_loop(
            2,
            plan,
            |_| (),
            |comm, _, i, _| {
                assert!(!(i == 3 && comm.rank() == 1), "boom");
            },
            |_, _, ()| (),
        );
        assert!(out.panic.is_some());
        assert_eq!(out.complete_ops(), 3);
    }
}
