//! `select-kernel` and `select-massive-p`: distributed unsorted selection
//! (paper §4.1, the fig6 experiment) of the k largest values of the skewed
//! per-PE Zipf input, through the dual order as fig6 does.
//!
//! `select-kernel` runs p = 2 threaded PEs on n/p = 2^20: local partition
//! and sampling dominate, a few thousand words move.  `select-massive-p`
//! runs p = 256 PEs multiplexed over the worker pool on n/p = 256: kernel
//! work is negligible and the replay engine and the log p collective trees
//! dominate.  Each massive-p op is one mux region, because a blocked PE
//! re-runs its closure from the start.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use commsim::{run_spmd_mux_with, run_spmd_seq, Communicator, MuxConfig};
use datagen::SkewedSelectionInput;
use topk::unsorted::select_k_smallest;

use crate::harness::{closed_loop, panic_message, LoopPlan, Op};
use crate::trace::{PeTrace, Trace};
use crate::workload::{bottleneck, metered, mix, Backend, LayerData, Phase, Scale, Workload};

/// What one PE reports from one selection.
#[derive(Debug, Clone, Copy)]
pub struct SelOut {
    threshold: u64,
    selected: usize,
    levels: usize,
}

pub struct Select {
    p: usize,
    per_pe: usize,
    k: usize,
    backend: Backend,
    /// Ops cycle through this many selection seeds: each op's recursion
    /// depends on its sampling, so a run averages over many outcomes while
    /// its metered counts still repeat exactly.
    cycle: usize,
    seed: u64,
    /// Each PE's input, already mapped to the dual order.
    local: Vec<Vec<u64>>,
    /// Oracle: the k-th smallest dual value, by brute force.
    threshold: u64,
}

impl Select {
    pub fn kernel(scale: Scale, seed: u64) -> Self {
        let per_pe = match scale {
            Scale::Full => 1 << 20,
            Scale::Companion => 1 << 14,
        };
        Select::new(2, per_pe, per_pe / 1024, Backend::Threaded, 512, seed)
    }

    pub fn massive(scale: Scale, seed: u64, workers: usize) -> Self {
        let p = match scale {
            Scale::Full => 256,
            Scale::Companion => 64,
        };
        Select::new(p, 256, 16, Backend::Mux { workers }, 256, seed)
    }

    fn new(p: usize, per_pe: usize, k: usize, backend: Backend, cycle: usize, seed: u64) -> Self {
        let generator = SkewedSelectionInput {
            seed: mix(seed),
            ..SkewedSelectionInput::default()
        };
        let local: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                generator
                    .generate(r, per_pe)
                    .into_iter()
                    .map(|v| u64::MAX - v)
                    .collect()
            })
            .collect();
        let mut all: Vec<u64> = local.concat();
        let threshold = *all.select_nth_unstable(k - 1).1;
        Select {
            p,
            per_pe,
            k,
            backend,
            cycle,
            seed,
            local,
            threshold,
        }
    }

    fn op_seed(&self, i: usize) -> u64 {
        mix(self.seed ^ 0x5E1E_C700 ^ (i % self.cycle) as u64)
    }

    fn select<C: Communicator>(&self, comm: &C, i: usize, tr: &mut PeTrace) -> SelOut {
        let r = tr.span("topk.unsorted.select_k_smallest", || {
            select_k_smallest(comm, &self.local[comm.rank()], self.k, self.op_seed(i))
        });
        SelOut {
            threshold: r.threshold,
            selected: r.local_selected.len(),
            levels: r.recursion_levels,
        }
    }

    /// The oracle: every PE agrees on the brute-force threshold and the
    /// selected parts add up to exactly k.
    fn correct(&self, outs: &[SelOut]) -> bool {
        outs.iter().all(|o| o.threshold == self.threshold)
            && outs.iter().map(|o| o.selected).sum::<usize>() == self.k
    }

    fn items(&self) -> u64 {
        (self.p * self.per_pe) as u64
    }

    fn run_threaded(&self, plan: LoopPlan) -> (Phase, Vec<usize>) {
        let out = closed_loop(
            self.p,
            plan,
            |_| (),
            |comm, _, i, tr| self.select(comm, i, tr),
            |_, _, out| out,
        );
        let mut levels = Vec::new();
        let ops = (0..out.complete_ops())
            .map(|i| {
                let pes = out.op(i);
                let outs: Vec<SelOut> = pes.iter().map(|r| r.out).collect();
                levels.push(outs[0].levels);
                Op::from_pes(&pes, self.items(), self.correct(&outs))
            })
            .collect();
        let phase = Phase {
            ops,
            trace: out.trace,
            panic: out.panic,
            layer: Vec::new(),
        };
        (phase, levels)
    }

    fn run_mux(&self, plan: LoopPlan, workers: usize) -> (Phase, Vec<usize>) {
        let mut tr = PeTrace::new(plan.trace, 0);
        let (mut ops, mut levels, mut us_per_msg) = (Vec::new(), Vec::new(), Vec::new());
        let mut panic = None;
        let mut timed_start = Instant::now();
        for i in 0.. {
            tr.set_op(i);
            let t0 = Instant::now();
            let region = catch_unwind(AssertUnwindSafe(|| {
                tr.span("commsim.mux.run_spmd_mux_with", || {
                    let config = MuxConfig::new(self.p).with_workers(workers);
                    run_spmd_mux_with(config, |comm| {
                        let mut quiet = PeTrace::new(false, comm.rank());
                        let (o, stats) = metered(comm, || self.select(comm, i, &mut quiet));
                        (o, stats, Instant::now())
                    })
                })
            }));
            let t1 = Instant::now();
            let out = match region {
                Ok(out) => out,
                Err(payload) => {
                    panic = Some(panic_message(payload));
                    break;
                }
            };
            let outs: Vec<SelOut> = out.results.iter().map(|r| r.0).collect();
            let stats: Vec<_> = out.results.iter().map(|r| r.1).collect();
            let ends: Vec<Instant> = out.results.iter().map(|r| r.2).collect();
            let (words, startups) = bottleneck(&stats);
            levels.push(outs[0].levels);
            us_per_msg
                .push(out.elapsed.as_secs_f64() * 1e6 / out.stats.total_messages().max(1) as f64);
            ops.push(Op {
                t0,
                t1,
                latency: out.elapsed,
                skew: *ends.iter().max().expect("p >= 1") - *ends.iter().min().expect("p >= 1"),
                words,
                startups,
                pooled_reuses: stats.iter().map(|s| s.pooled_reuses).sum(),
                received: stats.iter().map(|s| s.received_messages).sum(),
                items: self.items(),
                ok: self.correct(&outs),
            });
            if i + 1 == plan.warmup {
                timed_start = Instant::now();
            }
            if plan.done(i + 1, timed_start.elapsed()) {
                break;
            }
        }
        let mut trace = Trace::default();
        trace.add(tr.into_spans());
        let region_ms: Vec<f64> = ops.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
        let layer = if region_ms.is_empty() {
            Vec::new()
        } else {
            let ms = crate::harness::median(&region_ms);
            vec![
                ("mux.region_ms", ms),
                ("mux.us_per_message", crate::harness::median(&us_per_msg)),
                ("mux.us_per_pe", ms * 1e3 / self.p as f64),
            ]
        };
        let phase = Phase {
            ops,
            trace,
            panic,
            layer,
        };
        (phase, levels)
    }
}

impl Workload for Select {
    fn backend(&self) -> Backend {
        self.backend
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cycle(&self) -> usize {
        self.cycle
    }

    fn warmup(&self) -> usize {
        2
    }

    fn run(&self, plan: LoopPlan) -> Phase {
        let (mut phase, levels) = match self.backend {
            Backend::Threaded => self.run_threaded(plan),
            Backend::Mux { workers } => self.run_mux(plan, workers),
        };
        let first_cycle = &levels[..levels.len().min(self.cycle)];
        if !first_cycle.is_empty() {
            let mean = first_cycle.iter().sum::<usize>() as f64 / first_cycle.len() as f64;
            phase.layer.push(("topk.unsorted.recursion_levels", mean));
        }
        phase
    }

    fn replay_seq(&self, n: usize) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let out = run_spmd_seq(self.p, |comm| {
                    let mut quiet = PeTrace::new(false, comm.rank());
                    metered(comm, || self.select(comm, i, &mut quiet)).1
                });
                bottleneck(&out.results)
            })
            .collect()
    }

    fn layer_data(&self) -> LayerData {
        let keys = self.local[0].clone();
        LayerData {
            tokens: keys.iter().take(1 << 16).map(|v| v.to_string()).collect(),
            concat: self.local.concat(),
            k: self.k,
            keys,
        }
    }
}
