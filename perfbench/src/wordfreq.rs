//! `wordfreq-text`: the user-facing word-frequency pipeline (paper §6/§7 on
//! text) — `tokenize` → `distributed_intern` → `plan_word_frequency` →
//! `Plan::execute` → `resolve_items` — on p = 2 threaded PEs over the
//! synthetic-English corpus.  Interning ships the vocabulary as strings, so
//! the codec, the transport's bandwidth and interning dominate; the planned
//! counting phase moves little.

use std::collections::{HashMap, HashSet};

use commsim::{run_spmd_seq, Communicator};
use datagen::TextCorpus;
use workloads::text::{distributed_intern, plan_word_frequency, resolve_items, tokenize};

use crate::harness::{closed_loop, median, LoopPlan, Op};
use crate::trace::PeTrace;
use crate::workload::{bottleneck, metered, mix, Backend, LayerData, Phase, Scale, Workload};

const P: usize = 2;
const K: usize = 16;
const EPSILON: f64 = 1e-3;
const DELTA: f64 = 1e-4;
const ZIPF: f64 = 1.05;
/// Ops cycle through this many execution seeds: the sampling algorithms'
/// start-ups depend on the seed, so a run averages over many of them while
/// its metered counts still repeat exactly.
const CYCLE: usize = 64;

/// What one PE's pipeline run returns.
pub struct WfOut {
    top: Vec<(String, u64)>,
    exact_counts: bool,
    sample_size: u64,
    intern_words: u64,
    words_err: f64,
}

/// What the report keeps of one PE's run: the oracle's verdict and counts.
#[derive(Debug, Clone, Copy)]
pub struct WfDigest {
    ok: bool,
    sample_size: u64,
    intern_words: u64,
    words_err: f64,
}

pub struct WordFreq {
    per_pe: usize,
    seed: u64,
    shards: Vec<String>,
    /// Oracle: exact global counts, and the same sorted by decreasing count.
    exact: HashMap<String, u64>,
    ranked: Vec<(String, u64)>,
}

impl WordFreq {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (per_pe, vocab) = match scale {
            Scale::Full => (1 << 15, 1 << 14),
            Scale::Companion => (1 << 12, 1 << 12),
        };
        let corpus = TextCorpus::new(vocab, ZIPF, mix(seed));
        let shards: Vec<String> = (0..P).map(|r| corpus.shard_text(r, per_pe)).collect();
        let mut exact: HashMap<String, u64> = HashMap::new();
        for r in 0..P {
            for w in corpus.shard_words(r, per_pe) {
                *exact.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(String, u64)> = exact.iter().map(|(w, &c)| (w.clone(), c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        WordFreq {
            per_pe,
            seed,
            shards,
            exact,
            ranked,
        }
    }

    fn n(&self) -> u64 {
        (P * self.per_pe) as u64
    }

    fn pipeline<C: Communicator>(&self, comm: &C, i: usize, tr: &mut PeTrace) -> WfOut {
        let text = &self.shards[comm.rank()];
        let tokens = tr.span("workloads.text.tokenize", || tokenize(text));
        let (shard, intern) = tr.span("workloads.text.distributed_intern", || {
            metered(comm, || distributed_intern(comm, &tokens))
        });
        let plan = tr.span("topk.planner.plan_word_frequency", || {
            plan_word_frequency(comm, &shard, K, EPSILON, DELTA)
        });
        let seed = mix(self.seed ^ 0x00F2_E000 ^ (i % CYCLE) as u64);
        let (result, audit) = tr.span("topk.frequent.plan_execute", || {
            plan.execute(comm, &shard.ids, seed)
        });
        let top = tr.span("workloads.text.resolve_items", || {
            resolve_items(&shard.vocab, &result)
        });
        WfOut {
            top,
            exact_counts: result.exact_counts,
            sample_size: result.sample_size,
            intern_words: intern.bottleneck_words(),
            words_err: audit.words_error(),
        }
    }

    /// The oracle: k words reported, the paper's error (best missed count
    /// minus worst reported count) within εn, and exact counts where the
    /// algorithm claims them.
    fn correct(&self, out: &WfOut) -> bool {
        let reported: HashSet<&str> = out.top.iter().map(|(w, _)| w.as_str()).collect();
        let worst = out
            .top
            .iter()
            .map(|(w, _)| self.exact.get(w).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let best_missed = self
            .ranked
            .iter()
            .find(|(w, _)| !reported.contains(w.as_str()))
            .map_or(0, |&(_, c)| c);
        let counts_ok =
            !out.exact_counts || out.top.iter().all(|(w, c)| self.exact.get(w) == Some(c));
        out.top.len() == K.min(self.exact.len())
            && reported.len() == out.top.len()
            && best_missed.saturating_sub(worst) as f64 <= EPSILON * self.n() as f64
            && counts_ok
    }
}

impl Workload for WordFreq {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn p(&self) -> usize {
        P
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn warmup(&self) -> usize {
        2
    }

    fn run(&self, plan: LoopPlan) -> Phase {
        let out = closed_loop(
            P,
            plan,
            |_| (),
            |comm, _, i, tr| self.pipeline(comm, i, tr),
            |_, _, out| WfDigest {
                ok: self.correct(&out),
                sample_size: out.sample_size,
                intern_words: out.intern_words,
                words_err: out.words_err,
            },
        );
        let mut firsts: Vec<WfDigest> = Vec::new();
        let ops: Vec<Op> = (0..out.complete_ops())
            .map(|i| {
                let pes = out.op(i);
                if i < CYCLE {
                    firsts.push(pes[0].out);
                }
                Op::from_pes(&pes, self.n(), pes.iter().all(|r| r.out.ok))
            })
            .collect();
        let mut layer = Vec::new();
        if !firsts.is_empty() {
            let mean = |f: &dyn Fn(&WfDigest) -> f64| {
                firsts.iter().map(f).sum::<f64>() / firsts.len() as f64
            };
            layer.push((
                "workloads.text.intern_words",
                mean(&|o| o.intern_words as f64),
            ));
            layer.push((
                "topk.frequent.sample_ratio",
                mean(&|o| o.sample_size as f64) / self.n() as f64,
            ));
            layer.push(("topk.planner.words_err", mean(&|o| o.words_err)));
        }
        for (metric, span) in [
            ("workloads.text.tokenize_ms", "workloads.text.tokenize"),
            (
                "workloads.text.intern_ms",
                "workloads.text.distributed_intern",
            ),
            ("topk.planner.plan_ms", "topk.planner.plan_word_frequency"),
            ("topk.frequent.exec_ms", "topk.frequent.plan_execute"),
        ] {
            let us = out.trace.micros_of(span);
            if !us.is_empty() {
                layer.push((metric, median(&us) / 1e3));
            }
        }
        Phase {
            ops,
            trace: out.trace,
            panic: out.panic,
            layer,
        }
    }

    fn replay_seq(&self, n: usize) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let out = run_spmd_seq(P, |comm| {
                    let mut quiet = PeTrace::new(false, comm.rank());
                    metered(comm, || self.pipeline(comm, i, &mut quiet)).1
                });
                bottleneck(&out.results)
            })
            .collect()
    }

    fn layer_data(&self) -> LayerData {
        let tokens = tokenize(&self.shards[0]);
        let mut vocab: Vec<&str> = self.exact.keys().map(String::as_str).collect();
        vocab.sort_unstable();
        let id = |w: &str| vocab.binary_search(&w).expect("token is in the vocabulary") as u64;
        let keys: Vec<u64> = tokens.iter().map(|t| id(t)).collect();
        let concat: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| tokenize(s))
            .map(|t| id(&t))
            .collect();
        LayerData {
            keys,
            concat,
            k: K,
            tokens,
        }
    }
}
