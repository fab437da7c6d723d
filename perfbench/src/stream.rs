//! `stream-ingest`: the streaming top-k service on p = 2 threaded PEs.
//! Each op is one `StreamService::ingest_batch` (a write: new words are
//! interned and sketched, and every fourth batch publishes a fresh global
//! top-k) followed by point `query_count` reads, under vocabulary drift
//! plus one flash-crowd burst.  Batches are small and frequent, so
//! start-up latency in the transport and the collectives, and sketch
//! updates, dominate.
//!
//! A session is a fresh service fed `SESSION` batches; sessions repeat, so
//! op `i` meters exactly what op `i mod SESSION` metered.  `ingest_batch`
//! draws each batch from the corpus itself, so batch generation is inside
//! the op; only the oracle is computed in set-up.

use std::collections::{HashMap, HashSet};

use commsim::{run_spmd_seq, Communicator};
use datagen::{FlashCrowd, StreamProfile, TextCorpus};
use seqkit::Interner;
use workloads::stream::{StreamConfig, StreamService};
use workloads::text::tokenize;

use crate::harness::{closed_loop, median, quantile, LoopPlan, Op};
use crate::trace::PeTrace;
use crate::workload::{bottleneck, metered, mix, Backend, LayerData, Phase, Scale, Workload};

const P: usize = 2;
const SESSION: usize = 32;
const QUERIES: usize = 4;

/// What one PE's batch returns.
pub struct StreamOut {
    refreshed: bool,
    new_vocab: usize,
    staleness: u64,
    /// The published top-k after a refreshing batch (rank 0 only).
    published: Option<Vec<(String, u64)>>,
}

/// What the report keeps of one PE's batch: the oracle's verdict and counts.
#[derive(Debug, Clone, Copy)]
pub struct StreamDigest {
    ok: bool,
    refreshed: bool,
    new_vocab: usize,
    staleness: u64,
}

/// Exact window counts at one refresh, and the sketch's error bound there.
struct WindowOracle {
    counts: HashMap<String, u64>,
    ranked: Vec<(String, u64)>,
    bound: u64,
}

pub struct Stream {
    config: StreamConfig,
    corpus: TextCorpus,
    profile: StreamProfile,
    /// Words the point queries ask for, one list per batch position.
    queries: Vec<Vec<String>>,
    /// Oracle per batch position of a session (`None` if it does not refresh).
    oracle: Vec<Option<WindowOracle>>,
}

impl Stream {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (words_per_batch, vocab) = match scale {
            Scale::Full => (2048, 1 << 13),
            Scale::Companion => (256, 1 << 11),
        };
        let config = StreamConfig {
            k: 10,
            window: 8,
            sketch_capacity: 64,
            refresh_every: 4,
            words_per_batch,
            seed: mix(seed ^ 0x57EA),
            ..StreamConfig::default()
        };
        let profile = StreamProfile {
            drift_every: 8,
            drift_step: 5,
            burst: Some(FlashCrowd {
                start: 16,
                len: 8,
                rank: 100,
                intensity: 0.2,
            }),
        };
        let corpus = TextCorpus::new(vocab, 1.05, mix(seed));
        let per_batch: Vec<HashMap<&str, u64>> = (0..SESSION)
            .map(|b| {
                let mut counts = HashMap::new();
                for r in 0..P {
                    for w in corpus.stream_batch_words(&profile, r, b, words_per_batch) {
                        *counts.entry(w).or_insert(0) += 1;
                    }
                }
                counts
            })
            .collect();
        let oracle = (0..SESSION)
            .map(|t| {
                (t % config.refresh_every == 0).then(|| {
                    let start = (t + 1).saturating_sub(config.window);
                    let mut counts: HashMap<String, u64> = HashMap::new();
                    for batch in &per_batch[start..=t] {
                        for (w, c) in batch {
                            *counts.entry(w.to_string()).or_insert(0) += c;
                        }
                    }
                    let mut ranked: Vec<(String, u64)> =
                        counts.iter().map(|(w, &c)| (w.clone(), c)).collect();
                    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    let per_pe = ((t + 1 - start) * words_per_batch) as u64
                        / (config.sketch_capacity as u64 + 1);
                    WindowOracle {
                        counts,
                        ranked,
                        bound: per_pe * P as u64,
                    }
                })
            })
            .collect();
        let queries = (0..SESSION)
            .map(|t| {
                let hot = corpus.stream_hot_word(&profile, t).to_string();
                let mut q = vec![hot, corpus.word_for_rank(100).to_string()];
                q.extend((2..=QUERIES - 1).map(|r| corpus.word_for_rank(r * 7).to_string()));
                q
            })
            .collect();
        Stream {
            config,
            corpus,
            profile,
            queries,
            oracle,
        }
    }

    fn batch<C: Communicator>(
        &self,
        comm: &C,
        service: &mut StreamService,
        i: usize,
        tr: &mut PeTrace,
    ) -> StreamOut {
        let pos = i % SESSION;
        if pos == 0 {
            *service = StreamService::new(self.config);
        }
        let report = tr
            .span("workloads.stream.ingest_batch", || {
                service.ingest_batch(comm, &self.corpus, &self.profile)
            })
            .clone();
        for word in &self.queries[pos] {
            tr.span("workloads.stream.query_count", || service.query_count(word));
        }
        StreamOut {
            refreshed: report.refreshed,
            new_vocab: report.new_vocab,
            staleness: report.staleness_items,
            published: (report.refreshed && comm.rank() == 0)
                .then(|| service.serving_topk().to_vec()),
        }
    }

    /// The oracle: after a refresh, every published count is an
    /// under-estimate of the exact window count within the sketch bound, and
    /// no unpublished word beats the weakest published one by more than it.
    fn correct(&self, pos: usize, out: &StreamOut) -> bool {
        let (Some(oracle), Some(published)) = (&self.oracle[pos], &out.published) else {
            return out.refreshed == self.oracle[pos].is_some();
        };
        let within = published.iter().all(|(w, c)| {
            let truth = oracle.counts.get(w).copied().unwrap_or(0);
            *c <= truth && truth - c <= oracle.bound
        });
        let names: HashSet<&str> = published.iter().map(|(w, _)| w.as_str()).collect();
        let weakest = published.iter().map(|&(_, c)| c).min().unwrap_or(0);
        let best_missed = oracle
            .ranked
            .iter()
            .find(|(w, _)| !names.contains(w.as_str()))
            .map_or(0, |&(_, c)| c);
        published.len() == self.config.k.min(oracle.ranked.len())
            && within
            && best_missed <= weakest + oracle.bound
    }

    fn items(&self) -> u64 {
        (self.config.words_per_batch * P) as u64
    }
}

impl Workload for Stream {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn p(&self) -> usize {
        P
    }

    fn cycle(&self) -> usize {
        SESSION
    }

    fn warmup(&self) -> usize {
        SESSION
    }

    fn granule(&self) -> usize {
        SESSION
    }

    fn run(&self, plan: LoopPlan) -> Phase {
        let out = closed_loop(
            P,
            plan,
            |_| StreamService::new(self.config),
            |comm, service, i, tr| self.batch(comm, service, i, tr),
            |_, i, out| StreamDigest {
                ok: self.correct(i % SESSION, &out),
                refreshed: out.refreshed,
                new_vocab: out.new_vocab,
                staleness: out.staleness,
            },
        );
        let mut refreshed = Vec::new();
        let mut session: Vec<StreamDigest> = Vec::new();
        let ops: Vec<Op> = (0..out.complete_ops())
            .map(|i| {
                let pes = out.op(i);
                let rank0 = pes[0].out;
                refreshed.push(rank0.refreshed);
                if i < SESSION {
                    session.push(rank0);
                }
                Op::from_pes(&pes, self.items(), pes.iter().all(|r| r.out.ok))
            })
            .collect();
        let mut layer = Vec::new();
        if !session.is_empty() {
            let mut staleness: Vec<f64> = session.iter().map(|o| o.staleness as f64).collect();
            staleness.sort_by(f64::total_cmp);
            layer.push((
                "workloads.stream.staleness_items_p95",
                quantile(&staleness, 0.95),
            ));
            let vocab: usize = session.iter().map(|o| o.new_vocab).sum();
            layer.push((
                "workloads.stream.new_vocab",
                vocab as f64 / session.len() as f64,
            ));
        }
        let ingest: Vec<(bool, f64)> = out
            .trace
            .spans()
            .filter(|s| s.name == "workloads.stream.ingest_batch")
            .map(|s| (refreshed.get(s.op).copied().unwrap_or(false), s.micros()))
            .collect();
        for (metric, kind) in [
            ("workloads.stream.plain_batch_ms", false),
            ("workloads.stream.refresh_batch_ms", true),
        ] {
            let us: Vec<f64> = ingest.iter().filter(|s| s.0 == kind).map(|s| s.1).collect();
            if !us.is_empty() {
                layer.push((metric, median(&us) / 1e3));
            }
        }
        let queries = out.trace.micros_of("workloads.stream.query_count");
        if !queries.is_empty() {
            layer.push(("workloads.stream.query_count_us", median(&queries)));
        }
        Phase {
            ops,
            trace: out.trace,
            panic: out.panic,
            layer,
        }
    }

    fn replay_seq(&self, n: usize) -> Vec<(u64, u64)> {
        let out = run_spmd_seq(P, |comm| {
            let mut service = StreamService::new(self.config);
            let mut quiet = PeTrace::new(false, comm.rank());
            (0..n)
                .map(|i| metered(comm, || self.batch(comm, &mut service, i, &mut quiet)).1)
                .collect::<Vec<_>>()
        });
        (0..n)
            .map(|i| {
                let per_pe: Vec<_> = out.results.iter().map(|r| r[i]).collect();
                bottleneck(&per_pe)
            })
            .collect()
    }

    fn layer_data(&self) -> LayerData {
        let batch_tokens = |r: usize| -> Vec<String> {
            (0..8)
                .flat_map(|b| {
                    let text = self.corpus.stream_batch_text(
                        &self.profile,
                        r,
                        b,
                        self.config.words_per_batch,
                    );
                    tokenize(&text)
                })
                .collect()
        };
        let tokens = batch_tokens(0);
        let mut interner = Interner::new();
        let keys: Vec<u64> = tokens.iter().map(|t| interner.intern(t)).collect();
        let mut concat = keys.clone();
        concat.extend(batch_tokens(1).iter().map(|t| interner.intern(t)));
        LayerData {
            keys,
            concat,
            k: self.config.k,
            tokens,
        }
    }
}
