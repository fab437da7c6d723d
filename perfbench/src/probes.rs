//! Per-layer probes: each times one public call of a layer on the
//! workload's own input, backend, p and payload size, with nothing else
//! running.

use std::hint::black_box;
use std::time::{Duration, Instant};

use commsim::transport::{Envelope, Mailbox};
use commsim::{run_spmd, run_spmd_mux_with, Communicator, MuxConfig, WordCodec, WordReader};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::hashagg::count_keys;
use seqkit::sampling::bernoulli_sample;
use seqkit::select::{partition_three_way_counts, select_kth_smallest};
use seqkit::{Interner, SlidingWindowTopK};

use crate::harness::median;
use crate::workload::{Backend, LayerData};

/// Median time of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    Duration::from_secs_f64(median(&times))
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

pub fn seqkit(data: &LayerData) -> Vec<(&'static str, f64)> {
    let keys = &data.keys;
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let (lo, hi) = (sorted[sorted.len() / 4], sorted[sorted.len() * 3 / 4]);
    let partition = median_time(9, || {
        black_box(partition_three_way_counts(black_box(keys), &lo, &hi));
    });
    let mut rng = StdRng::seed_from_u64(7);
    let sample = median_time(9, || {
        black_box(bernoulli_sample(black_box(keys), 0.01, &mut rng));
    });
    let select = median_time(3, || {
        black_box(select_kth_smallest(
            black_box(&data.concat),
            data.k,
            &mut rng,
        ));
    });
    let count = median_time(5, || {
        black_box(count_keys(black_box(keys).iter().copied()));
    });
    let intern = median_time(5, || {
        black_box(Interner::from_words(data.tokens.iter().map(String::as_str)));
    });
    let sketch = median_time(5, || {
        let mut s = SlidingWindowTopK::new(8, 64);
        for &k in keys {
            s.insert(k);
        }
        black_box(s.window_count());
    });
    vec![
        (
            "seqkit.partition_ns_per_elem",
            ns_per(partition, keys.len()),
        ),
        ("seqkit.sample_ns_per_elem", ns_per(sample, keys.len())),
        ("seqkit.select_seq_ms", select.as_secs_f64() * 1e3),
        ("seqkit.count_keys_ns_per_item", ns_per(count, keys.len())),
        (
            "seqkit.intern_ns_per_token",
            ns_per(intern, data.tokens.len()),
        ),
        ("seqkit.sketch_insert_ns", ns_per(sketch, keys.len())),
    ]
}

/// Encode and decode cost per word of one value.
fn codec_ns<T: WordCodec>(value: &T) -> (f64, f64) {
    let mut wire = Vec::with_capacity(value.encoded_len());
    let encode = median_time(9, || {
        wire.clear();
        black_box(value).encode(&mut wire);
    });
    let decode = median_time(9, || {
        black_box(T::decode(&mut WordReader::new(black_box(&wire))).expect("round trip"));
    });
    (ns_per(encode, wire.len()), ns_per(decode, wire.len()))
}

pub fn codec(data: &LayerData) -> Vec<(&'static str, f64)> {
    let words: Vec<u64> = data.keys.iter().take(1 << 16).copied().collect();
    let mut pairs: Vec<(u64, u64)> = count_keys(data.keys.iter().copied()).into_iter().collect();
    pairs.sort_unstable();
    pairs.truncate(1 << 15);
    let strings: Vec<String> = data.tokens.iter().take(1 << 14).cloned().collect();
    let (eu, du) = codec_ns(&words);
    let (ep, dp) = codec_ns(&pairs);
    let (es, ds) = codec_ns(&strings);
    vec![
        ("codec.encode_ns_per_word.u64", eu),
        ("codec.decode_ns_per_word.u64", du),
        ("codec.encode_ns_per_word.pair", ep),
        ("codec.decode_ns_per_word.pair", dp),
        ("codec.encode_ns_per_word.string", es),
        ("codec.decode_ns_per_word.string", ds),
    ]
}

/// Round trips of a one-word message between two transport endpoints, and
/// one-way streaming of `words`-word messages.
pub fn transport(p: usize, words: usize) -> Vec<(&'static str, f64)> {
    const ROUNDS: usize = 2000;
    const STREAMED: usize = 200;
    let mut mesh = Mailbox::full_mesh(2);
    let b = mesh.pop().expect("two endpoints");
    let a = mesh.pop().expect("two endpoints");
    let payload: Vec<u64> = (0..words as u64).collect();
    let (pingpong, stream) = std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..ROUNDS {
                let env = b.recv(0).expect("peer alive");
                b.send(0, env).expect("peer alive");
            }
            for _ in 0..STREAMED {
                let (_, _, v) = b
                    .recv(0)
                    .expect("peer alive")
                    .open::<Vec<u64>>()
                    .expect("typed");
                black_box(v);
            }
            b.send(0, Envelope::new(1, 1, 0u64)).expect("peer alive");
        });
        let t = Instant::now();
        for i in 0..ROUNDS {
            a.send(1, Envelope::new(0, 0, i as u64))
                .expect("peer alive");
            black_box(a.recv(1).expect("peer alive"));
        }
        let pingpong = t.elapsed();
        let t = Instant::now();
        for _ in 0..STREAMED {
            a.send(1, Envelope::new(0, 0, payload.clone()))
                .expect("peer alive");
        }
        a.recv(1).expect("peer alive");
        (pingpong, t.elapsed())
    });
    let mesh = median_time(21, || {
        black_box(Mailbox::full_mesh(p));
    });
    vec![
        (
            "transport.pingpong_us",
            pingpong.as_secs_f64() * 1e6 / ROUNDS as f64,
        ),
        ("transport.ns_per_word", ns_per(stream, STREAMED * words)),
        ("transport.full_mesh_us", mesh.as_secs_f64() * 1e6),
    ]
}

/// One call of collective `kind` (an index into [`NAMES`]).
fn collective<C: Communicator>(comm: &C, kind: usize, payload: usize, item: usize) {
    match kind {
        0 => comm.barrier(),
        1 => {
            black_box(comm.allreduce_sum(comm.rank() as u64));
        }
        2 => {
            black_box(comm.allgather(vec![comm.rank() as u64; payload]));
        }
        _ => {
            black_box(comm.alltoall(vec![vec![comm.rank() as u64; item]; comm.size()]));
        }
    }
}

const NAMES: [&str; 4] = [
    "collectives.barrier_us",
    "collectives.allreduce_sum_us",
    "collectives.allgather_us",
    "collectives.alltoall_us",
];

/// The collectives at the workload's backend, p and payload (words each PE
/// contributes; an all-to-all splits it over the destinations), and the
/// cost of an empty SPMD region.  On the multiplexed backend a collective
/// is timed as one region minus an empty one, since closures replay.
pub fn collectives(backend: Backend, p: usize, payload: usize) -> Vec<(&'static str, f64)> {
    let item = (payload / p).max(1);
    let mut out = Vec::new();
    match backend {
        Backend::Threaded => {
            const REPS: usize = 200;
            for (kind, name) in NAMES.into_iter().enumerate() {
                let per_pe = run_spmd(p, |comm| {
                    for _ in 0..10 {
                        collective(comm, kind, payload, item);
                    }
                    comm.barrier();
                    let t = Instant::now();
                    for _ in 0..REPS {
                        collective(comm, kind, payload, item);
                    }
                    t.elapsed().as_secs_f64() * 1e6 / REPS as f64
                });
                out.push((name, per_pe.results.iter().copied().fold(0.0, f64::max)));
            }
            let empty = median_time(21, || {
                run_spmd(p, |_| ());
            });
            out.push(("runner.region_us", empty.as_secs_f64() * 1e6));
        }
        Backend::Mux { workers } => {
            let config = MuxConfig::new(p).with_workers(workers);
            let empty = median_time(9, || {
                run_spmd_mux_with(config.clone(), |_| ());
            });
            for (kind, name) in NAMES.into_iter().enumerate() {
                let region = median_time(9, || {
                    run_spmd_mux_with(config.clone(), |comm| collective(comm, kind, payload, item));
                });
                out.push((name, (region.as_secs_f64() - empty.as_secs_f64()) * 1e6));
            }
            out.push(("runner.region_us", empty.as_secs_f64() * 1e6));
        }
    }
    out
}
