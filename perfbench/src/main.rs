//! The repository benchmark: four workloads of the top-k selection stack,
//! each run as a closed loop with one caller, every result checked against
//! an oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--heldout-seed <n>]
//! ```
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run, and the
//! spans go to `perfbench/out/trace-<workload>-<seed>.jsonl`.  Layers a
//! workload does not call itself are reported from short companion runs of
//! the workloads that do.  A run fails (exit code 1) if an op fails its
//! oracle or a metered count does not repeat exactly.

mod harness;
mod probes;
mod select;
mod stream;
mod trace;
mod wordfreq;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use harness::{check_cycle_counts, median, peak_rss_mb, quantile, LoopPlan, Op};
use trace::{PeTrace, Trace};
use workload::{timed, Backend, Phase, Scale, Workload};

const WORKLOADS: [&str; 4] = [
    "select-kernel",
    "wordfreq-text",
    "stream-ingest",
    "select-massive-p",
];
/// Worker threads of the multiplexed backend.
const MUX_WORKERS: usize = 2;
/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed ops needed so that at least ten samples lie beyond the p90.
const MIN_TIMED_OPS: usize = 100;
/// A run that has not finished by then exits without a result.
const HARD_LIMIT: Duration = Duration::from_secs(170);
/// Salt that keeps held-out seeds disjoint from the seeds used in tuning.
const HELDOUT_SALT: u64 = 0x4845_4C44_4F55_5421;

/// Every per-layer metric with its unit, in output order.
const PER_LAYER: [(&str, &str); 40] = [
    ("datagen.gen_ms", "ms"),
    ("seqkit.partition_ns_per_elem", "ns"),
    ("seqkit.sample_ns_per_elem", "ns"),
    ("seqkit.select_seq_ms", "ms"),
    ("seqkit.count_keys_ns_per_item", "ns"),
    ("seqkit.intern_ns_per_token", "ns"),
    ("seqkit.sketch_insert_ns", "ns"),
    ("codec.encode_ns_per_word.u64", "ns"),
    ("codec.decode_ns_per_word.u64", "ns"),
    ("codec.encode_ns_per_word.pair", "ns"),
    ("codec.decode_ns_per_word.pair", "ns"),
    ("codec.encode_ns_per_word.string", "ns"),
    ("codec.decode_ns_per_word.string", "ns"),
    ("transport.pingpong_us", "us"),
    ("transport.ns_per_word", "ns"),
    ("transport.full_mesh_us", "us"),
    ("transport.pool_reuse_ratio", "ratio"),
    ("collectives.barrier_us", "us"),
    ("collectives.allreduce_sum_us", "us"),
    ("collectives.allgather_us", "us"),
    ("collectives.alltoall_us", "us"),
    ("runner.region_us", "us"),
    ("runner.pe_skew_ms", "ms"),
    ("mux.region_ms", "ms"),
    ("mux.us_per_message", "us"),
    ("mux.us_per_pe", "us"),
    ("topk.unsorted.recursion_levels", "count"),
    ("topk.frequent.exec_ms", "ms"),
    ("topk.frequent.sample_ratio", "ratio"),
    ("topk.planner.plan_ms", "ms"),
    ("topk.planner.words_err", "ratio"),
    ("workloads.text.tokenize_ms", "ms"),
    ("workloads.text.intern_ms", "ms"),
    ("workloads.text.intern_words", "count"),
    ("workloads.stream.plain_batch_ms", "ms"),
    ("workloads.stream.refresh_batch_ms", "ms"),
    ("workloads.stream.query_count_us", "us"),
    ("workloads.stream.new_vocab", "count"),
    ("workloads.stream.staleness_items_p95", "items"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    heldout: bool,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut heldout, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--heldout-seed" => heldout = Some(number()?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_string());
    }
    let (seed, heldout) = match (heldout, seed) {
        (Some(h), _) => (h ^ HELDOUT_SALT, true),
        (None, Some(s)) => (s, false),
        (None, None) => return Err("--seed or --heldout-seed is required".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        heldout,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn build(name: &str, scale: Scale, seed: u64) -> Box<dyn Workload + Sync> {
    match name {
        "select-kernel" => Box::new(select::Select::kernel(scale, seed)),
        "wordfreq-text" => Box::new(wordfreq::WordFreq::new(scale, seed)),
        "stream-ingest" => Box::new(stream::Stream::new(scale, seed)),
        "select-massive-p" => Box::new(select::Select::massive(scale, seed, MUX_WORKERS)),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// The static name of a (checked) workload name.
fn static_name(name: &str) -> &'static str {
    WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .expect("workload names are checked when parsing")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c if c.is_control() => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The machine and configuration this result belongs to.
fn descriptor(args: &Args, w: &dyn Workload) -> String {
    let (backend, workers) = match w.backend() {
        Backend::Threaded => ("threaded", 0),
        Backend::Mux { workers } => ("mux", workers),
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"machine\":{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"workload\":{},\"backend\":\"{backend}\",\"p\":{},\"mux_workers\":{workers},\"seed\":{},\"seed_set\":\"{}\"}}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&args.workload),
        w.p(),
        args.seed,
        if args.heldout { "heldout" } else { "tuning" },
    )
}

/// Threads this workload occupies must not exceed the machine's cores.
fn check_machine(w: &dyn Workload) -> Result<(), String> {
    let (threads, what) = match w.backend() {
        Backend::Threaded => (w.p(), "threaded PEs"),
        Backend::Mux { workers } => (workers, "mux workers"),
    };
    if threads > nproc() {
        return Err(format!(
            "refusing to run {threads} {what} on a machine with nproc = {}",
            nproc()
        ));
    }
    Ok(())
}

/// Ops run, ops failed, and the first failure seen.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, phase: &Phase) {
        self.attempted += phase.ops.len() as u64;
        self.failed += phase.ops.iter().filter(|o| !o.ok).count() as u64;
        if let Some(bad) = phase.ops.iter().position(|o| !o.ok) {
            self.errors
                .push(format!("{what}: op {bad} failed its oracle"));
        }
        if let Some(msg) = &phase.panic {
            self.attempted += 1;
            self.failed += 1;
            self.errors.push(format!("{what}: an op panicked: {msg}"));
        }
    }

    fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// Count determinism: within a phase, ops repeat their cycle's counts; the
/// first op, replayed on the sequential backend, meters the same.
fn check_counts(w: &dyn Workload, phase: &Phase) -> Result<(), String> {
    check_cycle_counts(&phase.ops, w.cycle())?;
    let replay = w.replay_seq(1);
    let first = phase.ops.first().ok_or("no op completed")?;
    if replay[0] != (first.words, first.startups) {
        return Err(format!(
            "op 0 metered {:?} words/start-ups, its replay on the seq backend {:?}",
            (first.words, first.startups),
            replay[0]
        ));
    }
    Ok(())
}

fn timed_ops<'a>(w: &dyn Workload, phase: &'a Phase) -> &'a [Op] {
    &phase.ops[w.warmup().min(phase.ops.len())..]
}

fn latency_ms(ops: &[Op]) -> Vec<f64> {
    let mut v: Vec<f64> = ops.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean per-op count over the first cycle (a deterministic figure).
fn cycle_mean(w: &dyn Workload, ops: &[Op], f: impl Fn(&Op) -> u64) -> f64 {
    let first = &ops[..w.cycle().min(ops.len())];
    first.iter().map(&f).sum::<u64>() as f64 / first.len().max(1) as f64
}

/// Split the timed ops into as many consecutive blocks of at least
/// `MIN_TIMED_OPS` ops (whole granules) as they fill.  Timings are reported
/// as the median over blocks, so a burst of machine noise in one block does
/// not move them.
fn blocks<'a>(w: &dyn Workload, ops: &'a [Op]) -> Vec<&'a [Op]> {
    let count = (ops.len() / MIN_TIMED_OPS).max(1);
    let len = (ops.len() / count / w.granule()).max(1) * w.granule();
    ops.chunks(len).filter(|b| b.len() == len).collect()
}

fn end_to_end(
    w: &dyn Workload,
    phase: &Phase,
    setup_s: f64,
    peak_rss_mb: f64,
    tally: &Tally,
) -> Vec<(&'static str, f64, &'static str)> {
    let blocks = blocks(w, timed_ops(w, phase));
    let per_block =
        |f: &dyn Fn(&[Op]) -> f64| median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>());
    let rate = |b: &[Op]| {
        let items: u64 = b.iter().map(|o| o.items).sum();
        items as f64 / (b[b.len() - 1].t1 - b[0].t0).as_secs_f64()
    };
    vec![
        ("setup_s", setup_s, "s"),
        (
            "latency_ms_p50",
            per_block(&|b| quantile(&latency_ms(b), 0.5)),
            "ms",
        ),
        (
            "latency_ms_p90",
            per_block(&|b| quantile(&latency_ms(b), 0.9)),
            "ms",
        ),
        ("items_per_s", per_block(&rate), "1/s"),
        (
            "words_per_pe",
            cycle_mean(w, &phase.ops, |o| o.words),
            "words",
        ),
        (
            "startups_per_pe",
            cycle_mean(w, &phase.ops, |o| o.startups),
            "count",
        ),
        (
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn plan(w: &dyn Workload, seconds: f64, min_ops: usize, trace: bool) -> LoopPlan {
    LoopPlan {
        warmup: w.warmup(),
        min_ops,
        seconds,
        granule: w.granule(),
        trace,
    }
}

/// The traced run: an untraced and a traced phase of equal length (their
/// p50s give the tracing overhead), companion runs for the layers this
/// workload does not call, and the per-layer probes on its own input.
fn per_layer(
    args: &Args,
    w: &dyn Workload,
    setup_ms: f64,
    tally: &mut Tally,
    trace: &mut Trace,
) -> BTreeMap<&'static str, f64> {
    let half = args.seconds / 2.0;
    let plain = w.run(plan(w, half, 20, false));
    tally.add("untraced phase", &plain);
    let traced = w.run(plan(w, half, 20, true));
    tally.add("traced phase", &traced);
    if let Err(e) = check_counts(w, &plain) {
        tally.fail(e);
    }
    let mut m: BTreeMap<&'static str, f64> = traced.layer.iter().copied().collect();
    let (pu, pt) = (
        latency_ms(timed_ops(w, &plain)),
        latency_ms(timed_ops(w, &traced)),
    );
    if !pu.is_empty() && !pt.is_empty() {
        m.insert(
            "trace.overhead_frac",
            quantile(&pt, 0.5) / quantile(&pu, 0.5) - 1.0,
        );
    }
    let ops = timed_ops(w, &plain);
    let skew: Vec<f64> = ops.iter().map(|o| o.skew.as_secs_f64() * 1e3).collect();
    if !skew.is_empty() {
        m.insert("runner.pe_skew_ms", median(&skew));
    }
    let received: u64 = ops.iter().map(|o| o.received).sum();
    let pooled: u64 = ops.iter().map(|o| o.pooled_reuses).sum();
    m.insert(
        "transport.pool_reuse_ratio",
        pooled as f64 / received.max(1) as f64,
    );
    let words = cycle_mean(w, &plain.ops, |o| o.words);
    let startups = cycle_mean(w, &plain.ops, |o| o.startups).max(1.0);
    let payload = ((words / startups).ceil() as usize).max(1);
    trace.absorb(static_name(&args.workload), traced.trace);

    for name in WORKLOADS.iter().filter(|&&n| n != args.workload) {
        let companion = build(name, Scale::Companion, args.seed);
        let run = companion.run(LoopPlan {
            warmup: 0,
            min_ops: companion.granule().max(4),
            seconds: 0.0,
            granule: companion.granule(),
            trace: true,
        });
        tally.add(&format!("companion {name}"), &run);
        for (metric, value) in run.layer {
            m.entry(metric).or_insert(value);
        }
        trace.absorb(name, run.trace);
    }

    m.insert("datagen.gen_ms", setup_ms);
    let data = w.layer_data();
    m.extend(probes::seqkit(&data));
    m.extend(probes::codec(&data));
    m.extend(probes::transport(w.p(), payload.max(1 << 10)));
    m.extend(probes::collectives(w.backend(), w.p(), payload));
    m
}

fn print_result(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(",")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: no result after {HARD_LIMIT:?}; giving up");
        std::process::exit(3);
    });
    let epoch = Instant::now();

    // Set-up: generate the inputs and the oracle, several times.
    let mut setup_trace = PeTrace::new(args.trace, 0);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        setup_trace.set_op(rep);
        // Only one input set is alive at a time, so set-up does not inflate
        // the peak resident set.
        drop(workload.take());
        let (w, d) = timed(|| {
            setup_trace.span("datagen.setup", || {
                build(&args.workload, Scale::Full, args.seed)
            })
        });
        setups.push(d.as_secs_f64());
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    let w: &dyn Workload = w.as_ref();
    let setup_s = median(&setups);
    println!("{}", descriptor(&args, w));
    if let Err(e) = check_machine(w) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }

    let mut tally = Tally::default();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut trace = Trace::default();
        let m = per_layer(&args, w, setup_s * 1e3, &mut tally, &mut trace);
        let mut setup = Trace::default();
        setup.add(setup_trace.into_spans());
        trace.absorb("setup", setup);
        let line = trace::self_time_line(&trace);
        println!("{line}");
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::write_jsonl(&trace, epoch)))
        {
            tally.fail(format!("cannot write {}: {e}", path.display()));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match m.get(name) {
                Some(&v) => (name, v, unit),
                None => {
                    tally.fail(format!("per-layer metric {name} was not measured"));
                    (name, 0.0, unit)
                }
            })
            .collect()
    } else {
        let min_ops = MIN_TIMED_OPS.max(w.cycle().saturating_sub(w.warmup()));
        let phase = w.run(plan(w, args.seconds, min_ops, false));
        let rss = peak_rss_mb();
        tally.add("timed phase", &phase);
        if let Err(e) = check_counts(w, &phase) {
            tally.fail(format!("metered counts do not repeat: {e}"));
        }
        if timed_ops(w, &phase).len() < MIN_TIMED_OPS {
            tally.fail(format!("fewer than {MIN_TIMED_OPS} timed ops"));
        }
        end_to_end(w, &phase, setup_s, rss, &tally)
    };
    for e in &tally.errors {
        eprintln!("perfbench: {e}");
    }
    let correct = tally.errors.is_empty() && tally.failed == 0;
    print_result(correct, &tally, &metrics);
    std::process::exit(if correct { 0 } else { 1 });
}
