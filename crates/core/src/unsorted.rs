//! Communication-efficient selection from unsorted input (paper §4.1).
//!
//! This is the paper's Algorithm 1 — a distributed Floyd–Rivest-style
//! selection.  Each level of recursion takes a Bernoulli sample of the
//! remaining elements (expected size `O(√p)` in total), picks two pivots
//! `ℓ ≤ r` bracketing the target rank from the sorted sample, counts the
//! local elements `< ℓ`, `== ℓ`, strictly between, `== r` and `> r` in one
//! branchless sweep ([`partition_pivot_counts`]), sums the counts with one
//! all-reduction and either stops — the target rank falls on a pivot value —
//! or recurses into the strict value range containing it.  Theorem 1 shows
//! the algorithm needs neither randomly distributed input nor any data
//! redistribution: expected time `O(n/p + β·min(√p·log_p n, n/p) + α log n)`.
//!
//! The recursion runs on plain values.  A unique order matters for one thing
//! only, cutting at exactly `k` elements when the threshold value occurs
//! several times; [`select_k_smallest`] resolves that once, at the end, from
//! per-PE copy counts (the first copies in PE-rank, then local-position
//! order are selected).  Every narrowing drops the pivot values, so each
//! level either stops or strictly shrinks the problem, however many
//! duplicates the input holds.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::ControlFlow;

use commsim::{CommData, Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::sampling::{bernoulli_sample, bernoulli_sample_retain};
use seqkit::select::partition_pivot_counts;

/// Result of a distributed unsorted selection.
#[derive(Debug, Clone)]
pub struct UnsortedSelectionResult<T> {
    /// The element of global rank `k` (1-based) — the selection
    /// "threshold".
    pub threshold: T,
    /// This PE's elements among the `k` globally smallest.  The lengths of
    /// these vectors over all PEs sum to exactly `k`.
    pub local_selected: Vec<T>,
    /// Number of recursion levels the algorithm used (the paper's analysis
    /// predicts `O(log_p n)` levels).
    pub recursion_levels: usize,
}

/// Tuning knobs of the selection algorithm.  The defaults follow the paper's
/// analysis; they are exposed for the ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct UnsortedSelectionConfig {
    /// Once the remaining problem is at most this many elements in total, it
    /// is gathered to every PE and solved locally.
    pub base_case_size: usize,
    /// Expected total sample size as a multiple of `√p`.
    pub sample_factor: f64,
    /// Exponent `e` of the pivot bracket `Δ = |S|^e` (the paper uses
    /// `Δ = p^{1/4+δ}`, i.e. `e ≈ 5/6` relative to `|S| ≈ √p`).
    pub bracket_exponent: f64,
    /// Hard cap on recursion levels before falling back to the base case
    /// (safety net; never reached for sane inputs).
    pub max_levels: usize,
}

impl Default for UnsortedSelectionConfig {
    fn default() -> Self {
        UnsortedSelectionConfig {
            base_case_size: 1024,
            sample_factor: 1.0,
            bracket_exponent: 5.0 / 6.0,
            max_levels: 64,
        }
    }
}

/// Select the `k` globally smallest elements of the distributed input.
///
/// `local` is this PE's part of the input; `k` counts over the union of all
/// PEs' parts and must satisfy `1 ≤ k ≤ Σ|local|`.  Copies of the threshold
/// value are taken in PE-rank, then local-position order, so exactly `k`
/// elements are selected in total.
pub fn select_k_smallest<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    select_k_smallest_with(comm, local, k, seed, UnsortedSelectionConfig::default())
}

/// [`select_k_smallest`] with explicit tuning parameters.
pub fn select_k_smallest_with<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
    config: UnsortedSelectionConfig,
) -> UnsortedSelectionResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let (cut, recursion_levels) = select_cut(comm, local, k, seed, &config);
    let local_selected = resolve_ties(comm, local, &cut);
    UnsortedSelectionResult {
        threshold: cut.threshold,
        local_selected,
        recursion_levels,
    }
}

/// Select only the threshold (the element of global rank `k`), without
/// materialising the selected set.
///
/// This runs the same recursion as [`select_k_smallest`] — same RNG stream,
/// same messages — and skips only its final tie-resolution step (at most
/// one exclusive prefix sum), pinned by
/// `threshold_only_path_is_the_full_path_minus_tie_resolution` below.
pub fn select_threshold<C, T>(comm: &C, local: &[T], k: usize, seed: u64) -> T
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    select_threshold_with(comm, local, k, seed, UnsortedSelectionConfig::default())
}

/// [`select_threshold`] with explicit tuning parameters.
pub fn select_threshold_with<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
    config: UnsortedSelectionConfig,
) -> T
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    select_cut(comm, local, k, seed, &config).0.threshold
}

/// Select the `k` globally **largest** elements (dual problem, used by the
/// frequent-objects algorithms which want the largest counts).
pub fn select_k_largest<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<std::cmp::Reverse<T>>
where
    C: Communicator,
    T: Ord + Clone + CommData,
    std::cmp::Reverse<T>: CommData,
{
    let reversed: Vec<std::cmp::Reverse<T>> =
        local.iter().cloned().map(std::cmp::Reverse).collect();
    select_k_smallest(comm, &reversed, k, seed)
}

/// Where the cut at rank `k` falls.
struct Cut<T> {
    /// The value of global rank `k`.
    threshold: T,
    /// Which copies of the threshold value lie inside the cut.
    ties: Ties,
}

/// Which copies of the threshold value lie inside the cut.
#[derive(Clone, Copy)]
enum Ties {
    /// All of them.
    All,
    /// The first `rank` copies in (PE rank, local position) order.  `local`
    /// is this PE's number of copies and `before` the number on lower-ranked
    /// PEs, when already known.
    First {
        rank: u64,
        local: u64,
        before: Option<u64>,
    },
}

/// This PE's part of the selected set: every local element below the
/// threshold plus its share of the threshold's copies.  `E_i`, the copies
/// on lower-ranked PEs, costs one exclusive prefix sum unless the recursion
/// already knows it.
fn resolve_ties<C, T>(comm: &C, local: &[T], cut: &Cut<T>) -> Vec<T>
where
    C: Communicator,
    T: Ord + Clone,
{
    let mut take = match cut.ties {
        Ties::All => u64::MAX,
        Ties::First {
            rank,
            local: mine,
            before,
        } => {
            let before = before.unwrap_or_else(|| comm.prefix_sum_exclusive(mine));
            rank.saturating_sub(before).min(mine)
        }
    };
    local
        .iter()
        .filter(|e| match (*e).cmp(&cut.threshold) {
            Ordering::Less => true,
            Ordering::Equal if take > 0 => {
                take -= 1;
                true
            }
            _ => false,
        })
        .cloned()
        .collect()
}

/// The part of a level's problem the recursion continues with: the values
/// strictly inside `(lower, upper)` (`None` = unbounded), among which the
/// target has rank `k` of `total`; this PE holds `retained` of them.
struct Narrowing<T> {
    lower: Option<T>,
    upper: Option<T>,
    k: usize,
    total: usize,
    retained: usize,
}

impl<T: Ord> Narrowing<T> {
    fn keeps(&self, e: &T) -> bool {
        self.lower.as_ref().is_none_or(|l| l < e) && self.upper.as_ref().is_none_or(|u| e < u)
    }
}

/// The global input size, checked against `k`, and this PE's sampling RNG.
fn start<C: Communicator, T>(comm: &C, local: &[T], k: usize, seed: u64) -> (usize, StdRng) {
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= total, "k = {k} exceeds the global input size {total}");
    let rng = StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
    (total, rng)
}

/// Does a level with rank `k` of `total` finish without sampling?
fn finishes(k: usize, total: usize, levels: usize, config: &UnsortedSelectionConfig) -> bool {
    k == 1 || k == total || total <= config.base_case_size || levels >= config.max_levels
}

/// Bernoulli rate for an expected total sample of `sample_factor · √p`.
fn sample_rate(config: &UnsortedSelectionConfig, p: usize, total: usize) -> f64 {
    (config.sample_factor * (p as f64).sqrt() / total as f64).clamp(0.0, 1.0)
}

/// The shortcuts that end the recursion: the extremes need one reduction; a
/// small remainder (or a runaway recursion) is gathered and solved locally
/// (volume `O(base_case_size)`, latency `O(log p)`).
fn finish<C, T>(
    comm: &C,
    s: &[T],
    k: usize,
    total: usize,
    levels: usize,
    config: &UnsortedSelectionConfig,
) -> Option<Cut<T>>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    if !finishes(k, total, levels, config) {
        return None;
    }
    let copies = |part: &[T], t: &T| part.iter().filter(|e| *e == t).count() as u64;
    if k == 1 {
        let t = global_min(comm, s.iter().min().cloned()).expect("k = 1 requires input");
        let local = copies(s, &t);
        let ties = Ties::First {
            rank: 1,
            local,
            before: None,
        };
        return Some(Cut { threshold: t, ties });
    }
    if k == total {
        let t = global_max(comm, s.iter().max().cloned()).expect("k = total requires input");
        return Some(Cut {
            threshold: t,
            ties: Ties::All,
        });
    }
    // Every copy of the threshold is a survivor, and the gather tells each
    // PE how many copies the lower-ranked PEs hold.
    let parts = comm.allgather(s.to_vec());
    let mut all = parts.concat();
    let t = all.select_nth_unstable(k - 1).1.clone();
    let rank = k as u64 - all.iter().filter(|e| **e < t).count() as u64;
    let me = comm.rank();
    let before = parts[..me].iter().map(|part| copies(part, &t)).sum();
    let ties = Ties::First {
        rank,
        local: copies(&parts[me], &t),
        before: Some(before),
    };
    Some(Cut { threshold: t, ties })
}

/// The gathered, sorted, non-empty pivot sample.  The first attempt uses
/// `pre_drawn` when the previous level's narrowing sweep already drew it;
/// an empty sample (extremely unlikely unless the remainder is tiny) is
/// retried with a doubled rate — every PE takes the same branch because the
/// emptiness test is on the gathered sample.
fn gather_sample<C, T>(
    comm: &C,
    s: &[T],
    mut rho: f64,
    mut pre_drawn: Option<Vec<T>>,
    rng: &mut StdRng,
) -> Vec<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    loop {
        let local_sample = pre_drawn
            .take()
            .unwrap_or_else(|| bernoulli_sample(s, rho, rng));
        let mut sample: Vec<T> = comm.allgather(local_sample).into_iter().flatten().collect();
        if !sample.is_empty() {
            sample.sort();
            return sample;
        }
        rho = (rho * 2.0).clamp(f64::MIN_POSITIVE, 1.0);
    }
}

/// One level after sampling: pick the pivots bracketing rank `k`, count the
/// five value ranges locally and globally (one all-reduction of 4 words;
/// the fifth range follows from `total`) and decide where rank `k` falls:
/// on a pivot value, which ends the recursion, or in a strict range.
fn level_step<C, T>(
    comm: &C,
    s: &[T],
    sample: Vec<T>,
    k: usize,
    total: usize,
    config: &UnsortedSelectionConfig,
) -> ControlFlow<Cut<T>, Narrowing<T>>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let m = sample.len();
    let pos = (k as f64 / total as f64) * m as f64;
    let delta = (m as f64).powf(config.bracket_exponent).max(1.0);
    let lo_idx = ((pos - delta).floor().max(0.0) as usize).min(m - 1);
    let hi_idx = ((pos + delta).ceil().max(0.0) as usize).min(m - 1);
    let lo = sample[lo_idx].clone();
    let hi = sample[hi_idx].clone();

    let mine = partition_pivot_counts(s, &lo, &hi);
    type Counts = (u64, u64, u64, u64);
    let (below, at_lo, between, at_hi) = comm.allreduce(
        (
            mine.below as u64,
            mine.at_lo as u64,
            mine.between as u64,
            mine.at_hi as u64,
        ),
        ReduceOp::custom(|a: &Counts, b: &Counts| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)),
    );
    let [below, at_lo, between, at_hi] = [below, at_lo, between, at_hi].map(|c| c as usize);
    let stop = |threshold: T, rank: usize, copies: usize, local: usize| {
        let ties = if rank == copies {
            Ties::All
        } else {
            Ties::First {
                rank: rank as u64,
                local: local as u64,
                before: None,
            }
        };
        ControlFlow::Break(Cut { threshold, ties })
    };
    let go = |lower, upper, k, total, retained| {
        ControlFlow::Continue(Narrowing {
            lower,
            upper,
            k,
            total,
            retained,
        })
    };
    let (to_lo, to_between) = (below + at_lo, below + at_lo + between);
    let to_hi = to_between + at_hi;
    if k <= below {
        go(None, Some(lo), k, below, mine.below)
    } else if k <= to_lo {
        stop(lo, k - below, at_lo, mine.at_lo)
    } else if k <= to_between {
        go(Some(lo), Some(hi), k - to_lo, between, mine.between)
    } else if k <= to_hi {
        stop(hi, k - to_between, at_hi, mine.at_hi)
    } else {
        go(Some(hi), None, k - to_hi, total - to_hi, mine.above)
    }
}

/// Narrow the survivors to `next`, optionally drawing the next level's
/// Bernoulli(ρ) sample on the way.  The first narrowing copies the
/// survivors out of the borrowed input; later ones filter the owned buffer
/// in place with a stable `retain`, fused with the sampling
/// ([`bernoulli_sample_retain`]: one sweep instead of narrow-then-sample).
/// Either way the sample and the RNG draws equal `bernoulli_sample` over
/// the narrowed buffer.
fn narrow<T: Ord + Clone>(
    s: &mut Cow<'_, [T]>,
    next: &Narrowing<T>,
    rho: Option<f64>,
    rng: &mut StdRng,
) -> Option<Vec<T>> {
    match s {
        Cow::Borrowed(input) => {
            let mut kept = Vec::with_capacity(next.retained);
            kept.extend(input.iter().filter(|e| next.keeps(e)).cloned());
            *s = Cow::Owned(kept);
            rho.map(|rho| bernoulli_sample(s, rho, rng))
        }
        Cow::Owned(buf) => match rho {
            Some(rho) => Some(bernoulli_sample_retain(
                buf,
                |e| next.keeps(e),
                next.retained,
                rho,
                rng,
            )),
            None => {
                buf.retain(|e| next.keeps(e));
                None
            }
        },
    }
}

/// The recursion of Algorithm 1 on plain values, shared by
/// [`select_k_smallest`] and [`select_threshold`].
///
/// Level 0 reads `local` in place; the first narrowing copies the survivors
/// into one owned buffer that only ever shrinks.  Each level sweeps the
/// survivors twice: the branchless five-range count, then the narrowing,
/// which also pre-draws the next level's sample — the globally agreed
/// counts fix the next level's total, and with it its sampling rate and
/// whether it takes a shortcut, before the sweep runs.  The pre-drawn
/// sample is bit-identical to sampling at the next loop top (pinned by
/// `fused_level_is_bit_identical_to_the_two_pass_reference` below), so
/// every message on the wire is too.
fn select_cut<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
    config: &UnsortedSelectionConfig,
) -> (Cut<T>, usize)
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let p = comm.size();
    let (mut total, mut rng) = start(comm, local, k, seed);
    let mut k = k;
    let mut s = Cow::Borrowed(local);
    let mut pending_sample = None;
    let mut levels = 0;
    loop {
        levels += 1;
        if let Some(cut) = finish(comm, &s, k, total, levels, config) {
            return (cut, levels);
        }
        let rho = sample_rate(config, p, total);
        let sample = gather_sample(comm, &s, rho, pending_sample.take(), &mut rng);
        let next = match level_step(comm, &s, sample, k, total, config) {
            ControlFlow::Break(cut) => return (cut, levels),
            ControlFlow::Continue(next) => next,
        };
        let next_rho = (!finishes(next.k, next.total, levels + 1, config))
            .then(|| sample_rate(config, p, next.total));
        pending_sample = narrow(&mut s, &next, next_rho, &mut rng);
        debug_assert_eq!(s.len(), next.retained);
        (k, total) = (next.k, next.total);
    }
}

/// Global minimum over per-PE optional values (`None` = "this PE has no
/// elements left").
fn global_min<C: Communicator, K: Ord + Clone + CommData>(comm: &C, value: Option<K>) -> Option<K> {
    comm.allreduce(
        value,
        ReduceOp::custom(|a: &Option<K>, b: &Option<K>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(x.clone().min(y.clone())),
        }),
    )
}

/// Global maximum over per-PE optional values.
fn global_max<C: Communicator, K: Ord + Clone + CommData>(comm: &C, value: Option<K>) -> Option<K> {
    comm.allreduce(
        value,
        ReduceOp::custom(|a: &Option<K>, b: &Option<K>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(x.clone().max(y.clone())),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_spmd, run_spmd_seq, StatsSnapshot};
    use rand::Rng;

    /// Run `f`, returning its result and the traffic this PE metered.
    fn metered<C: Communicator, R>(comm: &C, f: impl FnOnce() -> R) -> (R, StatsSnapshot) {
        let before = comm.stats_snapshot();
        let r = f();
        (r, comm.stats_snapshot().since(&before))
    }

    /// The two-pass recursion (count, narrow a copy of the input with a
    /// plain `retain`, sample the narrowed buffer at the next loop top): the
    /// reference the fused narrowing-and-sampling sweep of [`select_cut`]
    /// is pinned against.
    fn select_cut_two_pass<C, T>(
        comm: &C,
        local: &[T],
        k: usize,
        seed: u64,
        config: &UnsortedSelectionConfig,
    ) -> (Cut<T>, usize)
    where
        C: Communicator,
        T: Ord + Clone + CommData,
    {
        let (mut total, mut rng) = start(comm, local, k, seed);
        let mut k = k;
        let mut s = local.to_vec();
        let mut levels = 0;
        loop {
            levels += 1;
            if let Some(cut) = finish(comm, &s, k, total, levels, config) {
                return (cut, levels);
            }
            let rho = sample_rate(config, comm.size(), total);
            let sample = gather_sample(comm, &s, rho, None, &mut rng);
            match level_step(comm, &s, sample, k, total, config) {
                ControlFlow::Break(cut) => return (cut, levels),
                ControlFlow::Continue(next) => {
                    s.retain(|e| next.keeps(e));
                    (k, total) = (next.k, next.total);
                }
            }
        }
    }

    fn test_shapes(seed: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
        vec![
            ("uniform", random_parts(4, 2000, 1 << 40, seed)),
            ("dupes", random_parts(3, 1500, 7, seed + 12)),
            (
                "skewed",
                (0..4)
                    .map(|r| {
                        if r == 0 {
                            (0..3000u64).collect()
                        } else {
                            (1_000_000..1_001_000u64).collect()
                        }
                    })
                    .collect(),
            ),
            (
                "empty_pe",
                vec![vec![], (0..2000).collect(), vec![], (2000..4000).collect()],
            ),
        ]
    }

    /// The fused narrowing-and-sampling sweep must leave everything the
    /// driver can observe — threshold, selected sets, recursion depth and
    /// per-PE metered words/messages (the fig6 words/PE columns) —
    /// bit-identical to the two-pass recursion, across input shapes, PE
    /// counts, ranks and seeds.
    #[test]
    fn fused_level_is_bit_identical_to_the_two_pass_reference() {
        // Small base case so the recursion actually runs several fused
        // levels instead of short-circuiting into the gather.
        let config = UnsortedSelectionConfig {
            base_case_size: 64,
            ..UnsortedSelectionConfig::default()
        };
        for (name, parts) in test_shapes(11) {
            let n: usize = parts.iter().map(Vec::len).sum();
            let p = parts.len();
            for k in [2usize, n / 3, n / 2, n - 1] {
                for seed in [1u64, 99] {
                    let parts_a = parts.clone();
                    let fused = run_spmd_seq(p, move |comm| {
                        let local = &parts_a[comm.rank()];
                        metered(comm, || {
                            select_k_smallest_with(comm, local, k, seed, config)
                        })
                    });
                    let parts_b = parts.clone();
                    let two_pass = run_spmd_seq(p, move |comm| {
                        let local = &parts_b[comm.rank()];
                        metered(comm, || {
                            let (cut, levels) = select_cut_two_pass(comm, local, k, seed, &config);
                            (resolve_ties(comm, local, &cut), cut.threshold, levels)
                        })
                    });
                    let case = format!("{name} k={k} seed={seed}");
                    for ((f, fs), ((sel, t, levels), ts)) in
                        fused.results.iter().zip(two_pass.results.iter())
                    {
                        assert_eq!(f.threshold, *t, "{case}");
                        assert_eq!(f.local_selected, *sel, "{case}");
                        assert_eq!(f.recursion_levels, *levels, "{case}");
                        assert_eq!(fs.sent_words, ts.sent_words, "words diverged: {case}");
                        assert_eq!(
                            fs.sent_messages, ts.sent_messages,
                            "messages diverged: {case}"
                        );
                    }
                    assert_eq!(
                        fused.stats.bottleneck_words(),
                        two_pass.stats.bottleneck_words(),
                        "{case}"
                    );
                }
            }
        }
    }

    /// The threshold-only path runs the same recursion as the full path and
    /// skips only the tie resolution: identical thresholds, and per PE the
    /// full path's words and messages are exactly the threshold path's plus
    /// the tie-resolution step's, each metered on its own.
    #[test]
    fn threshold_only_path_is_the_full_path_minus_tie_resolution() {
        let config = UnsortedSelectionConfig {
            base_case_size: 64,
            ..UnsortedSelectionConfig::default()
        };
        let mut metered_tie_steps = 0;
        for (name, parts) in test_shapes(17) {
            let n: usize = parts.iter().map(Vec::len).sum();
            let p = parts.len();
            for k in [1usize, 2, n / 3, n / 2, n - 1, n] {
                for seed in [1u64, 99] {
                    let parts_a = parts.clone();
                    let full = run_spmd_seq(p, move |comm| {
                        let local = &parts_a[comm.rank()];
                        metered(comm, || {
                            select_k_smallest_with(comm, local, k, seed, config)
                        })
                    });
                    let parts_b = parts.clone();
                    let thresh = run_spmd_seq(p, move |comm| {
                        let local = &parts_b[comm.rank()];
                        let (t, stats) =
                            metered(comm, || select_threshold_with(comm, local, k, seed, config));
                        let (cut, _) = select_cut(comm, local, k, seed, &config);
                        let (_, tie_step) = metered(comm, || resolve_ties(comm, local, &cut));
                        (t, stats, tie_step)
                    });
                    let case = format!("{name} k={k} seed={seed}");
                    for ((f, fs), (t, ts, tie)) in full.results.iter().zip(thresh.results.iter()) {
                        assert_eq!(f.threshold, *t, "{case}");
                        assert_eq!(
                            fs.sent_words,
                            ts.sent_words + tie.sent_words,
                            "words diverged: {case}"
                        );
                        assert_eq!(
                            fs.sent_messages,
                            ts.sent_messages + tie.sent_messages,
                            "messages diverged: {case}"
                        );
                    }
                    if thresh.results.iter().any(|r| r.2.sent_messages > 0) {
                        metered_tie_steps += 1;
                    }
                }
            }
        }
        assert!(metered_tie_steps > 0, "no case paid for a tie resolution");
    }

    /// Each level either stops or drops the pivot values, so inputs made of
    /// one or two distinct values finish within three levels even when the
    /// base case would take a single element — well before the
    /// `max_levels` full-gather fallback.
    #[test]
    fn duplicate_only_inputs_finish_within_three_levels() {
        let config = UnsortedSelectionConfig {
            base_case_size: 1,
            max_levels: 4,
            ..UnsortedSelectionConfig::default()
        };
        let shapes: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![7; 100], vec![7; 100], vec![7; 100]],
            vec![[3, 9].repeat(50), vec![9; 80], vec![], vec![3; 70]],
            vec![vec![5; 40], vec![2; 1]],
        ];
        for parts in shapes {
            let n: usize = parts.iter().map(Vec::len).sum();
            let sorted = {
                let mut all: Vec<u64> = parts.concat();
                all.sort_unstable();
                all
            };
            let low_run = sorted.iter().filter(|&&v| v == sorted[0]).count();
            for k in [1, 2, low_run - 1, low_run, low_run + 1, n / 2, n - 1, n] {
                if k == 0 || k > n {
                    continue;
                }
                for seed in [1u64, 2, 3] {
                    let parts_ref = parts.clone();
                    let out = run_spmd_seq(parts.len(), move |comm| {
                        select_k_smallest_with(comm, &parts_ref[comm.rank()], k, seed, config)
                    });
                    for r in &out.results {
                        assert!(r.recursion_levels <= 3, "k={k} seed={seed}: {r:?}");
                        assert_eq!(r.threshold, sorted[k - 1], "k={k} seed={seed}");
                    }
                    let selected: usize = out.results.iter().map(|r| r.local_selected.len()).sum();
                    assert_eq!(selected, k, "k={k} seed={seed}");
                }
            }
        }
    }

    /// The threshold-only path on its own against the brute-force oracle,
    /// including duplicate-heavy input.
    #[test]
    fn threshold_only_path_selects_correct_thresholds() {
        for p in [1usize, 3, 5] {
            let parts = random_parts(p, 400, 40, 77); // heavy duplication
            let n = 400 * p;
            for k in [1usize, 17, n / 2, n] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_threshold(comm, &parts_ref[comm.rank()], k, 13)
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    /// Reference: sort the union and take the k-th smallest.
    fn reference_threshold(parts: &[Vec<u64>], k: usize) -> u64 {
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all[k - 1]
    }

    fn random_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..per_pe).map(|_| rng.gen_range(0..max)).collect())
            .collect()
    }

    #[test]
    fn selects_correct_threshold_on_uniform_data() {
        for p in [1usize, 2, 4, 7] {
            let parts = random_parts(p, 500, 10_000, 42);
            for k in [1usize, 10, 250, 500 * p / 2, 500 * p] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_k_smallest(comm, &parts_ref[comm.rank()], k, 7).threshold
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn selected_sets_have_total_size_exactly_k() {
        let p = 4;
        let parts = random_parts(p, 300, 50, 3); // many duplicates
        for k in [1usize, 7, 150, 600, 1200] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                select_k_smallest(comm, &parts_ref[comm.rank()], k, 11)
                    .local_selected
                    .len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, k, "k={k}");
        }
    }

    #[test]
    fn selected_elements_are_the_smallest_ones() {
        let p = 3;
        let parts = random_parts(p, 200, 1_000, 5);
        let k = 77;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], k, 1).local_selected
        });
        let mut selected: Vec<u64> = out.results.into_iter().flatten().collect();
        selected.sort_unstable();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(selected, all[..k].to_vec());
    }

    #[test]
    fn handles_skewed_distribution_across_pes() {
        // All small values on PE 0, all large values on the others.
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                if r == 0 {
                    (0..400u64).collect()
                } else {
                    (10_000..10_400u64).collect()
                }
            })
            .collect();
        let k = 350;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 9);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 349));
        assert_eq!(out.results[0].1, 350);
        assert!(out.results[1..].iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn handles_empty_local_inputs_on_some_pes() {
        let p = 4;
        let parts: Vec<Vec<u64>> = vec![vec![], (0..100).collect(), vec![], (100..200).collect()];
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 150, 2).threshold
        });
        assert!(out.results.iter().all(|&t| t == 149));
    }

    #[test]
    fn all_equal_values_still_select_exactly_k() {
        let p = 3;
        let parts: Vec<Vec<u64>> = vec![vec![7; 100], vec![7; 100], vec![7; 100]];
        let parts_ref = parts.clone();
        let k = 123;
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 3);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 7));
        let total: usize = out.results.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, k);
    }

    #[test]
    fn k_equal_to_one_and_total_work() {
        let p = 2;
        let parts = random_parts(p, 50, 1000, 8);
        let all_min = *parts.iter().flatten().min().unwrap();
        let all_max = *parts.iter().flatten().max().unwrap();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let lo = select_threshold(comm, &parts_ref[comm.rank()], 1, 4);
            let hi = select_threshold(comm, &parts_ref[comm.rank()], 100, 4);
            (lo, hi)
        });
        assert!(out
            .results
            .iter()
            .all(|&(lo, hi)| lo == all_min && hi == all_max));
    }

    #[test]
    fn select_k_largest_is_the_dual() {
        let p = 3;
        let parts = random_parts(p, 200, 10_000, 21);
        let k = 25;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_largest(comm, &parts_ref[comm.rank()], k, 6)
                .threshold
                .0
        });
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        assert!(out.results.iter().all(|&t| t == all[k - 1]));
    }

    #[test]
    fn recursion_depth_is_modest() {
        let p = 4;
        let parts = random_parts(p, 4000, 1 << 30, 13);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 4321, 5).recursion_levels
        });
        assert!(
            out.results.iter().all(|&l| l <= 20),
            "levels: {:?}",
            out.results
        );
    }

    #[test]
    fn communication_volume_is_sublinear_in_local_input() {
        // The paper's headline claim: per-PE communication is o(n/p).
        let p = 4;
        let per_pe = 20_000;
        let parts = random_parts(p, per_pe, 1 << 40, 99);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = select_k_smallest(comm, &parts_ref[comm.rank()], 5000, 12);
            comm.stats_snapshot().since(&before)
        });
        for snap in &out.results {
            assert!(
                snap.bottleneck_words() < (per_pe / 4) as u64,
                "per-PE communication {} words is not sublinear in n/p = {per_pe}",
                snap.bottleneck_words()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the global input size")]
    fn k_larger_than_input_is_rejected() {
        run_spmd(2, |comm| {
            let local: Vec<u64> = vec![1, 2, 3];
            select_threshold(comm, &local, 100, 0)
        });
    }
}
