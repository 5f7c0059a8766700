//! Measurement helpers: order statistics, process counters read from
//! `/proc`, seed derivation, and the capacity search.

use mlperf_loadgen::validate::nearest_rank;
use mlperf_loadgen::TestResult;
use mlperf_stats::rng::SeedTriple;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Where in a run's repeated wall-clock measurements the reported figure
/// sits: the best quarter. A shared host stalls whole stretches of a run,
/// so the quicker repetitions track the program, the slower ones the
/// neighbours.
pub const QUIET_QUANTILE: f64 = 0.25;

/// What [`calibration_ns`] takes on the reference machine (the one named
/// in `perfbench/README.md`) when its host is quiet.
pub const CALIBRATION_REF_NS: f64 = 3_000_000.0;

/// Times a fixed CPU workload shaped like the discrete-event loop: a
/// binary heap, a hash map and a growing vector, driven by xorshift.
///
/// On the reference machine, a VM on a shared host, the speed of user-space
/// code swings by up to a half over seconds. Dividing a measured time by the
/// calibration measured right beside it, then multiplying by
/// [`CALIBRATION_REF_NS`], gives the time at the reference speed.
pub fn calibration_ns() -> f64 {
    let start = std::time::Instant::now();
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut log = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 1_000_000, i)));
        map.insert(i, x);
        log.push(x);
        if i >= 16 {
            let Reverse((key, id)) = heap.pop().expect("heap holds 16 entries");
            acc = acc.wrapping_add(key ^ map.remove(&id).unwrap_or(0));
        }
    }
    std::hint::black_box((acc, log));
    start.elapsed().as_nanos() as f64
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`), by the LoadGen's
/// own rule; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q).unwrap_or(0.0)
}

/// A run's LoadGen-measured p50 and p99 latency in microseconds; zeros
/// when no query completed.
pub fn p50_p99_us(result: &TestResult) -> (f64, f64) {
    result.latency_stats.as_ref().map_or((0.0, 0.0), |s| {
        (s.p50.as_nanos() as f64 / 1e3, s.p99.as_nanos() as f64 / 1e3)
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by every thread of this process, living or
/// exited (user + system), in seconds. Resolution is one clock tick.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of the remainder.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// SplitMix64 finaliser: spreads one integer into an unrelated one.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The LoadGen seeds for sub-run `k` of a benchmark run seeded `seed`.
pub fn seeds_for(seed: u64, k: u64) -> SeedTriple {
    let base = mix(seed ^ mix(k));
    SeedTriple {
        qsl_seed: mix(base ^ 1),
        schedule_seed: mix(base ^ 2),
        accuracy_seed: mix(base ^ 3),
    }
}

/// Highest rate in `[lo, hi)` that `passes`, to within a factor of
/// `1 + tolerance`, by bisection in log space.
///
/// `hi` is taken to fail without being probed. When `lo` fails too, the
/// search halves downwards until a rate passes or `floor` is crossed, in
/// which case it returns `floor`. The probe sequence depends only on the
/// verdicts, so a deterministic verdict gives the same rate every time.
pub fn capacity_search(
    mut lo: f64,
    mut hi: f64,
    floor: f64,
    tolerance: f64,
    mut passes: impl FnMut(f64) -> bool,
) -> f64 {
    while !passes(lo) {
        hi = lo;
        lo /= 2.0;
        if lo < floor {
            return floor;
        }
    }
    while hi / lo > 1.0 + tolerance {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.99), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn capacity_search_is_a_function_of_the_verdicts() {
        let cliff = 18_345.0;
        let mut probes = Vec::new();
        let first = capacity_search(2_500.0, 30_000.0, 10.0, 0.03, |r| {
            probes.push(r);
            r <= cliff
        });
        for _ in 0..5 {
            let again = capacity_search(2_500.0, 30_000.0, 10.0, 0.03, |r| r <= cliff);
            assert_eq!(again.to_bits(), first.to_bits());
        }
        assert!(first <= cliff && first * 1.03 > cliff, "{first}");
        assert!(probes.len() < 12, "{probes:?}");
    }

    #[test]
    fn capacity_search_walks_down_when_the_bracket_is_too_high() {
        let found = capacity_search(8_000.0, 30_000.0, 10.0, 0.03, |r| r <= 1_500.0);
        assert!(found <= 1_500.0 && found * 1.03 > 1_500.0, "{found}");
        assert_eq!(
            capacity_search(8_000.0, 30_000.0, 10.0, 0.03, |_| false),
            10.0
        );
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..20_000_000u64).fold(0, |a, x| a ^ mix(x));
        std::hint::black_box(spin);
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn seeds_differ_per_sub_run() {
        assert_ne!(seeds_for(1, 0), seeds_for(1, 1));
        assert_ne!(seeds_for(1, 0), seeds_for(2, 0));
        assert_eq!(seeds_for(7, 3), seeds_for(7, 3));
    }
}
