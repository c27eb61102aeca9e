//! Exact order statistics and the latency-limited rate.

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Band quantile: the mean of the order statistics between quantiles
/// `q - w` and `q + w` of `v` (sorted in place); 0 when empty. Virtual
/// latencies from a deterministic cost model fall into a few discrete
/// modes; a plain order statistic jumps between modes as their shares move
/// and can read the same value on every seed, where the band mean moves
/// smoothly with the shares.
pub fn band_quantile(v: &mut [u64], q: f64, w: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len() as f64;
    let lo = (((q - w) * n).floor().max(0.0) as usize).min(v.len() - 1);
    let hi = (((q + w) * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().map(|&x| x as f64).sum::<f64>() / (hi - lo) as f64
}

/// Median of floats; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// p99 of open-loop latencies when requests with the given service times
/// (in issue order) arrive every `gap_ns` at one FIFO server: Lindley's
/// recursion, latency measured from when each request was due.
fn open_loop_p99(service: &[u64], gap_ns: f64, scratch: &mut Vec<u64>) -> u64 {
    scratch.clear();
    let mut free_at = 0.0f64;
    for (i, &s) in service.iter().enumerate() {
        let due = i as f64 * gap_ns;
        let done = free_at.max(due) + s as f64;
        scratch.push((done - due) as u64);
        free_at = done;
    }
    quantile(scratch, 0.99)
}

/// Highest arrival rate (requests per virtual second) at which one rank's
/// measured service times keep the open-loop p99 within `limit_ns`. The
/// p99 only grows with the rate, so bisection finds the crossing.
pub fn slo_rate(service: &[u64], limit_ns: u64) -> f64 {
    if service.is_empty() {
        return 0.0;
    }
    let mut scratch = Vec::with_capacity(service.len());
    let mean = service.iter().sum::<u64>() as f64 / service.len() as f64;
    // Above 1/mean the queue grows without bound; far below it nothing waits.
    let (mut lo, mut hi) = (1e9 / mean / 1e4, 1e9 / mean);
    if open_loop_p99(service, 1e9 / lo, &mut scratch) > limit_ns {
        return lo;
    }
    for _ in 0..40 {
        let mid = (lo * hi).sqrt();
        if open_loop_p99(service, 1e9 / mid, &mut scratch) <= limit_ns {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`slo_rate`] over consecutive windows of `window` requests (the whole
/// stream if it is shorter), median over the windows. A window where a
/// burst of slow requests builds a backlog caps only its own rate, so the
/// figure tracks typical service rather than how many such bursts a round
/// happened to contain.
pub fn windowed_slo_rate(service: &[u64], limit_ns: u64, window: usize) -> f64 {
    let rates: Vec<f64> = if service.len() < window {
        vec![slo_rate(service, limit_ns)]
    } else {
        service.chunks_exact(window).map(|w| slo_rate(w, limit_ns)).collect()
    };
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn band_quantile_moves_with_mode_shares() {
        // Two modes, 10 and 20: the plain median jumps from 10 to 20 as the
        // share of 20s passes one half; the band mean steps by 1/200 per
        // sample moved.
        let mut a: Vec<u64> = [vec![10; 501], vec![20; 499]].concat();
        let mut b: Vec<u64> = [vec![10; 499], vec![20; 501]].concat();
        assert_eq!((quantile(&mut a, 0.5), quantile(&mut b, 0.5)), (10, 20));
        let (ba, bb) = (band_quantile(&mut a, 0.5, 0.05), band_quantile(&mut b, 0.5, 0.05));
        assert!((bb - ba - 0.2).abs() < 1e-9, "{ba} {bb}");
        let mut one = vec![7u64];
        assert_eq!(band_quantile(&mut one, 0.99, 0.005), 7.0);
    }

    #[test]
    fn slo_rate_brackets_the_knee() {
        // Constant 1 ms service: the server saturates at 1000/s; any rate
        // below that never queues, so the limit is met right up to it.
        let service = vec![1_000_000u64; 1000];
        let r = slo_rate(&service, 2_000_000);
        assert!(r > 990.0 && r <= 1000.0, "{r}");
        // A limit below the service time cannot be met at any rate.
        assert!(slo_rate(&service, 500_000) < 1.0);
        // One window of slow service among three leaves the median window's
        // rate at the fast windows' figure.
        let mut mixed = vec![1_000_000u64; 2000];
        mixed.extend(vec![1_500_000u64; 1000]);
        let r = windowed_slo_rate(&mixed, 2_000_000, 1000);
        assert!(r > 990.0 && r <= 1000.0, "{r}");
    }
}
