//! Order statistics and the single-server FIFO model behind `max_rps`.

/// Nearest-rank percentile `q` (0..=1) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Latency from due time of each request when one thread serves
/// `service_s` in order and request `i` is due at `i / rate`
/// (Lindley's recursion: a request starts when it is due or when the
/// one before it ends, whichever is later).
pub fn fifo_latencies(service_s: &[f64], rate: f64) -> Vec<f64> {
    let mut free_at = 0.0f64;
    service_s
        .iter()
        .enumerate()
        .map(|(i, &service)| {
            let due = i as f64 / rate;
            free_at = free_at.max(due) + service;
            free_at - due
        })
        .collect()
}

/// The highest fixed offered rate (requests/s) at which `service_s`,
/// served in order by one thread, keeps the 99th-percentile latency
/// from due time and the last request's latency (the backlog left at
/// the end of the stream) within `limit_s`. Latency grows with rate,
/// so a bisection finds the boundary; 0 when even an idle server
/// misses the limit.
pub fn fifo_max_rate(service_s: &[f64], limit_s: f64) -> f64 {
    let meets = |rate: f64| {
        let latencies = fifo_latencies(service_s, rate);
        let last = latencies.last().copied().unwrap_or(0.0);
        last <= limit_s && percentile(&sorted(latencies), 0.99) <= limit_s
    };
    let busy: f64 = service_s.iter().sum();
    if service_s.is_empty() || busy <= 0.0 {
        return 0.0;
    }
    // Above one request per mean service time the queue only grows.
    let (mut lo, mut hi) = (0.0, service_s.len() as f64 / busy);
    if meets(hi) {
        return hi;
    }
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if mid > 0.0 && meets(mid) {
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
    fn percentile_uses_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fifo_queue_builds_only_when_arrivals_outpace_service() {
        // 10 ms of work per request: at 50/s nobody waits, at 200/s the
        // n-th request waits (n × 5 ms).
        let service = vec![0.01; 4];
        assert!(fifo_latencies(&service, 50.0).iter().all(|l| (l - 0.01).abs() < 1e-12));
        let busy = fifo_latencies(&service, 200.0);
        assert!((busy[3] - 0.025).abs() < 1e-12, "{busy:?}");
    }

    #[test]
    fn max_rate_sits_at_the_latency_limit() {
        let service = vec![0.001; 1000];
        let rate = fifo_max_rate(&service, 0.01);
        // Uniform 1 ms work never queues below 1000/s.
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert_eq!(fifo_max_rate(&[0.02; 10], 0.01), 0.0);
    }
}
