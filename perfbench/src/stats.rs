//! The benchmark's own arithmetic: percentiles, means, interval coverage and
//! the scheduler figures derived from a `TaskRecord` log. Everything here is
//! a pure function so the unit tests below can pin each rule down.

use std::collections::BTreeMap;
use std::time::Duration;
use uot_core::TaskRecord;

/// The `q`-quantile of an ascending slice by the nearest-rank rule the
/// engine's `MetricsHub` uses: the element at rank `round((n - 1) * q)`,
/// with halves rounded away from zero. `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// Median of unsorted samples by the same rank rule (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Indices of the items measured while the host stole at most `limit` of
/// the CPU time (an item without a reading counts as quiet). When fewer
/// than a fifth of the items are quiet, all of them: a run that was never
/// quiet still reports what it measured.
pub fn quiet(steal: &[Option<f64>], limit: f64) -> Vec<usize> {
    let kept: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i].is_none_or(|s| s <= limit))
        .collect();
    if kept.len() * 5 >= steal.len() {
        kept
    } else {
        (0..steal.len()).collect()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`:
/// overlapping intervals count once.
pub fn covered(lo: Duration, hi: Duration, intervals: &[(Duration, Duration)]) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it that its
/// children cover (children may overlap each other and stick out).
pub fn self_time(start: Duration, end: Duration, children: &[(Duration, Duration)]) -> Duration {
    end.saturating_sub(start)
        .saturating_sub(covered(start, end, children))
}

/// Share of `workers x wall` during which no work order ran:
/// `1 - sum(task) / (wall x workers)`, 0 for an empty base.
pub fn idle_frac(tasks: &[TaskRecord], wall: Duration, workers: usize) -> f64 {
    let busy: f64 = tasks.iter().map(|t| t.duration().as_secs_f64()).sum();
    let capacity = wall.as_secs_f64() * workers as f64;
    if capacity > 0.0 {
        1.0 - busy / capacity
    } else {
        0.0
    }
}

/// Gaps between consecutive work orders on one worker: for each worker,
/// tasks in start order, the time from one task's end to the next one's
/// start (clamped at 0), in microseconds.
pub fn dispatch_gaps_us(tasks: &[TaskRecord]) -> Vec<f64> {
    let mut by_worker: BTreeMap<usize, Vec<(Duration, Duration)>> = BTreeMap::new();
    for t in tasks {
        by_worker
            .entry(t.worker)
            .or_default()
            .push((t.start, t.end));
    }
    let mut gaps = Vec::new();
    for runs in by_worker.values_mut() {
        runs.sort();
        for pair in runs.windows(2) {
            gaps.push(pair[1].0.saturating_sub(pair[0].1).as_secs_f64() * 1e6);
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(worker: usize, start: u64, end: u64) -> TaskRecord {
        TaskRecord {
            op: 0,
            worker,
            start: ms(start),
            end: ms(end),
        }
    }

    #[test]
    fn percentile_uses_nearest_rank_with_half_away_from_zero() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank = round(9 * 0.5) = round(4.5) = 5 -> the sixth value.
        assert_eq!(percentile(&v, 0.5), Some(6.0));
        // rank = round(9 * 0.9) = round(8.1) = 8 -> the ninth value.
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd length: the middle element exactly.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_of_powers_and_single_value() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, and
        // 90..120 sticks out past the parent: covered = 50 + 10 = 60.
        let children = [(ms(10), ms(40)), (ms(30), ms(60)), (ms(90), ms(120))];
        assert_eq!(covered(ms(0), ms(100), &children), ms(60));
        assert_eq!(self_time(ms(0), ms(100), &children), ms(40));
        // A child nested in another adds nothing.
        let nested = [(ms(10), ms(50)), (ms(20), ms(30))];
        assert_eq!(self_time(ms(0), ms(100), &nested), ms(60));
        // Children wholly outside the parent are ignored.
        assert_eq!(self_time(ms(0), ms(10), &[(ms(20), ms(30))]), ms(10));
        // Full cover leaves no self time.
        assert_eq!(self_time(ms(5), ms(9), &[(ms(0), ms(100))]), ms(0));
    }

    #[test]
    fn quiet_drops_stolen_items_unless_too_few_remain() {
        let steal = [Some(0.0), Some(0.2), None, Some(0.05), Some(0.06)];
        assert_eq!(quiet(&steal, 0.05), vec![0, 2, 3]);
        // One quiet item of six is under a fifth: keep everything.
        let stolen = [
            Some(0.0),
            Some(0.3),
            Some(0.3),
            Some(0.3),
            Some(0.3),
            Some(0.3),
        ];
        assert_eq!(quiet(&stolen, 0.05), vec![0, 1, 2, 3, 4, 5]);
        assert!(quiet(&[], 0.05).is_empty());
    }

    #[test]
    fn idle_frac_from_a_hand_made_task_log() {
        // Two workers over a 100 ms wall: 30 + 40 + 10 = 80 ms busy of 200.
        let log = [task(0, 0, 30), task(1, 10, 50), task(0, 60, 70)];
        assert!((idle_frac(&log, ms(100), 2) - 0.6).abs() < 1e-12);
        assert_eq!(idle_frac(&log, Duration::ZERO, 2), 0.0);
    }

    #[test]
    fn dispatch_gaps_are_per_worker_and_in_start_order() {
        // Worker 0 runs 0..30 then 60..70 (gap 30 ms); worker 1 runs 55..80
        // then 10..50, listed out of order (sorted: 10..50, 55..80: gap 5).
        // An overlap between workers is not a gap.
        let log = [
            task(0, 0, 30),
            task(1, 55, 80),
            task(0, 60, 70),
            task(1, 10, 50),
        ];
        let mut gaps = dispatch_gaps_us(&log);
        gaps.sort_by(f64::total_cmp);
        assert_eq!(gaps, vec![5_000.0, 30_000.0]);
        assert_eq!(median(&gaps), 30_000.0);
        assert!(dispatch_gaps_us(&[task(0, 0, 1)]).is_empty());
    }
}
