//! The per-layer split of a traced run: bench-side spans around each layer
//! boundary, the engine's `QueryMetrics` and trace events, and deltas of
//! the service's hub and plan-cache counters.

use crate::run::Executed;
use crate::spans::SpanLog;
use crate::stats::{self, median, ratio};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;
use uot_core::{HubCounter, HubHistogram, HubSnapshot, QueryResult, TaskRecord, TraceEventKind};
use uot_sql::CacheStats;

const MIB: f64 = (1u64 << 20) as f64;

/// Operator kinds reported under `ops.*`; fused-chain heads count as
/// `fused`.
pub const OP_KINDS: [&str; 6] = ["select", "fused", "probe", "build", "aggregate", "sort"];

/// One traced round: its submissions with results, and the counters the
/// service moved while it ran.
pub struct TracedRound {
    pub executed: Vec<Executed>,
    pub hub: HubDelta,
    pub cache: CacheDelta,
}

/// Hub counters moved during a round.
#[derive(Debug, Default, Clone, Copy)]
pub struct HubDelta {
    pub admission_count: u64,
    pub admission_sum_us: u64,
    pub spill_events: u64,
    pub spilled_bytes: u64,
    pub restored_bytes: u64,
}

impl HubDelta {
    pub fn between(before: &HubSnapshot, after: &HubSnapshot) -> Self {
        let (a0, a1) = (
            before.histogram(HubHistogram::AdmissionWaitUs),
            after.histogram(HubHistogram::AdmissionWaitUs),
        );
        let counter = |c| after.counter(c) - before.counter(c);
        HubDelta {
            admission_count: a1.count - a0.count,
            admission_sum_us: a1.sum - a0.sum,
            spill_events: counter(HubCounter::SpillEvents),
            spilled_bytes: counter(HubCounter::SpilledBytes),
            restored_bytes: counter(HubCounter::SpillRestoredBytes),
        }
    }
}

/// Plan-cache lookups during a round.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub lookups: u64,
}

impl CacheDelta {
    pub fn between(before: &CacheStats, after: &CacheStats) -> Self {
        CacheDelta {
            hits: after.hits - before.hits,
            lookups: (after.hits + after.misses) - (before.hits + before.misses),
        }
    }
}

/// Per-round sums; the reported figure is the median over traced rounds.
#[derive(Debug, Default)]
struct RoundSums {
    busy_ms: BTreeMap<&'static str, f64>,
    orders: BTreeMap<&'static str, f64>,
    work_orders: f64,
    fused: f64,
    staged: f64,
    flushes: f64,
    partial_flushes: f64,
    transfer_mib: f64,
    hash_table_mib: f64,
    pool_created: f64,
    spill_events: f64,
    spill_written_mib: f64,
    spill_restored_mib: f64,
}

/// The ratio bases and extremes, accumulated over every traced round.
#[derive(Debug, Default)]
struct Totals {
    tasks: Vec<TaskRecord>,
    wall: Duration,
    sum_staged: f64,
    staging_events: f64,
    pool_created: f64,
    pool_reused: f64,
    spill_written: f64,
    spill_restored: f64,
    cache_hits: f64,
    cache_lookups: f64,
    hash_table_max_mib: f64,
    peak_temp_max_mib: f64,
    respill_max: f64,
    dropped_events: usize,
}

/// The operator-kind label of each op, with fused-chain heads (from the
/// `PipelineFused` events) relabelled `fused`.
fn kind_labels(result: &QueryResult) -> Vec<&'static str> {
    let heads: HashSet<usize> = result
        .trace
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            TraceEventKind::PipelineFused { head, .. } => Some(head),
            _ => None,
        })
        .collect();
    result
        .metrics
        .ops
        .iter()
        .enumerate()
        .map(|(id, op)| {
            if heads.contains(&id) {
                return "fused";
            }
            OP_KINDS
                .iter()
                .copied()
                .find(|k| *k == op.kind)
                .unwrap_or("other")
        })
        .collect()
}

/// Everything the traced run measured, ready to print.
pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub dropped_events: usize,
}

/// Record the spans of one traced submission and return the sample
/// `(submit_us, admission_us, exec_ms, residual_us)` of a successful one.
///
/// Span tree: `query` (submit call to rows in hand) holds `submit` and
/// `wait`; `wait` holds `admission` and `exec`; `exec` holds one span per
/// work order named after its operator kind. The service does not expose
/// when a query left admission, so `admission` starts where `submit` ends
/// and lasts the round's mean admission wait from the hub; `exec` follows
/// it for `QueryMetrics::wall_time`.
fn record_spans(
    log: &mut SpanLog,
    ex: &Executed,
    admission: Duration,
    labels: &[&'static str],
) -> Option<(f64, f64, f64, f64)> {
    let q = ex.query;
    let root = log.push("query", ex.submit_start, ex.wait_end, None, q);
    log.push("submit", ex.submit_start, ex.submit_end, Some(root), q);
    let wait = log.push("wait", ex.wait_start, ex.wait_end, Some(root), q);
    let result = ex.outcome.as_ref().ok()?;
    let m = &result.metrics;
    let exec_start = ex.submit_end + admission;
    log.push("admission", ex.submit_end, exec_start, Some(wait), q);
    let exec = log.push("exec", exec_start, exec_start + m.wall_time, Some(wait), q);
    for t in &m.tasks {
        let name = labels.get(t.op).copied().unwrap_or("other");
        log.push(
            name,
            exec_start + t.start,
            exec_start + t.end,
            Some(exec),
            q,
        );
    }
    let latency = ex.latency().as_secs_f64();
    let submit = (ex.submit_end - ex.submit_start).as_secs_f64();
    let exec_s = m.wall_time.as_secs_f64();
    Some((
        submit * 1e6,
        admission.as_secs_f64() * 1e6,
        exec_s * 1e3,
        (latency - submit - admission.as_secs_f64() - exec_s) * 1e6,
    ))
}

/// Fold the traced rounds into the per-layer metrics. Spans are recorded
/// into `log` on the way. Failed submissions add to the hub-derived spill
/// figures only: they carry no `QueryMetrics`.
pub fn fold(rounds: &[TracedRound], workers: usize, log: &mut SpanLog) -> Layers {
    let mut sums = Vec::with_capacity(rounds.len());
    let mut totals = Totals::default();
    let (mut submit_us, mut admission_us, mut exec_ms, mut residual_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut gaps = Vec::new();
    let mut latency_s = 0.0;
    let mut unattributed_s = 0.0;

    for round in rounds {
        let mut s = RoundSums::default();
        let admission = Duration::from_secs_f64(
            ratio(
                round.hub.admission_sum_us as f64,
                round.hub.admission_count as f64,
            ) / 1e6,
        );
        for ex in &round.executed {
            let labels = ex.outcome.as_ref().map(kind_labels).unwrap_or_default();
            let Some(sample) = record_spans(log, ex, admission, &labels) else {
                continue;
            };
            submit_us.push(sample.0);
            admission_us.push(sample.1);
            exec_ms.push(sample.2);
            residual_us.push(sample.3);
            let result = ex
                .outcome
                .as_ref()
                .expect("spans recorded only for results");
            let m = &result.metrics;

            // Share of the latency no layer span (submit, admission, exec)
            // covers.
            let exec_start = ex.submit_end + admission;
            let covered = stats::covered(
                ex.submit_start,
                ex.wait_end,
                &[
                    (ex.submit_start, ex.submit_end),
                    (ex.submit_end, exec_start + m.wall_time),
                ],
            );
            latency_s += ex.latency().as_secs_f64();
            unattributed_s += (ex.latency() - covered).as_secs_f64();

            for t in &m.tasks {
                let kind = labels.get(t.op).copied().unwrap_or("other");
                *s.busy_ms.entry(kind).or_default() += t.duration().as_secs_f64() * 1e3;
                *s.orders.entry(kind).or_default() += 1.0;
            }
            s.work_orders += m.tasks.len() as f64;
            totals.tasks.extend(m.tasks.iter().cloned());
            totals.wall += m.wall_time;
            gaps.extend(stats::dispatch_gaps_us(&m.tasks));

            s.fused += m.fused_pipelines as f64;
            s.staged += m.staged_pipelines as f64;
            for e in &m.edges {
                s.flushes += e.flushes as f64;
                s.partial_flushes += e.partial_flushes as f64;
                s.transfer_mib += e.bytes as f64 / MIB;
                totals.sum_staged += e.sum_staged as f64;
                totals.staging_events += e.stalls as f64;
            }
            let ht: f64 = m
                .hash_table_bytes
                .iter()
                .map(|&(_, b)| b as f64)
                .sum::<f64>()
                / MIB;
            s.hash_table_mib += ht;
            totals.hash_table_max_mib = totals.hash_table_max_mib.max(ht);
            s.pool_created += m.pool.created as f64;
            totals.pool_created += m.pool.created as f64;
            totals.pool_reused += m.pool.reused as f64;
            totals.peak_temp_max_mib = totals.peak_temp_max_mib.max(m.peak_temp_bytes as f64 / MIB);
            totals.respill_max = totals.respill_max.max(m.respill_depth as f64);
            totals.dropped_events += result.trace.as_ref().map_or(0, |t| t.dropped);
        }
        s.spill_events = round.hub.spill_events as f64;
        s.spill_written_mib = round.hub.spilled_bytes as f64 / MIB;
        s.spill_restored_mib = round.hub.restored_bytes as f64 / MIB;
        totals.spill_written += round.hub.spilled_bytes as f64;
        totals.spill_restored += round.hub.restored_bytes as f64;
        totals.cache_hits += round.cache.hits as f64;
        totals.cache_lookups += round.cache.lookups as f64;
        sums.push(s);
    }

    let per_round = |f: &dyn Fn(&RoundSums) -> f64| median(&sums.iter().map(f).collect::<Vec<_>>());
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        (
            "sql.plan_cache_hit_ratio".into(),
            ratio(totals.cache_hits, totals.cache_lookups),
            "ratio",
        ),
        ("service.submit_us".into(), median(&submit_us), "us"),
        (
            "service.admission_wait_us".into(),
            median(&admission_us),
            "us",
        ),
        ("service.exec_ms".into(), median(&exec_ms), "ms"),
        ("service.residual_us".into(), median(&residual_us), "us"),
        (
            "scheduler.work_orders".into(),
            per_round(&|s| s.work_orders),
            "count",
        ),
        (
            "scheduler.idle_frac".into(),
            stats::idle_frac(&totals.tasks, totals.wall, workers),
            "ratio",
        ),
        ("scheduler.dispatch_gap_us".into(), median(&gaps), "us"),
    ];
    for kind in OP_KINDS {
        metrics.push((
            format!("ops.{kind}.busy_ms"),
            per_round(&|s| s.busy_ms.get(kind).copied().unwrap_or(0.0)),
            "ms",
        ));
        metrics.push((
            format!("ops.{kind}.work_orders"),
            per_round(&|s| s.orders.get(kind).copied().unwrap_or(0.0)),
            "count",
        ));
    }
    metrics.extend([
        (
            "fusion.fused_pipelines".into(),
            per_round(&|s| s.fused),
            "count",
        ),
        (
            "fusion.staged_pipelines".into(),
            per_round(&|s| s.staged),
            "count",
        ),
        ("edge.flushes".into(), per_round(&|s| s.flushes), "count"),
        (
            "edge.partial_flushes".into(),
            per_round(&|s| s.partial_flushes),
            "count",
        ),
        (
            "edge.transfer_mib".into(),
            per_round(&|s| s.transfer_mib),
            "MiB",
        ),
        (
            "edge.mean_staged_blocks".into(),
            ratio(totals.sum_staged, totals.staging_events),
            "blocks",
        ),
        (
            "hash_table.mib".into(),
            per_round(&|s| s.hash_table_mib),
            "MiB",
        ),
        (
            "hash_table.max_mib".into(),
            totals.hash_table_max_mib,
            "MiB",
        ),
        (
            "pool.created".into(),
            per_round(&|s| s.pool_created),
            "count",
        ),
        (
            "pool.reuse_ratio".into(),
            ratio(totals.pool_reused, totals.pool_created + totals.pool_reused),
            "ratio",
        ),
        ("pool.peak_temp_mib".into(), totals.peak_temp_max_mib, "MiB"),
        (
            "spill.events".into(),
            per_round(&|s| s.spill_events),
            "count",
        ),
        (
            "spill.written_mib".into(),
            per_round(&|s| s.spill_written_mib),
            "MiB",
        ),
        (
            "spill.restored_mib".into(),
            per_round(&|s| s.spill_restored_mib),
            "MiB",
        ),
        (
            "spill.restore_ratio".into(),
            ratio(totals.spill_restored, totals.spill_written),
            "ratio",
        ),
        (
            "spill.respill_depth_max".into(),
            totals.respill_max,
            "count",
        ),
        (
            "obs.unattributed_frac".into(),
            ratio(unattributed_s, latency_s),
            "ratio",
        ),
    ]);
    Layers {
        metrics,
        dropped_events: totals.dropped_events,
    }
}
