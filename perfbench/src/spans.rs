//! Bench-side spans recorded around the calls into each layer, kept in
//! memory and written out at the end as one Chrome `trace_event` document
//! together with the engine's own per-query traces.

use crate::stats;
use std::collections::HashSet;
use std::fmt::Write;
use std::time::Duration;
use uot_core::obs::merged_chrome_trace_json;
use uot_core::Trace;

/// One span: times are offsets from the run's epoch; `query` is the
/// service's query id (0 for spans outside any query).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub query: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span and return its id (the parent of later children).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, indexed like the log.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time(s.start, s.end, c))
            .collect()
    }

    /// The engine traces (each shifted to its query's start on the run's
    /// timeline) merged with the spans of the queries in `keep`, which go to
    /// one extra lane per query process.
    pub fn chrome_json(&self, traces: &[(&Trace, Duration)], keep: &HashSet<u64>) -> String {
        const LANE: u32 = 1000;
        let self_times = self.self_times();
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        let mut named = std::collections::BTreeSet::new();
        for (id, (s, own)) in self.spans.iter().zip(&self_times).enumerate() {
            if !keep.contains(&s.query) {
                continue;
            }
            if named.insert(s.query) {
                events.push(format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{LANE},"args":{{"name":"bench spans"}}}}"#,
                    s.query
                ));
            }
            let mut e = String::new();
            let _ = write!(
                e,
                r#"{{"name":"{}","cat":"bench","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{LANE},"args":{{"span":{id},"parent":{},"self_us":{:.3}}}}}"#,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
                s.query,
                s.parent.map_or(-1, |p| p as i64),
                own.as_secs_f64() * 1e6,
            );
            events.push(e);
        }
        let engine = merged_chrome_trace_json(traces);
        // The exporter renders `{...,"traceEvents":[\n<events>\n]}\n`; splice
        // the bench events in before the closing bracket.
        let body_end = engine
            .rfind("\n]}")
            .expect("the Chrome exporter closes its event array");
        let mut out = engine[..body_end].to_string();
        let engine_has_events = !out.trim_end().ends_with('[');
        if engine_has_events && !events.is_empty() {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn self_time_subtracts_each_spans_own_children() {
        let mut log = SpanLog::default();
        let q = log.push("query", us(0), us(100), None, 1);
        let w = log.push("wait", us(10), us(100), Some(q), 1);
        // Two overlapping children of `wait` cover 20..70.
        let a = log.push("exec", us(20), us(60), Some(w), 1);
        let b = log.push("exec", us(50), us(70), Some(w), 1);
        let own = log.self_times();
        assert_eq!(own[q], us(10));
        assert_eq!(own[w], us(40));
        assert_eq!((own[a], own[b]), (us(40), us(20)));
    }

    #[test]
    fn chrome_json_is_one_document_with_or_without_engine_events() {
        let mut log = SpanLog::default();
        log.push("query", us(0), us(5), None, 3);
        let doc = log.chrome_json(&[], &HashSet::from([3]));
        assert!(doc.starts_with('{') && doc.ends_with("]}\n"));
        assert!(!doc.contains("[\n,"), "no leading comma: {doc}");
        assert!(doc.contains(r#""name":"query""#));
        assert!(!log
            .chrome_json(&[], &HashSet::new())
            .contains(r#""name":"query""#));
    }
}
