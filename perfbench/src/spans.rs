//! Self time per span name from a recorded trace.
//!
//! A span's self time is its duration minus the time its direct child
//! spans on the same thread cover. Spans are complete events, so on one
//! thread they nest properly and the direct children never overlap.

use std::collections::BTreeMap;

use udt_obs::trace::TraceEvent;

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name, keyed by name.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, SpanTotals> {
    let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_thread.entry(e.tid).or_default().push(e);
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for mut spans in by_thread.into_values() {
        // Parents before children: earlier start first, longer first on ties.
        spans.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut child_ns = vec![0u64; spans.len()];
        // Indices of the spans enclosing the current one.
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                let parent = spans[top];
                if span.ts_ns >= parent.ts_ns + parent.dur_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                child_ns[parent] += span.dur_ns;
            }
            open.push(i);
        }
        for (span, child) in spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns;
            t.self_ns += span.dur_ns.saturating_sub(child);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            ts_ns,
            dur_ns,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let events = [
            ev("op", 1, 0, 100),
            ev("build", 1, 10, 60),
            ev("presort", 1, 10, 20),
            ev("node", 1, 40, 25),
            ev("verify", 1, 75, 20),
            // Another thread's work inside the op's interval is not a child.
            ev("node", 2, 20, 30),
            ev("op", 1, 200, 50),
        ];
        let t = self_times(&events);
        assert_eq!(
            t["op"],
            SpanTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 50
            }
        );
        assert_eq!(
            t["build"],
            SpanTotals {
                count: 1,
                total_ns: 60,
                self_ns: 15
            }
        );
        assert_eq!(t["presort"].self_ns, 20);
        assert_eq!(
            t["node"],
            SpanTotals {
                count: 2,
                total_ns: 55,
                self_ns: 55
            }
        );
        assert_eq!(t["verify"].self_ns, 20);
    }
}
