//! Metric names, units and the result line.

use crate::stats::Tally;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("tuples_per_s", "1/s"),
    ("test_accuracy", "frac"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("columns.presort_ms", "ms"),
    ("columns.presort_events", "count"),
    ("events.construct_ms", "ms"),
    ("events.positions", "count"),
    ("events.matrix_mb", "MB"),
    ("split.search_ms", "ms"),
    ("split.candidates", "count"),
    ("split.scored", "count"),
    ("split.bound_evals", "count"),
    ("split.scored_frac", "frac"),
    ("kernel.scalar_batches", "count"),
    ("kernel.simd_batches", "count"),
    ("columns.partition_ms", "ms"),
    ("columns.partition_mb", "MB"),
    ("build.presort_ms", "ms"),
    ("build.search_ms", "ms"),
    ("build.partition_ms", "ms"),
    ("build.graft_ms", "ms"),
    ("build.unattributed_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.idle_ms", "ms"),
    ("postprune.prune_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("protocol.req_encode_us", "us"),
    ("protocol.req_decode_us", "us"),
    ("protocol.resp_encode_us", "us"),
    ("protocol.resp_decode_us", "us"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.resp_bytes", "bytes"),
    ("batcher.roundtrip_us", "us"),
    ("batcher.queue_wait_p50_us", "us"),
    ("classify.batch_us", "us"),
    ("server.p50_us", "us"),
    ("server.p99_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("wire.unattributed_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Collects metrics, taking each unit from the name tables above.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name`; panics on a name missing from the tables, which
    /// is a bug in this benchmark.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics of `table` that were measured, in its order, and the
    /// names of those that were not.
    pub fn ordered(&self, table: &[(&'static str, &str)]) -> (Vec<Metric>, Vec<&'static str>) {
        let mut missing = Vec::new();
        let mut out = Vec::new();
        for (name, _) in table {
            match self.0.iter().find(|m| m.name == *name) {
                Some(m) => out.push(m.clone()),
                None => missing.push(*name),
            }
        }
        (out, missing)
    }
}

/// A JSON number with every digit (`Display` prints whole values without
/// a fraction); non-finite values as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.234_567_891_2);
        m.put("ok_frac", 1.0);
        let line = result_line(
            true,
            Tally {
                attempted: 5,
                failed: 0,
            },
            &m.0,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\
             \"p50_ms\": {\"value\": 1.2345678912, \"unit\": \"ms\"}, \
             \"ok_frac\": {\"value\": 1, \"unit\": \"frac\"}}}"
        );
        let (shown, missing) = m.ordered(&END_TO_END);
        assert_eq!(shown[0].name, "p50_ms");
        assert_eq!(
            missing,
            [
                "setup_s",
                "tail_ms",
                "tuples_per_s",
                "test_accuracy",
                "peak_rss_mb"
            ]
        );
    }

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, key: &str| {
            m.get(key)
                .and_then(|v| v.as_str())
                .expect("name and unit")
                .to_string()
        };
        match doc.get(list) {
            Some(serde_json::Value::Seq(items)) => items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
            _ => panic!("BENCHMARK.json has no {list} list"),
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
