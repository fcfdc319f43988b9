//! In-memory spans recorded around the benchmark's calls into each layer,
//! summarised when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::quantile;

pub struct Spans {
    origin: Instant,
    /// `(layer, start offset s, duration s)`.
    spans: Vec<(String, f64, f64)>,
    counts: BTreeMap<String, u64>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, layer: &str, start: Instant, seconds: f64) {
        let offset = start.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push((layer.to_string(), offset, seconds));
    }

    pub fn count(&mut self, name: &str, by: u64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    pub fn merge(&mut self, other: Spans) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_secs_f64();
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|(layer, start, dur)| (layer, start + shift, dur)),
        );
        for (name, by) in other.counts {
            self.count(&name, by);
        }
    }

    /// One line per layer: span count, total and median time; then the
    /// counters recorded at the same boundaries.
    pub fn summary(&self) -> String {
        let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (layer, _, dur) in &self.spans {
            by_layer.entry(layer).or_default().push(*dur);
        }
        let mut out = String::from("span layer                      count    total_s     p50_ms\n");
        for (layer, durs) in by_layer {
            out.push_str(&format!(
                "{layer:<30} {:>6} {:>10.3} {:>10.3}\n",
                durs.len(),
                durs.iter().sum::<f64>(),
                quantile(&durs, 0.5) * 1e3
            ));
        }
        for (name, n) in &self.counts {
            out.push_str(&format!("count {name:<24} {n:>6}\n"));
        }
        out
    }
}
