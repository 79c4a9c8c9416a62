//! Named collection of time series with CSV export.

use crate::series::TimeSeries;
use crate::summary::Summary;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// The monitoring manager's storage: one [`TimeSeries`] per metric name.
///
/// Uses a `BTreeMap` so iteration (and thus CSV export and archives) is in
/// deterministic name order — reproducibility extends to the artifacts.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    series: BTreeMap<String, TimeSeries>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample for `name` at time `t`.
    pub fn record(&mut self, name: &str, t: f64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push(t, value);
    }

    /// Get a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Summary of a series (zeroed summary if absent).
    pub fn summary(&self, name: &str) -> Summary {
        self.get(name)
            .map(|s| s.summary())
            .unwrap_or_else(|| Summary::of(&[]))
    }

    /// All metric names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Merge all series of `other` after this registry's samples. Times in
    /// `other` are shifted by `t_offset` (used when concatenating repeated
    /// experiment runs into one archive).
    pub fn append_shifted(&mut self, other: &Registry, t_offset: f64) {
        for (name, series) in &other.series {
            let dst = self.series.entry(name.clone()).or_default();
            for (t, v) in series.iter() {
                dst.push(t + t_offset, v);
            }
        }
    }

    /// Write all metrics as a long-format CSV (`metric,time,value`).
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "metric,time,value")?;
        for (name, series) in &self.series {
            for (t, v) in series.iter() {
                writeln!(w, "{name},{t},{v}")?;
            }
        }
        Ok(())
    }

    /// Write a snapshot of every series in the Prometheus text exposition
    /// format (one gauge per series, summary stats as `stat` labels plus a
    /// `_samples` count).  Output is deterministic: series iterate in
    /// `BTreeMap` order and values use Rust's shortest-roundtrip `{}`
    /// formatting, so equal registries produce byte-identical `.prom`
    /// files — which lets `--replay-check` diff them.
    pub fn write_prometheus<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (name, series) in &self.series {
            let metric = prom_sanitize(name);
            let s = series.summary();
            let last = series.values().last().copied().unwrap_or(f64::NAN);
            writeln!(w, "# HELP {metric} snapshot of series `{name}`")?;
            writeln!(w, "# TYPE {metric} gauge")?;
            for (stat, v) in [
                ("last", last),
                ("mean", s.mean),
                ("std", s.std),
                ("min", s.min),
                ("max", s.max),
            ] {
                writeln!(w, "{metric}{{stat=\"{stat}\"}} {v}")?;
            }
            writeln!(w, "{metric}_samples {}", s.n)?;
        }
        Ok(())
    }
}

/// Restrict a metric name to the Prometheus charset `[a-zA-Z0-9_:]`,
/// prefixing a leading digit with `_`.
fn prom_sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let mut r = Registry::new();
        r.record("cpu", 10.0, 0.8);
        r.record("cpu", 20.0, 0.9);
        r.record("gpu_mem", 10.0, 7.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("cpu").unwrap().len(), 2);
        assert!((r.summary("cpu").mean - 0.85).abs() < 1e-12);
        assert_eq!(r.summary("absent").n, 0);
    }

    #[test]
    fn names_sorted() {
        let mut r = Registry::new();
        r.record("z", 0.0, 1.0);
        r.record("a", 0.0, 1.0);
        r.record("m", 0.0, 1.0);
        assert_eq!(r.names(), vec!["a", "m", "z"]);
    }

    #[test]
    fn csv_long_format() {
        let mut r = Registry::new();
        r.record("cpu", 10.0, 0.5);
        r.record("cpu", 20.0, 0.75);
        let mut buf = Vec::new();
        r.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "metric,time,value\ncpu,10,0.5\ncpu,20,0.75\n");
    }

    #[test]
    fn prometheus_snapshot_is_deterministic_and_labelled() {
        let mut r = Registry::new();
        r.record("user_resp.time", 10.0, 2.0);
        r.record("user_resp.time", 20.0, 4.0);
        r.record("cpu", 10.0, 0.5);
        let render = |r: &Registry| {
            let mut buf = Vec::new();
            r.write_prometheus(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let text = render(&r);
        // Sanitized name, gauge type, stat labels, sample count.
        assert!(text.contains("# TYPE user_resp_time gauge"), "{text}");
        assert!(text.contains("user_resp_time{stat=\"last\"} 4"), "{text}");
        assert!(text.contains("user_resp_time{stat=\"mean\"} 3"), "{text}");
        assert!(text.contains("user_resp_time_samples 2"), "{text}");
        // cpu sorts before user_resp_time (BTreeMap order).
        assert!(text.find("cpu").unwrap() < text.find("user_resp_time").unwrap());
        assert_eq!(text, render(&r.clone()));
    }

    #[test]
    fn append_shifted_concatenates_runs() {
        let mut a = Registry::new();
        a.record("x", 10.0, 1.0);
        let mut b = Registry::new();
        b.record("x", 10.0, 2.0);
        a.append_shifted(&b, 1380.0);
        let s = a.get("x").unwrap();
        assert_eq!(s.times(), &[10.0, 1390.0]);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }
}
