//! Prometheus text-exposition rendering over a [`RegistrySnapshot`].
//!
//! Turns the registry's dotted series names into the flat
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` identifiers the exposition format (v0.0.4)
//! requires, and emits one `# HELP`/`# TYPE` pair per series followed by
//! its samples. Histograms render the full cumulative form — one
//! `_bucket{le="…"}` line per configured bound, the mandatory
//! `le="+Inf"` bucket, then `_sum` and `_count` — so any Prometheus
//! scraper computes quantiles from the same fixed buckets the `stats`
//! op reports.
//!
//! The renderer is a pure function of the snapshot: servers expose it
//! via the `metrics_prom` wire op, and `vqd-cli metrics --prom` prints
//! it verbatim for scrape-by-pipe setups.

use crate::registry::RegistrySnapshot;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Maps a dotted registry name onto a valid Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit gets a `_` prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn header(out: &mut String, seen: &mut BTreeSet<String>, name: &str, kind: &str) -> bool {
    // Distinct dotted names can collapse onto one flat name; emitting
    // both would duplicate HELP/TYPE and corrupt the exposition, so the
    // first series owns the flat name and later collisions are skipped.
    if !seen.insert(name.to_owned()) {
        return false;
    }
    let _ = writeln!(out, "# HELP {name} {kind} from the vqd registry");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    true
}

/// Renders the snapshot as a Prometheus text-exposition document.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (name, value) in &snap.counters {
        let flat = prometheus_name(name);
        if header(&mut out, &mut seen, &flat, "counter") {
            let _ = writeln!(out, "{flat} {value}");
        }
    }
    for (name, value) in &snap.gauges {
        let flat = prometheus_name(name);
        if header(&mut out, &mut seen, &flat, "gauge") {
            let _ = writeln!(out, "{flat} {value}");
        }
    }
    for (name, h) in &snap.histograms {
        let flat = prometheus_name(name);
        if !header(&mut out, &mut seen, &flat, "histogram") {
            continue;
        }
        let mut cumulative = 0u64;
        for (i, bound) in h.bounds.iter().enumerate() {
            cumulative += h.buckets.get(i).copied().unwrap_or(0);
            let _ = writeln!(out, "{flat}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{flat}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{flat}_sum {}", h.sum);
        let _ = writeln!(out, "{flat}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, LATENCY_BOUNDS_MS};

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prometheus_name("op.ping.latency_ms"), "op_ping_latency_ms");
        assert_eq!(prometheus_name("server.e2e_ms"), "server_e2e_ms");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
    }

    #[test]
    fn exposition_has_cumulative_buckets_sum_and_count() {
        let reg = Registry::new();
        reg.counter("server.requests").add(3);
        reg.gauge("server.conns_open").set(2);
        let h = reg.histogram("server.phase.queue_ms", &[1, 10, 100]);
        for v in [0, 5, 50, 500] {
            h.observe(v);
        }
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE server_requests counter"));
        assert!(text.contains("server_requests 3"));
        assert!(text.contains("# TYPE server_conns_open gauge"));
        assert!(text.contains("server_conns_open 2"));
        assert!(text.contains("# TYPE server_phase_queue_ms histogram"));
        // Cumulative: ≤1 holds 1, ≤10 holds 2, ≤100 holds 3, +Inf all 4.
        assert!(text.contains("server_phase_queue_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("server_phase_queue_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("server_phase_queue_ms_bucket{le=\"100\"} 3"));
        assert!(text.contains("server_phase_queue_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("server_phase_queue_ms_sum 555"));
        assert!(text.contains("server_phase_queue_ms_count 4"));
    }

    #[test]
    fn every_help_line_is_unique_even_under_name_collisions() {
        let reg = Registry::new();
        reg.counter("a.b").inc();
        reg.counter("a_b").inc(); // collapses onto the same flat name
        reg.histogram("lat.ms", &LATENCY_BOUNDS_MS).observe(1);
        let text = render_prometheus(&reg.snapshot());
        let mut helps: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP ")).collect();
        let total = helps.len();
        helps.sort_unstable();
        helps.dedup();
        assert_eq!(helps.len(), total, "duplicate HELP lines: {text}");
        // Exactly one a_b series survives the collision.
        assert_eq!(text.matches("# HELP a_b ").count(), 1);
    }

    #[test]
    fn lines_parse_as_exposition_format() {
        let reg = Registry::new();
        reg.counter("x.y").add(1);
        reg.histogram("h.ms", &[5]).observe(2);
        for line in render_prometheus(&reg.snapshot()).lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "));
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name: {bare}"
            );
        }
    }
}
