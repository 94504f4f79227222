//! What one benchmark run reports: named metrics with units, and the
//! correctness checks it made (attempted / failed).

use std::fmt::Display;

/// Every end-to-end metric, with its unit, in output order. Each
/// workload reports all of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("slowdown_p50", "x"),
    ("slowdown_p99", "x"),
    ("short_slowdown_p99", "x"),
];

/// Every per-layer metric, with its unit, in output order. A layer a
/// workload does not reach (the figure sweep on a one-way workload, the
/// transport callbacks inside the sweep) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("setup.self_s", "s"),
    ("transport.self_s", "s"),
    ("fabric.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("transport.on_packet.calls", "count"),
    ("transport.on_packet.s", "s"),
    ("transport.next_packet.calls", "count"),
    ("transport.next_packet.s", "s"),
    ("transport.next_packet.none_frac", "frac"),
    ("transport.on_timer.calls", "count"),
    ("transport.on_timer.s", "s"),
    ("transport.inject.calls", "count"),
    ("transport.inject.s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.late_events", "count"),
    ("engine.far_events", "count"),
    ("engine.epochs_merged", "count"),
    ("engine.max_epoch_events", "count"),
    ("harness.arrivals_s", "s"),
    ("harness.sketch_s", "s"),
    ("queues.tor_down.mean_bytes", "B"),
    ("queues.tor_down.max_bytes", "B"),
    ("queues.drops", "count"),
    ("homa.grants_issued", "count"),
    ("homa.granted_bytes", "B"),
    ("homa.resends_requested", "count"),
    ("figdata.fig12_13_s", "s"),
    ("figdata.compare_s", "s"),
    ("slowdown_samples", "count"),
    ("undelivered_frac", "frac"),
    ("fidelity_rms", "frac"),
    ("gate_failures", "count"),
];

/// Metrics plus the tally of correctness checks, for one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
}

impl Report {
    /// Count one correctness check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Record an end-to-end metric (a name from [`END_TO_END`]).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.end_to_end.push((name, value));
    }

    /// Record a per-layer metric (a name from [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.per_layer.push((name, value));
    }

    /// The rows that account for the traced wall time: set-up, the
    /// transport callbacks, and the fabric as the residual. Also the
    /// tracing cost against the untraced wall time.
    pub fn account(
        &mut self,
        setup_s: f64,
        transport_s: f64,
        traced_wall: f64,
        untraced_wall: f64,
    ) {
        self.layer("trace.wall_s", traced_wall);
        self.layer("setup.self_s", setup_s);
        self.layer("transport.self_s", transport_s);
        self.layer("fabric.self_s", traced_wall - setup_s - transport_s);
        self.layer("trace.overhead_s", traced_wall - untraced_wall);
    }

    /// `(name, value, unit)` rows in canonical order: every end-to-end
    /// metric (all must have been recorded), or every per-layer metric
    /// (unrecorded ones read 0).
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let (table, recorded) =
            if trace { (PER_LAYER, &self.per_layer) } else { (END_TO_END, &self.end_to_end) };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = recorded.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                assert!(trace || value.is_some(), "end-to-end metric {name} was not recorded");
                (name, value.unwrap_or(0.0), unit)
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value cannot be written as JSON, so it counts as a
    /// failed check and is written as 0.
    pub fn json_line(&mut self, trace: bool) -> String {
        let mut fields = Vec::new();
        for (name, value, unit) in self.rows(trace) {
            let value = if value.is_finite() {
                value
            } else {
                self.check(false, format_args!("{name} is not finite"));
                0.0
            };
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// Human-readable table of the metrics `json_line(trace)` prints.
    pub fn table(&self, title: &str, trace: bool) -> String {
        let mut out = format!("--- {title} ---\n");
        for (name, value, unit) in self.rows(trace) {
            out.push_str(&format!("{name:<34} {value:>18.6} {unit}\n"));
        }
        out
    }
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM) in MiB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
