//! The two one-way workloads, `w4_160h` and `w1_160h`: Homa at 80% load
//! with open-loop Poisson arrivals on the 160-host, 16-rack multi-TOR
//! fabric. Untraced runs go through `run_protocol_scenario`, the entry
//! point perf-smoke uses; the traced run wraps every host's transport in
//! [`Traced`] and otherwise builds the run the same way.

use crate::report::{median, peak_rss_mb, Report};
use crate::traced::{CallCounters, SharedCounters, Traced};
use crate::{repeat_for, time_setup};
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::HomaSimTransport;
use homa_bench::{fabric_queues_for, homa_config_for, run_protocol_scenario, Protocol};
use homa_harness::driver::{OnewayOpts, OnewayResult, CTRL, OVERHEAD, PAYLOAD};
use homa_harness::slowdown::SlowdownSketch;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{EngineStats, GrantStats, PortClass};
use homa_workloads::{LoadPlan, PoissonArrivals, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Everything a run computes that must repeat exactly: for a given seed
/// across repeats, and between the traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
struct SimOutputs {
    injected: u64,
    delivered: u64,
    lost: u64,
    duplicate_deliveries: u64,
    samples: u64,
    p50: f64,
    p99: f64,
    short_p99: f64,
    events: u64,
    engine: EngineStats,
    grants: GrantStats,
    tor_down_mean_bytes: f64,
    tor_down_max_bytes: u64,
    drops: u64,
}

impl SimOutputs {
    fn of(res: &OnewayResult) -> Self {
        let overall = res.sketch.summary(1);
        SimOutputs {
            injected: res.injected,
            delivered: res.delivered,
            lost: res.lost,
            duplicate_deliveries: res.duplicate_deliveries,
            samples: res.sketch.count(),
            p50: overall.overall_p50,
            p99: overall.overall_p99,
            short_p99: res.sketch.small_p99(0.5),
            events: res.stats.events_processed,
            engine: res.engine_stats,
            grants: res.stats.grants,
            tor_down_mean_bytes: res.stats.mean_queue_bytes(PortClass::TorDown).unwrap_or(0.0),
            tor_down_max_bytes: res.stats.max_queue_bytes(PortClass::TorDown).unwrap_or(0),
            drops: res.stats.total_drops(),
        }
    }
}

/// The scenario for a one-way workload and seed.
pub fn spec(name: &str, workload: Workload, messages: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(name, FabricSpec::MultiTor { hosts: 160 }, workload, 0.8, messages, seed)
}

/// One traced repeat: wall time, transport counters and harness replay.
struct TracedRun {
    wall: f64,
    calls: CallCounters,
    arrivals_s: f64,
    sketch_s: f64,
}

fn traced_run(spec: &ScenarioSpec) -> (TracedRun, SimOutputs) {
    let shared = SharedCounters::default();
    let cfg = homa_config_for(Protocol::Homa);
    let dist = spec.workload.dist();
    let queues = fabric_queues_for(Protocol::Homa, &dist);
    let t0 = Instant::now();
    let map = static_map_for_workload(&dist, &cfg);
    let res = spec.run_oneway(
        queues,
        |h| {
            Traced::new(HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone()), &shared)
        },
        &OnewayOpts::default(),
    );
    let wall = t0.elapsed().as_secs_f64();
    let calls = *shared.lock().expect("no decorator panicked while holding the counters");
    let (arrivals_s, sketch_s) = replay_harness(spec);
    (TracedRun { wall, calls, arrivals_s, sketch_s }, SimOutputs::of(&res))
}

/// Replay the harness's per-message calls on the run's message count and
/// size distribution: `PoissonArrivals::next_arrival` for every message,
/// then `SlowdownSketch::push` for each (with synthetic slowdowns in
/// [1, 5), since the real ones come out of the simulation). The generator
/// is seeded and shaped as the one-way driver builds it.
pub fn replay_harness(spec: &ScenarioSpec) -> (f64, f64) {
    let topo = spec.topology();
    let dist = spec.workload.dist();
    let hosts = topo.num_hosts();
    let plan = LoadPlan {
        hosts: spec.traffic.loaded_links(hosts),
        host_link_bps: topo.host_link_bps,
        load: spec.load,
        mean_msg_bytes: dist.mean(),
        mean_overhead_bytes: LoadPlan::estimate_overhead(&dist, PAYLOAD, OVERHEAD, CTRL, 9_700),
    };
    let mut gen =
        PoissonArrivals::new(spec.seed ^ 0x9e37_79b9, dist, hosts, plan.mean_interarrival_secs())
            .with_matrix(spec.traffic.matrix(hosts, topo.hosts_per_rack, spec.seed));
    let n = spec.messages as usize;
    let mut arrivals = Vec::with_capacity(n);
    let t0 = Instant::now();
    for _ in 0..n {
        arrivals.push(gen.next_arrival());
    }
    let arrivals_s = t0.elapsed().as_secs_f64();
    let mut sketch = SlowdownSketch::default();
    let t1 = Instant::now();
    for a in &arrivals {
        sketch.push(a.size, 1.0 + (a.at_ns % 1024) as f64 / 256.0);
    }
    let sketch_s = t1.elapsed().as_secs_f64();
    black_box(&sketch);
    (arrivals_s, sketch_s)
}

/// Check a run's outputs: everything injected is delivered exactly once.
fn check_complete(report: &mut Report, out: &SimOutputs, what: &str) {
    report.check(
        out.delivered == out.injected,
        format_args!("{what}: delivered {} of {} injected", out.delivered, out.injected),
    );
    report.check(
        out.duplicate_deliveries == 0,
        format_args!("{what}: {} duplicate deliveries", out.duplicate_deliveries),
    );
    report.check(out.lost == 0, format_args!("{what}: {} messages lost", out.lost));
}

/// Run a one-way workload for `seconds` (and again traced, if `trace`).
pub fn run(spec: &ScenarioSpec, seconds: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let dist = spec.workload.dist();
    let setup_s = time_setup(&spec.topology(), &spec.netcfg(), &dist);

    // Untraced repeats: wall time of the public call; the first repeat's
    // outputs are the reference every later repeat must reproduce.
    let mut first: Option<SimOutputs> = None;
    let walls = repeat_for(seconds, |rep| {
        let t0 = Instant::now();
        let res = run_protocol_scenario(Protocol::Homa, spec, &OnewayOpts::default(), None);
        let wall = t0.elapsed().as_secs_f64();
        let out = SimOutputs::of(&res);
        check_complete(&mut report, &out, &format!("repeat {rep}"));
        match &first {
            None => first = Some(out),
            Some(f) => report.check(
                *f == out,
                format_args!("repeat {rep} differs from repeat 0: {out:?} vs {f:?}"),
            ),
        }
        wall
    });
    let peak_rss = peak_rss_mb();
    let out = first.expect("at least one repeat ran");
    let wall_s = median(&walls);

    report.e2e("wall_s", wall_s);
    report.e2e("setup_s", setup_s);
    report.e2e("peak_rss_mb", peak_rss);
    report.e2e("slowdown_p50", out.p50);
    report.e2e("slowdown_p99", out.p99);
    report.e2e("short_slowdown_p99", out.short_p99);

    if trace {
        let runs = repeat_for(seconds, |rep| {
            let (run, traced) = traced_run(spec);
            report.check(
                traced == out,
                format_args!("traced repeat {rep} differs from untraced: {traced:?} vs {out:?}"),
            );
            run
        });
        let calls = runs[0].calls;
        for r in &runs[1..] {
            report.check(
                r.calls.counts() == calls.counts(),
                "traced repeats made different transport call counts",
            );
        }
        let med = |f: &dyn Fn(&TracedRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let traced_wall = med(&|r| r.wall);
        let transport_s = med(&|r| r.calls.self_secs());
        report.account(setup_s, transport_s, traced_wall, wall_s);
        report.layer("transport.on_packet.calls", calls.on_packet.calls as f64);
        report.layer("transport.on_packet.s", med(&|r| r.calls.on_packet.secs()));
        report.layer("transport.next_packet.calls", calls.next_packet.calls as f64);
        report.layer("transport.next_packet.s", med(&|r| r.calls.next_packet.secs()));
        report.layer("transport.next_packet.none_frac", calls.none_frac());
        report.layer("transport.on_timer.calls", calls.on_timer.calls as f64);
        report.layer("transport.on_timer.s", med(&|r| r.calls.on_timer.secs()));
        report.layer("transport.inject.calls", calls.inject.calls as f64);
        report.layer("transport.inject.s", med(&|r| r.calls.inject.secs()));
        report.layer("engine.events", out.events as f64);
        let fabric_s = traced_wall - setup_s - transport_s;
        report.layer("engine.ns_per_event", fabric_s * 1e9 / out.events.max(1) as f64);
        report.layer("engine.late_events", out.engine.late_events as f64);
        report.layer("engine.far_events", out.engine.far_events as f64);
        report.layer("engine.epochs_merged", out.engine.epochs_merged as f64);
        report.layer("engine.max_epoch_events", out.engine.max_epoch_events as f64);
        report.layer("harness.arrivals_s", med(&|r| r.arrivals_s));
        report.layer("harness.sketch_s", med(&|r| r.sketch_s));
        report.layer("queues.tor_down.mean_bytes", out.tor_down_mean_bytes);
        report.layer("queues.tor_down.max_bytes", out.tor_down_max_bytes as f64);
        report.layer("queues.drops", out.drops as f64);
        report.layer("homa.grants_issued", out.grants.grants_issued as f64);
        report.layer("homa.granted_bytes", out.grants.granted_bytes as f64);
        report.layer("homa.resends_requested", out.grants.resends_requested as f64);
        report.layer("slowdown_samples", out.samples as f64);
        report.layer(
            "undelivered_frac",
            out.injected.saturating_sub(out.delivered) as f64 / out.injected.max(1) as f64,
        );
    }
    report
}
