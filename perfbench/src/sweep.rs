//! The `fig12_13_sweep` workload: the Figure 12/13 part of what
//! `repro compare` runs, at the default scale. `figdata::fig12_13`
//! simulates Homa, pFabric, pHost and PIAS on W2 and W4 at 50% and 80%
//! load on the 24-host reduced fabric, and `compare_tables` joins the
//! results against the paper's digitized Fig. 12/13 curves. README.md
//! says why Figs. 14–16 are left out.
//!
//! The sweep builds its own transports, so the callback decorator cannot
//! reach inside it; the traced run splits its wall time between the two
//! public calls instead.

use crate::oneway::replay_harness;
use crate::report::{median, peak_rss_mb, Report};
use crate::{repeat_for, time_setup};
use homa_bench::figdata::{compare_tables, fig12_13, CompareOutcome, ReproOpts};
use homa_bench::perfjson::FigTable;
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::ScenarioSpec;
use homa_sim::NetworkConfig;
use homa_workloads::Workload;
use std::time::{Duration, Instant};

/// The workload of the sweep point the end-to-end slowdowns come from:
/// W2 has the most messages per run (25,000; W4 has 3,000), so its
/// percentiles move least from seed to seed.
const POINT_WORKLOAD: Workload = Workload::W2;

/// The default `repro` scale at both loads the reference curves cover,
/// as `repro compare` sets them.
fn opts(seed: u64) -> ReproOpts {
    ReproOpts { seed, loads: vec![0.5, 0.8], ..ReproOpts::default() }
}

/// The gate's verdict on one sweep, reduced to what must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    gated_curves_joined: usize,
    /// Failing gated curves, or the join error.
    failures: Result<Vec<String>, String>,
    /// Mean `rms_rel` over the gated curves that joined.
    fidelity_rms: f64,
}

impl Verdict {
    fn of(outcome: CompareOutcome) -> Self {
        let rms: Vec<f64> = outcome
            .delta_table
            .rows
            .iter()
            .filter(|row| {
                let verdict = row.get("verdict").and_then(|f| f.as_text());
                matches!(verdict, Some("pass" | "fail"))
            })
            .filter_map(|row| row.get("rms_rel").and_then(|f| f.as_num()))
            .collect();
        Verdict {
            gated_curves_joined: outcome.gated_curves_joined,
            failures: outcome.failures,
            fidelity_rms: rms.iter().sum::<f64>() / rms.len().max(1) as f64,
        }
    }

    fn check(&self, report: &mut Report, what: &str) {
        report.check(
            self.gated_curves_joined > 0,
            format_args!("{what}: no gated reference curve joined"),
        );
        match &self.failures {
            Err(e) => report.check(false, format_args!("{what}: {e}")),
            Ok(fails) => {
                // Each gated curve is one check; the passing ones need no message.
                report.attempted += self.gated_curves_joined.saturating_sub(fails.len()) as u64;
                for f in fails {
                    report.check(false, format_args!("{what}: gated curve outside tolerance: {f}"));
                }
            }
        }
    }

    /// Gated curves outside tolerance; a join error counts as one.
    fn gate_failures(&self) -> usize {
        self.failures.as_ref().map_or(1, Vec::len)
    }
}

fn compare(tables: &[FigTable], seed: u64) -> CompareOutcome {
    compare_tables(tables, 1.0, format!("perfbench fig12_13_sweep, seed {seed}"))
}

/// The value of the canonical row `metric` for Homa on
/// [`POINT_WORKLOAD`] at 80% load.
fn homa_row(table: &FigTable, metric: &str) -> Option<f64> {
    table.rows.iter().find_map(|row| {
        let text = |k: &str| row.get(k).and_then(|f| f.as_text());
        let num = |k: &str| row.get(k).and_then(|f| f.as_num());
        (text("workload") == Some(POINT_WORKLOAD.name())
            && text("protocol") == Some("Homa")
            && num("load") == Some(0.8)
            && text("metric") == Some(metric))
        .then(|| num("value"))
        .flatten()
    })
}

/// Slowdowns of the sweep's Homa point at 80% load.
struct Point {
    p50: f64,
    p99: f64,
    short_p99: f64,
    samples: usize,
    undelivered_frac: f64,
}

/// Rerun the sweep's Homa point at 80% load directly; the sweep's own
/// Fig. 12/13 rows for it must agree exactly.
fn homa_point(report: &mut Report, opts: &ReproOpts, tables: &[FigTable]) -> Point {
    let w = POINT_WORKLOAD;
    let spec =
        ScenarioSpec::new("fig12_13", opts.fabric_spec(), w, 0.8, opts.msgs_for(w), opts.seed);
    let res =
        run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_records(), None);
    let summary = SlowdownSummary::from_records(&res.records, opts.bins);
    let short_p99 = SlowdownSummary::small_message_p99(&res.records, 0.5);
    let row = |fig: &str, metric: &str| {
        tables.iter().find(|t| t.figure == fig).and_then(|t| homa_row(t, metric))
    };
    let (fig12, fig13) = (row("fig12", "small_msg_p99"), row("fig13", "overall_p50"));
    report.check(
        fig12 == Some(short_p99) && fig13 == Some(summary.overall_p50),
        format_args!(
            "sweep rows for Homa/{w}/80% ({fig12:?}, {fig13:?}) differ from a direct run ({short_p99}, {})",
            summary.overall_p50
        ),
    );
    report.check(
        res.delivered == res.injected,
        format_args!("Homa/{w}/80%: delivered {} of {}", res.delivered, res.injected),
    );
    Point {
        p50: summary.overall_p50,
        p99: summary.overall_p99,
        short_p99,
        samples: res.records.len(),
        undelivered_frac: res.injected.saturating_sub(res.delivered) as f64
            / res.injected.max(1) as f64,
    }
}

/// Run `fig12_13_sweep` for `seconds` (and again traced, if `trace`).
pub fn run(seed: u64, seconds: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let opts = opts(seed);
    let netcfg = NetworkConfig { seed, ..NetworkConfig::default() };
    let setup_s = time_setup(&opts.fabric(), &netcfg, &POINT_WORKLOAD.dist());

    let mut first: Option<(Vec<FigTable>, Verdict)> = None;
    let walls = repeat_for(seconds, |rep| {
        let t0 = Instant::now();
        let (t12, t13) = fig12_13(&opts);
        let tables = vec![t12, t13];
        let outcome = compare(&tables, seed);
        let wall = t0.elapsed().as_secs_f64();
        let verdict = Verdict::of(outcome);
        verdict.check(&mut report, &format!("repeat {rep}"));
        match &first {
            None => first = Some((tables, verdict)),
            Some((_, f)) => report.check(
                *f == verdict,
                format_args!("repeat {rep} differs from repeat 0: {verdict:?} vs {f:?}"),
            ),
        }
        wall
    });
    let (tables, verdict) = first.expect("at least one repeat ran");
    let peak_rss = peak_rss_mb();
    let point = homa_point(&mut report, &opts, &tables);
    let wall_s = median(&walls);

    report.e2e("wall_s", wall_s);
    report.e2e("setup_s", setup_s);
    report.e2e("peak_rss_mb", peak_rss);
    report.e2e("slowdown_p50", point.p50);
    report.e2e("slowdown_p99", point.p99);
    report.e2e("short_slowdown_p99", point.short_p99);

    if trace {
        let mut replays = Vec::new();
        let split = repeat_for(seconds, |rep| {
            let t0 = Instant::now();
            let (t12, t13) = fig12_13(&opts);
            let t1 = Instant::now();
            let traced = Verdict::of(compare(&[t12, t13], seed));
            let t2 = Instant::now();
            report.check(
                traced == verdict,
                format_args!(
                    "traced repeat {rep} differs from untraced: {traced:?} vs {verdict:?}"
                ),
            );
            replays.push(replay_fig12_13(&opts));
            ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
        });
        let med = |f: &dyn Fn(&(f64, f64)) -> f64| median(&split.iter().map(f).collect::<Vec<_>>());
        let traced_wall = med(&|s| s.0 + s.1);
        report.account(setup_s, 0.0, traced_wall, wall_s);
        report.layer("figdata.fig12_13_s", med(&|s| s.0));
        report.layer("figdata.compare_s", med(&|s| s.1));
        report
            .layer("harness.arrivals_s", median(&replays.iter().map(|r| r.0).collect::<Vec<_>>()));
        report.layer("harness.sketch_s", median(&replays.iter().map(|r| r.1).collect::<Vec<_>>()));
        report.layer("slowdown_samples", point.samples as f64);
        report.layer("undelivered_frac", point.undelivered_frac);
        report.layer("fidelity_rms", verdict.fidelity_rms);
        report.layer("gate_failures", verdict.gate_failures() as f64);
    }
    report
}

/// Replay the harness's per-message calls for every run of the sweep
/// (four protocols per workload and load).
fn replay_fig12_13(opts: &ReproOpts) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    for &load in &opts.loads {
        for &w in &opts.workloads {
            let spec = ScenarioSpec::new(
                "fig12_13",
                opts.fabric_spec(),
                w,
                load,
                opts.msgs_for(w),
                opts.seed,
            );
            for _ in 0..4 {
                let (a, s) = replay_harness(&spec);
                total.0 += a;
                total.1 += s;
            }
        }
    }
    total
}
