//! One benchmark run: passes of one workload repeated for the requested
//! time, each checked, then reduced to the metrics `BENCHMARK.json`
//! names.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::calibrate::{Calibration, REFERENCE_S};
use crate::spans::{json_num, json_str, Spans};
use crate::workloads::{run_pass, Pass, Workload};

/// End-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: name and unit. A layer
/// a workload does not run reads 0. Names ending in `_s` are host times
/// (medians over the traced passes); every other value is a
/// deterministic count or ratio that must repeat exactly across passes,
/// except the two derived from untraced times (`engine.ns_per_iteration`
/// and `traced.overhead`).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("traces.synth_s", "s"),
    ("traces.requests", "count"),
    ("scenario.compile_s", "s"),
    ("engine.admission_s", "s"),
    ("engine.admission_rounds", "count"),
    ("engine.decode_iterations", "count"),
    ("engine.mean_batch", "seqs"),
    ("engine.preemptions", "count"),
    ("engine.ns_per_iteration", "ns"),
    ("events.heap_ops", "count"),
    ("events.stretch_plans", "count"),
    ("events.stretch_plan_s", "s"),
    ("events.stretches", "count"),
    ("events.stretched_iterations", "count"),
    ("events.single_steps", "count"),
    ("events.stretch_yield", "ratio"),
    ("cluster.leapfrogs", "count"),
    ("cluster.leapfrog_s", "s"),
    ("cluster.routing_calls", "count"),
    ("cluster.routing_s", "s"),
    ("cluster.utilization_skew", "ratio"),
    ("prefix.hit_ratio", "ratio"),
    ("prefix.tokens_saved", "tokens"),
    ("prefix.reclaimed_blocks", "count"),
    ("prefix.cow_copies", "count"),
    ("coord.remote_hits", "count"),
    ("coord.stream_ratio", "ratio"),
    ("coord.streamed_bytes", "B"),
    ("eda.compile_s", "s"),
    ("eda.junctions", "JJ"),
    ("noc.validate_s", "s"),
    ("noc.points", "count"),
    ("training.estimate_s", "s"),
    ("training.points", "count"),
    ("inference.estimate_s", "s"),
    ("inference.points", "count"),
    ("traced.overhead", "ratio"),
];

/// Passes every run makes at least: one warm-up, whose times are
/// dropped, and two measured.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the synthesised trace.
    pub seed: u64,
    /// Measuring time; passes repeat until it has elapsed.
    pub seconds: f64,
    /// Whether this is the traced run: every other measured pass runs
    /// under the self-profiler, and per-layer metrics are reported.
    pub trace: bool,
    /// Requests per serving pass.
    pub requests: u32,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations of passes whose output check failed.
    pub failed: u64,
    /// Why passes failed, one line each.
    pub failures: Vec<String>,
    /// Metric name, value and unit, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Passes made, warm-up included.
    pub passes: usize,
    /// Digest of the first pass's output.
    pub digest: Option<u64>,
    /// Every span recorded.
    pub spans: Spans,
    /// Per-pass reference seconds behind each end-to-end time (untraced
    /// measured passes only; empty in the traced run).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Every calibration-kernel time of the run, in order (s).
    pub calibration: Vec<f64>,
    /// Median host wall seconds of the measured untraced passes, before
    /// calibration.
    pub host_wall_s: f64,
}

impl RunResult {
    /// Whether every pass passed its output check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the benchmark prints last.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed,
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Operations one pass attempts.
fn ops_per_pass(cfg: &RunConfig) -> u64 {
    if cfg.workload.is_serving() {
        u64::from(cfg.requests)
    } else {
        crate::workloads::ARTIFACTS
    }
}

/// Runs passes of `cfg.workload` until `cfg.seconds` have elapsed (and at
/// least [`MIN_PASSES`]), checking each, and reduces them to metrics.
/// The calibration kernel runs inside every pass, between set-up and
/// replay, and every time the pass reports is scaled to the reference
/// host by the kernel's time there (see [`crate::calibrate`]). Set-up
/// thus starts where the previous replay left the caches, as it would in
/// back-to-back use.
/// A pass fails when its invariants break, when its digest differs from
/// the committed one (where [`Workload::compares_golden`]) or from the
/// first pass's, or when a traced pass's counters differ from the first
/// traced pass's. A layer error stops the run.
#[must_use]
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut spans = Spans::new();
    let ops = ops_per_pass(cfg);
    let golden = cfg
        .workload
        .compares_golden(cfg.seed, cfg.requests)
        .then(|| cfg.workload.golden_digest());
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let started = Instant::now();
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        passes: 0,
        digest: None,
        spans: Spans::new(),
        samples: Vec::new(),
        calibration: Vec::new(),
        host_wall_s: 0.0,
    };
    let mut kernel = Calibration::new();
    let mut host_walls = Vec::new();
    let mut measured: Vec<(bool, Pass)> = Vec::new();
    let mut counters: Option<Vec<(&'static str, f64)>> = None;
    while result.passes < MIN_PASSES || started.elapsed() < budget {
        // Pass 0 warms caches and the allocator; in the traced run every
        // other pass after it runs under the profiler.
        let traced = cfg.trace && result.passes % 2 == 1;
        let index = result.passes;
        result.passes += 1;
        result.attempted += ops;
        let mut kernel_s = 0.0;
        let mut calibrate = |spans: &mut Spans| {
            let span = spans.open("calibrate");
            kernel_s = kernel.measure();
            spans.close(span);
        };
        let pass = run_pass(
            cfg.workload,
            cfg.seed,
            cfg.requests,
            traced,
            &mut spans,
            &mut calibrate,
        );
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => {
                result.failed += ops;
                result.failures.push(format!("pass {index}: {e}"));
                break;
            }
        };
        result.calibration.push(kernel_s);
        let host_wall_s = pass.wall_s;
        let pass = scaled(pass, REFERENCE_S / kernel_s);
        let mut verdict = pass.check.clone();
        let first = *result.digest.get_or_insert(pass.digest);
        if verdict.is_ok() && pass.digest != first {
            verdict = Err(format!(
                "digest {:016x} differs from the first pass's {first:016x}",
                pass.digest
            ));
        }
        if let Some(golden) = golden.filter(|g| verdict.is_ok() && pass.digest != *g) {
            verdict = Err(format!(
                "digest {:016x} differs from the committed {golden:016x}",
                pass.digest
            ));
        }
        if traced {
            let now: Vec<_> = pass
                .layers
                .iter()
                .copied()
                .filter(|(name, _)| !name.ends_with("_s"))
                .collect();
            let first = counters.get_or_insert_with(|| now.clone());
            if verdict.is_ok() && *first != now {
                verdict = Err(format!(
                    "counters {now:?} differ from the first traced pass's {first:?}"
                ));
            }
        }
        if let Err(e) = verdict {
            result.failed += ops;
            result.failures.push(format!("pass {index}: {e}"));
        }
        if index > 0 {
            if !traced {
                host_walls.push(host_wall_s);
            }
            measured.push((traced, pass));
        }
    }
    result.host_wall_s = median(&host_walls);
    if cfg.trace {
        result.metrics = per_layer(&measured);
    } else {
        let times: [(&str, PassTime); 3] = [
            ("wall_s", |p| p.wall_s),
            ("setup_s", |p| p.setup_s),
            ("replay_s", |p| p.replay_s),
        ];
        result.samples = times
            .iter()
            .map(|&(name, f)| (name, measured.iter().map(|(_, p)| f(p)).collect()))
            .collect();
        result.metrics = end_to_end(&result.samples, ops);
    }
    result.spans = spans;
    result
}

/// `pass` with every host time multiplied by `k`.
fn scaled(mut pass: Pass, k: f64) -> Pass {
    pass.setup_s *= k;
    pass.replay_s *= k;
    pass.wall_s *= k;
    for (name, value) in &mut pass.layers {
        if name.ends_with("_s") {
            *value *= k;
        }
    }
    pass
}

/// Reads one end-to-end time off a pass.
type PassTime = fn(&Pass) -> f64;

fn end_to_end(
    samples: &[(&'static str, Vec<f64>)],
    ops: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let of = |name: &str| {
        samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    };
    let wall_s = of("wall_s");
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "req_per_s" if wall_s > 0.0 => ops as f64 / wall_s,
                "peak_rss_mb" => peak_rss_mb(),
                _ => of(name),
            };
            (name, value, unit)
        })
        .collect()
}

/// `values` summarised as their count, median and the highest
/// percentile with at least ten samples beyond it (none below 11).
#[must_use]
pub fn tail_summary(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = format!("n={n} p50 {}", median(&v));
    if n > 10 {
        let pct = (100 * (n - 10)) / n;
        // Nearest rank: at least ten samples lie beyond `v[rank - 1]`.
        let rank = (pct * n).div_ceil(100).max(1);
        let _ = write!(out, " p{pct} {}", v[rank - 1]);
    }
    out
}

fn per_layer(measured: &[(bool, Pass)]) -> Vec<(&'static str, f64, &'static str)> {
    let replay = |traced: bool| {
        median(
            &measured
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, p)| p.replay_s)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced_replay, traced_replay) = (replay(false), replay(true));
    let traced: Vec<&Pass> = measured
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, p)| p)
        .collect();
    let layer = |name: &str| -> f64 {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
            .collect();
        if name.ends_with("_s") {
            median(&values)
        } else {
            values.first().copied().unwrap_or(0.0)
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "engine.ns_per_iteration" => {
                    ratio(untraced_replay * 1e9, layer("engine.decode_iterations"))
                }
                "traced.overhead" => ratio(traced_replay, untraced_replay),
                _ => layer(name),
            };
            (name, value, unit)
        })
        .collect()
}
