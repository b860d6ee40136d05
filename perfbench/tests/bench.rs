//! The benchmark's own tests: metric names, the digest check, tiny
//! instances of every workload, and exact repetition of the counters.

use std::process::Command;
use std::sync::Mutex;

use perfbench::calibrate::Calibration;
use perfbench::check::{invariants, report_digest, text_digest};
use perfbench::run::{median, run, tail_summary, RunConfig, END_TO_END, PER_LAYER};
use perfbench::spans::Spans;
use perfbench::workloads::{replay, run_pass, Workload, DEFAULT_SEED};

/// The self-profiler is process-global, so replays in this test binary
/// must not overlap one another.
static PROFILER: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    PROFILER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const TINY: u32 = 400;

fn serving() -> impl Iterator<Item = Workload> {
    Workload::ALL.into_iter().filter(|w| w.is_serving())
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_unique_and_listed_in_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(is_name(name), "{name} is not [A-Za-z0-9_.-]+");
        assert!(!names[..i].contains(name), "{name} is used twice");
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "{name} is missing from BENCHMARK.json"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name} has a malformed unit {unit:?}"
        );
    }
}

#[test]
fn a_report_perturbed_by_one_bit_fails_the_digest() {
    let _guard = serial();
    for w in serving() {
        let base = replay(w, DEFAULT_SEED, TINY, false, &mut Spans::new(), &mut |_| {})
            .expect("tiny replay runs")
            .report;
        let digest = report_digest(&base);
        let flip = |v: f64| f64::from_bits(v.to_bits() ^ 1);
        let mut perturbed = Vec::new();
        let mut r = base.clone();
        r.report.ttft.p99 = flip(r.report.ttft.p99);
        perturbed.push(r);
        let mut r = base.clone();
        r.report.decode_iterations ^= 1;
        perturbed.push(r);
        let mut r = base.clone();
        r.per_blade[0].busy_s = flip(r.per_blade[0].busy_s);
        perturbed.push(r);
        let mut r = base.clone();
        r.report.per_class[0].tpot.p50 = flip(r.report.per_class[0].tpot.p50);
        perturbed.push(r);
        let mut r = base.clone();
        r.utilization_skew = flip(r.utilization_skew);
        perturbed.push(r);
        for r in &perturbed {
            assert_ne!(
                report_digest(r),
                digest,
                "{}: one flipped bit went unseen",
                w.name()
            );
        }
        // How the event core got there is not part of the result.
        let mut r = base.clone();
        r.stretch.stretches += 1;
        assert_eq!(report_digest(&r), digest);
    }
    assert_ne!(text_digest("Table I\n"), text_digest("Table I\r"));
}

#[test]
fn broken_invariants_are_reported() {
    let _guard = serial();
    let base = replay(
        Workload::CentralDiurnal,
        DEFAULT_SEED,
        TINY,
        false,
        &mut Spans::new(),
        &mut |_| {},
    )
    .unwrap()
    .report;
    assert_eq!(invariants(&base), Ok(()));
    let mut r = base.clone();
    r.report.completed -= 1;
    assert!(invariants(&r).is_err());
    let mut r = base.clone();
    r.report.completed -= 1;
    r.report.shed_requests += 1;
    assert!(invariants(&r).unwrap_err().contains("shed"));
    let mut r = base.clone();
    r.per_blade[0].requests += 1;
    assert!(invariants(&r).unwrap_err().contains("per-blade"));
    let mut r = base.clone();
    r.report.tpot.p50 = r.report.tpot.p99 * 2.0 + 1.0;
    assert!(invariants(&r).unwrap_err().contains("tpot"));
}

#[test]
fn full_size_default_seed_passes_match_the_committed_digests() {
    let _guard = serial();
    for w in Workload::ALL {
        let pass = run_pass(
            w,
            DEFAULT_SEED,
            w.default_requests(),
            false,
            &mut Spans::new(),
            &mut |_| {},
        )
        .expect("full-size pass runs");
        assert_eq!(pass.check, Ok(()), "{}", w.name());
        assert_eq!(
            pass.digest,
            w.golden_digest(),
            "{}: digest {:016x} differs from the committed {:016x}",
            w.name(),
            pass.digest,
            w.golden_digest()
        );
    }
}

#[test]
fn paper_repro_renders_the_repository_artifacts() {
    use scd_bench::{
        extensions as ext, inference_experiments as inf, l2_study, spec_tables as spec,
        training_experiments as tr, validation,
    };
    let _guard = serial();
    let artifacts = [
        spec::table1(),
        spec::render_eda_flow(&spec::fig1_eda_flow().unwrap()),
        spec::fig2_datalink(),
        spec::fig3_blade_specs(),
        validation::render_validation(&validation::noc_validation().unwrap()),
        tr::render_fig5(&tr::fig5_sweep().unwrap()),
        tr::render_fig6(&tr::fig6_rows().unwrap()),
        inf::render_fig7(&inf::fig7_sweep().unwrap()),
        inf::render_fig7a(&inf::fig7a_sweep().unwrap()),
        inf::render_fig7b(&inf::fig7b_sweep().unwrap()),
        inf::render_fig8a(&inf::fig8a_rows().unwrap()),
        inf::render_fig8b(&inf::fig8b_sweep().unwrap()),
        l2_study::render_l2_study(&l2_study::l2_kv_study().unwrap()),
        ext::render_adder_ablation(&ext::adder_ablation().unwrap()),
        ext::render_window_ablation(&ext::window_ablation().unwrap()),
        ext::render_fabric_ablation(&ext::fabric_ablation().unwrap()),
    ];
    let text: String = artifacts.iter().map(|a| format!("{a}\n====\n")).collect();
    let pass = run_pass(
        Workload::PaperRepro,
        DEFAULT_SEED,
        0,
        false,
        &mut Spans::new(),
        &mut |_| {},
    )
    .unwrap();
    assert_eq!(pass.ops, artifacts.len() as u64);
    assert_eq!(pass.digest, text_digest(&text));
}

#[test]
fn counters_repeat_exactly_across_two_runs_at_one_seed() {
    let _guard = serial();
    for w in serving() {
        let counters = || {
            let r = replay(w, DEFAULT_SEED, 2_000, true, &mut Spans::new(), &mut |_| {}).unwrap();
            let (p, s) = (r.profile, &r.report.report);
            [
                p.heap_ops,
                p.stretch_plans,
                p.leapfrogs,
                p.admission_rounds,
                p.routing_calls,
                s.decode_iterations,
                s.prefix_hits,
                s.prefix_misses,
            ]
        };
        let first = counters();
        assert!(first[3] > 0, "{}: the profiler captured nothing", w.name());
        assert_eq!(first, counters(), "{}", w.name());
    }
}

#[test]
fn counters_show_the_designed_split_between_workloads() {
    let _guard = serial();
    for w in serving() {
        let r = replay(w, DEFAULT_SEED, 5_000, true, &mut Spans::new(), &mut |_| {}).unwrap();
        let (p, s) = (r.profile, &r.report.report);
        let prefix = w == Workload::PrefixRouted;
        assert_eq!(
            p.leapfrogs == 0,
            prefix,
            "{}: leapfrogs {}",
            w.name(),
            p.leapfrogs
        );
        assert_eq!(
            p.heap_ops == 0,
            prefix,
            "{}: heap ops {}",
            w.name(),
            p.heap_ops
        );
        assert_eq!(
            p.routing_calls > 0,
            prefix,
            "{}: routing {}",
            w.name(),
            p.routing_calls
        );
        assert_eq!(s.prefix_hit_rate() > 0.0, prefix, "{}", w.name());
        assert_eq!(s.prefix_cache_evictions > 0, prefix, "{}", w.name());
    }
}

#[test]
fn a_run_reduces_checked_passes_to_every_metric_in_table_order() {
    let _guard = serial();
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: w,
                seed: 7,
                seconds: 0.0,
                trace,
                requests: TINY,
            };
            let result = run(&cfg);
            assert!(result.correct(), "{} {:?}", w.name(), result.failures);
            assert!(result.passes >= perfbench::run::MIN_PASSES);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let names: Vec<_> = result.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(names, table, "{}", w.name());
            if !trace {
                for (name, value, _) in &result.metrics {
                    assert!(*value > 0.0, "{} {name} reads {value}", w.name());
                }
            }
            let spans = result.spans.spans();
            assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
            assert!(spans
                .iter()
                .all(|s| s.parent.is_none_or(|p| p < spans.len())));
        }
    }
}

#[test]
fn the_binary_prints_every_metric_last_and_writes_spans() {
    for w in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seed", "11", "--seconds", "0"])
                .args(["--trace", trace, "--requests", &TINY.to_string()])
                .output()
                .expect("the benchmark binary runs");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let last = stdout.lines().last().unwrap();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in table {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {last}"
                );
                assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(stdout.starts_with("provenance {\"workload\": "));
            if trace == "1" {
                let path = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("spans "))
                    .expect("the traced run names its span file");
                let json = std::fs::read_to_string(path).unwrap();
                assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"otherData\": {"));
                assert!(json.contains("\"ph\": \"X\""));
                assert!(json.trim_end().ends_with("]}"));
            }
        }
    }
}

#[test]
fn the_binary_rejects_bad_arguments_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "paper_repro", "--trace", "2"],
        &["--workload", "paper_repro", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn spans_nest_and_render_as_chrome_trace_events() {
    let mut spans = Spans::new();
    let outer = spans.open("pass");
    let inner = spans.open("engine.run");
    spans.arg(inner, "events.heap_ops", 3.0);
    let inner_s = spans.close(inner);
    let outer_s = spans.close(outer);
    assert!(outer_s >= inner_s);
    assert_eq!(spans.spans()[inner].parent, Some(outer));
    assert_eq!(spans.spans()[outer].parent, None);
    let json = spans.chrome_json(&[("cpu", "a \"quoted\" model".to_owned())]);
    assert!(json.contains("\"otherData\": {\"cpu\": \"a \\\"quoted\\\" model\"}"));
    assert!(json.contains("\"name\": \"engine.run\""));
    assert!(json.contains("\"id\": 1, \"parent\": 0, \"events.heap_ops\": 3}"));
    assert!(json.contains("\"id\": 0, \"parent\": null}"));
}

#[test]
fn summaries_take_the_median_and_the_tail_with_ten_samples_beyond() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let values: Vec<f64> = (1..=40).map(f64::from).collect();
    // 40 samples: p75 is the 30th, with exactly ten beyond it.
    assert_eq!(tail_summary(&values), "n=40 p50 20.5 p75 30");
    assert_eq!(tail_summary(&values[..10]), "n=10 p50 5.5");
}

#[test]
fn the_calibration_kernel_times_fixed_work() {
    let mut kernel = Calibration::new();
    let (a, b) = (kernel.measure(), kernel.measure());
    assert!(a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite());
}

#[test]
fn what_runs_between_set_up_and_replay_is_timed_by_neither() {
    let _guard = serial();
    for (w, requests) in [(Workload::CentralDiurnal, TINY), (Workload::PaperRepro, 0)] {
        let mut spans = Spans::new();
        let mut calls = 0;
        let pass = run_pass(w, 3, requests, false, &mut spans, &mut |_| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(pass.wall_s, pass.setup_s + pass.replay_s);
        assert!(
            spans.spans()[0].seconds() >= pass.wall_s + 0.05,
            "{}",
            w.name()
        );
    }
}
