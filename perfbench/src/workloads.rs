//! The benchmark's workloads and one pass over each.
//!
//! Every serving workload serves Llama-405B on the paper-baseline SCD
//! blade (TP=64, max batch 32, FCFS, event core). A pass synthesises the
//! trace from the seed, hands the program only the generated requests,
//! compiles the scenario and replays it. The analytic workload renders
//! every paper artifact once and replays nothing.

use llm_workload::model::{ModelZoo, TransformerConfig};
use llm_workload::parallelism::Parallelism;
use optimus::serving::telemetry::profile;
use optimus::serving::{
    CacheEviction, ClusterReport, DispatchMode, DiurnalTraceConfig, FcfsPolicy, HandoffLink,
    ProfileReport, RoutingPolicy, Scenario, SharedPrefixTraceConfig, SimCore, Topology,
    TraceSource,
};
use optimus::validate::validate_all_reduce;
use optimus::SpeedupStudy;
use scd_arch::Blade;
use scd_bench::spec_tables::{self as spec, EdaFlowRow};
use scd_bench::{
    extensions as ext, inference_experiments as inf, l2_study, training_experiments as tr,
    validation,
};
use scd_eda::blocks;
use scd_eda::{Netlist, StarlingFlow};
use scd_tech::technology::Technology;

use crate::check;
use crate::spans::Spans;

/// Artifacts one `paper_repro` pass renders: its operations.
pub const ARTIFACTS: u64 = 16;

/// The seed the committed digests were taken at.
pub const DEFAULT_SEED: u64 = 2026;

/// Cross-blade link of the workloads that need one: the NVLink-class
/// handoff the repository's core-scaling study pins.
pub const LINK: HandoffLink = HandoffLink {
    bytes_per_s: 400e9,
    latency_s: 5e-6,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 mixed blades on one shared queue, diurnal trace: the central
    /// loop, leapfrog replay, stretch planning and the next-blade pick.
    CentralDiurnal,
    /// 8 mixed blades, per-blade dispatch, cache-aware routing over a
    /// shared-prefix trace whose prefix working set exceeds KV: the
    /// prefix cache, routing residency model and global tier.
    PrefixRouted,
    /// 2 prefill + 2 decode blades on long prompts: the disaggregated
    /// loop and the prefill-to-decode handoff.
    DisaggLongctx,
    /// Every analytic artifact of the paper once, no serving replay:
    /// the EDA flow, NoC validation, training and inference estimators.
    PaperRepro,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Self; 4] = [
        Self::CentralDiurnal,
        Self::PrefixRouted,
        Self::DisaggLongctx,
        Self::PaperRepro,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CentralDiurnal => "central_diurnal",
            Self::PrefixRouted => "prefix_routed",
            Self::DisaggLongctx => "disagg_longctx",
            Self::PaperRepro => "paper_repro",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass replays a serving trace.
    #[must_use]
    pub fn is_serving(self) -> bool {
        self != Self::PaperRepro
    }

    /// Requests one full-size pass replays (0 for `paper_repro`).
    #[must_use]
    pub fn default_requests(self) -> u32 {
        match self {
            Self::CentralDiurnal => 100_000,
            Self::PrefixRouted => 40_000,
            Self::DisaggLongctx => 100_000,
            Self::PaperRepro => 0,
        }
    }

    /// Digest of a full-size pass at [`DEFAULT_SEED`]: of the
    /// [`ClusterReport`](optimus::serving::ClusterReport) for a serving
    /// workload, of the rendered artifact text for `paper_repro`.
    /// Re-snapshot only for a deliberate change to simulated results.
    #[must_use]
    pub fn golden_digest(self) -> u64 {
        match self {
            Self::CentralDiurnal => 0xf1f1_9a54_81ce_05a6,
            Self::PrefixRouted => 0xf063_7836_4448_c441,
            Self::DisaggLongctx => 0x6e41_7f1e_7806_644f,
            Self::PaperRepro => 0x5b8e_43e8_38e1_a8ce,
        }
    }

    /// Whether a pass at `seed` over `requests` is compared with
    /// [`Self::golden_digest`]. The artifacts do not depend on the seed,
    /// so `paper_repro` is always compared.
    #[must_use]
    pub fn compares_golden(self, seed: u64, requests: u32) -> bool {
        !self.is_serving() || (seed == DEFAULT_SEED && requests == self.default_requests())
    }

    /// The trace generator of a serving workload.
    fn trace(self, seed: u64, requests: u32) -> Trace {
        let diurnal = |mean_rate_per_s, prompt_tokens, output_tokens| {
            Trace::Diurnal(DiurnalTraceConfig {
                seed,
                requests,
                mean_rate_per_s,
                amplitude: 0.9,
                period_s: 3600.0,
                prompt_tokens,
                output_tokens,
            })
        };
        match self {
            Self::CentralDiurnal => diurnal(192.0, (32, 128), (16, 64)),
            Self::DisaggLongctx => diurnal(16.0, (512, 4096), (64, 512)),
            Self::PrefixRouted => Trace::SharedPrefix(SharedPrefixTraceConfig {
                seed,
                requests,
                arrival_rate_per_s: 192.0,
                prefixes: 4096,
                prefix_tokens: (64, 128),
                zipf_s: 1.2,
                share_fraction: 0.9,
                unique_prompt_tokens: (32, 128),
                output_tokens: (16, 64),
            }),
            Self::PaperRepro => unreachable!("paper_repro replays no trace"),
        }
    }

    /// The serving scenario of a serving workload, before its requests.
    fn scenario<'a>(self, model: &'a TransformerConfig, par: &'a Parallelism) -> Scenario<'a> {
        let base = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(model)
            .parallelism(par)
            .max_batch(32)
            .policy(FcfsPolicy)
            .core(SimCore::EventDriven);
        match self {
            Self::CentralDiurnal => base
                .topology(Topology::mixed(8))
                .dispatch(DispatchMode::Central),
            Self::PrefixRouted => base
                .topology(Topology::mixed(8))
                .dispatch(DispatchMode::PerBlade)
                .routing(RoutingPolicy::CacheAware)
                .prefix_caching(16)
                .cache_eviction(CacheEviction::Lfu)
                .global_kv_cache(1 << 20)
                .kv_capacity_bytes(2e9)
                .handoff(LINK),
            Self::DisaggLongctx => base.topology(Topology::disaggregated(2, 2)).handoff(LINK),
            Self::PaperRepro => unreachable!("paper_repro replays no trace"),
        }
    }

    /// One line naming every input parameter of a pass, for provenance.
    #[must_use]
    pub fn params(self, seed: u64, requests: u32) -> String {
        let common = "Llama-405B on the paper-baseline SCD blade, TP=64, max batch 32, \
                      FCFS, event core";
        match self {
            Self::CentralDiurnal => format!(
                "{common}; 8 mixed blades, central dispatch; {:?}",
                self.trace(seed, requests)
            ),
            Self::PrefixRouted => format!(
                "{common}; 8 mixed blades, per-blade dispatch, cache-aware routing, \
                 16-token prefix blocks, LFU, global tier 1<<20 tokens, 2 GB KV per blade, \
                 {LINK:?}; {:?}",
                self.trace(seed, requests)
            ),
            Self::DisaggLongctx => format!(
                "{common}; 2 prefill + 2 decode blades, {LINK:?}; {:?}",
                self.trace(seed, requests)
            ),
            Self::PaperRepro => "Table I, Fig. 1h EDA flow (10 designs), Figs. 2-3, NoC \
                                 all-reduce validation, Figs. 5-6, Figs. 7/7a/7b/8a/8b, \
                                 Sec. VI L2/KV study, adder/window/fabric ablations"
                .to_owned(),
        }
    }
}

/// The trace generator of one serving workload.
#[derive(Debug, Clone, Copy)]
enum Trace {
    Diurnal(DiurnalTraceConfig),
    SharedPrefix(SharedPrefixTraceConfig),
}

impl Trace {
    fn source(&self) -> &dyn TraceSource {
        match self {
            Self::Diurnal(c) => c,
            Self::SharedPrefix(c) => c,
        }
    }
}

/// What one pass measured and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Operations attempted: simulated requests, or artifacts rendered.
    pub ops: u64,
    /// Set-up time: trace synthesis plus scenario compile, or building
    /// the study inputs (s).
    pub setup_s: f64,
    /// `CompiledScenario::run`, or evaluating the artifacts (s).
    pub replay_s: f64,
    /// The whole pass, from set-up to the finished report: `setup_s`
    /// plus `replay_s`, leaving out what runs between them (s).
    pub wall_s: f64,
    /// Digest of the pass's output.
    pub digest: u64,
    /// The invariant check's verdict.
    pub check: Result<(), String>,
    /// Per-layer values of this pass, by metric name.
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs one pass of `workload`, recording spans into `spans`; `traced`
/// arms the simulator's self-profiler around the replay. `between` runs
/// after set-up and before the replay, outside both timings.
///
/// # Errors
///
/// Propagates a failure of any layer the pass calls.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    requests: u32,
    traced: bool,
    spans: &mut Spans,
    between: &mut dyn FnMut(&mut Spans),
) -> Result<Pass, String> {
    if workload.is_serving() {
        serving_pass(workload, seed, requests, traced, spans, between)
    } else {
        paper_pass(spans, between)
    }
}

/// One replay of a serving workload: its report, the self-profile of
/// the replay (all zero unless traced) and the seconds of each stage.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The simulator's report.
    pub report: ClusterReport,
    /// Self-profiler capture around `CompiledScenario::run`.
    pub profile: ProfileReport,
    /// `TraceSource::requests` (s).
    pub synth_s: f64,
    /// `Scenario::compile` (s).
    pub compile_s: f64,
    /// `CompiledScenario::run` (s).
    pub replay_s: f64,
}

/// Synthesises the trace of a serving workload, compiles its scenario
/// and replays it, each stage under its own span; `traced` arms the
/// self-profiler around the replay alone, and `between` runs between
/// compile and replay.
///
/// # Errors
///
/// Propagates a failure of trace synthesis, compile or replay, and
/// refuses a workload that replays nothing.
pub fn replay(
    workload: Workload,
    seed: u64,
    requests: u32,
    traced: bool,
    spans: &mut Spans,
    between: &mut dyn FnMut(&mut Spans),
) -> Result<Replay, String> {
    if !workload.is_serving() {
        return Err(format!("{} replays no trace", workload.name()));
    }
    let err = |e: optimus::OptimusError| e.to_string();
    let pass = spans.open(format!("pass {}", workload.name()));
    let span = spans.open("traces.synth");
    let trace = workload
        .trace(seed, requests)
        .source()
        .requests()
        .map_err(err)?;
    let synth_s = spans.close(span);
    let span = spans.open("scenario.compile");
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).map_err(|e| e.to_string())?;
    let compiled = workload
        .scenario(&model, &par)
        .requests(trace)
        .compile()
        .map_err(err)?;
    let compile_s = spans.close(span);
    between(spans);
    let span = spans.open("engine.run");
    if traced {
        profile::start();
    }
    let report = compiled.run();
    let profile = if traced {
        profile::stop()
    } else {
        ProfileReport::default()
    };
    let report = report.map_err(err)?;
    for (name, value) in counters(&report, &profile) {
        spans.arg(span, name, value);
    }
    let replay_s = spans.close(span);
    spans.close(pass);
    Ok(Replay {
        report,
        profile,
        synth_s,
        compile_s,
        replay_s,
    })
}

fn serving_pass(
    workload: Workload,
    seed: u64,
    requests: u32,
    traced: bool,
    spans: &mut Spans,
    between: &mut dyn FnMut(&mut Spans),
) -> Result<Pass, String> {
    let Replay {
        report,
        profile: prof,
        synth_s,
        compile_s,
        replay_s,
    } = replay(workload, seed, requests, traced, spans, between)?;
    let mut layers = vec![
        ("traces.synth_s", synth_s),
        ("traces.requests", f64::from(report.report.requests)),
        ("scenario.compile_s", compile_s),
    ];
    layers.extend(counters(&report, &prof));
    Ok(Pass {
        ops: u64::from(requests),
        setup_s: synth_s + compile_s,
        replay_s,
        wall_s: synth_s + compile_s + replay_s,
        digest: check::report_digest(&report),
        check: check::invariants(&report),
        layers,
    })
}

/// The report and profiler counters of one replay, by per-layer metric
/// name.
fn counters(report: &ClusterReport, prof: &ProfileReport) -> Vec<(&'static str, f64)> {
    let r = &report.report;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    vec![
        ("engine.admission_s", prof.admission_s),
        ("engine.admission_rounds", prof.admission_rounds as f64),
        ("engine.decode_iterations", r.decode_iterations as f64),
        ("engine.mean_batch", r.mean_batch),
        ("engine.preemptions", f64::from(r.evictions)),
        ("events.heap_ops", prof.heap_ops as f64),
        ("events.stretch_plans", prof.stretch_plans as f64),
        ("events.stretch_plan_s", prof.stretch_plan_s),
        ("events.stretches", report.stretch.stretches as f64),
        (
            "events.stretched_iterations",
            report.stretch.stretched_iterations as f64,
        ),
        ("events.single_steps", report.stretch.single_steps as f64),
        (
            "events.stretch_yield",
            ratio(
                report.stretch.stretched_iterations as f64,
                r.decode_iterations as f64,
            ),
        ),
        ("cluster.leapfrogs", prof.leapfrogs as f64),
        ("cluster.leapfrog_s", prof.leapfrog_s),
        ("cluster.routing_calls", prof.routing_calls as f64),
        ("cluster.routing_s", prof.routing_s),
        ("cluster.utilization_skew", report.utilization_skew),
        ("prefix.hit_ratio", r.prefix_hit_rate()),
        ("prefix.tokens_saved", r.prefix_tokens_saved as f64),
        ("prefix.reclaimed_blocks", r.prefix_cache_evictions as f64),
        ("prefix.cow_copies", r.prefix_cow_copies as f64),
        ("coord.remote_hits", r.remote_prefix_hits as f64),
        (
            "coord.stream_ratio",
            ratio(r.remote_prefix_streams as f64, r.remote_prefix_hits as f64),
        ),
        ("coord.streamed_bytes", r.remote_kv_streamed_bytes),
    ]
}

/// The Fig. 1h design database: each netlist with whether it is wide
/// enough to verify on fewer random words (as the paper's flow run does).
fn design_database() -> Result<Vec<(Netlist, bool)>, scd_eda::EdaError> {
    Ok(vec![
        (blocks::ripple_adder(8)?, false),
        (blocks::kogge_stone_adder(8)?, false),
        (blocks::array_multiplier(8)?, true),
        (blocks::bf16_mac()?, true),
        (blocks::alu(8)?, true),
        (blocks::crossbar(4, 8)?, true),
        (blocks::shift_register(8, 8)?, false),
        (blocks::register_file_read(8, 8)?, true),
        (blocks::comparator(8)?, false),
        (blocks::popcount(16)?, false),
    ])
}

/// The artifact text of one pass, each artifact under its own span.
struct Artifacts<'s> {
    spans: &'s mut Spans,
    text: String,
    count: u64,
}

impl Artifacts<'_> {
    /// Renders one artifact under a span called `name`; `f` returns the
    /// text and the number of points it priced. Returns the span's
    /// seconds and the points.
    fn render<E: std::fmt::Display>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<(String, usize), E>,
    ) -> Result<(f64, f64), String> {
        let span = self.spans.open(name);
        let (text, points) = f().map_err(|e| format!("{name}: {e}"))?;
        self.spans.arg(span, "points", points as f64);
        let seconds = self.spans.close(span);
        self.text.push_str(&text);
        self.text.push_str("\n====\n");
        self.count += 1;
        Ok((seconds, points as f64))
    }

    /// Renders every sweep, returning their summed seconds and points.
    fn render_all(&mut self, sweeps: &[(&str, Sweep)]) -> Result<(f64, f64), String> {
        let mut total = (0.0, 0.0);
        for &(name, f) in sweeps {
            let (s, n) = self.render(name, f)?;
            total = (total.0 + s, total.1 + n);
        }
        Ok(total)
    }
}

/// An estimator sweep rendered as artifact text, with its point count.
type Sweep = fn() -> Result<(String, usize), optimus::OptimusError>;

fn paper_pass(spans: &mut Spans, between: &mut dyn FnMut(&mut Spans)) -> Result<Pass, String> {
    let pass = spans.open("pass paper_repro");
    let span = spans.open("inputs");
    let flow = StarlingFlow::new(Technology::scd_nbtin());
    let fast_flow = flow.clone().with_verify_words(8);
    let designs = design_database().map_err(|e| e.to_string())?;
    let blade = Blade::baseline();
    let (torus, noc) = (blade.torus(), blade.noc_config());
    let sizes = [1e6, 4e6, 16e6, 64e6, 256e6];
    let setup_s = spans.close(span);
    between(spans);
    let artifacts = spans.open("artifacts");
    let mut a = Artifacts {
        spans,
        text: String::new(),
        count: 0,
    };
    a.render("artifact.table1", || Ok::<_, String>((spec::table1(), 1)))?;
    let mut junctions = 0u64;
    let (eda_s, _) = a.render("eda.compile", || {
        let mut rows = Vec::with_capacity(designs.len());
        for (netlist, wide) in &designs {
            let f = if *wide { &fast_flow } else { &flow };
            let r = f.compile(netlist)?.report;
            junctions += r.total_junctions;
            rows.push(EdaFlowRow {
                design: r.design.clone(),
                logic_junctions: r.logic_junctions,
                total_junctions: r.total_junctions,
                phases: r.pipeline_depth,
                latency_ns: r.latency.ns(),
                energy_fj: r.energy_per_op.joules() * 1e15,
            });
        }
        Ok::<_, scd_eda::EdaError>((spec::render_eda_flow(&rows), rows.len()))
    })?;
    a.render("artifact.fig2", || {
        Ok::<_, String>((spec::fig2_datalink(), 1))
    })?;
    a.render("artifact.fig3", || {
        Ok::<_, String>((spec::fig3_blade_specs(), 1))
    })?;
    let (noc_s, noc_points) = a.render("noc.validate", || {
        let p = validate_all_reduce(&torus, noc, &sizes)?;
        Ok::<_, scd_noc::NocError>((validation::render_validation(&p), p.len()))
    })?;
    let training: [(&str, Sweep); 2] = [
        ("training.fig5", || {
            tr::fig5_sweep().map(|p| (tr::render_fig5(&p), p.len()))
        }),
        ("training.fig6", || {
            tr::fig6_rows().map(|p| (tr::render_fig6(&p), p.len()))
        }),
    ];
    let (training_s, training_points) = a.render_all(&training)?;
    let inference: [(&str, Sweep); 5] = [
        ("inference.fig7", || {
            inf::fig7_sweep().map(|p| (inf::render_fig7(&p), p.len()))
        }),
        ("inference.fig7a", || {
            inf::fig7a_sweep().map(|p| (inf::render_fig7a(&p), p.len()))
        }),
        ("inference.fig7b", || {
            inf::fig7b_sweep().map(|p| (inf::render_fig7b(&p), p.len()))
        }),
        ("inference.fig8a", || {
            inf::fig8a_rows().map(|p| (inf::render_fig8a(&p), p.len()))
        }),
        ("inference.fig8b", || {
            inf::fig8b_sweep().map(|p| (inf::render_fig8b(&p), p.len()))
        }),
    ];
    let (inference_s, inference_points) = a.render_all(&inference)?;
    a.render("artifact.l2_kv_study", || {
        l2_study::l2_kv_study().map(|r| (l2_study::render_l2_study(&r), r.len()))
    })?;
    a.render("artifact.adder_ablation", || {
        ext::adder_ablation().map(|r| (ext::render_adder_ablation(&r), r.len()))
    })?;
    a.render("artifact.window_ablation", || {
        ext::window_ablation().map(|r| (ext::render_window_ablation(&r), r.len()))
    })?;
    a.render("artifact.fabric_ablation", || {
        ext::fabric_ablation().map(|r| (ext::render_fabric_ablation(&r), r.len()))
    })?;
    let Artifacts { text, count, .. } = a;
    let replay_s = spans.close(artifacts);
    spans.close(pass);
    Ok(Pass {
        ops: count,
        setup_s,
        replay_s,
        wall_s: setup_s + replay_s,
        digest: check::text_digest(&text),
        check: if count == ARTIFACTS {
            Ok(())
        } else {
            Err(format!("rendered {count} artifacts, expected {ARTIFACTS}"))
        },
        layers: vec![
            ("eda.compile_s", eda_s),
            ("eda.junctions", junctions as f64),
            ("noc.validate_s", noc_s),
            ("noc.points", noc_points),
            ("training.estimate_s", training_s),
            ("training.points", training_points),
            ("inference.estimate_s", inference_s),
            ("inference.points", inference_points),
        ],
    })
}
