//! Criterion bench: scenario-compiled serving replays — single blade,
//! the cluster loop at 1/4/16 blades, the disaggregated prefill→decode
//! loop and the prefix-cached shared-prompt replay. The replay core's
//! end-to-end and per-layer numbers come from `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use llm_workload::{ModelZoo, Parallelism};
use optimus::serving::{RoutingPolicy, Scenario, SharedPrefixTraceConfig, Topology, TraceConfig};
use optimus::{InferenceEstimator, MultiBladeSystem};
use scd_arch::Blade;
use scd_tech::units::Bandwidth;
use std::hint::black_box;

fn bench_serving(c: &mut Criterion) {
    let blade = Blade::baseline();
    let est = InferenceEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
        blade.interconnect(),
    );
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let compiled = Scenario::on_estimator(est)
        .model(&model)
        .parallelism(&par)
        .max_batch(32)
        .poisson(TraceConfig {
            seed: 1,
            requests: 32,
            arrival_rate_per_s: 16.0,
            prompt_tokens: (150, 250),
            output_tokens: (100, 200),
        })
        .compile()
        .unwrap();

    c.bench_function("serving/replay_parallel_table", |b| {
        b.iter(|| black_box(&compiled).run().unwrap())
    });
    c.bench_function("serving/replay_serial_table", |b| {
        b.iter(|| black_box(&compiled).run_serial().unwrap())
    });
}

fn bench_cluster(c: &mut Criterion) {
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 2,
        requests: 96,
        arrival_rate_per_s: 400.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 64),
    };
    for blades in [1u32, 4, 16] {
        let system = MultiBladeSystem::new(blades).unwrap();
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .unconstrained_kv()
            .routing(RoutingPolicy::JoinShortestQueue)
            .poisson(trace)
            .compile()
            .unwrap();
        c.bench_function(&format!("serving/cluster_replay_{blades}_blades"), |b| {
            b.iter(|| black_box(&compiled).run().unwrap())
        });
    }
    // The disaggregated loop at the same scale as the 4-blade cluster.
    let system = MultiBladeSystem::new(4).unwrap();
    let disagg = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .unconstrained_kv()
        .topology(Topology::disaggregated(1, 3))
        .poisson(trace)
        .compile()
        .unwrap();
    c.bench_function("serving/disaggregated_replay_1p3d", |b| {
        b.iter(|| black_box(&disagg).run().unwrap())
    });
}

fn bench_prefix_caching(c: &mut Criterion) {
    let blade = Blade::baseline();
    let est = InferenceEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
        blade.interconnect(),
    );
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = SharedPrefixTraceConfig {
        seed: 3,
        requests: 96,
        arrival_rate_per_s: 60.0,
        prefixes: 4,
        prefix_tokens: (256, 512),
        zipf_s: 1.0,
        share_fraction: 0.9,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 32),
    };
    for (name, caching) in [("off", false), ("on", true)] {
        let mut s = Scenario::on_estimator(est.clone())
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .unconstrained_kv()
            .trace(&trace);
        if caching {
            s = s.prefix_caching(16);
        }
        let compiled = s.compile().unwrap();
        c.bench_function(&format!("serving/prefix_cache_{name}"), |b| {
            b.iter(|| black_box(&compiled).run().unwrap())
        });
    }
}

criterion_group!(benches, bench_serving, bench_cluster, bench_prefix_caching);
criterion_main!(benches);
