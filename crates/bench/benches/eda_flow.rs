//! Criterion bench: the Starling RTL→PCL flow.

use criterion::{criterion_group, criterion_main, Criterion};
use scd_eda::blocks;
use scd_eda::flow::StarlingFlow;
use scd_tech::Technology;
use std::hint::black_box;

fn bench_eda(c: &mut Criterion) {
    let flow = StarlingFlow::new(Technology::scd_nbtin());
    let adder = blocks::ripple_adder(8).expect("adder8");
    c.bench_function("eda/compile_adder8_verified", |b| {
        b.iter(|| flow.compile(black_box(&adder)))
    });
    // 16 inputs: the exhaustive equivalence check dominates this row.
    let mult = blocks::array_multiplier(8).expect("mult8");
    c.bench_function("eda/compile_mult8_verified", |b| {
        b.iter(|| flow.compile(black_box(&mult)))
    });
    let unverified = flow.clone().without_verification();
    let mac = blocks::bf16_mac().expect("mac");
    c.bench_function("eda/compile_bf16_mac", |b| {
        b.iter(|| unverified.compile(black_box(&mac)))
    });
}

criterion_group!(benches, bench_eda);
criterion_main!(benches);
