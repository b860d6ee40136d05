//! Output checks: invariants every serving pass must satisfy, and a
//! digest of the full report so a run at the default seed can be
//! compared bit for bit with the value committed in
//! [`crate::workloads::Workload::golden_digest`].

use optimus::serving::{
    BladeLoad, BladeRole, ClusterReport, Percentiles, ServingReport, SloClassReport,
};

/// 64-bit FNV-1a over a canonical byte stream of the digested fields.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn percentiles(&mut self, p: &Percentiles) {
        let Percentiles { p50, p95, p99 } = *p;
        for v in [p50, p95, p99] {
            self.f64(v);
        }
    }
}

/// Digest of every simulated field of `report`, `f64`s taken by their
/// bits. [`ClusterReport::stretch`] is left out: it describes how the
/// event core reached the result, not the result. The structs are
/// destructured exhaustively, so a field added to the report fails to
/// compile here until the digest covers it.
#[must_use]
pub fn report_digest(report: &ClusterReport) -> u64 {
    let ClusterReport {
        blades,
        report,
        per_blade,
        utilization_skew,
        cache_residency_skew,
        scale_events,
        peak_blades,
        stretch: _,
    } = report;
    let mut h = Fnv::new();
    h.u32(*blades);
    serving_digest(&mut h, report);
    h.u64(per_blade.len() as u64);
    for b in per_blade {
        blade_digest(&mut h, b);
    }
    h.f64(*utilization_skew);
    h.f64(*cache_residency_skew);
    h.u32(*scale_events);
    h.u32(*peak_blades);
    h.0
}

fn serving_digest(h: &mut Fnv, r: &ServingReport) {
    let ServingReport {
        requests,
        completed,
        shed_requests,
        evictions,
        wasted_tokens,
        makespan_s,
        throughput_tok_s,
        goodput_tok_s,
        slo_attainment,
        mean_batch,
        decode_time_s,
        decode_iterations,
        max_step_s,
        kv_peak_bytes,
        kv_fragmentation_peak_bytes,
        prefix_hits,
        prefix_misses,
        prefix_tokens_saved,
        prefix_cow_copies,
        prefix_cache_evictions,
        kv_shared_peak_bytes,
        remote_prefix_hits,
        remote_prefix_streams,
        remote_prefix_recomputes,
        remote_kv_streamed_bytes,
        ttft,
        tpot,
        latency,
        per_class,
    } = r;
    h.u32(*requests);
    h.u32(*completed);
    h.u64(*shed_requests);
    h.u32(*evictions);
    h.u64(*wasted_tokens);
    for v in [
        *makespan_s,
        *throughput_tok_s,
        *goodput_tok_s,
        *slo_attainment,
        *mean_batch,
        *decode_time_s,
    ] {
        h.f64(v);
    }
    h.u64(*decode_iterations);
    for v in [*max_step_s, *kv_peak_bytes, *kv_fragmentation_peak_bytes] {
        h.f64(v);
    }
    for v in [
        *prefix_hits,
        *prefix_misses,
        *prefix_tokens_saved,
        *prefix_cow_copies,
        *prefix_cache_evictions,
    ] {
        h.u64(v);
    }
    h.f64(*kv_shared_peak_bytes);
    for v in [
        *remote_prefix_hits,
        *remote_prefix_streams,
        *remote_prefix_recomputes,
    ] {
        h.u64(v);
    }
    h.f64(*remote_kv_streamed_bytes);
    h.percentiles(ttft);
    h.percentiles(tpot);
    h.percentiles(latency);
    h.u64(per_class.len() as u64);
    for c in per_class {
        let SloClassReport {
            name,
            weight,
            requests,
            shed,
            goodput_tok_s,
            slo_attainment,
            prefix_tokens_saved,
            ttft,
            tpot,
        } = c;
        h.str(name);
        h.f64(*weight);
        h.u32(*requests);
        h.u64(*shed);
        h.f64(*goodput_tok_s);
        h.f64(*slo_attainment);
        h.u64(*prefix_tokens_saved);
        h.percentiles(ttft);
        h.percentiles(tpot);
    }
}

fn blade_digest(h: &mut Fnv, b: &BladeLoad) {
    let BladeLoad {
        blade,
        role,
        requests,
        busy_s,
        utilization,
        mean_batch,
        evictions,
        prefix_hits,
        remote_hits,
        shared_kv_peak_bytes,
    } = b;
    h.u32(*blade);
    h.u32(match role {
        BladeRole::Prefill => 0,
        BladeRole::Decode => 1,
        BladeRole::Mixed => 2,
    });
    h.u32(*requests);
    h.f64(*busy_s);
    h.f64(*utilization);
    h.f64(*mean_batch);
    h.u32(*evictions);
    h.u64(*prefix_hits);
    h.u64(*remote_hits);
    h.f64(*shared_kv_peak_bytes);
}

/// Digest of rendered artifact text.
#[must_use]
pub fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(text);
    h.0
}

/// Invariants every serving pass must hold: every request accounted
/// for, none shed (no workload mounts a control plane), per-blade
/// completions summing to the total, and ordered percentiles.
///
/// # Errors
///
/// Describes the first invariant that fails.
pub fn invariants(report: &ClusterReport) -> Result<(), String> {
    let r = &report.report;
    if u64::from(r.completed) + r.shed_requests != u64::from(r.requests) {
        return Err(format!(
            "completed {} + shed {} != requests {}",
            r.completed, r.shed_requests, r.requests
        ));
    }
    if r.shed_requests != 0 {
        return Err(format!(
            "{} requests shed without a control plane",
            r.shed_requests
        ));
    }
    let per_blade: u64 = report.per_blade.iter().map(|b| u64::from(b.requests)).sum();
    if per_blade != u64::from(r.completed) {
        return Err(format!(
            "per-blade requests sum to {per_blade}, completed is {}",
            r.completed
        ));
    }
    for (name, p) in [("ttft", r.ttft), ("tpot", r.tpot), ("latency", r.latency)] {
        if p.p50.is_nan() || p.p99.is_nan() || p.p50 > p.p99 {
            return Err(format!("{name} p50 {} > p99 {}", p.p50, p.p99));
        }
    }
    Ok(())
}
