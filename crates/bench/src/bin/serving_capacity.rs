//! Serving studies: static capacity under per-token QoS budgets, the
//! scenario-driven dynamic-traffic views (frontier sweep, SCD-vs-GPU
//! trace replay), and the cluster-scale extensions (routing-policy study
//! across 4 blades, paged-KV fragmentation sweep, disaggregated
//! prefill/decode split, recorded-trace replay, cluster-cache
//! coordination, SLO-class goodput).
//!
//! With `--telemetry-csv <path>` it additionally runs the telemetry
//! study and dumps its windowed diurnal series (cluster gauges,
//! counters and per-window tail sketches) as wide-row CSV to `<path>`
//! — the input for the plotting workflow in the README.
fn main() -> Result<(), optimus::OptimusError> {
    use scd_bench::{extensions as ext, serving_experiments as srv};
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--telemetry-csv") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("serving_capacity: --telemetry-csv needs a path argument");
            std::process::exit(2);
        });
        let study = srv::telemetry_study()?;
        print!("{}", srv::render_telemetry(&study));
        std::fs::write(&path, &study.csv).map_err(|e| optimus::OptimusError::Serving {
            reason: format!("writing {path}: {e}"),
        })?;
        println!("\nwrote {} windowed rows to {path}", study.windows.len());
        return Ok(());
    }
    let hr = "=".repeat(72);
    println!("{}\n{hr}", ext::render_serving(&ext::serving_capacity()?));
    println!(
        "{}\n{hr}",
        srv::render_serving_frontier(&srv::scd_serving_frontier()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_serving_comparison(&srv::scd_vs_gpu_serving()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_cluster_routing(&srv::cluster_routing_study()?)
    );
    println!("{}\n{hr}", srv::render_paged_kv(&srv::paged_kv_study()?));
    println!(
        "{}\n{hr}",
        srv::render_disaggregation(&srv::disaggregation_study()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_recorded_trace(&srv::recorded_trace_study()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_prefix_caching(&srv::prefix_caching_study()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_cluster_cache(&srv::cluster_cache_study()?)
    );
    println!(
        "{}\n{hr}",
        srv::render_slo_classes(&srv::slo_class_study()?)
    );
    print!(
        "{}",
        srv::render_control_plane(&srv::control_plane_study()?)
    );
    Ok(())
}
