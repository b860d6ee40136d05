//! Command-line entry point; see the library documentation.

use std::process::ExitCode;

use perfbench::calibrate::REFERENCE_S;
use perfbench::host;
use perfbench::run::{run, tail_summary, RunConfig};
use perfbench::workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <central_diurnal|prefix_routed|disagg_longctx|\
                     paper_repro> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--requests <n>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut requests) = (DEFAULT_SEED, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(&"must lie in [0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--requests" => {
                requests = Some(value.parse::<u32>().map_err(|e| bad(&e))?);
                if requests == Some(0) {
                    return Err(bad(&"must be at least 1"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        requests: requests.unwrap_or_else(|| workload.default_requests()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = cfg.workload;
    let mut provenance = host::provenance(w.name(), cfg.seed, w.params(cfg.seed, cfg.requests));
    println!("provenance {}", host::json_object(&provenance));

    let result = run(&cfg);

    let digest = result
        .digest
        .map_or_else(|| "none".to_owned(), |d| format!("{d:016x}"));
    let compared = if w.compares_golden(cfg.seed, cfg.requests) {
        format!("compared with committed {:016x}", w.golden_digest())
    } else {
        format!(
            "not compared (seed {}, {} requests)",
            cfg.seed, cfg.requests
        )
    };
    println!("digest {digest} {compared}; {} passes", result.passes);
    for failure in result.failures.iter().take(5) {
        eprintln!("perfbench: FAILED {failure}");
    }
    if result.failures.len() > 5 {
        eprintln!(
            "perfbench: ... {} failed passes in all",
            result.failures.len()
        );
    }
    println!(
        "calibration kernel {} s against the reference {REFERENCE_S} s; host wall_s median {} s",
        tail_summary(&result.calibration),
        result.host_wall_s
    );
    for (name, value, unit) in &result.metrics {
        match result.samples.iter().find(|(n, _)| n == name) {
            Some((_, v)) => println!("metric {name} = {value} {unit} ({})", tail_summary(v)),
            None => println!("metric {name} = {value} {unit}"),
        }
    }
    if cfg.trace {
        provenance.push(("digest", digest));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.json", w.name(), cfg.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, result.spans.chrome_json(&provenance)));
        match written {
            Ok(()) => println!("spans {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result.json());
    ExitCode::SUCCESS
}
