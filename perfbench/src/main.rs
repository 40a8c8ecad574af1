//! The benchmark command:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stretch_build|replay|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a run record, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! output check ends the run with exit code 1 and no JSON line.

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use tao_perfbench::{
    force_one_worker, host, layer_metrics, median, run_workload, tail_percentile, trace, Config,
    Limit, Metric, Run, Size, MIN_ATTRIBUTED_PCT, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up repetitions before the first step: enough for a steady median
/// (a replay set-up alone moved between 0.94 and 1.46 s within one
/// process), few enough that set-up stays short next to the timed phase.
/// `stretch_build` and `churn` add one more per step and per round.
const SETUPS: usize = 5;

/// The result line; it is printed only when every check passed.
fn json(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn print_record(workload: &str, run: &Run, label: &str) {
    let steps_ms: Vec<f64> = run.step_s.iter().map(|s| s * 1e3).collect();
    println!(
        "{label}: {} steps timed over {:.3} s; set-up runs (s): {:?}",
        steps_ms.len(),
        run.timed_s(),
        run.setup_s
    );
    println!("{label}: each step (ms) {steps_ms:.1?}");
    match tail_percentile(&steps_ms) {
        Some((p, v)) => println!(
            "{label}: step ms p50 {:.3}, p{p} {v:.3} (n = {})",
            median(&steps_ms),
            steps_ms.len()
        ),
        None => println!(
            "{label}: step ms p50 {:.3} (n = {}; too few steps for a tail percentile)",
            median(&steps_ms),
            steps_ms.len()
        ),
    }
    println!(
        "{label}: {workload} operations attempted {} failed {}",
        run.attempted, run.failed
    );
    if workload == "replay" {
        println!(
            "{label}: shed by admission control {} (not operations, not failures)",
            run.shed
        );
    }
    for note in &run.notes {
        println!("{label}: {note}");
    }
    let digest: Vec<String> = run.digest.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{label}: outputs {}", digest.join(" "));
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let rss = host::peak_rss_mb().ok_or("peak resident memory is not available on this host")?;
    let timed = run.timed_s();
    if timed <= 0.0 || run.ops == 0 {
        return Err("the timed phase completed no operations".into());
    }
    let steps_ms: Vec<f64> = run.step_s.iter().map(|s| s * 1e3).collect();
    Ok(vec![
        ("setup_s", "s", median(&run.setup_s)),
        ("ops_per_s", "1/s", run.ops as f64 / timed),
        ("step_ms_p50", "ms", median(&steps_ms)),
        ("peak_rss_mb", "MB", rss),
    ])
}

fn write_spans(workload: &str, spans: &[trace::Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}.txt"));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    trace::write_spans(spans, &mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

fn main_inner(args: &Args) -> Result<String, String> {
    let inherited = std::env::var("TAO_WORKERS").unwrap_or_else(|_| "unset".into());
    // One worker, whatever the environment says; set before anything
    // reads it, while the process has no other threads.
    force_one_worker();
    println!(
        "host: nproc {} | cpu {} | {}",
        host::nproc(),
        host::cpu_model(),
        host::rustc_version()
    );
    println!(
        "run: workload {} seed {} seconds {} trace {} | workers forced to 1 (TAO_WORKERS was {inherited})",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );
    let untraced = Config {
        seed: args.seed,
        size: Size::Full,
        setups: if args.trace { 1 } else { SETUPS },
        limit: Limit::Seconds(args.seconds),
    };
    let ticks = host::cpu_ticks();
    let run = run_workload(&args.workload, &untraced)?;
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, host::cpu_ticks()) {
        let share = 100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        println!("host: {share:.1} % of CPU time stolen by the hypervisor during the run");
    }
    print_record(&args.workload, &run, "untraced");
    if !args.trace {
        return Ok(json(&run, &end_to_end(&run)?));
    }

    // The traced run: the first unit of steps again, every layer call in
    // a span. One unit gives the same outputs as any other, and keeps the
    // spans of a traced replay (two per request) to a few million.
    let unit = run.unit_steps.clamp(1, run.step_s.len());
    let traced_cfg = Config {
        setups: 1,
        limit: Limit::Steps(unit),
        ..untraced
    };
    trace::start();
    let traced = run_workload(&args.workload, &traced_cfg);
    let spans = trace::finish();
    let traced = traced?;
    print_record(&args.workload, &traced, "traced");
    if traced.digest != run.digest {
        return Err(format!(
            "the traced run's outputs differ from the untraced run's: {:?} vs {:?}",
            traced.digest, run.digest
        ));
    }
    let metrics = layer_metrics(&spans, &traced, run.step_s[..unit].iter().sum());
    match write_spans(&args.workload, &spans) {
        Ok(path) => println!(
            "traced: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => return Err(format!("writing spans: {e}")),
    }
    for (name, unit, value) in &metrics {
        println!("traced: {name} = {value:.4} {unit}");
    }
    let attributed = metrics
        .iter()
        .find(|m| m.0 == "trace.attributed_pct")
        .map_or(0.0, |m| m.2);
    if attributed < MIN_ATTRIBUTED_PCT {
        return Err(format!(
            "the traced run attributes {attributed:.1} % of the timed steps to layer spans, \
             below {MIN_ATTRIBUTED_PCT} %"
        ));
    }
    Ok(json(&traced, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match main_inner(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
