//! Each workload at reduced size, through the same entry point, code and
//! checks as the full benchmark (one worker included), untraced and
//! traced.

use tao_perfbench::{
    layer_metrics, run_workload, trace, Config, Limit, Run, Size, MIN_ATTRIBUTED_PCT, WORKLOADS,
};

fn config(seed: u64, steps: usize) -> Config {
    Config {
        seed,
        size: Size::Reduced,
        setups: 2,
        limit: Limit::Steps(steps),
    }
}

fn run(workload: &str, cfg: &Config) -> Result<Run, String> {
    let r = run_workload(workload, cfg);
    assert_eq!(std::env::var("TAO_WORKERS").as_deref(), Ok("1"));
    r
}

#[test]
fn every_workload_runs_its_steps_and_passes_its_checks() {
    for name in WORKLOADS {
        // Six steps: whole replay epochs (two rounds) and churn rounds
        // (three batches) at this size.
        let r = run(name, &config(11, 6)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r.step_s.len(), 6, "{name}");
        assert!(r.setup_s.len() >= 2, "{name}");
        assert!(
            r.ops > 0 && r.attempted >= r.ops,
            "{name}: {} of {}",
            r.ops,
            r.attempted
        );
        assert_eq!(r.failed, 0, "{name}");
        assert!(!r.digest.is_empty(), "{name}");
    }
}

#[test]
fn outputs_repeat_for_a_seed() {
    for name in WORKLOADS {
        let a = run(name, &config(5, 2)).unwrap();
        let b = run(name, &config(5, 2)).unwrap();
        assert_eq!(a.digest, b.digest, "{name}");
    }
}

#[test]
fn traced_runs_reproduce_untraced_outputs_and_attribute_the_steps() {
    for name in WORKLOADS {
        // Two units untraced, then one traced, as the command does.
        let untraced = run(name, &config(3, 6)).unwrap();
        let unit = untraced.unit_steps;
        assert!(unit >= 1 && untraced.step_s.len() == 6, "{name}");
        trace::start();
        let traced = run(name, &config(3, unit));
        let spans = trace::finish();
        let traced = traced.unwrap();
        assert_eq!(traced.digest, untraced.digest, "{name}");
        assert_eq!(traced.step_s.len(), unit, "{name}");
        let reference: f64 = untraced.step_s[..unit].iter().sum();
        let metrics = layer_metrics(&spans, &traced, reference);
        let attributed = metrics
            .iter()
            .find(|m| m.0 == "trace.attributed_pct")
            .unwrap()
            .2;
        assert!(
            attributed >= MIN_ATTRIBUTED_PCT,
            "{name}: only {attributed:.1} % of the steps in layer spans"
        );
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "{name}: metric names repeat");
    }
}
