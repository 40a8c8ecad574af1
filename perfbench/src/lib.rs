//! The tao benchmark: three single-threaded workloads that call the tao
//! crates' public items, check every output against the benchmark's own
//! computations, and report end-to-end metrics (untraced) or per-layer
//! metrics (traced). See `README.md` for the workloads, metrics and
//! reference figures.

pub mod check;
pub mod churn;
pub mod host;
pub mod replay;
pub mod stretch;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Once;
use std::time::Instant;

/// Input size: the full benchmark, or the reduced version its tests run
/// through the same code and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

/// When a workload stops stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Step until the summed step time reaches this many seconds; the
    /// last step always runs to its end.
    Seconds(f64),
    /// Exactly this many steps (the traced run repeats the untraced run's
    /// step count).
    Steps(usize),
}

/// One workload invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub size: Size,
    /// How many times set-up runs; the median is reported and the last
    /// state is used.
    pub setups: usize,
    pub limit: Limit,
}

/// What a workload run hands back.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed step, seconds (checks excluded).
    pub step_s: Vec<f64>,
    /// Steps in one unit of repeated work (a build, a churn round, a
    /// replay epoch). Every unit does the same work and gives the same
    /// outputs, and a run times whole units; the traced run repeats one.
    pub unit_steps: usize,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Operations attempted and failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    /// Admission-control sheds (replay only): neither operations nor
    /// failures.
    pub shed: u64,
    /// Outputs a traced run must reproduce exactly, by name.
    pub digest: Vec<(&'static str, String)>,
    /// Per-layer values the workload measured itself (counts, sizes).
    pub counters: BTreeMap<&'static str, f64>,
    /// Extra lines for the run record.
    pub notes: Vec<String>,
}

impl Run {
    pub fn timed_s(&self) -> f64 {
        self.step_s.iter().sum()
    }
}

/// The workloads, by the names the command takes.
pub const WORKLOADS: [&str; 3] = ["stretch_build", "replay", "churn"];

/// Sets `TAO_WORKERS=1` for the rest of the process, whatever the
/// environment said: `run_batch` and `par_map` read that variable
/// themselves, and a second worker on a small host only adds contention
/// noise. Later calls do nothing.
pub fn force_one_worker() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("TAO_WORKERS", "1"));
}

/// Runs one workload at one worker: the entry point the command and the
/// benchmark's tests share.
pub fn run_workload(workload: &str, cfg: &Config) -> Result<Run, String> {
    force_one_worker();
    match workload {
        "stretch_build" => stretch::run(cfg),
        "replay" => replay::run(cfg),
        "churn" => churn::run(cfg),
        other => Err(format!(
            "unknown workload {other}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Runs `build` `n` times (dropping each result before the next build so
/// peak memory holds one state), returning the last state and each build's
/// wall time.
pub fn repeated_setup<T>(n: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let state = trace::span("bench.setup", &mut build);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(state);
    }
    (kept.expect("at least one set-up ran"), times)
}

/// Times steps against a [`Limit`].
#[derive(Debug)]
pub struct Stepper {
    limit: Limit,
    pub times: Vec<f64>,
    elapsed: f64,
}

impl Stepper {
    pub fn new(limit: Limit) -> Stepper {
        Stepper {
            limit,
            times: Vec::new(),
            elapsed: 0.0,
        }
    }

    /// Whether another step is due.
    pub fn more(&self) -> bool {
        match self.limit {
            Limit::Seconds(s) => self.elapsed < s,
            Limit::Steps(n) => self.times.len() < n,
        }
    }

    /// Runs one timed step.
    pub fn step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = trace::span("bench.step", f);
        let dt = t0.elapsed().as_secs_f64();
        self.times.push(dt);
        self.elapsed += dt;
        out
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile (of 50, 75, 90, 95, 99, 99.9) that leaves at
/// least ten samples beyond it, with its value; `None` below forty
/// samples, where a tail percentile would say nothing.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 40 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| values.len() as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
        .map(|p| (p, quantile(values, p / 100.0)))
}

/// SplitMix-style mixer deriving independent sub-seeds from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The least share of a traced run's timed steps that must land in named
/// layer spans by self time.
pub const MIN_ATTRIBUTED_PCT: f64 = 90.0;

/// The layers the traced run attributes time to.
pub const LAYERS: [&str; 6] = [
    "topology",
    "landmark",
    "overlay",
    "softstate",
    "core",
    "sim",
];

/// Per-layer metrics of a traced run, every name in a fixed order. A
/// metric whose call this workload never makes reads 0.
///
/// `reference_timed_s` is the untraced run's timed phase over the same
/// steps, for the tracing overhead.
pub fn layer_metrics(spans: &[trace::Span], run: &Run, reference_timed_s: f64) -> Vec<Metric> {
    use trace::{descendants, stats_by_name, stats_of};
    let st = stats_by_name(spans);
    let mean = |name: &str, per_ns: f64| {
        let s = stats_of(&st, name);
        if s.calls == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.calls as f64 / per_ns
        }
    };
    let self_mean = |name: &str, per_ns: f64| {
        let s = stats_of(&st, name);
        if s.calls == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.calls as f64 / per_ns
        }
    };
    let steps = run.step_s.len().max(1) as f64;
    let per_step = |name: &str, self_only: bool| {
        let s = stats_of(&st, name);
        (if self_only { s.self_ns } else { s.total_ns }) as f64 / steps / 1e6
    };
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0.0);

    // Self time inside the timed steps, by layer.
    let step_ids: Vec<u32> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "bench.step")
        .map(|(i, _)| i as u32)
        .collect();
    let inside = descendants(spans, &step_ids);
    // The steps' time is the sum of the self times inside them: their
    // durations without the stand-in calls the program never makes.
    let mut step_ns = 0u64;
    let mut layer_self = [0u64; LAYERS.len()];
    for ((s, own), &inside) in spans.iter().zip(trace::self_ns(spans)).zip(&inside) {
        if !inside {
            continue;
        }
        step_ns += own;
        if let Some(l) = LAYERS.iter().position(|&l| l == s.layer()) {
            layer_self[l] += own;
        }
    }
    let share = |ns: u64| {
        if step_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / step_ns as f64
        }
    };
    let traced_s = run.timed_s();
    let overhead = if reference_timed_s > 0.0 {
        100.0 * (traced_s / reference_timed_s - 1.0)
    } else {
        0.0
    };

    let mut m: Vec<Metric> = vec![
        ("topology.generate_ms", "ms", mean("topology.generate", 1e6)),
        ("topology.sssp_us", "us", mean("topology.sssp", 1e3)),
        (
            "topology.rtt_probes",
            "count",
            counter("topology.rtt_probes"),
        ),
        (
            "topology.latency_rows_ms",
            "ms",
            mean("topology.latency_rows", 1e6),
        ),
        ("landmark.vector_us", "us", mean("landmark.vector", 1e3)),
        ("landmark.number_us", "us", mean("landmark.number", 1e3)),
        ("overlay.can_join_us", "us", mean("overlay.can_join", 1e3)),
        (
            "overlay.ecan_build_ms",
            "ms",
            mean("overlay.ecan_build", 1e6),
        ),
        ("overlay.route_ns", "ns", mean("overlay.route", 1.0)),
        (
            "overlay.hops_per_route",
            "hops",
            counter("overlay.hops_per_route"),
        ),
        ("overlay.owner_ns", "ns", mean("overlay.owner", 1.0)),
        (
            "overlay.reselect_us",
            "us",
            mean("overlay.reselect_node", 1e3),
        ),
        ("overlay.id_bound", "count", counter("overlay.id_bound")),
        ("softstate.lookup_us", "us", mean("softstate.lookup", 1e3)),
        ("softstate.publish_us", "us", mean("softstate.publish", 1e3)),
        ("softstate.entries", "count", counter("softstate.entries")),
        ("core.select_us", "us", self_mean("core.select", 1e3)),
        ("core.select_calls", "count", counter("core.select_calls")),
        ("core.fallbacks", "count", counter("core.fallbacks")),
        ("core.stretch_ms", "ms", mean("core.stretch", 1e6)),
        (
            "core.load_round_ms",
            "ms",
            per_step("core.load_round", false),
        ),
        ("core.prepare_us", "us", mean("core.prepare", 1e3)),
        ("core.commit_join_us", "us", mean("core.commit_join", 1e3)),
        (
            "core.commit_depart_us",
            "us",
            mean("core.commit_depart", 1e3),
        ),
        (
            "sim.executor_overhead_ms",
            "ms",
            per_step("sim.run_churn_batch", true),
        ),
    ];
    const SELF_NAMES: [&str; LAYERS.len()] = [
        "topology.self_pct",
        "landmark.self_pct",
        "overlay.self_pct",
        "softstate.self_pct",
        "core.self_pct",
        "sim.self_pct",
    ];
    for (name, &ns) in SELF_NAMES.iter().zip(&layer_self) {
        m.push((name, "%", share(ns)));
    }
    m.push(("trace.attributed_pct", "%", share(layer_self.iter().sum())));
    m.push(("trace.overhead_pct", "%", overhead));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(tail_percentile(&[1.0; 39]), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred).map(|t| t.0), Some(90.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn step_limits() {
        let mut s = Stepper::new(Limit::Steps(2));
        while s.more() {
            s.step(|| ());
        }
        assert_eq!(s.times.len(), 2);
        let mut s = Stepper::new(Limit::Seconds(0.0));
        assert!(!s.more());
        s.step(|| ());
    }
}
