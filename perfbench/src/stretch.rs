//! `stretch_build`: one point of the paper's Figs. 10–16. Each step builds
//! the topology-aware overlay with the Table-2 defaults on one fixed
//! tsk-large topology and measures routing stretch over 2N routes. Every
//! step uses the same seed, so every step does the same work and must give
//! the same outputs.
//!
//! Untraced steps call `TaoBuilder::build_on` and
//! `measure_routing_stretch`. The traced run makes the same public calls
//! in the same order from this file, each inside a span, and wraps the
//! `GlobalStateSelector` in a timing selector; it must reproduce the
//! untraced outputs exactly.
//!
//! Two traced calls are not in `build_on`. The selector's RTT probes run
//! Dijkstra from the participants' routers inside the oracle's cache,
//! where no span can reach, so the traced build computes each
//! participant router's distance row first, in a `topology.sssp` span; the
//! probes then read the cached rows, whose values are the same, and the
//! row computations are charged to topology rather than to the selector.
//! And the selector's soft-state lookup is timed on an identical stand-in
//! call made just before it (see `trace`).

use std::collections::BTreeMap;
use std::time::Instant;

use tao_core::{
    ExperimentParams, GlobalStateSelector, SelectionStrategy, StretchSummary, TaoBuilder,
};
use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
use tao_overlay::ecan::{BoxSelection, EcanOverlay, NeighborSelector, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::{GlobalState, NodeInfo, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{
    generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle, Topology, TransitStubParams,
};
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::check::{check_distances, dijkstra_us, Cell};
use crate::trace::{self, span};
use crate::{repeated_setup, sub_seed, Config, Run, Size, Stepper};

struct Spec {
    topology: TransitStubParams,
    params: ExperimentParams,
}

fn spec(size: Size) -> Spec {
    match size {
        // Table 2: 1,024 nodes, 15 landmarks, RTT budget 10, condense rate
        // 0.25, global-soft-state selection, on the 10,016-router
        // tsk-large topology.
        Size::Full => Spec {
            topology: TransitStubParams::tsk_large(),
            params: ExperimentParams::default(),
        },
        Size::Reduced => Spec {
            topology: TransitStubParams::tsk_large_mini(),
            params: ExperimentParams {
                overlay_nodes: 128,
                landmarks: 5,
                ..ExperimentParams::default()
            },
        },
    }
}

/// What one build leaves for the checks.
struct Built<'a> {
    ecan: &'a EcanOverlay,
    oracle: &'a RttOracle,
    landmarks: &'a [NodeIdx],
    vectors: Vec<(NodeIdx, &'a LandmarkVector)>,
    stretch: &'a StretchSummary,
}

impl Built<'_> {
    /// Outputs every build must reproduce.
    fn digest(&self) -> Vec<(&'static str, String)> {
        let mut entries = 0u64;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for id in self.ecan.can().live_nodes() {
            for e in self.ecan.high_order_entries(id) {
                entries += 1;
                for v in [u64::from(id.0), u64::from(e.representative.0)] {
                    h = (h ^ v).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        vec![
            ("stretch_mean", format!("{:.15}", self.stretch.mean())),
            ("stretch_samples", self.stretch.count().to_string()),
            ("rtt_probes", self.oracle.measurements().to_string()),
            ("expressway_entries", entries.to_string()),
            ("representatives_fnv", format!("{h:#018x}")),
        ]
    }
}

/// Checks one build against the benchmark's own Dijkstra and the
/// properties the method must have.
fn check_build(b: &Built, params: &ExperimentParams, routes: usize) -> Result<(), String> {
    let graph = b.oracle.graph();
    // Landmark vectors against Dijkstra from each landmark; the same rows
    // check the oracle's ground truth on sampled router pairs.
    let sample: Vec<NodeIdx> = (0..64)
        .map(|i| NodeIdx(((i * 7_919) % graph.node_count()) as u32))
        .collect();
    for (li, &lm) in b.landmarks.iter().enumerate() {
        let dist = dijkstra_us(graph, lm);
        check_distances("RttOracle::ground_truth", &dist, &sample, |t| {
            b.oracle.ground_truth(lm, t).as_micros()
        })?;
        for &(router, vector) in &b.vectors {
            let got = vector.rtt(li).as_micros();
            if got != dist[router.index()] {
                return Err(format!(
                    "landmark vector of router {} has {got} us to landmark {}, Dijkstra says {} us",
                    router.0,
                    lm.0,
                    dist[router.index()]
                ));
            }
        }
    }
    if b.vectors.len() != params.overlay_nodes {
        return Err(format!(
            "{} nodes published vectors, {} expected",
            b.vectors.len(),
            params.overlay_nodes
        ));
    }
    if b.stretch.count() < routes / 2 {
        return Err(format!(
            "only {} of {routes} stretch routes were usable",
            b.stretch.count()
        ));
    }
    if b.stretch.min() < 1.0 - 1e-9 {
        return Err(format!("a stretch sample is {} < 1", b.stretch.min()));
    }
    // Selector probes (all probes minus one per node and landmark for the
    // vectors) stay within budget × selector calls; each expressway entry
    // is one selector call.
    let mut entries = 0u64;
    let can = b.ecan.can();
    for id in can.live_nodes() {
        for e in b.ecan.high_order_entries(id) {
            entries += 1;
            let rep = e.representative;
            if !can.is_live(rep) {
                return Err(format!("node {id} has departed representative {rep}"));
            }
            let target = Cell::of(&e.target_box);
            let zones = can.zones(rep).map_err(|err| err.to_string())?;
            if !zones.iter().any(|z| Cell::of(z).overlaps(&target)) {
                return Err(format!(
                    "representative {rep} of node {id} lies outside its target box"
                ));
            }
        }
    }
    let vector_probes = (params.overlay_nodes * params.landmarks) as u64;
    let selector_probes = b.oracle.measurements().saturating_sub(vector_probes);
    if selector_probes > params.rtt_budget as u64 * entries {
        return Err(format!(
            "{selector_probes} selector probes exceed budget {} x {entries} selector calls",
            params.rtt_budget
        ));
    }
    Ok(())
}

/// A `NeighborSelector` that times each call of the wrapped selector, and
/// times the soft-state lookup the selector is about to make by making
/// the same call once more, just before it, in a stand-in span.
struct TimingSelector<'a> {
    inner: GlobalStateSelector<'a>,
    state: &'a GlobalState,
    infos: &'a DetMap<OverlayNodeId, NodeInfo>,
    budget: usize,
    calls: u64,
}

impl NeighborSelector for TimingSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        self.calls += 1;
        span("core.select", || {
            if let Some(query) = self.infos.get(&for_node) {
                trace::stand_in("softstate.lookup", || {
                    std::hint::black_box(self.state.lookup_in_hosted(
                        target_box,
                        query,
                        self.budget,
                        can,
                        SimTime::ORIGIN,
                    ))
                });
            }
            self.inner.select(for_node, target_box, candidates, can)
        })
    }

    fn select_in_box(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
    ) -> BoxSelection {
        self.inner.select_in_box(for_node, target_box, can)
    }
}

/// The benchmark's copy of the builder's private grid-ceiling rule: twice
/// the largest landmark-to-landmark distance.
fn landmark_space_ceiling(oracle: &RttOracle, landmarks: &[NodeIdx]) -> SimDuration {
    let mut max = SimDuration::from_millis(1);
    for (i, &a) in landmarks.iter().enumerate() {
        for &b in &landmarks[i + 1..] {
            max = max.max(oracle.ground_truth(a, b));
        }
    }
    max * 2
}

/// Everything a traced build produces.
struct TracedBuild {
    oracle: RttOracle,
    landmarks: Vec<NodeIdx>,
    infos: DetMap<OverlayNodeId, NodeInfo>,
    ecan: EcanOverlay,
    stretch: StretchSummary,
    select_calls: u64,
    selector_probes: u64,
    fallbacks: u64,
    soft_entries: usize,
}

/// `TaoBuilder::build_on` (global-state selection) followed by
/// `measure_routing_stretch`, as the same public calls in the same order,
/// each inside a span.
fn traced_build(
    params: &ExperimentParams,
    seed: u64,
    stretch_seed: u64,
    routes: usize,
    topology: Topology,
) -> TracedBuild {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x7a0));
    let oracle = span("topology.oracle_new", || {
        RttOracle::new(topology.graph().clone())
    });
    let landmarks = span("topology.select_landmarks", || {
        select_landmarks(
            topology.graph(),
            params.landmarks,
            LandmarkStrategy::Random,
            &mut rng,
        )
    });
    span("topology.warm", || oracle.warm(&landmarks));
    let participants = span("topology.sample_nodes", || {
        topology.sample_nodes(params.overlay_nodes, &mut rng)
    });
    let mut can = CanOverlay::new(params.dims).expect("valid dims");
    for &router in &participants {
        let point = Point::random(params.dims, &mut rng);
        span("overlay.can_join", || can.join(router, point));
    }
    let ceiling = span("topology.landmark_ceiling", || {
        landmark_space_ceiling(&oracle, &landmarks)
    });
    let grid = LandmarkGrid::new(params.landmark_vector_index, params.grid_bits, ceiling)
        .expect("valid grid");
    let config = SoftStateConfig::builder(grid)
        .curve(SpaceFillingCurve::Hilbert)
        .condense_rate(params.condense_rate)
        .build();
    let mut infos = DetMap::new();
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    for id in live {
        let underlay = can.underlay(id);
        let vector = span("landmark.vector", || {
            LandmarkVector::measure(underlay, &landmarks, &oracle)
        });
        let number = span("landmark.number", || {
            config.grid().landmark_number(&vector, config.curve())
        });
        infos.insert(
            id,
            NodeInfo {
                node: id,
                underlay,
                vector,
                number,
                load: None,
            },
        );
    }
    let mut ecan = span("overlay.ecan_build", || {
        EcanOverlay::build(can, &mut RandomSelector::new(seed))
    });
    let mut state = GlobalState::new(config);
    for info in infos.values() {
        span("softstate.publish", || {
            state.publish(info.clone(), &ecan, SimTime::ORIGIN)
        });
    }
    // The participants' distance rows, which the selector's probes would
    // otherwise compute inside the cache. Ground truth charges no probe,
    // and the 1,039 rows a full build holds fit the cache's 8,192, so
    // nothing is flushed and every output stays the same.
    let mut routers: Vec<NodeIdx> = infos.values().map(|i| i.underlay).collect();
    routers.sort_unstable();
    routers.dedup();
    for router in routers {
        span("topology.sssp", || oracle.ground_truth_all(router));
    }
    let (select_calls, selector_probes, fallbacks) = {
        let mut sel = TimingSelector {
            inner: GlobalStateSelector::new(
                &state,
                &oracle,
                &infos,
                params.rtt_budget,
                SimTime::ORIGIN,
                seed.wrapping_add(0x5e1),
            ),
            state: &state,
            infos: &infos,
            budget: params.rtt_budget,
            calls: 0,
        };
        span("overlay.reselect", || ecan.reselect(&mut sel));
        (sel.calls, sel.inner.probes_spent(), sel.inner.fallbacks())
    };
    let stretch = span("core.stretch", || {
        traced_stretch(&ecan, &oracle, params.dims, routes, stretch_seed)
    });
    let soft_entries = state.total_entries();
    TracedBuild {
        oracle,
        landmarks,
        infos,
        ecan,
        stretch,
        select_calls,
        selector_probes,
        fallbacks,
        soft_entries,
    }
}

/// `TopologyAwareOverlay::measure_routing_stretch`, call for call.
fn traced_stretch(
    ecan: &EcanOverlay,
    oracle: &RttOracle,
    dims: usize,
    routes: usize,
    seed: u64,
) -> StretchSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
    let mut summary = StretchSummary::new();
    for _ in 0..routes {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(dims, &mut rng);
        let Ok(route) = span("overlay.route", || ecan.route_express(src, &target)) else {
            continue;
        };
        if route.hop_count() == 0 {
            continue;
        }
        let can = ecan.can();
        let dst = *route.hops.last().expect("routes are non-empty");
        let (direct, path) = span("topology.ground_truth", || {
            let direct = oracle.ground_truth(can.underlay(src), can.underlay(dst));
            let mut path = SimDuration::ZERO;
            for w in route.hops.windows(2) {
                path += oracle.ground_truth(can.underlay(w[0]), can.underlay(w[1]));
            }
            (direct, path)
        });
        if direct.is_zero() {
            continue;
        }
        summary.add(path / direct);
    }
    summary
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let spec = spec(cfg.size);
    let params = spec.params;
    let (topo_seed, build_seed, stretch_seed) = (
        sub_seed(cfg.seed, 1),
        sub_seed(cfg.seed, 2),
        sub_seed(cfg.seed, 3),
    );
    let routes = 2 * params.overlay_nodes;
    let generate = || {
        span("topology.generate", || {
            generate_transit_stub(&spec.topology, LatencyAssignment::manual(), topo_seed)
        })
    };
    let (topology, setup_s) = repeated_setup(cfg.setups, generate);
    let mut builder = TaoBuilder::new();
    builder.params(params).seed(build_seed);

    let traced = trace::enabled();
    let mut run = Run {
        setup_s,
        unit_steps: 1,
        ..Run::default()
    };
    let mut reference: Option<Vec<(&'static str, String)>> = None;
    let mut gs_mean = 0.0;
    let mut stepper = Stepper::new(cfg.limit);
    let (mut calls, mut probes, mut fallbacks, mut entries) = (0u64, 0u64, 0u64, 0u64);
    while stepper.more() {
        // Each build consumes its topology: generate it afresh (same seed,
        // same graph), which is one more set-up sample, spread over the run.
        let t0 = Instant::now();
        let topo = span("bench.setup", generate);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        run.attempted += 1;
        let digest = if traced {
            let t = stepper.step(|| traced_build(&params, build_seed, stretch_seed, routes, topo));
            let vectors = t.infos.values().map(|i| (i.underlay, &i.vector)).collect();
            let built = Built {
                ecan: &t.ecan,
                oracle: &t.oracle,
                landmarks: &t.landmarks,
                vectors,
                stretch: &t.stretch,
            };
            if reference.is_none() {
                check_build(&built, &params, routes)?;
                let vector_probes = (params.overlay_nodes * params.landmarks) as u64;
                if t.oracle.measurements() != vector_probes + t.selector_probes {
                    return Err("probes outside landmark vectors and the selector".into());
                }
                if t.selector_probes > params.rtt_budget as u64 * t.select_calls {
                    return Err("selector probes exceed budget x selector calls".into());
                }
            }
            calls += t.select_calls;
            probes += t.oracle.measurements();
            fallbacks += t.fallbacks;
            entries += t.soft_entries as u64;
            gs_mean = t.stretch.mean();
            built.digest()
        } else {
            let (tao, stretch) = stepper.step(|| {
                let tao = builder.build_on(topo);
                let stretch = tao.measure_routing_stretch(routes, stretch_seed);
                (tao, stretch)
            });
            let vectors = tao
                .ecan()
                .can()
                .live_nodes()
                .filter_map(|id| tao.info(id))
                .map(|i| (i.underlay, &i.vector))
                .collect();
            let built = Built {
                ecan: tao.ecan(),
                oracle: tao.oracle(),
                landmarks: tao.landmarks(),
                vectors,
                stretch: &stretch,
            };
            if reference.is_none() {
                check_build(&built, &params, routes)?;
            }
            gs_mean = stretch.mean();
            built.digest()
        };
        match &reference {
            None => reference = Some(digest),
            Some(r) if *r != digest => {
                return Err(format!(
                    "build {} differs from the first build: {digest:?} vs {r:?}",
                    run.attempted
                ));
            }
            Some(_) => {}
        }
        run.ops += 1;
    }
    run.step_s = stepper.times;

    // Global-soft-state selection must beat random selection on the same
    // topology and seed.
    let random_mean = {
        let mut b = builder.clone();
        b.selection(SelectionStrategy::Random);
        b.build_on(topology)
            .measure_routing_stretch(routes, stretch_seed)
            .mean()
    };
    if gs_mean >= random_mean {
        return Err(format!(
            "global-state stretch {gs_mean:.4} does not beat random selection's {random_mean:.4}"
        ));
    }
    run.notes.push(format!(
        "stretch_build: mean stretch {gs_mean:.4} (global soft-state) vs {random_mean:.4} (random selection)"
    ));
    run.digest = reference.unwrap_or_default();
    if traced && run.attempted > 0 {
        let builds = run.attempted as f64;
        let c: &mut BTreeMap<&'static str, f64> = &mut run.counters;
        c.insert("core.select_calls", calls as f64 / builds);
        c.insert("core.fallbacks", fallbacks as f64 / builds);
        c.insert("topology.rtt_probes", probes as f64 / builds);
        c.insert("softstate.entries", entries as f64 / builds);
    }
    Ok(run)
}
