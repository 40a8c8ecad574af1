//! `replay`: the §6 request stream of `sec6_replay`, heterogeneous
//! capacity mix only, over a 16,384-node eCAN attached to 256 routers.
//! Targets fall in Zipf-ranked hotspots; admission control sheds requests
//! whose target owner is saturated; between rounds, load decays and the
//! most overloaded nodes re-select their expressways through the
//! load-aware selector. One step is one round.
//!
//! The cadence is `sec6_replay`'s: 16 rounds of 65,536 requests, 2^20 in
//! all, form one epoch, and every epoch starts again from the set-up
//! state (the overlay and the loads as built), so a run is a whole number
//! of §6 rows however long it lasts.
//!
//! The overlay's zones never change here (no joins or departures after
//! set-up), so routing is read-only: almost all the time goes to
//! `EcanOverlay::route_express_into`, and topology and soft-state do no
//! work after set-up.

use tao_core::{LoadAwareSelector, LoadModel};
use tao_overlay::ecan::{BoxSelection, EcanOverlay, NeighborSelector, SampledRandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch, Zone};
use tao_topology::{
    generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle, TransitStubParams,
};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::check::ZoneTable;
use crate::trace::{self, span};
use crate::{repeated_setup, sub_seed, Config, Run, Size, Stepper};

/// Overlay dimensionality (the paper's CAN experiments run d = 2).
const DIMS: usize = 2;
/// Half-width of the box around a hotspot center targets scatter into.
const HOTSPOT_SPREAD: f64 = 0.05;
/// Probability a request targets a hotspot region.
const HOTSPOT_PROB: f64 = 0.8;
/// Shed a request whose target owner's utilization exceeds this.
const SHED_THRESHOLD: f64 = 1.0;
/// Load charged to every forwarding node per routed request.
const HOP_COST: f64 = 0.1;
/// Utilization penalty of the load-aware selector.
const PENALTY: f64 = 4.0;
/// Load decay between rounds.
const DECAY: f64 = 0.5;
/// One request in this many has its admission owner (and, when routed,
/// its last hop) re-checked by brute force.
const CHECK_EVERY: usize = 256;
/// Seed of the world: topology, overlay, capacities and hotspot centers.
/// It is fixed (sec6_replay's seed) so that every run routes over the
/// same overlay and capacity mix; `--seed` draws the request stream and
/// the re-selection samples. With a seeded world, where the top hotspots
/// land relative to the few strong nodes moved the shed share, and with
/// it the routed rate, by 15 % between seeds.
const WORLD_SEED: u64 = 0x5ec6_ae91;

struct Spec {
    nodes: usize,
    routers: usize,
    hotspots: usize,
    requests_per_round: usize,
    rounds_per_epoch: usize,
    max_reselect: usize,
}

fn spec(size: Size) -> Spec {
    match size {
        // sec6_replay's paper scale and cadence: its 2^20 requests in 16
        // rounds of 65,536.
        Size::Full => Spec {
            nodes: 16_384,
            routers: 256,
            hotspots: 8,
            requests_per_round: 65_536,
            rounds_per_epoch: 16,
            max_reselect: 32,
        },
        Size::Reduced => Spec {
            nodes: 1_024,
            routers: 64,
            hotspots: 4,
            requests_per_round: 2_048,
            rounds_per_epoch: 2,
            max_reselect: 8,
        },
    }
}

/// The read-only world every round routes over.
struct World {
    live: Vec<OverlayNodeId>,
    oracle: RttOracle,
    hotspot_centers: Vec<Point>,
    zipf_cdf: Vec<f64>,
}

fn build_world(spec: &Spec, seed: u64) -> (World, EcanOverlay) {
    let topo = span("topology.generate", || {
        generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            sub_seed(seed, 0x7090),
        )
    });
    let graph_n = topo.graph().node_count();
    let n_routers = spec.routers.clamp(1, graph_n);
    let routers: Vec<NodeIdx> = (0..n_routers)
        .map(|s| NodeIdx((s * graph_n / n_routers) as u32))
        .collect();
    let oracle = span("topology.oracle_new", || {
        RttOracle::new(topo.graph().clone())
    });
    // The attachment routers' latency rows: one Dijkstra each, cached in
    // the oracle, where the load-aware selector's probes find them.
    span("topology.latency_rows", || {
        for &r in &routers {
            span("topology.sssp", || oracle.ground_truth_all(r));
        }
    });

    let mut join_rng = StdRng::seed_from_u64(sub_seed(seed, 0x2011));
    let mut can = CanOverlay::new(DIMS).expect("DIMS is a valid dimensionality");
    for i in 0..spec.nodes {
        let point = Point::random(DIMS, &mut join_rng);
        span("overlay.can_join", || {
            can.join(routers[i % n_routers], point)
        });
    }
    let mut selector = SampledRandomSelector::new(sub_seed(seed, 0xb117));
    let ecan = span("overlay.ecan_build", || {
        EcanOverlay::build(can, &mut selector)
    });
    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();

    let mut hot_rng = StdRng::seed_from_u64(sub_seed(seed, 0x4075));
    let hotspot_centers: Vec<Point> = (0..spec.hotspots)
        .map(|_| Point::random(DIMS, &mut hot_rng))
        .collect();
    let weights: Vec<f64> = (0..spec.hotspots).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let zipf_cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    (
        World {
            live,
            oracle,
            hotspot_centers,
            zipf_cdf,
        },
        ecan,
    )
}

impl World {
    fn draw_target(&self, rng: &mut StdRng) -> Point {
        if rng.gen::<f64>() < HOTSPOT_PROB {
            let u: f64 = rng.gen();
            let rank = self
                .zipf_cdf
                .iter()
                .position(|&c| u < c)
                .unwrap_or(self.hotspot_centers.len() - 1);
            let coords = self.hotspot_centers[rank]
                .coords()
                .iter()
                .map(|&x| (x + (rng.gen::<f64>() - 0.5) * 2.0 * HOTSPOT_SPREAD).rem_euclid(1.0))
                .collect();
            Point::new(coords).expect("coordinates wrapped into [0, 1)")
        } else {
            Point::random(DIMS, rng)
        }
    }
}

/// Saturation-triggered re-selection as `sec6_replay` does it: candidates
/// from O(depth) box sampling, the load-aware score picks among them.
struct SaturationSelector<'a> {
    inner: LoadAwareSelector<'a>,
    sample_rng: StdRng,
}

impl NeighborSelector for SaturationSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        span("core.load_select", || {
            self.inner.select(for_node, target_box, candidates, can)
        })
    }

    fn select_in_box(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
    ) -> BoxSelection {
        let mut samples: Vec<OverlayNodeId> = Vec::new();
        span("overlay.sample_in", || {
            for _ in 0..8 {
                if let Some(s) = can.sample_in(target_box, &mut self.sample_rng) {
                    if s != for_node && !samples.contains(&s) {
                        samples.push(s);
                    }
                }
            }
        });
        if samples.is_empty() {
            return BoxSelection::Skip;
        }
        samples.sort_unstable();
        BoxSelection::Chosen(self.select(for_node, target_box, &samples, can))
    }
}

/// Runs the workload in epochs of `rounds_per_epoch` rounds. Each epoch
/// starts from a copy of the set-up state and replays the same request
/// stream, so every epoch does the same work and must give the same
/// outputs; the run ends at the first epoch boundary after the time limit.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let spec = spec(cfg.size);
    let (world, setup_s) = repeated_setup(cfg.setups, || {
        let (world, ecan) = build_world(&spec, WORLD_SEED);
        let loads =
            LoadModel::heterogeneous(world.live.iter().copied(), sub_seed(WORLD_SEED, 0xca9a));
        (world, ecan, loads)
    });
    let (world, built_ecan, built_loads) = world;
    let zones = ZoneTable::of(built_ecan.can())?;
    zones.check_tiling()?;
    let id_bound = built_ecan.can().id_bound();

    let mut run = Run {
        setup_s,
        unit_steps: spec.rounds_per_epoch,
        ..Run::default()
    };
    let (mut reselections, mut hops) = (0u64, 0u64);
    let mut scratch = RouteScratch::new();
    let mut snapshot = vec![0.0f64; id_bound];
    let mut delta = vec![0.0f64; id_bound];
    // Sampled requests: target, the owner admission control looked up,
    // and the last hop when the request was routed.
    let mut samples: Vec<(Point, OverlayNodeId, Option<OverlayNodeId>)> = Vec::new();
    let mut stepper = Stepper::new(cfg.limit);
    let mut epochs = 0u64;
    let mut requests: Vec<(OverlayNodeId, Point)> = Vec::with_capacity(spec.requests_per_round);
    let mut reference: Option<Vec<(&'static str, String)>> = None;
    while stepper.more() {
        // The epoch's starting state is an input: copied before any timer.
        let mut ecan = built_ecan.clone();
        let mut loads = built_loads.clone();
        let (mut routed, mut shed, mut stuck, mut epoch_reselections) = (0u64, 0u64, 0u64, 0u64);
        for round in 0..spec.rounds_per_epoch as u64 {
            // The round's requests are inputs: drawn before the step timer.
            let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 0x7a5c_0000_0000 | round));
            requests.clear();
            requests.extend((0..spec.requests_per_round).map(|_| {
                let source = world.live[rng.gen_range(0..world.live.len())];
                (source, world.draw_target(&mut rng))
            }));
            samples.clear();
            stepper.step(|| {
                span("core.load_round", || {
                    snapshot.fill(0.0);
                    for (n, s) in loads.iter() {
                        snapshot[n.index()] = s.utilization();
                    }
                });
                delta.fill(0.0);
                for (i, (source, target)) in requests.iter().enumerate() {
                    let owner = span("overlay.owner", || ecan.can().owner(target));
                    let sampled = i % CHECK_EVERY == 0;
                    if snapshot[owner.index()] > SHED_THRESHOLD {
                        shed += 1;
                        if sampled {
                            samples.push((target.clone(), owner, None));
                        }
                        continue;
                    }
                    match span("overlay.route", || {
                        ecan.route_express_into(&mut scratch, *source, target)
                    }) {
                        Ok(()) => {
                            routed += 1;
                            let path = scratch.hops();
                            hops += (path.len() - 1) as u64;
                            for h in &path[1..] {
                                delta[h.index()] += HOP_COST;
                            }
                            if sampled {
                                let last = *path.last().expect("a route holds its source");
                                samples.push((target.clone(), owner, Some(last)));
                            }
                        }
                        Err(_) => stuck += 1,
                    }
                }
                // Saturation response: re-select the most overloaded nodes'
                // tables through the load-aware score, worst first.
                let overloaded = span("core.load_round", || {
                    for (i, &d) in delta.iter().enumerate() {
                        if d > 0.0 {
                            loads.add_load(OverlayNodeId(i as u32), d);
                        }
                    }
                    let mut overloaded: Vec<(f64, OverlayNodeId)> = loads
                        .iter()
                        .filter(|(_, s)| s.utilization() > SHED_THRESHOLD)
                        .map(|(n, s)| (s.utilization(), n))
                        .collect();
                    overloaded.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                    overloaded.truncate(spec.max_reselect);
                    overloaded
                });
                {
                    let mut selector = SaturationSelector {
                        inner: LoadAwareSelector::new(
                            &world.oracle,
                            &loads,
                            PENALTY,
                            sub_seed(cfg.seed, 0x5e1e_0000_0000 | round),
                        ),
                        sample_rng: StdRng::seed_from_u64(sub_seed(
                            cfg.seed,
                            0x5a3b_0000_0000 | round,
                        )),
                    };
                    for &(_, id) in &overloaded {
                        span("overlay.reselect_node", || {
                            ecan.reselect_node(id, &mut selector)
                        });
                    }
                }
                epoch_reselections += overloaded.len() as u64;
                span("core.load_round", || loads.decay(DECAY));
            });
            // Checks, outside the step timer: the owner admission control
            // used, and the last hop of a routed request, against a brute
            // force search over every live zone.
            for (target, owner, last) in &samples {
                zones.check_owner("admission control", target, *owner)?;
                if let Some(last) = last {
                    zones.check_owner("a route", target, *last)?;
                }
            }
            if stuck > 0 {
                return Err(format!(
                    "epoch {epochs} round {round}: {stuck} routes got stuck"
                ));
            }
        }
        let digest = vec![
            ("routed", routed.to_string()),
            ("shed", shed.to_string()),
            ("stuck", stuck.to_string()),
            ("reselections", epoch_reselections.to_string()),
        ];
        match &reference {
            None => reference = Some(digest),
            Some(r) if *r != digest => {
                return Err(format!(
                    "epoch {epochs} gave {digest:?}, epoch 0 gave {r:?}"
                ));
            }
            Some(_) => {}
        }
        run.ops += routed;
        run.shed += shed;
        run.attempted += routed + stuck;
        run.failed += stuck;
        reselections += epoch_reselections;
        epochs += 1;
    }
    run.step_s = stepper.times;
    run.digest = reference.unwrap_or_default();
    let issued = run.ops + run.shed + run.failed;
    run.notes.push(format!(
        "replay: {epochs} epochs of {} rounds of {} requests; per epoch {}; shed {:.1} % of requests; {reselections} re-selections in all",
        spec.rounds_per_epoch,
        spec.requests_per_round,
        run.digest
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        100.0 * run.shed as f64 / issued.max(1) as f64
    ));
    if trace::enabled() {
        run.counters.insert(
            "overlay.hops_per_route",
            hops as f64 / run.ops.max(1) as f64,
        );
        run.counters.insert("overlay.id_bound", id_bound as f64);
    }
    Ok(run)
}
