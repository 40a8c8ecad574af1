//! Output checkers, written here rather than borrowed from the program:
//! each recomputes an answer the program gives, from the program's inputs
//! or its public state, by a simpler method.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_topology::{Graph, NodeIdx};

/// Shortest-path distances in microseconds from `source` to every router,
/// by a textbook Dijkstra over [`Graph::neighbors`]. `u64::MAX` marks an
/// unreachable router.
pub fn dijkstra_us(graph: &Graph, source: NodeIdx) -> Vec<u64> {
    let mut dist = vec![u64::MAX; graph.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, latency, _) in graph.neighbors(NodeIdx(u)) {
            let nd = d + latency.as_micros();
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v.0)));
            }
        }
    }
    dist
}

/// Compares a program distance row against [`dijkstra_us`] for the given
/// targets.
pub fn check_distances(
    what: &str,
    expected: &[u64],
    targets: &[NodeIdx],
    got: impl Fn(NodeIdx) -> u64,
) -> Result<(), String> {
    for &t in targets {
        let (want, have) = (expected[t.index()], got(t));
        if want != have {
            return Err(format!(
                "{what}: distance to router {} is {have} us, Dijkstra says {want} us",
                t.0
            ));
        }
    }
    Ok(())
}

fn box_contains(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
    p.len() == lo.len()
        && p.iter()
            .zip(lo.iter().zip(hi))
            .all(|(&x, (&l, &h))| l <= x && x < h)
}

fn box_volume(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(l, h)| h - l).product()
}

/// An axis-aligned half-open box `[lo, hi)`, the benchmark's own copy of a
/// zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
}

impl Cell {
    pub fn of(zone: &Zone) -> Cell {
        Cell {
            lo: (0..zone.dims()).map(|a| zone.lo(a)).collect(),
            hi: (0..zone.dims()).map(|a| zone.hi(a)).collect(),
        }
    }

    /// True when the two boxes share positive volume.
    pub fn overlaps(&self, other: &Cell) -> bool {
        (0..self.lo.len()).all(|a| self.lo[a].max(other.lo[a]) < self.hi[a].min(other.hi[a]))
    }
}

/// Every live node's zones, copied out of the overlay once, in flat
/// arrays (a few large allocations rather than two per zone, so the copy
/// leaves the program's heap as it found it).
#[derive(Debug, Clone, Default)]
pub struct ZoneTable {
    dims: usize,
    owners: Vec<OverlayNodeId>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl ZoneTable {
    pub fn of(can: &CanOverlay) -> Result<ZoneTable, String> {
        let dims = can.dims();
        let mut t = ZoneTable {
            dims,
            ..ZoneTable::default()
        };
        for id in can.live_nodes() {
            let zones = can
                .zones(id)
                .map_err(|e| format!("zones of live node {id}: {e}"))?;
            for z in &zones {
                t.owners.push(id);
                t.lo.extend((0..dims).map(|a| z.lo(a)));
                t.hi.extend((0..dims).map(|a| z.hi(a)));
            }
        }
        Ok(t)
    }

    fn cell(&self, i: usize) -> (&[f64], &[f64]) {
        let r = i * self.dims..(i + 1) * self.dims;
        (&self.lo[r.clone()], &self.hi[r])
    }

    /// Every node owning a zone that contains `p`, by brute force.
    fn owners(&self, p: &[f64]) -> Vec<OverlayNodeId> {
        let mut out: Vec<OverlayNodeId> = (0..self.owners.len())
            .filter(|&i| {
                let (lo, hi) = self.cell(i);
                box_contains(lo, hi, p)
            })
            .map(|i| self.owners[i])
            .collect();
        out.dedup();
        out
    }

    /// Checks that `node` is `target`'s one owner, as `what` found it:
    /// `node`'s zone contains the target and no other node's zone does.
    pub fn check_owner(
        &self,
        what: &str,
        target: &Point,
        node: OverlayNodeId,
    ) -> Result<(), String> {
        let owners = self.owners(target.coords());
        if owners != [node] {
            return Err(format!(
                "{what} gave {node} for {target}, but the zones containing it belong to {owners:?}"
            ));
        }
        Ok(())
    }

    /// Checks that the zones tile the unit space: volumes sum to 1.
    pub fn check_tiling(&self) -> Result<(), String> {
        let n = self.owners.len();
        let total: f64 = (0..n)
            .map(|i| {
                let (lo, hi) = self.cell(i);
                box_volume(lo, hi)
            })
            .sum();
        let tolerance = 1e-9 * (1 + n) as f64;
        if (total - 1.0).abs() > tolerance {
            return Err(format!(
                "live zones cover volume {total:.12} over {n} zones, not 1"
            ));
        }
        Ok(())
    }
}

/// What a churn operation is expected to do, from the label model alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A join of a label that is not live: must create a node.
    Join,
    /// A departure of a live label: must remove its node.
    Depart,
    /// A join of a live label or a departure of an unknown one: no-op.
    None,
}

const DEAD: u32 = u32::MAX;

/// The benchmark's own model of which churn labels are live, and which
/// overlay node each live label became. Churn labels are dense from 0, so
/// the model is a vector indexed by label; it and its comparison buffers
/// are reused, so checking after every batch allocates almost nothing.
#[derive(Debug, Clone, Default)]
pub struct LabelModel {
    node: Vec<u32>,
    want: Vec<u32>,
    have: Vec<u32>,
}

impl LabelModel {
    /// Resets the model to `bootstrap` live labels `0..bootstrap`, label `l`
    /// being overlay node `l`.
    pub fn reset(&mut self, bootstrap: u32) {
        self.node.clear();
        self.node.extend(0..bootstrap);
    }

    fn is_live(&self, label: u64) -> bool {
        usize::try_from(label)
            .ok()
            .and_then(|l| self.node.get(l))
            .is_some_and(|&n| n != DEAD)
    }

    /// What an op on `label` must do given the current model.
    pub fn expect(&self, join: bool, label: u64) -> Effect {
        match (join, self.is_live(label)) {
            (true, false) => Effect::Join,
            (false, true) => Effect::Depart,
            _ => Effect::None,
        }
    }

    /// Applies one committed op. `overlay` is the node the program reports
    /// the op created or removed (`u32::MAX` for none). Returns whether the
    /// op was one that had to take effect and did not.
    pub fn apply(&mut self, join: bool, label: u64, overlay: u32) -> Result<bool, String> {
        let effect = self.expect(join, label);
        if overlay == DEAD {
            return Ok(effect != Effect::None);
        }
        let l = usize::try_from(label).map_err(|_| format!("label {label} out of range"))?;
        match effect {
            Effect::Join => {
                if self.node.len() <= l {
                    self.node.resize(l + 1, DEAD);
                }
                self.node[l] = overlay;
            }
            Effect::Depart => {
                if self.node[l] != overlay {
                    return Err(format!(
                        "departure of label {label} removed node {overlay}, but the label was node {}",
                        self.node[l]
                    ));
                }
                self.node[l] = DEAD;
            }
            Effect::None => {
                return Err(format!(
                    "op on label {label} should have been a no-op but touched node {overlay}"
                ));
            }
        }
        Ok(false)
    }

    /// Checks the program's live overlay nodes and soft-state entry owners
    /// against the model: the same node set, one entry per live node.
    pub fn check(
        &mut self,
        live_nodes: impl IntoIterator<Item = OverlayNodeId>,
        entry_nodes: impl IntoIterator<Item = OverlayNodeId>,
    ) -> Result<(), String> {
        self.want.clear();
        self.want
            .extend(self.node.iter().copied().filter(|&n| n != DEAD));
        self.want.sort_unstable();
        if self.want.windows(2).any(|w| w[0] == w[1]) {
            return Err("two live labels share one overlay node".into());
        }
        self.have.clear();
        self.have.extend(live_nodes.into_iter().map(|id| id.0));
        self.have.sort_unstable();
        if self.have != self.want {
            return Err(format!(
                "live nodes differ from the label model: {} live, {} modelled",
                self.have.len(),
                self.want.len()
            ));
        }
        self.have.clear();
        self.have.extend(entry_nodes.into_iter().map(|id| id.0));
        self.have.sort_unstable();
        if self.have != self.want {
            return Err(format!(
                "soft-state holds {} entries for {} live nodes (one each expected)",
                self.have.len(),
                self.want.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_overlay::CanOverlay;
    use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    fn small_can(n: u32) -> CanOverlay {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..n {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        can
    }

    #[test]
    fn dijkstra_agrees_with_the_oracle_and_rejects_a_perturbed_distance() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            3,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mine = dijkstra_us(topo.graph(), NodeIdx(7));
        let targets: Vec<NodeIdx> = topo.graph().nodes().collect();
        let program = |t: NodeIdx| oracle.ground_truth(NodeIdx(7), t).as_micros();
        check_distances("oracle", &mine, &targets, program).unwrap();
        let perturbed = |t: NodeIdx| program(t) + u64::from(t == NodeIdx(11));
        assert!(check_distances("oracle", &mine, &targets, perturbed).is_err());
    }

    #[test]
    fn owner_search_rejects_a_misrouted_last_hop() {
        let can = small_can(64);
        let table = ZoneTable::of(&can).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let p = Point::random(2, &mut rng);
            let owner = can.owner(&p);
            table.check_owner("a route", &p, owner).unwrap();
            let wrong = can.live_nodes().find(|&n| n != owner).unwrap();
            assert!(table.check_owner("a route", &p, wrong).is_err());
        }
    }

    #[test]
    fn tiling_sum_rejects_a_missing_zone() {
        let mut can = small_can(40);
        can.leave(OverlayNodeId(5)).unwrap();
        let mut table = ZoneTable::of(&can).unwrap();
        table.check_tiling().unwrap();
        table.owners.remove(3);
        table.lo.drain(6..8);
        table.hi.drain(6..8);
        assert!(table.check_tiling().is_err());
    }

    #[test]
    fn label_model_rejects_a_dropped_label_and_a_lost_join() {
        let mut model = LabelModel::default();
        model.reset(2);
        assert_eq!(model.apply(true, 2, 2), Ok(false));
        assert_eq!(model.apply(false, 0, 0), Ok(false));
        assert_eq!(
            model.apply(false, 0, u32::MAX),
            Ok(false),
            "departing a dead label is a no-op"
        );
        let live = [OverlayNodeId(1), OverlayNodeId(2)];
        model.check(live, live).unwrap();
        // A dropped label: the program lost node 2.
        assert!(model.check([OverlayNodeId(1)], [OverlayNodeId(1)]).is_err());
        // A live node without its soft-state entry, or with two.
        assert!(model.check(live, [OverlayNodeId(1)]).is_err());
        assert!(model
            .check(live, [OverlayNodeId(1), OverlayNodeId(2), OverlayNodeId(2)])
            .is_err());
        // A join of a new label, or a departure of a live one, that did not
        // take effect is a failure.
        assert_eq!(model.apply(true, 9, u32::MAX), Ok(true));
        assert_eq!(model.apply(false, 1, u32::MAX), Ok(true));
        // A no-op that touched a node is an error.
        assert!(model.apply(true, 1, 7).is_err());
    }
}
