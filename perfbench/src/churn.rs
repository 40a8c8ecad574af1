//! `churn`: joins and departures on `ChurnState` (a CAN plus a global
//! soft-state map). Set-up bootstraps tens of thousands of nodes; each
//! step applies one `FaultPlan::diurnal_wave` batch through `run_batch`,
//! about half joins and half departures. This workload writes the overlay
//! and the soft-state where the other two read them: zone splits and
//! takeovers, soft-state publish and remove, and the batch executor, with
//! no routing and no RTT probes.
//!
//! Untraced steps call `tao_core::churn::run_batch`. At one worker that
//! function hands the batch, with no conflict footprints, to
//! `Simulator::run_churn_batch` with `ChurnState::prepare_op` and
//! `ChurnState::commit_op`; the traced run makes that same call with
//! timing wrappers around the two, so the executor's own time is the
//! remainder.

use std::time::Instant;

use tao_core::churn::{run_batch, ChurnState};
use tao_sim::{ChurnOp, ChurnOpKind, FaultPlan, SimDuration, Simulator, UniformLatency};

use crate::check::{Effect, LabelModel, ZoneTable};
use crate::trace::{self, span};
use crate::{repeated_setup, sub_seed, Config, Run, Size, Stepper};

const DIMS: usize = 2;

struct Spec {
    initial: u64,
    batch: usize,
    batches_per_round: usize,
}

fn spec(size: Size) -> Spec {
    match size {
        Size::Full => Spec {
            initial: 32_768,
            batch: 512,
            batches_per_round: 64,
        },
        Size::Reduced => Spec {
            initial: 1_024,
            batch: 64,
            batches_per_round: 3,
        },
    }
}

fn is_join(kind: ChurnOpKind) -> bool {
    matches!(kind, ChurnOpKind::Join | ChurnOpKind::Recover)
}

/// One batch exactly as `run_batch` runs it at one worker, with each
/// prepare and commit in its own span.
fn traced_batch(sim: &mut Simulator<u32, UniformLatency>, state: &mut ChurnState, ops: &[ChurnOp]) {
    span("sim.run_churn_batch", || {
        sim.run_churn_batch(
            state,
            ops,
            &[],
            |s: &ChurnState, i, op: &ChurnOp| span("core.prepare", || s.prepare_op(i, op)),
            |s: &mut ChurnState, i, op: &ChurnOp, p| {
                let name = if is_join(op.kind) {
                    "core.commit_join"
                } else {
                    "core.commit_depart"
                };
                span(name, || s.commit_op(i, op, p))
            },
        )
    });
}

/// Runs the workload in rounds. A round starts from a freshly
/// bootstrapped state and applies the same batches, so every round does the
/// same work and must end in the same state; the run ends at the first
/// round boundary after the time limit. Rounds keep the step times from
/// depending on how far a run got: ids are never reused, so departures get
/// slower as the arena grows.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let spec = spec(cfg.size);
    let master = sub_seed(cfg.seed, 0xc4);
    let bootstrap = || {
        span("core.churn_bootstrap", || {
            ChurnState::new(DIMS, master, spec.initial)
        })
    };
    // The round's batches are inputs: generated once, before any timing.
    let mut next_label = spec.initial;
    let batches: Vec<Vec<ChurnOp>> = (0..spec.batches_per_round)
        .map(|b| {
            let plan = FaultPlan::new(sub_seed(cfg.seed, 0xba7c_0000_0000 | b as u64));
            let ops =
                plan.diurnal_wave(DIMS, spec.batch, next_label, SimDuration::from_secs(86_400));
            next_label = ops
                .iter()
                .filter(|op| is_join(op.kind))
                .map(|op| op.node + 1)
                .max()
                .unwrap_or(next_label);
            ops
        })
        .collect();

    let traced = trace::enabled();
    let (first, setup_s) = repeated_setup(cfg.setups, bootstrap);
    let mut run = Run {
        setup_s,
        unit_steps: spec.batches_per_round,
        ..Run::default()
    };
    let mut state = Some(first);
    let mut sim: Simulator<u32, UniformLatency> =
        Simulator::new(UniformLatency::new(SimDuration::from_millis(5)));
    let mut stepper = Stepper::new(cfg.limit);
    let mut reference: Option<String> = None;
    let mut model = LabelModel::default();
    let mut rounds = 0u64;
    while stepper.more() {
        let mut state = match state.take() {
            Some(s) => s,
            None => {
                let t0 = Instant::now();
                let s = span("bench.setup", bootstrap);
                run.setup_s.push(t0.elapsed().as_secs_f64());
                s
            }
        };
        model.reset(spec.initial as u32);
        model.check(
            state.can().live_nodes(),
            state.map().entries().map(|e| e.info.node),
        )?;
        for (b, ops) in batches.iter().enumerate() {
            let logged = state.log().len();
            if traced {
                stepper.step(|| traced_batch(&mut sim, &mut state, ops));
            } else {
                stepper.step(|| run_batch(&mut sim, &mut state, ops));
            }
            // Checks, outside the step timer: every op against the label
            // model, then the live set and the soft-state map.
            let records = &state.log()[logged..];
            if records.len() != ops.len() {
                return Err(format!(
                    "batch {b}: {} records for {} ops",
                    records.len(),
                    ops.len()
                ));
            }
            for (op, rec) in ops.iter().zip(records) {
                if rec.label != op.node || rec.kind != op.kind {
                    return Err(format!(
                        "batch {b}: record {rec:?} does not match op on label {}",
                        op.node
                    ));
                }
                let join = is_join(op.kind);
                let must = model.expect(join, op.node) != Effect::None;
                let failed = model.apply(join, op.node, rec.overlay)?;
                if must {
                    run.attempted += 1;
                    if failed {
                        run.failed += 1;
                    } else {
                        run.ops += 1;
                    }
                }
            }
            model.check(
                state.can().live_nodes(),
                state.map().entries().map(|e| e.info.node),
            )?;
            if run.failed > 0 {
                return Err(format!(
                    "batch {b}: {} joins or departures did not take effect",
                    run.failed
                ));
            }
        }
        ZoneTable::of(state.can())?.check_tiling()?;
        let fingerprint = format!("{:#018x}", state.fingerprint());
        match &reference {
            None => {
                run.digest = vec![
                    ("fingerprint", fingerprint.clone()),
                    ("live_nodes", state.live_len().to_string()),
                    ("id_bound", state.can().id_bound().to_string()),
                    ("committed_per_round", run.ops.to_string()),
                ];
                if traced {
                    run.counters
                        .insert("overlay.id_bound", state.can().id_bound() as f64);
                    run.counters
                        .insert("softstate.entries", state.map().len() as f64);
                }
                reference = Some(fingerprint);
            }
            Some(r) if *r != fingerprint => {
                return Err(format!(
                    "round {rounds} ended in state {fingerprint}, round 0 in {r}"
                ));
            }
            Some(_) => {}
        }
        rounds += 1;
    }
    run.step_s = stepper.times;
    run.notes.push(format!(
        "churn: {rounds} rounds of {} batches of {} ops from {} bootstrap nodes; {}",
        spec.batches_per_round,
        spec.batch,
        spec.initial,
        run.digest
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(run)
}
