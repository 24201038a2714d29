//! The fleet engine: deterministic sharded epoch loop.
//!
//! Each epoch has three phases:
//!
//! 1. **Spawn** (serial): trains whose departure slot arrived are
//!    inserted into the shard owning their entry cell, in train-id
//!    order.
//! 2. **Advance** (parallel): every shard sweeps its residents on the
//!    `rem-exec` pool — `par_map(threads, shards, ..)` — producing a
//!    private intent list. `par_map` joins its workers, so the epoch
//!    barrier is the call returning.
//! 3. **Exchange** (serial): all intent lists are concatenated, sorted
//!    by train id, and applied one by one — admission control,
//!    per-seat UE outcome draws, residency migration between shards,
//!    despawn record capture.
//!
//! Why this is bit-identical for every shard and thread count: phase 2
//! computes only pure per-train functions of `(spec, carried state,
//! epoch)` (see [`crate::shard`]), so *what* each train asks for never
//! depends on the decomposition; and phase 3 — the only place where
//! trains interact, through admission counters — runs serially in
//! canonical train-id order, so *who wins* never does either.

use crate::ids::{CellId, TrainId, UeId};
use crate::metrics::{FleetReport, FleetTiming, TrainRecord};
use crate::params::Params;
use crate::rng::{unit, Stream};
use crate::shard::{Intent, IntentKind, Shard, TrainState};
use crate::spec::FleetSpec;
use std::sync::Mutex;
use std::time::Instant;

/// Execution knobs of one run. Neither moves the result — only the
/// wall clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Shard count (`0` = the spec's default).
    pub shards: u32,
    /// Worker threads for the advance phase (`0` = all cores).
    pub threads: usize,
}

/// Runs a fleet campaign to completion. Returns the shard/thread
///-invariant [`FleetReport`] plus this run's [`FleetTiming`].
pub fn run_fleet(spec: &FleetSpec, opts: RunOptions) -> Result<(FleetReport, FleetTiming), String> {
    spec.validate()?;
    let p = Params::from_spec(spec);
    let n_shards = if opts.shards == 0 { spec.shards } else { opts.shards } as usize;
    let n_shards = n_shards.min(p.n_cells as usize).max(1);
    let n_epochs = spec.n_epochs();

    // Contiguous cell ranges, remainder spread over the first shards.
    let mut shards: Vec<Mutex<Shard>> = Vec::with_capacity(n_shards);
    let base = p.n_cells as usize / n_shards;
    let extra = p.n_cells as usize % n_shards;
    let mut lo = 0u32;
    let mut shard_of_cell = vec![0u32; p.n_cells as usize];
    for s in 0..n_shards {
        let width = (base + usize::from(s < extra)) as u32;
        let hi = lo + width;
        for c in lo..hi {
            shard_of_cell[c as usize] = s as u32;
        }
        shards.push(Mutex::new(Shard::new(lo, hi, spec.ues_per_train)));
        lo = hi;
    }

    // Departure schedule: train i leaves end (i % 2) in slot i / 2.
    let spawn_epoch = |i: u32| -> u64 {
        (((i / 2) as f64 * spec.headway_s) / p.dt_s).floor() as u64
    };
    let speed_mps = spec.speed_kmh / 3.6;
    let spawn_state = |i: u32| -> TrainState {
        let jitter = 2.0 * unit(p.seed, i as u64, 0, Stream::Spawn) - 1.0;
        let v = speed_mps * (1.0 + spec.speed_jitter * jitter);
        if i.is_multiple_of(2) {
            TrainState::spawn(TrainId(i), 0.0, v, CellId(0), spec.ues_per_train)
        } else {
            let last = CellId(p.n_cells - 1);
            TrainState::spawn(TrainId(i), p.corridor_m, -v, last, spec.ues_per_train)
        }
    };

    // Where each train lives: shard index, SPAWNING before its slot,
    // FINISHED after despawn.
    const SPAWNING: u32 = u32::MAX;
    const FINISHED: u32 = u32::MAX - 1;
    let mut locus = vec![SPAWNING; spec.trains as usize];
    let mut next_spawn: u32 = 0;

    let mut finished: Vec<TrainRecord> = Vec::new();
    let mut admitted = vec![0u32; p.n_cells as usize];
    let mut touched_cells: Vec<u32> = Vec::new();
    let mut timing = FleetTiming::default();
    let wall_start = Instant::now();

    let mut totals = Totals::default();

    for epoch in 0..n_epochs {
        let t_serial = Instant::now();
        // Phase 1: spawns, in train-id order (slots are nondecreasing
        // in the id, so a cursor suffices).
        while next_spawn < spec.trains && spawn_epoch(next_spawn) <= epoch as u64 {
            let st = spawn_state(next_spawn);
            let shard = shard_of_cell[st.serving.0 as usize];
            shards[shard as usize].lock().expect("shard lock").insert(st);
            locus[next_spawn as usize] = shard;
            next_spawn += 1;
        }
        timing.exchange_s += t_serial.elapsed().as_secs_f64();

        // Phase 2: parallel shard advance. `par_map` reduces in shard
        // order and joins all workers — the epoch barrier.
        let advanced: Vec<(Vec<Intent>, f64)> =
            rem_exec::par_map(opts.threads, shards.len(), |s| {
                let t0 = Instant::now();
                let mut out = Vec::new();
                shards[s].lock().expect("shard lock").advance(epoch, &p, &mut out);
                (out, t0.elapsed().as_secs_f64())
            });
        let mut epoch_max = 0.0f64;
        for (_, secs) in &advanced {
            timing.busy_s += secs;
            epoch_max = epoch_max.max(*secs);
        }
        timing.critical_path_s += epoch_max;

        // Phase 3: canonical-order exchange.
        let t_serial = Instant::now();
        for &c in &touched_cells {
            admitted[c as usize] = 0;
        }
        touched_cells.clear();
        let mut intents: Vec<Intent> = advanced.into_iter().flat_map(|(v, _)| v).collect();
        intents.sort_unstable_by_key(|x| x.train.0);

        for intent in intents {
            let train = intent.train;
            let src = locus[train.0 as usize];
            debug_assert!(src != SPAWNING && src != FINISHED);
            match intent.kind {
                IntentKind::Despawn => {
                    let st = shards[src as usize].lock().expect("shard lock").remove(train);
                    finished.push(record_of(&st));
                    locus[train.0 as usize] = FINISHED;
                }
                IntentKind::Handover => {
                    let cell = intent.target.0 as usize;
                    if admitted[cell] >= p.admission_per_epoch {
                        shards[src as usize].lock().expect("shard lock").deny(train);
                        totals.denied += 1;
                        continue;
                    }
                    if admitted[cell] == 0 {
                        touched_cells.push(intent.target.0);
                    }
                    admitted[cell] += 1;
                    migrate(
                        &shards,
                        &shard_of_cell,
                        &mut locus,
                        train,
                        src,
                        intent.target,
                        &p,
                        epoch,
                        IntentKind::Handover,
                    );
                    totals.handovers += 1;
                }
                IntentKind::Reattach => {
                    // Forced re-establishment: no admission gate, a
                    // costlier per-UE storm.
                    migrate(
                        &shards,
                        &shard_of_cell,
                        &mut locus,
                        train,
                        src,
                        intent.target,
                        &p,
                        epoch,
                        IntentKind::Reattach,
                    );
                    totals.rlfs += 1;
                }
            }
        }
        timing.exchange_s += t_serial.elapsed().as_secs_f64();
    }

    // Terminal records: still-resident trains (per shard, then sorted
    // globally), despawned trains, and never-spawned trains.
    for shard in &shards {
        for st in shard.lock().expect("shard lock").drain_states() {
            finished.push(record_of(&st));
        }
    }
    for i in 0..spec.trains {
        if locus[i as usize] == SPAWNING && spawn_epoch(i) >= n_epochs as u64 {
            let st = spawn_state(i);
            finished.push(record_of(&st));
        }
    }
    finished.sort_unstable_by_key(|r| r.train);
    debug_assert_eq!(finished.len(), spec.trains as usize);

    let mut digest = rem_num::hash::FNV1A64_OFFSET;
    let mut ue_events = 0u64;
    let mut ue_failures = 0u64;
    for r in &finished {
        digest = r.fold(digest);
        ue_events += r.ue_events;
        ue_failures += r.ue_failures;
    }

    let report = FleetReport {
        trains: spec.trains,
        ues: spec.total_ues(),
        cells: p.n_cells,
        epochs: n_epochs,
        sim_window_ms: (spec.duration_s * 1_000.0).round() as u64,
        handovers: totals.handovers,
        denied: totals.denied,
        rlfs: totals.rlfs,
        ue_events,
        ue_failures,
        train_digest: digest,
    };
    timing.wall_s = wall_start.elapsed().as_secs_f64();

    rem_obs::metrics::inc("rem_fleet_runs_total");
    rem_obs::metrics::add("rem_fleet_epochs_total", n_epochs as u64);
    rem_obs::metrics::add("rem_fleet_trains_total", spec.trains as u64);
    rem_obs::metrics::add("rem_fleet_handovers_total", report.handovers);
    rem_obs::metrics::add("rem_fleet_denied_total", report.denied);
    rem_obs::metrics::add("rem_fleet_rlfs_total", report.rlfs);
    rem_obs::metrics::add("rem_fleet_ue_events_total", report.ue_events);

    Ok((report, timing))
}

/// Order-free totals accumulated during the exchange phase (integers
/// only — float accumulation would reintroduce order sensitivity).
#[derive(Default)]
struct Totals {
    handovers: u64,
    denied: u64,
    rlfs: u64,
}

/// Moves a train to `target`, drawing the per-seat signaling outcomes
/// for the event kind. Runs in the serial exchange phase.
#[allow(clippy::too_many_arguments)]
fn migrate(
    shards: &[Mutex<Shard>],
    shard_of_cell: &[u32],
    locus: &mut [u32],
    train: TrainId,
    src: u32,
    target: CellId,
    p: &Params,
    epoch: u32,
    kind: IntentKind,
) {
    let mut st = shards[src as usize].lock().expect("shard lock").remove(train);
    st.serving = target;
    let p_fail = match kind {
        IntentKind::Handover => {
            st.handovers += 1;
            p.p_ue_ho_fail
        }
        // Reattaches reset the trigger state the outage invalidated (the
        // A3 monitor was already re-armed when the RLF timer expired).
        IntentKind::Reattach | IntentKind::Despawn => {
            st.rlf_epochs = 0;
            p.p_ue_reattach_fail
        }
    };
    let ues = p.ues_per_train;
    st.ue_events += ues as u64;
    for seat in 0..ues {
        let ue = UeId::of(train, seat, ues);
        if unit(p.seed, ue.0, epoch as u64, Stream::UeOutcome) < p_fail {
            st.ue_failures += 1;
            let slot = seat as usize;
            st.ue_fail[slot] = st.ue_fail[slot].saturating_add(1);
        }
    }
    let dst = shard_of_cell[target.0 as usize];
    shards[dst as usize].lock().expect("shard lock").insert(st);
    locus[train.0 as usize] = dst;
}

/// A train's terminal digest record.
fn record_of(st: &TrainState) -> TrainRecord {
    TrainRecord {
        train: st.id.0,
        final_cell: st.serving.0,
        final_pos_mm: (st.pos_m * 1_000.0).round() as i64,
        handovers: st.handovers,
        denied: st.denied,
        rlfs: st.rlfs,
        ue_events: st.ue_events,
        ue_failures: st.ue_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            trains: 24,
            ues_per_train: 8,
            corridor_km: 12.0,
            duration_s: 60.0,
            headway_s: 4.0,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn reports_are_bit_identical_across_shard_and_thread_counts() {
        let spec = small_spec();
        let baseline =
            run_fleet(&spec, RunOptions { shards: 1, threads: 1 }).expect("run").0;
        for shards in [2, 3, 4, 7] {
            for threads in [1, 2, 4] {
                let (report, _) =
                    run_fleet(&spec, RunOptions { shards, threads }).expect("run");
                assert_eq!(
                    report, baseline,
                    "shards={shards} threads={threads} diverged from 1/1"
                );
            }
        }
    }

    #[test]
    fn the_fleet_actually_moves_and_hands_over() {
        let (report, timing) = run_fleet(&small_spec(), RunOptions::default()).expect("run");
        assert!(report.handovers > 0, "a 60 s corridor run must hand over: {report:?}");
        assert!(report.ue_events > 0);
        assert!(timing.wall_s > 0.0);
        assert!(timing.busy_s >= timing.critical_path_s);
    }

    #[test]
    fn seeds_move_the_digest() {
        let spec = small_spec();
        let with_other_seed = FleetSpec { seed: spec.seed + 1, ..spec.clone() };
        let a = run_fleet(&spec, RunOptions::default()).expect("run").0;
        let b = run_fleet(&with_other_seed, RunOptions::default()).expect("run").0;
        assert_ne!(a.train_digest, b.train_digest);
    }

    #[test]
    fn shard_count_is_clamped_to_the_cell_count() {
        let spec = FleetSpec {
            trains: 4,
            corridor_km: 2.0, // 2 cells
            duration_s: 5.0,
            ..FleetSpec::default()
        };
        let (report, _) =
            run_fleet(&spec, RunOptions { shards: 64, threads: 1 }).expect("run");
        assert_eq!(report.cells, 2);
    }

    #[test]
    fn invalid_specs_are_rejected_before_running() {
        let spec = FleetSpec { trains: 0, ..FleetSpec::default() };
        let err = run_fleet(&spec, RunOptions::default()).expect_err("must reject");
        assert!(err.contains("fleet.trains"), "{err}");
    }
}
