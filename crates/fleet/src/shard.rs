//! One geographic shard: struct-of-arrays state for every train whose
//! *serving cell* falls in the shard's contiguous cell range.
//!
//! A shard is purely a container — the radio physics in
//! [`Shard::advance`] depends only on global corridor geometry, the
//! train's own carried state and the stateless draws of [`crate::rng`],
//! never on which shard hosts the train or on any neighbour's state.
//! That structural property is what makes the engine's results
//! bit-identical for every shard decomposition: moving a train between
//! shards moves its state verbatim and changes nothing it computes.
//!
//! Measurement-event evaluation is batched **per cell**: each epoch the
//! shard iterates its residents grouped by serving cell (a nearly
//! sorted index sort, cheap under pdqsort), so the serving-site and
//! neighbour geometry of a whole batch is computed once and the SoA
//! columns are walked in cache order — the Vienna-simulator style of
//! evaluation, instead of re-deriving the environment per UE.
//!
//! Each train's A3 time-to-trigger runs on its own `rem-mobility`
//! [`EventMonitor`] (see [`crate::params::Params::a3`]).

use crate::ids::{CellId, TrainId};
use crate::params::Params;
use crate::rng::{gauss, Stream};
use rem_mobility::EventMonitor;

/// What a train asks the epoch barrier for. At most one intent per
/// train per epoch, by construction of [`Shard::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntentKind {
    /// A3 fired: move the train (and its UE contexts) to `target`,
    /// subject to per-cell admission control.
    Handover,
    /// A radio-link failure timer expired: forced re-establishment on
    /// `target` (no admission gate — the train is already in outage).
    Reattach,
    /// The train left the corridor; capture its terminal record.
    Despawn,
}

/// One cross-shard event, exchanged at the epoch barrier and applied
/// in canonical train-id order.
#[derive(Clone, Copy, Debug)]
pub struct Intent {
    /// The train asking.
    pub train: TrainId,
    /// Target cell (ignored for despawns).
    pub target: CellId,
    /// What to do.
    pub kind: IntentKind,
}

/// A train's full carried state, as moved between shards. The SoA
/// columns of a shard are exactly these fields, exploded.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// Interned id.
    pub id: TrainId,
    /// Position along the corridor (m).
    pub pos_m: f64,
    /// Signed speed (m/s); negative for odd trains running east→west.
    pub speed_mps: f64,
    /// Serving cell.
    pub serving: CellId,
    /// A3 time-to-trigger state.
    pub a3: EventMonitor,
    /// Consecutive epochs below the RLF threshold.
    pub rlf_epochs: u16,
    /// Completed handovers.
    pub handovers: u32,
    /// Admission-denied handover attempts.
    pub denied: u32,
    /// Radio-link failures.
    pub rlfs: u32,
    /// UE signaling events processed.
    pub ue_events: u64,
    /// UE-level signaling failures.
    pub ue_failures: u64,
    /// Per-seat failure counts (saturating), `ues_per_train` long.
    pub ue_fail: Vec<u8>,
}

impl TrainState {
    /// A freshly spawned train at `pos_m` moving at `speed_mps`,
    /// served by `serving`, with `ues` clean UE contexts.
    pub fn spawn(id: TrainId, pos_m: f64, speed_mps: f64, serving: CellId, ues: u32) -> Self {
        Self {
            id,
            pos_m,
            speed_mps,
            serving,
            a3: EventMonitor::default(),
            rlf_epochs: 0,
            handovers: 0,
            denied: 0,
            rlfs: 0,
            ue_events: 0,
            ue_failures: 0,
            ue_fail: vec![0; ues as usize],
        }
    }
}

/// Struct-of-arrays state for the trains resident in one cell range.
#[derive(Debug, Default)]
pub struct Shard {
    /// First owned cell (inclusive).
    pub cell_lo: u32,
    /// One past the last owned cell.
    pub cell_hi: u32,
    id: Vec<u32>,
    pos_m: Vec<f64>,
    speed_mps: Vec<f64>,
    serving: Vec<u32>,
    a3: Vec<EventMonitor>,
    rlf_epochs: Vec<u16>,
    handovers: Vec<u32>,
    denied: Vec<u32>,
    rlfs: Vec<u32>,
    ue_events: Vec<u64>,
    ue_failures: Vec<u64>,
    /// Flat per-seat failure counts: row `i` is
    /// `ue_fail[i * ues_per_train .. (i + 1) * ues_per_train]`.
    ue_fail: Vec<u8>,
    ues_per_train: u32,
    /// Local index by train id (residency moves at epoch barriers, so
    /// this map only changes in the serial exchange phase).
    index_of: std::collections::HashMap<u32, u32>,
    /// Scratch: local indices sorted by (serving cell, train id) for
    /// the per-cell batched sweep.
    order: Vec<u32>,
}

impl Shard {
    /// An empty shard owning cells `cell_lo..cell_hi`.
    pub fn new(cell_lo: u32, cell_hi: u32, ues_per_train: u32) -> Self {
        Self { cell_lo, cell_hi, ues_per_train, ..Self::default() }
    }

    /// Resident train count.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no train is resident.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// True when this shard owns `cell`.
    pub fn owns(&self, cell: CellId) -> bool {
        (self.cell_lo..self.cell_hi).contains(&cell.0)
    }

    /// Adds a train; its serving cell must be owned by this shard.
    pub fn insert(&mut self, t: TrainState) {
        debug_assert!(self.owns(t.serving), "train routed to the wrong shard");
        debug_assert_eq!(t.ue_fail.len(), self.ues_per_train as usize);
        let local = self.id.len() as u32;
        self.index_of.insert(t.id.0, local);
        self.id.push(t.id.0);
        self.pos_m.push(t.pos_m);
        self.speed_mps.push(t.speed_mps);
        self.serving.push(t.serving.0);
        self.a3.push(t.a3);
        self.rlf_epochs.push(t.rlf_epochs);
        self.handovers.push(t.handovers);
        self.denied.push(t.denied);
        self.rlfs.push(t.rlfs);
        self.ue_events.push(t.ue_events);
        self.ue_failures.push(t.ue_failures);
        self.ue_fail.extend_from_slice(&t.ue_fail);
    }

    /// Removes a train by id (swap-remove across every column),
    /// returning its carried state. Panics if the train is not
    /// resident — the engine's residency index makes that a logic bug,
    /// not an input error.
    pub fn remove(&mut self, train: TrainId) -> TrainState {
        let local = *self.index_of.get(&train.0).expect("train resident in shard") as usize;
        let last = self.id.len() - 1;
        let u = self.ues_per_train as usize;
        let state = TrainState {
            id: TrainId(self.id[local]),
            pos_m: self.pos_m[local],
            speed_mps: self.speed_mps[local],
            serving: CellId(self.serving[local]),
            a3: self.a3[local],
            rlf_epochs: self.rlf_epochs[local],
            handovers: self.handovers[local],
            denied: self.denied[local],
            rlfs: self.rlfs[local],
            ue_events: self.ue_events[local],
            ue_failures: self.ue_failures[local],
            ue_fail: self.ue_fail[local * u..(local + 1) * u].to_vec(),
        };
        self.id.swap_remove(local);
        self.pos_m.swap_remove(local);
        self.speed_mps.swap_remove(local);
        self.serving.swap_remove(local);
        self.a3.swap_remove(local);
        self.rlf_epochs.swap_remove(local);
        self.handovers.swap_remove(local);
        self.denied.swap_remove(local);
        self.rlfs.swap_remove(local);
        self.ue_events.swap_remove(local);
        self.ue_failures.swap_remove(local);
        // Swap-remove the UE row: move the last row into the hole.
        if local != last {
            let (head, tail) = self.ue_fail.split_at_mut(last * u);
            head[local * u..local * u + u].copy_from_slice(&tail[..u]);
        }
        self.ue_fail.truncate(last * u);
        self.index_of.remove(&train.0);
        if local != last {
            self.index_of.insert(self.id[local], local as u32);
        }
        state
    }

    /// Records an admission denial against a resident train.
    pub fn deny(&mut self, train: TrainId) {
        let local = *self.index_of.get(&train.0).expect("train resident in shard") as usize;
        self.denied[local] += 1;
    }

    /// One fleet epoch over every resident train, batched per serving
    /// cell: advances positions, evaluates RLF and A3 time-to-trigger
    /// against the stateless shadowing draws, and appends at most one
    /// [`Intent`] per train to `out`.
    pub fn advance(&mut self, epoch: u32, p: &Params, out: &mut Vec<Intent>) {
        let n = self.id.len();
        self.order.clear();
        self.order.extend(0..n as u32);
        // Residency only changes at barriers, so this is nearly sorted
        // every epoch after the first — pdqsort's happy case.
        let serving = &self.serving;
        let id = &self.id;
        self.order.sort_unstable_by_key(|&i| (serving[i as usize], id[i as usize]));

        let mut k = 0;
        while k < n {
            let cell = self.serving[self.order[k] as usize];
            // Per-cell batch preamble: geometry shared by every train
            // the cell serves this epoch.
            let cell_x = p.cell_center_m(CellId(cell));
            let batch_end = {
                let mut e = k;
                while e < n && self.serving[self.order[e] as usize] == cell {
                    e += 1;
                }
                e
            };
            for &local in &self.order[k..batch_end] {
                let i = local as usize;
                self.pos_m[i] += self.speed_mps[i] * p.dt_s;
                let pos = self.pos_m[i];
                let train = TrainId(self.id[i]);
                if !(0.0..=p.corridor_m).contains(&pos) {
                    out.push(Intent { train, target: CellId(cell), kind: IntentKind::Despawn });
                    continue;
                }

                let gcell = p.cell_at(pos);
                let shadow_s = p.shadow_sigma_db
                    * gauss(p.seed, train.0 as u64, epoch as u64, Stream::ShadowServing);
                let rsrp_s = p.tx_dbm - p.pathloss_db((pos - cell_x).abs()) + shadow_s;

                // RLF: consecutive epochs below threshold expire into a
                // forced re-establishment on the geographically best cell.
                if rsrp_s < p.rlf_dbm {
                    self.rlf_epochs[i] += 1;
                } else {
                    self.rlf_epochs[i] = 0;
                }
                if self.rlf_epochs[i] >= p.rlf_epochs {
                    self.rlf_epochs[i] = 0;
                    self.a3[i].reset();
                    self.rlfs[i] += 1;
                    out.push(Intent { train, target: gcell, kind: IntentKind::Reattach });
                    continue;
                }

                // A3 against the strongest geographic neighbour.
                let Some(cand) = p.neighbor_of(CellId(cell), pos) else {
                    self.a3[i].reset();
                    continue;
                };
                let shadow_n = p.shadow_sigma_db
                    * gauss(p.seed, train.0 as u64, epoch as u64, Stream::ShadowNeighbor);
                let cand_x = p.cell_center_m(cand);
                let rsrp_n = p.tx_dbm - p.pathloss_db((pos - cand_x).abs()) + shadow_n;
                if a3_fires(&mut self.a3[i], p, epoch, rsrp_s, rsrp_n) {
                    out.push(Intent { train, target: cand, kind: IntentKind::Handover });
                }
            }
            k = batch_end;
        }
    }

    /// Drains every resident train (ascending train id), for terminal
    /// record collection at the end of the window.
    pub fn drain_states(&mut self) -> Vec<TrainState> {
        let mut ids: Vec<u32> = self.id.clone();
        ids.sort_unstable();
        ids.into_iter().map(|id| self.remove(TrainId(id))).collect()
    }
}

/// One epoch of a train's A3 time-to-trigger: observes the margin on
/// the train's monitor, clocked by the epoch index, and re-arms the
/// monitor when it fires. A train whose handover is then denied stays
/// on its serving cell and asks again one full time-to-trigger later.
fn a3_fires(a3: &mut EventMonitor, p: &Params, epoch: u32, rsrp_s: f64, rsrp_n: f64) -> bool {
    let fired = a3.observe(&p.a3, f64::from(epoch), rsrp_s, rsrp_n);
    if fired {
        a3.reset();
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{HYST_DB, TTT_MS};
    use crate::FleetSpec;

    fn params() -> Params {
        Params::from_spec(&FleetSpec::default())
    }

    fn train(id: u32, pos: f64, serving: u32) -> TrainState {
        TrainState::spawn(TrainId(id), pos, 80.0, CellId(serving), 4)
    }

    #[test]
    fn insert_remove_round_trips_every_column() {
        let p = params();
        let mut shard = Shard::new(0, 10, 4);
        let mut t = train(3, 1234.5, 1);
        t.handovers = 7;
        t.ue_fail = vec![1, 0, 2, 0];
        // A3 condition entered on epoch 10: with a 3-epoch wait it
        // fires on epoch 13.
        assert!(!t.a3.observe(&p.a3, 10.0, -100.0, -90.0));
        shard.insert(t.clone());
        shard.insert(train(9, 50.0, 0));
        let mut back = shard.remove(TrainId(3));
        assert_eq!(back.handovers, 7);
        assert_eq!(back.ue_fail, vec![1, 0, 2, 0]);
        assert_eq!(back.pos_m, 1234.5);
        assert!(back.a3.observe(&p.a3, 13.0, -100.0, -90.0));
        assert_eq!(shard.len(), 1);
        let other = shard.remove(TrainId(9));
        assert_eq!(other.pos_m, 50.0);
        assert!(shard.is_empty());
    }

    #[test]
    fn swap_remove_keeps_the_index_consistent() {
        let mut shard = Shard::new(0, 10, 4);
        for i in 0..5 {
            shard.insert(train(i, i as f64 * 100.0, 0));
        }
        // Removing from the middle moves the last row into the hole.
        shard.remove(TrainId(1));
        let last = shard.remove(TrainId(4));
        assert_eq!(last.pos_m, 400.0);
        shard.deny(TrainId(2));
        let t2 = shard.remove(TrainId(2));
        assert_eq!(t2.denied, 1);
    }

    #[test]
    fn advance_emits_at_most_one_intent_per_train() {
        let p = params();
        let mut shard = Shard::new(0, p.n_cells, 4);
        for i in 0..50 {
            let pos = 100.0 + i as f64 * 37.0;
            shard.insert(train(i, pos, p.cell_at(pos).0));
        }
        for epoch in 0..40 {
            let mut out = Vec::new();
            shard.advance(epoch, &p, &mut out);
            let mut trains: Vec<u32> = out.iter().map(|x| x.train.0).collect();
            trains.sort_unstable();
            trains.dedup();
            assert_eq!(trains.len(), out.len(), "duplicate intent for one train");
        }
    }

    #[test]
    fn despawn_fires_past_the_corridor_end() {
        let p = params();
        let mut shard = Shard::new(0, p.n_cells, 4);
        let mut t = train(0, p.corridor_m - 1.0, p.n_cells - 1);
        t.speed_mps = 100.0;
        shard.insert(t);
        let mut out = Vec::new();
        shard.advance(0, &p, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, IntentKind::Despawn);
    }

    /// Drives one stationary, unshadowed train served by cell 0 (site at
    /// 500 m; cell 1's at 1 500 m) through `advance`, one epoch per
    /// script letter, and returns the intents it produced. `H`: the
    /// neighbour is 22.6 dB ahead, so A3 holds; `D`: it is 0.65 dB
    /// ahead, so A3 does not hold; `N`: there is no neighbour cell; `R`:
    /// a one-epoch RLF timer expires.
    fn run_script(script: &str) -> Vec<(u32, IntentKind)> {
        let p = Params { shadow_sigma_db: 0.0, ..params() };
        let no_neighbour = Params { n_cells: 1, ..p.clone() };
        let rlf = Params { rlf_dbm: 0.0, rlf_epochs: 1, ..p.clone() };
        let mut shard = Shard::new(0, p.n_cells, 4);
        shard.insert(TrainState { speed_mps: 0.0, ..train(0, 0.0, 0) });
        let mut intents = Vec::new();
        for (epoch, step) in (0..).zip(script.chars().filter(|c| *c != ' ')) {
            let (pos_m, p) = match step {
                'H' => (1_300.0, &p),
                'D' => (1_010.0, &p),
                'N' => (1_300.0, &no_neighbour),
                _ => (1_300.0, &rlf),
            };
            shard.pos_m[0] = pos_m;
            let mut out = Vec::new();
            shard.advance(epoch, p, &mut out);
            intents.extend(out.iter().map(|x| (epoch, x.kind)));
        }
        intents
    }

    #[test]
    fn a3_trigger_counts_consecutive_epochs_and_rearms() {
        use IntentKind::{Handover, Reattach};
        // 400 ms at 100 ms epochs: the fourth consecutive epoch the
        // condition holds fires. In groups of four epochs: a dip
        // restarts the count; a full run fires (7); a train still on its
        // cell, as after a denial, fires again one TTT later (11); losing
        // the neighbour (15) and an RLF (19) restart the count.
        let intents = run_script("HHHD HHHH HHHH HHHN HHHR HHHH");
        assert_eq!(intents, [(7, Handover), (11, Handover), (19, Reattach), (23, Handover)]);
    }

    /// The trigger fires on exactly the epochs a consecutive-epoch
    /// counter does, for every time-to-trigger of 1 to 8 epochs.
    /// Margins stay away from zero: on an exact tie
    /// (`rsrp_n == rsrp_s + HYST_DB`) the counter restarts while the
    /// monitor neither enters nor leaves.
    #[test]
    fn a3_trigger_matches_a_consecutive_epoch_counter() {
        let mut fires = 0;
        rem_integration::check(
            "fleet_a3_trigger_matches_a_consecutive_epoch_counter",
            128,
            |g| {
                let ttt_epochs = g.range(1u16..=8);
                let first_epoch = g.range(0u32..100_000);
                let rsrp_s = g.range(-120.0f64..-60.0);
                let margins = g.vec(1..64, |g| {
                    // Mostly holding, so long runs occur.
                    let sign = if g.range(0..5) > 0 { 1.0 } else { -1.0 };
                    sign * g.range(0.01f64..6.0)
                });
                (ttt_epochs, first_epoch, rsrp_s, margins)
            },
            |(ttt_epochs, first_epoch, rsrp_s, margins)| {
                // ceil(TTT_MS / epoch_ms) == ttt_epochs, half an epoch
                // away from either rounding edge.
                let epoch_ms = TTT_MS / (f64::from(*ttt_epochs) - 0.5);
                let p = Params::from_spec(&FleetSpec { epoch_ms, ..FleetSpec::default() });
                let mut monitor = EventMonitor::default();
                let mut held = 0;
                for (epoch, m) in (*first_epoch..).zip(margins) {
                    let rsrp_n = rsrp_s + HYST_DB + m;
                    held = if rsrp_n > rsrp_s + HYST_DB { held + 1 } else { 0 };
                    let want = held == *ttt_epochs;
                    if want {
                        held = 0;
                        fires += 1;
                    }
                    let got = a3_fires(&mut monitor, &p, epoch, *rsrp_s, rsrp_n);
                    assert_eq!(got, want, "epoch {epoch}");
                }
            },
        );
        assert!(fires > 100, "the cases must exercise the trigger: {fires} fires");
    }
}
