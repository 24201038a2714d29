//! Derived, engine-internal constants of one fleet run.
//!
//! [`Params`] is compiled once from a [`crate::FleetSpec`] and then
//! shared read-only across every shard and thread: everything the hot
//! loop needs, pre-resolved (epoch counts, thresholds, corridor
//! geometry), so the per-train work touches no `f64::ceil` or division
//! it does not have to.
//!
//! The radio constants echo the single-train simulator's semantics at
//! fleet fidelity: a UMa-style log-distance pathloss, log-normal
//! shadowing, a 3 dB / 400 ms A3 rule and a 1 s radio-link-failure
//! timer. They are constants, not knobs — the fleet engine answers
//! *rate and scale* questions; per-parameter studies belong to
//! `rem-sim`'s 20 ms replay.
//!
//! The A3 rule is a `rem-mobility` [`EventConfig`]: every train
//! evaluates it on its own [`EventMonitor`], the same time-to-trigger
//! code `rem-sim` runs, clocked by the epoch index instead of
//! milliseconds (see [`Params::a3`]).
//!
//! [`EventMonitor`]: rem_mobility::EventMonitor

use crate::ids::CellId;
use crate::spec::FleetSpec;
use rem_mobility::events::{EventConfig, EventKind};

/// A3 margin (dB) by which the neighbour must beat the serving cell,
/// matching the single-train simulator's A3 rule.
pub const HYST_DB: f64 = 3.0;
/// A3 time-to-trigger (ms).
pub const TTT_MS: f64 = 400.0;
/// Site transmit power (dBm).
pub const TX_DBM: f64 = 30.0;
/// Log-normal shadowing sigma (dB). Draws are per `(train, epoch)` and
/// uncorrelated across epochs — coarser than `rem-sim`'s distance-
/// correlated field, which is the fidelity the 100 ms epoch buys.
pub const SHADOW_SIGMA_DB: f64 = 4.0;
/// RSRP below which the radio-link-failure timer runs (dBm).
pub const RLF_DBM: f64 = -110.0;
/// Radio-link-failure timer (ms).
pub const RLF_TIMER_MS: f64 = 1_000.0;
/// Train-level handovers one cell can admit per epoch. Beyond this the
/// attempt is denied and the train re-arms its time-to-trigger — the
/// fleet-scale mechanism that turns clustered arrivals into the
/// signaling storms the paper's §2.3 measures.
pub const ADMISSION_PER_EPOCH: u32 = 8;
/// Per-UE probability that one handover's context transfer fails.
pub const P_UE_HO_FAIL: f64 = 0.01;
/// Per-UE failure probability during an RLF re-establishment storm.
pub const P_UE_REATTACH_FAIL: f64 = 0.05;

/// Pre-resolved run constants (see module docs).
#[derive(Clone, Debug)]
pub struct Params {
    /// Base seed for every stateless draw.
    pub seed: u64,
    /// UE contexts per train.
    pub ues_per_train: u32,
    /// Epoch length (s).
    pub dt_s: f64,
    /// Corridor length (m).
    pub corridor_m: f64,
    /// Site spacing (m).
    pub spacing_m: f64,
    /// Cells in the deployment.
    pub n_cells: u32,
    /// Site transmit power (dBm).
    pub tx_dbm: f64,
    /// Shadowing sigma (dB).
    pub shadow_sigma_db: f64,
    /// The A3 rule: the neighbour beats the serving cell by more than
    /// [`HYST_DB`] for the whole time-to-trigger. The monitors that run
    /// it are clocked by the epoch index, so `ttt_ms` counts *epochs*:
    /// [`TTT_MS`] rounded up to whole epochs (at least one), less the
    /// epoch on which the condition first holds.
    pub a3: EventConfig,
    /// RLF threshold (dBm).
    pub rlf_dbm: f64,
    /// RLF timer, in whole epochs (at least 1).
    pub rlf_epochs: u16,
    /// Per-cell handover admissions per epoch.
    pub admission_per_epoch: u32,
    /// Per-UE handover failure probability.
    pub p_ue_ho_fail: f64,
    /// Per-UE re-establishment failure probability.
    pub p_ue_reattach_fail: f64,
}

impl Params {
    /// Compiles a validated spec into run constants.
    pub fn from_spec(spec: &FleetSpec) -> Self {
        let epochs_of = |ms: f64| ((ms / spec.epoch_ms).ceil() as u16).max(1);
        Self {
            seed: spec.seed,
            ues_per_train: spec.ues_per_train,
            dt_s: spec.epoch_ms / 1_000.0,
            corridor_m: spec.corridor_km * 1_000.0,
            spacing_m: spec.cell_spacing_m,
            n_cells: spec.n_cells(),
            tx_dbm: TX_DBM,
            shadow_sigma_db: SHADOW_SIGMA_DB,
            a3: EventConfig {
                kind: EventKind::A3 { offset: HYST_DB },
                ttt_ms: f64::from(epochs_of(TTT_MS) - 1),
                hysteresis_db: 0.0,
            },
            rlf_dbm: RLF_DBM,
            rlf_epochs: epochs_of(RLF_TIMER_MS),
            admission_per_epoch: ADMISSION_PER_EPOCH,
            p_ue_ho_fail: P_UE_HO_FAIL,
            p_ue_reattach_fail: P_UE_REATTACH_FAIL,
        }
    }

    /// The cell whose site is nearest to `pos_m` (clamped to the
    /// corridor, so out-of-range positions still resolve).
    #[inline]
    pub fn cell_at(&self, pos_m: f64) -> CellId {
        let raw = (pos_m / self.spacing_m).floor();
        let clamped = raw.max(0.0).min((self.n_cells - 1) as f64);
        CellId(clamped as u32)
    }

    /// Site coordinate of a cell (m): sites sit at the centre of their
    /// coverage stripe.
    #[inline]
    pub fn cell_center_m(&self, cell: CellId) -> f64 {
        (cell.0 as f64 + 0.5) * self.spacing_m
    }

    /// UMa-style log-distance pathloss (dB), floored at 10 m so a
    /// train directly under a site stays finite.
    #[inline]
    pub fn pathloss_db(&self, d_m: f64) -> f64 {
        128.1 + 37.6 * (d_m.max(10.0) / 1_000.0).log10()
    }

    /// The geographically strongest neighbour of `serving` for a train
    /// at `pos_m`: the adjacent site on the train's side of the
    /// serving site, or the cell under the train when it has already
    /// outrun its serving stripe. `None` only at a corridor end with
    /// no further cell.
    #[inline]
    pub fn neighbor_of(&self, serving: CellId, pos_m: f64) -> Option<CellId> {
        let under = self.cell_at(pos_m);
        if under != serving {
            return Some(under);
        }
        let center = self.cell_center_m(serving);
        let step: i64 = if pos_m >= center { 1 } else { -1 };
        let cand = serving.0 as i64 + step;
        if (0..self.n_cells as i64).contains(&cand) {
            Some(CellId(cand as u32))
        } else {
            // At the corridor edge, try the inward side instead.
            let inward = serving.0 as i64 - step;
            (0..self.n_cells as i64).contains(&inward).then_some(CellId(inward as u32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::from_spec(&FleetSpec::default())
    }

    #[test]
    fn cell_lookup_clamps_to_the_corridor() {
        let p = params();
        assert_eq!(p.cell_at(-5.0), CellId(0));
        assert_eq!(p.cell_at(0.0), CellId(0));
        assert_eq!(p.cell_at(1_500.0), CellId(1));
        assert_eq!(p.cell_at(p.corridor_m + 100.0), CellId(p.n_cells - 1));
    }

    #[test]
    fn pathloss_grows_with_distance_and_stays_finite_at_zero() {
        let p = params();
        assert!(p.pathloss_db(0.0).is_finite());
        assert!(p.pathloss_db(1_500.0) > p.pathloss_db(500.0));
    }

    #[test]
    fn neighbor_follows_the_direction_of_travel() {
        let p = params();
        // Train past its serving site: next cell is the neighbour.
        assert_eq!(p.neighbor_of(CellId(3), 3_900.0), Some(CellId(4)));
        // Train behind its serving site: previous cell.
        assert_eq!(p.neighbor_of(CellId(3), 3_100.0), Some(CellId(2)));
        // Train that outran its stripe entirely: the cell under it.
        assert_eq!(p.neighbor_of(CellId(3), 5_600.0), Some(CellId(5)));
        // Corridor edge bends inward instead of returning None.
        assert_eq!(p.neighbor_of(CellId(0), 100.0), Some(CellId(1)));
        let last = CellId(p.n_cells - 1);
        let end = p.corridor_m - 10.0;
        assert_eq!(p.neighbor_of(last, end), Some(CellId(p.n_cells - 2)));
    }

    #[test]
    fn timer_conversion_rounds_up_and_floors_at_one_epoch() {
        let spec = FleetSpec { epoch_ms: 300.0, ..FleetSpec::default() };
        let p = Params::from_spec(&spec);
        // 400 ms at 300 ms epochs is 2 epochs: the one the condition
        // first holds on, plus one more on the monitor's epoch clock.
        assert_eq!(p.a3.ttt_ms, 1.0);
        let coarse = FleetSpec { epoch_ms: 5_000.0, ..FleetSpec::default() };
        let p = Params::from_spec(&coarse);
        assert_eq!(p.a3.ttt_ms, 0.0, "one epoch: fires on the first");
        assert_eq!(p.rlf_epochs, 1);
    }
}
