//! The fleet workload description: corridor geometry, spawn schedule
//! and radio policy knobs, plus the execution hints (shard count) that
//! never move the result.

use serde::{Deserialize, Serialize};

/// One fleet campaign: a bidirectional rail corridor, a spawn schedule
/// of trains and the simulated window to run them for.
///
/// The spec is the *identity* of a run — [`fingerprint`] digests its
/// canonical JSON — while shard and thread counts are execution knobs:
/// the engine produces bit-identical results for every decomposition,
/// so `shards` here is only the default the CLI starts from.
///
/// [`fingerprint`]: FleetSpec::fingerprint
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Trains in the spawn schedule. Odd-numbered trains run the
    /// corridor in the opposite direction, so both ends stay loaded.
    pub trains: u32,
    /// Passengers with an active session per train. Per-UE state is
    /// only touched at handover events, so this scales the signaling
    /// load, not the mobility hot loop.
    pub ues_per_train: u32,
    /// Corridor length (km). Cells are laid out uniformly along it.
    pub corridor_km: f64,
    /// Site spacing (m) of the uniform corridor deployment.
    pub cell_spacing_m: f64,
    /// Nominal line speed (km/h).
    pub speed_kmh: f64,
    /// Per-train speed jitter as a fraction of the line speed: train
    /// speeds are drawn once at spawn from
    /// `speed_kmh * (1 ± speed_jitter)`.
    pub speed_jitter: f64,
    /// Departure headway (s) between consecutive trains at each
    /// corridor end.
    pub headway_s: f64,
    /// Simulated window (s).
    pub duration_s: f64,
    /// Fleet epoch (ms) — the cross-shard exchange cadence. Coarser
    /// than the single-train simulator's 20 ms tick: fleet-scale
    /// questions are about event *rates*, not per-report timing.
    pub epoch_ms: f64,
    /// Base seed. Every stochastic draw is a stateless hash of
    /// `(seed, train, epoch, purpose)`, never a sequential stream, so
    /// the schedule of draws cannot depend on shard or thread count.
    pub seed: u64,
    /// Default shard count for the CLI / scenario lowering. Execution
    /// hint only: results are bit-identical for every value.
    pub shards: u32,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self {
            trains: 64,
            ues_per_train: 100,
            corridor_km: 60.0,
            cell_spacing_m: 1_000.0,
            speed_kmh: 300.0,
            speed_jitter: 0.1,
            headway_s: 10.0,
            duration_s: 120.0,
            epoch_ms: 100.0,
            seed: 7,
            shards: 4,
        }
    }
}

impl FleetSpec {
    /// Number of cells in the corridor deployment (at least 2, so a
    /// handover is always possible).
    pub fn n_cells(&self) -> u32 {
        let n = (self.corridor_km * 1_000.0 / self.cell_spacing_m).ceil() as u32;
        n.max(2)
    }

    /// Epochs in the simulated window (at least 1).
    pub fn n_epochs(&self) -> u32 {
        let n = (self.duration_s * 1_000.0 / self.epoch_ms).ceil() as u32;
        n.max(1)
    }

    /// Total UEs across the schedule.
    pub fn total_ues(&self) -> u64 {
        self.trains as u64 * self.ues_per_train as u64
    }

    /// The first field outside its domain, as `(field, value, reason)`,
    /// e.g. `("trains", 0.0, "must be >= 1")`; `None` when the spec is
    /// valid.
    pub fn invalid_field(&self) -> Option<(&'static str, f64, &'static str)> {
        let counts = [
            ("trains", self.trains),
            ("ues_per_train", self.ues_per_train),
            ("shards", self.shards),
        ];
        if let Some((f, n)) = counts.into_iter().find(|&(_, n)| n == 0) {
            return Some((f, f64::from(n), "must be >= 1"));
        }
        let positive = [
            ("corridor_km", self.corridor_km),
            ("cell_spacing_m", self.cell_spacing_m),
            ("speed_kmh", self.speed_kmh),
            ("headway_s", self.headway_s),
            ("duration_s", self.duration_s),
            ("epoch_ms", self.epoch_ms),
        ];
        if let Some((f, v)) = positive.into_iter().find(|&(_, v)| !v.is_finite() || v <= 0.0) {
            return Some((f, v, "must be finite and > 0"));
        }
        if !self.speed_jitter.is_finite() || !(0.0..1.0).contains(&self.speed_jitter) {
            return Some(("speed_jitter", self.speed_jitter, "must be in [0, 1)"));
        }
        None
    }

    /// [`FleetSpec::invalid_field`] as a message with the dotted field
    /// path (`fleet.trains: must be >= 1 (got 0)`): an invalid spec
    /// never reaches the engine.
    pub fn validate(&self) -> Result<(), String> {
        match self.invalid_field() {
            Some((field, value, reason)) => Err(format!("fleet.{field}: {reason} (got {value})")),
            None => Ok(()),
        }
    }

    /// Canonical campaign fingerprint: hand-rolled JSON of the spec in
    /// declaration order, the same string run manifests store in
    /// `spec_json` so `rem rerun` can replay a fleet run from the
    /// manifest alone. Floats use Rust's shortest round-trip `Display`,
    /// so `serde_json::from_str` recovers the spec exactly.
    pub fn fingerprint(&self) -> String {
        format!(
            concat!(
                "{{\"trains\":{},\"ues_per_train\":{},\"corridor_km\":{},",
                "\"cell_spacing_m\":{},\"speed_kmh\":{},\"speed_jitter\":{},",
                "\"headway_s\":{},\"duration_s\":{},\"epoch_ms\":{},",
                "\"seed\":{},\"shards\":{}}}"
            ),
            self.trains,
            self.ues_per_train,
            self.corridor_km,
            self.cell_spacing_m,
            self.speed_kmh,
            self.speed_jitter,
            self.headway_s,
            self.duration_s,
            self.epoch_ms,
            self.seed,
            self.shards,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FleetSpec::default().validate().expect("default spec is valid");
    }

    #[test]
    fn geometry_floors_hold() {
        let spec = FleetSpec {
            corridor_km: 0.1,
            duration_s: 0.01,
            ..FleetSpec::default()
        };
        assert_eq!(spec.n_cells(), 2, "a corridor always has a handover target");
        assert_eq!(spec.n_epochs(), 1);
    }

    #[test]
    fn validation_reports_dotted_paths() {
        let spec = FleetSpec { trains: 0, ..FleetSpec::default() };
        let err = spec.validate().expect_err("zero trains must fail");
        assert!(err.contains("fleet.trains"), "{err}");
        let spec = FleetSpec { speed_jitter: 1.5, ..FleetSpec::default() };
        let err = spec.validate().expect_err("jitter >= 1 must fail");
        assert!(err.contains("fleet.speed_jitter"), "{err}");
    }

    #[test]
    fn fingerprint_round_trips_through_serde() {
        let spec = FleetSpec { trains: 123, seed: 99, ..FleetSpec::default() };
        let json = spec.fingerprint();
        let back: FleetSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, spec);
    }
}
