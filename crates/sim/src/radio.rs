//! The radio environment: per-cell RSRP/SINR along the trajectory.
//!
//! Received power combines the deterministic rural-macro path loss
//! with per-site correlated log-normal shadowing. The per-cell SINR
//! divides by thermal noise *plus co-channel interference* from every
//! other cell on the same carrier (reuse-1): this is what makes the
//! cell boundary sharp — SINR crosses 0 dB right where the next cell
//! takes over and collapses quickly past it, which is exactly the
//! short execution window that breaks legacy handovers in extreme
//! mobility (§3). Fast fading is applied by the message-level link
//! model, not here — the slow envelope is what measurement reports
//! carry.

use rem_channel::radio::{
    rural_macro_carrier_db, rural_macro_distance_db, ShadowingStep, ShadowingTrack,
};
use rem_mobility::{CellId, Earfcn};
use rem_num::SimRng;

use crate::deployment::Deployment;

/// Shadowing configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShadowingCfg {
    /// Standard deviation (dB); rural macro is typically 4–8 dB.
    pub sigma_db: f64,
    /// Decorrelation distance (m).
    pub d_corr_m: f64,
}

impl Default for ShadowingCfg {
    fn default() -> Self {
        Self { sigma_db: 4.0, d_corr_m: 100.0 }
    }
}

/// One cell's instantaneous radio state as seen from the client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRadio {
    /// The cell.
    pub cell: CellId,
    /// RSRP in dBm.
    pub rsrp_dbm: f64,
    /// SINR in dB (thermal noise + co-channel interference).
    pub snr_db: f64,
}

/// The radio environment along a deployment.
pub struct RadioEnv {
    deployment: Deployment,
    shadowing_cfg: ShadowingCfg,
    /// Per site, indexed like `deployment.sites`.
    sites: Vec<SiteRadio>,
    // Per observed cell, in observation order: id, carrier, RSRP (dBm)
    // and its linear power. Reused across epochs.
    rx: Vec<(CellId, Earfcn, f64, f64)>,
    last_pos_m: f64,
    /// Extra attenuation inside coverage holes (dB).
    hole_extra_loss_db: f64,
    noise_figure_db: f64,
    /// [`noise_floor_dbm`](Self::noise_floor_dbm) as a linear power.
    noise_lin: f64,
}

/// What a site's cells share, and what each keeps, across epochs.
struct SiteRadio {
    /// Shadowing is a property of the propagation paths, i.e. of the
    /// *site*: co-sited cells share one track (they share the mast).
    track: ShadowingTrack,
    /// Per cell of the site, in order: the carrier term of its path
    /// loss, [`rural_macro_carrier_db`].
    carrier_db: Vec<f64>,
}

impl RadioEnv {
    /// Creates an environment over a deployment.
    ///
    /// # Panics
    ///
    /// If the sites are not ordered by track position (the order
    /// [`DeploymentSpec::generate`](crate::deployment::DeploymentSpec::generate)
    /// produces), because [`observe`](Self::observe) binary-searches it.
    pub fn new(deployment: Deployment, shadowing_cfg: ShadowingCfg) -> Self {
        assert!(
            deployment.sites.windows(2).all(|w| w[0].along_m <= w[1].along_m),
            "deployment sites must be ordered by track position"
        );
        let sites = deployment
            .sites
            .iter()
            .map(|site| SiteRadio {
                track: ShadowingTrack::default(),
                carrier_db: site
                    .cells
                    .iter()
                    .map(|c| rural_macro_carrier_db(c.carrier_hz))
                    .collect(),
            })
            .collect();
        let mut env = Self {
            deployment,
            shadowing_cfg,
            sites,
            rx: Vec::new(),
            last_pos_m: 0.0,
            hole_extra_loss_db: 40.0,
            noise_figure_db: 7.0,
            noise_lin: 0.0,
        };
        env.noise_lin = 10f64.powf(env.noise_floor_dbm() / 10.0);
        env
    }

    /// The deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Per-resource-element thermal noise floor (dBm):
    /// `-174 + 10 log10(15 kHz) + NF` (~-125 dBm). RSRP is per-RE, so
    /// the SINR uses the matching per-RE floor; co-channel
    /// interference is added per cell in [`observe`](Self::observe).
    pub fn noise_floor_dbm(&self) -> f64 {
        -174.0 + 10.0 * 15e3f64.log10() + self.noise_figure_db
    }

    /// Advances the client to `pos_m` and returns the radio state of
    /// every cell within `max_range_m` of the client, sorted by
    /// descending RSRP.
    pub fn observe(&mut self, pos_m: f64, max_range_m: f64, rng: &mut SimRng) -> Vec<CellRadio> {
        let mut out = Vec::new();
        self.observe_into(pos_m, max_range_m, rng, &mut out);
        out
    }

    /// [`observe`](Self::observe) into a caller-owned buffer (cleared
    /// first), so an epoch loop reusing it does not allocate.
    ///
    /// Per call, the shadowing step over the distance moved is computed
    /// once and advances every in-range site's track; per in-range site,
    /// the distance term of the path loss is computed once and added to
    /// each cell's carrier term (computed in [`new`](Self::new)). Each
    /// cell's interference is the sum of the linear powers of the other
    /// same-carrier cells, added in observation order (site order, then
    /// cell order within the site).
    pub fn observe_into(
        &mut self,
        pos_m: f64,
        max_range_m: f64,
        rng: &mut SimRng,
        out: &mut Vec<CellRadio>,
    ) {
        let delta = (pos_m - self.last_pos_m).abs();
        self.last_pos_m = pos_m;
        let in_hole = self.deployment.in_hole(pos_m);
        out.clear();
        self.rx.clear();

        // In range means `|along - pos| <= max_range`. The rounded
        // difference `along - pos` never decreases along the ordered
        // sites, so both ends of the in-range window are partition
        // points of it, and the window holds exactly those sites.
        let sites = &self.deployment.sites;
        let lo = sites.partition_point(|s| s.along_m - pos_m < -max_range_m);
        let hi = lo + sites[lo..].partition_point(|s| s.along_m - pos_m <= max_range_m);
        let step =
            ShadowingStep::new(self.shadowing_cfg.sigma_db, self.shadowing_cfg.d_corr_m, delta);
        // First pass: received powers (and each cell's carrier).
        for (site, radio) in sites[lo..hi].iter().zip(&mut self.sites[lo..hi]) {
            let dist = ((pos_m - site.along_m).powi(2) + site.lateral_m.powi(2)).sqrt();
            let distance_db = rural_macro_distance_db(dist);
            let shadow = radio.track.advance(rng, &step);
            for (cell, &carrier_db) in site.cells.iter().zip(&radio.carrier_db) {
                let mut rsrp = cell.tx_power_dbm - (distance_db + carrier_db) + shadow;
                if in_hole {
                    rsrp -= self.hole_extra_loss_db;
                }
                self.rx.push((cell.id, cell.earfcn, rsrp, 10f64.powf(rsrp / 10.0)));
            }
        }
        // Second pass: SINR with same-carrier (reuse-1) interference.
        for &(id, earfcn, rsrp, _) in &self.rx {
            let interference: f64 = self
                .rx
                .iter()
                .filter(|&&(oid, oearfcn, _, _)| oid != id && oearfcn == earfcn)
                .map(|&(_, _, _, p)| p)
                .sum();
            let sinr = rsrp - 10.0 * (self.noise_lin + interference).log10();
            out.push(CellRadio { cell: id, rsrp_dbm: rsrp, snr_db: sinr });
        }
        out.sort_by(|a, b| b.rsrp_dbm.partial_cmp(&a.rsrp_dbm).expect("RSRP is not NaN"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::deployment::{BaseStationId, DeploymentSpec};
    use rand::Rng;
    use rem_channel::radio::rural_macro_pl_db;
    use rem_num::rng::{rng_from_seed, standard_normal};
    use std::collections::HashMap;

    /// The observation `observe_into` must reproduce bit for bit: it
    /// clones each in-range site's cells, keys shadowing tracks by site
    /// id and advances each by its own AR(1) step, evaluates the whole
    /// path loss per cell, and `powf` once per same-carrier cell pair.
    struct ReferenceEnv {
        deployment: Deployment,
        shadowing_cfg: ShadowingCfg,
        /// Per site: the shadowing value (dB), once first drawn.
        tracks: HashMap<BaseStationId, f64>,
        last_pos_m: f64,
        noise_floor_dbm: f64,
    }

    impl ReferenceEnv {
        fn new(env: &RadioEnv) -> Self {
            Self {
                deployment: env.deployment.clone(),
                shadowing_cfg: env.shadowing_cfg,
                tracks: HashMap::new(),
                last_pos_m: 0.0,
                noise_floor_dbm: env.noise_floor_dbm(),
            }
        }

        fn observe(&mut self, pos_m: f64, max_range_m: f64, rng: &mut SimRng) -> Vec<CellRadio> {
            let delta = (pos_m - self.last_pos_m).abs();
            self.last_pos_m = pos_m;
            let in_hole = self.deployment.in_hole(pos_m);

            let mut out = Vec::new();
            let sites: Vec<(BaseStationId, f64, f64, Vec<crate::deployment::Cell>)> = self
                .deployment
                .sites
                .iter()
                .filter(|s| (s.along_m - pos_m).abs() <= max_range_m)
                .map(|s| (s.id, s.along_m, s.lateral_m, s.cells.clone()))
                .collect();
            let shadow_cfg = self.shadowing_cfg;
            let mut rx: Vec<(CellId, Earfcn, f64)> = Vec::new();
            for (bs, along, lateral, cells) in sites {
                let dist = ((pos_m - along).powi(2) + lateral.powi(2)).sqrt();
                let ShadowingCfg { sigma_db, d_corr_m } = shadow_cfg;
                let z = standard_normal(rng);
                let shadow = match self.tracks.get(&bs) {
                    None => sigma_db * z,
                    Some(&state) => {
                        let rho = (-delta.abs() / d_corr_m).exp();
                        rho * state + sigma_db * (1.0 - rho * rho).sqrt() * z
                    }
                };
                self.tracks.insert(bs, shadow);
                for cell in cells {
                    let mut rsrp =
                        cell.tx_power_dbm - rural_macro_pl_db(dist, cell.carrier_hz) + shadow;
                    if in_hole {
                        rsrp -= 40.0;
                    }
                    rx.push((cell.id, cell.earfcn, rsrp));
                }
            }
            let noise_lin = 10f64.powf(self.noise_floor_dbm / 10.0);
            for &(id, earfcn, rsrp) in &rx {
                let interference: f64 = rx
                    .iter()
                    .filter(|&&(oid, oearfcn, _)| oid != id && oearfcn == earfcn)
                    .map(|&(_, _, p)| 10f64.powf(p / 10.0))
                    .sum();
                let sinr = rsrp - 10.0 * (noise_lin + interference).log10();
                out.push(CellRadio { cell: id, rsrp_dbm: rsrp, snr_db: sinr });
            }
            out.sort_by(|a, b| b.rsrp_dbm.partial_cmp(&a.rsrp_dbm).unwrap());
            out
        }
    }

    #[test]
    fn observe_into_matches_the_per_pair_reference_bit_for_bit() {
        const RANGE_M: f64 = 4_000.0;
        let families = [
            DatasetSpec::beijing_taiyuan(30.0, 300.0),
            DatasetSpec::beijing_shanghai(30.0, 300.0),
            DatasetSpec::la_driving(12.0, 100.0),
            DatasetSpec::nr_smallcell(6.0, 120.0),
        ];
        for mut spec in families {
            // Two coverage holes on every route, so the sweep crosses one.
            spec.deployment.holes_per_100km = 2.0 * 100_000.0 / spec.deployment.route_m;
            let deployment = spec.deployment.generate(&mut rng_from_seed(11));
            let route_m = deployment.route_m;
            let hole = deployment.holes[0];
            let mut env = RadioEnv::new(
                deployment,
                ShadowingCfg { sigma_db: spec.shadow_sigma_db, d_corr_m: spec.shadow_dcorr_m },
            );
            let mut reference = ReferenceEnv::new(&env);

            // Past the start, a forward sweep, inside a hole, past the
            // end, then backwards into the route again.
            let beyond = [-RANGE_M - 500.0, route_m + RANGE_M + 500.0];
            let mut positions = vec![beyond[0]];
            positions.extend((0..).map(|i| i as f64 * 137.0).take_while(|&x| x <= route_m));
            positions.push((hole.start_m + hole.end_m) / 2.0);
            positions.push(beyond[1]);
            positions.extend([route_m * 0.7, route_m * 0.2, 0.0]);

            let bits = |obs: &[CellRadio]| -> Vec<(CellId, u64, u64)> {
                obs.iter().map(|c| (c.cell, c.rsrp_dbm.to_bits(), c.snr_db.to_bits())).collect()
            };
            let mut got_rng = rng_from_seed(12);
            let mut want_rng = rng_from_seed(12);
            let mut got = Vec::new();
            let mut observed_in_hole = false;
            for &pos in &positions {
                env.observe_into(pos, RANGE_M, &mut got_rng, &mut got);
                let want = reference.observe(pos, RANGE_M, &mut want_rng);
                assert_eq!(bits(&got), bits(&want), "{} at {pos} m", spec.name);
                if beyond.contains(&pos) {
                    assert!(got.is_empty(), "{}: a site in range at {pos} m", spec.name);
                }
                observed_in_hole |= hole.contains(pos) && !got.is_empty();
            }
            assert!(observed_in_hole, "{}: the sweep never observed inside a hole", spec.name);
            assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "{}: RNG state", spec.name);
        }
    }

    fn env() -> RadioEnv {
        let d = DeploymentSpec::hsr_default().generate(&mut rng_from_seed(1));
        RadioEnv::new(d, ShadowingCfg::default())
    }

    #[test]
    fn noise_floor_values() {
        let e = env();
        // Per-RE thermal: -174 + 41.8 + 7 = -125.2 dBm.
        assert!((e.noise_floor_dbm() + 125.2).abs() < 0.1);
    }

    #[test]
    fn observation_sorted_and_plausible() {
        let mut e = env();
        let mut rng = rng_from_seed(2);
        let obs = e.observe(5_000.0, 5_000.0, &mut rng);
        assert!(obs.len() >= 3);
        for w in obs.windows(2) {
            assert!(w[0].rsrp_dbm >= w[1].rsrp_dbm);
        }
        // Best cell should be in the dataset RSRP range (Table 4).
        assert!((-136.0..-59.0).contains(&obs[0].rsrp_dbm), "rsrp={}", obs[0].rsrp_dbm);
    }

    #[test]
    fn nearest_site_usually_strongest() {
        let mut e = env();
        let mut rng = rng_from_seed(3);
        let site_pos = e.deployment().sites[5].along_m;
        let site_id = e.deployment().sites[5].id;
        let obs = e.observe(site_pos, 4_000.0, &mut rng);
        let best_site = e.deployment().site_of(obs[0].cell).unwrap().id;
        // With modest shadowing the serving site is the nearest one
        // (allow the immediate neighbours as shadowing can flip order).
        let diff = (best_site.0 as i64 - site_id.0 as i64).abs();
        assert!(diff <= 1, "best={best_site:?} expected~{site_id:?}");
    }

    #[test]
    fn rsrp_decays_with_distance() {
        let mut e = env();
        let mut rng = rng_from_seed(4);
        let s = e.deployment().sites[10].clone();
        let cell = s.cells[0].id;
        let near = e
            .observe(s.along_m, 8_000.0, &mut rng)
            .into_iter()
            .find(|c| c.cell == cell)
            .unwrap()
            .rsrp_dbm;
        let far = e
            .observe(s.along_m + 3_000.0, 8_000.0, &mut rng)
            .into_iter()
            .find(|c| c.cell == cell)
            .unwrap()
            .rsrp_dbm;
        assert!(near > far + 10.0, "near={near} far={far}");
    }

    #[test]
    fn coverage_hole_suppresses_everything() {
        let mut e = env();
        let mut rng = rng_from_seed(5);
        let Some(h) = e.deployment().holes.first().copied() else {
            return; // this seed produced no holes
        };
        let mid = (h.start_m + h.end_m) / 2.0;
        let inside = e.observe(mid, 4_000.0, &mut rng);
        let outside = e.observe(h.end_m + 2_000.0, 4_000.0, &mut rng);
        if let (Some(i), Some(o)) = (inside.first(), outside.first()) {
            assert!(i.rsrp_dbm < o.rsrp_dbm - 20.0, "in={} out={}", i.rsrp_dbm, o.rsrp_dbm);
        }
    }

    #[test]
    fn sinr_bounded_by_thermal_snr() {
        // Interference can only lower SINR below RSRP - thermal floor.
        let mut e = env();
        let mut rng = rng_from_seed(6);
        let obs = e.observe(10_000.0, 4_000.0, &mut rng);
        let floor = e.noise_floor_dbm();
        for c in obs {
            assert!(c.snr_db <= c.rsrp_dbm - floor + 1e-9);
        }
    }

    #[test]
    fn boundary_sinr_is_near_zero() {
        // Equidistant between two same-carrier sites the serving SINR
        // is interference-limited: close to 0 dB (within shadowing).
        let mut e = env();
        let mut rng = rng_from_seed(7);
        let (a, b) = {
            let d = e.deployment();
            (d.sites[8].along_m, d.sites[9].along_m)
        };
        let mid = (a + b) / 2.0;
        let obs = e.observe(mid, 4_000.0, &mut rng);
        let best = obs[0];
        assert!((-10.0..12.0).contains(&best.snr_db), "sinr={}", best.snr_db);
    }
}
