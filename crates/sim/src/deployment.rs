//! Rail-line geometry and radio deployment.
//!
//! High-speed-rail coverage is effectively one-dimensional: trackside
//! base stations every 1–3 km at an 80–550 m lateral offset (paper
//! §5.2 cites that geometry), each hosting one to three cells on
//! different carriers — the paper's datasets show 53.4% of cells share
//! a base station with another cell (§3.1). Coverage holes (tunnels,
//! cuttings) appear as marked intervals along the track.

use rand::Rng;
use rem_mobility::{CellId, Earfcn};
use rem_num::SimRng;
use serde::{Deserialize, Serialize};

pub use rem_mobility::policy::BaseStationId;

/// A carrier frequency option in the deployment's spectrum plan.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CarrierPlan {
    /// Channel number.
    pub earfcn: Earfcn,
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
    /// Bandwidth in MHz (5/10/15/20 in the datasets).
    pub bandwidth_mhz: f64,
}

/// One cell of a base station.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Globally unique id.
    pub id: CellId,
    /// Hosting site.
    pub bs: BaseStationId,
    /// Frequency.
    pub earfcn: Earfcn,
    /// Carrier in Hz.
    pub carrier_hz: f64,
    /// Bandwidth in MHz.
    pub bandwidth_mhz: f64,
    /// Reference-signal EIRP per resource element in dBm.
    pub tx_power_dbm: f64,
}

/// A trackside site.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Site id.
    pub id: BaseStationId,
    /// Position along the track (m).
    pub along_m: f64,
    /// Lateral offset from the track (m).
    pub lateral_m: f64,
    /// Cells hosted here.
    pub cells: Vec<Cell>,
}

/// A no-coverage interval along the track (tunnel, deep cutting).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoverageHole {
    /// Start along the track (m).
    pub start_m: f64,
    /// End along the track (m).
    pub end_m: f64,
}

impl CoverageHole {
    /// Whether the position is inside the hole.
    pub fn contains(&self, x_m: f64) -> bool {
        x_m >= self.start_m && x_m < self.end_m
    }
}

/// The full radio deployment along a route.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// All sites ordered by track position.
    pub sites: Vec<Site>,
    /// Coverage holes.
    pub holes: Vec<CoverageHole>,
    /// Route length (m).
    pub route_m: f64,
}

impl Deployment {
    /// All cells of the deployment.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.sites.iter().flat_map(|s| s.cells.iter())
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.sites.iter().map(|s| s.cells.len()).sum()
    }

    /// 2-D distance from track position `x_m` to the site (m).
    pub fn distance_to_site(&self, site: &Site, x_m: f64) -> f64 {
        ((x_m - site.along_m).powi(2) + site.lateral_m.powi(2)).sqrt()
    }

    /// Whether `x_m` sits in a coverage hole.
    pub fn in_hole(&self, x_m: f64) -> bool {
        self.holes.iter().any(|h| h.contains(x_m))
    }

    /// Fraction of cells that share their site with another cell.
    pub fn cosited_fraction(&self) -> f64 {
        let total = self.num_cells();
        if total == 0 {
            return 0.0;
        }
        let cosited: usize =
            self.sites.iter().filter(|s| s.cells.len() > 1).map(|s| s.cells.len()).sum();
        cosited as f64 / total as f64
    }
}

/// What a replay reads of one cell, per epoch, by its id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CellFacts {
    /// Frequency.
    pub(crate) earfcn: Earfcn,
    /// Carrier in Hz.
    pub(crate) carrier_hz: f64,
    /// The hosting site.
    pub(crate) site: BaseStationId,
    /// The site's representative: its lowest cell id.
    pub(crate) representative: CellId,
}

/// A deployment's cells, dense by `CellId`: built once per replay, so
/// the epoch loop finds a cell's facts by indexing instead of searching
/// the sites. A cell id hosted twice keeps its first host in site order.
pub(crate) struct CellIndex(Vec<Option<CellFacts>>);

impl CellIndex {
    /// The index of `deployment`'s cells.
    pub(crate) fn new(deployment: &Deployment) -> Self {
        let len = deployment.cells().map(|c| c.id.0 as usize + 1).max().unwrap_or(0);
        let mut cells = vec![None; len];
        for site in &deployment.sites {
            let Some(representative) = site.cells.iter().map(|c| c.id).min() else { continue };
            for c in &site.cells {
                cells[c.id.0 as usize].get_or_insert(CellFacts {
                    earfcn: c.earfcn,
                    carrier_hz: c.carrier_hz,
                    site: site.id,
                    representative,
                });
            }
        }
        Self(cells)
    }

    /// One past the highest cell id: the length of a vector of
    /// per-cell state indexed by cell id.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The facts of cell `id`; `None` when the deployment has no such
    /// cell.
    pub(crate) fn get(&self, id: CellId) -> Option<&CellFacts> {
        self.0.get(id.0 as usize)?.as_ref()
    }
}

/// Deployment generation parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Route length in metres.
    pub route_m: f64,
    /// Mean site spacing along the track (m).
    pub site_spacing_m: f64,
    /// Lateral offset range (m) — the paper cites 80–550 m.
    pub lateral_range_m: (f64, f64),
    /// Spectrum plan; the first entry is the primary rail carrier.
    pub carriers: Vec<CarrierPlan>,
    /// Probability that a site hosts a second (co-sited,
    /// other-frequency) cell — calibrates the 53.4% co-siting stat.
    pub second_cell_prob: f64,
    /// Probability of a third cell given a second.
    pub third_cell_prob: f64,
    /// Reference-signal EIRP per resource element in dBm (RSRP is a
    /// per-RE quantity: a 46 dBm/20 MHz carrier is ~15 dBm per RE).
    pub tx_power_dbm: f64,
    /// Expected number of coverage holes per 100 km.
    pub holes_per_100km: f64,
    /// Hole length range (m).
    pub hole_len_m: (f64, f64),
}

impl DeploymentSpec {
    /// A typical Chinese HSR deployment plan (three LTE carriers).
    pub fn hsr_default() -> Self {
        Self {
            route_m: 200_000.0,
            site_spacing_m: 1_600.0,
            lateral_range_m: (80.0, 550.0),
            carriers: vec![
                CarrierPlan { earfcn: Earfcn(1825), carrier_hz: 1.86e9, bandwidth_mhz: 20.0 },
                CarrierPlan { earfcn: Earfcn(2452), carrier_hz: 2.59e9, bandwidth_mhz: 20.0 },
                CarrierPlan { earfcn: Earfcn(100), carrier_hz: 2.12e9, bandwidth_mhz: 10.0 },
            ],
            second_cell_prob: 0.36,
            third_cell_prob: 0.15,
            tx_power_dbm: 15.0,
            holes_per_100km: 2.0,
            hole_len_m: (300.0, 1_500.0),
        }
    }

    /// Generates a deployment.
    pub fn generate(&self, rng: &mut SimRng) -> Deployment {
        let mut sites = Vec::new();
        let mut next_cell = 0u32;
        let mut next_bs = 0u32;
        let mut along = self.site_spacing_m * 0.5;
        while along < self.route_m {
            let bs = BaseStationId(next_bs);
            next_bs += 1;
            let lateral = rng.gen_range(self.lateral_range_m.0..self.lateral_range_m.1);
            // Primary cell on the rail carrier; optional co-sited cells
            // on the other carriers.
            let mut cells = Vec::new();
            let mut carriers = vec![self.carriers[0]];
            if self.carriers.len() > 1 && rng.gen_bool(self.second_cell_prob) {
                carriers.push(self.carriers[1 + (next_bs as usize % (self.carriers.len() - 1))]);
                if self.carriers.len() > 2 && rng.gen_bool(self.third_cell_prob) {
                    let pick = 1 + ((next_bs as usize + 1) % (self.carriers.len() - 1));
                    if carriers.iter().all(|c| c.earfcn != self.carriers[pick].earfcn) {
                        carriers.push(self.carriers[pick]);
                    }
                }
            }
            for plan in carriers {
                cells.push(Cell {
                    id: CellId(next_cell),
                    bs,
                    earfcn: plan.earfcn,
                    carrier_hz: plan.carrier_hz,
                    bandwidth_mhz: plan.bandwidth_mhz,
                    tx_power_dbm: self.tx_power_dbm,
                });
                next_cell += 1;
            }
            sites.push(Site { id: bs, along_m: along, lateral_m: lateral, cells });
            // Jittered spacing.
            along += self.site_spacing_m * rng.gen_range(0.75..1.25);
        }

        // Coverage holes.
        let expected = self.holes_per_100km * self.route_m / 100_000.0;
        let n_holes = expected.floor() as usize
            + usize::from(rng.gen_bool(expected.fract().clamp(0.0, 1.0)));
        let mut holes = Vec::new();
        for _ in 0..n_holes {
            let len = rng.gen_range(self.hole_len_m.0..self.hole_len_m.1);
            let start = rng.gen_range(0.0..(self.route_m - len).max(1.0));
            holes.push(CoverageHole { start_m: start, end_m: start + len });
        }
        holes.sort_by(|a, b| a.start_m.partial_cmp(&b.start_m).unwrap());

        Deployment { sites, holes, route_m: self.route_m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    fn gen() -> Deployment {
        DeploymentSpec::hsr_default().generate(&mut rng_from_seed(1))
    }

    #[test]
    fn sites_span_route_in_order() {
        let d = gen();
        assert!(d.sites.len() > 100, "sites={}", d.sites.len());
        for w in d.sites.windows(2) {
            assert!(w[1].along_m > w[0].along_m);
        }
        assert!(d.sites.last().unwrap().along_m <= d.route_m);
    }

    #[test]
    fn unique_cell_ids() {
        let d = gen();
        let mut ids: Vec<u32> = d.cells().map(|c| c.id.0).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn cosited_fraction_matches_paper_ballpark() {
        // Paper §3.1: 53.4% of cells share a base station.
        let d = gen();
        let f = d.cosited_fraction();
        assert!((0.4..0.8).contains(&f), "cosited={f}");
    }

    #[test]
    fn lateral_offsets_in_range() {
        let d = gen();
        for s in &d.sites {
            assert!((80.0..550.0).contains(&s.lateral_m));
        }
    }

    #[test]
    fn distance_geometry() {
        let d = gen();
        let s = &d.sites[0];
        let at_site = d.distance_to_site(s, s.along_m);
        assert!((at_site - s.lateral_m).abs() < 1e-9);
        let away = d.distance_to_site(s, s.along_m + 1000.0);
        assert!(away > 1000.0 && away < 1000.0 + s.lateral_m);
    }

    #[test]
    fn holes_inside_route() {
        let d = gen();
        for h in &d.holes {
            assert!(h.start_m >= 0.0 && h.end_m <= d.route_m + 1500.0);
            assert!(h.end_m > h.start_m);
        }
        if let Some(h) = d.holes.first() {
            assert!(d.in_hole((h.start_m + h.end_m) / 2.0));
        }
        assert!(!d.in_hole(-1.0));
    }

    /// The facts of cell `id` by a linear scan of the sites: the
    /// lookup [`CellIndex`] replaces.
    fn scan(d: &Deployment, id: CellId) -> Option<CellFacts> {
        let site = d.sites.iter().find(|s| s.cells.iter().any(|c| c.id == id))?;
        let cell = site.cells.iter().find(|c| c.id == id)?;
        Some(CellFacts {
            earfcn: cell.earfcn,
            carrier_hz: cell.carrier_hz,
            site: site.id,
            representative: site.cells.iter().map(|c| c.id).min()?,
        })
    }

    /// Every id from 0 to past the highest, and the largest one, looks
    /// up in the index as in the scan.
    fn assert_index_matches_scan(d: &Deployment, what: &str) {
        let index = CellIndex::new(d);
        let top = d.cells().map(|c| c.id.0).max().expect("the deployment has cells");
        assert_eq!(index.len(), top as usize + 1, "{what}");
        for id in (0..top + 4).chain([u32::MAX]).map(CellId) {
            assert_eq!(index.get(id).copied(), scan(d, id), "{what}: {id:?}");
        }
    }

    #[test]
    fn lookup_functions() {
        let d = gen();
        let index = CellIndex::new(&d);
        let site = d.sites.iter().find(|s| s.cells.len() > 1).expect("a co-sited site");
        let c = site.cells[1];
        let facts = index.get(c.id).expect("a deployed cell");
        assert_eq!((facts.earfcn, facts.carrier_hz), (c.earfcn, c.carrier_hz));
        assert_eq!((facts.site, facts.representative), (c.bs, site.cells[0].id));
        assert!(index.get(CellId(999_999)).is_none());
    }

    #[test]
    fn lookups_agree_with_a_linear_scan() {
        use crate::dataset::DatasetSpec;
        let families = [
            DatasetSpec::beijing_taiyuan(30.0, 300.0),
            DatasetSpec::beijing_shanghai(30.0, 300.0),
            DatasetSpec::la_driving(12.0, 100.0),
            DatasetSpec::nr_smallcell(6.0, 120.0),
        ];
        for spec in families {
            let d = spec.deployment.generate(&mut rng_from_seed(3));
            assert!(d.sites.iter().any(|s| s.cells.len() > 1), "{}: no co-sited cells", spec.name);
            // Consecutive numbering: every id up to the last is a cell.
            let index = CellIndex::new(&d);
            let n = d.num_cells() as u32;
            assert!((0..n).all(|id| index.get(CellId(id)).is_some()), "{}", spec.name);
            assert_index_matches_scan(&d, &spec.name);
        }

        // Shuffled numbering: ids out of site order, spread out with
        // gaps and reversed within a site, and a site without cells.
        let mut shuffled = gen();
        shuffled.sites.truncate(40);
        let n = shuffled.num_cells() as u32;
        let mut ids: Vec<u32> = (0..n).map(|i| 3 * i + 1).collect();
        let mut rng = rng_from_seed(4);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut ids = ids.into_iter();
        for site in &mut shuffled.sites {
            for cell in &mut site.cells {
                cell.id = CellId(ids.next().expect("one id per cell"));
            }
        }
        shuffled.sites.swap(1, 30);
        shuffled.sites[2].cells.clear();
        shuffled.sites[3].cells.reverse();
        assert_index_matches_scan(&shuffled, "shuffled");
    }

    #[test]
    fn deterministic_generation() {
        let a = DeploymentSpec::hsr_default().generate(&mut rng_from_seed(9));
        let b = DeploymentSpec::hsr_default().generate(&mut rng_from_seed(9));
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    #[test]
    fn hole_boundaries_are_half_open() {
        let h = CoverageHole { start_m: 100.0, end_m: 200.0 };
        assert!(h.contains(100.0));
        assert!(h.contains(199.999));
        assert!(!h.contains(200.0));
        assert!(!h.contains(99.999));
    }

    #[test]
    fn single_carrier_deployment_has_no_cositing() {
        let spec = DeploymentSpec {
            carriers: vec![DeploymentSpec::hsr_default().carriers[0]],
            ..DeploymentSpec::hsr_default()
        };
        let d = spec.generate(&mut rng_from_seed(1));
        assert_eq!(d.cosited_fraction(), 0.0);
        assert!(d.sites.iter().all(|s| s.cells.len() == 1));
    }

    #[test]
    fn no_holes_when_rate_is_zero() {
        let spec = DeploymentSpec { holes_per_100km: 0.0, ..DeploymentSpec::hsr_default() };
        let d = spec.generate(&mut rng_from_seed(2));
        assert!(d.holes.is_empty());
        assert!(!d.in_hole(5_000.0));
    }
}
