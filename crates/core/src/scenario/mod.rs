//! Declarative scenario files (`REMSCENARIO1`): one TOML document that
//! composes trajectory, cell deployment, channel profile, policy mix,
//! fault schedule and run policy into every campaign entry point.
//!
//! Before this module, each workload family lived as a hard-coded Rust
//! constructor plus a pile of per-subcommand CLI flags; expressing a
//! *new* scenario (an urban drive, a metro line with tunnels) meant
//! writing code. A [`ScenarioSpec`] is instead a versioned value loaded
//! from a small TOML file (see `scenarios/` at the repo root) that
//! compiles into the existing [`CampaignSpec`], [`BlerScenario`] and
//! [`TrainScenario`] types — the same deterministic machinery, one
//! declarative front door.
//!
//! Design rules:
//!
//! * **Calibration-preserving.** A scenario names a calibrated dataset
//!   family (`bt|bs|la|nr`) and overrides only what it sets: a file
//!   that sets nothing but the family, route and speed produces a
//!   campaign *bit-identical* to the hard-coded constructor (CI gates
//!   `scenarios/hsr_beijing_shanghai.toml` against the flag-default
//!   `rem compare --hash`).
//! * **Versioned and closed.** The document must carry
//!   `format = "REMSCENARIO1"`; unknown fields are errors, not
//!   warnings, so a typo cannot silently change an experiment.
//! * **Typed errors.** Every failure is a [`ScenarioError`] with a
//!   field path (`cells.second_cell_prob`, line numbers for syntax),
//!   folded into [`ExperimentError`](crate::ExperimentError) and
//!   mapped to the CLI's usage exit code (2).

mod toml;

use crate::checkpoint::RunPolicy;
use crate::experiment::CampaignSpec;
use rem_channel::models::ChannelModel;
use rem_faults::{ChaosConfig, FaultConfig, NetFaultConfig};
use rem_fleet::FleetSpec;
use rem_mobility::Earfcn;
use rem_phy::link::{BlerScenario, Waveform};
use rem_sim::deployment::CarrierPlan;
use rem_sim::{DatasetSpec, Plane, RunConfig, SpeedProfile, TrainScenario};
use std::collections::BTreeMap;
use std::path::Path;
use toml::Toml;

/// Version tag every scenario file must carry in its `format` field.
pub const SCENARIO_FORMAT: &str = "REMSCENARIO1";

/// Everything that can go wrong loading or validating a scenario file.
///
/// Each variant carries enough context to point at the offending file,
/// line or field; the CLI maps all of them to the usage exit code (2)
/// because a bad scenario is a bad invocation, not a failed campaign.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// Reading the file failed.
    Io {
        /// File involved.
        path: String,
        /// Underlying OS error.
        reason: String,
    },
    /// The document is not parseable TOML (subset).
    Syntax {
        /// 1-based source line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The `format` field is missing or names another version.
    Version {
        /// What the file declared (empty when absent).
        found: String,
    },
    /// A required field is absent.
    Missing {
        /// Dotted field path, e.g. `trajectory.speed_kmh`.
        path: String,
    },
    /// A field the schema does not define (typo guard).
    Unknown {
        /// Dotted field path of the unrecognized key.
        path: String,
    },
    /// A field holds the wrong type or an unrecognized keyword.
    BadValue {
        /// Dotted field path.
        path: String,
        /// What the schema expects there.
        expected: String,
        /// What the file contained.
        found: String,
    },
    /// A field parsed but its value is physically meaningless.
    OutOfRange {
        /// Dotted field path.
        path: String,
        /// The offending value, rendered.
        value: String,
        /// Why it is rejected.
        reason: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io { path, reason } => {
                write!(f, "cannot read scenario {path}: {reason}")
            }
            ScenarioError::Syntax { line, message } => {
                write!(f, "scenario syntax error at line {line}: {message}")
            }
            ScenarioError::Version { found } if found.is_empty() => {
                write!(f, "scenario file declares no format (expected format = \"{SCENARIO_FORMAT}\")")
            }
            ScenarioError::Version { found } => {
                write!(f, "scenario format '{found}' is not {SCENARIO_FORMAT}")
            }
            ScenarioError::Missing { path } => {
                write!(f, "scenario field '{path}' is required")
            }
            ScenarioError::Unknown { path } => {
                write!(f, "unknown scenario field '{path}'")
            }
            ScenarioError::BadValue { path, expected, found } => {
                write!(f, "scenario field '{path}' expects {expected}, got {found}")
            }
            ScenarioError::OutOfRange { path, value, reason } => {
                write!(f, "scenario field '{path}' is out of range: {reason} (got {value})")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which calibrated dataset family the scenario starts from. The
/// family fixes every knob the file does not override, so calibration
/// lives in one place ([`DatasetSpec`]'s constructors) and scenario
/// files stay small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Beijing–Taiyuan-like fine-grained HSR corridor (`bt`).
    BeijingTaiyuan,
    /// Beijing–Shanghai-like coarse-grained HSR corridor (`bs`).
    BeijingShanghai,
    /// Los-Angeles-like low-mobility driving routes (`la`).
    LaDriving,
    /// 5G-like dense small-cell deployment (`nr`).
    NrSmallcell,
}

impl Family {
    /// Parses the CLI/scenario short code (`bt|bs|la|nr`).
    pub fn from_code(code: &str) -> Option<Self> {
        match code {
            "bt" => Some(Family::BeijingTaiyuan),
            "bs" => Some(Family::BeijingShanghai),
            "la" => Some(Family::LaDriving),
            "nr" => Some(Family::NrSmallcell),
            _ => None,
        }
    }

    /// The short code (`bt|bs|la|nr`).
    pub fn code(&self) -> &'static str {
        match self {
            Family::BeijingTaiyuan => "bt",
            Family::BeijingShanghai => "bs",
            Family::LaDriving => "la",
            Family::NrSmallcell => "nr",
        }
    }

    /// The family's calibrated [`DatasetSpec`] at a route/speed.
    pub fn dataset(&self, route_km: f64, speed_kmh: f64) -> DatasetSpec {
        match self {
            Family::BeijingTaiyuan => DatasetSpec::beijing_taiyuan(route_km, speed_kmh),
            Family::BeijingShanghai => DatasetSpec::beijing_shanghai(route_km, speed_kmh),
            Family::LaDriving => DatasetSpec::la_driving(route_km, speed_kmh),
            Family::NrSmallcell => DatasetSpec::nr_smallcell(route_km, speed_kmh),
        }
    }
}

/// Speed profile in scenario form (`[trajectory] profile = ...`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProfileSpec {
    /// Constant cruise for the whole route.
    Constant,
    /// Station stops (see [`SpeedProfile::Stations`]).
    Stations {
        /// Distance between stops (m).
        stop_every_m: f64,
        /// Dwell time at each stop (s).
        dwell_s: f64,
        /// Acceleration/braking magnitude (m/s²).
        accel_ms2: f64,
    },
}

impl ProfileSpec {
    /// The simulator's [`SpeedProfile`] equivalent.
    pub fn to_speed_profile(self) -> SpeedProfile {
        match self {
            ProfileSpec::Constant => SpeedProfile::Constant,
            ProfileSpec::Stations { stop_every_m, dwell_s, accel_ms2 } => {
                SpeedProfile::Stations { stop_every_m, dwell_s, accel_ms2 }
            }
        }
    }
}

/// `[trajectory]` — how the client moves.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectorySpec {
    /// Cruise speed (km/h). Required.
    pub speed_kmh: f64,
    /// Route length (km). Required.
    pub route_km: f64,
    /// Speed profile (constant cruise by default).
    pub profile: ProfileSpec,
}

/// `[cells]` — which deployment family, plus optional overrides.
/// `None` means "use the family's calibrated value".
#[derive(Clone, Debug, PartialEq)]
pub struct CellsSpec {
    /// Dataset family the deployment starts from. Required.
    pub family: Family,
    /// Mean site spacing along the track (m).
    pub site_spacing_m: Option<f64>,
    /// Lateral offset range (m), as `[min, max]`.
    pub lateral_range_m: Option<(f64, f64)>,
    /// Spectrum plan override: rows of `[earfcn, carrier_hz,
    /// bandwidth_mhz]`; the first row is the primary carrier.
    pub carriers: Option<Vec<CarrierPlan>>,
    /// Probability a site hosts a second co-sited cell.
    pub second_cell_prob: Option<f64>,
    /// Probability of a third cell given a second.
    pub third_cell_prob: Option<f64>,
    /// Reference-signal EIRP per resource element (dBm).
    pub tx_power_dbm: Option<f64>,
    /// Expected structural coverage holes per 100 km.
    pub holes_per_100km: Option<f64>,
    /// Hole length range (m), as `[min, max]`.
    pub hole_len_m: Option<(f64, f64)>,
}

/// `[channel]` — radio environment overrides.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelSpec {
    /// Shadowing sigma (dB).
    pub shadow_sigma_db: Option<f64>,
    /// Shadowing decorrelation distance (m).
    pub shadow_dcorr_m: Option<f64>,
    /// REM cross-band estimation error std (dB).
    pub rem_estimation_err_db: Option<f64>,
}

/// Which signaling plane(s) a scenario runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlaneMix {
    /// Paired legacy-vs-REM comparison (the default).
    #[default]
    Both,
    /// Legacy plane only.
    Legacy,
    /// REM plane only.
    Rem,
}

/// `[policy]` — handover-policy mix and plane selection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicySpec {
    /// Plane mix (`both`, the default, drives `rem compare`;
    /// single-plane commands fall back to `legacy` when `both`).
    pub plane: PlaneMix,
    /// Whether REM clamps negative A3 offsets (Theorem 2 repair).
    pub rem_clamp_offsets: Option<bool>,
    /// Fraction of proactively-configured neighbour relations.
    pub proactive_prob: Option<f64>,
    /// The proactive (negative) A3 offset (dB).
    pub proactive_offset_db: Option<f64>,
    /// The conservative A3 offset (dB).
    pub normal_offset_db: Option<f64>,
    /// Intra-frequency time-to-trigger (ms).
    pub intra_ttt_ms: Option<f64>,
    /// Inter-frequency time-to-trigger (ms).
    pub inter_ttt_ms: Option<f64>,
    /// Intra-frequency measurement staleness (ms).
    pub intra_staleness_ms: Option<f64>,
    /// Inter-frequency measurement staleness (ms).
    pub inter_staleness_ms: Option<f64>,
    /// REM's measurement staleness (ms).
    pub rem_staleness_ms: Option<f64>,
}

/// `[link]` — the coded-signaling link study (`rem bler`).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkSpec {
    /// 3GPP channel statistics (`hst|eva|etu|epa`).
    pub model: ChannelModel,
    /// Average SNR per block (dB).
    pub snr_db: f64,
    /// Monte-Carlo blocks per waveform.
    pub blocks: usize,
    /// Master seed for the BLER trials.
    pub seed: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        // The CLI's `rem bler` flag defaults.
        Self { model: ChannelModel::Hst, snr_db: 6.0, blocks: 200, seed: 1 }
    }
}

/// `[faults]` — fault schedule riding on [`FaultConfig`]. The section's
/// *presence* enables injection; every field defaults to the stock
/// [`FaultConfig::default`] value, scaled by `rate_scale` at the end.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultsSpec {
    /// Multiplier applied to every arrival rate after the overrides.
    pub rate_scale: Option<f64>,
    /// Measurement-report fault windows per minute.
    pub feedback_per_min: Option<f64>,
    /// Handover-command fault windows per minute.
    pub command_per_min: Option<f64>,
    /// X2 backhaul fault windows per minute.
    pub x2_per_min: Option<f64>,
    /// Measurement-masking windows per minute.
    pub mask_per_min: Option<f64>,
    /// Injected coverage-hole windows per minute (tunnels!).
    pub hole_per_min: Option<f64>,
    /// Width of signaling-fault and masking windows (ms).
    pub window_ms: Option<f64>,
    /// Width of injected coverage holes (ms).
    pub hole_ms: Option<f64>,
    /// Extra latency of delaying feedback faults (ms).
    pub extra_delay_ms: Option<f64>,
    /// Fraction of feedback faults that delay instead of drop.
    pub delay_frac: Option<f64>,
    /// Fraction of feedback/command faults that corrupt instead of drop.
    pub corrupt_frac: Option<f64>,
    /// TCP bursty-loss windows per minute.
    pub tcp_burst_per_min: Option<f64>,
    /// Burst width (ms).
    pub burst_ms: Option<f64>,
    /// Packet loss probability inside a burst.
    pub burst_loss_prob: Option<f64>,
}

impl FaultsSpec {
    /// The concrete [`FaultConfig`]: stock defaults, field overrides,
    /// then the rate scale.
    pub fn to_config(&self) -> FaultConfig {
        let mut c = FaultConfig::default();
        macro_rules! ov {
            ($($f:ident),*) => { $( if let Some(v) = self.$f { c.$f = v; } )* };
        }
        ov!(
            feedback_per_min, command_per_min, x2_per_min, mask_per_min, hole_per_min,
            window_ms, hole_ms, extra_delay_ms, delay_frac, corrupt_frac,
            tcp_burst_per_min, burst_ms, burst_loss_prob
        );
        c.scaled(self.rate_scale.unwrap_or(1.0))
    }
}

/// `[net]` — transport-pathology mix riding on [`NetFaultConfig`], the
/// fault schedule of the `rem net` stall study. The section's
/// *presence* enables the study; every field defaults to the stock
/// [`NetFaultConfig::default`] value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetSpec {
    /// Bufferbloat episodes per minute.
    pub bloat_per_min: Option<f64>,
    /// Bufferbloat episode width (ms).
    pub bloat_ms: Option<f64>,
    /// Bottleneck drain rate inside a bloat episode (packets/ms).
    pub bloat_drain_pkts_per_ms: Option<f64>,
    /// Bottleneck queue capacity (packets).
    pub bloat_queue_pkts: Option<f64>,
    /// Cross-traffic backlog at episode onset (packets).
    pub bloat_standing_pkts: Option<f64>,
    /// Jitter episodes per minute.
    pub jitter_per_min: Option<f64>,
    /// Jitter episode width (ms).
    pub jitter_ms: Option<f64>,
    /// Maximum per-packet delay spike inside a jitter episode (ms).
    pub jitter_spike_ms: Option<f64>,
    /// Silent NAT rebind events per minute.
    pub rebind_per_min: Option<f64>,
    /// Handover-aligned outage bursts per minute.
    pub outage_per_min: Option<f64>,
    /// Outage burst width (ms).
    pub outage_ms: Option<f64>,
    /// Transfer window of one study trial (ms).
    pub window_ms: Option<f64>,
    /// Base random-loss probability of the study link.
    pub loss_prob: Option<f64>,
}

impl NetSpec {
    /// The concrete [`NetFaultConfig`]: stock defaults with this
    /// section's overrides applied.
    pub fn to_config(&self) -> NetFaultConfig {
        let mut c = NetFaultConfig::default();
        macro_rules! ov {
            ($($f:ident),*) => { $( if let Some(v) = self.$f { c.$f = v; } )* };
        }
        ov!(
            bloat_per_min, bloat_ms, bloat_drain_pkts_per_ms, bloat_queue_pkts,
            bloat_standing_pkts, jitter_per_min, jitter_ms, jitter_spike_ms,
            rebind_per_min, outage_per_min, outage_ms
        );
        c
    }
}

/// `[run]` — trial counts, worker threads and crash-safety knobs.
/// Defaults mirror the CLI's flag defaults so a scenario only states
/// what it changes.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Seeds to replay under (`seeds = 2` in TOML expands to `[1, 2]`).
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = all available).
    pub threads: usize,
    /// Trials per checkpoint wave.
    pub checkpoint_every: usize,
    /// Panicking-trial retries before quarantine.
    pub max_retries: u32,
    /// Per-trial deadline (ms), detection only.
    pub trial_timeout_ms: Option<u64>,
    /// Chaos panic rate in `[0, 1]` (`0` = chaos off).
    pub chaos_panic_rate: f64,
    /// Whether chaos panics persist past retries.
    pub chaos_fatal: bool,
    /// Chaos stream seed.
    pub chaos_seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            seeds: vec![1, 2],
            threads: 0,
            checkpoint_every: 16,
            max_retries: 1,
            trial_timeout_ms: None,
            chaos_panic_rate: 0.0,
            chaos_fatal: false,
            chaos_seed: 7,
        }
    }
}

/// `[train]` — the whole-train signaling-storm study (`rem train`).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainSpec {
    /// Active clients spread over the train.
    pub clients: usize,
    /// Train length (m).
    pub train_len_m: f64,
    /// Burst window (ms).
    pub window_ms: f64,
    /// Base seed of the multi-client campaign.
    pub seed: u64,
}

impl Default for TrainSpec {
    fn default() -> Self {
        // The CLI's `rem train` flag defaults.
        Self { clients: 8, train_len_m: 400.0, window_ms: 1_000.0, seed: 7 }
    }
}

/// One declarative scenario: a versioned TOML document compiled into
/// the repository's campaign entry points. See the module docs for the
/// design rules and `scenarios/` for calibrated examples.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (manifest provenance; the dataset keeps its
    /// family's display name so fingerprints stay calibration-stable).
    pub name: String,
    /// Client trajectory.
    pub trajectory: TrajectorySpec,
    /// Deployment family and overrides.
    pub cells: CellsSpec,
    /// Radio-environment overrides.
    pub channel: ChannelSpec,
    /// Policy mix and plane selection.
    pub policy: PolicySpec,
    /// Link-study parameters.
    pub link: LinkSpec,
    /// Fault schedule; `None` replays the clean environment.
    pub faults: Option<FaultsSpec>,
    /// Transport-pathology mix; `None` leaves `rem net` on its stock
    /// schedule.
    pub net: Option<NetSpec>,
    /// Fleet-scale corridor campaign (`rem fleet`); `None` leaves the
    /// command on its flag defaults.
    pub fleet: Option<FleetSpec>,
    /// Run policy.
    pub run: RunSpec,
    /// Whole-train study parameters.
    pub train: TrainSpec,
}

impl ScenarioSpec {
    /// A minimal scenario over `family` at `route_km`/`speed_kmh` with
    /// every other knob at its calibrated/CLI default.
    pub fn new(name: &str, family: Family, route_km: f64, speed_kmh: f64) -> Self {
        Self {
            name: name.to_string(),
            trajectory: TrajectorySpec { speed_kmh, route_km, profile: ProfileSpec::Constant },
            cells: CellsSpec {
                family,
                site_spacing_m: None,
                lateral_range_m: None,
                carriers: None,
                second_cell_prob: None,
                third_cell_prob: None,
                tx_power_dbm: None,
                holes_per_100km: None,
                hole_len_m: None,
            },
            channel: ChannelSpec::default(),
            policy: PolicySpec::default(),
            link: LinkSpec::default(),
            faults: None,
            net: None,
            fleet: None,
            run: RunSpec::default(),
            train: TrainSpec::default(),
        }
    }

    /// Loads and fully validates a scenario file.
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let body = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_toml(&body)
    }

    /// Parses and fully validates a scenario document.
    pub fn from_toml(src: &str) -> Result<Self, ScenarioError> {
        let mut doc = toml::parse(src)
            .map_err(|e| ScenarioError::Syntax { line: e.line, message: e.message })?;

        // Version gate before anything else: a future-format file must
        // fail with Version, not with spurious unknown-field errors.
        let format = match doc.remove("format") {
            Some(Toml::Str(s)) => s,
            Some(other) => {
                return Err(bad("format", "a string", &other));
            }
            None => String::new(),
        };
        if format != SCENARIO_FORMAT {
            return Err(ScenarioError::Version { found: format });
        }

        let name = match doc.remove("name") {
            Some(Toml::Str(s)) => s,
            Some(other) => return Err(bad("name", "a string", &other)),
            None => return Err(ScenarioError::Missing { path: "name".into() }),
        };
        if name.trim().is_empty() {
            return Err(ScenarioError::OutOfRange {
                path: "name".into(),
                value: format!("{name:?}"),
                reason: "must be non-empty".into(),
            });
        }

        let trajectory = read_trajectory(&mut take_table(&mut doc, "trajectory")?
            .ok_or_else(|| ScenarioError::Missing { path: "trajectory".into() })?)?;
        let cells = read_cells(&mut take_table(&mut doc, "cells")?
            .ok_or_else(|| ScenarioError::Missing { path: "cells".into() })?)?;
        let channel = match take_table(&mut doc, "channel")? {
            Some(mut t) => read_channel(&mut t)?,
            None => ChannelSpec::default(),
        };
        let policy = match take_table(&mut doc, "policy")? {
            Some(mut t) => read_policy(&mut t)?,
            None => PolicySpec::default(),
        };
        let link = match take_table(&mut doc, "link")? {
            Some(mut t) => read_link(&mut t)?,
            None => LinkSpec::default(),
        };
        let faults = match take_table(&mut doc, "faults")? {
            Some(mut t) => Some(read_faults(&mut t)?),
            None => None,
        };
        let net = match take_table(&mut doc, "net")? {
            Some(mut t) => Some(read_net(&mut t)?),
            None => None,
        };
        let fleet = match take_table(&mut doc, "fleet")? {
            Some(mut t) => Some(read_fleet(&mut t)?),
            None => None,
        };
        let run = match take_table(&mut doc, "run")? {
            Some(mut t) => read_run(&mut t)?,
            None => RunSpec::default(),
        };
        let train = match take_table(&mut doc, "train")? {
            Some(mut t) => read_train(&mut t)?,
            None => TrainSpec::default(),
        };
        if let Some(key) = doc.keys().next() {
            return Err(ScenarioError::Unknown { path: key.clone() });
        }

        let spec = Self {
            name,
            trajectory,
            cells,
            channel,
            policy,
            link,
            faults,
            net,
            fleet,
            run,
            train,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the scenario back to canonical TOML. The output
    /// parses to an equal [`ScenarioSpec`] (round-trip lossless) and is
    /// what [`ScenarioSpec::fingerprint`] digests.
    pub fn to_toml(&self) -> String {
        use toml::{escape, fmt_f64};
        let mut s = String::new();
        let kv_str = |s: &mut String, k: &str, v: &str| {
            s.push_str(&format!("{k} = \"{}\"\n", escape(v)));
        };
        let kv_f = |s: &mut String, k: &str, v: f64| {
            s.push_str(&format!("{k} = {}\n", fmt_f64(v)));
        };
        let kv_of = |s: &mut String, k: &str, v: Option<f64>| {
            if let Some(v) = v {
                kv_f(s, k, v);
            }
        };
        let kv_i = |s: &mut String, k: &str, v: u64| {
            s.push_str(&format!("{k} = {v}\n"));
        };
        let kv_b = |s: &mut String, k: &str, v: bool| {
            s.push_str(&format!("{k} = {v}\n"));
        };
        let kv_pair = |s: &mut String, k: &str, v: Option<(f64, f64)>| {
            if let Some((a, b)) = v {
                s.push_str(&format!("{k} = [{}, {}]\n", fmt_f64(a), fmt_f64(b)));
            }
        };

        kv_str(&mut s, "format", SCENARIO_FORMAT);
        kv_str(&mut s, "name", &self.name);

        s.push_str("\n[trajectory]\n");
        kv_f(&mut s, "speed_kmh", self.trajectory.speed_kmh);
        kv_f(&mut s, "route_km", self.trajectory.route_km);
        match self.trajectory.profile {
            ProfileSpec::Constant => kv_str(&mut s, "profile", "constant"),
            ProfileSpec::Stations { stop_every_m, dwell_s, accel_ms2 } => {
                kv_str(&mut s, "profile", "stations");
                kv_f(&mut s, "stop_every_m", stop_every_m);
                kv_f(&mut s, "dwell_s", dwell_s);
                kv_f(&mut s, "accel_ms2", accel_ms2);
            }
        }

        s.push_str("\n[cells]\n");
        kv_str(&mut s, "family", self.cells.family.code());
        kv_of(&mut s, "site_spacing_m", self.cells.site_spacing_m);
        kv_pair(&mut s, "lateral_range_m", self.cells.lateral_range_m);
        if let Some(carriers) = &self.cells.carriers {
            let rows: Vec<String> = carriers
                .iter()
                .map(|c| {
                    format!(
                        "[{}, {}, {}]",
                        c.earfcn.0,
                        fmt_f64(c.carrier_hz),
                        fmt_f64(c.bandwidth_mhz)
                    )
                })
                .collect();
            s.push_str(&format!("carriers = [{}]\n", rows.join(", ")));
        }
        kv_of(&mut s, "second_cell_prob", self.cells.second_cell_prob);
        kv_of(&mut s, "third_cell_prob", self.cells.third_cell_prob);
        kv_of(&mut s, "tx_power_dbm", self.cells.tx_power_dbm);
        kv_of(&mut s, "holes_per_100km", self.cells.holes_per_100km);
        kv_pair(&mut s, "hole_len_m", self.cells.hole_len_m);

        if self.channel != ChannelSpec::default() {
            s.push_str("\n[channel]\n");
            kv_of(&mut s, "shadow_sigma_db", self.channel.shadow_sigma_db);
            kv_of(&mut s, "shadow_dcorr_m", self.channel.shadow_dcorr_m);
            kv_of(&mut s, "rem_estimation_err_db", self.channel.rem_estimation_err_db);
        }

        s.push_str("\n[policy]\n");
        kv_str(
            &mut s,
            "plane",
            match self.policy.plane {
                PlaneMix::Both => "both",
                PlaneMix::Legacy => "legacy",
                PlaneMix::Rem => "rem",
            },
        );
        if let Some(v) = self.policy.rem_clamp_offsets {
            kv_b(&mut s, "rem_clamp_offsets", v);
        }
        kv_of(&mut s, "proactive_prob", self.policy.proactive_prob);
        kv_of(&mut s, "proactive_offset_db", self.policy.proactive_offset_db);
        kv_of(&mut s, "normal_offset_db", self.policy.normal_offset_db);
        kv_of(&mut s, "intra_ttt_ms", self.policy.intra_ttt_ms);
        kv_of(&mut s, "inter_ttt_ms", self.policy.inter_ttt_ms);
        kv_of(&mut s, "intra_staleness_ms", self.policy.intra_staleness_ms);
        kv_of(&mut s, "inter_staleness_ms", self.policy.inter_staleness_ms);
        kv_of(&mut s, "rem_staleness_ms", self.policy.rem_staleness_ms);

        s.push_str("\n[link]\n");
        kv_str(
            &mut s,
            "model",
            match self.link.model {
                ChannelModel::Hst => "hst",
                ChannelModel::Eva => "eva",
                ChannelModel::Etu => "etu",
                ChannelModel::Epa => "epa",
            },
        );
        kv_f(&mut s, "snr_db", self.link.snr_db);
        kv_i(&mut s, "blocks", self.link.blocks as u64);
        kv_i(&mut s, "seed", self.link.seed);

        if let Some(fs) = &self.faults {
            s.push_str("\n[faults]\n");
            kv_of(&mut s, "rate_scale", fs.rate_scale);
            kv_of(&mut s, "feedback_per_min", fs.feedback_per_min);
            kv_of(&mut s, "command_per_min", fs.command_per_min);
            kv_of(&mut s, "x2_per_min", fs.x2_per_min);
            kv_of(&mut s, "mask_per_min", fs.mask_per_min);
            kv_of(&mut s, "hole_per_min", fs.hole_per_min);
            kv_of(&mut s, "window_ms", fs.window_ms);
            kv_of(&mut s, "hole_ms", fs.hole_ms);
            kv_of(&mut s, "extra_delay_ms", fs.extra_delay_ms);
            kv_of(&mut s, "delay_frac", fs.delay_frac);
            kv_of(&mut s, "corrupt_frac", fs.corrupt_frac);
            kv_of(&mut s, "tcp_burst_per_min", fs.tcp_burst_per_min);
            kv_of(&mut s, "burst_ms", fs.burst_ms);
            kv_of(&mut s, "burst_loss_prob", fs.burst_loss_prob);
        }

        if let Some(ns) = &self.net {
            s.push_str("\n[net]\n");
            kv_of(&mut s, "bloat_per_min", ns.bloat_per_min);
            kv_of(&mut s, "bloat_ms", ns.bloat_ms);
            kv_of(&mut s, "bloat_drain_pkts_per_ms", ns.bloat_drain_pkts_per_ms);
            kv_of(&mut s, "bloat_queue_pkts", ns.bloat_queue_pkts);
            kv_of(&mut s, "bloat_standing_pkts", ns.bloat_standing_pkts);
            kv_of(&mut s, "jitter_per_min", ns.jitter_per_min);
            kv_of(&mut s, "jitter_ms", ns.jitter_ms);
            kv_of(&mut s, "jitter_spike_ms", ns.jitter_spike_ms);
            kv_of(&mut s, "rebind_per_min", ns.rebind_per_min);
            kv_of(&mut s, "outage_per_min", ns.outage_per_min);
            kv_of(&mut s, "outage_ms", ns.outage_ms);
            kv_of(&mut s, "window_ms", ns.window_ms);
            kv_of(&mut s, "loss_prob", ns.loss_prob);
        }

        if let Some(fl) = &self.fleet {
            s.push_str("\n[fleet]\n");
            kv_i(&mut s, "trains", fl.trains as u64);
            kv_i(&mut s, "ues_per_train", fl.ues_per_train as u64);
            kv_f(&mut s, "corridor_km", fl.corridor_km);
            kv_f(&mut s, "cell_spacing_m", fl.cell_spacing_m);
            kv_f(&mut s, "speed_kmh", fl.speed_kmh);
            kv_f(&mut s, "speed_jitter", fl.speed_jitter);
            kv_f(&mut s, "headway_s", fl.headway_s);
            kv_f(&mut s, "duration_s", fl.duration_s);
            kv_f(&mut s, "epoch_ms", fl.epoch_ms);
            kv_i(&mut s, "seed", fl.seed);
            kv_i(&mut s, "shards", fl.shards as u64);
        }

        s.push_str("\n[run]\n");
        let seeds: Vec<String> = self.run.seeds.iter().map(|v| v.to_string()).collect();
        s.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
        kv_i(&mut s, "threads", self.run.threads as u64);
        kv_i(&mut s, "checkpoint_every", self.run.checkpoint_every as u64);
        kv_i(&mut s, "max_retries", self.run.max_retries as u64);
        if let Some(t) = self.run.trial_timeout_ms {
            kv_i(&mut s, "trial_timeout_ms", t);
        }
        kv_f(&mut s, "chaos_panic_rate", self.run.chaos_panic_rate);
        kv_b(&mut s, "chaos_fatal", self.run.chaos_fatal);
        kv_i(&mut s, "chaos_seed", self.run.chaos_seed);

        s.push_str("\n[train]\n");
        kv_i(&mut s, "clients", self.train.clients as u64);
        kv_f(&mut s, "train_len_m", self.train.train_len_m);
        kv_f(&mut s, "window_ms", self.train.window_ms);
        kv_i(&mut s, "seed", self.train.seed);
        s
    }

    /// Structural validation with field paths. `from_toml` calls this,
    /// so a loaded scenario is always valid; call it again after
    /// mutating a spec in code (e.g. applying CLI overrides).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let pos = |path: &str, v: f64| -> Result<(), ScenarioError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(range(path, v, "must be finite and > 0"));
            }
            Ok(())
        };
        pos("trajectory.speed_kmh", self.trajectory.speed_kmh)?;
        pos("trajectory.route_km", self.trajectory.route_km)?;
        if let ProfileSpec::Stations { stop_every_m, dwell_s, accel_ms2 } =
            self.trajectory.profile
        {
            pos("trajectory.stop_every_m", stop_every_m)?;
            pos("trajectory.accel_ms2", accel_ms2)?;
            if !dwell_s.is_finite() || dwell_s < 0.0 {
                return Err(range("trajectory.dwell_s", dwell_s, "must be finite and >= 0"));
            }
            // The accelerate+brake ramp must fit between stops, or
            // Trajectory::new would panic deep in the simulator.
            let v = self.trajectory.speed_kmh / 3.6;
            let ramp = v * v / accel_ms2;
            if stop_every_m <= ramp {
                return Err(range(
                    "trajectory.stop_every_m",
                    stop_every_m,
                    &format!("stops too close for the accelerate+brake ramp (need > {ramp:.0} m at this speed)"),
                ));
            }
        }
        for (path, v) in [
            ("cells.second_cell_prob", self.cells.second_cell_prob),
            ("cells.third_cell_prob", self.cells.third_cell_prob),
            ("policy.proactive_prob", self.policy.proactive_prob),
        ] {
            if let Some(p) = v {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(range(path, p, "must be a probability in [0, 1]"));
                }
            }
        }
        if self.run.seeds.is_empty() {
            return Err(ScenarioError::OutOfRange {
                path: "run.seeds".into(),
                value: "[]".into(),
                reason: "must list at least one seed".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.run.chaos_panic_rate) {
            return Err(range(
                "run.chaos_panic_rate",
                self.run.chaos_panic_rate,
                "must be a probability in [0, 1]",
            ));
        }
        if self.link.blocks == 0 {
            return Err(range("link.blocks", 0.0, "must be >= 1"));
        }
        if self.train.clients == 0 {
            return Err(range("train.clients", 0.0, "must be >= 1"));
        }
        pos("train.train_len_m", self.train.train_len_m)?;
        pos("train.window_ms", self.train.window_ms)?;
        // Backstop: everything the overrides can perturb goes through
        // the dataset's own validator (lateral ranges, carriers...).
        self.dataset().validate().map_err(|reason| ScenarioError::OutOfRange {
            path: "cells".into(),
            value: "<derived dataset>".into(),
            reason,
        })?;
        if let Some(fs) = &self.faults {
            // The fields as set, then the rate scale on top: a scaled
            // rate leaves its domain only through `rate_scale` when the
            // unscaled one is valid.
            let unscaled = FaultsSpec { rate_scale: None, ..fs.clone() };
            if let Some((field, value, reason)) = unscaled.to_config().invalid_field() {
                return Err(range(&format!("faults.{field}"), value, reason));
            }
            if let Some((_, _, reason)) = fs.to_config().invalid_field() {
                return Err(range("faults.rate_scale", fs.rate_scale.unwrap_or(1.0), reason));
            }
        }
        if let Some(net) = self.net_study_spec() {
            if let Some((field, value, reason)) = net.invalid_field() {
                return Err(range(&format!("net.{field}"), value, reason));
            }
        }
        if let Some(fl) = &self.fleet {
            if let Some((field, value, reason)) = fl.invalid_field() {
                return Err(range(&format!("fleet.{field}"), value, reason));
            }
        }
        Ok(())
    }

    /// The concrete [`DatasetSpec`]: the family's calibrated values
    /// with this scenario's overrides applied. The dataset keeps the
    /// family's display name, so a scenario that overrides nothing is
    /// byte-identical to the hard-coded constructor (the CI hash gate
    /// depends on this).
    pub fn dataset(&self) -> DatasetSpec {
        let mut d = self
            .cells
            .family
            .dataset(self.trajectory.route_km, self.trajectory.speed_kmh);
        d.speed_profile = self.trajectory.profile.to_speed_profile();
        let dep = &mut d.deployment;
        if let Some(v) = self.cells.site_spacing_m {
            dep.site_spacing_m = v;
        }
        if let Some(v) = self.cells.lateral_range_m {
            dep.lateral_range_m = v;
        }
        if let Some(v) = &self.cells.carriers {
            dep.carriers = v.clone();
        }
        if let Some(v) = self.cells.second_cell_prob {
            dep.second_cell_prob = v;
        }
        if let Some(v) = self.cells.third_cell_prob {
            dep.third_cell_prob = v;
        }
        if let Some(v) = self.cells.tx_power_dbm {
            dep.tx_power_dbm = v;
        }
        if let Some(v) = self.cells.holes_per_100km {
            dep.holes_per_100km = v;
        }
        if let Some(v) = self.cells.hole_len_m {
            dep.hole_len_m = v;
        }
        if let Some(v) = self.channel.shadow_sigma_db {
            d.shadow_sigma_db = v;
        }
        if let Some(v) = self.channel.shadow_dcorr_m {
            d.shadow_dcorr_m = v;
        }
        if let Some(v) = self.channel.rem_estimation_err_db {
            d.rem_estimation_err_db = v;
        }
        if let Some(v) = self.policy.proactive_prob {
            d.proactive_prob = v;
        }
        if let Some(v) = self.policy.proactive_offset_db {
            d.proactive_offset_db = v;
        }
        if let Some(v) = self.policy.normal_offset_db {
            d.normal_offset_db = v;
        }
        if let Some(v) = self.policy.intra_ttt_ms {
            d.intra_ttt_ms = v;
        }
        if let Some(v) = self.policy.inter_ttt_ms {
            d.inter_ttt_ms = v;
        }
        if let Some(v) = self.policy.intra_staleness_ms {
            d.intra_staleness_ms = v;
        }
        if let Some(v) = self.policy.inter_staleness_ms {
            d.inter_staleness_ms = v;
        }
        if let Some(v) = self.policy.rem_staleness_ms {
            d.rem_staleness_ms = v;
        }
        d
    }

    /// The fault configuration, when the scenario schedules faults.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.faults.as_ref().map(FaultsSpec::to_config)
    }

    /// The `rem net` stall-study spec, when the scenario has a `[net]`
    /// section: pathology mix from the section, seeds from `[run]`.
    pub fn net_study_spec(&self) -> Option<crate::net_study::NetStudySpec> {
        self.net.as_ref().map(|n| {
            let d = crate::net_study::NetStudySpec::default();
            crate::net_study::NetStudySpec {
                faults: n.to_config(),
                seeds: self.run.seeds.clone(),
                window_ms: n.window_ms.unwrap_or(d.window_ms),
                loss_prob: n.loss_prob.unwrap_or(d.loss_prob),
            }
        })
    }

    /// The [`CampaignSpec`] this scenario describes: derived dataset,
    /// the `[run]` seeds/threads and the fault schedule.
    pub fn campaign(&self) -> CampaignSpec {
        CampaignSpec {
            spec: self.dataset(),
            seeds: self.run.seeds.clone(),
            threads: self.run.threads,
            faults: self.fault_config(),
        }
    }

    /// The crash-safety [`RunPolicy`] from the `[run]` section.
    pub fn run_policy(&self) -> RunPolicy {
        RunPolicy {
            threads: self.run.threads,
            max_retries: self.run.max_retries,
            trial_timeout_ms: self.run.trial_timeout_ms,
            checkpoint_every: self.run.checkpoint_every,
            cancel: None,
        }
    }

    /// The chaos-injection config, when `[run] chaos_panic_rate > 0`.
    pub fn chaos(&self) -> Option<ChaosConfig> {
        (self.run.chaos_panic_rate > 0.0).then_some(ChaosConfig {
            seed: self.run.chaos_seed,
            panic_rate: self.run.chaos_panic_rate,
            fatal: self.run.chaos_fatal,
        })
    }

    /// The single plane a one-plane command should run: the `[policy]`
    /// plane, or `None` when the scenario asks for the paired
    /// comparison (`both`).
    pub fn single_plane(&self) -> Option<Plane> {
        match self.policy.plane {
            PlaneMix::Both => None,
            PlaneMix::Legacy => Some(Plane::Legacy),
            PlaneMix::Rem => Some(Plane::Rem),
        }
    }

    /// A [`RunConfig`] for single-run commands (trace, train), on
    /// `plane` under `seed`, honouring the policy section's clamp
    /// override.
    pub fn run_config(&self, plane: Plane, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(self.dataset(), plane, seed);
        if let Some(clamp) = self.policy.rem_clamp_offsets {
            cfg.rem_clamp_offsets = clamp;
        }
        cfg.faults = self.fault_config();
        cfg
    }

    /// The [`BlerScenario`] of the `[link]` section over `waveform`:
    /// the trajectory's speed, the deployment's *primary carrier*
    /// frequency, and the link parameters.
    pub fn bler_scenario(&self, waveform: Waveform) -> BlerScenario {
        let d = self.dataset();
        let mut s = BlerScenario::signaling(waveform, self.link.model)
            .with_speed_kmh(self.trajectory.speed_kmh)
            .with_snr_db(self.link.snr_db)
            .with_blocks(self.link.blocks)
            .with_seed(self.link.seed)
            .with_threads(self.run.threads);
        s.carrier_hz = d.deployment.carriers[0].carrier_hz;
        s
    }

    /// The [`TrainScenario`] of the `[train]` section: the derived
    /// dataset on the scenario's plane (`legacy` when `both`).
    pub fn train_scenario(&self) -> TrainScenario {
        let plane = self.single_plane().unwrap_or(Plane::Legacy);
        TrainScenario::new(self.run_config(plane, self.train.seed))
            .with_clients(self.train.clients)
            .with_train_len_m(self.train.train_len_m)
            .with_window_ms(self.train.window_ms)
            .with_threads(self.run.threads)
    }

    /// The [`FleetSpec`] of the `[fleet]` section, when the scenario
    /// describes a fleet campaign. Speed and epoch defaults come from
    /// the section itself, not `[trajectory]`: the fleet corridor is a
    /// different geometry (many trains, both directions) than the
    /// single-client route the rest of the scenario replays.
    pub fn fleet_spec(&self) -> Option<FleetSpec> {
        self.fleet.clone()
    }

    /// Scenario fingerprint for run manifests:
    /// `<name>:fnv1a64:<digest of the canonical TOML>`. Two scenarios
    /// fingerprint equal iff their canonical serializations match.
    pub fn fingerprint(&self) -> String {
        format!("{}:{}", self.name, rem_num::hash::fnv1a64_digest(self.to_toml().as_bytes()))
    }
}

fn bad(path: &str, expected: &str, found: &Toml) -> ScenarioError {
    ScenarioError::BadValue {
        path: path.to_string(),
        expected: expected.to_string(),
        found: format!("a {}", found.type_name()),
    }
}

fn range(path: &str, v: f64, reason: &str) -> ScenarioError {
    ScenarioError::OutOfRange {
        path: path.to_string(),
        value: format!("{v}"),
        reason: reason.to_string(),
    }
}

/// One section of the document mid-read: keys are `remove`d as they
/// are consumed, so whatever remains at the end is unknown.
struct Tbl {
    path: &'static str,
    map: BTreeMap<String, Toml>,
}

impl Tbl {
    fn field(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn f64_opt(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some(Toml::Float(v)) => Ok(Some(v)),
            Some(Toml::Int(v)) => Ok(Some(v as f64)),
            Some(other) => Err(bad(&self.field(key), "a number", &other)),
        }
    }

    fn f64_req(&mut self, key: &str) -> Result<f64, ScenarioError> {
        self.f64_opt(key)?
            .ok_or_else(|| ScenarioError::Missing { path: self.field(key) })
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        Ok(self.f64_opt(key)?.unwrap_or(default))
    }

    fn u64_opt(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some(Toml::Int(v)) if v >= 0 => Ok(Some(v as u64)),
            Some(Toml::Int(v)) => Err(range(&self.field(key), v as f64, "must be >= 0")),
            Some(other) => Err(bad(&self.field(key), "a non-negative integer", &other)),
        }
    }

    fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        Ok(self.u64_opt(key)?.unwrap_or(default))
    }

    fn bool_opt(&mut self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some(Toml::Bool(v)) => Ok(Some(v)),
            Some(other) => Err(bad(&self.field(key), "a boolean", &other)),
        }
    }

    fn str_opt(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some(Toml::Str(v)) => Ok(Some(v)),
            Some(other) => Err(bad(&self.field(key), "a string", &other)),
        }
    }

    fn pair_opt(&mut self, key: &str) -> Result<Option<(f64, f64)>, ScenarioError> {
        let Some(v) = self.map.remove(key) else { return Ok(None) };
        let expect = "a [min, max] pair of numbers";
        let Toml::Array(items) = &v else { return Err(bad(&self.field(key), expect, &v)) };
        let nums: Option<Vec<f64>> = items
            .iter()
            .map(|i| match i {
                Toml::Float(f) => Some(*f),
                Toml::Int(n) => Some(*n as f64),
                _ => None,
            })
            .collect();
        match nums.as_deref() {
            Some([a, b]) => Ok(Some((*a, *b))),
            _ => Err(bad(&self.field(key), expect, &v)),
        }
    }

    /// Unknown-field gate: everything not consumed is an error.
    fn done(&mut self) -> Result<(), ScenarioError> {
        match self.map.keys().next() {
            Some(key) => Err(ScenarioError::Unknown { path: self.field(key) }),
            None => Ok(()),
        }
    }
}

fn take_table(
    doc: &mut BTreeMap<String, Toml>,
    key: &'static str,
) -> Result<Option<Tbl>, ScenarioError> {
    match doc.remove(key) {
        None => Ok(None),
        Some(Toml::Table(map)) => Ok(Some(Tbl { path: key, map })),
        Some(other) => Err(bad(key, "a [table]", &other)),
    }
}

fn read_trajectory(t: &mut Tbl) -> Result<TrajectorySpec, ScenarioError> {
    let speed_kmh = t.f64_req("speed_kmh")?;
    let route_km = t.f64_req("route_km")?;
    let profile = match t.str_opt("profile")?.as_deref() {
        None | Some("constant") => ProfileSpec::Constant,
        Some("stations") => ProfileSpec::Stations {
            stop_every_m: t.f64_or("stop_every_m", 30_000.0)?,
            dwell_s: t.f64_or("dwell_s", 120.0)?,
            accel_ms2: t.f64_or("accel_ms2", 0.5)?,
        },
        Some(other) => {
            return Err(ScenarioError::BadValue {
                path: t.field("profile"),
                expected: "\"constant\" or \"stations\"".into(),
                found: format!("\"{other}\""),
            })
        }
    };
    // Leftover keys (e.g. a stations knob under a constant profile)
    // are unknown for *this* profile, not silently ignored.
    t.done()?;
    Ok(TrajectorySpec { speed_kmh, route_km, profile })
}

fn read_cells(t: &mut Tbl) -> Result<CellsSpec, ScenarioError> {
    let code = t
        .str_opt("family")?
        .ok_or_else(|| ScenarioError::Missing { path: t.field("family") })?;
    let family = Family::from_code(&code).ok_or_else(|| ScenarioError::BadValue {
        path: t.field("family"),
        expected: "one of \"bt\", \"bs\", \"la\", \"nr\"".into(),
        found: format!("\"{code}\""),
    })?;
    let carriers = read_carriers(t)?;
    let spec = CellsSpec {
        family,
        site_spacing_m: t.f64_opt("site_spacing_m")?,
        lateral_range_m: t.pair_opt("lateral_range_m")?,
        carriers,
        second_cell_prob: t.f64_opt("second_cell_prob")?,
        third_cell_prob: t.f64_opt("third_cell_prob")?,
        tx_power_dbm: t.f64_opt("tx_power_dbm")?,
        holes_per_100km: t.f64_opt("holes_per_100km")?,
        hole_len_m: t.pair_opt("hole_len_m")?,
    };
    t.done()?;
    Ok(spec)
}

fn read_carriers(t: &mut Tbl) -> Result<Option<Vec<CarrierPlan>>, ScenarioError> {
    let Some(v) = t.map.remove("carriers") else { return Ok(None) };
    let path = t.field("carriers");
    let expect = "an array of [earfcn, carrier_hz, bandwidth_mhz] rows";
    let Toml::Array(rows) = &v else { return Err(bad(&path, expect, &v)) };
    if rows.is_empty() {
        return Err(ScenarioError::OutOfRange {
            path,
            value: "[]".into(),
            reason: "must list at least one carrier".into(),
        });
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let row_path = format!("{path}[{i}]");
        let Toml::Array(items) = row else { return Err(bad(&row_path, expect, row)) };
        let nums: Option<Vec<f64>> = items
            .iter()
            .map(|x| match x {
                Toml::Float(f) => Some(*f),
                Toml::Int(n) => Some(*n as f64),
                _ => None,
            })
            .collect();
        let Some([earfcn, carrier_hz, bandwidth_mhz]) = nums.as_deref() else {
            return Err(bad(&row_path, expect, row));
        };
        if *earfcn < 0.0 || earfcn.fract() != 0.0 || *earfcn > u32::MAX as f64 {
            return Err(range(&row_path, *earfcn, "earfcn must be a non-negative integer"));
        }
        out.push(CarrierPlan {
            earfcn: Earfcn(*earfcn as u32),
            carrier_hz: *carrier_hz,
            bandwidth_mhz: *bandwidth_mhz,
        });
    }
    Ok(Some(out))
}

fn read_channel(t: &mut Tbl) -> Result<ChannelSpec, ScenarioError> {
    let spec = ChannelSpec {
        shadow_sigma_db: t.f64_opt("shadow_sigma_db")?,
        shadow_dcorr_m: t.f64_opt("shadow_dcorr_m")?,
        rem_estimation_err_db: t.f64_opt("rem_estimation_err_db")?,
    };
    t.done()?;
    Ok(spec)
}

fn read_policy(t: &mut Tbl) -> Result<PolicySpec, ScenarioError> {
    let plane = match t.str_opt("plane")?.as_deref() {
        None | Some("both") => PlaneMix::Both,
        Some("legacy") => PlaneMix::Legacy,
        Some("rem") => PlaneMix::Rem,
        Some(other) => {
            return Err(ScenarioError::BadValue {
                path: t.field("plane"),
                expected: "one of \"both\", \"legacy\", \"rem\"".into(),
                found: format!("\"{other}\""),
            })
        }
    };
    let spec = PolicySpec {
        plane,
        rem_clamp_offsets: t.bool_opt("rem_clamp_offsets")?,
        proactive_prob: t.f64_opt("proactive_prob")?,
        proactive_offset_db: t.f64_opt("proactive_offset_db")?,
        normal_offset_db: t.f64_opt("normal_offset_db")?,
        intra_ttt_ms: t.f64_opt("intra_ttt_ms")?,
        inter_ttt_ms: t.f64_opt("inter_ttt_ms")?,
        intra_staleness_ms: t.f64_opt("intra_staleness_ms")?,
        inter_staleness_ms: t.f64_opt("inter_staleness_ms")?,
        rem_staleness_ms: t.f64_opt("rem_staleness_ms")?,
    };
    t.done()?;
    Ok(spec)
}

fn read_link(t: &mut Tbl) -> Result<LinkSpec, ScenarioError> {
    let defaults = LinkSpec::default();
    let model = match t.str_opt("model")?.as_deref() {
        None => defaults.model,
        Some("hst") => ChannelModel::Hst,
        Some("eva") => ChannelModel::Eva,
        Some("etu") => ChannelModel::Etu,
        Some("epa") => ChannelModel::Epa,
        Some(other) => {
            return Err(ScenarioError::BadValue {
                path: t.field("model"),
                expected: "one of \"hst\", \"eva\", \"etu\", \"epa\"".into(),
                found: format!("\"{other}\""),
            })
        }
    };
    let spec = LinkSpec {
        model,
        snr_db: t.f64_or("snr_db", defaults.snr_db)?,
        blocks: t.u64_or("blocks", defaults.blocks as u64)? as usize,
        seed: t.u64_or("seed", defaults.seed)?,
    };
    t.done()?;
    Ok(spec)
}

fn read_faults(t: &mut Tbl) -> Result<FaultsSpec, ScenarioError> {
    let spec = FaultsSpec {
        rate_scale: t.f64_opt("rate_scale")?,
        feedback_per_min: t.f64_opt("feedback_per_min")?,
        command_per_min: t.f64_opt("command_per_min")?,
        x2_per_min: t.f64_opt("x2_per_min")?,
        mask_per_min: t.f64_opt("mask_per_min")?,
        hole_per_min: t.f64_opt("hole_per_min")?,
        window_ms: t.f64_opt("window_ms")?,
        hole_ms: t.f64_opt("hole_ms")?,
        extra_delay_ms: t.f64_opt("extra_delay_ms")?,
        delay_frac: t.f64_opt("delay_frac")?,
        corrupt_frac: t.f64_opt("corrupt_frac")?,
        tcp_burst_per_min: t.f64_opt("tcp_burst_per_min")?,
        burst_ms: t.f64_opt("burst_ms")?,
        burst_loss_prob: t.f64_opt("burst_loss_prob")?,
    };
    t.done()?;
    Ok(spec)
}

fn read_net(t: &mut Tbl) -> Result<NetSpec, ScenarioError> {
    let spec = NetSpec {
        bloat_per_min: t.f64_opt("bloat_per_min")?,
        bloat_ms: t.f64_opt("bloat_ms")?,
        bloat_drain_pkts_per_ms: t.f64_opt("bloat_drain_pkts_per_ms")?,
        bloat_queue_pkts: t.f64_opt("bloat_queue_pkts")?,
        bloat_standing_pkts: t.f64_opt("bloat_standing_pkts")?,
        jitter_per_min: t.f64_opt("jitter_per_min")?,
        jitter_ms: t.f64_opt("jitter_ms")?,
        jitter_spike_ms: t.f64_opt("jitter_spike_ms")?,
        rebind_per_min: t.f64_opt("rebind_per_min")?,
        outage_per_min: t.f64_opt("outage_per_min")?,
        outage_ms: t.f64_opt("outage_ms")?,
        window_ms: t.f64_opt("window_ms")?,
        loss_prob: t.f64_opt("loss_prob")?,
    };
    t.done()?;
    Ok(spec)
}

fn read_fleet(t: &mut Tbl) -> Result<FleetSpec, ScenarioError> {
    let defaults = FleetSpec::default();
    let spec = FleetSpec {
        trains: t.u64_or("trains", defaults.trains as u64)? as u32,
        ues_per_train: t.u64_or("ues_per_train", defaults.ues_per_train as u64)? as u32,
        corridor_km: t.f64_or("corridor_km", defaults.corridor_km)?,
        cell_spacing_m: t.f64_or("cell_spacing_m", defaults.cell_spacing_m)?,
        speed_kmh: t.f64_or("speed_kmh", defaults.speed_kmh)?,
        speed_jitter: t.f64_or("speed_jitter", defaults.speed_jitter)?,
        headway_s: t.f64_or("headway_s", defaults.headway_s)?,
        duration_s: t.f64_or("duration_s", defaults.duration_s)?,
        epoch_ms: t.f64_or("epoch_ms", defaults.epoch_ms)?,
        seed: t.u64_or("seed", defaults.seed)?,
        shards: t.u64_or("shards", defaults.shards as u64)? as u32,
    };
    t.done()?;
    Ok(spec)
}

fn read_run(t: &mut Tbl) -> Result<RunSpec, ScenarioError> {
    let defaults = RunSpec::default();
    let seeds = match t.map.remove("seeds") {
        None => defaults.seeds.clone(),
        // `seeds = 3` is shorthand for `seeds = [1, 2, 3]`.
        Some(Toml::Int(n)) if n >= 1 => (1..=n as u64).collect(),
        Some(Toml::Int(n)) => {
            return Err(range(&t.field("seeds"), n as f64, "a seed count must be >= 1"))
        }
        Some(Toml::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                match item {
                    Toml::Int(v) if *v >= 0 => out.push(*v as u64),
                    _ => {
                        return Err(ScenarioError::BadValue {
                            path: t.field("seeds"),
                            expected: "an array of non-negative integers (or a count)".into(),
                            found: format!("a {}", item.type_name()),
                        })
                    }
                }
            }
            out
        }
        Some(other) => {
            return Err(bad(&t.field("seeds"), "a seed count or an array of seeds", &other))
        }
    };
    let timeout = t.u64_opt("trial_timeout_ms")?;
    let spec = RunSpec {
        seeds,
        threads: t.u64_or("threads", defaults.threads as u64)? as usize,
        checkpoint_every: t.u64_or("checkpoint_every", defaults.checkpoint_every as u64)?
            as usize,
        max_retries: t.u64_or("max_retries", defaults.max_retries as u64)? as u32,
        trial_timeout_ms: timeout.filter(|&v| v > 0),
        chaos_panic_rate: t.f64_or("chaos_panic_rate", defaults.chaos_panic_rate)?,
        chaos_fatal: t.bool_opt("chaos_fatal")?.unwrap_or(defaults.chaos_fatal),
        chaos_seed: t.u64_or("chaos_seed", defaults.chaos_seed)?,
    };
    t.done()?;
    Ok(spec)
}

fn read_train(t: &mut Tbl) -> Result<TrainSpec, ScenarioError> {
    let defaults = TrainSpec::default();
    let spec = TrainSpec {
        clients: t.u64_or("clients", defaults.clients as u64)? as usize,
        train_len_m: t.f64_or("train_len_m", defaults.train_len_m)?,
        window_ms: t.f64_or("window_ms", defaults.window_ms)?,
        seed: t.u64_or("seed", defaults.seed)?,
    };
    t.done()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        format = "REMSCENARIO1"
        name = "minimal"

        [trajectory]
        speed_kmh = 300.0
        route_km = 40.0

        [cells]
        family = "bs"
    "#;

    #[test]
    fn minimal_scenario_equals_programmatic_defaults() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        let expect = ScenarioSpec::new("minimal", Family::BeijingShanghai, 40.0, 300.0);
        assert_eq!(spec, expect);
    }

    #[test]
    fn minimal_scenario_reproduces_the_hardcoded_dataset() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        let derived = serde_json::to_string(&spec.dataset()).unwrap();
        let hardcoded =
            serde_json::to_string(&DatasetSpec::beijing_shanghai(40.0, 300.0)).unwrap();
        assert_eq!(derived, hardcoded, "unset overrides must not perturb calibration");
        let campaign = spec.campaign();
        assert_eq!(campaign.seeds, vec![1, 2]);
        assert!(campaign.faults.is_none());
        assert_eq!(campaign.threads, 0);
    }

    #[test]
    fn canonical_toml_round_trips() {
        let mut spec = ScenarioSpec::new("rt", Family::NrSmallcell, 15.0, 80.0);
        spec.trajectory.profile =
            ProfileSpec::Stations { stop_every_m: 1_500.0, dwell_s: 30.0, accel_ms2: 1.0 };
        spec.cells.site_spacing_m = Some(300.0);
        spec.cells.lateral_range_m = Some((10.0, 60.0));
        spec.cells.carriers = Some(vec![CarrierPlan {
            earfcn: Earfcn(630_000),
            carrier_hz: 3.5e9,
            bandwidth_mhz: 20.0,
        }]);
        spec.cells.holes_per_100km = Some(0.0);
        spec.channel.shadow_sigma_db = Some(5.5);
        spec.policy.plane = PlaneMix::Legacy;
        spec.policy.proactive_prob = Some(0.02);
        spec.link.model = ChannelModel::Etu;
        spec.link.blocks = 64;
        spec.faults = Some(FaultsSpec {
            rate_scale: Some(1.5),
            hole_per_min: Some(2.0),
            hole_ms: Some(9_000.0),
            ..FaultsSpec::default()
        });
        spec.net = Some(NetSpec {
            bloat_per_min: Some(0.9),
            rebind_per_min: Some(0.3),
            window_ms: Some(45_000.0),
            loss_prob: Some(0.004),
            ..NetSpec::default()
        });
        spec.run.seeds = vec![3, 5, 8];
        spec.run.trial_timeout_ms = Some(30_000);
        spec.run.chaos_panic_rate = 0.25;
        spec.train.clients = 24;
        spec.validate().unwrap();

        let toml = spec.to_toml();
        let back = ScenarioSpec::from_toml(&toml).expect("canonical TOML must parse");
        assert_eq!(back, spec, "round trip must be lossless:\n{toml}");
        // And the canonical form is a fixed point.
        assert_eq!(back.to_toml(), toml);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_moves_with_content() {
        let a = ScenarioSpec::new("a", Family::BeijingTaiyuan, 40.0, 300.0);
        let mut b = a.clone();
        b.run.seeds = vec![1, 2, 3];
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().starts_with("a:fnv1a64:"));
    }

    #[test]
    fn version_gate() {
        let e = ScenarioSpec::from_toml("name = \"x\"\n").unwrap_err();
        assert_eq!(e, ScenarioError::Version { found: String::new() });
        let e =
            ScenarioSpec::from_toml("format = \"REMSCENARIO9\"\nname = \"x\"\n").unwrap_err();
        assert_eq!(e, ScenarioError::Version { found: "REMSCENARIO9".into() });
        assert!(e.to_string().contains("REMSCENARIO1"), "{e}");
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let doc = MINIMAL.replace("name = \"minimal\"", "name = \"minimal\"\nspeling_mistake = 1");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Unknown { path: "speling_mistake".into() });

        let doc = MINIMAL.replace("family = \"bs\"", "family = \"bs\"\nsite_spcing_m = 900");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Unknown { path: "cells.site_spcing_m".into() });
        assert!(e.to_string().contains("cells.site_spcing_m"), "{e}");
    }

    #[test]
    fn net_section_overlays_stock_pathologies_and_validates_with_paths() {
        let doc = format!(
            "{MINIMAL}\n[net]\nrebind_per_min = 0.5\nwindow_ms = 30000.0\n"
        );
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let study = spec.net_study_spec().expect("[net] present");
        assert_eq!(study.faults.rebind_per_min, 0.5);
        // Untouched knobs keep the stock schedule.
        assert_eq!(study.faults.bloat_per_min, NetFaultConfig::default().bloat_per_min);
        assert_eq!(study.window_ms, 30_000.0);
        assert_eq!(study.seeds, spec.run.seeds);

        // Unknown keys are rejected with their dotted path.
        let doc = format!("{MINIMAL}\n[net]\nrebinds_per_min = 0.5\n");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Unknown { path: "net.rebinds_per_min".into() });

        // Out-of-range values carry dotted paths too.
        let doc = format!("{MINIMAL}\n[net]\nloss_prob = 1.5\n");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::OutOfRange { path, .. } if path == "net.loss_prob"),
            "{e:?}"
        );
        let doc = format!("{MINIMAL}\n[net]\nbloat_per_min = -1.0\n");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::OutOfRange {
                path: "net.bloat_per_min".into(),
                value: "-1".into(),
                reason: "must be finite and >= 0".into(),
            }
        );

        // No [net] section: no study.
        assert!(ScenarioSpec::from_toml(MINIMAL).unwrap().net_study_spec().is_none());
    }

    #[test]
    fn fleet_section_overlays_defaults_and_round_trips() {
        let doc = format!("{MINIMAL}\n[fleet]\ntrains = 200\ncorridor_km = 30.0\nshards = 8\n");
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let fleet = spec.fleet_spec().expect("[fleet] present");
        assert_eq!(fleet.trains, 200);
        assert_eq!(fleet.corridor_km, 30.0);
        assert_eq!(fleet.shards, 8);
        // Untouched knobs keep the fleet defaults, not trajectory's.
        assert_eq!(fleet.ues_per_train, FleetSpec::default().ues_per_train);
        assert_eq!(fleet.epoch_ms, FleetSpec::default().epoch_ms);

        // Canonical TOML reproduces an equal spec (fingerprint-stable).
        let canon = spec.to_toml();
        let back = ScenarioSpec::from_toml(&canon).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_toml(), canon);

        // Unknown keys are rejected with their dotted path.
        let doc = format!("{MINIMAL}\n[fleet]\ntrians = 200\n");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Unknown { path: "fleet.trians".into() });

        // Invalid values surface FleetSpec's own dotted-path message.
        let doc = format!("{MINIMAL}\n[fleet]\nspeed_jitter = 1.5\n");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(e.to_string().contains("fleet.speed_jitter"), "{e}");

        // No [fleet] section: the command keeps its flag defaults, and
        // the canonical TOML stays byte-identical to the pre-fleet
        // format (the CI hash gate depends on this).
        let bare = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert!(bare.fleet_spec().is_none());
        assert!(!bare.to_toml().contains("[fleet]"));
    }

    #[test]
    fn stations_knobs_under_constant_profile_are_unknown() {
        let doc = MINIMAL.replace("route_km = 40.0", "route_km = 40.0\ndwell_s = 30.0");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Unknown { path: "trajectory.dwell_s".into() });
    }

    #[test]
    fn missing_required_fields_carry_paths() {
        let doc = "format = \"REMSCENARIO1\"\nname = \"x\"\n[cells]\nfamily = \"bt\"\n";
        let e = ScenarioSpec::from_toml(doc).unwrap_err();
        assert_eq!(e, ScenarioError::Missing { path: "trajectory".into() });

        let doc = MINIMAL.replace("speed_kmh = 300.0", "");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert_eq!(e, ScenarioError::Missing { path: "trajectory.speed_kmh".into() });
    }

    #[test]
    fn bad_values_carry_expected_and_found() {
        let doc = MINIMAL.replace("family = \"bs\"", "family = \"xx\"");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::BadValue { path, .. } if path == "cells.family"),
            "{e:?}"
        );

        let doc = MINIMAL.replace("speed_kmh = 300.0", "speed_kmh = \"fast\"");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::BadValue { path, found, .. }
                if path == "trajectory.speed_kmh" && found.contains("string")),
            "{e:?}"
        );
    }

    #[test]
    fn out_of_range_values_carry_field_paths() {
        let doc = MINIMAL.replace("speed_kmh = 300.0", "speed_kmh = -5.0");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::OutOfRange { path, .. }
                if path == "trajectory.speed_kmh"),
            "{e:?}"
        );

        let doc =
            MINIMAL.replace("family = \"bs\"", "family = \"bs\"\nsecond_cell_prob = 1.5");
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::OutOfRange { path, .. }
                if path == "cells.second_cell_prob"),
            "{e:?}"
        );
    }

    #[test]
    fn infeasible_station_profile_is_out_of_range_not_a_panic() {
        let doc = MINIMAL.replace(
            "route_km = 40.0",
            "route_km = 40.0\nprofile = \"stations\"\nstop_every_m = 500.0",
        );
        let e = ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::OutOfRange { path, reason, .. }
                if path == "trajectory.stop_every_m" && reason.contains("ramp")),
            "{e:?}"
        );
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = ScenarioSpec::from_toml("format = \"REMSCENARIO1\"\nbroken line\n").unwrap_err();
        assert!(
            matches!(&e, ScenarioError::Syntax { line: 2, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = ScenarioSpec::load(Path::new("/nonexistent/x.toml")).unwrap_err();
        assert!(
            matches!(&e, ScenarioError::Io { path, .. } if path.contains("nonexistent")),
            "{e:?}"
        );
    }

    #[test]
    fn seeds_accept_count_and_list() {
        let doc = format!("{MINIMAL}\n[run]\nseeds = 4\n");
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        assert_eq!(spec.run.seeds, vec![1, 2, 3, 4]);

        let doc = format!("{MINIMAL}\n[run]\nseeds = [7, 9]\n");
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        assert_eq!(spec.run.seeds, vec![7, 9]);
    }

    #[test]
    fn faults_section_enables_injection_with_scaled_defaults() {
        let doc = format!("{MINIMAL}\n[faults]\nrate_scale = 2.0\nhole_per_min = 1.0\n");
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let cfg = spec.fault_config().expect("faults section present");
        let stock = FaultConfig::default();
        assert_eq!(cfg.hole_per_min, 2.0, "override then scale");
        assert_eq!(cfg.feedback_per_min, stock.feedback_per_min * 2.0);
        assert_eq!(cfg.window_ms, stock.window_ms, "shapes unscaled");
        assert!(ScenarioSpec::from_toml(MINIMAL).unwrap().fault_config().is_none());
    }

    #[test]
    fn chaos_and_policy_derivations() {
        let doc = format!(
            "{MINIMAL}\n[run]\nthreads = 3\nmax_retries = 2\nchaos_panic_rate = 0.5\nchaos_seed = 11\n"
        );
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let policy = spec.run_policy();
        assert_eq!(policy.threads, 3);
        assert_eq!(policy.max_retries, 2);
        let chaos = spec.chaos().expect("rate > 0");
        assert_eq!(chaos.seed, 11);
        assert!(!chaos.fatal);
        assert!(ScenarioSpec::from_toml(MINIMAL).unwrap().chaos().is_none());
    }

    #[test]
    fn bler_scenario_uses_primary_carrier_and_trajectory_speed() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        let b = spec.bler_scenario(Waveform::Ofdm);
        assert_eq!(b.carrier_hz, 1.88e9, "bs primary carrier");
        assert!((b.speed_ms - 300.0 / 3.6).abs() < 1e-9);
        assert_eq!(b.blocks, 200);
    }

    #[test]
    fn train_scenario_respects_plane_and_knobs() {
        let doc = format!("{MINIMAL}\n[policy]\nplane = \"rem\"\n[train]\nclients = 4\n");
        let spec = ScenarioSpec::from_toml(&doc).unwrap();
        let t = spec.train_scenario();
        assert_eq!(t.base.plane, Plane::Rem);
        assert_eq!(t.clients, 4);
        assert_eq!(t.train_len_m, 400.0);
    }
}
