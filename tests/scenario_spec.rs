//! Scenario-file integration: the shipped `scenarios/` files load,
//! validate, round-trip losslessly, and the HSR corridor file derives a
//! campaign byte-identical to the CLI's hard-coded flag defaults (the
//! CI hash gate depends on that equivalence).

use rem_core::scenario::{Family, PlaneMix, ProfileSpec, ScenarioError};
use rem_core::{CampaignSpec, DatasetSpec, ScenarioSpec};
use rem_integration::{check, Gen};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn shipped() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "expected >= 3 shipped scenarios, found {files:?}");
    files
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

#[test]
fn every_shipped_scenario_loads_and_round_trips_losslessly() {
    for file in shipped() {
        let spec = ScenarioSpec::load(&file)
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let canonical = spec.to_toml();
        let back = ScenarioSpec::from_toml(&canonical)
            .unwrap_or_else(|e| panic!("{} canonical form: {e}", file.display()));
        assert_eq!(back, spec, "{}: to_toml/from_toml must be lossless", file.display());
        assert_eq!(
            back.to_toml(),
            canonical,
            "{}: canonical serialization must be a fixed point",
            file.display()
        );
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }
}

#[test]
fn hsr_file_reproduces_the_hardcoded_flag_default_campaign() {
    let spec = ScenarioSpec::load(&scenarios_dir().join("hsr_beijing_shanghai.toml"))
        .expect("load hsr scenario");
    let flag_default =
        CampaignSpec::new(DatasetSpec::beijing_shanghai(40.0, 300.0)).with_seed_count(2);
    // CampaignSpec carries f64s and no PartialEq; serde_json is the
    // byte-level equality the --hash digest is built on.
    assert_eq!(
        json(&spec.campaign()),
        json(&flag_default),
        "scenario campaign must be byte-identical to the CLI flag defaults"
    );
    assert!(spec.fault_config().is_none(), "the clean corridor schedules no faults");
    assert_eq!(spec.single_plane(), None, "HSR file runs the paired comparison");
}

#[test]
fn urban_scenario_is_a_slower_denser_la_variant() {
    let spec = ScenarioSpec::load(&scenarios_dir().join("urban_driving.toml"))
        .expect("load urban scenario");
    assert_eq!(spec.cells.family, Family::LaDriving);
    let d = spec.dataset();
    let la = DatasetSpec::la_driving(spec.trajectory.route_km, spec.trajectory.speed_kmh);
    assert!(d.speed_kmh < 100.0, "urban driving is a low-speed bin");
    assert!(
        d.deployment.site_spacing_m < la.deployment.site_spacing_m,
        "urban deployment must be denser than the freeway calibration"
    );
    assert!(matches!(spec.trajectory.profile, ProfileSpec::Stations { .. }));
    assert_eq!(d.name, la.name, "overrides must not move the family display name");
    assert_eq!(spec.run.seeds, vec![1, 2, 3]);
}

#[test]
fn metro_scenario_schedules_tunnels_as_coverage_hole_faults() {
    let spec =
        ScenarioSpec::load(&scenarios_dir().join("metro.toml")).expect("load metro scenario");
    assert_eq!(spec.cells.family, Family::NrSmallcell);
    let faults = spec.fault_config().expect("metro schedules tunnel faults");
    let stock = rem_core::FaultConfig::default();
    assert!(faults.hole_ms > stock.hole_ms, "tunnels are longer than stock holes");
    assert!(faults.hole_per_min > 0.0);
    let d = spec.dataset();
    assert!(
        d.deployment.site_spacing_m < 500.0,
        "metro cells are denser than the stock nr calibration"
    );
    assert!(matches!(spec.trajectory.profile, ProfileSpec::Stations { .. }));
    // The campaign carries the derived fault schedule.
    assert_eq!(json(&spec.campaign().faults), json(&Some(faults)));
}

#[test]
fn shipped_scenarios_run_the_derived_entry_points() {
    // A truncated metro spec exercises the whole derivation chain
    // end-to-end (deployment synthesis, stations trajectory, fault
    // schedule) without a full campaign's runtime.
    let mut spec =
        ScenarioSpec::load(&scenarios_dir().join("metro.toml")).expect("load metro scenario");
    spec.trajectory.route_km = 4.0;
    spec.run.seeds = vec![1];
    spec.train.clients = 2;
    spec.validate().expect("truncated metro spec stays valid");

    let cmp = rem_core::Comparison::run(&spec.campaign());
    assert!(cmp.legacy.handovers.len() + cmp.rem.handovers.len() > 0, "dense metro cells hand over");

    let t = spec.train_scenario().run();
    assert_eq!(t.n_clients, 2);
    assert!(t.total_messages > 0);
}

#[test]
fn cli_style_overrides_change_the_campaign_and_refuse_bad_values() {
    let mut spec = ScenarioSpec::load(&scenarios_dir().join("hsr_beijing_shanghai.toml"))
        .expect("load hsr scenario");
    let before = spec.fingerprint();
    spec.run.seeds = vec![1, 2, 3, 4];
    spec.validate().expect("seed override is valid");
    assert_eq!(spec.campaign().seeds, vec![1, 2, 3, 4]);
    assert_ne!(spec.fingerprint(), before, "overrides must move the fingerprint");

    spec.trajectory.speed_kmh = -1.0;
    let err = spec.validate().expect_err("negative speed must be rejected");
    match err {
        ScenarioError::OutOfRange { path, .. } => assert_eq!(path, "trajectory.speed_kmh"),
        other => panic!("expected OutOfRange, got {other:?}"),
    }
}

#[test]
fn golden_errors_carry_field_paths_per_variant() {
    let load = |body: &str| ScenarioSpec::from_toml(body);
    let base = "format = \"REMSCENARIO1\"\nname = \"x\"\n\
                [trajectory]\nspeed_kmh = 300\nroute_km = 10\n[cells]\nfamily = \"bs\"\n";

    match load("format = \"REMSCENARIO2\"") {
        Err(ScenarioError::Version { found }) => assert_eq!(found, "REMSCENARIO2"),
        other => panic!("expected Version, got {other:?}"),
    }
    match load("format = \"REMSCENARIO1\"\nname = \"x\"\n[cells]\nfamily = \"bs\"\n") {
        Err(ScenarioError::Missing { path }) => assert_eq!(path, "trajectory"),
        other => panic!("expected Missing, got {other:?}"),
    }
    match load(&format!("{base}typo_field = 1\n")) {
        Err(ScenarioError::Unknown { path }) => assert_eq!(path, "cells.typo_field"),
        other => panic!("expected Unknown, got {other:?}"),
    }
    // A field `[faults]` does not have is refused, not ignored.
    match load(&format!("{base}[faults]\ntcp_burst_per_min = 2\n")) {
        Err(ScenarioError::Unknown { path }) => assert_eq!(path, "faults.tcp_burst_per_min"),
        other => panic!("expected Unknown, got {other:?}"),
    }
    match load(&base.replace("route_km = 10", "route_km = \"ten\"")) {
        Err(ScenarioError::BadValue { path, .. }) => assert_eq!(path, "trajectory.route_km"),
        other => panic!("expected BadValue, got {other:?}"),
    }
    match load(&base.replace("speed_kmh = 300", "speed_kmh = 0")) {
        Err(ScenarioError::OutOfRange { path, .. }) => {
            assert_eq!(path, "trajectory.speed_kmh")
        }
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    match load("format = ") {
        Err(ScenarioError::Syntax { line, .. }) => assert_eq!(line, 1),
        other => panic!("expected Syntax, got {other:?}"),
    }

    // The CLI folds scenario errors into ExperimentError and exits 2.
    let e: rem_core::ExperimentError =
        ScenarioError::Missing { path: "trajectory".into() }.into();
    assert!(matches!(e, rem_core::ExperimentError::Scenario(_)));
    assert!(e.to_string().contains("trajectory"));
}

#[test]
fn plane_mix_maps_onto_single_plane_commands() {
    let mut spec = ScenarioSpec::new("p", Family::BeijingTaiyuan, 10.0, 300.0);
    assert_eq!(spec.single_plane(), None);
    spec.policy.plane = PlaneMix::Rem;
    assert_eq!(spec.single_plane(), Some(rem_core::Plane::Rem));
    spec.policy.plane = PlaneMix::Legacy;
    assert_eq!(spec.single_plane(), Some(rem_core::Plane::Legacy));
}

#[test]
fn manifests_record_the_scenario_fingerprint() {
    let spec = ScenarioSpec::load(&scenarios_dir().join("metro.toml")).expect("load metro");
    let fp = spec.fingerprint();
    assert!(fp.starts_with("metro:fnv1a64:"), "fingerprint is name-tagged: {fp}");

    let mut m = rem_obs::RunManifest::new("compare", "{}", 2);
    m.scenario = Some(fp.clone());
    let dir = std::env::temp_dir().join("rem-scenario-spec-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("scenario.manifest.json");
    m.save(&path).expect("save");
    let back = rem_obs::RunManifest::load(&path).expect("load");
    assert_eq!(back.scenario.as_deref(), Some(fp.as_str()));
    let _ = std::fs::remove_file(&path);
}

/// Parses `src` with [`ScenarioSpec::from_toml`] on a thread with the
/// 2 MiB stack of a `rem serve` connection handler, returning the
/// result and the parse time.
fn parse_on_2_mib_stack(src: String) -> (Result<ScenarioSpec, ScenarioError>, Duration) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let t0 = Instant::now();
            let result = ScenarioSpec::from_toml(&src);
            (result, t0.elapsed())
        })
        .expect("spawn parser thread")
        .join()
        .expect("the parser returns instead of panicking")
}

#[test]
fn deeply_nested_array_is_a_typed_error_on_a_2_mib_stack() {
    let depth = 10_000;
    let src = format!(
        "format = \"REMSCENARIO1\"\nname = \"deep\"\nx = {}{}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    match parse_on_2_mib_stack(src).0 {
        Err(ScenarioError::Syntax { line, message }) => {
            assert_eq!(line, 3);
            assert!(message.contains("nested deeper"), "{message}");
        }
        other => panic!("expected a syntax error, got {other:?}"),
    }
}

#[test]
fn one_element_per_line_array_at_max_body_parses_in_linear_time() {
    let mut src = String::from("format = \"REMSCENARIO1\"\nname = \"long\"\nx = [\n");
    while src.len() < rem_serve::http::MAX_BODY - 2 {
        src.push_str("1,\n");
    }
    src.push_str("]\n");
    let (result, elapsed) = parse_on_2_mib_stack(src);
    // Well-formed TOML: whatever the scenario layer makes of it, the
    // parse itself went through.
    assert!(!matches!(result, Err(ScenarioError::Syntax { .. })), "{result:?}");
    assert!(elapsed < Duration::from_secs(1), "1 MiB array took {elapsed:?}");
}

/// Text over TOML's punctuation and the scenario schema's words:
/// mostly near-miss scenario documents.
fn toml_ish(g: &mut Gen) -> String {
    const PUNCTUATION: &str = "[]\"\\=,#. \n\t-";
    const WORDS: [&str; 16] = [
        "format",
        "\"REMSCENARIO1\"",
        "name",
        "seeds",
        "[trajectory]",
        "[cells]",
        "family",
        "\"bs\"",
        "speed_kmh",
        "route_km",
        "true",
        "1",
        "-3",
        "0.5",
        "1e999",
        "é",
    ];
    let punctuation: Vec<char> = PUNCTUATION.chars().collect();
    let mut text = String::new();
    for _ in 0..g.range(0..64) {
        if g.bool() {
            text.push(g.pick(&punctuation));
        } else {
            text.push_str(g.pick(&WORDS));
        }
    }
    text
}

#[test]
fn toml_ish_text_never_panics_the_scenario_parser() {
    check("toml_ish_text_never_panics_the_scenario_parser", 256, toml_ish, |src| {
        let _ = ScenarioSpec::from_toml(src);
    });
}

/// Any Unicode text, weighted towards what TOML and the scenario
/// schema give meaning to: control characters, quotes, brackets,
/// newlines and the schema's words, up to a few KiB.
fn unicode_text(g: &mut Gen) -> String {
    const WORDS: [&str; 12] = [
        "format = \"REMSCENARIO1\"\n",
        "name = \"x\"\n",
        "[trajectory]\n",
        "speed_kmh = 300.0\n",
        "route_km = 4\n",
        "[cells]\n",
        "family = \"nr\"\n",
        "[faults]\n",
        "[net]\n",
        "[fleet]\n",
        "[run]\nseeds = [",
        "\\u{0}",
    ];
    const MARKS: &str = "\"'[]{}=#.,\\\n\r\t ";
    let marks: Vec<char> = MARKS.chars().collect();
    let mut text = String::new();
    let cap = g.pick(&[16, 256, 4096]);
    let len = g.range(0..=cap);
    while text.len() < len {
        match g.range(0..5) {
            0 => text.push_str(g.pick(&WORDS)),
            1 => text.push(g.pick(&marks)),
            2 => text.push(char::from(g.range(0u8..0x20))),
            3 => text.push(char::from_u32(g.range(0x80..0x11_0000)).unwrap_or('\u{fffd}')),
            _ => text.push(char::from(g.range(0x20u8..0x7f))),
        }
    }
    text
}

#[test]
fn arbitrary_unicode_never_panics_the_scenario_parser() {
    let mut past_syntax = 0;
    check("arbitrary_unicode_never_panics_the_scenario_parser", 512, unicode_text, |src| {
        match ScenarioSpec::from_toml(src) {
            // Whatever parses is a valid scenario that round-trips.
            Ok(spec) => {
                assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).as_ref(), Ok(&spec));
            }
            Err(e) => {
                assert!(!e.to_string().is_empty());
                past_syntax += usize::from(!matches!(e, ScenarioError::Syntax { .. }));
            }
        }
    });
    // Some inputs are well-formed enough to reach the schema checks.
    assert!(past_syntax > 0, "every input stopped at a syntax error");
}

/// A valid scenario: every family, profile and plane, and each override
/// and optional section present or not, with values inside the domains
/// `ScenarioSpec::validate` accepts.
fn valid_spec(g: &mut Gen) -> ScenarioSpec {
    use rem_core::scenario::{FaultsSpec, NetSpec};
    use rem_fleet::FleetSpec;
    use rem_sim::deployment::CarrierPlan;

    const FAMILIES: [Family; 4] =
        [Family::BeijingTaiyuan, Family::BeijingShanghai, Family::LaDriving, Family::NrSmallcell];
    const NAME: [&str; 11] = ["\r", "hsr", "-", " ", "\"", "\\", "\n", "\t", "#", "[x]", "é中🚄"];
    let name = format!("s{}", g.vec(0..6, |g| g.pick(&NAME)).concat());
    let speed_kmh = g.range(1.0..600.0);
    let mut spec = ScenarioSpec::new(&name, g.pick(&FAMILIES), g.range(0.5..2_000.0), speed_kmh);
    let opt = |g: &mut Gen, lo: f64, hi: f64| g.bool().then(|| g.range(lo..hi));
    let pair = |g: &mut Gen, lo: f64, hi: f64| {
        g.bool().then(|| {
            let a = g.range(lo..hi);
            (a, a + g.range(0.0..hi))
        })
    };

    if g.bool() {
        let accel_ms2 = g.range(0.1..2.0);
        let v = speed_kmh / 3.6;
        spec.trajectory.profile = ProfileSpec::Stations {
            stop_every_m: v * v / accel_ms2 * g.range(1.01..10.0) + 1.0,
            dwell_s: g.range(0.0..600.0),
            accel_ms2,
        };
    }

    let c = &mut spec.cells;
    c.site_spacing_m = opt(g, 50.0, 5_000.0);
    c.lateral_range_m = pair(g, 0.0, 600.0);
    c.carriers = g.bool().then(|| {
        g.vec(1..4, |g| CarrierPlan {
            earfcn: rem_mobility::Earfcn(g.range(0..70_000)),
            carrier_hz: g.range(0.4e9..6e9),
            bandwidth_mhz: g.range(1.4..100.0),
        })
    });
    c.second_cell_prob = opt(g, 0.0, 1.0);
    c.third_cell_prob = opt(g, 0.0, 1.0);
    c.tx_power_dbm = opt(g, -20.0, 50.0);
    c.holes_per_100km = opt(g, 0.0, 10.0);
    c.hole_len_m = pair(g, 0.0, 2_000.0);

    let ch = &mut spec.channel;
    ch.shadow_sigma_db = opt(g, 0.0, 12.0);
    ch.shadow_dcorr_m = opt(g, 1.0, 500.0);
    ch.rem_estimation_err_db = opt(g, 0.0, 5.0);

    let p = &mut spec.policy;
    p.plane = g.pick(&[PlaneMix::Both, PlaneMix::Legacy, PlaneMix::Rem]);
    p.rem_clamp_offsets = g.bool().then(|| g.bool());
    p.proactive_prob = opt(g, 0.0, 1.0);
    p.proactive_offset_db = opt(g, -10.0, 0.0);
    p.normal_offset_db = opt(g, 0.0, 10.0);
    p.intra_ttt_ms = opt(g, 0.0, 1_000.0);
    p.inter_ttt_ms = opt(g, 0.0, 1_000.0);
    p.intra_staleness_ms = opt(g, 0.0, 2_000.0);
    p.inter_staleness_ms = opt(g, 0.0, 2_000.0);
    p.rem_staleness_ms = opt(g, 0.0, 500.0);

    spec.link.snr_db = g.range(-10.0..30.0);
    spec.link.blocks = g.range(1..1_000);
    spec.link.seed = g.range(0..1 << 40);

    spec.faults = g.bool().then(|| FaultsSpec {
        rate_scale: opt(g, 0.0, 5.0),
        feedback_per_min: opt(g, 0.0, 10.0),
        command_per_min: opt(g, 0.0, 10.0),
        x2_per_min: opt(g, 0.0, 10.0),
        mask_per_min: opt(g, 0.0, 10.0),
        hole_per_min: opt(g, 0.0, 10.0),
        window_ms: opt(g, 1.0, 5_000.0),
        hole_ms: opt(g, 1.0, 5_000.0),
        extra_delay_ms: opt(g, 1.0, 5_000.0),
        delay_frac: opt(g, 0.0, 0.5),
        corrupt_frac: opt(g, 0.0, 0.5),
    });
    spec.net = g.bool().then(|| NetSpec {
        bloat_per_min: opt(g, 0.0, 10.0),
        bloat_ms: opt(g, 1.0, 5_000.0),
        bloat_drain_pkts_per_ms: opt(g, 0.01, 10.0),
        bloat_queue_pkts: opt(g, 1.0, 1_000.0),
        bloat_standing_pkts: opt(g, 0.0, 500.0),
        jitter_per_min: opt(g, 0.0, 10.0),
        jitter_ms: opt(g, 1.0, 5_000.0),
        jitter_spike_ms: opt(g, 0.0, 500.0),
        rebind_per_min: opt(g, 0.0, 10.0),
        outage_per_min: opt(g, 0.0, 10.0),
        outage_ms: opt(g, 1.0, 5_000.0),
        window_ms: opt(g, 1_000.0, 300_000.0),
        loss_prob: opt(g, 0.0, 1.0),
    });
    spec.fleet = g.bool().then(|| FleetSpec {
        trains: g.range(1..500),
        ues_per_train: g.range(1..1_000),
        corridor_km: g.range(1.0..500.0),
        cell_spacing_m: g.range(100.0..5_000.0),
        speed_kmh: g.range(10.0..600.0),
        speed_jitter: g.range(0.0..0.99),
        headway_s: g.range(1.0..600.0),
        duration_s: g.range(1.0..3_600.0),
        epoch_ms: g.range(10.0..1_000.0),
        seed: g.range(0..1 << 40),
        shards: g.range(1..16),
    });

    let r = &mut spec.run;
    r.seeds = g.vec(1..6, |g| g.range(0..1 << 40));
    r.threads = g.range(0..8);
    r.checkpoint_every = g.range(1..64);
    r.max_retries = g.range(0..5);
    r.trial_timeout_ms = g.bool().then(|| g.range(1..100_000));
    r.chaos_panic_rate = g.range(0.0..1.0);
    r.chaos_fatal = g.bool();
    r.chaos_seed = g.range(0..1 << 40);

    spec.train.clients = g.range(1..64);
    spec.train.train_len_m = g.range(10.0..1_000.0);
    spec.train.window_ms = g.range(10.0..10_000.0);
    spec.train.seed = g.range(0..1 << 40);
    spec
}

#[test]
fn generated_valid_specs_round_trip_exactly() {
    let mut sections = [0usize; 3];
    check("generated_valid_specs_round_trip_exactly", 512, valid_spec, |spec| {
        spec.validate().expect("the generator draws valid specs");
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(&back, spec, "{text}");
        assert_eq!(back.to_toml(), text);
        let present = [spec.faults.is_some(), spec.net.is_some(), spec.fleet.is_some()];
        for (n, p) in sections.iter_mut().zip(present) {
            *n += usize::from(p);
        }
    });
    assert!(sections.iter().all(|&n| n > 100), "optional sections drawn {sections:?} times");
}
