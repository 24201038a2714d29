//! Flag parsing, and the one function ([`configure`]) that turns a
//! study command's flags, plus an optional `--scenario` file, into a
//! validated [`ScenarioSpec`].
//!
//! A command consumes its flags as it reads them; [`Args::finish`]
//! rejects whatever it did not read. The code that reads a command's
//! flags is therefore the only list of the flags it takes.

use crate::CliError;
use rem_core::rem_faults::NetFaultConfig;
use rem_core::rem_mobility::Earfcn;
use rem_core::rem_sim::deployment::CarrierPlan;
use rem_core::scenario::{Family, NetSpec, PlaneMix, RunSpec};
use rem_core::{ExperimentError, ScenarioSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One command's `--key value` flags and positional arguments, consumed
/// as the command reads them.
#[derive(Clone, Debug, Default)]
pub struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// Parse error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Args {
    /// Parses the tokens after `rem <cmd>`. A `--key` followed by
    /// another `--flag` (or nothing) is a switch; otherwise the next
    /// token is its value.
    pub fn parse<I: IntoIterator<Item = String>>(cmd: &str, tokens: I) -> Self {
        let mut out = Args { cmd: cmd.to_string(), ..Args::default() };
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let val = it.next_if(|next| !next.starts_with("--")).unwrap_or_default();
                out.flags.insert(key.to_string(), val);
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    /// `--key <value>`; a `--key` given no value is an error.
    pub fn str(&mut self, key: &str) -> Result<Option<String>, ArgError> {
        match self.flags.remove(key) {
            Some(v) if v.is_empty() => Err(ArgError(format!("--{key} expects a value"))),
            v => Ok(v),
        }
    }

    /// Numeric flag.
    pub fn num(&mut self, key: &str) -> Result<Option<f64>, ArgError> {
        self.parsed(key, "a number")
    }

    /// Integer flag; a value outside `T`'s range is an error.
    pub fn int<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, ArgError> {
        self.parsed(key, "an integer")
    }

    fn parsed<T: FromStr>(&mut self, key: &str, what: &str) -> Result<Option<T>, ArgError> {
        self.str(key)?
            .map(|v| v.parse().map_err(|_| ArgError(format!("--{key} expects {what}, got '{v}'"))))
            .transpose()
    }

    /// `--key` switch; a switch given a value is an error.
    pub fn switch(&mut self, key: &str) -> Result<bool, ArgError> {
        match self.flags.remove(key) {
            None => Ok(false),
            Some(v) if v.is_empty() => Ok(true),
            Some(v) => Err(ArgError(format!("--{key} takes no value, got '{v}'"))),
        }
    }

    /// Every positional argument.
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positional)
    }

    /// Ends reading: a flag or positional the command did not read is a
    /// usage error that names it.
    pub fn finish(self) -> Result<(), ArgError> {
        let cmd = &self.cmd;
        if let Some(key) = self.flags.keys().next() {
            return Err(ArgError(format!("`rem {cmd}` does not take --{key} (see `rem help`)")));
        }
        if let Some(p) = self.positional.first() {
            return Err(ArgError(format!(
                "`rem {cmd}` does not take the argument '{p}' (see `rem help`)"
            )));
        }
        Ok(())
    }
}

/// The commands whose study is built from a [`ScenarioSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    Compare,
    Faults,
    Bler,
    Train,
    Net,
    Fleet,
    Trace,
}

impl Cmd {
    /// Commands made of independent trials, which take the shared
    /// execution flags (threads, checkpointing, retries, chaos).
    fn trials(self) -> bool {
        !matches!(self, Cmd::Fleet | Cmd::Trace)
    }

    /// The spec a run starts from when no `--scenario` file is given.
    fn base(self) -> ScenarioSpec {
        let name = match self {
            Cmd::Compare => "compare",
            Cmd::Faults => "faults",
            Cmd::Bler => "bler",
            Cmd::Train => "train",
            Cmd::Net => "net",
            Cmd::Fleet => "fleet",
            Cmd::Trace => "trace",
        };
        let mut s = ScenarioSpec::new(name, Family::BeijingShanghai, 40.0, 300.0);
        match self {
            Cmd::Faults | Cmd::Net => s.run.seeds = vec![1, 2, 3],
            // The link study runs at 350 km/h on a 2.6 GHz carrier; it
            // reads only the primary carrier's frequency.
            Cmd::Bler => {
                s.trajectory.speed_kmh = 350.0;
                s.cells.carriers = Some(vec![CarrierPlan {
                    earfcn: Earfcn(38050),
                    carrier_hz: 2.6e9,
                    bandwidth_mhz: 20.0,
                }]);
            }
            _ => {}
        }
        s
    }
}

/// The flags that say where a command's spec comes from and what is
/// written beside its run: what the study commands share that is not a
/// field of the spec.
#[derive(Clone, Debug, Default)]
pub struct CommonArgs {
    /// `--scenario <file>` — the base spec instead of the command's
    /// defaults.
    pub scenario: Option<String>,
    /// `--hash` — print the FNV-1a 64 result digest.
    pub hash: bool,
    /// `--checkpoint <file>`.
    pub checkpoint: Option<String>,
    /// `--resume <file>`.
    pub resume: Option<String>,
    /// `--obs-trace <file>` — observability trace destination.
    pub obs_trace: Option<String>,
}

impl CommonArgs {
    /// Reads the shared flags `cmd` takes: every command takes
    /// `--scenario`, those that digest a result (all but `trace`) take
    /// `--hash` and `--obs-trace`, and trial-based ones take
    /// `--checkpoint` and `--resume`.
    fn parse(a: &mut Args, cmd: Cmd) -> Result<Self, ArgError> {
        let mut c = Self { scenario: a.str("scenario")?, ..Self::default() };
        if cmd != Cmd::Trace {
            c.hash = a.switch("hash")?;
            c.obs_trace = a.str("obs-trace")?;
        }
        if cmd.trials() {
            c.checkpoint = a.str("checkpoint")?;
            c.resume = a.str("resume")?;
        }
        Ok(c)
    }

    /// The checkpoint file the runner should use: `--resume` doubles as
    /// the write path, else `--checkpoint`.
    pub fn ckpt_path(&self) -> Option<PathBuf> {
        self.resume.as_deref().or(self.checkpoint.as_deref()).map(PathBuf::from)
    }
}

/// The one way a study command gets its configuration: the `--scenario`
/// file, or else `cmd`'s base spec, with every flag `cmd` takes folded
/// on top and the result validated. Flags win over the file; absent
/// flags keep its values. Reading ends here, so any flag `cmd` does not
/// take is a usage error.
pub fn configure(cmd: Cmd, mut a: Args) -> Result<(CommonArgs, ScenarioSpec), CliError> {
    let common = CommonArgs::parse(&mut a, cmd)?;
    let mut spec = match &common.scenario {
        Some(path) => ScenarioSpec::load(Path::new(path)).map_err(ExperimentError::from)?,
        None => cmd.base(),
    };
    overlay(cmd, &mut a, &mut spec)?;
    a.finish()?;
    spec.validate().map_err(ExperimentError::from)?;
    Ok((common, spec))
}

/// Folds the study flags `cmd` takes onto `spec`.
fn overlay(cmd: Cmd, a: &mut Args, s: &mut ScenarioSpec) -> Result<(), ArgError> {
    if cmd.trials() {
        run_flags(a, &mut s.run)?;
    }
    match cmd {
        Cmd::Compare => {
            route(a, s)?;
            seeds(a, &mut s.run)?;
        }
        Cmd::Faults => {
            route(a, s)?;
            plane(a, s)?;
            seeds(a, &mut s.run)?;
            if let Some(x) = a.num("rate-scale")? {
                s.faults.get_or_insert_with(Default::default).rate_scale = Some(x);
            }
        }
        Cmd::Bler => {
            if let Some(m) = a.str("model")? {
                s.link.model = link_model(&m)?;
            }
            set(&mut s.trajectory.speed_kmh, a.num("speed")?);
            set(&mut s.link.snr_db, a.num("snr")?);
            set(&mut s.link.blocks, a.int("blocks")?);
            set(&mut s.link.seed, a.int("seed")?);
        }
        Cmd::Train => {
            route(a, s)?;
            plane(a, s)?;
            set(&mut s.train.clients, a.int("clients")?);
            set(&mut s.train.seed, a.int("seed")?);
        }
        Cmd::Net => {
            seeds(a, &mut s.run)?;
            let n = s.net.get_or_insert_with(NetSpec::default);
            if a.switch("aggressive")? {
                let g = NetFaultConfig::aggressive();
                n.bloat_per_min = Some(g.bloat_per_min);
                n.jitter_per_min = Some(g.jitter_per_min);
                n.rebind_per_min = Some(g.rebind_per_min);
                n.outage_per_min = Some(g.outage_per_min);
            }
            n.window_ms = a.num("window-ms")?.or(n.window_ms);
            n.loss_prob = a.num("loss")?.or(n.loss_prob);
        }
        Cmd::Fleet => {
            set(&mut s.run.threads, a.int("threads")?);
            let f = s.fleet.get_or_insert_with(Default::default);
            set(&mut f.trains, a.int("trains")?);
            set(&mut f.ues_per_train, a.int("ues")?);
            set(&mut f.corridor_km, a.num("corridor-km")?);
            set(&mut f.cell_spacing_m, a.num("cell-spacing-m")?);
            set(&mut f.speed_kmh, a.num("speed")?);
            set(&mut f.speed_jitter, a.num("jitter")?);
            set(&mut f.headway_s, a.num("headway")?);
            set(&mut f.duration_s, a.num("duration")?);
            set(&mut f.epoch_ms, a.num("epoch-ms")?);
            set(&mut f.seed, a.int("seed")?);
            set(&mut f.shards, a.int("shards")?);
        }
        // Trace's `--seed` and `--out` are not spec fields: the command
        // reads them itself.
        Cmd::Trace => {
            route(a, s)?;
            plane(a, s)?;
        }
    }
    Ok(())
}

fn set<T>(field: &mut T, flag: Option<T>) {
    if let Some(v) = flag {
        *field = v;
    }
}

/// The `[run]` flags every trial-based command takes.
fn run_flags(a: &mut Args, run: &mut RunSpec) -> Result<(), ArgError> {
    set(&mut run.threads, a.int("threads")?);
    set(&mut run.checkpoint_every, a.int("checkpoint-every")?);
    set(&mut run.max_retries, a.int("max-retries")?);
    if let Some(ms) = a.int("trial-timeout-ms")? {
        run.trial_timeout_ms = (ms > 0).then_some(ms);
    }
    set(&mut run.chaos_panic_rate, a.num("chaos-panic")?);
    run.chaos_fatal |= a.switch("chaos-fatal")?;
    set(&mut run.chaos_seed, a.int("chaos-seed")?);
    Ok(())
}

/// `--seeds <n>`: the seeds `1..=n`.
fn seeds(a: &mut Args, run: &mut RunSpec) -> Result<(), ArgError> {
    if let Some(n) = a.int::<u64>("seeds")? {
        run.seeds = (1..=n).collect();
    }
    Ok(())
}

/// `--dataset`, `--speed` and `--route-km`.
fn route(a: &mut Args, s: &mut ScenarioSpec) -> Result<(), ArgError> {
    if let Some(code) = a.str("dataset")? {
        s.cells.family = Family::from_code(&code)
            .ok_or_else(|| ArgError(format!("unknown dataset '{code}' (bt|bs|la|nr)")))?;
    }
    set(&mut s.trajectory.speed_kmh, a.num("speed")?);
    set(&mut s.trajectory.route_km, a.num("route-km")?);
    Ok(())
}

/// `--plane legacy|rem|both`; single-plane commands run `both` as legacy.
fn plane(a: &mut Args, s: &mut ScenarioSpec) -> Result<(), ArgError> {
    if let Some(p) = a.str("plane")? {
        s.policy.plane = match p.as_str() {
            "legacy" => PlaneMix::Legacy,
            "rem" => PlaneMix::Rem,
            "both" => PlaneMix::Both,
            other => return Err(ArgError(format!("unknown plane '{other}' (legacy|rem|both)"))),
        };
    }
    Ok(())
}

fn link_model(code: &str) -> Result<rem_channel::models::ChannelModel, ArgError> {
    use rem_channel::models::ChannelModel;
    match code {
        "hst" => Ok(ChannelModel::Hst),
        "eva" => Ok(ChannelModel::Eva),
        "etu" => Ok(ChannelModel::Etu),
        "epa" => Ok(ChannelModel::Epa),
        other => Err(ArgError(format!("unknown model '{other}' (hst|eva|etu|epa)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse("compare", s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let mut a = args("--speed 300 input.json --seeds 4");
        assert_eq!(a.num("speed").unwrap(), Some(300.0));
        assert_eq!(a.int::<u64>("seeds").unwrap(), Some(4));
        assert_eq!(a.positionals(), ["input.json"]);
        a.finish().unwrap();
    }

    #[test]
    fn defaults_and_requirements() {
        let mut a = args("--x 1 --out");
        assert_eq!(a.num("y").unwrap(), None, "an absent flag reads as None");
        assert!(a.str("out").is_err(), "a value flag needs its value");
    }

    #[test]
    fn bad_values_error() {
        assert!(args("--n abc").int::<u64>("n").is_err());
        assert!(args("--n abc").num("n").is_err());
        assert!(args("--n -1").int::<u64>("n").is_err());
        assert!(args("--n 4294967296").int::<u32>("n").is_err(), "out of u32 range");
    }

    #[test]
    fn boolean_switches() {
        let mut a = args("--hash --seeds 4 --verbose");
        assert!(a.switch("hash").unwrap());
        assert!(a.switch("verbose").unwrap());
        assert!(!a.switch("absent").unwrap());
        assert_eq!(a.int::<u64>("seeds").unwrap(), Some(4));
        assert!(args("--hash yes").switch("hash").is_err(), "a switch takes no value");
    }

    #[test]
    fn finish_names_what_the_command_did_not_read() {
        let mut a = args("--seeds 2 --trians 7");
        a.int::<u64>("seeds").unwrap();
        let e = a.finish().unwrap_err();
        assert!(e.0.contains("`rem compare`") && e.0.contains("--trians"), "{e}");
        let e = args("extra").finish().unwrap_err();
        assert!(e.0.contains("'extra'"), "{e}");
    }

    #[test]
    fn common_args_defaults_match_the_historical_cli() {
        let (c, s) = configure(Cmd::Compare, args("")).ok().expect("flag-only run configures");
        let p = s.run_policy();
        assert_eq!(p.threads, 0);
        assert_eq!(p.max_retries, 1);
        assert_eq!(p.trial_timeout_ms, None);
        assert_eq!(p.checkpoint_every, 16);
        assert!(s.chaos().is_none());
        assert!(c.ckpt_path().is_none());
        assert!(!c.hash);
    }

    #[test]
    fn common_args_overlay_only_touches_present_flags() {
        let mut s = Cmd::Compare.base();
        s.run.checkpoint_every = 99;
        let mut expected = s.clone();
        let mut a = args("--threads 4 --seeds 3 --chaos-panic 0.5");
        overlay(Cmd::Compare, &mut a, &mut s).unwrap();
        a.finish().unwrap();
        assert_eq!(s.run.checkpoint_every, 99, "absent flag must keep the spec value");
        assert_eq!(s.run.chaos_seed, 7, "absent flag must keep the spec value");
        expected.run.threads = 4;
        expected.run.seeds = vec![1, 2, 3];
        expected.run.chaos_panic_rate = 0.5;
        assert_eq!(s, expected, "only the fields of present flags move");
    }

    #[test]
    fn common_args_validates_the_chaos_rate() {
        assert!(configure(Cmd::Compare, args("--chaos-panic 1.5")).is_err());
        assert!(configure(Cmd::Compare, args("--chaos-panic 0.5")).is_ok());
    }

    #[test]
    fn resume_doubles_as_the_checkpoint_path() {
        let a = args("--resume r.ckpt --checkpoint c.ckpt");
        let (c, _) = configure(Cmd::Compare, a).ok().expect("resume run configures");
        assert_eq!(c.ckpt_path().unwrap(), PathBuf::from("r.ckpt"));
    }
}
