//! Link-level simulation: the full coded block pipeline.
//!
//! This drives the paper's Fig 10 (BLER vs SNR for legacy OFDM vs REM's
//! OTFS signaling) and supplies per-message error probabilities to the
//! mobility simulator. A block travels:
//!
//! ```text
//! payload -> CRC-16 -> conv. encode (133,171) -> interleave -> QAM ->
//!   [OFDM grid | OTFS delay-Doppler grid] -> channel + ICI + AWGN ->
//!   equalise -> soft demap -> Viterbi -> CRC check
//! ```
//!
//! The OTFS path spreads every symbol over the whole grid (SFFT), so a
//! deep time/frequency fade dents every symbol slightly instead of
//! erasing a few symbols completely — the diversity the paper exploits.

use crate::convcode;
use crate::crc::{attach_crc, check_crc};
use crate::dsp::{with_thread_scratch, DspScratch};
use crate::interleaver::BlockInterleaver;
use crate::ofdm::{mmse_equalize, otfs_effective_sinr, slot_sinrs, tf_channel, transmit, zf_equalize};
use crate::otfs::{otfs_demodulate_into, otfs_modulate_into};
use crate::qam::{demodulate_soft_per_symbol_into, modulate, Modulation};
use rand::Rng;
use rem_channel::models::ChannelModel;
use rem_channel::noise::ici_relative_power;
use rem_channel::{DdGrid, MultipathChannel};
use rem_num::health;
use rem_num::stats::db_to_lin;
use rem_num::{CMatrix, SimRng};
use serde::{Deserialize, Serialize};

/// Stage-boundary spot check: a NaN/Inf anywhere in a DSP grid (post
/// equalisation, post OTFS demodulation) is recorded in the thread's
/// [`rem_num::health::DegradedStats`] ledger — once per grid, not per
/// element, so the counter reads "degraded stages", not "bad samples".
fn spot_check_stage(grid: &CMatrix) {
    if health::first_non_finite_c(grid.as_slice()).is_some() {
        health::record(|d| d.non_finite_stage += 1);
    }
}

/// Neutralises non-finite LLRs (0.0 = "no information") before they
/// reach the Viterbi decoder, recording each in the health ledger. A
/// NaN LLR would otherwise poison every path metric and turn the block
/// into undetected garbage; a zeroed LLR merely erases one bit's
/// evidence — degradation the decoder is built to absorb.
fn sanitize_llrs(llrs: &mut [f64]) {
    let mut bad = 0u64;
    for l in llrs.iter_mut() {
        if !l.is_finite() {
            *l = 0.0;
            bad += 1;
        }
    }
    if bad > 0 {
        health::record(|d| d.non_finite_llr += bad);
    }
}

/// Which waveform carries the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Waveform {
    /// Legacy 4G/5G: symbols ride individual resource elements.
    Ofdm,
    /// REM signaling overlay: symbols spread over the grid via SFFT.
    Otfs,
}

/// How the receiver obtains channel state for equalisation.
///
/// This is the mechanism behind the paper's Fig 10 gap: a legacy OFDM
/// receiver equalises with pilot estimates that *age* within the
/// subframe — at HSR Doppler the channel rotates appreciably between
/// pilots, so the equaliser is systematically wrong and the BLER floors
/// even at high SNR. A delay-Doppler receiver tracks the multipath
/// profile `{h_p, tau_p, nu_p}`, which is stable (paper Appendix A),
/// and can *predict* the channel across the whole grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CsiModel {
    /// Genie-aided: exact gains everywhere (upper bound).
    Perfect,
    /// Pilot-symbol estimates held constant until the next pilot
    /// column (zero-order hold with the given period in OFDM symbols).
    /// LTE cell-specific reference signals give a period of ~4.
    PilotHold {
        /// Pilot spacing in OFDM symbols.
        period: usize,
    },
    /// Delay-Doppler profile tracking: the receiver knows the (slowly
    /// varying) path profile and predicts the time-frequency gains from
    /// it — accurate over the whole grid.
    DdProfile,
}

/// OTFS receiver architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OtfsReceiver {
    /// Two-step: MMSE in the time-frequency domain, then ISFFT.
    /// Cheap; loses a little to self-interference at low SNR.
    TwoStep,
    /// Sparse message-passing detection in the delay-Doppler domain
    /// (paper ref \[21\], [`crate::mp_detect`]). More compute, better
    /// low-SNR behaviour.
    MessagePassing,
}

/// Static configuration of a link.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Resource grid (also fixes the delay-Doppler grid for OTFS).
    pub grid: DdGrid,
    /// Constellation.
    pub modulation: Modulation,
    /// OFDM (legacy) or OTFS (REM overlay).
    pub waveform: Waveform,
    /// Receiver channel knowledge.
    pub csi: CsiModel,
    /// OTFS receiver (ignored for OFDM).
    pub otfs_receiver: OtfsReceiver,
}

impl LinkConfig {
    /// An LTE-subframe-sized signaling link (12 x 14, QPSK), the
    /// configuration the paper's Fig 10 uses (`M = 12, N = 14` for
    /// 1 ms). Legacy OFDM uses pilot-hold CSI (period 4, the LTE CRS
    /// spacing); the REM overlay tracks the delay-Doppler profile.
    pub fn signaling(waveform: Waveform) -> Self {
        let csi = match waveform {
            Waveform::Ofdm => CsiModel::PilotHold { period: 4 },
            Waveform::Otfs => CsiModel::DdProfile,
        };
        Self {
            grid: DdGrid::lte_subframe(),
            modulation: Modulation::Qpsk,
            waveform,
            csi,
            otfs_receiver: OtfsReceiver::TwoStep,
        }
    }

    /// Symbol capacity of the grid.
    fn capacity_symbols(&self) -> usize {
        self.grid.m * self.grid.n
    }

    /// Coded-bit capacity of the grid.
    fn capacity_bits(&self) -> usize {
        self.capacity_symbols() * self.modulation.bits_per_symbol()
    }

    /// Largest payload (information bits) a single block can carry
    /// after CRC, tail bits and rate-1/2 coding.
    pub fn max_payload_bits(&self) -> usize {
        (self.capacity_bits() / convcode::RATE_INV).saturating_sub(16 + convcode::TAIL_BITS)
    }
}

/// Outcome of one simulated block.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockOutcome {
    /// True when the CRC verified after decoding.
    pub crc_ok: bool,
    /// Payload bit errors after decoding (0 when `crc_ok`).
    pub bit_errors: usize,
    /// Effective post-equalisation SINR in dB seen by the decoder
    /// (per-slot mean for OFDM, grid-effective for OTFS).
    pub effective_sinr_db: f64,
}

/// Simulates one block through one channel realization at the given
/// average SNR. `payload` must fit [`LinkConfig::max_payload_bits`].
pub fn simulate_block(
    cfg: &LinkConfig,
    ch: &MultipathChannel,
    snr_db: f64,
    payload: &[bool],
    rng: &mut SimRng,
) -> BlockOutcome {
    with_thread_scratch(|ws| simulate_block_with(cfg, ch, snr_db, payload, rng, ws))
}

/// [`simulate_block`] with caller-provided DSP scratch: FFT plans, the
/// Viterbi trellis and the demapper buffers are reused across blocks
/// instead of being rebuilt per call (the Monte-Carlo workers thread
/// one scratch per worker through their whole trial stream).
pub fn simulate_block_with(
    cfg: &LinkConfig,
    ch: &MultipathChannel,
    snr_db: f64,
    payload: &[bool],
    rng: &mut SimRng,
    ws: &mut DspScratch,
) -> BlockOutcome {
    assert!(payload.len() <= cfg.max_payload_bits(), "payload exceeds block capacity");
    let _timing = rem_obs::metrics::span("rem_phy_block_us");
    rem_obs::metrics::inc("rem_phy_blocks_total");
    let cap_bits = cfg.capacity_bits();

    // Encode.
    let block = attach_crc(payload);
    let coded = convcode::encode(&block);
    let coded_len = coded.len();
    let mut padded = coded;
    padded.resize(cap_bits, false);
    let il = BlockInterleaver::for_len(cap_bits);

    let (dellrs, eff_sinr) = transmit_and_demap(cfg, ch, snr_db, &padded, &il, rng, ws);
    // Decode the full payload+CRC block, then verify integrity.
    let decoded_with_crc =
        convcode::decode_soft_with(&dellrs[..coded_len], block.len(), &mut ws.trellis)
            .expect("length checked");
    let crc_ok = check_crc(&decoded_with_crc).is_some();
    let bit_errors = payload
        .iter()
        .zip(&decoded_with_crc)
        .filter(|(a, b)| a != b)
        .count();

    if !(crc_ok && bit_errors == 0) {
        rem_obs::metrics::inc("rem_phy_crc_fail_total");
    }
    rem_obs::metrics::observe("rem_phy_bit_errors", bit_errors as u64);
    BlockOutcome {
        crc_ok: crc_ok && bit_errors == 0,
        bit_errors,
        effective_sinr_db: rem_num::stats::lin_to_db(eff_sinr.max(1e-12)),
    }
}

/// One transmission of an (already padded) coded block: interleave,
/// map, run the channel (true gains drive propagation, the receiver
/// equalises with whatever its CSI model provides), equalise per the
/// configured waveform/receiver, soft-demap with per-symbol noise
/// variances, and return the *deinterleaved*, sanitized LLRs plus the
/// effective SINR (linear).
fn transmit_and_demap(
    cfg: &LinkConfig,
    ch: &MultipathChannel,
    snr_db: f64,
    padded_coded_bits: &[bool],
    il: &BlockInterleaver,
    rng: &mut SimRng,
    ws: &mut DspScratch,
) -> (Vec<f64>, f64) {
    debug_assert_eq!(padded_coded_bits.len(), cfg.capacity_bits());
    let symbols = modulate(&il.interleave(padded_coded_bits), cfg.modulation);
    debug_assert_eq!(symbols.len(), cfg.capacity_symbols());
    let tx_syms = CMatrix::from_vec(cfg.grid.m, cfg.grid.n, symbols);

    let noise_var = db_to_lin(-snr_db);
    let grid = &cfg.grid;
    let gains = tf_channel(grid, ch);
    let est = estimated_gains(&gains, cfg.csi);
    let sinrs = slot_sinrs(&gains, grid, ch, noise_var);
    let ici_rel = ici_relative_power(ch.max_doppler_hz(), grid.t_sym);

    let (eq_syms, noise_vars, eff_sinr) = match cfg.waveform {
        Waveform::Ofdm => {
            let rx = transmit(&tx_syms, &gains, grid, ch, noise_var, rng);
            let eq = zf_equalize(&rx, &est);
            // Post-ZF noise per slot as the *receiver* believes it:
            // (thermal + ICI) / |h_est|^2. CSI aging errors are invisible
            // to the receiver — that is precisely the failure mode.
            let nvs: Vec<f64> = est
                .as_slice()
                .iter()
                .map(|h| {
                    let g = h.norm_sqr();
                    if g < 1e-30 {
                        1e30
                    } else {
                        (noise_var + ici_rel * g) / g
                    }
                })
                .collect();
            (eq, nvs, rem_num::stats::mean(&sinrs))
        }
        Waveform::Otfs if cfg.otfs_receiver == OtfsReceiver::MessagePassing => {
            // Delay-Doppler message passing: demodulate the raw grid,
            // extract the sparse taps from the (CSI-model) channel, run
            // the soft MP detector and hand its bitwise LLRs straight
            // to the decoder — there is no demap stage.
            use crate::mp_detect::{beliefs_to_llrs, extract_taps, mp_detect_beliefs, MpConfig};
            use crate::otfs::isfft_into;

            let mut tx_tf = CMatrix::zeros(grid.m, grid.n);
            otfs_modulate_into(&tx_syms, &mut tx_tf, ws);
            let rx = transmit(&tx_tf, &gains, grid, ch, noise_var, rng);
            // Received DD grid (unitary demod) and the channel's DD taps.
            let mut y_dd = CMatrix::zeros(grid.m, grid.n);
            otfs_demodulate_into(&rx, &mut y_dd, ws);
            let mut h_dd = CMatrix::zeros(grid.m, grid.n);
            isfft_into(&est, &mut h_dd, ws);
            let taps = extract_taps(&h_dd, 0.08);
            let beliefs =
                mp_detect_beliefs(&y_dd, &taps, cfg.modulation, noise_var, &MpConfig::default());
            let llrs = beliefs_to_llrs(&beliefs, cfg.modulation);
            debug_assert_eq!(llrs.len(), cfg.capacity_bits());
            spot_check_stage(&y_dd);
            let mut dellrs = il.deinterleave(&llrs);
            sanitize_llrs(&mut dellrs);
            return (dellrs, otfs_effective_sinr(&sinrs));
        }
        Waveform::Otfs => {
            let mut tx_tf = CMatrix::zeros(grid.m, grid.n);
            otfs_modulate_into(&tx_syms, &mut tx_tf, ws);
            let rx = transmit(&tx_tf, &gains, grid, ch, noise_var, rng);
            let eq_tf = mmse_equalize(&rx, &est, noise_var);
            // MMSE bias: each slot is scaled by beta = |h|^2/(|h|^2+nv);
            // after ISFFT every DD symbol is scaled by the grid mean.
            let mean_beta: f64 = est
                .as_slice()
                .iter()
                .map(|h| h.norm_sqr() / (h.norm_sqr() + noise_var))
                .sum::<f64>()
                / est.as_slice().len() as f64;
            let mut dd = CMatrix::zeros(grid.m, grid.n);
            otfs_demodulate_into(&eq_tf, &mut dd, ws);
            if mean_beta > 1e-12 {
                dd.scale_mut(1.0 / mean_beta);
            }
            let eff = otfs_effective_sinr(&sinrs);
            let nv_eff = if eff > 0.0 { 1.0 / eff } else { 1e30 };
            (dd, vec![nv_eff; cfg.capacity_symbols()], eff)
        }
    };

    spot_check_stage(&eq_syms);
    ws.llrs.clear();
    demodulate_soft_per_symbol_into(eq_syms.as_slice(), cfg.modulation, &noise_vars, &mut ws.llrs);
    debug_assert_eq!(ws.llrs.len(), cfg.capacity_bits());
    let mut dellrs = il.deinterleave(&ws.llrs);
    sanitize_llrs(&mut dellrs);
    (dellrs, eff_sinr)
}

/// Applies the CSI model to the true gains: what the receiver's
/// equaliser believes the channel is.
fn estimated_gains(gains: &CMatrix, csi: CsiModel) -> CMatrix {
    match csi {
        CsiModel::Perfect | CsiModel::DdProfile => gains.clone(),
        CsiModel::PilotHold { period } => {
            let p = period.max(1);
            CMatrix::from_fn(gains.rows(), gains.cols(), |m, n| gains[(m, n - n % p)])
        }
    }
}

/// Declarative parameters of a Monte-Carlo BLER measurement: the link,
/// the channel statistics, the operating point, and how to execute it.
///
/// The scenario is a value (buildable, serialisable, comparable across
/// sweeps) and carries a `seed` instead of a threaded `&mut SimRng`.
/// Every trial derives its own RNG stream from `(seed, trial index)`,
/// which makes two things true at once:
///
/// * **Parallel determinism** — trials are independent, so
///   [`BlerScenario::outcomes`] fans them out over [`rem_exec::par_map`]
///   and any thread count (including 1) produces bit-identical results;
/// * **Paired realizations** — the channel and payload of trial `i`
///   depend only on `(seed, i)`, so two scenarios differing only in
///   waveform/receiver see *identical* channels per trial (the paper's
///   same-environment replay methodology at link level).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BlerScenario {
    /// Link configuration (grid, modulation, waveform, CSI, receiver).
    pub cfg: LinkConfig,
    /// 3GPP channel statistics the trials draw realizations from.
    pub model: ChannelModel,
    /// Client speed (m/s).
    pub speed_ms: f64,
    /// Carrier frequency (Hz).
    pub carrier_hz: f64,
    /// Average SNR per block (dB).
    pub snr_db: f64,
    /// Monte-Carlo trials (one coded block each).
    pub blocks: usize,
    /// Master seed; trial `i` uses the derived stream
    /// `child_rng(seed, "bler-trial-i")`.
    pub seed: u64,
    /// Worker threads (`0` = all available hardware threads).
    pub threads: usize,
}

impl BlerScenario {
    /// A scenario at the paper's Fig 10a operating point (HST-style
    /// defaults: 350 km/h, 2.6 GHz, 6 dB, 200 blocks, seed 1, all
    /// cores); adjust with the builder methods.
    pub fn new(cfg: LinkConfig, model: ChannelModel) -> Self {
        Self {
            cfg,
            model,
            speed_ms: rem_channel::doppler::kmh_to_ms(350.0),
            carrier_hz: 2.6e9,
            snr_db: 6.0,
            blocks: 200,
            seed: 1,
            threads: 0,
        }
    }

    /// Shorthand for the signaling-link configuration of
    /// [`LinkConfig::signaling`] over `model`.
    pub fn signaling(waveform: Waveform, model: ChannelModel) -> Self {
        Self::new(LinkConfig::signaling(waveform), model)
    }

    /// Sets the client speed in km/h.
    pub fn with_speed_kmh(mut self, kmh: f64) -> Self {
        self.speed_ms = rem_channel::doppler::kmh_to_ms(kmh);
        self
    }

    /// Sets the carrier frequency (Hz).
    pub fn with_carrier_hz(mut self, carrier_hz: f64) -> Self {
        self.carrier_hz = carrier_hz;
        self
    }

    /// Sets the average SNR (dB).
    pub fn with_snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// Sets the number of Monte-Carlo blocks.
    pub fn with_blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (`0` = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs trial `index` on its own derived RNG stream: realize the
    /// channel, draw a random payload, push the block through the full
    /// coded pipeline. Depends only on `(self, index)` — never on which
    /// thread runs it or what ran before.
    pub fn trial(&self, index: usize) -> BlockOutcome {
        with_thread_scratch(|ws| self.trial_with(index, ws))
    }

    /// [`trial`](Self::trial) with caller-provided DSP scratch (the
    /// per-worker state of [`outcomes`](Self::outcomes)). The scratch
    /// is a pure cache: the outcome depends only on `(self, index)`.
    fn trial_with(&self, index: usize, ws: &mut DspScratch) -> BlockOutcome {
        let mut rng = rem_num::rng::child_rng(self.seed, &format!("bler-trial-{index}"));
        let ch = self.model.realize(&mut rng, self.speed_ms, self.carrier_hz);
        let payload: Vec<bool> = (0..self.cfg.max_payload_bits()).map(|_| rng.gen()).collect();
        simulate_block_with(&self.cfg, &ch, self.snr_db, &payload, &mut rng, ws)
    }

    /// All per-block outcomes in canonical trial order, computed on
    /// `self.threads` workers. Bit-identical for every thread count:
    /// each worker builds one [`DspScratch`] (plans, trellis, buffers)
    /// and reuses it across every trial it steals.
    pub fn outcomes(&self) -> Vec<BlockOutcome> {
        rem_exec::par_map_with(self.threads, self.blocks, DspScratch::new, |ws, i| {
            self.trial_with(i, ws)
        })
    }

    /// Monte-Carlo BLER: the fraction of trials whose CRC failed.
    pub fn run(&self) -> f64 {
        let failures = self.outcomes().iter().filter(|o| !o.crc_ok).count();
        failures as f64 / self.blocks.max(1) as f64
    }
}

/// Fast analytic BLER estimate for the mobility simulator: a logistic
/// waterfall calibrated against the Monte-Carlo pipeline for rate-1/2
/// conv-coded QPSK on a subframe. `effective_sinr_db` should be the
/// per-slot mean (OFDM) or grid-effective (OTFS) SINR.
pub fn bler_estimate(effective_sinr_db: f64, modulation: Modulation) -> f64 {
    // Waterfall midpoints (dB) and slopes fitted per constellation.
    let (mid, slope) = match modulation {
        Modulation::Qpsk => (1.8, 1.5),
        Modulation::Qam16 => (8.0, 1.2),
        Modulation::Qam64 => (14.0, 1.0),
    };
    1.0 / (1.0 + ((effective_sinr_db - mid) * slope).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    fn payload(cfg: &LinkConfig, rng: &mut SimRng) -> Vec<bool> {
        (0..cfg.max_payload_bits()).map(|_| rng.gen()).collect()
    }

    #[test]
    fn capacities_are_consistent() {
        let cfg = LinkConfig::signaling(Waveform::Ofdm);
        assert_eq!(cfg.capacity_symbols(), 168);
        assert_eq!(cfg.capacity_bits(), 336);
        // 336/2 - 22 = 146 payload bits.
        assert_eq!(cfg.max_payload_bits(), 146);
    }

    #[test]
    fn high_snr_flat_channel_always_passes() {
        for wf in [Waveform::Ofdm, Waveform::Otfs] {
            let cfg = LinkConfig::signaling(wf);
            let mut rng = rng_from_seed(1);
            let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
            for _ in 0..20 {
                let p = payload(&cfg, &mut rng);
                let out = simulate_block(&cfg, &ch, 30.0, &p, &mut rng);
                assert!(out.crc_ok, "{wf:?}");
                assert_eq!(out.bit_errors, 0);
            }
        }
    }

    #[test]
    fn very_low_snr_always_fails() {
        for wf in [Waveform::Ofdm, Waveform::Otfs] {
            let cfg = LinkConfig::signaling(wf);
            let mut rng = rng_from_seed(2);
            let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
            let mut fails = 0;
            for _ in 0..10 {
                let p = payload(&cfg, &mut rng);
                if !simulate_block(&cfg, &ch, -15.0, &p, &mut rng).crc_ok {
                    fails += 1;
                }
            }
            assert!(fails >= 9, "{wf:?} fails={fails}");
        }
    }

    #[test]
    fn otfs_beats_ofdm_in_hst_fading() {
        // The Fig 10 shape: at mid SNR under high Doppler fading, the
        // OTFS waveform has (weakly) lower BLER than OFDM. Same seed =>
        // identical channel/payload per trial, so the comparison is
        // paired.
        let scenario = BlerScenario::signaling(Waveform::Ofdm, ChannelModel::Hst)
            .with_snr_db(4.0)
            .with_blocks(150)
            .with_seed(3);
        let b_ofdm = scenario.run();
        let b_otfs = BlerScenario { cfg: LinkConfig::signaling(Waveform::Otfs), ..scenario }.run();
        assert!(b_otfs <= b_ofdm + 0.02, "otfs={b_otfs} ofdm={b_ofdm}");
    }

    #[test]
    fn bler_monotone_in_snr() {
        let scenario = BlerScenario {
            speed_ms: 8.3,
            ..BlerScenario::signaling(Waveform::Ofdm, ChannelModel::Eva)
        }
        .with_carrier_hz(2e9)
        .with_blocks(60)
        .with_seed(4);
        let lo = scenario.with_snr_db(-5.0).run();
        let hi = scenario.with_snr_db(15.0).run();
        assert!(lo > hi, "lo={lo} hi={hi}");
    }

    #[test]
    fn scenario_is_thread_count_invariant() {
        // The determinism contract of the parallel engine: serial and
        // 4-worker runs of the same scenario are bit-identical.
        let scenario = BlerScenario::signaling(Waveform::Otfs, ChannelModel::Etu)
            .with_speed_kmh(300.0)
            .with_snr_db(2.0)
            .with_blocks(24)
            .with_seed(17);
        let serial = scenario.with_threads(1).outcomes();
        let parallel = scenario.with_threads(4).outcomes();
        assert_eq!(serial, parallel);
        assert_eq!(
            scenario.with_threads(1).run(),
            scenario.with_threads(4).run()
        );
    }

    #[test]
    fn scenario_with_a_batch_field_still_loads() {
        // Scenarios serialized while a stage-major batch size was one of
        // their fields carry `"batch":8`; they still load, as the same
        // scenario.
        let scenario = BlerScenario::signaling(Waveform::Ofdm, ChannelModel::Hst);
        let json = serde_json::to_string(&scenario).unwrap();
        let old = json.replace("\"threads\":0}", "\"threads\":0,\"batch\":8}");
        assert!(old.contains("\"batch\":8"), "field not added: {old}");
        let parsed: BlerScenario = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
    }

    #[test]
    fn scenario_trials_depend_only_on_seed_and_index() {
        let scenario = BlerScenario::signaling(Waveform::Ofdm, ChannelModel::Eva)
            .with_snr_db(5.0)
            .with_blocks(8)
            .with_seed(21);
        // trial(i) called directly matches its slot in outcomes(),
        // whatever the scheduling.
        let outcomes = scenario.with_threads(3).outcomes();
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(*out, scenario.trial(i), "trial {i}");
        }
        // A different seed changes the draw.
        assert_ne!(
            scenario.trial(0).effective_sinr_db,
            scenario.with_seed(22).trial(0).effective_sinr_db
        );
    }

    #[test]
    fn analytic_estimate_is_monotone_and_bounded() {
        let mut prev = 1.0;
        for snr in -20..=30 {
            let b = bler_estimate(snr as f64, Modulation::Qpsk);
            assert!((0.0..=1.0).contains(&b));
            assert!(b <= prev + 1e-12);
            prev = b;
        }
        assert!(bler_estimate(-20.0, Modulation::Qpsk) > 0.99);
        assert!(bler_estimate(30.0, Modulation::Qpsk) < 1e-9);
    }

    #[test]
    fn analytic_estimate_tracks_monte_carlo_waterfall() {
        // At the QPSK midpoint the MC BLER should be within a broad
        // band of 0.5 on an AWGN (flat) channel.
        let cfg = LinkConfig::signaling(Waveform::Ofdm);
        let mut rng = rng_from_seed(5);
        let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
        let mut fails = 0usize;
        let n = 120;
        for _ in 0..n {
            let p = payload(&cfg, &mut rng);
            if !simulate_block(&cfg, &ch, 1.8, &p, &mut rng).crc_ok {
                fails += 1;
            }
        }
        let mc = fails as f64 / n as f64;
        assert!(mc > 0.1 && mc < 0.9, "mc={mc} not in waterfall band");
    }

    #[test]
    fn llr_sanitizer_neutralises_and_counts_non_finite() {
        let _ = health::take_thread_stats();
        let mut llrs = [1.5, f64::NAN, -2.0, f64::INFINITY, f64::NEG_INFINITY];
        sanitize_llrs(&mut llrs);
        assert_eq!(llrs, [1.5, 0.0, -2.0, 0.0, 0.0]);
        let stats = health::take_thread_stats();
        assert_eq!(stats.non_finite_llr, 3);

        // Finite input: untouched, nothing recorded.
        let mut clean = [0.25, -0.5];
        sanitize_llrs(&mut clean);
        assert_eq!(clean, [0.25, -0.5]);
        assert!(health::take_thread_stats().is_clean());
    }

    #[test]
    fn stage_spot_check_counts_once_per_degraded_grid() {
        let _ = health::take_thread_stats();
        let good = CMatrix::from_fn(2, 3, |r, c| rem_num::c64(r as f64, c as f64));
        spot_check_stage(&good);
        assert!(health::take_thread_stats().is_clean());

        let mut bad = good.clone();
        bad[(0, 1)] = rem_num::c64(f64::NAN, 0.0);
        bad[(1, 2)] = rem_num::c64(0.0, f64::INFINITY);
        spot_check_stage(&bad);
        let stats = health::take_thread_stats();
        assert_eq!(stats.non_finite_stage, 1, "one grid, one event");
    }

    #[test]
    fn healthy_block_records_no_degradations() {
        let _ = health::take_thread_stats();
        let cfg = LinkConfig::signaling(Waveform::Otfs);
        let mut rng = rng_from_seed(9);
        let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
        let p = payload(&cfg, &mut rng);
        let out = simulate_block(&cfg, &ch, 15.0, &p, &mut rng);
        assert!(out.crc_ok);
        assert!(health::take_thread_stats().is_clean());
    }

    #[test]
    fn effective_sinr_reported_close_to_input_on_flat_channel() {
        let cfg = LinkConfig::signaling(Waveform::Ofdm);
        let mut rng = rng_from_seed(6);
        let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
        let p = payload(&cfg, &mut rng);
        let out = simulate_block(&cfg, &ch, 10.0, &p, &mut rng);
        assert!((out.effective_sinr_db - 10.0).abs() < 0.5);
    }
}

#[cfg(test)]
mod mp_receiver_tests {
    use super::*;
    use rem_channel::doppler::kmh_to_ms;
    use rem_num::rng::rng_from_seed;

    fn cfg_mp() -> LinkConfig {
        LinkConfig {
            otfs_receiver: OtfsReceiver::MessagePassing,
            ..LinkConfig::signaling(Waveform::Otfs)
        }
    }

    #[test]
    fn mp_receiver_decodes_clean_channel() {
        let cfg = cfg_mp();
        let ch = MultipathChannel::flat(rem_num::Complex64::ONE);
        let mut rng = rng_from_seed(1);
        let p: Vec<bool> = (0..cfg.max_payload_bits()).map(|i| i % 2 == 0).collect();
        let out = simulate_block(&cfg, &ch, 20.0, &p, &mut rng);
        assert!(out.crc_ok);
    }

    #[test]
    fn mp_receiver_works_on_doubly_selective_channel() {
        let mut rng = rng_from_seed(2);
        let cfg = cfg_mp();
        let mut fails = 0;
        for _ in 0..20 {
            let ch = ChannelModel::Hst.realize(&mut rng, kmh_to_ms(350.0), 2.6e9);
            let p: Vec<bool> = (0..cfg.max_payload_bits()).map(|_| rng.gen()).collect();
            if !simulate_block(&cfg, &ch, 12.0, &p, &mut rng).crc_ok {
                fails += 1;
            }
        }
        assert!(fails <= 3, "fails={fails}");
    }

    #[test]
    fn mp_not_worse_than_two_step_at_low_snr() {
        // Paired trials: same seed => identical channels and payloads
        // for both receivers.
        let scenario = BlerScenario::signaling(Waveform::Otfs, ChannelModel::Etu)
            .with_speed_kmh(300.0)
            .with_snr_db(2.0)
            .with_blocks(60)
            .with_seed(3);
        let two_step = scenario.run();
        let mp = BlerScenario { cfg: cfg_mp(), ..scenario }.run();
        assert!(mp <= two_step + 0.1, "mp={mp} two_step={two_step}");
    }
}
