#![warn(missing_docs)]

//! # rem-phy
//!
//! The physical layer of the REM reproduction: Gray-coded QAM, CRC-16,
//! the (133,171) convolutional code with soft Viterbi decoding, block
//! interleaving, OFDM grid transmission through multipath channels
//! (with Doppler-induced ICI), the OTFS symplectic transform pair, the
//! scheduling-based OTFS signaling/data coexistence of paper §5.1,
//! delay-Doppler channel estimation (§5.2, Fig 7) and a link-level
//! block simulator producing the BLER curves of Fig 10: one coded block
//! per Monte-Carlo trial. Its tests check the grid-level OFDM model
//! (Doppler ICI, multipath inside and beyond the cyclic prefix) against
//! a sample-level time-domain modem that is compiled for tests only.
//!
//! ```
//! use rem_phy::link::{BlerScenario, Waveform};
//! use rem_channel::models::ChannelModel;
//!
//! // A BLER measurement is a value: build it, then run it on any
//! // number of threads — the result is bit-identical for all of them.
//! let scenario = BlerScenario::signaling(Waveform::Otfs, ChannelModel::Hst)
//!     .with_snr_db(10.0)
//!     .with_blocks(20)
//!     .with_seed(7);
//! let bler = scenario.run();
//! assert!(bler < 0.5);
//! assert_eq!(scenario.with_threads(1).outcomes(),
//!            scenario.with_threads(4).outcomes());
//! ```

pub mod chanest;
pub mod convcode;
pub mod crc;
pub mod dsp;
pub mod interleaver;
pub mod link;
pub mod mp_detect;
pub mod ofdm;
#[cfg(test)]
mod ofdm_td;
pub mod otfs;
pub mod qam;
pub mod scheduler;

pub use dsp::DspScratch;
pub use link::{simulate_block, simulate_block_with, BlerScenario, BlockOutcome, LinkConfig, Waveform};
pub use qam::Modulation;
pub use scheduler::{MessageKind, Scheduler};
