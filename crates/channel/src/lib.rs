#![warn(missing_docs)]

//! # rem-channel
//!
//! Wireless channel substrate for the REM reproduction: per-path
//! multipath channels `{h_p, tau_p, nu_p}` (paper Eq. 1), 3GPP
//! reference tapped-delay-line models (EPA/EVA/ETU plus the
//! high-speed-train scenario), Doppler/coherence-time math, the
//! sampled delay-Doppler channel matrices `H = Γ P Φ` that REM's
//! cross-band estimator decomposes, the Doppler ICI noise model and
//! large-scale propagation (path loss, correlated shadowing).
//!
//! ```
//! use rem_channel::models::ChannelModel;
//! use rem_channel::doppler::kmh_to_ms;
//! use rem_num::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(1);
//! let ch = ChannelModel::Hst.realize(&mut rng, kmh_to_ms(350.0), 2.6e9);
//! assert!(ch.max_doppler_hz() > 500.0); // extreme mobility regime
//! ```

pub mod delaydoppler;
pub mod doppler;
pub mod models;
pub mod noise;
pub mod path;
pub mod radio;

pub use delaydoppler::{dd_channel_matrix, DdGrid};
pub use models::ChannelModel;
pub use path::{MultipathChannel, Path};
