//! The construction surface: [`EngineConfig`], what a detector is built
//! from.
//!
//! Configuration is the paper's axes and nothing else: the detector,
//! `reach` vs `full`, the §3.5/§4 reader policy, and how to run (workers /
//! sequential).
//!
//! * [`EngineConfig`] — everything a detector constructor needs, as one
//!   `#[non_exhaustive]` struct with fluent setters. Detectors take it via
//!   `from_config(&EngineConfig)`; `X::new(..)` covers the defaults.
//! * [`DriveConfig`] — a whole execution: [`DriveConfig::with`] /
//!   [`DriveConfig::base`], then [`DriveConfig::policy`].

use sfrd_shadow::ReaderPolicy;

use crate::detectors::Mode;
use crate::driver::DriveConfig;

/// Everything a detector constructor needs, in one place.
///
/// `#[non_exhaustive]`: construct via [`EngineConfig::new`] /
/// [`Default`] / `From<&DriveConfig>` and adjust with the fluent setters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// `reach` or `full`.
    pub mode: Mode,
    /// Reader-retention policy of the access history (SF-Order and
    /// WSP-Order honor it; F-Order and MultiBags are always `All`).
    pub policy: ReaderPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: Mode::Full,
            policy: ReaderPolicy::All,
        }
    }
}

impl EngineConfig {
    /// Defaults in the given mode.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// This configuration with the mode replaced (the `reach`/`full` axis
    /// of a Fig. 4 grid shares everything else).
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the reader-retention policy.
    pub fn policy(mut self, policy: ReaderPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl From<&DriveConfig> for EngineConfig {
    fn from(cfg: &DriveConfig) -> Self {
        Self {
            mode: cfg.mode,
            policy: cfg.policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DetectorKind;

    #[test]
    fn engine_config_from_drive_config() {
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1)
            .policy(ReaderPolicy::PerFutureLR);
        let ec = EngineConfig::from(&cfg);
        assert_eq!(ec.mode, Mode::Reach);
        assert_eq!(ec.policy, ReaderPolicy::PerFutureLR);
        assert_eq!(ec.with_mode(Mode::Full).mode, Mode::Full);
    }

    #[test]
    fn with_forces_multibags_sequential() {
        assert!(DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 4).sequential);
        assert!(!DriveConfig::with(DetectorKind::FOrder, Mode::Full, 4).sequential);
    }
}
