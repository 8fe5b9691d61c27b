//! The construction surface: [`EngineConfig`], what a detector is built
//! from.
//!
//! Configuration is the paper's axes and nothing else: the detector,
//! `reach` vs `full`, the §3.5/§4 reader policy, and the worker count
//! (MultiBags always runs on the serial elision).
//!
//! * [`EngineConfig`] — everything a detector constructor needs, as one
//!   `#[non_exhaustive]` struct with fluent setters. `from_config(&EngineConfig)`
//!   is every detector's one constructor.
//! * [`DriveConfig`](crate::DriveConfig) — a whole execution: the
//!   detector, the worker count and an [`EngineConfig`], built by
//!   `DriveConfig::with` / `DriveConfig::base`, then `DriveConfig::policy`.

use sfrd_shadow::ReaderPolicy;

use crate::detectors::Mode;

/// Everything a detector constructor needs, in one place.
///
/// `#[non_exhaustive]`: construct via [`EngineConfig::new`] /
/// [`Default`] and adjust with the fluent setters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// `reach` or `full`.
    pub mode: Mode,
    /// Reader-retention policy of the access history (SF-Order honors it;
    /// F-Order and MultiBags are always `All`).
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

    /// Set the reader-retention policy.
    pub fn policy(mut self, policy: ReaderPolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DetectorKind, DriveConfig};

    #[test]
    fn engine_config_from_drive_config() {
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1)
            .policy(ReaderPolicy::PerFutureLR);
        assert_eq!(
            cfg.engine,
            EngineConfig::new(Mode::Reach).policy(ReaderPolicy::PerFutureLR)
        );
        assert_eq!(DriveConfig::base(2).engine, EngineConfig::default());
    }
}
