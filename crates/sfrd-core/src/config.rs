//! The construction surface: one engine-configuration struct and one
//! fluent [`DriveConfig`] builder.
//!
//! Configuration is the paper's axes and nothing else: the detector,
//! `reach` vs `full`, the §3.5/§4 reader policy, and how to run (workers /
//! sequential).
//!
//! * [`EngineConfig`] — everything a detector constructor needs, as one
//!   `#[non_exhaustive]` struct with fluent setters. Detectors take it via
//!   `from_config(&EngineConfig)`; `X::new(..)` covers the defaults.
//! * [`DriveConfigBuilder`] — the fluent builder behind
//!   [`DriveConfig::builder`].

use sfrd_shadow::ReaderPolicy;

use crate::detectors::Mode;
use crate::driver::{DetectorKind, DriveConfig};

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

/// Fluent builder for [`DriveConfig`] — the only way to assemble a
/// non-default configuration outside this module now that the target is
/// `#[non_exhaustive]`.
///
/// Obtained from [`DriveConfig::builder`] (defaults), or
/// [`DriveConfig::to_builder`] (adjust an existing configuration).
#[derive(Debug, Clone)]
pub struct DriveConfigBuilder {
    cfg: DriveConfig,
}

impl Default for DriveConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DriveConfigBuilder {
    /// Start from the defaults: no detector, full mode, one worker.
    pub fn new() -> Self {
        Self {
            cfg: DriveConfig::base(1),
        }
    }

    /// Start from an existing configuration.
    pub(crate) fn from_cfg(cfg: DriveConfig) -> Self {
        Self { cfg }
    }

    /// Select the detector. Choosing MultiBags switches onto the
    /// sequential runtime (its SP-bags invariant requires the serial
    /// depth-first execution); call [`sequential`](Self::sequential)
    /// afterwards to override.
    pub fn detector(mut self, detector: DetectorKind) -> Self {
        self.cfg.detector = detector;
        if matches!(detector, DetectorKind::MultiBags) {
            self.cfg.sequential = true;
        }
        self
    }

    /// `reach` or `full`.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Worker count for parallel execution.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Serial left-to-right depth-first execution.
    pub fn sequential(mut self, sequential: bool) -> Self {
        self.cfg.sequential = sequential;
        self
    }

    /// Reader-retention policy of the access history.
    pub fn policy(mut self, policy: ReaderPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> DriveConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_config_from_drive_config() {
        let cfg = DriveConfig::builder()
            .detector(DetectorKind::SfOrder)
            .mode(Mode::Reach)
            .policy(ReaderPolicy::PerFutureLR)
            .build();
        let ec = EngineConfig::from(&cfg);
        assert_eq!(ec.mode, Mode::Reach);
        assert_eq!(ec.policy, ReaderPolicy::PerFutureLR);
        assert_eq!(ec.with_mode(Mode::Full).mode, Mode::Full);
    }

    #[test]
    fn builder_defaults_match_base() {
        let b = DriveConfig::builder().workers(4).build();
        let base = DriveConfig::base(4);
        assert_eq!(b.detector, base.detector);
        assert_eq!(b.mode, base.mode);
        assert_eq!(b.workers, base.workers);
        assert_eq!(b.sequential, base.sequential);
        assert_eq!(b.policy, base.policy);
    }

    #[test]
    fn builder_forces_multibags_sequential() {
        let cfg = DriveConfig::builder()
            .detector(DetectorKind::MultiBags)
            .workers(4)
            .build();
        assert!(cfg.sequential);
        // ... and the override stays available for the rejection test.
        let cfg = DriveConfig::builder()
            .detector(DetectorKind::MultiBags)
            .sequential(false)
            .build();
        assert!(!cfg.sequential);
    }

    #[test]
    fn to_builder_round_trips() {
        let cfg = DriveConfig::with(DetectorKind::FOrder, Mode::Full, 3);
        let again = cfg.to_builder().build();
        assert_eq!(cfg.detector, again.detector);
        assert_eq!(cfg.workers, again.workers);
    }
}
