//! The construction surface: one engine-configuration struct and one
//! fluent [`DriveConfig`] builder.
//!
//! Configuration is the paper's axes and nothing else: the detector,
//! `reach` vs `full`, the §3.5/§4 reader policy, how to run (workers /
//! sequential), and the order-maintenance backend (the one engineering
//! decision still open — see ROADMAP).
//!
//! * [`EngineConfig`] — everything a detector constructor needs, as one
//!   `#[non_exhaustive]` struct with fluent setters. Detectors take it via
//!   `from_config(&EngineConfig)`; `X::new(..)` covers the defaults.
//! * [`DriveConfigBuilder`] — the fluent builder behind
//!   [`DriveConfig::builder`], plus [`parse_backend_flag`]
//!   (`DriveConfigBuilder::parse_backend_flag`) so `--om list|depa` (alias
//!   `--om-backend`) is parsed in exactly one place and every binary
//!   (`fig4_times`, `fig5_memory`, `k_scaling`, `trace_tool`,
//!   `sfrd-serve`) accepts the same spellings.

use sfrd_om::OmBackend;
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
    /// Order-maintenance backend (`OmList` shared list or DePa labels).
    pub om_backend: OmBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: Mode::Full,
            policy: ReaderPolicy::All,
            om_backend: OmBackend::default(),
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

    /// Set the order-maintenance backend.
    pub fn om_backend(mut self, om_backend: OmBackend) -> Self {
        self.om_backend = om_backend;
        self
    }
}

impl From<&DriveConfig> for EngineConfig {
    fn from(cfg: &DriveConfig) -> Self {
        Self {
            mode: cfg.mode,
            policy: cfg.policy,
            om_backend: cfg.om_backend,
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

    /// Order-maintenance backend.
    pub fn om_backend(mut self, om_backend: OmBackend) -> Self {
        self.cfg.om_backend = om_backend;
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> DriveConfig {
        self.cfg
    }

    /// The shared backend-flag parser: every binary routes unmatched flags
    /// here so `--om` (alias `--om-backend`) is spelled and validated in
    /// exactly one place — [`OmBackend::parse`] is the single source of
    /// truth for its value set.
    ///
    /// Returns `Ok(true)` when `flag` was recognized (its value consumed
    /// from `args`), `Ok(false)` when it is not a backend flag (nothing
    /// consumed), and `Err` with a usage message on a missing or bad value.
    pub fn parse_backend_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        if !matches!(flag, "--om" | "--om-backend") {
            return Ok(false);
        }
        let v = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        self.cfg.om_backend =
            OmBackend::parse(&v).ok_or_else(|| format!("bad {flag} {v:?} (list|depa)"))?;
        Ok(true)
    }

    /// Usage fragment documenting the flags [`parse_backend_flag`]
    /// (`Self::parse_backend_flag`) accepts, for the binaries' `--help`.
    pub fn backend_flag_usage() -> &'static str {
        "[--om list|depa]"
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
            .om_backend(OmBackend::DePa)
            .build();
        let ec = EngineConfig::from(&cfg);
        assert_eq!(ec.mode, Mode::Reach);
        assert_eq!(ec.policy, ReaderPolicy::PerFutureLR);
        assert_eq!(ec.om_backend, OmBackend::DePa);
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
        assert_eq!(b.om_backend, base.om_backend);
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

    #[test]
    fn om_flag_alias_selects_either_backend() {
        for (value, expect) in [
            ("list", OmBackend::OmList),
            ("om-list", OmBackend::OmList),
            ("depa", OmBackend::DePa),
        ] {
            for flag in ["--om", "--om-backend"] {
                let mut b = DriveConfig::builder();
                let values = [value];
                let mut args = values.iter().map(|s| s.to_string());
                assert_eq!(b.parse_backend_flag(flag, &mut args), Ok(true));
                assert_eq!(b.build().om_backend, expect, "{flag} {value}");
            }
        }
        let mut b = DriveConfig::builder();
        let mut args = ["bogus"].iter().map(|s| s.to_string());
        assert!(b.parse_backend_flag("--om", &mut args).is_err());
    }

    #[test]
    fn shared_flag_parser_rejects_bad_values_without_panicking() {
        let mut b = DriveConfig::builder();
        let mut empty = std::iter::empty::<String>();
        assert!(b.parse_backend_flag("--om", &mut empty).is_err());
        assert_eq!(b.parse_backend_flag("--workers", &mut empty), Ok(false));
    }
}
