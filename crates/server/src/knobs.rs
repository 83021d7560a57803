//! The per-application power-allocation knob space `(f, n, m)`.
//!
//! The paper manages each application's power through three fine-grain
//! knobs (Sec. II-B):
//!
//! * `f` — DVFS state of the application's cores (9 steps, 1.2–2.0 GHz);
//! * `n` — number of un-gated cores (1–6);
//! * `m` — DRAM RAPL limit on the application's local DIMM (3–10 W, 1 W
//!   steps).
//!
//! [`KnobSetting`] is one point of that space; [`KnobGrid`] enumerates the
//! full 9 × 6 × 8 = 432-point grid that the collaborative-filtering
//! utility matrix is indexed by.

use powermed_units::{Gigahertz, Watts};

use crate::dvfs::DvfsState;
use crate::error::ServerError;
use crate::spec::ServerSpec;

/// One assignment of the `(f, n, m)` knobs for a single application.
///
/// ```
/// use powermed_server::knobs::KnobSetting;
/// use powermed_server::dvfs::DvfsState;
/// use powermed_units::Watts;
///
/// let knob = KnobSetting::new(DvfsState::new(8), 6, Watts::new(10.0));
/// assert_eq!(knob.cores(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobSetting {
    dvfs: DvfsState,
    cores: usize,
    dram_limit: Watts,
}

impl KnobSetting {
    /// Creates a knob setting (unvalidated; use
    /// [`KnobSetting::validated`] to check against a platform).
    pub const fn new(dvfs: DvfsState, cores: usize, dram_limit: Watts) -> Self {
        Self {
            dvfs,
            cores,
            dram_limit,
        }
    }

    /// Creates a knob setting validated against `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServerError`] naming the offending knob when the DVFS
    /// state, core count or DRAM limit is outside the platform's range.
    pub fn validated(
        spec: &ServerSpec,
        dvfs: DvfsState,
        cores: usize,
        dram_limit: Watts,
    ) -> Result<Self, ServerError> {
        if dvfs.index() >= spec.ladder().steps() {
            return Err(ServerError::FrequencyOutOfRange {
                requested_ghz: f64::NAN,
                min_ghz: spec.ladder().min_frequency().value(),
                max_ghz: spec.ladder().max_frequency().value(),
            });
        }
        if cores == 0 || cores > spec.max_app_cores() {
            return Err(ServerError::CoreCountOutOfRange {
                requested: cores,
                max: spec.max_app_cores(),
            });
        }
        if dram_limit < spec.dram_limit_min() || dram_limit > spec.dram_limit_max() {
            return Err(ServerError::DramPowerOutOfRange {
                requested_w: dram_limit.value(),
                min_w: spec.dram_limit_min().value(),
                max_w: spec.dram_limit_max().value(),
            });
        }
        Ok(Self::new(dvfs, cores, dram_limit))
    }

    /// The maximal setting on `spec`: top frequency, all allowed cores,
    /// highest DRAM limit. This is the "uncapped" operating point.
    pub fn max_for(spec: &ServerSpec) -> Self {
        Self::new(
            spec.ladder().top_state(),
            spec.max_app_cores(),
            spec.dram_limit_max(),
        )
    }

    /// The minimal setting on `spec`: bottom frequency, one core, lowest
    /// DRAM limit — the least power an application can run with.
    pub fn min_for(spec: &ServerSpec) -> Self {
        Self::new(spec.ladder().bottom_state(), 1, spec.dram_limit_min())
    }

    /// The DVFS state (`f` knob).
    pub fn dvfs(self) -> DvfsState {
        self.dvfs
    }

    /// The frequency of the DVFS state on `spec`'s ladder.
    pub fn frequency(self, spec: &ServerSpec) -> Gigahertz {
        spec.ladder().frequency(self.dvfs)
    }

    /// The number of un-gated cores (`n` knob).
    pub fn cores(self) -> usize {
        self.cores
    }

    /// The DRAM RAPL limit on the app's local DIMM (`m` knob).
    pub fn dram_limit(self) -> Watts {
        self.dram_limit
    }

    /// Returns a copy with a different DVFS state.
    pub fn with_dvfs(mut self, dvfs: DvfsState) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Returns a copy with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Returns a copy with a different DRAM limit.
    pub fn with_dram_limit(mut self, dram_limit: Watts) -> Self {
        self.dram_limit = dram_limit;
        self
    }
}

impl core::fmt::Display for KnobSetting {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "(f={}, n={}, m={:.0})",
            self.dvfs, self.cores, self.dram_limit
        )
    }
}

/// The full `(f, n, m)` grid for one application on a platform, in a
/// stable enumeration order (DVFS-major, then cores, then DRAM watts).
///
/// The stable order matters: the collaborative-filtering utility matrix
/// uses the grid index as its column key.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobGrid {
    settings: Vec<KnobSetting>,
    dvfs_steps: usize,
    core_options: usize,
    dram_levels: usize,
}

impl KnobGrid {
    /// Builds the grid for `spec`.
    pub fn new(spec: &ServerSpec) -> Self {
        let dvfs_steps = spec.ladder().steps();
        let core_options = spec.max_app_cores();
        let dram_levels = spec.dram_levels();
        let mut settings = Vec::with_capacity(dvfs_steps * core_options * dram_levels);
        for f in spec.ladder().states() {
            for n in 1..=core_options {
                for level in 0..dram_levels {
                    let m = spec.dram_limit_min() + Watts::new(level as f64);
                    settings.push(KnobSetting::new(f, n, m));
                }
            }
        }
        Self {
            settings,
            dvfs_steps,
            core_options,
            dram_levels,
        }
    }

    /// Number of settings on the grid.
    pub fn len(&self) -> usize {
        self.settings.len()
    }

    /// Whether the grid is empty (never true for a valid platform).
    pub fn is_empty(&self) -> bool {
        self.settings.is_empty()
    }

    /// The setting at grid index `idx`.
    pub fn get(&self, idx: usize) -> Option<KnobSetting> {
        self.settings.get(idx).copied()
    }

    /// The grid index of `setting`, if it lies on the grid.
    pub fn index_of(&self, setting: KnobSetting) -> Option<usize> {
        let f = setting.dvfs().index();
        if f >= self.dvfs_steps {
            return None;
        }
        let n = setting.cores();
        if n == 0 || n > self.core_options {
            return None;
        }
        let m0 = self.settings[0].dram_limit().value();
        let level = setting.dram_limit().value() - m0;
        if level < 0.0 || level.fract().abs() > 1e-9 {
            return None;
        }
        let level = level.round() as usize;
        if level >= self.dram_levels {
            return None;
        }
        Some((f * self.core_options + (n - 1)) * self.dram_levels + level)
    }

    /// Iterates over every setting in grid order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KnobSetting> + '_ {
        self.settings.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    #[test]
    fn grid_size_matches_paper() {
        let grid = spec().knob_grid();
        assert_eq!(grid.len(), 432);
        assert!(!grid.is_empty());
    }

    #[test]
    fn grid_index_roundtrip() {
        let grid = spec().knob_grid();
        for (idx, setting) in grid.iter().enumerate() {
            assert_eq!(grid.index_of(setting), Some(idx));
            assert_eq!(grid.get(idx), Some(setting));
        }
        assert_eq!(grid.get(grid.len()), None);
    }

    #[test]
    fn index_of_rejects_off_grid_settings() {
        let grid = spec().knob_grid();
        // Fractional DRAM watts are off-grid.
        let s = KnobSetting::new(DvfsState::new(0), 1, Watts::new(3.5));
        assert_eq!(grid.index_of(s), None);
        // Core count beyond the per-app max.
        let s = KnobSetting::new(DvfsState::new(0), 7, Watts::new(3.0));
        assert_eq!(grid.index_of(s), None);
        // DVFS state beyond the ladder.
        let s = KnobSetting::new(DvfsState::new(9), 1, Watts::new(3.0));
        assert_eq!(grid.index_of(s), None);
        // DRAM level beyond the top.
        let s = KnobSetting::new(DvfsState::new(0), 1, Watts::new(11.0));
        assert_eq!(grid.index_of(s), None);
    }

    #[test]
    fn validation_catches_each_knob() {
        let spec = spec();
        assert!(KnobSetting::validated(&spec, DvfsState::new(20), 1, Watts::new(3.0)).is_err());
        assert!(KnobSetting::validated(&spec, DvfsState::new(0), 0, Watts::new(3.0)).is_err());
        assert!(KnobSetting::validated(&spec, DvfsState::new(0), 7, Watts::new(3.0)).is_err());
        assert!(KnobSetting::validated(&spec, DvfsState::new(0), 1, Watts::new(2.0)).is_err());
        assert!(KnobSetting::validated(&spec, DvfsState::new(0), 1, Watts::new(11.0)).is_err());
        assert!(KnobSetting::validated(&spec, DvfsState::new(8), 6, Watts::new(10.0)).is_ok());
    }

    #[test]
    fn min_max_settings() {
        let spec = spec();
        let max = KnobSetting::max_for(&spec);
        assert_eq!(max.cores(), 6);
        assert_eq!(max.dram_limit(), Watts::new(10.0));
        assert_eq!(max.frequency(&spec), spec.ladder().max_frequency());
        let min = KnobSetting::min_for(&spec);
        assert_eq!(min.cores(), 1);
        assert_eq!(min.dram_limit(), Watts::new(3.0));
        assert_eq!(min.frequency(&spec), spec.ladder().min_frequency());
    }

    #[test]
    fn with_builders() {
        let spec = spec();
        let s = KnobSetting::max_for(&spec)
            .with_cores(3)
            .with_dram_limit(Watts::new(5.0))
            .with_dvfs(DvfsState::new(2));
        assert_eq!(s.cores(), 3);
        assert_eq!(s.dram_limit(), Watts::new(5.0));
        assert_eq!(s.dvfs(), DvfsState::new(2));
        assert_eq!(s.to_string(), "(f=P2, n=3, m=5 W)");
    }
}
