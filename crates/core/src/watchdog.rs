//! Graceful-degradation machinery: the safe-mode watchdog and the
//! hardening tunables for a [`crate::runtime::PowerMediator`]
//! facing a faulty substrate.
//!
//! The watchdog is deliberately a tiny pure state machine — it consumes
//! one boolean per poll ("was the *observed* net draw over the cap?")
//! and decides when the mediator must stop trusting its plan and
//! force-throttle, and when a cleared breach lets normal operation
//! resume. Keeping it free of simulator references makes the
//! engage/release behaviour directly unit-testable.

use powermed_units::Seconds;

/// Bounded retries for a knob write that failed or did not land.
pub const MAX_RETRIES: u32 = 3;
/// Base sim-time backoff between retries (attempt `k` waits
/// `k × RETRY_BACKOFF`).
pub const RETRY_BACKOFF: Seconds = Seconds::new(0.2);
/// Consecutive over-cap observed polls before safe mode engages.
pub const WATCHDOG_PATIENCE: u32 = 5;
/// Consecutive under-cap observed polls before safe mode releases.
pub const WATCHDOG_RELEASE: u32 = 10;
/// Consecutive sample dropouts before an E6 sensor fault fires.
pub const DROPOUT_PATIENCE: u32 = 5;
/// Dropout polls over which the mediator keeps feeding the *last
/// good* meter reading to the watchdog before going blind. Must be
/// below [`DROPOUT_PATIENCE`]: holding bridges brief sensor gaps so a
/// breach in progress keeps arming the watchdog, while a sustained
/// outage still escalates to E6 on schedule.
pub const DROPOUT_HOLD_POLLS: u32 = 3;
/// Consecutive bit-identical observed readings (while the internal
/// RAPL-side reading moves) before an E6 sensor fault fires.
pub const STUCK_PATIENCE: u32 = 10;

const _: () = assert!(MAX_RETRIES >= 1);
const _: () = assert!(RETRY_BACKOFF.value() > 0.0);
const _: () = assert!(WATCHDOG_PATIENCE >= 1 && WATCHDOG_RELEASE >= WATCHDOG_PATIENCE);
// Holding must not outlast the dropout E6 deadline.
const _: () = assert!(DROPOUT_HOLD_POLLS < DROPOUT_PATIENCE);

/// Enables the hardened mediator. It carries no settings: the layer's
/// tunables are the constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardeningConfig {}

/// A watchdog state change reported by [`SafeModeWatchdog::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogTransition {
    /// The breach persisted: force-throttle now.
    Engaged,
    /// The breach cleared: normal operation may resume.
    Released,
}

/// Debounced over-cap breach detector.
///
/// Engages after `patience` *consecutive* over-cap polls and releases
/// after `release` consecutive under-cap polls; any opposite poll resets
/// the respective counter, so isolated spikes (or isolated clean
/// readings from a noisy meter) do not flap the mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeModeWatchdog {
    patience: u32,
    release: u32,
    over: u32,
    under: u32,
    engaged: bool,
}

impl SafeModeWatchdog {
    /// Creates a watchdog that engages after `patience` over-cap polls
    /// and releases after `release` under-cap polls.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(patience: u32, release: u32) -> Self {
        assert!(patience >= 1, "watchdog patience must be at least one");
        assert!(release >= 1, "watchdog release must be at least one");
        Self {
            patience,
            release,
            over: 0,
            under: 0,
            engaged: false,
        }
    }

    /// Whether safe mode is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Engages immediately, bypassing the debounce. Used when an
    /// external escalation source (the estimation ladder) has already
    /// accumulated its own evidence; returns `None` when already
    /// engaged so callers do not double-count the transition.
    pub fn force_engage(&mut self) -> Option<WatchdogTransition> {
        if self.engaged {
            return None;
        }
        self.engaged = true;
        self.over = 0;
        self.under = 0;
        Some(WatchdogTransition::Engaged)
    }

    /// Feeds one poll; returns a transition when the mode flips.
    pub fn observe(&mut self, over_cap: bool) -> Option<WatchdogTransition> {
        if over_cap {
            self.over += 1;
            self.under = 0;
        } else {
            self.under += 1;
            self.over = 0;
        }
        if !self.engaged && self.over >= self.patience {
            self.engaged = true;
            self.over = 0;
            return Some(WatchdogTransition::Engaged);
        }
        if self.engaged && self.under >= self.release {
            self.engaged = false;
            self.under = 0;
            return Some(WatchdogTransition::Released);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engages_after_patience_consecutive_overs() {
        let mut w = SafeModeWatchdog::new(3, 2);
        assert_eq!(w.observe(true), None);
        assert_eq!(w.observe(true), None);
        assert!(!w.engaged());
        assert_eq!(w.observe(true), Some(WatchdogTransition::Engaged));
        assert!(w.engaged());
    }

    #[test]
    fn isolated_spikes_do_not_engage() {
        let mut w = SafeModeWatchdog::new(3, 2);
        for _ in 0..10 {
            assert_eq!(w.observe(true), None);
            assert_eq!(w.observe(true), None);
            assert_eq!(w.observe(false), None, "clean poll resets the count");
        }
        assert!(!w.engaged());
    }

    #[test]
    fn releases_after_breach_clears() {
        let mut w = SafeModeWatchdog::new(2, 3);
        w.observe(true);
        assert_eq!(w.observe(true), Some(WatchdogTransition::Engaged));
        // Still over cap: stays engaged.
        assert_eq!(w.observe(true), None);
        assert!(w.engaged());
        // The breach clears; release needs three consecutive clean polls.
        assert_eq!(w.observe(false), None);
        assert_eq!(w.observe(false), None);
        assert_eq!(w.observe(false), Some(WatchdogTransition::Released));
        assert!(!w.engaged());
    }

    #[test]
    fn release_count_resets_on_renewed_breach() {
        let mut w = SafeModeWatchdog::new(1, 3);
        assert_eq!(w.observe(true), Some(WatchdogTransition::Engaged));
        w.observe(false);
        w.observe(false);
        assert_eq!(w.observe(true), None, "breach renews, release resets");
        w.observe(false);
        w.observe(false);
        assert_eq!(w.observe(false), Some(WatchdogTransition::Released));
    }

    #[test]
    fn can_reengage_after_release() {
        let mut w = SafeModeWatchdog::new(2, 1);
        w.observe(true);
        assert_eq!(w.observe(true), Some(WatchdogTransition::Engaged));
        assert_eq!(w.observe(false), Some(WatchdogTransition::Released));
        w.observe(true);
        assert_eq!(w.observe(true), Some(WatchdogTransition::Engaged));
    }

    #[test]
    #[should_panic(expected = "patience")]
    fn zero_patience_rejected() {
        let _ = SafeModeWatchdog::new(0, 1);
    }

    #[test]
    fn force_engage_bypasses_debounce_and_releases_normally() {
        let mut w = SafeModeWatchdog::new(5, 2);
        assert_eq!(w.force_engage(), Some(WatchdogTransition::Engaged));
        assert!(w.engaged());
        assert_eq!(w.force_engage(), None, "already engaged");
        assert_eq!(w.observe(false), None);
        assert_eq!(w.observe(false), Some(WatchdogTransition::Released));
    }
}
