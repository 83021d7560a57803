//! The Application Heartbeats interface (Hoffmann et al. \[41\]).
//!
//! Applications emit a heartbeat per completed unit of work; the runtime
//! derives a windowed heartbeat *rate* as its performance signal. The
//! paper samples this under different knob settings to populate the
//! performance half of the utility matrix.

use std::collections::VecDeque;

use powermed_units::Seconds;
use serde::{Deserialize, Serialize};

/// One heartbeat: a timestamp and the amount of work it certifies.
///
/// Real heartbeats are unit events; the simulation batches them (`ops`
/// completed during a step) to stay step-rate independent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Simulation time of the beat.
    pub at: Seconds,
    /// Work units this beat certifies.
    pub ops: f64,
}

/// Sliding-window heartbeat aggregator for one application.
///
/// Keeps beats within `window` of the newest and reports their rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatMonitor {
    window: Seconds,
    beats: VecDeque<Heartbeat>,
    total_ops: f64,
}

impl HeartbeatMonitor {
    /// Creates a monitor with the given sliding window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: Seconds) -> Self {
        assert!(window.value() > 0.0, "window must be positive");
        Self {
            window,
            beats: VecDeque::new(),
            total_ops: 0.0,
        }
    }

    /// Records `ops` completed at time `at`.
    ///
    /// Times must be non-decreasing; out-of-order beats are clamped to
    /// the newest seen time (the Accountant polls monotonically).
    pub fn record(&mut self, at: Seconds, ops: f64) {
        let at = match self.beats.back() {
            Some(last) if at < last.at => last.at,
            _ => at,
        };
        self.total_ops += ops;
        self.beats.push_back(Heartbeat { at, ops });
        self.evict(at);
    }

    /// Total work units ever recorded.
    pub fn total_ops(&self) -> f64 {
        self.total_ops
    }

    /// The heartbeat rate (ops/second) over the window ending at `now`,
    /// or `None` if no beats fall inside the window.
    pub fn rate(&mut self, now: Seconds) -> Option<f64> {
        self.evict(now);
        if self.beats.is_empty() {
            return None;
        }
        let ops: f64 = self.beats.iter().map(|b| b.ops).sum();
        Some(ops / self.window.value())
    }

    /// Number of beats currently inside the window.
    pub fn len(&self) -> usize {
        self.beats.len()
    }

    /// Whether no beats are inside the window.
    pub fn is_empty(&self) -> bool {
        self.beats.is_empty()
    }

    fn evict(&mut self, now: Seconds) {
        let cutoff = now - self.window;
        while let Some(front) = self.beats.front() {
            if front.at <= cutoff {
                self.beats.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_over_window() {
        let mut hb = HeartbeatMonitor::new(Seconds::new(2.0));
        hb.record(Seconds::new(0.5), 10.0);
        hb.record(Seconds::new(1.0), 10.0);
        hb.record(Seconds::new(1.5), 10.0);
        assert_eq!(hb.rate(Seconds::new(2.0)), Some(15.0));
    }

    #[test]
    fn old_beats_evicted() {
        let mut hb = HeartbeatMonitor::new(Seconds::new(1.0));
        hb.record(Seconds::new(0.0), 100.0);
        hb.record(Seconds::new(5.0), 10.0);
        // Only the t=5 beat remains in the [4, 5] window.
        assert_eq!(hb.rate(Seconds::new(5.0)), Some(10.0));
        assert_eq!(hb.len(), 1);
    }

    #[test]
    fn empty_window_reports_none() {
        let mut hb = HeartbeatMonitor::new(Seconds::new(1.0));
        assert_eq!(hb.rate(Seconds::new(10.0)), None);
        hb.record(Seconds::new(0.0), 5.0);
        assert_eq!(hb.rate(Seconds::new(100.0)), None, "beat aged out");
        assert!(hb.is_empty());
    }

    #[test]
    fn total_ops_survives_eviction() {
        let mut hb = HeartbeatMonitor::new(Seconds::new(0.5));
        hb.record(Seconds::new(0.0), 7.0);
        hb.record(Seconds::new(10.0), 3.0);
        let _ = hb.rate(Seconds::new(10.0));
        assert_eq!(hb.total_ops(), 10.0);
    }

    #[test]
    fn out_of_order_beats_clamped() {
        let mut hb = HeartbeatMonitor::new(Seconds::new(5.0));
        hb.record(Seconds::new(2.0), 1.0);
        hb.record(Seconds::new(1.0), 1.0); // clamped to t=2
        assert_eq!(hb.rate(Seconds::new(2.0)), Some(2.0 / 5.0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = HeartbeatMonitor::new(Seconds::ZERO);
    }
}
