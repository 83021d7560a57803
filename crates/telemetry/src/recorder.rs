//! Named time-series recording for figure regeneration.
//!
//! Every signal the paper plots — per-app power allocations over time
//! (Fig. 11), cluster caps (Fig. 12a), battery state (Fig. 5) — is dumped
//! through a [`TraceRecorder`] so the bench harness can print or export
//! the exact series.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use powermed_units::Seconds;

/// A set of named `(time, value)` series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRecorder {
    series: BTreeMap<String, Vec<(Seconds, f64)>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point to `series` (created on first use).
    pub fn push(&mut self, series: &str, at: Seconds, value: f64) {
        // Look up by &str first: the entry API would allocate a String
        // key on every call, and pushes to existing series dominate.
        if let Some(points) = self.series.get_mut(series) {
            points.push((at, value));
        } else {
            self.series.insert(series.to_string(), vec![(at, value)]);
        }
    }

    /// Like [`Self::push`], but takes ownership of an already-built key
    /// so the first insert reuses it instead of re-allocating, and the
    /// double lookup (`get_mut` then `insert`) collapses into one entry
    /// walk. Use this on paths that `format!` their series names.
    pub fn push_owned(&mut self, series: String, at: Seconds, value: f64) {
        self.series.entry(series).or_default().push((at, value));
    }

    /// The names of all recorded series, in name order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The points of `series`, or `None` if it was never written.
    pub fn series(&self, name: &str) -> Option<&[(Seconds, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// The last value of `series`, if any.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.series.get(name)?.last().map(|(_, v)| *v)
    }

    /// Arithmetic mean of `series` values, if any.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let s = self.series.get(name)?;
        if s.is_empty() {
            return None;
        }
        Some(s.iter().map(|(_, v)| v).sum::<f64>() / s.len() as f64)
    }

    /// Maximum of `series` values, if any.
    pub fn max(&self, name: &str) -> Option<f64> {
        let s = self.series.get(name)?;
        s.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Time-weighted mean of `series` (trapezoidal between samples), or
    /// the plain mean when fewer than two points exist.
    pub fn time_weighted_mean(&self, name: &str) -> Option<f64> {
        let s = self.series.get(name)?;
        if s.len() < 2 {
            return self.mean(name);
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for w in s.windows(2) {
            let dt = (w[1].0 - w[0].0).value();
            if dt <= 0.0 {
                continue;
            }
            area += 0.5 * (w[0].1 + w[1].1) * dt;
            span += dt;
        }
        if span <= 0.0 {
            self.mean(name)
        } else {
            Some(area / span)
        }
    }

    /// Renders every series as CSV: `series,time_s,value` rows with a
    /// header, in series-name then insertion order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,time_s,value\n");
        for (name, points) in &self.series {
            for (t, v) in points {
                out.push_str(&format!("{name},{},{v}\n", t.value()));
            }
        }
        out
    }

    /// Merges another recorder's series into this one (points appended).
    pub fn merge(&mut self, other: &TraceRecorder) {
        for (name, points) in &other.series {
            self.series
                .entry(name.clone())
                .or_default()
                .extend(points.iter().copied());
        }
    }
}

/// A clonable, thread-safe handle to a [`TraceRecorder`], for sim
/// callbacks that outlive a single `&mut` borrow.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Arc<Mutex<TraceRecorder>>);

impl SharedRecorder {
    /// Creates a handle to a fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorder. A poisoned lock is recovered: `with` lends the
    /// callback only shared access, so its panic leaves the points whole.
    fn recorder(&self) -> MutexGuard<'_, TraceRecorder> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a point (see [`TraceRecorder::push`]).
    pub fn push(&self, series: &str, at: Seconds, value: f64) {
        self.recorder().push(series, at, value);
    }

    /// Runs `f` with shared access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&TraceRecorder) -> R) -> R {
        f(&self.recorder())
    }

    /// Takes a snapshot of the current contents.
    pub fn snapshot(&self) -> TraceRecorder {
        self.recorder().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_the_lock_does_not_poison_later_callers() {
        let shared = SharedRecorder::new();
        shared.push("power", Seconds::new(0.0), 90.0);
        let holder = shared.clone();
        std::thread::spawn(move || holder.with(|_| panic!("a callback panics under the lock")))
            .join()
            .expect_err("the callback panicked");
        shared.push("power", Seconds::new(1.0), 110.0);
        assert_eq!(shared.with(|r| r.series("power").map(<[_]>::len)), Some(2));
        assert_eq!(shared.snapshot().last("power"), Some(110.0));
    }

    #[test]
    fn push_and_query() {
        let mut r = TraceRecorder::new();
        r.push("power", Seconds::new(0.0), 90.0);
        r.push("power", Seconds::new(1.0), 110.0);
        r.push("soc", Seconds::new(0.0), 0.5);
        assert_eq!(r.series_names(), vec!["power", "soc"]);
        assert_eq!(r.series("power").unwrap().len(), 2);
        assert_eq!(r.last("power"), Some(110.0));
        assert_eq!(r.mean("power"), Some(100.0));
        assert_eq!(r.max("power"), Some(110.0));
        assert_eq!(r.series("nope"), None);
        assert_eq!(r.mean("nope"), None);
    }

    #[test]
    fn push_owned_matches_push_behavior() {
        let mut borrowed = TraceRecorder::new();
        let mut owned = TraceRecorder::new();
        for (name, t, v) in [
            ("app_power_w.stream", 0.0, 30.0),
            ("app_power_w.kmeans", 0.0, 40.0),
            ("app_power_w.stream", 1.0, 35.0),
        ] {
            borrowed.push(name, Seconds::new(t), v);
            owned.push_owned(name.to_string(), Seconds::new(t), v);
        }
        assert_eq!(borrowed, owned, "both insert paths build the same series");
        assert_eq!(owned.series("app_power_w.stream").unwrap().len(), 2);
        assert_eq!(owned.series("app_power_w.kmeans").unwrap().len(), 1);
    }

    #[test]
    fn time_weighted_mean_trapezoidal() {
        let mut r = TraceRecorder::new();
        // 0 W for 1 s ramping to 10 W: trapezoid mean = 5.
        r.push("p", Seconds::new(0.0), 0.0);
        r.push("p", Seconds::new(1.0), 10.0);
        assert_eq!(r.time_weighted_mean("p"), Some(5.0));
        // Single point falls back to plain mean.
        let mut r2 = TraceRecorder::new();
        r2.push("p", Seconds::new(0.0), 7.0);
        assert_eq!(r2.time_weighted_mean("p"), Some(7.0));
    }

    #[test]
    fn csv_export() {
        let mut r = TraceRecorder::new();
        r.push("a", Seconds::new(0.5), 1.0);
        let csv = r.to_csv();
        assert!(csv.starts_with("series,time_s,value\n"));
        assert!(csv.contains("a,0.5,1\n"));
    }

    #[test]
    fn merge_appends() {
        let mut a = TraceRecorder::new();
        a.push("x", Seconds::new(0.0), 1.0);
        let mut b = TraceRecorder::new();
        b.push("x", Seconds::new(1.0), 2.0);
        b.push("y", Seconds::new(0.0), 3.0);
        a.merge(&b);
        assert_eq!(a.series("x").unwrap().len(), 2);
        assert_eq!(a.last("y"), Some(3.0));
    }

    #[test]
    fn shared_recorder_roundtrip() {
        let shared = SharedRecorder::new();
        let clone = shared.clone();
        clone.push("p", Seconds::new(0.0), 42.0);
        assert_eq!(shared.with(|r| r.last("p")), Some(42.0));
        let snap = shared.snapshot();
        assert_eq!(snap.last("p"), Some(42.0));
    }
}
