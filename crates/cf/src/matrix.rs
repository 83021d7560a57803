//! The apps × knob-settings utility matrix.
//!
//! Rows are applications (previously-seen plus the ones being calibrated),
//! columns are knob-grid indices, and each present entry is the measured
//! `(power, performance)` at that setting (Sec. III-A's "power matrix"
//! and "performance matrix", kept together).

use std::collections::BTreeMap;

use powermed_units::hash::Fnv1a;
use powermed_units::Watts;

/// A sparse apps × settings matrix of measured `(power, perf)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityMatrix {
    columns: usize,
    /// Per-app sparse rows: setting index → (power, perf).
    rows: BTreeMap<String, BTreeMap<usize, (Watts, f64)>>,
}

impl UtilityMatrix {
    /// Creates an empty matrix over a knob grid of `columns` settings.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    pub fn new(columns: usize) -> Self {
        assert!(columns > 0, "matrix needs at least one column");
        Self {
            columns,
            rows: BTreeMap::new(),
        }
    }

    /// Number of knob settings (columns).
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of applications with at least one measurement.
    pub fn app_count(&self) -> usize {
        self.rows.len()
    }

    /// Application names in row order.
    pub fn app_names(&self) -> Vec<&str> {
        self.rows.keys().map(String::as_str).collect()
    }

    /// Records a measurement for `app` at setting `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn insert(&mut self, app: &str, col: usize, power: Watts, perf: f64) {
        assert!(col < self.columns, "column {col} out of range");
        self.rows
            .entry(app.to_string())
            .or_default()
            .insert(col, (power, perf));
    }

    /// The measurement for `app` at `col`, if taken.
    pub fn get(&self, app: &str, col: usize) -> Option<(Watts, f64)> {
        self.rows.get(app)?.get(&col).copied()
    }

    /// All of `app`'s measurements as `(col, power, perf)` triples.
    pub fn row(&self, app: &str) -> Vec<(usize, Watts, f64)> {
        self.rows
            .get(app)
            .map(|r| r.iter().map(|(c, (p, q))| (*c, *p, *q)).collect())
            .unwrap_or_default()
    }

    /// Number of measurements taken for `app`.
    pub fn row_len(&self, app: &str) -> usize {
        self.rows.get(app).map_or(0, BTreeMap::len)
    }

    /// Removes an application's row entirely.
    pub fn remove_app(&mut self, app: &str) -> bool {
        self.rows.remove(app).is_some()
    }

    /// Fill fraction: measurements present over total cells.
    pub fn density(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let present: usize = self.rows.values().map(BTreeMap::len).sum();
        present as f64 / (self.rows.len() * self.columns) as f64
    }

    /// The power channel as `(row_index, col, value)` triples plus the
    /// row-name order used for indices.
    pub fn power_channel(&self) -> (Vec<String>, Vec<(usize, usize, f64)>) {
        self.channel(|(p, _)| p.value())
    }

    /// The performance channel as `(row_index, col, value)` triples plus
    /// the row-name order used for indices.
    pub fn perf_channel(&self) -> (Vec<String>, Vec<(usize, usize, f64)>) {
        self.channel(|(_, q)| *q)
    }

    /// FNV-1a fingerprint of the full matrix content (dimensions, row
    /// names, and every entry's column and exact bit patterns).
    ///
    /// Two matrices share a fingerprint iff they would produce the same
    /// channels in the same row order — which makes it a sound
    /// memoization key for completion-model fits over the matrix.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&(self.columns as u64).to_le_bytes());
        for (name, row) in &self.rows {
            h.write(name.as_bytes());
            h.write(&[0xff]); // name terminator: "ab"+"c" must differ from "a"+"bc"
            h.write(&(row.len() as u64).to_le_bytes());
            for (c, (p, q)) in row {
                h.write(&(*c as u64).to_le_bytes());
                h.write(&p.value().to_bits().to_le_bytes());
                h.write(&q.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }

    fn channel(&self, f: impl Fn(&(Watts, f64)) -> f64) -> (Vec<String>, Vec<(usize, usize, f64)>) {
        let names: Vec<String> = self.rows.keys().cloned().collect();
        let mut triples = Vec::new();
        for (i, (_, row)) in self.rows.iter().enumerate() {
            for (c, entry) in row {
                triples.push((i, *c, f(entry)));
            }
        }
        (names, triples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut m = UtilityMatrix::new(4);
        m.insert("a", 0, Watts::new(5.0), 10.0);
        m.insert("a", 2, Watts::new(7.0), 15.0);
        m.insert("b", 1, Watts::new(3.0), 4.0);
        assert_eq!(m.get("a", 2), Some((Watts::new(7.0), 15.0)));
        assert_eq!(m.get("a", 1), None);
        assert_eq!(m.get("c", 0), None);
        assert_eq!(m.app_count(), 2);
        assert_eq!(m.app_names(), vec!["a", "b"]);
        assert_eq!(m.row_len("a"), 2);
        assert_eq!(m.row("b"), vec![(1, Watts::new(3.0), 4.0)]);
    }

    #[test]
    fn overwrites_update_in_place() {
        let mut m = UtilityMatrix::new(2);
        m.insert("a", 0, Watts::new(1.0), 1.0);
        m.insert("a", 0, Watts::new(2.0), 2.0);
        assert_eq!(m.get("a", 0), Some((Watts::new(2.0), 2.0)));
        assert_eq!(m.row_len("a"), 1);
    }

    #[test]
    fn density() {
        let mut m = UtilityMatrix::new(4);
        assert_eq!(m.density(), 0.0);
        m.insert("a", 0, Watts::new(1.0), 1.0);
        m.insert("a", 1, Watts::new(1.0), 1.0);
        assert_eq!(m.density(), 0.5);
        m.insert("b", 0, Watts::new(1.0), 1.0);
        assert_eq!(m.density(), 3.0 / 8.0);
    }

    #[test]
    fn channels_share_row_order() {
        let mut m = UtilityMatrix::new(3);
        m.insert("b", 2, Watts::new(4.0), 40.0);
        m.insert("a", 1, Watts::new(2.0), 20.0);
        let (names_p, power) = m.power_channel();
        let (names_q, perf) = m.perf_channel();
        assert_eq!(names_p, names_q);
        assert_eq!(names_p, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(power, vec![(0, 1, 2.0), (1, 2, 4.0)]);
        assert_eq!(perf, vec![(0, 1, 20.0), (1, 2, 40.0)]);
    }

    #[test]
    fn content_fingerprint_tracks_content() {
        let mut a = UtilityMatrix::new(4);
        a.insert("x", 0, Watts::new(1.0), 2.0);
        let mut b = UtilityMatrix::new(4);
        b.insert("x", 0, Watts::new(1.0), 2.0);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        // Any change — value, column, name, dimensions — moves the key.
        b.insert("x", 0, Watts::new(1.0), 3.0);
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
        let mut c = UtilityMatrix::new(5);
        c.insert("x", 0, Watts::new(1.0), 2.0);
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
        let mut d = UtilityMatrix::new(4);
        d.insert("y", 0, Watts::new(1.0), 2.0);
        assert_ne!(a.content_fingerprint(), d.content_fingerprint());
    }

    #[test]
    fn remove_app() {
        let mut m = UtilityMatrix::new(2);
        m.insert("a", 0, Watts::new(1.0), 1.0);
        assert!(m.remove_app("a"));
        assert!(!m.remove_app("a"));
        assert_eq!(m.app_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let mut m = UtilityMatrix::new(2);
        m.insert("a", 2, Watts::new(1.0), 1.0);
    }
}
