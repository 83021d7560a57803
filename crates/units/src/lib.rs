//! Typed physical quantities for the `powermed` workspace.
//!
//! Power management code juggles watts, joules, hertz, seconds and unitless
//! ratios, and mixing them up is a classic source of silent bugs (e.g.
//! passing an energy where a power is expected, or a GHz value where the
//! model wants Hz). This crate provides zero-cost `f64` newtypes with the
//! dimensional arithmetic the rest of the workspace needs:
//!
//! * [`Watts`] × [`Seconds`] → [`Joules`]
//! * [`Joules`] ÷ [`Seconds`] → [`Watts`]
//! * [`Joules`] ÷ [`Watts`] → [`Seconds`]
//! * [`Ratio`] scales any quantity without changing its dimension
//!
//! # Examples
//!
//! ```
//! use powermed_units::{Joules, Seconds, Watts};
//!
//! let cap = Watts::new(100.0);
//! let idle = Watts::new(50.0);
//! let headroom = cap - idle;
//! let banked: Joules = headroom * Seconds::new(10.0);
//! assert_eq!(banked, Joules::new(500.0));
//! ```
//!
//! All types are `Copy`, `Send`, `Sync`, ordered, and display with their
//! unit suffix (`"12.5 W"`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

mod bandwidth;
mod energy;
mod frequency;
pub mod hash;
mod power;
mod ratio;
pub mod rng;
mod time;

pub use bandwidth::BytesPerSec;
pub use energy::{Joules, WattHours};
pub use frequency::{Gigahertz, Hertz};
pub use power::{Watts, CAP_TOLERANCE};
pub use ratio::Ratio;
pub use time::Seconds;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Watts>();
        assert_send_sync::<Joules>();
        assert_send_sync::<Hertz>();
        assert_send_sync::<Seconds>();
        assert_send_sync::<Ratio>();
        assert_send_sync::<BytesPerSec>();
    }

    #[test]
    fn cross_unit_roundtrip() {
        let p = Watts::new(20.0);
        let t = Seconds::new(5.0);
        let e = p * t;
        assert_eq!(e, Joules::new(100.0));
        assert_eq!(e / t, p);
        assert_eq!(e / p, t);
    }
}
