//! The `quantity!` macro declaring an `f64` newtype with the full set of
//! arithmetic, ordering and formatting impls shared by every unit.

/// Declares a physical-quantity newtype over `f64`.
///
/// Generated API per type `$name` with unit suffix `$suffix`:
///
/// * `new`, `value`, `ZERO`, `zero`, `is_zero`, `abs`, `min`, `max`,
///   `clamp`, `is_finite`, `max_of`/`min_of` free functions via methods;
/// * `Add`, `Sub`, `Neg`, `AddAssign`, `SubAssign` with `Self`;
/// * `Mul<f64>`, `Div<f64>` (and `Mul<$name> for f64`) keeping dimension;
/// * `Div<Self> -> f64` (dimensionless ratio);
/// * `Sum` for iterator accumulation;
/// * `PartialOrd`, `Display` (`"12.5 W"`), `Debug`, `Default`.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw `f64` value.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Clamps negative values to zero, useful when numerical noise
            /// produces tiny negative powers/energies.
            #[inline]
            pub fn max_zero(self) -> Self {
                Self(self.0.max(0.0))
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + x)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + *x)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "({} ", $suffix, ")"), self.0)
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

#[cfg(test)]
mod tests {
    quantity!(
        /// Test-only quantity.
        Frob,
        "fb"
    );

    #[test]
    fn arithmetic() {
        let a = Frob::new(3.0);
        let b = Frob::new(1.5);
        assert_eq!(a + b, Frob::new(4.5));
        assert_eq!(a - b, Frob::new(1.5));
        assert_eq!(-a, Frob::new(-3.0));
        assert_eq!(a * 2.0, Frob::new(6.0));
        assert_eq!(2.0 * a, Frob::new(6.0));
        assert_eq!(a / 2.0, Frob::new(1.5));
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn accessors_and_clamps() {
        let x = Frob::new(-2.0);
        assert_eq!(x.abs(), Frob::new(2.0));
        assert_eq!(x.max_zero(), Frob::ZERO);
        assert!(!Frob::new(f64::NAN).is_finite());
        assert_eq!(
            Frob::new(5.0).clamp(Frob::ZERO, Frob::new(3.0)),
            Frob::new(3.0)
        );
        assert_eq!(Frob::new(1.0).min(Frob::new(2.0)), Frob::new(1.0));
        assert_eq!(Frob::new(1.0).max(Frob::new(2.0)), Frob::new(2.0));
    }

    #[test]
    fn sum_and_format() {
        let total: Frob = [Frob::new(1.0), Frob::new(2.0)].into_iter().sum();
        assert_eq!(total, Frob::new(3.0));
        let total_ref: Frob = [Frob::new(1.0), Frob::new(2.0)].iter().sum();
        assert_eq!(total_ref, Frob::new(3.0));
        assert_eq!(format!("{}", Frob::new(2.5)), "2.5 fb");
        assert_eq!(format!("{:.2}", Frob::new(2.5)), "2.50 fb");
        assert_eq!(format!("{:?}", Frob::new(2.5)), "Frob(2.5 fb)");
    }

    #[test]
    fn conversions() {
        let x: Frob = 4.0.into();
        let raw: f64 = x.into();
        assert_eq!(raw, 4.0);
        assert_eq!(Frob::default(), Frob::ZERO);
    }
}
