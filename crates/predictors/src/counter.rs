//! Saturating counters.

use bw_types::Outcome;

/// An n-bit saturating counter, the building block of every pattern
/// history table.
///
/// A 2-bit counter has states 0 (strong not-taken) through 3 (strong
/// taken); values in the upper half predict taken. The Alpha 21264's
/// local PHT uses 3-bit counters, which this type also supports.
///
/// # Examples
///
/// ```
/// use bw_predictors::SatCounter;
/// use bw_types::Outcome;
///
/// let mut c = SatCounter::two_bit();
/// assert!(!c.predict().is_taken()); // starts weakly not-taken
/// c.update(Outcome::Taken);
/// assert!(c.predict().is_taken());
/// c.update(Outcome::Taken);
/// assert!(c.is_strong());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// A counter of `bits` width (1..=7), initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width {bits} out of range");
        let max = (1u8 << bits) - 1;
        SatCounter {
            value: max / 2,
            max,
        }
    }

    /// The ubiquitous 2-bit counter.
    #[must_use]
    pub fn two_bit() -> Self {
        SatCounter::new(2)
    }

    /// A 3-bit counter (Alpha 21264 local PHT).
    #[must_use]
    pub fn three_bit() -> Self {
        SatCounter::new(3)
    }

    /// Raw counter value.
    #[must_use]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// The direction this counter predicts.
    #[must_use]
    pub fn predict(&self) -> Outcome {
        Outcome::from_bool(self.value > self.max / 2)
    }

    /// `true` if the counter is saturated in its predicted direction
    /// (strong state).
    #[must_use]
    pub fn is_strong(&self) -> bool {
        self.value == 0 || self.value == self.max
    }

    /// `true` if the counter value is within its representable range —
    /// a sanitizer check (the `update` state machine preserves this by
    /// construction; the runtime sanitizer re-verifies it).
    #[must_use]
    pub fn in_range(&self) -> bool {
        self.value <= self.max
    }

    /// Trains the counter toward `actual`.
    pub fn update(&mut self, actual: Outcome) {
        if actual.is_taken() {
            if self.value < self.max {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Trains toward "agree with choice A" (`true`) or "choice B"
    /// (`false`) — the hybrid-selector usage, where the upper half
    /// selects component A.
    pub fn train_toward(&mut self, a: bool) {
        self.update(Outcome::from_bool(a));
    }

    /// `true` if the upper half of the range is selected (hybrid
    /// selector semantics: choose component A).
    #[must_use]
    pub fn selects_a(&self) -> bool {
        self.value > self.max / 2
    }
}

impl Default for SatCounter {
    /// A 2-bit counter.
    fn default() -> Self {
        SatCounter::two_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_types::Outcome::{NotTaken, Taken};

    #[test]
    fn two_bit_state_machine() {
        let mut c = SatCounter::two_bit();
        assert_eq!(c.value(), 1);
        assert_eq!(c.predict(), NotTaken);
        c.update(Taken); // -> 2
        assert_eq!(c.predict(), Taken);
        assert!(!c.is_strong());
        c.update(Taken); // -> 3
        assert!(c.is_strong());
        c.update(Taken); // saturates at 3
        assert_eq!(c.value(), 3);
        c.update(NotTaken); // -> 2, still predicts taken (hysteresis)
        assert_eq!(c.predict(), Taken);
        c.update(NotTaken); // -> 1
        assert_eq!(c.predict(), NotTaken);
        c.update(NotTaken); // -> 0
        c.update(NotTaken); // saturates at 0
        assert_eq!(c.value(), 0);
        assert!(c.is_strong());
    }

    #[test]
    fn three_bit_range() {
        let mut c = SatCounter::three_bit();
        assert_eq!(c.max(), 7);
        assert_eq!(c.value(), 3);
        for _ in 0..10 {
            c.update(Taken);
        }
        assert_eq!(c.value(), 7);
        assert!(c.is_strong());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = SatCounter::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_wide_rejected() {
        let _ = SatCounter::new(8);
    }

    #[test]
    fn selector_semantics() {
        let mut c = SatCounter::two_bit();
        assert!(!c.selects_a());
        c.train_toward(true);
        assert!(c.selects_a());
        c.train_toward(false);
        c.train_toward(false);
        assert!(!c.selects_a());
    }

    #[test]
    fn default_is_two_bit() {
        assert_eq!(SatCounter::default(), SatCounter::two_bit());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn value_stays_in_range(bits in 1u8..=7, updates in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut c = SatCounter::new(bits);
            for t in updates {
                c.update(Outcome::from_bool(t));
                prop_assert!(c.value() <= c.max());
            }
        }

        #[test]
        fn saturation_is_stable(bits in 1u8..=7) {
            let mut c = SatCounter::new(bits);
            for _ in 0..300 {
                c.update(Outcome::Taken);
            }
            prop_assert_eq!(c.value(), c.max());
            prop_assert!(c.predict().is_taken());
        }
    }
}
