//! Branch outcomes.

use std::fmt;

/// The resolved (or predicted) direction of a conditional branch.
///
/// # Examples
///
/// ```
/// use bw_types::Outcome;
///
/// let o = Outcome::from_bool(true);
/// assert_eq!(o, Outcome::Taken);
/// assert!(o.is_taken());
/// assert_eq!(o.flip(), Outcome::NotTaken);
/// assert_eq!(o.as_bit(), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Outcome {
    /// The branch was (or is predicted) not taken: control falls through.
    NotTaken,
    /// The branch was (or is predicted) taken: control transfers to the
    /// target.
    Taken,
}

impl Outcome {
    /// Builds an outcome from a boolean, `true` meaning taken.
    #[must_use]
    pub fn from_bool(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }

    /// `true` if the branch is taken.
    #[must_use]
    pub fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }

    /// The opposite direction.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }

    /// The outcome as a history bit (1 = taken), as shifted into branch
    /// history registers.
    #[must_use]
    pub fn as_bit(self) -> u64 {
        match self {
            Outcome::Taken => 1,
            Outcome::NotTaken => 0,
        }
    }
}

impl Default for Outcome {
    /// Defaults to [`Outcome::NotTaken`], matching a cold predictor's
    /// weakly-not-taken initial state.
    fn default() -> Self {
        Outcome::NotTaken
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Taken => "taken",
            Outcome::NotTaken => "not-taken",
        })
    }
}

impl From<bool> for Outcome {
    fn from(taken: bool) -> Self {
        Outcome::from_bool(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bool_roundtrips() {
        assert_eq!(Outcome::from_bool(true), Outcome::Taken);
        assert_eq!(Outcome::from_bool(false), Outcome::NotTaken);
        assert!(Outcome::from_bool(true).is_taken());
        assert!(!Outcome::from_bool(false).is_taken());
    }

    #[test]
    fn flip_is_involution() {
        for o in [Outcome::Taken, Outcome::NotTaken] {
            assert_eq!(o.flip().flip(), o);
            assert_ne!(o.flip(), o);
        }
    }

    #[test]
    fn history_bits() {
        assert_eq!(Outcome::Taken.as_bit(), 1);
        assert_eq!(Outcome::NotTaken.as_bit(), 0);
    }

    #[test]
    fn default_is_not_taken() {
        assert_eq!(Outcome::default(), Outcome::NotTaken);
    }
}
