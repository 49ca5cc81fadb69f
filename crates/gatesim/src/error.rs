//! Error type for the digital-activity substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the activity simulators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GatesimError {
    /// A simulation parameter was invalid.
    InvalidParameter {
        /// Human-readable description of the parameter.
        what: &'static str,
    },
}

impl fmt::Display for GatesimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatesimError::InvalidParameter { what } => {
                write!(f, "invalid parameter: {what}")
            }
        }
    }
}

impl Error for GatesimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        assert!(!GatesimError::InvalidParameter { what: "cycles" }
            .to_string()
            .ends_with('.'));
    }
}
