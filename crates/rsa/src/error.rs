//! Error type for the RSA crate.

use std::error::Error;
use std::fmt;

/// Errors raised by RSA key generation and the public/private operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Requested key size is too small to hold the padding overhead.
    KeyTooSmall(usize),
    /// Requested key size exceeds the fixed-width backend
    /// ([`RsaKeyPair::MAX_BITS`](crate::RsaKeyPair::MAX_BITS)).
    KeyTooLarge(usize),
    /// The message does not fit under the modulus with the required padding.
    MessageTooLong {
        /// Bytes available for the message under this key.
        capacity: usize,
        /// Bytes that were supplied.
        got: usize,
    },
    /// A ciphertext or signature value is not a canonical residue.
    ValueOutOfRange,
    /// The padding of a decrypted block is malformed.
    InvalidPadding,
    /// A signature failed verification.
    VerificationFailed,
    /// Internal arithmetic failure: a generated key component does not fit
    /// the fixed-width backend. Key generation checks the size first, so
    /// this indicates a bug rather than bad input.
    ArithmeticFailure,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::KeyTooSmall(bits) => write!(f, "key size {bits} bits is too small"),
            RsaError::KeyTooLarge(bits) => write!(f, "key size {bits} bits is too large"),
            RsaError::MessageTooLong { capacity, got } => {
                write!(
                    f,
                    "message of {got} bytes exceeds capacity of {capacity} bytes"
                )
            }
            RsaError::ValueOutOfRange => write!(f, "value is not a canonical residue"),
            RsaError::InvalidPadding => write!(f, "invalid padding"),
            RsaError::VerificationFailed => write!(f, "signature verification failed"),
            RsaError::ArithmeticFailure => write!(f, "internal arithmetic failure"),
        }
    }
}

impl Error for RsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RsaError::KeyTooSmall(64).to_string().contains("64"));
        assert!(RsaError::KeyTooLarge(2048).to_string().contains("2048"));
        assert!(RsaError::MessageTooLong {
            capacity: 100,
            got: 200
        }
        .to_string()
        .contains("200"));
        assert!(RsaError::InvalidPadding.to_string().contains("padding"));
        assert!(RsaError::VerificationFailed
            .to_string()
            .contains("verification"));
    }
}
