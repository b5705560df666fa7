//! The κ-bit digest type.

use std::fmt;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

/// A 256-bit digest: the output of the paper's `Hκ` with κ = 256.
///
/// `Π_BA+` runs byzantine agreement on values of this type, and Merkle roots
/// (`z`, `z*` in §7) are of this type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// Wraps raw digest bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (64 characters).
    pub fn to_hex(&self) -> String {
        #[expect(
            clippy::disallowed_methods,
            reason = "a constant: two hex digits per digest byte"
        )]
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses 64 hex characters (`[0-9a-fA-F]`, no sign).
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
            *byte = (hex_digit(pair[0])? << 4) | hex_digit(pair[1])?;
        }
        Some(Self(out))
    }
}

/// The value of one hex digit; `u8::from_str_radix` would also take a
/// leading `+`.
fn hex_digit(c: u8) -> Option<u8> {
    char::from(c).to_digit(16).map(|d| d as u8)
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}…)", &self.to_hex()[..12])
    }
}

impl Encode for Hash256 {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.0);
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self(<[u8; 32]>::decode(r)?))
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let h = Hash256::from_bytes([0xab; 32]);
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex(&"0".repeat(63)), None);
        assert_eq!(Hash256::from_hex(&"+f".repeat(32)), None);
        assert_eq!(Hash256::from_hex(&"-f".repeat(32)), None);
        let mixed = "0123456789abcdefABCDEF".repeat(3);
        assert_eq!(
            Hash256::from_hex(&mixed[..64]).map(|h| h.to_hex()),
            Some(mixed[..64].to_lowercase())
        );
    }

    #[test]
    fn codec_round_trip() {
        let h = Hash256::from_bytes(std::array::from_fn(|i| i as u8));
        let bytes = h.encode_to_vec();
        assert_eq!(bytes.len(), 32);
        assert_eq!(Hash256::decode_from_slice(&bytes).unwrap(), h);
    }

    #[test]
    fn ordering_is_bytewise() {
        let lo = Hash256::from_bytes([0; 32]);
        let hi = Hash256::from_bytes([1; 32]);
        assert!(lo < hi);
    }
}
