//! The one size an allocation for received bytes may take.

/// A length a peer claimed, checked against a named cap.
///
/// `Vec::with_capacity`, `Vec::reserve`, `Vec::reserve_exact`,
/// `String::with_capacity` and [`Writer::with_capacity`](crate::Writer::with_capacity)
/// are disallowed methods throughout the workspace (the root
/// `clippy.toml`), so a length off the wire reaches an allocation only
/// through [`WireLen::at_most`] and the two helpers below. A site that
/// sizes from a local value keeps its call and says why with
/// `#[expect(clippy::disallowed_methods, reason = "…")]`.
///
/// The checks that construct one: the sequence decoders' count check
/// against [`MAX_DECODE_CAPACITY`](crate::MAX_DECODE_CAPACITY), and the
/// TCP runtime's `validate_frame_len`, `validate_hello_len` and round-frame
/// decoder against its frame, handshake and message-count caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLen(usize);

impl WireLen {
    /// `len`, if it is at most `cap`.
    ///
    /// The cap is trusted, not checked: pass a named constant, never a
    /// value read off the wire, so that `at_most(` lists every cap a
    /// received length can reach an allocation under.
    pub fn at_most(len: usize, cap: usize) -> Option<Self> {
        (len <= cap).then_some(Self(len))
    }

    /// The length.
    pub fn get(self) -> usize {
        self.0
    }

    /// An empty `Vec` with room for this many elements.
    pub fn with_capacity<T>(self) -> Vec<T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the capacity is a wire length checked against its cap"
        )]
        Vec::with_capacity(self.0)
    }

    /// This many zero bytes: a receive buffer for a body of this length.
    #[expect(
        clippy::disallowed_methods,
        reason = "the length is a wire length checked against its cap"
    )]
    pub fn zeroed(self) -> Vec<u8> {
        vec![0; self.0]
    }
}
