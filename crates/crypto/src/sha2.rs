//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This instantiates the paper's collision-resistant hash `Hκ` with κ = 256.
//! [`Sha256`] is a straightforward, allocation-free translation of the
//! standard, validated against the NIST short/long message vectors in the
//! tests below. `sha256_lanes` hashes up to eight equal-length messages at
//! once for the Merkle leaves; `Sha256` is its oracle.

use crate::Hash256;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use ca_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte split"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Hash256 {
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        for block in pad(&mut tail, self.buf_len, self.total_len) {
            self.compress(block);
        }
        digest(self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The one padding rule: the last `len < 64` message bytes sit at the
/// start of `tail`; appends `0x80`, zeroes and the 64-bit big-endian bit
/// length of the whole `total_len`-byte message, and returns the one or
/// two final blocks.
fn pad(tail: &mut [u8; 128], len: usize, total_len: u64) -> &[[u8; 64]] {
    let end = padded_len(len);
    tail[len] = 0x80;
    tail[len + 1..end - 8].fill(0);
    tail[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    tail[..end].as_chunks().0
}

/// Bytes `len` message bytes occupy once padded: room for `0x80` and the
/// 8-byte length, rounded up to whole blocks.
fn padded_len(len: usize) -> usize {
    (len + 9).next_multiple_of(64)
}

fn digest(state: [u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Hash256::from_bytes(out)
}

/// Messages one pass of [`sha256_lanes`] hashes: two SSE2 registers per
/// word.
pub(crate) const LANES: usize = 8;

/// One state or block word of every lane.
type Lanes = [u32; LANES];

/// SHA-256 of `head ‖ body` for each of up to [`LANES`] messages of one
/// length, in input order.
///
/// Whole blocks inside `body` are read in place; a block that straddles
/// `head` and `body`, and the padded tail, are copied to the stack first.
/// The streaming [`Sha256`] is this kernel's oracle.
///
/// # Panics
///
/// Panics if there are more than [`LANES`] messages or their lengths
/// differ.
pub(crate) fn sha256_lanes(msgs: &[(&[u8], &[u8])]) -> Vec<Hash256> {
    let total = msgs
        .first()
        .map_or(0, |(head, body)| head.len() + body.len());
    assert!(msgs.len() <= LANES, "at most {LANES} lanes");
    assert!(
        msgs.iter()
            .all(|(head, body)| head.len() + body.len() == total),
        "lanes of unequal length"
    );
    let mut state = H0.map(|word| [word; LANES]);
    let mut block = [[0u32; LANES]; 16];
    let mut buf = [0u8; 128];
    let whole = total / 64;
    for j in 0..whole {
        for (lane, &(head, body)) in msgs.iter().enumerate() {
            match (64 * j).checked_sub(head.len()) {
                Some(at) => load(&mut block, lane, &body[at..at + 64]),
                None => {
                    copy_span(head, body, 64 * j, &mut buf[..64]);
                    load(&mut block, lane, &buf[..64]);
                }
            }
        }
        compress_lanes(&mut state, &block);
    }
    let rest = total % 64;
    for t in 0..padded_len(rest) / 64 {
        for (lane, &(head, body)) in msgs.iter().enumerate() {
            copy_span(head, body, 64 * whole, &mut buf[..rest]);
            load(&mut block, lane, &pad(&mut buf, rest, total as u64)[t]);
        }
        compress_lanes(&mut state, &block);
    }
    (0..msgs.len())
        .map(|lane| digest(state.map(|word| word[lane])))
        .collect()
}

/// Copies bytes `start..start + out.len()` of `head ‖ body` into `out`.
fn copy_span(head: &[u8], body: &[u8], start: usize, out: &mut [u8]) {
    let (from_head, from_body) = out.split_at_mut(head.len().saturating_sub(start).min(out.len()));
    from_head.copy_from_slice(&head[start.min(head.len())..][..from_head.len()]);
    let at = start.saturating_sub(head.len());
    from_body.copy_from_slice(&body[at..at + from_body.len()]);
}

/// Reads the 64 bytes of `bytes` into lane `lane` of `block`.
fn load(block: &mut [Lanes; 16], lane: usize, bytes: &[u8]) {
    for (word, bytes) in block.iter_mut().zip(bytes.chunks_exact(4)) {
        word[lane] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
}

/// One compression of every lane: lane `l` of `block` is its block, lane
/// `l` of `state` its chaining value.
///
/// The body is one lane's compression with all 64 rounds unrolled, so
/// the loop over lanes is the innermost loop and the compiler widens it,
/// four lanes to an SSE2 register. Written round by round on whole lane
/// arrays instead, the rotations came out as scalar code or lane
/// shuffles; so did this loop when it read `state` through a copy
/// (`state.map`). `Ch` is `((f ^ g) & e) ^ g`, `Maj` reuses each round's
/// `a ^ b` as the next round's `b ^ c`, and the schedule is a rolling 16
/// words, which keeps the frame small.
#[expect(
    unused_assignments,
    reason = "the last round's `a ^ b` has no next round"
)]
fn compress_lanes(state: &mut [Lanes; 8], block: &[Lanes; 16]) {
    for lane in 0..LANES {
        let mut w: [u32; 16] = std::array::from_fn(|i| block[i][lane]);
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h]: [u32; 8] =
            std::array::from_fn(|i| state[i][lane]);
        let mut bc = b ^ c;
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let i: usize = $i;
                if i >= 16 {
                    let (x, y) = (w[(i + 1) % 16], w[(i + 14) % 16]);
                    let s0 = (x >> 7 ^ x << 25) ^ (x >> 18 ^ x << 14) ^ (x >> 3);
                    let s1 = (y >> 17 ^ y << 15) ^ (y >> 19 ^ y << 13) ^ (y >> 10);
                    w[i % 16] = w[i % 16]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) % 16])
                        .wrapping_add(s1);
                }
                let s1 = ($e >> 6 ^ $e << 26) ^ ($e >> 11 ^ $e << 21) ^ ($e >> 25 ^ $e << 7);
                let ch = (($f ^ $g) & $e) ^ $g;
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i].wrapping_add(w[i % 16]));
                let s0 = ($a >> 2 ^ $a << 30) ^ ($a >> 13 ^ $a << 19) ^ ($a >> 22 ^ $a << 10);
                let ab = $a ^ $b;
                let maj = $b ^ (ab & bc);
                bc = ab;
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0).wrapping_add(maj);
            };
        }
        // Eight rounds rename the working variables back into place.
        macro_rules! eight_rounds {
            ($i:expr) => {
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            };
        }
        eight_rounds!(0);
        eight_rounds!(8);
        eight_rounds!(16);
        eight_rounds!(24);
        eight_rounds!(32);
        eight_rounds!(40);
        eight_rounds!(48);
        eight_rounds!(56);
        for (word, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            word[lane] = word[lane].wrapping_add(x);
        }
    }
}

/// One-shot SHA-256 of `data` — the paper's `Hκ(data)`.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // NIST FIPS 180-4 / CAVP test vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(&sha256(input).to_hex(), expected);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        for _ in 0..1_000_000 {
            h.update(b"a");
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the padding boundaries must all be distinct hashes
        // and deterministic.
        let mut seen = std::collections::HashSet::new();
        for len in 0..200 {
            let data = vec![0x5a; len];
            let h = sha256(&data);
            assert_eq!(h, sha256(&data));
            assert!(seen.insert(h), "collision at length {len} (impossible)");
        }
    }

    /// Total lengths where the padding changes shape: the last one-block
    /// tail, the first two-block one, and the block edges around them.
    const EDGES: [usize; 6] = [55, 56, 63, 64, 119, 120];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane kernel against the streaming oracle: every lane of a
        /// pass is `sha256(head ‖ body)`, for 1..=8 lanes, any length up
        /// to 300 (half the cases on a padding edge, ±1) and each lane's
        /// own split between `head` and `body`, so blocks straddle the
        /// two at every offset.
        #[test]
        fn lanes_match_streaming(
            lanes in 1..LANES + 1,
            free in 0..301usize,
            edge in 0..2 * EDGES.len(),
            nudge in 0..3usize,
            splits in proptest::collection::vec(0..301usize, LANES),
            bytes in proptest::collection::vec(any::<u8>(), LANES * 301),
        ) {
            let len = match EDGES.get(edge) {
                Some(edge) => edge + nudge - 1,
                None => free,
            };
            let msgs: Vec<(&[u8], &[u8])> = (0..lanes)
                .map(|lane| bytes[lane * 301..][..len].split_at(splits[lane] % (len + 1)))
                .collect();
            let digests = sha256_lanes(&msgs);
            for (lane, (head, body)) in msgs.iter().enumerate() {
                prop_assert_eq!(digests[lane], sha256(&[*head, *body].concat()), "lane {}", lane);
            }
        }
    }
}
