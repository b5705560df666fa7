//! Systematic Reed–Solomon erasure coding (`RS.ENCODE` / `RS.DECODE`, §7).
//!
//! # Hot-path structure
//!
//! Encode and decode run *symbol-major over blocks of stripes*: encode
//! transposes `varint(len) ‖ data ‖ zero padding` straight from the
//! caller's bytes into per-position columns, and shares already are
//! columns. One kernel, `combine`, then computes all output rows of a call
//! (parity rows, or reconstructed data positions), four rows per `u64`:
//! each column's [`MulTable`] entry holds four rows' products, so two L1
//! lookups and an XOR yield four products instead of one log/antilog
//! round-trip each. Calls under 256 stripes use [`Gf::mul`] and build no
//! table. Coefficients are barycentric Lagrange rows, `O(k)` each after one
//! `O(k²)` weight pass. The stripe-at-a-time scalar kernels are retained
//! behind `#[cfg(any(test, feature = "scalar-oracle"))]` as the one
//! differential-testing oracle and the baseline P1 measures against.

use std::cell::OnceCell;
use std::error::Error;
use std::fmt;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::gf::{Gf, MulTable, LANES, ORDER};

/// Stripes per cache block of `combine`: 2048 packed accumulators (16 KiB)
/// plus one 4 KiB input column block stay L1-resident across a row
/// group's whole column sweep.
const STRIPE_BLOCK: usize = 2048;

/// One of the `n` codewords produced by [`ReedSolomon::encode`]
/// (the paper's `sᵢ`).
///
/// A share carries one `GF(2^16)` symbol per data stripe; its byte size is
/// `O(|payload| / k)`, i.e. `O(ℓ/n)` bits for the protocol's `k = n − t`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Share {
    symbols: Vec<Gf>,
}

impl Share {
    /// Number of stripes (symbols) in this share.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the share is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.encoded_len()
    }
}

/// Symbols per chunk of [`Share::encode`]'s staging buffer (1 KiB on the
/// stack).
const ENCODE_CHUNK: usize = 512;

impl Encode for Share {
    /// Big-endian symbols, staged a chunk at a time so the writer takes
    /// one bulk copy per chunk instead of one call per symbol.
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.symbols.len() as u64);
        let mut buf = [0u8; 2 * ENCODE_CHUNK];
        for chunk in self.symbols.chunks(ENCODE_CHUNK) {
            let staged = &mut buf[..2 * chunk.len()];
            for (out, s) in staged.chunks_exact_mut(2).zip(chunk) {
                out.copy_from_slice(&s.0.to_be_bytes());
            }
            w.put_raw(staged);
        }
    }

    fn encoded_len(&self) -> usize {
        Writer::varint_len(self.symbols.len() as u64) + 2 * self.symbols.len()
    }
}

impl Decode for Share {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        ShareRef::decode(r).map(|s| s.to_share())
    }
}

/// A borrowed view of an encoded [`Share`], decoded zero-copy from a
/// receive buffer.
///
/// The view keeps the exact encoded byte span, which is precisely what a
/// Merkle leaf commits to — so `Π_ℓBA+` can verify a received codeword
/// against the agreed accumulator root *without* re-encoding it, and only
/// materialize an owned [`Share`] (one symbol parse) for codewords that
/// pass verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRef<'a> {
    /// The full encoded span: varint symbol count + big-endian symbols.
    encoded: &'a [u8],
    /// The symbol region (`2 × len` bytes) within `encoded`.
    symbols: &'a [u8],
}

impl<'a> ShareRef<'a> {
    /// Decodes a share without copying, borrowing from the reader's input.
    ///
    /// # Errors
    ///
    /// Same validation as [`Share::decode`]: [`CodecError::LengthOverrun`]
    /// when the claimed symbol count exceeds the remaining bytes (the
    /// claimed byte length is saturated, so a forged count near
    /// `usize::MAX` reports cleanly instead of overflowing).
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let span = r.rest();
        let before = r.remaining();
        let len = usize::decode(r)?;
        let claimed = len.saturating_mul(2);
        if claimed > r.remaining() {
            return Err(CodecError::LengthOverrun {
                claimed,
                available: r.remaining(),
            });
        }
        let symbols = r.get_raw(claimed)?;
        let consumed = before - r.remaining();
        Ok(ShareRef {
            encoded: &span[..consumed],
            symbols,
        })
    }

    /// Decodes from a complete slice, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`ShareRef::decode`], plus [`CodecError::TrailingBytes`].
    pub fn decode_from_slice(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let share = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(share)
    }

    /// Number of stripes (symbols) in the viewed share.
    pub fn len(&self) -> usize {
        self.symbols.len() / 2
    }

    /// Whether the viewed share is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The exact encoded bytes this view was decoded from — the Merkle
    /// leaf preimage, available without re-encoding.
    pub fn encoded_bytes(&self) -> &'a [u8] {
        self.encoded
    }

    /// Materializes an owned [`Share`] (parses the symbol bytes once).
    pub fn to_share(&self) -> Share {
        let symbols = self
            .symbols
            .chunks_exact(2)
            .map(|b| Gf(u16::from_be_bytes([b[0], b[1]])))
            .collect();
        Share { symbols }
    }
}

/// Errors from Reed–Solomon configuration or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RsError {
    /// `(n, k)` outside `1 ≤ k ≤ n ≤ 2^16 − 1`.
    InvalidParameters {
        /// Total shares requested.
        n: usize,
        /// Threshold requested.
        k: usize,
    },
    /// Fewer than `k` distinct, in-range shares were provided.
    NotEnoughShares {
        /// Distinct usable shares seen.
        got: usize,
        /// Threshold `k`.
        needed: usize,
    },
    /// A share index was `≥ n`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
    },
    /// Shares disagree on the stripe count.
    LengthMismatch,
    /// The reconstructed payload framing was invalid (corrupt shares that
    /// nevertheless passed external checks, or inconsistent share subsets).
    BadPayload,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidParameters { n, k } => {
                write!(f, "invalid RS parameters n = {n}, k = {k}")
            }
            RsError::NotEnoughShares { got, needed } => {
                write!(f, "not enough shares: got {got}, need {needed}")
            }
            RsError::IndexOutOfRange { index } => write!(f, "share index {index} out of range"),
            RsError::LengthMismatch => write!(f, "shares have differing lengths"),
            RsError::BadPayload => write!(f, "reconstructed payload is malformed"),
        }
    }
}

impl Error for RsError {}

/// A systematic `(n, k)` Reed–Solomon code over `GF(2^16)`.
///
/// The data polynomial `p` of degree `< k` is defined by its evaluations at
/// `α₀ … α_{k−1}` (the data symbols); share `i` is `p(αᵢ)`. Any `k` distinct
/// shares determine `p`, hence the data — this is `RS.DECODE` from `n − t`
/// codewords with `k = n − t`.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// parity_matrix[row][col] = L_col(α_{k+row}) where L is the Lagrange
    /// basis over the data points α₀ … α_{k−1}.
    parity_matrix: Vec<Vec<Gf>>,
}

impl ReedSolomon {
    /// Creates a code with `n` total shares and threshold `k`.
    ///
    /// The paper's `Π_ℓBA+` uses `k = n − t`.
    ///
    /// # Errors
    ///
    /// [`RsError::InvalidParameters`] unless `1 ≤ k ≤ n ≤ 2^16 − 1`.
    pub fn new(n: usize, k: usize) -> Result<Self, RsError> {
        if k == 0 || k > n || n > ORDER {
            return Err(RsError::InvalidParameters { n, k });
        }
        let data_points: Vec<Gf> = (0..k).map(Gf::alpha).collect();
        let weights = weights(&data_points);
        let parity_matrix = (k..n)
            .map(|row| lagrange_row(&data_points, &weights, Gf::alpha(row)))
            .collect();
        Ok(Self {
            n,
            k,
            parity_matrix,
        })
    }

    /// Reconstruction threshold `k`.
    pub fn threshold(&self) -> usize {
        self.k
    }

    /// Frames `data` with its length and pads to a whole number of stripes.
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn frame_payload(&self, data: &[u8]) -> Vec<u8> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's payload plus its length varint"
        )]
        let mut payload = Writer::with_capacity(data.len() + 9);
        payload.put_varint(data.len() as u64);
        payload.put_raw(data);
        let mut payload = payload.into_vec();
        let stripe_bytes = 2 * self.k;
        payload.resize(payload.len().div_ceil(stripe_bytes) * stripe_bytes, 0);
        payload
    }

    /// Strips the length framing from a reconstructed payload in place,
    /// rejecting nonzero padding.
    fn unframe(mut payload: Vec<u8>) -> Result<Vec<u8>, RsError> {
        let mut r = Reader::new(&payload);
        let len = r.get_varint().map_err(|_| RsError::BadPayload)?;
        let len = usize::try_from(len).map_err(|_| RsError::BadPayload)?;
        r.get_raw(len).map_err(|_| RsError::BadPayload)?;
        // Remaining bytes must be zero padding.
        if r.rest().iter().any(|&b| b != 0) {
            return Err(RsError::BadPayload);
        }
        payload.truncate(payload.len() - r.remaining());
        payload.drain(..payload.len() - len);
        Ok(payload)
    }

    /// Symbol `j` of every stripe of the framed payload `head ‖ data ‖ zero
    /// padding`, with `head = varint(data.len())`, which is share `j` for
    /// `j < k`, read in place rather than framed into a copy: stripes
    /// wholly inside `data` from its slice, the few that hold the head or
    /// the padding byte by byte.
    fn column<'a>(
        &self,
        head: &'a [u8],
        data: &'a [u8],
        j: usize,
    ) -> impl Iterator<Item = Gf> + 'a {
        let (h, sb, sym) = (head.len(), 2 * self.k, |b| Gf(u16::from_be_bytes(b)));
        let byte = move |at: usize| match at.checked_sub(h) {
            None => head[at],
            Some(at) => data.get(at).copied().unwrap_or(0),
        };
        let edge = move |s: usize| sym([byte(s * sb + 2 * j), byte(s * sb + 2 * j + 1)]);
        let (lo, end) = (h.div_ceil(sb), (h + data.len()).div_ceil(sb));
        let hi = ((h + data.len()) / sb).max(lo);
        let inner = data.get(lo * sb - h..hi * sb - h).unwrap_or_default();
        let inner = inner.as_chunks::<2>().0.chunks_exact(self.k);
        let inner = inner.map(move |st| sym(st[j]));
        (0..lo).map(edge).chain(inner).chain((hi..end).map(edge))
    }

    /// Selects the first `k` distinct in-range shares and validates their
    /// stripe counts agree.
    fn pick<'s>(&self, shares: &'s [(usize, Share)]) -> Result<Vec<(usize, &'s Share)>, RsError> {
        #[expect(clippy::disallowed_methods, reason = "one slot per codeword index")]
        let mut chosen: Vec<Option<&Share>> = vec![None; self.n];
        let mut distinct = 0;
        for (idx, share) in shares {
            if *idx >= self.n {
                return Err(RsError::IndexOutOfRange { index: *idx });
            }
            if chosen[*idx].is_none() {
                chosen[*idx] = Some(share);
                distinct += 1;
            }
        }
        if distinct < self.k {
            return Err(RsError::NotEnoughShares {
                got: distinct,
                needed: self.k,
            });
        }
        let picked: Vec<(usize, &Share)> = chosen
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
            .take(self.k)
            .collect();
        let stripes = picked[0].1.symbols.len();
        if picked.iter().any(|(_, s)| s.symbols.len() != stripes) {
            return Err(RsError::LengthMismatch);
        }
        Ok(picked)
    }

    /// Precomputes, for each data position `j`, how to reconstruct it from
    /// the picked evaluation points: directly (systematic fast path) or as
    /// a Lagrange combination.
    fn coeff_rows(&self, picked: &[(usize, &Share)]) -> Vec<CoeffRow> {
        let xs: Vec<Gf> = picked.iter().map(|(i, _)| Gf::alpha(*i)).collect();
        let ws = OnceCell::new();
        (0..self.k)
            .map(|j| {
                if let Some(pos) = picked.iter().position(|(i, _)| *i == j) {
                    CoeffRow::Direct(pos)
                } else {
                    let ws = ws.get_or_init(|| weights(&xs));
                    CoeffRow::Combine(lagrange_row(&xs, ws, Gf::alpha(j)))
                }
            })
            .collect()
    }

    /// `RS.ENCODE(v)`: splits `data` into `n` shares, any `k` of which
    /// reconstruct it.
    ///
    /// Blocked kernel: the framed payload is transposed straight from
    /// `data` into the `k` systematic shares, its symbol columns, then one
    /// `combine` call computes every parity row from them.
    pub fn encode(&self, data: &[u8]) -> Vec<Share> {
        let head = data.len().encode_to_vec();
        let stripes = (head.len() + data.len()).div_ceil(2 * self.k);
        // Shares 0..k *are* the symbol-major data columns, so the kernel
        // below reads contiguous memory.
        let cols: Vec<Vec<Gf>> = (0..self.k)
            .map(|j| self.column(&head, data, j).collect())
            .collect();
        // Parity part: evaluate p at α_k … α_{n−1}.
        let parity = combine(&self.parity_matrix, &cols, stripes);
        let shares = cols.into_iter().chain(parity);
        shares.map(|symbols| Share { symbols }).collect()
    }

    /// `RS.DECODE`: reconstructs the original data from at least `k` shares
    /// given as `(index, share)` pairs (duplicates allowed, first wins).
    ///
    /// Blocked kernel: share symbol vectors are already columns, so no
    /// input transpose is needed; one `combine` call reconstructs every
    /// missing data position, and present (systematic) positions are read
    /// from their shares in place.
    ///
    /// # Errors
    ///
    /// See [`RsError`] — too few shares, bad indices, inconsistent lengths,
    /// or malformed payload framing.
    pub fn decode(&self, shares: &[(usize, Share)]) -> Result<Vec<u8>, RsError> {
        let picked = self.pick(shares)?;
        let stripes = picked[0].1.symbols.len();
        let picked_cols: Vec<&[Gf]> = picked.iter().map(|(_, s)| s.symbols.as_slice()).collect();
        let rows = self.coeff_rows(&picked);
        let missing = rows.iter().filter_map(|row| match row {
            CoeffRow::Direct(_) => None,
            CoeffRow::Combine(coeffs) => Some(coeffs),
        });
        let combined = combine(&missing.collect::<Vec<_>>(), &picked_cols, stripes);
        let mut combined = combined.iter();
        let out_cols: Vec<&[Gf]> = rows
            .iter()
            .map(|row| match row {
                CoeffRow::Direct(pos) => picked_cols[*pos],
                CoeffRow::Combine(_) => combined.next().expect("one column per Combine row"),
            })
            .collect();

        // Transpose back to stripe-major bytes in one pass over the output
        // and strip the framing.
        let stripe_bytes = 2 * self.k;
        #[expect(
            clippy::disallowed_methods,
            reason = "k symbols for each stripe the shares hold"
        )]
        let mut payload = vec![0u8; stripes * stripe_bytes];
        for (s, stripe) in payload.chunks_exact_mut(stripe_bytes).enumerate() {
            for (out, col) in stripe.chunks_exact_mut(2).zip(&out_cols) {
                out.copy_from_slice(&col[s].0.to_be_bytes());
            }
        }
        Self::unframe(payload)
    }

    /// Stripe-at-a-time scalar `RS.ENCODE`, retained as the
    /// differential-testing oracle for the blocked kernel (and the baseline
    /// the P1 benchmark measures speedup against).
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn encode_scalar(&self, data: &[u8]) -> Vec<Share> {
        let payload = self.frame_payload(data);
        let stripe_bytes = 2 * self.k;
        let stripes = payload.len() / stripe_bytes;

        #[expect(
            clippy::disallowed_methods,
            reason = "one symbol per stripe of the caller's payload"
        )]
        let mut shares = vec![
            Share {
                symbols: Vec::with_capacity(stripes)
            };
            self.n
        ];
        #[expect(
            clippy::disallowed_methods,
            reason = "one symbol per data row of the code"
        )]
        let mut data_syms = vec![Gf::ZERO; self.k];
        for s in 0..stripes {
            let base = s * stripe_bytes;
            for (j, sym) in data_syms.iter_mut().enumerate() {
                *sym = Gf(u16::from_be_bytes([
                    payload[base + 2 * j],
                    payload[base + 2 * j + 1],
                ]));
            }
            // Systematic part: shares 0..k carry the data symbols.
            for j in 0..self.k {
                shares[j].symbols.push(data_syms[j]);
            }
            // Parity part: evaluate p at α_k … α_{n−1}.
            for (row, share) in shares[self.k..].iter_mut().enumerate() {
                let mut acc = Gf::ZERO;
                for (c, &d) in data_syms.iter().enumerate() {
                    acc = acc.add(self.parity_matrix[row][c].mul(d));
                }
                share.symbols.push(acc);
            }
        }
        shares
    }

    /// Stripe-at-a-time scalar `RS.DECODE`, retained as the
    /// differential-testing oracle for the blocked kernel.
    ///
    /// # Errors
    ///
    /// See [`RsError`] — same contract as [`ReedSolomon::decode`].
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn decode_scalar(&self, shares: &[(usize, Share)]) -> Result<Vec<u8>, RsError> {
        let picked = self.pick(shares)?;
        let stripes = picked[0].1.symbols.len();
        let coeff_rows = self.coeff_rows(&picked);

        let stripe_bytes = 2 * self.k;
        #[expect(
            clippy::disallowed_methods,
            reason = "k symbols for each stripe the shares hold"
        )]
        let mut payload = vec![0u8; stripes * stripe_bytes];
        for s in 0..stripes {
            for (j, row) in coeff_rows.iter().enumerate() {
                let sym = match row {
                    CoeffRow::Direct(pos) => picked[*pos].1.symbols[s],
                    CoeffRow::Combine(coeffs) => {
                        let mut acc = Gf::ZERO;
                        for (c, (_, share)) in picked.iter().enumerate() {
                            acc = acc.add(coeffs[c].mul(share.symbols[s]));
                        }
                        acc
                    }
                };
                let be = sym.0.to_be_bytes();
                payload[s * stripe_bytes + 2 * j] = be[0];
                payload[s * stripe_bytes + 2 * j + 1] = be[1];
            }
        }
        Self::unframe(payload)
    }
}

/// `out[r] = Σ_j rows[r][j] · cols[j]` over `stripes` symbols, for every
/// row at once: the RS kernel. Each group of [`LANES`] rows builds one
/// [`MulTable`] per column, accumulates one [`STRIPE_BLOCK`] of stripes at
/// a time in packed `u64`s, then splits the lanes into its rows. Under 256
/// stripes a table costs more than it saves, and [`Gf::mul`] is used.
fn combine<R: AsRef<[Gf]>, C: AsRef<[Gf]>>(rows: &[R], cols: &[C], stripes: usize) -> Vec<Vec<Gf>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller's rows times its stripes"
    )]
    let mut out = vec![vec![Gf::ZERO; stripes]; rows.len()];
    if stripes < 256 {
        for (row, out) in rows.iter().zip(&mut out) {
            for (&c, col) in row.as_ref().iter().zip(cols) {
                for (o, &x) in out.iter_mut().zip(col.as_ref()) {
                    *o = o.add(c.mul(x));
                }
            }
        }
        return out;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "one block of at most STRIPE_BLOCK stripes"
    )]
    let (mut acc, mut tables) = (vec![0u64; stripes.min(STRIPE_BLOCK)], Vec::new());
    for (group, outs) in rows.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let lanes =
            |j: usize| std::array::from_fn(|r| group.get(r).map_or(Gf::ZERO, |g| g.as_ref()[j]));
        tables.clear();
        tables.extend((0..cols.len()).map(|j| MulTable::new(lanes(j))));
        for start in (0..stripes).step_by(STRIPE_BLOCK) {
            let block = start..stripes.min(start + STRIPE_BLOCK);
            let acc = &mut acc[..block.len()];
            acc.fill(0);
            for (table, col) in tables.iter().zip(cols) {
                table.mul_acc(acc, &col.as_ref()[block.clone()]);
            }
            for (r, out) in outs.iter_mut().enumerate() {
                for (o, &a) in out[block.clone()].iter_mut().zip(acc.iter()) {
                    *o = Gf((a >> (16 * r)) as u16);
                }
            }
        }
    }
    out
}

enum CoeffRow {
    /// The data symbol is directly present at this position of the picked set.
    Direct(usize),
    /// Linear combination of the picked symbols with these coefficients.
    Combine(Vec<Gf>),
}

/// Barycentric weights `wᵢ = 1 / Π_{j≠i}(xᵢ + xⱼ)` of the distinct nodes
/// `xs`: the `O(k²)` part of every Lagrange row over them, paid once.
fn weights(xs: &[Gf]) -> Vec<Gf> {
    let den = |xi: Gf| {
        xs.iter()
            .filter(|&&xj| xj != xi)
            .fold(Gf::ONE, |d, &xj| d.mul(xi.add(xj)))
    };
    xs.iter().map(|&xi| den(xi).inv()).collect()
}

/// Lagrange basis evaluations `out[i] = Lᵢ(x) = wᵢ · Π_j(x + xⱼ) / (x + xᵢ)`
/// over the nodes `xs` with weights `ws`, at a point `x` that is no node.
fn lagrange_row(xs: &[Gf], ws: &[Gf], x: Gf) -> Vec<Gf> {
    let all = xs.iter().fold(Gf::ONE, |p, &xj| p.mul(x.add(xj)));
    let row = xs.iter().zip(ws);
    row.map(|(&xi, &wi)| wi.mul(all).div(x.add(xi))).collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_all_shares() {
        let rs = ReedSolomon::new(7, 5).unwrap();
        let data = b"hello reed-solomon";
        let shares = rs.encode(data);
        assert_eq!(shares.len(), 7);
        let pairs: Vec<_> = shares.into_iter().enumerate().collect();
        assert_eq!(rs.decode(&pairs).unwrap(), data);
    }

    #[test]
    fn round_trip_every_k_subset() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let data: Vec<u8> = (0..57).collect();
        let shares = rs.encode(&data);
        // All C(6,4) subsets.
        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    for d in c + 1..6 {
                        let subset: Vec<_> = [a, b, c, d]
                            .iter()
                            .map(|&i| (i, shares[i].clone()))
                            .collect();
                        assert_eq!(rs.decode(&subset).unwrap(), data, "{a}{b}{c}{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_data_round_trips() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let shares = rs.encode(b"");
        let pairs: Vec<_> = shares.into_iter().enumerate().skip(1).collect();
        assert_eq!(rs.decode(&pairs).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn too_few_shares_rejected() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let shares = rs.encode(b"abc");
        let pairs: Vec<_> = shares.into_iter().enumerate().take(2).collect();
        assert!(matches!(
            rs.decode(&pairs),
            Err(RsError::NotEnoughShares { got: 2, needed: 3 })
        ));
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let shares = rs.encode(b"abc");
        let pairs = vec![
            (0, shares[0].clone()),
            (0, shares[0].clone()),
            (1, shares[1].clone()),
        ];
        assert!(matches!(
            rs.decode(&pairs),
            Err(RsError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn bad_index_rejected() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let shares = rs.encode(b"abc");
        let pairs = vec![(9, shares[0].clone())];
        assert!(matches!(
            rs.decode(&pairs),
            Err(RsError::IndexOutOfRange { index: 9 })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReedSolomon::new(0, 0).is_err());
        assert!(ReedSolomon::new(3, 4).is_err());
        assert!(ReedSolomon::new(1 << 16, 5).is_err());
        assert!(ReedSolomon::new(65535, 5).is_ok());
    }

    #[test]
    fn share_size_is_data_over_k() {
        let rs = ReedSolomon::new(31, 21).unwrap();
        let data = vec![0xaa; 100_000];
        let shares = rs.encode(&data);
        let share_bytes = shares[0].byte_len();
        // ~ 100_000 / 21 ≈ 4762 plus framing slack.
        assert!(
            share_bytes < 100_000 / 21 + 64,
            "share too big: {share_bytes}"
        );
    }

    #[test]
    fn determinism() {
        let rs = ReedSolomon::new(7, 5).unwrap();
        assert_eq!(rs.encode(b"same input"), rs.encode(b"same input"));
    }

    #[test]
    fn share_codec_round_trip() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let share = rs.encode(b"codec me").remove(3);
        let bytes = share.encode_to_vec();
        assert_eq!(Share::decode_from_slice(&bytes).unwrap(), share);
    }

    #[test]
    fn share_ref_borrows_exact_encoded_span() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let share = rs.encode(b"view me without copying").remove(4);
        let bytes = share.encode_to_vec();
        let view = ShareRef::decode_from_slice(&bytes).unwrap();
        assert_eq!(view.encoded_bytes(), &bytes[..]);
        assert_eq!(view.len(), share.len());
        assert_eq!(view.to_share(), share);

        // Mid-stream decode captures only the share's span.
        let mut stream = 42u32.encode_to_vec();
        let start = stream.len();
        stream.extend_from_slice(&bytes);
        stream.extend_from_slice(b"tail");
        let mut r = Reader::new(&stream);
        assert_eq!(u32::decode(&mut r).unwrap(), 42);
        let view = ShareRef::decode(&mut r).unwrap();
        assert_eq!(view.encoded_bytes(), &stream[start..start + bytes.len()]);
        assert_eq!(r.rest(), b"tail");
    }

    #[test]
    fn share_decode_forged_length_saturates_claim() {
        // Regression: a forged varint count near usize::MAX used to compute
        // `claimed: 2 * len` with an unchecked multiply — an overflow panic
        // in debug builds on the error path. The claim must saturate.
        for forged in [usize::MAX, usize::MAX / 2 + 1, usize::MAX - 7] {
            let mut w = Writer::new();
            w.put_varint(forged as u64);
            let bytes = w.into_vec();
            let err = Share::decode_from_slice(&bytes).unwrap_err();
            match err {
                CodecError::LengthOverrun { claimed, available } => {
                    assert_eq!(claimed, forged.saturating_mul(2), "forged = {forged}");
                    assert_eq!(available, 0);
                }
                other => panic!("expected LengthOverrun, got {other:?}"),
            }
        }
    }

    /// Deterministic pseudo-random k-subset of 0..n from a seed.
    fn seeded_subset(n: usize, k: usize, seed: u64) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            indices.swap(i, (s % (i as u64 + 1)) as usize);
        }
        indices.truncate(k);
        indices
    }

    #[test]
    fn blocked_matches_scalar_at_n_256() {
        // The acceptance-scale differential: blocked and scalar kernels must
        // be byte-identical at the P1 grid's largest n, on both a
        // systematic-heavy and a parity-heavy subset.
        let n = 256;
        let t = (n - 1) / 3;
        let k = n - t; // 171
        let rs = ReedSolomon::new(n, k).unwrap();
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| i.wrapping_mul(2654435761) as u8)
            .collect();

        let blocked = rs.encode(&data);
        let scalar = rs.encode_scalar(&data);
        assert_eq!(blocked, scalar);

        // Systematic-heavy: data positions present, Direct fast path.
        let subset: Vec<_> = (0..k).map(|i| (i, blocked[i].clone())).collect();
        assert_eq!(
            rs.decode(&subset).unwrap(),
            rs.decode_scalar(&subset).unwrap()
        );
        assert_eq!(rs.decode(&subset).unwrap(), data);

        // Parity-heavy: all parity shares plus the tail of the data shares —
        // maximal Combine work.
        let subset: Vec<_> = (n - k..n).map(|i| (i, blocked[i].clone())).collect();
        assert_eq!(
            rs.decode(&subset).unwrap(),
            rs.decode_scalar(&subset).unwrap()
        );
        assert_eq!(rs.decode(&subset).unwrap(), data);
    }

    #[test]
    fn blocked_matches_scalar_across_block_boundary() {
        // Stripe counts straddling STRIPE_BLOCK exercise the block loop's
        // remainder handling. Keep k small so the payload stays manageable.
        let rs = ReedSolomon::new(4, 2).unwrap();
        for stripes in [
            STRIPE_BLOCK - 1,
            STRIPE_BLOCK,
            STRIPE_BLOCK + 1,
            2 * STRIPE_BLOCK + 3,
        ] {
            // 2k bytes per stripe, minus framing slack so counts land near
            // the boundary.
            let data = vec![0x5au8; stripes * 4 - 3];
            let blocked = rs.encode(&data);
            let scalar = rs.encode_scalar(&data);
            assert_eq!(blocked, scalar, "stripes = {stripes}");
            let subset: Vec<_> = [2usize, 3]
                .iter()
                .map(|&i| (i, blocked[i].clone()))
                .collect();
            assert_eq!(
                rs.decode(&subset).unwrap(),
                rs.decode_scalar(&subset).unwrap(),
                "stripes = {stripes}"
            );
            assert_eq!(rs.decode(&subset).unwrap(), data, "stripes = {stripes}");
        }
    }

    #[test]
    fn wide_kernel_matches_scalar() {
        // The kernel's table path (≥ 256 stripes) against the scalar
        // oracle: every remainder of the row count mod LANES in encode
        // (n − k) and in decode (the reconstructed positions), at stripe
        // counts around the table threshold and the block boundary.
        for (n, k) in [
            (6, 5),
            (7, 5),
            (8, 5),
            (9, 5),
            (10, 5),
            (11, 5),
            (12, 5),
            (13, 5),
        ] {
            let rs = ReedSolomon::new(n, k).unwrap();
            for stripes in [255, 256, 257, STRIPE_BLOCK - 1, STRIPE_BLOCK + 1] {
                // A 2- or 3-byte length head plus the data fills the last
                // stripe but for one to three bytes of padding.
                let data: Vec<u8> = (0..stripes * 2 * k - 4)
                    .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_be_bytes()[0])
                    .collect();
                let blocked = rs.encode(&data);
                assert_eq!(blocked[0].len(), stripes);
                assert_eq!(
                    blocked,
                    rs.encode_scalar(&data),
                    "n={n} k={k} stripes={stripes}"
                );
                // Systematic-heavy: one data share lost; parity-heavy: the
                // k highest-indexed shares, losing min(n − k, k) data shares.
                for first in [1, n - k] {
                    let subset: Vec<_> = (first..first + k)
                        .map(|i| (i, blocked[i].clone()))
                        .collect();
                    let decoded = rs.decode(&subset).unwrap();
                    assert_eq!(decoded, rs.decode_scalar(&subset).unwrap());
                    assert_eq!(decoded, data, "n={n} k={k} stripes={stripes} first={first}");
                }
            }
        }
    }

    /// The direct `O(k²)`-per-row Lagrange construction that the
    /// barycentric rows replaced.
    fn lagrange_row_direct(xs: &[Gf], x: Gf) -> Vec<Gf> {
        (0..xs.len())
            .map(|i| {
                let mut num = Gf::ONE;
                let mut den = Gf::ONE;
                for (j, &xj) in xs.iter().enumerate() {
                    if i != j {
                        num = num.mul(x.add(xj));
                        den = den.mul(xs[i].add(xj));
                    }
                }
                num.div(den)
            })
            .collect()
    }

    #[test]
    fn barycentric_rows_equal_the_direct_construction() {
        // Exact field arithmetic: the coefficients are identical, for the
        // parity rows over the data points and for the decode rows over a
        // scattered pick of shares.
        for n in 1..=40 {
            for k in 1..=n {
                let rs = ReedSolomon::new(n, k).unwrap();
                let xs: Vec<Gf> = (0..k).map(Gf::alpha).collect();
                for (row, coeffs) in (k..n).zip(&rs.parity_matrix) {
                    assert_eq!(
                        *coeffs,
                        lagrange_row_direct(&xs, Gf::alpha(row)),
                        "n={n} k={k}"
                    );
                }
                let mut picked = seeded_subset(n, k, (n * 64 + k) as u64);
                picked.sort_unstable();
                let xs: Vec<Gf> = picked.iter().map(|&i| Gf::alpha(i)).collect();
                let ws = weights(&xs);
                for j in (0..n).filter(|j| !picked.contains(j)) {
                    let x = Gf::alpha(j);
                    assert_eq!(
                        lagrange_row(&xs, &ws, x),
                        lagrange_row_direct(&xs, x),
                        "n={n} k={k} j={j}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_round_trip_random_subsets(
            data in proptest::collection::vec(any::<u8>(), 0..500),
            n in 4usize..20,
            seed in any::<u64>(),
        ) {
            let t = (n - 1) / 3;
            let k = n - t;
            let rs = ReedSolomon::new(n, k).unwrap();
            let shares = rs.encode(&data);
            let subset: Vec<_> = seeded_subset(n, k, seed)
                .into_iter()
                .map(|i| (i, shares[i].clone()))
                .collect();
            prop_assert_eq!(rs.decode(&subset).unwrap(), data);
        }

        #[test]
        fn prop_reencode_matches(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            // decode → encode must reproduce the identical share vector
            // (determinism is what lets Π_ℓBA+ cross-check codewords).
            let rs = ReedSolomon::new(7, 5).unwrap();
            let shares = rs.encode(&data);
            let subset: Vec<_> = shares.iter().cloned().enumerate().skip(2).collect();
            let decoded = rs.decode(&subset).unwrap();
            prop_assert_eq!(rs.encode(&decoded), shares);
        }

        #[test]
        fn prop_blocked_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..800),
            n in 4usize..40,
            seed in any::<u64>(),
        ) {
            // The blocked kernels must be byte-identical to the retained
            // scalar oracle across random (n, k, data, subset).
            let t = (n - 1) / 3;
            let k = n - t;
            let rs = ReedSolomon::new(n, k).unwrap();
            let blocked = rs.encode(&data);
            let scalar = rs.encode_scalar(&data);
            prop_assert_eq!(&blocked, &scalar);
            let subset: Vec<_> = seeded_subset(n, k, seed)
                .into_iter()
                .map(|i| (i, blocked[i].clone()))
                .collect();
            prop_assert_eq!(rs.decode(&subset).unwrap(), rs.decode_scalar(&subset).unwrap());
            prop_assert_eq!(rs.decode(&subset).unwrap(), data);
        }
    }
}
