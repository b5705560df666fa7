//! The word-parallel bit kernel under [`crate::BitString`].
//!
//! Buffers are packed MSB-first: bit `i` lives in byte `i / 8` under mask
//! `0x80 >> (i % 8)`, so eight consecutive bytes read as one big-endian
//! `u64` hold sixty-four consecutive bits in order. Every routine here moves
//! or compares a *window* — `nbits` bits starting at a bit offset — and has
//! exactly two cases:
//!
//! * **congruent** (both offsets equal mod 8): whole bytes of the two
//!   windows line up, so the bulk is a slice copy, or a compare of aligned
//!   words;
//! * **shifted**: the source is read through [`load64`], one unaligned
//!   64-bit window per step.
//!
//! Callers own the canonical-tail invariant; the kernel only promises never
//! to touch a destination bit outside the window it was given.

use std::cmp::Ordering;

/// Eight bytes as one big-endian word.
fn be64(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_be_bytes(word)
}

/// The 64 bits of `src` starting at bit `bit`, first bit in the top
/// position; bits past the end of `src` read as zero.
fn load64(src: &[u8], bit: usize) -> u64 {
    let (byte, shift) = (bit / 8, bit % 8);
    let spill = |w: &[u8]| (be64(&w[..8]) << shift) | (u64::from(w[8]) >> (8 - shift));
    match src.get(byte..byte + 9) {
        Some(window) => spill(window),
        None => {
            // Within nine bytes of the end: zero-extend.
            let tail = src.get(byte..).unwrap_or_default();
            let mut window = [0u8; 9];
            window[..tail.len()].copy_from_slice(tail);
            spill(&window)
        }
    }
}

/// Replaces the bits of `byte` selected by `mask` with those of `bits`.
fn merge(byte: &mut u8, mask: u8, bits: u8) {
    *byte = (*byte & !mask) | (bits & mask);
}

/// Mask of the `n` bits of a byte starting at bit `from` (`from + n ≤ 8`).
fn byte_mask(from: usize, n: usize) -> u8 {
    ((0xff00u16 >> n) as u8) >> from
}

/// Copies `nbits` bits from `src` (starting at bit `src_off`) over the bits
/// of `dst` starting at bit `dst_off`; all other bits of `dst` are kept.
///
/// # Panics
///
/// Panics if either window runs past the end of its buffer.
pub(crate) fn copy_bits(dst: &mut [u8], dst_off: usize, src: &[u8], src_off: usize, nbits: usize) {
    assert!(
        dst_off + nbits <= dst.len() * 8 && src_off + nbits <= src.len() * 8,
        "bit window out of range"
    );
    let (mut d, mut s, mut n) = (dst_off, src_off, nbits);
    // Head: fill up dst's current byte, so that dst continues on a boundary.
    let lead = d % 8;
    if lead != 0 && n > 0 {
        let take = (8 - lead).min(n);
        let bits = (load64(src, s) >> 56) as u8 >> lead;
        merge(&mut dst[d / 8], byte_mask(lead, take), bits);
        (d, s, n) = (d + take, s + take, n - take);
    }
    let dst = &mut dst[d / 8..];
    let whole = n / 8;
    if s.is_multiple_of(8) {
        dst[..whole].copy_from_slice(&src[s / 8..s / 8 + whole]);
    } else {
        let mut words = dst[..whole].chunks_exact_mut(8);
        let mut pos = s;
        for word in &mut words {
            word.copy_from_slice(&load64(src, pos).to_be_bytes());
            pos += 64;
        }
        for byte in words.into_remainder() {
            *byte = (load64(src, pos) >> 56) as u8;
            pos += 8;
        }
    }
    // Tail: the bits left over after the last whole byte.
    let rest = n % 8;
    if rest != 0 {
        let bits = (load64(src, s + 8 * whole) >> 56) as u8;
        merge(&mut dst[whole], byte_mask(0, rest), bits);
    }
}

/// Sets the `nbits` bits of `dst` starting at bit `off`.
///
/// # Panics
///
/// Panics if the window runs past the end of `dst`.
pub(crate) fn fill_ones(dst: &mut [u8], off: usize, nbits: usize) {
    assert!(off + nbits <= dst.len() * 8, "bit window out of range");
    let (mut d, mut n) = (off, nbits);
    let lead = d % 8;
    if lead != 0 && n > 0 {
        let take = (8 - lead).min(n);
        dst[d / 8] |= byte_mask(lead, take);
        (d, n) = (d + take, n - take);
    }
    let dst = &mut dst[d / 8..];
    dst[..n / 8].fill(0xff);
    if !n.is_multiple_of(8) {
        dst[n / 8] |= byte_mask(0, n % 8);
    }
}

/// Position, relative to the window start, of the first bit at which the
/// `nbits`-bit windows of `a` (from bit `a_off`) and `b` (from bit `b_off`)
/// differ; `None` if they are equal.
///
/// # Panics
///
/// Panics if either window runs past the end of its buffer.
pub(crate) fn first_diff(
    a: &[u8],
    a_off: usize,
    b: &[u8],
    b_off: usize,
    nbits: usize,
) -> Option<usize> {
    assert!(
        a_off + nbits <= a.len() * 8 && b_off + nbits <= b.len() * 8,
        "bit window out of range"
    );
    let diff_at = |done: usize| load64(a, a_off + done) ^ load64(b, b_off + done);
    let mut done = 0;
    if a_off % 8 == b_off % 8 && nbits >= 64 {
        // Congruent: once the first window (which covers the ragged head)
        // matches, whole bytes line up and the equal run is skipped by
        // comparing aligned words.
        let x = diff_at(0);
        if x != 0 {
            return Some(x.leading_zeros() as usize);
        }
        let (ai, bi) = (a_off / 8 + 1, b_off / 8 + 1);
        let whole = (nbits - 8) / 8;
        let equal_words = a[ai..ai + whole]
            .chunks_exact(8)
            .zip(b[bi..bi + whole].chunks_exact(8))
            .take_while(|(x, y)| x == y)
            .count();
        done = (8 - a_off % 8) + 64 * equal_words;
    }
    while done < nbits {
        let live = (nbits - done).min(64);
        let x = diff_at(done) >> (64 - live);
        if x != 0 {
            return Some(done + x.leading_zeros() as usize - (64 - live));
        }
        done += live;
    }
    None
}

/// Lexicographic order of two equal-length bit windows (for windows this is
/// numeric order of the values they spell).
pub(crate) fn cmp_bits(a: &[u8], a_off: usize, b: &[u8], b_off: usize, nbits: usize) -> Ordering {
    match first_diff(a, a_off, b, b_off, nbits) {
        None => Ordering::Equal,
        // The windows differ here, so a's bit alone decides.
        Some(i) if a[(a_off + i) / 8] & (0x80 >> ((a_off + i) % 8)) != 0 => Ordering::Greater,
        Some(_) => Ordering::Less,
    }
}
