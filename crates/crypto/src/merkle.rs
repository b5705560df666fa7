//! Merkle-tree accumulator (paper §7, `MT.BUILD` / `MT.VERIFY`).
//!
//! The tree compresses a sequence of `n` leaves into one κ-bit root and
//! yields, for each leaf, a witness of `O(κ · log n)` bits proving membership
//! at a *specific index*. Leaf and interior hashes are domain-separated so a
//! leaf hash cannot be replayed as an interior node (second-preimage
//! hardening), and leaves are committed together with their index and the
//! total leaf count, so a witness for one position cannot be replayed at
//! another.

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::sha2::{sha256_lanes, LANES};
use crate::{sha256, Hash256, Sha256};

const DOMAIN_LEAF: u8 = 0x00;
const DOMAIN_NODE: u8 = 0x01;
const DOMAIN_EMPTY: u8 = 0x02;

/// A membership witness: the sibling hashes along the path from a leaf to the
/// root, bottom-up (the paper's `wᵢ`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Total number of leaves in the tree (needed to recompute the shape).
    leaf_count: u32,
    /// Sibling hashes from the leaf level up to just below the root.
    path: Vec<Hash256>,
}

impl Witness {
    /// Number of leaves of the tree this witness belongs to.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count as usize
    }

    /// The sibling path (bottom-up).
    pub fn path(&self) -> &[Hash256] {
        &self.path
    }
}

impl Encode for Witness {
    fn encode(&self, w: &mut Writer) {
        self.leaf_count.encode(w);
        self.path.encode(w);
    }

    fn encoded_len(&self) -> usize {
        self.leaf_count.encoded_len() + self.path.encoded_len()
    }
}

impl Decode for Witness {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let leaf_count = u32::decode(r)?;
        if leaf_count == 0 {
            return Err(CodecError::Invalid("merkle witness over zero leaves"));
        }
        let path: Vec<Hash256> = Vec::decode(r)?;
        // The tree shape is fully determined by leaf_count: the path must
        // have exactly ⌈log₂(leaf_count)⌉ siblings. Anything else is an
        // adversarial witness that verify() would reject anyway — failing
        // at decode keeps malformed shapes out of protocol state entirely.
        if path.len() != expected_depth(leaf_count) {
            return Err(CodecError::Invalid(
                "merkle path length mismatches leaf count",
            ));
        }
        Ok(Self { leaf_count, path })
    }
}

/// Path length of every witness in a tree over `leaf_count` leaves:
/// `log₂(leaf_count.next_power_of_two())`.
fn expected_depth(leaf_count: u32) -> usize {
    // Widened so leaf_count close to u32::MAX cannot overflow
    // next_power_of_two (2^32 needs 33 bits).
    u64::from(leaf_count).next_power_of_two().trailing_zeros() as usize
}

impl MerkleTree {
    /// Encoded length of every witness of a tree over `leaf_count`
    /// leaves: the count, the path length and [`expected_depth`] hashes.
    pub fn witness_len(leaf_count: u32) -> usize {
        let depth = expected_depth(leaf_count);
        leaf_count.encoded_len() + depth.encoded_len() + 32 * depth
    }
}

/// A built Merkle tree over a sequence of byte-string leaves.
///
/// `MerkleTree::build(S)` is the paper's `MT.BUILD(S)`: it returns (via
/// accessors) the root hash `z` and the witnesses `w₁ … wₙ`.
///
/// The tree is stored as a single heap-layout arena (`nodes[1]` is the
/// root, children of `i` at `2i`/`2i + 1`, leaves at `width .. 2·width`),
/// so a build is one allocation, filled through the same `hash_leaf` /
/// `hash_node` that [`MerkleTree::verify`] recomputes the path with.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Heap-layout node arena of size `2 · width`; index 0 is unused.
    nodes: Vec<Hash256>,
    /// Padded leaf width (`leaf_count.next_power_of_two()`).
    width: usize,
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds the tree over `leaves` (`MT.BUILD`).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty or holds more than `u32::MAX` entries.
    pub fn build<L: AsRef<[u8]>>(leaves: &[L]) -> Self {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        assert!(u32::try_from(leaves.len()).is_ok(), "too many leaves");
        let leaf_count = leaves.len();
        let width = leaf_count.next_power_of_two();

        #[expect(clippy::disallowed_methods, reason = "the tree's own node count")]
        let mut nodes = vec![empty_leaf(); 2 * width];
        let leaves: Vec<Leaf<'_>> = leaves
            .iter()
            .enumerate()
            .map(|(i, leaf)| (i as u32, leaf_count as u32, leaf.as_ref()))
            .collect();
        nodes[width..width + leaf_count].copy_from_slice(&hash_leaves(&leaves));
        for i in (1..width).rev() {
            nodes[i] = hash_node(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        Self {
            nodes,
            width,
            leaf_count,
        }
    }

    /// The root hash `z`.
    pub fn root(&self) -> Hash256 {
        self.nodes[1]
    }

    /// Number of (real, unpadded) leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The witness `wᵢ` for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.leaf_count()`.
    pub fn witness(&self, index: usize) -> Witness {
        assert!(index < self.leaf_count, "leaf index {index} out of range");
        #[expect(clippy::disallowed_methods, reason = "the tree's own depth")]
        let mut path = Vec::with_capacity(self.width.trailing_zeros() as usize);
        let mut pos = self.width + index;
        while pos > 1 {
            path.push(self.nodes[pos ^ 1]);
            pos >>= 1;
        }
        Witness {
            leaf_count: self.leaf_count as u32,
            path,
        }
    }

    /// All witnesses, in leaf order (the `w₁, …, wₙ` of `MT.BUILD`).
    pub fn witnesses(&self) -> Vec<Witness> {
        (0..self.leaf_count).map(|i| self.witness(i)).collect()
    }

    /// `MT.VERIFY(z, i, leaf, w)`: checks that `leaf` is committed at
    /// position `index` of the tree with root `root`.
    ///
    /// Returns `false` (never panics) on any inconsistency, including
    /// adversarial witnesses with wrong shapes.
    pub fn verify<L: AsRef<[u8]>>(root: Hash256, index: usize, leaf: L, witness: &Witness) -> bool {
        fits(index, witness)
            && climb(
                hash_leaf(index as u32, witness.leaf_count, leaf.as_ref()),
                index,
                witness,
            ) == root
    }

    /// [`MerkleTree::verify`] of every `(index, leaf, witness)` against
    /// one root, in order: the same verdict per item, with the leaf hashes
    /// of equal-length leaves computed several at a time.
    pub fn verify_each<L: AsRef<[u8]>>(root: Hash256, items: &[(usize, L, &Witness)]) -> Vec<bool> {
        let fit: Vec<bool> = items
            .iter()
            .map(|(index, _, witness)| fits(*index, witness))
            .collect();
        let leaves: Vec<Leaf<'_>> = items
            .iter()
            .zip(&fit)
            .filter(|(_, fit)| **fit)
            .map(|((index, leaf, witness), _)| (*index as u32, witness.leaf_count, leaf.as_ref()))
            .collect();
        let mut hashes = hash_leaves(&leaves).into_iter();
        items
            .iter()
            .zip(fit)
            .map(|((index, _, witness), fit)| {
                fit && hashes
                    .next()
                    .is_some_and(|leaf| climb(leaf, *index, witness) == root)
            })
            .collect()
    }
}

/// Whether a witness has the shape of a tree with a leaf at `index`.
fn fits(index: usize, witness: &Witness) -> bool {
    index < witness.leaf_count as usize && witness.path.len() == expected_depth(witness.leaf_count)
}

/// The root that the leaf hash `leaf` at `index` and its sibling path
/// recompute to.
fn climb(leaf: Hash256, index: usize, witness: &Witness) -> Hash256 {
    let mut acc = leaf;
    let mut pos = index;
    for sibling in &witness.path {
        acc = if pos & 1 == 0 {
            hash_node(&acc, sibling)
        } else {
            hash_node(sibling, &acc)
        };
        pos >>= 1;
    }
    acc
}

/// A leaf to hash: its index, the tree's leaf count and its bytes.
type Leaf<'a> = (u32, u32, &'a [u8]);

/// Leaves shorter than this are hashed one at a time, for memory: the
/// lane path's frames are ~2 KiB deeper, and without this cutoff
/// `engine_mux`, while its ~450 sessions each hashed small trees on a
/// thread of their own, read 0.6–2.1 MiB more peak RSS (3 of 3 pairs).
/// `lba_bulk`'s leaves are ~50 KB.
const MIN_LANE_LEN: usize = 1024;

/// `hash_leaf` of every leaf, in order. Leaves of one length, at least
/// [`MIN_LANE_LEN`] long, go through [`sha256_lanes`] up to [`LANES`] at
/// a time, wherever they sit in the list; any other leaf goes through
/// [`Sha256`].
fn hash_leaves(leaves: &[Leaf<'_>]) -> Vec<Hash256> {
    #[expect(clippy::disallowed_methods, reason = "one hash per caller's leaf")]
    let mut out = vec![Hash256::default(); leaves.len()];
    let mut order: Vec<usize> = (0..leaves.len()).collect();
    order.sort_unstable_by_key(|&i| (leaves[i].2.len(), i));
    for run in order.chunk_by(|&i, &j| leaves[i].2.len() == leaves[j].2.len()) {
        for group in run.chunks(LANES) {
            if group.len() > 1 && leaves[group[0]].2.len() >= MIN_LANE_LEN {
                hash_lanes(leaves, group, &mut out);
            } else {
                for &i in group {
                    let (index, leaf_count, data) = leaves[i];
                    out[i] = hash_leaf(index, leaf_count, data);
                }
            }
        }
    }
    out
}

/// `hash_leaf` of the equal-length leaves `group` (at most [`LANES`]) in
/// one [`sha256_lanes`] pass, into `out`.
// Out of line, so that the one-at-a-time path does not carry its frame.
#[inline(never)]
fn hash_lanes(leaves: &[Leaf<'_>], group: &[usize], out: &mut [Hash256]) {
    let heads: Vec<[u8; 9]> = group
        .iter()
        .map(|&i| leaf_head(leaves[i].0, leaves[i].1))
        .collect();
    let msgs: Vec<(&[u8], &[u8])> = group
        .iter()
        .zip(&heads)
        .map(|(&i, head)| (&head[..], leaves[i].2))
        .collect();
    for (&i, hash) in group.iter().zip(sha256_lanes(&msgs)) {
        out[i] = hash;
    }
}

/// The domain byte, index and leaf count that precede a leaf's bytes.
fn leaf_head(index: u32, leaf_count: u32) -> [u8; 9] {
    let mut head = [DOMAIN_LEAF; 9];
    head[1..5].copy_from_slice(&index.to_be_bytes());
    head[5..].copy_from_slice(&leaf_count.to_be_bytes());
    head
}

fn hash_leaf(index: u32, leaf_count: u32, data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&leaf_head(index, leaf_count));
    h.update(data);
    h.finalize()
}

fn hash_node(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&[DOMAIN_NODE]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

fn empty_leaf() -> Hash256 {
    sha256(&[DOMAIN_EMPTY])
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn witnesses_verify_for_all_sizes() {
        for n in 1..=17 {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let w = tree.witness(i);
                assert!(MerkleTree::verify(tree.root(), i, leaf, &w), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let w = tree.witness(3);
        assert!(!MerkleTree::verify(tree.root(), 3, b"forged", &w));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let w = tree.witness(3);
        assert!(!MerkleTree::verify(tree.root(), 4, &data[3], &w));
        // Even with the matching leaf content of the other index.
        assert!(!MerkleTree::verify(tree.root(), 4, &data[4], &w));
    }

    #[test]
    fn wrong_root_rejected() {
        let data = leaves(5);
        let tree = MerkleTree::build(&data);
        let other = MerkleTree::build(&leaves(6));
        let w = tree.witness(0);
        assert!(!MerkleTree::verify(other.root(), 0, &data[0], &w));
    }

    #[test]
    fn malformed_witness_shapes_rejected() {
        let data = leaves(4);
        let tree = MerkleTree::build(&data);
        let mut w = tree.witness(1);
        w.path.push(Hash256::default());
        assert!(!MerkleTree::verify(tree.root(), 1, &data[1], &w));
        let mut w2 = tree.witness(1);
        w2.path.pop();
        assert!(!MerkleTree::verify(tree.root(), 1, &data[1], &w2));
        let w3 = Witness {
            leaf_count: 0,
            path: vec![],
        };
        assert!(!MerkleTree::verify(tree.root(), 0, &data[0], &w3));
    }

    #[test]
    fn duplicate_leaves_bind_to_positions() {
        // Identical leaf contents at two positions still yield
        // position-specific witnesses.
        let data = vec![b"same".to_vec(), b"same".to_vec()];
        let tree = MerkleTree::build(&data);
        let w0 = tree.witness(0);
        assert!(MerkleTree::verify(tree.root(), 0, &data[0], &w0));
        assert!(!MerkleTree::verify(tree.root(), 1, &data[1], &w0));
    }

    #[test]
    fn leaf_count_is_committed() {
        // A 2-leaf tree and the first two leaves of a 3-leaf tree differ.
        let t2 = MerkleTree::build(&leaves(2));
        let t3 = MerkleTree::build(&leaves(3));
        assert_ne!(t2.root(), t3.root());
        let w = t2.witness(0);
        assert!(!MerkleTree::verify(t3.root(), 0, &leaves(3)[0], &w));
    }

    #[test]
    fn witness_decode_rejects_malformed_shapes() {
        use ca_codec::{Decode, Encode};
        // A legitimate 9-leaf witness has depth ⌈log₂ 9⌉ = 4.
        let tree = MerkleTree::build(&leaves(9));
        let good = tree.witness(5);
        let encode = |w: &Witness| w.encode_to_vec();

        // Short path: one sibling stripped.
        let mut short = good.clone();
        short.path.pop();
        assert!(Witness::decode_from_slice(&encode(&short)).is_err());

        // Long path: one extra sibling appended (this decoded fine before
        // the depth cross-check — anything up to 33 was accepted).
        let mut long = good.clone();
        long.path.push(Hash256::default());
        assert!(Witness::decode_from_slice(&encode(&long)).is_err());

        // Mismatched leaf_count: same 4-sibling path, claimed tree of 3
        // leaves (depth 2).
        let mismatched = Witness {
            leaf_count: 3,
            path: good.path.clone(),
        };
        assert!(Witness::decode_from_slice(&encode(&mismatched)).is_err());

        // Zero leaves is shapeless.
        let zero = Witness {
            leaf_count: 0,
            path: vec![],
        };
        assert!(Witness::decode_from_slice(&encode(&zero)).is_err());

        // The untampered witness still round-trips.
        assert_eq!(Witness::decode_from_slice(&encode(&good)).unwrap(), good);
    }

    #[test]
    fn witness_decode_depth_tracks_leaf_count_boundaries() {
        use ca_codec::{Decode, Encode};
        // Powers of two and their neighbours: depth(2^k) = k but
        // depth(2^k + 1) = k + 1.
        for leaf_count in [1u32, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257] {
            let depth = u64::from(leaf_count).next_power_of_two().trailing_zeros() as usize;
            let ok = Witness {
                leaf_count,
                path: vec![Hash256::default(); depth],
            };
            assert!(
                Witness::decode_from_slice(&ok.encode_to_vec()).is_ok(),
                "leaf_count = {leaf_count}, depth = {depth}"
            );
            for bad_depth in [depth.wrapping_sub(1), depth + 1] {
                if bad_depth > 40 {
                    continue; // wrapped below zero
                }
                let bad = Witness {
                    leaf_count,
                    path: vec![Hash256::default(); bad_depth],
                };
                assert!(
                    Witness::decode_from_slice(&bad.encode_to_vec()).is_err(),
                    "leaf_count = {leaf_count}, bad_depth = {bad_depth}"
                );
            }
        }
    }

    /// Known answer: pins the domain-separation bytes, the index and
    /// leaf-count commitment and the empty-leaf padding (5 leaves pad to 8).
    #[test]
    fn root_known_answer() {
        assert_eq!(
            MerkleTree::build(&leaves(5)).root().to_hex(),
            "4e66e8ad486a12f4355c34eb6041e35492d00b352c94a89b970f7c9126562cb4"
        );
    }

    /// Known answer at the benchmark's shape: 31 leaves of 4 KiB, so the
    /// leaves go through three full 8-lane passes and one of 7. Computed
    /// independently with Python's `hashlib`:
    /// `H = lambda b: hashlib.sha256(b).digest()`; leaf `i` is
    /// `bytes((7*i + 13*j) % 256 for j in range(4096))`, hashed as
    /// `H(b'\x00' + i.to_bytes(4, 'big') + (31).to_bytes(4, 'big') + leaf)`;
    /// `H(b'\x02')` pads to 32 leaves and `H(b'\x01' + left + right)`
    /// joins.
    #[test]
    fn root_known_answer_at_benchmark_shape() {
        let leaves: Vec<Vec<u8>> = (0..31usize)
            .map(|i| (0..4096usize).map(|j| (7 * i + 13 * j) as u8).collect())
            .collect();
        assert_eq!(
            MerkleTree::build(&leaves).root().to_hex(),
            "6b774d390212647cb344137c327b39a81d3184f86192448db3f60f366d0e07ea"
        );
    }

    /// `verify_each` gives `verify`'s verdict for every item of one call
    /// that mixes good items with a wrong leaf, a wrong index, a witness
    /// of another tree (another root and leaf count), wrong path lengths
    /// and leaves of several lengths.
    #[test]
    fn verify_each_matches_verify_per_item() {
        let data: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; MIN_LANE_LEN + 200]).collect();
        let tree = MerkleTree::build(&data);
        let other = MerkleTree::build(&leaves(6));
        let w = tree.witnesses();
        let mut forged = data[4].clone();
        forged[150] ^= 1;
        let mut long = w[6].clone();
        long.path.push(Hash256::default());
        let mut short = w[7].clone();
        short.path.pop();
        let other_w = other.witness(2);
        // Each item with its verdict under `tree`'s root.
        let cases: Vec<(usize, Vec<u8>, &Witness, bool)> = vec![
            (0, data[0].clone(), &w[0], true),
            (1, data[1].clone(), &w[1], true),
            (4, forged, &w[4], false),
            (2, data[3].clone(), &w[3], false),
            (3, data[3].clone(), &w[2], false),
            (2, leaves(6)[2].clone(), &other_w, false),
            (6, data[6].clone(), &long, false),
            (7, data[7].clone(), &short, false),
            (11, data[10].clone(), &w[10], false),
            (5, b"short leaf".to_vec(), &w[5], false),
            (8, data[8].clone(), &w[8], true),
            (9, data[9][..MIN_LANE_LEN].to_vec(), &w[9], false),
            (10, data[10].clone(), &w[10], true),
            (5, data[5].clone(), &w[5], true),
        ];
        let (items, expect): (Vec<_>, Vec<bool>) = cases
            .into_iter()
            .map(|(i, leaf, w, ok)| ((i, leaf, w), ok))
            .unzip();
        for root in [tree.root(), other.root(), Hash256::default()] {
            let each = MerkleTree::verify_each(root, &items);
            let single: Vec<bool> = items
                .iter()
                .map(|(i, leaf, w)| MerkleTree::verify(root, *i, leaf, w))
                .collect();
            assert_eq!(each, single);
        }
        assert_eq!(MerkleTree::verify_each(tree.root(), &items), expect);
        assert!(MerkleTree::verify_each(other.root(), &items)[5]);
        assert!(MerkleTree::verify_each::<&[u8]>(tree.root(), &[]).is_empty());
    }

    #[test]
    fn witness_codec_round_trip() {
        let tree = MerkleTree::build(&leaves(9));
        let w = tree.witness(5);
        let bytes = ca_codec::Encode::encode_to_vec(&w);
        let back = <Witness as ca_codec::Decode>::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn witness_size_is_logarithmic() {
        use ca_codec::Encode;
        let t16 = MerkleTree::build(&leaves(16));
        let t256 = MerkleTree::build(&leaves(256));
        let s16 = t16.witness(0).encode_to_vec().len();
        let s256 = t256.witness(0).encode_to_vec().len();
        // 4 extra levels of 32-byte hashes.
        assert_eq!(s256 - s16, 4 * 32 + 1); // +1 varint growth for leaf_count
    }

    #[test]
    fn witness_len_matches_every_encoded_witness() {
        use ca_codec::Encode;
        for count in 1..=70u32 {
            let tree = MerkleTree::build(&leaves(count as usize));
            for j in 0..count as usize {
                let len = tree.witness(j).encode_to_vec().len();
                assert_eq!(len, tree.witness(j).encoded_len(), "{count} leaves, #{j}");
                assert_eq!(MerkleTree::witness_len(count), len, "{count} leaves, #{j}");
            }
        }
    }

    proptest! {
        /// `verify_each` over random mixes of good and bad copies, of
        /// several lengths, is `verify` item by item.
        #[test]
        fn prop_verify_each_is_verify(
            data in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), MIN_LANE_LEN - 1..MIN_LANE_LEN + 2),
                1..40,
            ),
            picks in proptest::collection::vec(any::<usize>(), 0..40),
        ) {
            let tree = MerkleTree::build(&data);
            let witnesses = tree.witnesses();
            let items: Vec<(usize, Vec<u8>, &Witness)> = picks
                .iter()
                .map(|&pick| {
                    let i = pick / 4 % data.len();
                    let mut leaf = data[i].clone();
                    let at = pick % leaf.len();
                    let index = match pick % 4 {
                        0 => i,
                        1 => { leaf[at] ^= 1; i }
                        2 => i + 1,
                        _ => { leaf.truncate(at); i }
                    };
                    (index, leaf, &witnesses[i])
                })
                .collect();
            let single: Vec<bool> = items
                .iter()
                .map(|(i, leaf, w)| MerkleTree::verify(tree.root(), *i, leaf, w))
                .collect();
            prop_assert_eq!(MerkleTree::verify_each(tree.root(), &items), single);
        }

        /// Pins `build` directly: over random leaf counts (padding
        /// included) and lengths, every witness opens its own position and
        /// nothing else.
        #[test]
        fn prop_build_verify(
            data in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..98), 1..71),
            extra in proptest::collection::vec(any::<u8>(), 1..98),
            flip in any::<usize>(),
        ) {
            let tree = MerkleTree::build(&data);
            let mut longer = data.clone();
            longer.push(extra);
            let longer = MerkleTree::build(&longer);
            for (i, leaf) in data.iter().enumerate() {
                let w = tree.witness(i);
                prop_assert!(MerkleTree::verify(tree.root(), i, leaf, &w));
                prop_assert!(!MerkleTree::verify(tree.root(), i + 1, leaf, &w));
                prop_assert!(i == 0 || !MerkleTree::verify(tree.root(), i - 1, leaf, &w));
                let mut bad = leaf.clone();
                bad[flip % leaf.len()] ^= 1 << (flip % 8);
                prop_assert!(!MerkleTree::verify(tree.root(), i, &bad, &w));
                prop_assert!(!MerkleTree::verify(tree.root(), i, leaf, &longer.witness(i)));
            }
        }
    }
}
