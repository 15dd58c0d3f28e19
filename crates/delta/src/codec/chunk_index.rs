//! Reusable rolling-hash index over a reference block.
//!
//! The chunk codec matches target spans against a reference by hashing every
//! [`WINDOW`]-byte window of the reference at stride [`STRIDE`] and probing
//! target windows against that index. Building the index costs ~1000 hash
//! insertions per 4 KB block — far more than a typical probe pass — and in
//! I-CASH one *reference* block serves many associate writes, so the index
//! is worth keeping around. [`ChunkIndex`] is that reusable artifact.
//!
//! Two properties matter for callers:
//!
//! * **Bit-compatibility.** [`ChunkIndex`] stores, per distinct window hash,
//!   the first [`MAX_CANDIDATES`] positions in ascending order — exactly the
//!   candidates the original `HashMap<u64, Vec<usize>>` encoder inspected
//!   (it capped probing with `take(8)`). Encoding through a cached index is
//!   therefore byte-identical to the historical single-shot encoder; a
//!   golden-vector test pins this.
//! * **Cheap storage.** The index is two flat arrays (an open-addressing
//!   slot table of `u32` entry ids and a dense entry pool), not a
//!   HashMap-of-Vecs: one allocation-ish, cache-friendly, and `Clone` is a
//!   pair of memcpys.
//!
//! ## Rolling-hash window math
//!
//! The window hash is the polynomial `h(w) = Σ w[j]·P^(W-1-j) (mod 2^64)`
//! with `P = 1_000_003` and `W = 16`, evaluated by Horner's rule. Sliding
//! the window one byte right — dropping `b_out`, admitting `b_in` —
//! satisfies
//!
//! ```text
//! h' = (h − b_out·P^(W−1)) · P + b_in      (all ops mod 2^64)
//! ```
//!
//! Wrapping `u64` arithmetic *is* arithmetic mod 2^64, so the rolled value
//! equals direct recomputation exactly and costs 2 multiplies instead of
//! `W` per position. [`build`](ChunkIndex::build) rolls across the
//! reference once (O(n)) where the seed encoder recomputed every stride
//! position from scratch (O(n·W/S)); the target-side scan in
//! `chunk::encode_with_index` rolls the same way.

use crate::codec::scan::common_prefix_len;

/// Rolling-hash window width. Matches shorter than this are invisible.
pub const WINDOW: usize = 16;

/// Reference positions are indexed at this stride (denser = better matches,
/// bigger index).
pub const STRIDE: usize = 4;

/// Maximum candidate positions retained per window hash; mirrors the
/// original encoder's bounded probe (`take(8)`) so lookups stay O(1) and
/// encodings stay byte-identical.
pub const MAX_CANDIDATES: usize = 8;

/// Polynomial base of the window hash.
const P: u64 = 1_000_003;

/// `P^(WINDOW-1) mod 2^64`, the weight of the outgoing byte when rolling.
const P_POW_W1: u64 = pow_p(WINDOW - 1);

const fn pow_p(mut e: usize) -> u64 {
    let mut acc = 1u64;
    while e > 0 {
        acc = acc.wrapping_mul(P);
        e -= 1;
    }
    acc
}

/// Hash of one full window, by Horner's rule.
#[inline]
pub(crate) fn window_hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(P).wrapping_add(b as u64))
}

/// Rolls `h` (hash of a window starting at some position `i`) one byte to
/// the right: `out` is the byte leaving at `i`, `inn` the byte entering at
/// `i + WINDOW`.
#[inline]
pub(crate) fn roll(h: u64, out: u8, inn: u8) -> u64 {
    h.wrapping_sub((out as u64).wrapping_mul(P_POW_W1))
        .wrapping_mul(P)
        .wrapping_add(inn as u64)
}

/// Sentinel for an empty slot in the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// One distinct window hash and the reference positions bearing it.
#[derive(Debug, Clone)]
struct Entry {
    hash: u64,
    /// Occupied prefix of `positions`.
    len: u8,
    /// First [`MAX_CANDIDATES`] positions with this hash, ascending.
    positions: [u32; MAX_CANDIDATES],
}

/// A reusable window-hash index over one reference block.
///
/// Build once with [`ChunkIndex::build`], probe many times via
/// `chunk::encode_with_index`. See the module docs for the compatibility
/// contract.
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    /// Open-addressing slot table mapping hashes to `entries` ids.
    table: Vec<u32>,
    /// Power-of-two table mask.
    mask: usize,
    /// Dense pool of distinct-hash entries.
    entries: Vec<Entry>,
    /// Length of the indexed reference, for cache-coherence checks.
    ref_len: usize,
    /// `Some(b)` when the reference is at least [`WINDOW`] bytes of the
    /// single repeated byte `b` (the all-zero pseudo-reference, a zeroed
    /// SSD slot): its index then holds one distinct window, and
    /// `chunk::encode_with_index` matches runs of `b` without hashing.
    uniform: Option<u8>,
}

impl ChunkIndex {
    /// Indexes every stride-aligned window of `reference`.
    pub fn build(reference: &[u8]) -> Self {
        let windows = if reference.len() >= WINDOW {
            (reference.len() - WINDOW) / STRIDE + 1
        } else {
            0
        };
        // ≤ 50% load factor: `windows` distinct hashes at most.
        let capacity = (windows * 2).next_power_of_two().max(16);
        let mut index = ChunkIndex {
            table: vec![EMPTY; capacity],
            mask: capacity - 1,
            entries: Vec::with_capacity(windows.min(1024)),
            ref_len: reference.len(),
            uniform: None,
        };
        if reference.len() >= WINDOW {
            let mut h = window_hash(&reference[..WINDOW]);
            let mut pos = 0usize;
            loop {
                if pos.is_multiple_of(STRIDE) {
                    index.insert(h, pos as u32);
                }
                if pos + WINDOW >= reference.len() {
                    break;
                }
                h = roll(h, reference[pos], reference[pos + WINDOW]);
                pos += 1;
            }
            index.uniform = Some(reference[0]).filter(|&b| reference.iter().all(|&x| x == b));
        }
        index
    }

    /// The repeated byte, if the indexed reference is at least [`WINDOW`]
    /// bytes of one value.
    #[inline]
    pub(crate) fn uniform_byte(&self) -> Option<u8> {
        self.uniform
    }

    /// Length of the reference this index was built over.
    #[inline]
    pub fn ref_len(&self) -> usize {
        self.ref_len
    }

    /// Approximate heap footprint in bytes (table + entry pool), for cache
    /// accounting.
    pub fn heap_size(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        // Fibonacci multiplier scrambles the polynomial hash's low bits.
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    fn insert(&mut self, hash: u64, pos: u32) {
        let mut slot = self.slot_of(hash);
        loop {
            match self.table[slot] {
                EMPTY => {
                    self.table[slot] = self.entries.len() as u32;
                    let mut positions = [0u32; MAX_CANDIDATES];
                    positions[0] = pos;
                    self.entries.push(Entry {
                        hash,
                        len: 1,
                        positions,
                    });
                    return;
                }
                id => {
                    let entry = &mut self.entries[id as usize];
                    if entry.hash == hash {
                        // Keep only the first MAX_CANDIDATES positions, in
                        // insertion (= ascending) order: the compatibility
                        // contract with the historical bounded probe.
                        if (entry.len as usize) < MAX_CANDIDATES {
                            entry.positions[entry.len as usize] = pos;
                            entry.len += 1;
                        }
                        return;
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Reference positions whose window hashes to `hash` (ascending, at most
    /// [`MAX_CANDIDATES`]).
    #[inline]
    pub fn candidates(&self, hash: u64) -> &[u32] {
        let mut slot = self.slot_of(hash);
        loop {
            match self.table[slot] {
                EMPTY => return &[],
                id => {
                    let entry = &self.entries[id as usize];
                    if entry.hash == hash {
                        return &entry.positions[..entry.len as usize];
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Best verified match for the window starting at `target[i]` whose hash
    /// is `h`: checks each candidate, extends verified windows forward
    /// word-at-a-time, and returns `(ref_offset, len)` of the longest
    /// (earliest candidate wins ties, as the seed encoder did).
    #[inline]
    pub(crate) fn best_match(
        &self,
        reference: &[u8],
        target: &[u8],
        i: usize,
        h: u64,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for &cand in self.candidates(h) {
            let cand = cand as usize;
            if reference[cand..cand + WINDOW] != target[i..i + WINDOW] {
                continue; // hash collision
            }
            let len =
                WINDOW + common_prefix_len(&reference[cand + WINDOW..], &target[i + WINDOW..]);
            if best.is_none_or(|(_, bl)| len > bl) {
                best = Some((cand, len));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolled_hash_equals_recomputed() {
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(97) % 256) as u8)
            .collect();
        let mut h = window_hash(&data[..WINDOW]);
        for pos in 0..data.len() - WINDOW {
            assert_eq!(h, window_hash(&data[pos..pos + WINDOW]), "at {pos}");
            h = roll(h, data[pos], data[pos + WINDOW]);
        }
    }

    #[test]
    fn index_matches_naive_candidates() {
        use std::collections::HashMap;
        let reference: Vec<u8> = (0..4096).map(|i| ((i * 31 + i / 7) % 256) as u8).collect();
        let mut naive: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut pos = 0;
        while pos + WINDOW <= reference.len() {
            naive
                .entry(window_hash(&reference[pos..pos + WINDOW]))
                .or_default()
                .push(pos);
            pos += STRIDE;
        }
        let index = ChunkIndex::build(&reference);
        for (hash, positions) in &naive {
            let got: Vec<usize> = index
                .candidates(*hash)
                .iter()
                .map(|&p| p as usize)
                .collect();
            let want: Vec<usize> = positions.iter().take(MAX_CANDIDATES).copied().collect();
            assert_eq!(got, want, "candidates for hash {hash:#x}");
        }
        // And no phantom entries: an absent hash yields no candidates.
        let mut absent = 0u64;
        while naive.contains_key(&absent) {
            absent += 1;
        }
        assert!(index.candidates(absent).is_empty());
    }

    #[test]
    fn short_reference_builds_empty_index() {
        let index = ChunkIndex::build(&[1, 2, 3]);
        assert_eq!(index.ref_len(), 3);
        assert!(index.candidates(window_hash(&[0u8; WINDOW])).is_empty());
        assert_eq!(index.uniform_byte(), None, "too short to hold a window");
    }

    #[test]
    fn uniform_references_are_recognised() {
        assert_eq!(ChunkIndex::build(&[0u8; 4096]).uniform_byte(), Some(0));
        assert_eq!(ChunkIndex::build(&[9u8; WINDOW]).uniform_byte(), Some(9));
        let mut almost = vec![0u8; 4096];
        almost[4095] = 1;
        assert_eq!(ChunkIndex::build(&almost).uniform_byte(), None);
    }

    #[test]
    fn repeated_content_caps_candidates() {
        // An all-equal block has one distinct window hash with ~1000
        // positions; only the first MAX_CANDIDATES survive, ascending.
        let reference = vec![7u8; 4096];
        let index = ChunkIndex::build(&reference);
        let h = window_hash(&reference[..WINDOW]);
        let cands = index.candidates(h);
        assert_eq!(cands.len(), MAX_CANDIDATES);
        let want: Vec<u32> = (0..MAX_CANDIDATES as u32)
            .map(|i| i * STRIDE as u32)
            .collect();
        assert_eq!(cands, want.as_slice());
    }
}
