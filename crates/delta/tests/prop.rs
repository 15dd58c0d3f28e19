//! Property-based tests for the delta machinery: whatever the content, the
//! codec must reconstruct targets exactly, signatures must respond to
//! mutations locally, and varints must roundtrip.

use icash_delta::codec::{chunk, sparse, ChunkIndex, DeltaCodec};
use icash_delta::signature::{BlockSignature, SUB_BLOCK_SIZE};
use icash_delta::varint;
use proptest::prelude::*;

/// A 4096-byte block built from a compact description (keeps shrinking fast).
fn block_strategy() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), 0u8..4).prop_map(|(seed, kind)| {
        let mut state = seed | 1;
        (0..4096usize)
            .map(|i| match kind {
                0 => 0u8,                    // constant
                1 => (i % 256) as u8,        // ramp
                2 => ((i / 64) % 256) as u8, // plateaus
                _ => {
                    // xorshift noise
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 0xff) as u8
                }
            })
            .collect()
    })
}

/// The rolling-hash chunk encoder as it stood before uniform references got
/// a run-scan path: the differential oracle for `chunk::encode_with_index`.
/// Its index is a plain `HashMap` of the first [`MAX_CANDIDATES`]
/// stride-aligned positions per window hash, so it shares no code with
/// `ChunkIndex` beyond the wire format.
mod oracle {
    use icash_delta::varint;
    use std::collections::HashMap;

    const WINDOW: usize = 16;
    const STRIDE: usize = 4;
    const MAX_CANDIDATES: usize = 8;
    const MIN_MATCH: usize = 24;
    const P: u64 = 1_000_003;

    fn window_hash(w: &[u8]) -> u64 {
        w.iter()
            .fold(0u64, |h, &b| h.wrapping_mul(P).wrapping_add(b as u64))
    }

    fn roll(h: u64, out: u8, inn: u8) -> u64 {
        let p_pow_w1 = (1..WINDOW).fold(1u64, |acc, _| acc.wrapping_mul(P));
        h.wrapping_sub((out as u64).wrapping_mul(p_pow_w1))
            .wrapping_mul(P)
            .wrapping_add(inn as u64)
    }

    fn push_add(out: &mut Vec<u8>, bytes: &[u8]) {
        if !bytes.is_empty() {
            out.push(0x00);
            varint::encode(bytes.len() as u64, out);
            out.extend_from_slice(bytes);
        }
    }

    pub fn encode(reference: &[u8], target: &[u8]) -> Vec<u8> {
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut pos = 0;
        while pos + WINDOW <= reference.len() {
            let cands = index
                .entry(window_hash(&reference[pos..pos + WINDOW]))
                .or_default();
            if cands.len() < MAX_CANDIDATES {
                cands.push(pos);
            }
            pos += STRIDE;
        }
        let mut out = Vec::new();
        let mut pending_add_start = 0usize;
        let n = target.len();
        if n >= WINDOW {
            let mut i = 0usize;
            let mut h = window_hash(&target[..WINDOW]);
            loop {
                let mut best: Option<(usize, usize)> = None;
                for &cand in index.get(&h).into_iter().flatten() {
                    if reference[cand..cand + WINDOW] != target[i..i + WINDOW] {
                        continue;
                    }
                    let len = WINDOW
                        + reference[cand + WINDOW..]
                            .iter()
                            .zip(&target[i + WINDOW..])
                            .take_while(|(a, b)| a == b)
                            .count();
                    if best.is_none_or(|(_, bl)| len > bl) {
                        best = Some((cand, len));
                    }
                }
                match best {
                    Some((off, len)) if len >= MIN_MATCH => {
                        push_add(&mut out, &target[pending_add_start..i]);
                        out.push(0x01);
                        varint::encode(off as u64, &mut out);
                        varint::encode(len as u64, &mut out);
                        i += len;
                        pending_add_start = i;
                        if i + WINDOW > n {
                            break;
                        }
                        h = window_hash(&target[i..i + WINDOW]);
                    }
                    _ => {
                        if i + 1 + WINDOW > n {
                            break;
                        }
                        h = roll(h, target[i], target[i + WINDOW]);
                        i += 1;
                    }
                }
            }
        }
        push_add(&mut out, &target[pending_add_start..]);
        out
    }
}

/// Run lengths around the codec's edges: one short of and at the window
/// (16), one short of, at and one past the minimum COPY (24).
const EDGE_RUNS: [usize; 5] = [15, 16, 23, 24, 25];

/// A reference of `len` bytes: all zero (kind 0), one repeated non-zero
/// byte (kind 1), or xorshift noise around a run of `fill` (kind 2).
fn reference_of(kind: u8, len: usize, fill: u8, seed: u64) -> Vec<u8> {
    match kind {
        0 => vec![0; len],
        1 => vec![fill.max(1); len],
        _ => {
            let mut v = noise(seed, len);
            let run = (len / 3)..(len / 2);
            v[run].fill(fill);
            v
        }
    }
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect()
}

/// A target assembled from segments, capped at 5000 bytes. Each segment is
/// a run of `byte` (an edge length, a long run, or one longer than the
/// reference), noise, a shifted slice of the reference, or one byte that
/// breaks a run.
fn target_of(reference: &[u8], byte: u8, segments: &[(u8, usize, u16)]) -> Vec<u8> {
    let mut t = Vec::new();
    for &(kind, n, x) in segments {
        let x = x as usize;
        match kind {
            0 => {
                let len = match x % 7 {
                    k @ 0..=4 => EDGE_RUNS[k],
                    5 => 8 * n + x % 8,
                    _ => reference.len() + 1 + n,
                };
                t.resize(t.len() + len, byte);
            }
            1 => t.extend(noise(x as u64, n + 1)),
            2 if !reference.is_empty() => {
                let start = x % reference.len();
                let end = (start + 8 * n + 1).min(reference.len());
                t.extend_from_slice(&reference[start..end]);
            }
            _ => t.push(byte ^ (1 + (x % 255) as u8)),
        }
    }
    t.truncate(5000);
    t
}

/// A mutation plan: positions and replacement bytes applied to a base block.
fn mutations() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..4096, any::<u8>()), 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full codec reconstructs any mutated target exactly.
    #[test]
    fn codec_roundtrip_mutations(base in block_strategy(), muts in mutations()) {
        let mut target = base.clone();
        for (pos, byte) in muts {
            target[pos] = byte;
        }
        let codec = DeltaCodec::default();
        let delta = codec.encode(&base, &target);
        prop_assert_eq!(codec.decode(&base, &delta).unwrap(), target);
    }

    /// The codec reconstructs even unrelated reference/target pairs.
    #[test]
    fn codec_roundtrip_unrelated(a in block_strategy(), b in block_strategy()) {
        let codec = DeltaCodec::default();
        let delta = codec.encode(&a, &b);
        prop_assert_eq!(codec.decode(&a, &delta).unwrap(), b);
        // A delta never costs more than a raw block (plus its tag byte).
        prop_assert!(delta.len() <= 4096);
    }

    /// Sparse codec: standalone roundtrip.
    #[test]
    fn sparse_roundtrip(a in block_strategy(), muts in mutations()) {
        let mut b = a.clone();
        for (pos, byte) in muts {
            b[pos] = byte;
        }
        let d = sparse::encode(&a, &b);
        prop_assert_eq!(sparse::decode(&a, &d).unwrap(), b);
    }

    /// Chunk codec: standalone roundtrip including shifts.
    #[test]
    fn chunk_roundtrip_with_shift(a in block_strategy(), shift in 0usize..128) {
        let mut b = vec![0x5Au8; shift];
        b.extend_from_slice(&a[..4096 - shift]);
        let d = chunk::encode(&a, &b);
        prop_assert_eq!(chunk::decode(&a, &d).unwrap(), b);
    }

    /// Fewer mutated bytes never produce a *larger* class of signature
    /// change: mutating k sub-blocks changes at most k sub-signatures.
    #[test]
    fn signature_changes_are_local(base in block_strategy(), muts in mutations()) {
        let mut target = base.clone();
        let mut touched = std::collections::HashSet::new();
        for (pos, byte) in muts {
            target[pos] = byte;
            touched.insert(pos / SUB_BLOCK_SIZE);
        }
        let d = BlockSignature::of(&base).distance(&BlockSignature::of(&target));
        prop_assert!(d <= touched.len(),
            "distance {} exceeds {} touched sub-blocks", d, touched.len());
    }

    /// Varint roundtrip over the full u64 range.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        let (back, used) = varint::decode(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
        prop_assert!(buf.len() <= 10);
    }

    /// Differential: a cached reference index yields byte-identical deltas
    /// to the uncached path — for mutated targets (sparse territory),
    /// through cold and warm indexes, and for shared-buffer raw fallbacks.
    #[test]
    fn cached_index_encodes_identically(base in block_strategy(),
                                        muts in mutations(),
                                        unrelated in block_strategy()) {
        let mut target = base.clone();
        for (pos, byte) in muts {
            target[pos] = byte;
        }
        let codec = DeltaCodec::default();
        let mut index = None;
        for t in [&target, &unrelated] {
            let uncached = codec.encode(&base, t);
            let cached = codec.encode_cached(&base, t, &mut index);
            prop_assert_eq!(&uncached, &cached);
            let shared = codec.encode_shared(
                &base, &bytes::Bytes::copy_from_slice(t), &mut index);
            prop_assert_eq!(&uncached, &shared);
        }
    }

    /// Differential: shifted targets (chunk territory) encode identically
    /// through a prebuilt index and a throwaway one.
    #[test]
    fn chunk_index_reuse_is_exact(a in block_strategy(), shift in 0usize..128) {
        let mut b = vec![0x5Au8; shift];
        b.extend_from_slice(&a[..4096 - shift]);
        let index = ChunkIndex::build(&a);
        prop_assert_eq!(
            chunk::encode_with_index(&index, &a, &b),
            chunk::encode(&a, &b)
        );
    }

    /// Differential: the chunk encoder equals the rolling-hash oracle for
    /// zero, repeated-byte and non-uniform references of 0–5000 bytes, on
    /// targets of edge-length runs, long runs, runs longer than the
    /// reference, noise and shifted reference content.
    #[test]
    fn chunk_encoder_matches_rolling_hash_oracle(
        ref_kind in 0u8..3,
        ref_len in 0usize..5001,
        fill in any::<u8>(),
        seed in any::<u64>(),
        segments in prop::collection::vec((0u8..4, 0usize..64, any::<u16>()), 0..24),
        end_run in 0usize..6,
    ) {
        let reference = reference_of(ref_kind, ref_len, fill, seed);
        let byte = reference.first().copied().unwrap_or(0);
        let mut target = target_of(&reference, byte, &segments);
        // Half the cases end on a run that reaches the end of the block.
        if let Some(&len) = EDGE_RUNS.get(end_run) {
            target.truncate(5000 - len);
            target.resize(target.len() + len, byte);
        }
        let index = ChunkIndex::build(&reference);
        let got = chunk::encode_with_index(&index, &reference, &target);
        prop_assert_eq!(&got, &oracle::encode(&reference, &target));
        prop_assert_eq!(chunk::decode(&reference, &got).unwrap(), target);
    }

    /// Decoding arbitrary garbage never panics (it may error).
    #[test]
    fn decode_never_panics_on_garbage(reference in block_strategy(),
                                      garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = sparse::decode(&reference, &garbage);
        let _ = chunk::decode(&reference, &garbage);
    }
}

/// The oracle grid, exhaustively: every edge-length run of the reference's
/// byte at every alignment within a word, alone, between noise and at the
/// end of the block, against references at and around the window and
/// COPY thresholds.
#[test]
fn chunk_encoder_matches_oracle_on_run_edges() {
    let ref_lens = [0, 15, 16, 23, 24, 25, 31, 4096, 4099];
    for kind in 0..3u8 {
        for ref_len in ref_lens {
            let reference = reference_of(kind, ref_len, 0xA7, 7);
            let byte = reference.first().copied().unwrap_or(0);
            let index = ChunkIndex::build(&reference);
            for run in EDGE_RUNS.iter().copied().chain([ref_len + 3]) {
                for lead in 0..9 {
                    for trail in [0, 1, 8, 40] {
                        let mut target = noise(lead as u64 + 1, lead);
                        target.resize(lead + run, byte);
                        target.extend(noise(99, trail));
                        let got = chunk::encode_with_index(&index, &reference, &target);
                        assert_eq!(
                            got,
                            oracle::encode(&reference, &target),
                            "kind {kind} ref_len {ref_len} run {run} lead {lead} trail {trail}"
                        );
                    }
                }
            }
        }
    }
}
