//! Delta-codec throughput: the computation I-CASH trades for I/O.
//!
//! The paper reports ~15 µs to derive a delta and ~10 µs to combine one on
//! a 1.8 GHz Xeon; these benches measure our codec on the same 4 KB blocks
//! across the content regimes the evaluation generates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use icash_delta::codec::{sparse, ChunkIndex, DeltaCodec};
use icash_delta::signature::BlockSignature;
use icash_storage::block::BlockBuf;
use std::hint::black_box;

fn patterned(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
}

fn similar_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let mut b = a.clone();
    // The paper's typical write: ~8 % of the block in a few clusters.
    for cluster in 0..4usize {
        let base = cluster * 1000 + 50;
        for i in 0..80 {
            b[base + i] = b[base + i].wrapping_add(31);
        }
    }
    (a, b)
}

fn unrelated_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let b: Vec<u8> = (0..4096).map(|i| ((i * 7919 + 13) % 251) as u8).collect();
    (a, b)
}

fn shifted_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let mut b = vec![0xEEu8; 24];
    b.extend_from_slice(&a[..4072]);
    (a, b)
}

/// Xorshift noise: content that shares nothing with any reference.
fn unique(n: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect()
}

/// The reference with ~40 % of its bytes rewritten, scattered in short
/// spans, so the sparse encoding exceeds 512 bytes and the chunk scan runs.
fn dense_in_place_pair() -> (Vec<u8>, Vec<u8>) {
    let a = patterned(4096);
    let mut b = a.clone();
    let noise = unique(4096);
    for start in (0..4096).step_by(20) {
        for i in start..(start + 8).min(4096) {
            b[i] = b[i].wrapping_add(noise[i] | 1);
        }
    }
    (a, b)
}

/// The reference rotated by `shift` bytes: forces the chunk (COPY) path, so
/// every encode pays for reference-index candidate lookups.
fn rotated(a: &[u8], shift: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(a.len());
    v.extend_from_slice(&a[shift..]);
    v.extend_from_slice(&a[..shift]);
    v
}

fn bench_codec(c: &mut Criterion) {
    let codec = DeltaCodec::default();
    let mut group = c.benchmark_group("delta_codec");

    for (name, make) in [
        ("similar", similar_pair as fn() -> (Vec<u8>, Vec<u8>)),
        ("unrelated", unrelated_pair),
        ("shifted", shifted_pair),
    ] {
        let (a, b) = make();
        group.bench_function(format!("encode_{name}"), |bench| {
            bench.iter(|| codec.encode(black_box(&a), black_box(&b)))
        });
        let delta = codec.encode(&a, &b);
        group.bench_function(format!("decode_{name}"), |bench| {
            bench.iter(|| codec.decode(black_box(&a), black_box(&delta)).unwrap())
        });
    }

    group.bench_function("signature_4k", |bench| {
        let (a, _) = similar_pair();
        bench.iter(|| BlockSignature::of(black_box(&a)))
    });

    group.bench_function("digest_4k", |bench| {
        let buf = BlockBuf::from_vec(patterned(4096));
        bench.iter(|| black_box(&buf).digest())
    });

    // The controller's hot case: one SSD-pinned reference serves encode
    // after encode (its own re-writes plus every bound associate). Uncached
    // rebuilds the chunk index per call — what the seed codec did
    // implicitly; cached reuses one index across the whole run, which is
    // what `Icash` now does per slot via its `RefIndexCache`.
    let reference = patterned(4096);
    let targets: Vec<Vec<u8>> = (0..32).map(|i| rotated(&reference, 64 + i * 96)).collect();

    group.bench_function("repeated_reference_encode_uncached", |bench| {
        let mut i = 0usize;
        bench.iter(|| {
            let d = codec.encode(
                black_box(&reference),
                black_box(&targets[i % targets.len()]),
            );
            i += 1;
            d
        })
    });

    group.bench_function("repeated_reference_encode_cached", |bench| {
        let mut index: Option<ChunkIndex> = None;
        let mut i = 0usize;
        bench.iter(|| {
            let d = codec.encode_cached(
                black_box(&reference),
                black_box(&targets[i % targets.len()]),
                &mut index,
            );
            i += 1;
            d
        })
    });

    // The two write-path encodes the controller runs most, each through a
    // warm cached index as `Icash` holds it. An independent write encodes
    // unique content against the all-zero pseudo-reference (the
    // pressure-hdd write); an in-place rewrite with dense scattered changes
    // is too big for the sparse codec alone (the SPECsfs write).
    for (name, (a, b)) in [
        ("zero_reference_unique", (vec![0u8; 4096], unique(4096))),
        ("dense_in_place", dense_in_place_pair()),
    ] {
        assert!(
            sparse::encode(&a, &b).len() > 512,
            "{name}: the sparse encoding alone must not be good enough"
        );
        let mut index = Some(ChunkIndex::build(&a));
        group.bench_function(format!("encode_{name}"), |bench| {
            bench.iter(|| codec.encode_cached(black_box(&a), black_box(&b), &mut index))
        });
    }

    group.bench_function("encode_roundtrip_batch64", |bench| {
        // A flush-sized batch: 64 similar blocks encoded back to back.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..64).map(|_| similar_pair()).collect();
        bench.iter_batched(
            || pairs.clone(),
            |pairs| {
                for (a, b) in &pairs {
                    black_box(codec.encode(a, b));
                }
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
