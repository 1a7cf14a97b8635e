//! Criterion benches for the streaming fold's per-row kernels: the
//! SpaceSaving offer every free download row pays, and the decode of
//! one full download chunk from a spill file.

use appstore_core::spill::{decode_chunk, encode_chunk};
use appstore_stats::SpaceSaving;
use appstore_synth::stream::{EVENT_CHUNK_ROWS, KIND_DOWNLOAD};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Tracked keys, as in the streaming fold's top-app summary.
const CAPACITY: usize = 64;

/// Distinct app ids in the key stream.
const APPS: usize = 20_000;

/// `n` app ids drawn from a Zipf(1.0) law over [`APPS`] ranks, with
/// ranks scattered over the id space as in a generated store.
fn zipf_apps(n: usize, seed: u64) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(APPS);
    let mut sum = 0.0f64;
    for rank in 1..=APPS {
        sum += 1.0 / rank as f64;
        cdf.push(sum);
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * sum;
            let rank = cdf.partition_point(|&c| c < u).min(APPS - 1) as u64;
            rank.wrapping_mul(7_919) % APPS as u64
        })
        .collect()
}

/// SpaceSaving at the fold's capacity over 100k Zipf keys: mostly
/// misses, as in the real download stream.
fn bench_space_saving_offer(c: &mut Criterion) {
    let keys = zipf_apps(100_000, 3);
    let mut group = c.benchmark_group("streaming/space_saving_offer");
    group.bench_function("capacity_64_zipf_100k", |b| {
        b.iter(|| {
            let mut summary = SpaceSaving::new(CAPACITY);
            for &key in &keys {
                summary.offer(black_box(key), 1);
            }
            summary.min_count()
        })
    });
    group.finish();
}

/// One full download chunk (user, app, day columns) decoded from its
/// armoured payload.
fn bench_decode_chunk(c: &mut Criterion) {
    let apps = zipf_apps(EVENT_CHUNK_ROWS, 4);
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    let mut user = 0u64;
    let users: Vec<u64> = (0..EVENT_CHUNK_ROWS)
        .map(|_| {
            user += rng.gen_range(0..3u64);
            user
        })
        .collect();
    let days: Vec<u64> = (0..EVENT_CHUNK_ROWS)
        .map(|_| rng.gen_range(0..62u64))
        .collect();
    let payload = encode_chunk(KIND_DOWNLOAD, &[&users, &apps, &days]);
    let mut group = c.benchmark_group("streaming/decode_chunk");
    group.bench_function("download_8192_rows", |b| {
        b.iter(|| decode_chunk(black_box(&payload)).expect("valid chunk"))
    });
    group.finish();
}

criterion_group!(benches, bench_space_saving_offer, bench_decode_chunk);
criterion_main!(benches);
