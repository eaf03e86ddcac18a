//! Criterion: the cache host's rescore/evict cost in isolation, on the op
//! mix the priority host actually issues — mostly rescores of resident
//! objects, with an evict-min and a fresh insert into the freed slot every
//! few accesses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use policysmith_cachesim::rank::HeapRank;

const RESIDENTS: u64 = 2_048;
const OPS: usize = 50_000;

/// Deterministic (slot, score) op stream: multiplicative-hash slots over
/// the resident set, varied scores.
fn op_stream() -> Vec<(u32, i64)> {
    (0..OPS)
        .map(|i| {
            let slot = ((i as u64).wrapping_mul(2654435761) % RESIDENTS) as u32;
            let score = ((i as i64).wrapping_mul(6364136223846793005) >> 13) % 100_000;
            (slot, score)
        })
        .collect()
}

/// Replay the host's op mix: rescore; every 8th op also evict the minimum
/// and insert a fresh object into its slot — the miss path. Object `id`
/// lives in slot `id % RESIDENTS`, and `ids` tracks each slot's occupant.
fn drive(mut rank: HeapRank, ops: &[(u32, i64)]) -> usize {
    let mut ids: Vec<u64> = (0..RESIDENTS).collect();
    for (slot, &id) in ids.iter().enumerate() {
        rank.set(slot as u32, id, id as i64);
    }
    let mut next_id = RESIDENTS;
    for (i, &(slot, score)) in ops.iter().enumerate() {
        rank.set(slot, ids[slot as usize], score);
        if i % 8 == 7 {
            let (_, victim) = rank.peek_min().expect("non-empty");
            let freed = (victim % RESIDENTS) as u32;
            rank.remove(freed);
            ids[freed as usize] = next_id;
            rank.set(freed, next_id, score ^ 0x5555);
            next_id += 1;
        }
    }
    rank.len()
}

fn bench_rank(c: &mut Criterion) {
    let ops = op_stream();
    let mut g = c.benchmark_group("rank");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_with_input(BenchmarkId::new("host-ops", "heap"), &ops, |b, ops| {
        b.iter(|| drive(HeapRank::new(), ops));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rank
}
criterion_main!(benches);
