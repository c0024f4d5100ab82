//! Wall-clock regression pin for the copartitioned-join ablation:
//! reusing a co-partitioning MUST beat reshuffling both sides. An earlier
//! implementation inverted this on the host by cloning both full
//! partitions and building the hash table over the *big* side;
//! `join_copartitioned` now builds over the smaller side by reference.
//! The simulated-time and bytes-moved directions are asserted where they
//! are measured, in `psgraph_bench::ablations` (`repro -- ablations`).

use psgraph_dataflow::{Cluster, Rdd};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scenario(cluster: &Arc<Cluster>) -> (Rdd<(u64, u64)>, Vec<(u64, u64)>, usize) {
    let big: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i % 10_000, i)).collect();
    let small: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 17 % 10_000, i)).collect();
    let parts = cluster.default_partitions();
    let big_rdd = Rdd::from_vec(cluster, big, parts).unwrap();
    (big_rdd, small, parts)
}

#[test]
fn copartitioned_join_is_not_slower_on_the_host() {
    // The original inversion was wall-clock: 2.5 ms copartitioned vs
    // 1.3 ms reshuffled, from full-partition clones + hashing the 50k-row
    // side. Pin the ordering on medians with a warmup round.
    let cluster = Cluster::local();
    let (big_rdd, small, parts) = scenario(&cluster);
    let big_parted = big_rdd.partition_by_key(parts).unwrap();

    let median = |mut xs: Vec<Duration>| {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let time = |f: &dyn Fn() -> usize| {
        f(); // warmup
        median(
            (0..9)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(f());
                    t.elapsed()
                })
                .collect(),
        )
    };

    let reshuffle = time(&|| {
        let s = Rdd::from_vec(&cluster, small.clone(), parts).unwrap();
        s.join(&big_rdd, parts).unwrap().count().unwrap()
    });
    let copart = time(&|| {
        let s = Rdd::from_vec(&cluster, small.clone(), parts).unwrap();
        let sp = s.partition_by_key(parts).unwrap();
        big_parted.join_copartitioned(&sp).unwrap().count().unwrap()
    });

    assert!(
        copart < reshuffle,
        "copartitioned join regressed on wall clock: {copart:?} vs reshuffle {reshuffle:?}"
    );
}
