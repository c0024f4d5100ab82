//! Property/stress suite for the pool's one primitive, `map`: no index
//! is lost or run twice under any claim schedule, nested maps make
//! progress on any pool size, a saturated pool shuts down cleanly, a job
//! finishes on its caller alone when every worker is busy, and an item's
//! panic reaches the caller only after every claimed item has finished.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use psgraph_harness::prop::{check_with, Config};
use psgraph_harness::{prop_assert, prop_assert_eq, Pool};

/// Yield until `cond` holds; a schedule that never gets there fails the
/// test instead of hanging it.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

#[test]
fn counted_tokens_are_claimed_exactly_once() {
    check_with(
        "counted_tokens_are_claimed_exactly_once",
        &Config::with_cases(40),
        |src| {
            (
                src.usize_range(1, 8),     // threads
                src.usize_range(1, 300),   // tokens
                src.u64_range(0, 5),       // perturbation seed (0 = off)
            )
        },
        |&(threads, tokens, seed)| {
            let pool = Pool::with_perturb(threads, (seed != 0).then_some(seed));
            let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            pool.map((0..tokens).collect(), |t: usize| seen.lock().unwrap().push(t));
            let mut got = seen.into_inner().unwrap();
            got.sort_unstable();
            let want: Vec<usize> = (0..tokens).collect();
            prop_assert_eq!(got, want); // no loss, no duplication
            Ok(())
        },
    );
}

#[test]
fn nested_maps_fan_out_exactly_once() {
    check_with(
        "nested_maps_fan_out_exactly_once",
        &Config::with_cases(25),
        |src| {
            (
                src.usize_range(1, 6),   // threads
                src.usize_range(1, 12),  // outer items
                src.usize_range(1, 12),  // inner items per outer
            )
        },
        |&(threads, outer, inner)| {
            let pool = Pool::with_perturb(threads, Some(99));
            let hits = AtomicU64::new(0);
            pool.map((0..outer).collect(), |_: usize| {
                // A map issued from inside an item: must complete even on
                // a pool of 1 or 2 (the item's thread is the inner job's
                // caller and needs nobody else).
                pool.map((0..inner).collect(), |_: usize| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            prop_assert_eq!(hits.into_inner(), (outer * inner) as u64);
            Ok(())
        },
    );
}

/// Items that call `map` themselves, two and three levels deep: every
/// (path, index) leaf exactly once at every pool size and schedule.
#[test]
fn maps_inside_items_run_every_index_once_at_any_depth() {
    fn fan(pool: &Pool, depth: usize, width: usize, path: usize, seen: &Mutex<Vec<usize>>) {
        pool.map((0..width).collect(), |i: usize| {
            let path = path * width + i;
            if depth == 1 {
                seen.lock().unwrap().push(path);
            } else {
                fan(pool, depth - 1, width, path, seen);
            }
        });
    }
    for threads in [1, 2, 3, 4, 8] {
        for seed in 0..6u64 {
            for (depth, width) in [(2usize, 7usize), (3, 4)] {
                let pool = Pool::with_perturb(threads, (seed != 0).then_some(seed));
                let seen = Mutex::new(Vec::new());
                fan(&pool, depth, width, 0, &seen);
                let mut got = seen.into_inner().unwrap();
                got.sort_unstable();
                let want: Vec<usize> = (0..width.pow(depth as u32)).collect();
                assert_eq!(got, want, "{threads} threads, seed {seed}, depth {depth}");
            }
        }
    }
}

#[test]
fn saturated_pool_shuts_down_cleanly() {
    // Publish a job far wider than the pool, then drop the pool the
    // moment the map returns. Every item must have run and the drop must
    // not hang (joining stuck workers would).
    for round in 0..10u64 {
        let pool = Pool::with_perturb(4, Some(round));
        let count = AtomicU64::new(0);
        pool.map((0..2_000).collect(), |_: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2_000);
        drop(pool);
    }
}

#[test]
fn item_panic_propagates_without_deadlock() {
    let pool = Pool::with_perturb(3, None);
    let survivors = AtomicU64::new(0);
    let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        pool.map((0..50).collect(), |t: usize| {
            if t == 17 {
                panic!("item detonated");
            }
            survivors.fetch_add(1, Ordering::Relaxed);
        });
    }));
    let err = result.expect_err("the item's panic must reach the map caller");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("detonated"), "unexpected panic payload: {msg:?}");
    // Every other item still ran, and the pool is alive and usable.
    assert_eq!(survivors.load(Ordering::Relaxed), 49);
    let after: u64 = pool.map((0..32u64).collect::<Vec<_>>(), |x| x * 2).into_iter().sum();
    assert_eq!(after, 2 * (0..32u64).sum::<u64>());
}

/// What a panic test's closure owns: dropped when `map` returns or
/// unwinds, so an item still running afterwards sees `dropped` set.
struct Captured {
    dropped: Arc<AtomicBool>,
}

impl Drop for Captured {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

/// One item panics — on the caller's thread or on a helper's — while an
/// item on the *other* side is held mid-flight until the panic has been
/// thrown. `map` must re-raise only after that item finished too: no item
/// may ever observe the closure's captured state dropped.
fn panic_waits_for_claimed_items(panic_on_caller: bool) {
    let pool = Pool::with_perturb(3, None);
    let dropped = Arc::new(AtomicBool::new(false));
    let captured = Captured { dropped: Arc::clone(&dropped) };
    let caller = std::thread::current().id();
    let thrown = AtomicBool::new(false);
    let other_side_running = AtomicBool::new(false);
    let finished = AtomicUsize::new(0);
    let saw_dropped = AtomicBool::new(false);
    let items = 40usize;

    let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        // The closure owns `captured` and borrows the rest.
        let (thrown, other_side_running) = (&thrown, &other_side_running);
        let (finished, saw_dropped) = (&finished, &saw_dropped);
        pool.map((0..items).collect(), move |_: usize| {
            let on_caller = std::thread::current().id() == caller;
            if on_caller == panic_on_caller {
                // The panicking side: wait for the other side to be
                // mid-item, then throw (once).
                wait_until("the other side runs an item", || {
                    other_side_running.load(Ordering::SeqCst)
                });
                if !thrown.swap(true, Ordering::SeqCst) {
                    finished.fetch_add(1, Ordering::SeqCst);
                    panic!("claimed item detonated");
                }
            } else {
                // The other side: stay inside this item until the panic
                // is out, then linger so an early re-raise would show.
                other_side_running.store(true, Ordering::SeqCst);
                wait_until("the panic is thrown", || thrown.load(Ordering::SeqCst));
                for _ in 0..200 {
                    std::thread::yield_now();
                }
            }
            if captured.dropped.load(Ordering::SeqCst) {
                saw_dropped.store(true, Ordering::SeqCst);
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }));

    let err = result.expect_err("the panic must reach the map caller");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("detonated"), "unexpected panic payload: {msg:?}");
    // Read at once after the unwind: every item had already finished, and
    // the closure was dropped only then.
    assert_eq!(finished.load(Ordering::SeqCst), items);
    assert!(dropped.load(Ordering::SeqCst));
    assert!(!saw_dropped.load(Ordering::SeqCst), "an item outlived its map call");
    assert_eq!(pool.map(vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
}

#[test]
fn panic_on_the_callers_claim_waits_for_helpers_items() {
    panic_waits_for_claimed_items(true);
}

#[test]
fn panic_on_a_helpers_claim_waits_for_the_callers_items() {
    panic_waits_for_claimed_items(false);
}

#[test]
fn a_map_completes_on_its_caller_when_every_worker_is_held() {
    // Job A: three items on a pool of three, each held until released —
    // so A's caller and both workers are inside one. Job B, issued
    // meanwhile, has no helper to count on.
    let pool = Pool::with_perturb(3, None);
    let started = AtomicUsize::new(0);
    let release = AtomicBool::new(false);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            pool.map(vec![(); 3], |()| {
                started.fetch_add(1, Ordering::SeqCst);
                wait_until("job A is released", || release.load(Ordering::SeqCst));
            });
        });
        wait_until("all of job A's items run", || started.load(Ordering::SeqCst) == 3);
        let me = std::thread::current().id();
        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let out = pool.map((0..100u64).collect(), |x| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            x * x
        });
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(ran_on.into_inner().unwrap().iter().all(|&id| id == me));
        release.store(true, Ordering::SeqCst);
        a.join().expect("job A's caller");
    });
}

#[test]
fn caller_parks_until_a_slow_helper_finishes() {
    // The helper holds one item until the caller has run all the others
    // and then some — well past the caller's spin — so the join goes
    // through its park and the helper's unpark.
    let pool = Pool::with_perturb(2, None);
    let caller = std::thread::current().id();
    let items = 6u64;
    let helper_holds_one = AtomicBool::new(false);
    let finished = AtomicU64::new(0);
    for _ in 0..20 {
        helper_holds_one.store(false, Ordering::SeqCst);
        finished.store(0, Ordering::SeqCst);
        let out = pool.map((0..items).collect(), |x| {
            if std::thread::current().id() == caller {
                wait_until("the helper holds an item", || helper_holds_one.load(Ordering::SeqCst));
            } else if !helper_holds_one.swap(true, Ordering::SeqCst) {
                wait_until("the caller ran the rest", || {
                    finished.load(Ordering::SeqCst) == items - 1
                });
                std::thread::sleep(Duration::from_millis(2));
            }
            finished.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        assert_eq!(out, (0..items).map(|x| x * 10).collect::<Vec<_>>());
    }
}

#[test]
fn map_is_order_preserving_under_perturbation() {
    check_with(
        "map_is_order_preserving_under_perturbation",
        &Config::with_cases(30),
        |src| {
            (
                src.usize_range(1, 8),
                src.vec_with(0, 200, |s| s.u64_range(0, 1_000_000)),
                src.u64_range(1, u64::MAX),
            )
        },
        |(threads, items, seed)| {
            let pool = Pool::with_perturb(*threads, Some(*seed));
            let out = pool.map(items.clone(), |x| x.wrapping_mul(3));
            let want: Vec<u64> = items.iter().map(|x| x.wrapping_mul(3)).collect();
            prop_assert!(out == want, "map reordered results");
            Ok(())
        },
    );
}
