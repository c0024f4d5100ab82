//! Hermetic thread pool (the rayon-shaped piece of the in-tree substrate
//! — zero external crates). One primitive, [`Pool::map`]: an indexed
//! parallel map whose calling thread does the work too. DESIGN.md §6 has
//! the rationale; in short:
//!
//! * **A `map` call is one job.** The caller publishes a [`Job`] — its
//!   per-index body, erased to `&dyn Fn(usize)` over the caller's stack,
//!   plus a `next` and a `done` counter — in a small list of open jobs.
//!   Indices are claimed with `next.fetch_add(1)`, so each runs on exactly
//!   one thread; nothing is boxed or queued per item.
//! * **The caller is a worker of its own job.** It claims indices until
//!   none is left, takes the job off the list, and waits for the items
//!   helpers claimed: a bounded spin, then a park the last finisher ends.
//!   It counts as one of the pool's threads: `Pool::new(t)` spawns `t − 1`
//!   workers, so a pool of 1 has no worker thread at all and `map` runs
//!   inline — `POOL_THREADS=1` is a genuinely serial baseline.
//! * **One wake, passed on.** Publishing wakes at most one parked worker,
//!   and only when one *is* parked; a woken helper that finds more than
//!   its own item left wakes the next, so a large map ramps up to every
//!   worker while a small one costs a single wake. Workers claim from the
//!   newest open job and park (counted under the job-list lock, no
//!   polling) when there is none.
//! * **The claim / done invariant** is the whole safety argument for the
//!   borrowed body: it is dereferenced only after a successful claim
//!   `i < len`, every participant adds the items it ran to `done` when it
//!   leaves the job, and `map` neither returns nor unwinds before
//!   `done == len` — so every claimed item finishes inside the borrow.
//!   The job record is reference-counted; a late helper only ever fails
//!   a claim on it.
//! * **Panics.** An item's panic is caught where it ran, the other items
//!   still run, and the first payload is re-raised on the caller after
//!   the join. Workers never die.
//! * **Nested maps.** An item that calls `map` is simply that job's
//!   caller: it waits only for items another thread is already *running*,
//!   which finish without it — nesting cannot deadlock at any pool size.
//! * **Deterministic reduction rule.** Results come back indexed by input
//!   position and are only ever combined in that canonical order, so
//!   outputs are bit-identical for any thread count and claim schedule.
//! * **Schedule perturbation.** `PSGRAPH_POOL_PERTURB=<seed>` (or
//!   [`Pool::with_perturb`]) arms a replayable debug mode: seeded yields
//!   before claims, a seeded starting point among the open jobs, and a
//!   seeded head start for helpers before the caller's first claim (or a
//!   sweep would only ever see caller-runs-everything schedules).
//!
//! The global pool ([`Pool::global`]) is sized by `POOL_THREADS`, else
//! `available_parallelism`.

use psgraph_sim::sync::{Condvar, Mutex};
use psgraph_sim::SplitMix64;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

/// How often a caller re-reads `done` before it parks. A helper's last
/// item is typically microseconds from finishing; a park costs two
/// syscalls and a wake-up latency on top.
const JOIN_SPINS: u32 = 2_000;

/// Under perturbation, how many yields a caller may spend waiting for a
/// helper to claim first. Bounded: a job must finish on its caller alone.
const HEAD_START_YIELDS: u32 = 200;

/// One published `map` call.
struct Job {
    /// The caller's per-index body with its lifetime erased. Dereferenced
    /// only under the claim / done invariant (see [`Job::work`]).
    body: *const (dyn Fn(usize) + Sync),
    len: usize,
    /// Next unclaimed index. Claims are `fetch_add(1)`: each `i < len` is
    /// handed to exactly one thread.
    next: AtomicUsize,
    /// Items finished. A participant adds the number it ran once, when it
    /// leaves the job; `done == len` is what `map` waits for.
    done: AtomicUsize,
    /// First panic payload of any item.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread inside `run_job`, for the last finisher to unpark.
    caller: Thread,
}

// SAFETY: the only field that is not already `Send + Sync` is `body`. Its
// pointee is `Sync`, so calling it from any thread is fine while it is
// alive, and the claim / done invariant keeps every dereference inside
// the caller's borrow: `work` dereferences only after a claim `i < len`,
// and `Pool::run_job` does not return before `done == len`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim indices and run them until none is left; returns how many
    /// this thread ran. `first_claim` sees the first index this thread
    /// got, before running it.
    fn work(&self, rng: &mut Option<SplitMix64>, first_claim: impl FnOnce(usize)) -> usize {
        let mut first_claim = Some(first_claim);
        let mut ran = 0;
        loop {
            if rng.as_mut().is_some_and(|r| r.next_below(4) == 0) {
                std::thread::yield_now();
            }
            // Relaxed: the claim only has to be unique. The body and the
            // items were published by the job-list lock, results by `done`.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return ran;
            }
            if let Some(f) = first_claim.take() {
                f(i);
            }
            // SAFETY: claim / done invariant. This thread holds the claim
            // `i < len` and has not yet added it to `done`, so
            // `done < len` and the caller is still inside `run_job`,
            // which keeps the closure behind `body` borrowed.
            let body = unsafe { &*self.body };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                self.panic.lock().get_or_insert(p);
            }
            ran += 1;
        }
    }

    /// Add `ran` finished items to `done`; whether that completed the job.
    fn finish(&self, ran: usize) -> bool {
        // AcqRel: Release publishes this thread's result slots (and a
        // stashed panic) to the caller; Acquire, on the caller, pairs with
        // every helper's Release once the count is full.
        let done = self.done.fetch_add(ran, Ordering::AcqRel) + ran;
        debug_assert!(done <= self.len, "{done} of {} items finished", self.len);
        done == self.len
    }

    /// A helper leaves the job having run `ran > 0` items. The last
    /// finisher unparks the caller: a syscall only if it did park.
    fn leave(&self, ran: usize) {
        if self.finish(ran) {
            self.caller.unpark();
        }
    }

    /// The caller adds its own `ran` items and waits for `done == len`:
    /// a bounded spin, then a park (re-checked: a token left over from
    /// an earlier job only costs one more turn of the loop).
    fn join(&self, ran: usize) {
        if self.finish(ran) {
            return;
        }
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) != self.len {
            if spins < JOIN_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// What the job-list lock guards.
struct State {
    /// Open jobs, oldest first: listed from publication until the caller
    /// has seen the last index claimed.
    jobs: Vec<Arc<Job>>,
    /// Workers parked on `Shared::wake`.
    sleepers: usize,
    shutdown: bool,
}

impl State {
    /// A job with an unclaimed index: the newest, or under perturbation
    /// the first one at or before a seeded position.
    fn pick(&self, rng: &mut Option<SplitMix64>) -> Option<Arc<Job>> {
        let k = self.jobs.len();
        if k == 0 {
            return None;
        }
        let start = rng.as_mut().map_or(0, |r| r.next_below(k as u64) as usize);
        (0..k)
            .map(|back| &self.jobs[(start + k - 1 - back) % k])
            .find(|j| j.next.load(Ordering::Relaxed) < j.len)
            .cloned()
    }
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// Schedule-perturbation seed (debug mode); `None` = off.
    perturb: Option<u64>,
    /// Items of published jobs over the pool's lifetime (stats / tests).
    executed: AtomicU64,
    /// Wakes issued to parked workers (tests pin the wake budget).
    wakes: AtomicU64,
}

impl Shared {
    fn wake_one(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.wake.notify_one();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    // Under perturbation the stream is derived from the replayable seed
    // so a failing schedule can be re-run.
    let mut rng = shared
        .perturb
        .map(|s| SplitMix64::new((s ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(me as u64)));
    // Only a worker that a wake brought here passes the wake on.
    let mut woken = false;
    let mut state = shared.state.lock();
    loop {
        if let Some(job) = state.pick(&mut rng) {
            let pass_on = woken && state.sleepers > 0;
            drop(state);
            let ran = job.work(&mut rng, |i| {
                if pass_on && i + 1 < job.len {
                    shared.wake_one();
                }
            });
            if ran > 0 {
                job.leave(ran);
            }
            woken = false;
            state = shared.state.lock();
        } else if state.shutdown {
            return;
        } else {
            // Counted and parked under the lock a publisher pushes
            // under, so a job is either seen above or its publisher sees
            // this sleeper: no wake is missed, nothing polls.
            state.sleepers += 1;
            state = shared.wake.wait(state);
            state.sleepers -= 1;
            woken = true;
        }
    }
}

/// One item of a `map`: the input until its claimant takes it, then the
/// result (nothing, if the item panicked).
enum Slot<T, R> {
    Item(T),
    Taken,
    Done(R),
}

struct SlotCell<T, R>(UnsafeCell<Slot<T, R>>);

// SAFETY: claim / done invariant. Slot `i` is touched by the one thread
// that claimed index `i` (`T: Send` moves the item there) and read back
// by the caller only after the join has seen that thread's `done` update
// (`R: Send` moves the result back); no slot is ever shared.
unsafe impl<T: Send, R: Send> Sync for SlotCell<T, R> {}

/// The thread pool. See the module docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    /// `threads − 1` workers: the thread calling `map` is the last one.
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("perturb", &self.shared.perturb)
            .finish()
    }
}

impl Pool {
    /// A pool of `threads` threads (clamped to ≥ 1), counting the one
    /// that calls `map`. Reads the `PSGRAPH_POOL_PERTURB` seed from the
    /// environment.
    pub fn new(threads: usize) -> Pool {
        let perturb = std::env::var("PSGRAPH_POOL_PERTURB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        Pool::with_perturb(threads, perturb)
    }

    /// A pool with an explicit perturbation seed (`None` = off).
    pub fn with_perturb(threads: usize, perturb: Option<u64>) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { jobs: Vec::new(), sleepers: 0, shutdown: false }),
            wake: Condvar::new(),
            perturb,
            executed: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psgraph-pool-{i}"))
                    .spawn(move || worker_loop(s, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers, threads }
    }

    /// The process-wide pool, sized by `POOL_THREADS` (else
    /// `available_parallelism`).
    pub fn global() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            Arc::new(Pool::new(threads))
        })
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Items of published jobs over the pool's lifetime, whoever ran
    /// them; inline maps count nothing.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Parallel map with the deterministic reduction rule: `f` runs on
    /// every item concurrently, but the results come back indexed by
    /// input position — combining them in that canonical order makes
    /// every downstream fold independent of the claim schedule.
    ///
    /// Single-threaded pools (and single-item inputs) run inline on the
    /// caller, so `POOL_THREADS=1` is a genuinely serial baseline.
    pub fn map<T, R>(&self, items: Vec<T>, f: impl Fn(T) -> R + Send + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<SlotCell<T, R>> =
            items.into_iter().map(|t| SlotCell(UnsafeCell::new(Slot::Item(t)))).collect();
        self.run_job(slots.len(), &|i| {
            // SAFETY: claim / done invariant. `run_job` calls the body at
            // most once per index, on the thread that claimed it, so this
            // is the only reference to slot `i` until the join.
            let slot = unsafe { &mut *slots[i].0.get() };
            match std::mem::replace(slot, Slot::Taken) {
                Slot::Item(item) => *slot = Slot::Done(f(item)),
                _ => unreachable!("index {i} ran twice"),
            }
        });
        slots
            .into_iter()
            .map(|s| match s.0.into_inner() {
                Slot::Done(r) => r,
                _ => unreachable!("run_job returned before an item finished"),
            })
            .collect()
    }

    /// Run `body(i)` once for every `i < len`, on this thread and on
    /// whichever workers arrive in time; returns after all of them
    /// finished, re-raising the first panic.
    fn run_job(&self, len: usize, body: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        // SAFETY: only the lifetime is erased. Claim / done invariant:
        // the pointer is dereferenced in `Job::work` alone, under a claim
        // `i < len` not yet counted in `done`, and this function does not
        // return before `done == len`. It cannot unwind early either:
        // items' panics are caught in `work`, and nothing else between
        // here and `join` panics.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(Job {
            body,
            len,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            caller: std::thread::current(),
        });
        let before = shared.executed.fetch_add(len as u64, Ordering::Relaxed);
        let wake = {
            let mut state = shared.state.lock();
            state.jobs.push(Arc::clone(&job));
            state.sleepers > 0
        };
        if wake {
            shared.wake_one();
        }
        let mut rng = shared
            .perturb
            .map(|s| SplitMix64::new(s ^ before.wrapping_mul(0xBF58_476D_1CE4_E5B9)));
        if wake && rng.as_mut().is_some_and(|r| r.next_below(2) == 0) {
            for _ in 0..HEAD_START_YIELDS {
                if job.next.load(Ordering::Relaxed) != 0 {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let ran = job.work(&mut rng, |_| {});
        shared.state.lock().jobs.retain(|j| !Arc::ptr_eq(j, &job));
        job.join(ran);
        let panic = job.panic.lock().take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            // Workers catch every item's panic, and `Drop` must not panic.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// Spin (yielding) until every worker of `pool` is parked.
    fn wait_all_parked(pool: &Pool) {
        while pool.shared.state.lock().sleepers != pool.threads - 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn map_runs_every_item_once() {
        let pool = Pool::with_perturb(4, None);
        let counter = AtomicUsize::new(0);
        pool.map((0..100).collect(), |_: usize| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.tasks_executed(), 100);
    }

    #[test]
    fn map_preserves_input_order() {
        let pool = Pool::with_perturb(4, None);
        let out = pool.map((0..256u64).collect(), |x| x * 3);
        assert_eq!(out, (0..256u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_runs_inline_and_has_no_worker() {
        let pool = Pool::with_perturb(1, None);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let me = std::thread::current().id();
        let out = pool.map(vec![1, 2, 3], |x| {
            assert_eq!(std::thread::current().id(), me);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        // Inline path: no job was published.
        assert_eq!(pool.tasks_executed(), 0);
        // The caller counts as a thread: t − 1 workers.
        assert_eq!(Pool::with_perturb(3, None).workers.len(), 2);
    }

    #[test]
    fn nested_maps_make_progress_on_the_smallest_pools() {
        for threads in [1, 2] {
            let pool = Pool::with_perturb(threads, None);
            let total = AtomicUsize::new(0);
            pool.map((0..4).collect(), |_: usize| {
                pool.map((0..4).collect(), |_: usize| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(total.load(Ordering::SeqCst), 16, "{threads} threads");
        }
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::with_perturb(2, None);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2], |i| {
                if i == 1 {
                    panic!("task panic");
                }
            });
        }));
        assert!(res.is_err());
        // The pool survives, lists no stale job, and keeps working.
        assert!(pool.shared.state.lock().jobs.is_empty());
        assert_eq!(pool.map(vec![1, 2], |x| x), vec![1, 2]);
    }

    #[test]
    fn a_small_map_costs_at_most_one_wake_plus_one_per_helper_that_found_work() {
        for (threads, items) in [(2, 2), (4, 2), (4, 3), (4, 64), (8, 1000)] {
            let pool = Pool::with_perturb(threads, None);
            for _ in 0..20 {
                wait_all_parked(&pool);
                let before = pool.shared.wakes.load(Ordering::Relaxed);
                let me = std::thread::current().id();
                let helpers: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                pool.map((0..items).collect(), |_: usize| {
                    let id = std::thread::current().id();
                    if id != me {
                        helpers.lock().insert(id);
                    }
                });
                let wakes = pool.shared.wakes.load(Ordering::Relaxed) - before;
                let helpers = helpers.into_inner().len() as u64;
                assert!(wakes >= 1, "a parked worker was there to wake");
                assert!(
                    wakes <= 1 + helpers,
                    "{threads} threads, {items} items: {wakes} wakes, {helpers} helpers"
                );
            }
        }
    }

    #[test]
    fn no_wake_when_no_worker_is_parked() {
        // Job A: three items on a pool of 3, each held until released, so
        // the caller and both workers sit inside one. The caller's item
        // then issues job B: nobody is parked, so B must not issue a wake
        // — and must finish on its caller alone.
        let pool = Pool::with_perturb(3, None);
        wait_all_parked(&pool);
        let me = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let released = AtomicUsize::new(0);
        /// Releases the held workers even if a check below fails.
        struct Release<'a>(&'a AtomicUsize);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(1, Ordering::SeqCst);
            }
        }
        pool.map(vec![(); 3], |()| {
            started.fetch_add(1, Ordering::SeqCst);
            if std::thread::current().id() != me {
                while released.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                return;
            }
            let _release = Release(&released);
            while started.load(Ordering::SeqCst) != 3 {
                std::thread::yield_now();
            }
            assert_eq!(pool.shared.state.lock().sleepers, 0);
            let before = pool.shared.wakes.load(Ordering::Relaxed);
            let out = pool.map((0..50u64).collect(), |x| {
                assert_eq!(std::thread::current().id(), me, "no helper was free");
                x + 1
            });
            assert_eq!(out, (1..=50u64).collect::<Vec<_>>());
            assert_eq!(pool.shared.wakes.load(Ordering::Relaxed), before);
        });
        assert!(pool.shared.state.lock().jobs.is_empty());
    }
}
