//! Poison-free locks over `std::sync`.
//!
//! The workspace builds offline with zero external crates (see DESIGN.md,
//! "Hermetic build policy"), so the `parking_lot` API everyone wrote
//! against is provided here as thin wrappers: `lock()` / `read()` /
//! `write()` return guards directly instead of a `LockResult`. A poisoned
//! lock means a holder panicked mid-critical-section; simulation state is
//! unrecoverable at that point, so we propagate the panic rather than
//! surface `Result`s at every call site.

use std::sync::{self, LockResult};

/// Mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(_) => panic!("lock poisoned: a holder panicked mid-critical-section"),
    }
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

/// Reader-writer lock whose `read()` / `write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        unpoison(self.0.read())
    }

    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        unpoison(self.0.write())
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

/// Condition variable paired with [`Mutex`], with the same poison-free
/// contract: waits return the guard directly. Used by the harness thread
/// pool for worker parking and scope-completion signalling.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T> {
        unpoison(self.0.wait(guard))
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_notifies_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut g = lock.lock();
        while !*g {
            g = cv.wait(g);
        }
        assert!(*g);
        h.join().unwrap();
    }

    #[test]
    fn mutex_guards_and_into_inner() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_is_actually_exclusive() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }
}
