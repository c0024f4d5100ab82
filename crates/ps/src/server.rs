//! One parameter server: a memory-metered, typed partition store behind a
//! network service port.

use psgraph_sim::sync::RwLock;
use psgraph_net::{NodeId, ServicePort};
use psgraph_sim::{FxHashMap, MemoryMeter, SimTime};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::error::{PsError, Result};

struct StoredPartition {
    data: Box<dyn Any + Send + Sync>,
    bytes: u64,
    /// Bumped on every write (insert or mutable access). Snapshot delta
    /// export compares these against a base manifest to find the
    /// partitions that changed.
    version: u64,
}

impl StoredPartition {
    fn typed<T: 'static>(&self, name: &str) -> Result<&T> {
        self.data
            .downcast_ref::<T>()
            .ok_or_else(|| PsError::TypeMismatch { name: name.to_string() })
    }

    fn typed_mut<T: 'static>(&mut self, name: &str) -> Result<&mut T> {
        self.data
            .downcast_mut::<T>()
            .ok_or_else(|| PsError::TypeMismatch { name: name.to_string() })
    }
}

type Store = FxHashMap<(String, usize), StoredPartition>;

/// A partition as requests name it: object and partition index.
type PartRef<'a> = (&'a str, usize);

fn key((name, partition): PartRef) -> (String, usize) {
    (name.to_string(), partition)
}

/// Which of `parts` a request could not find: "`a[0]`", "`a[0]` or `b[1]`".
fn not_found(parts: &[PartRef]) -> PsError {
    let named: Vec<String> = parts.iter().map(|(name, p)| format!("{name}[{p}]")).collect();
    PsError::NotFound(named.join(" or "))
}

/// Mutable access to several stored partitions at once; they must be
/// pairwise distinct.
fn disjoint_mut<'s, const N: usize>(
    store: &'s mut Store,
    parts: [PartRef; N],
) -> Result<[&'s mut StoredPartition; N]> {
    if parts.iter().enumerate().any(|(i, part)| parts[..i].contains(part)) {
        let names: Vec<&str> = parts.iter().map(|part| part.0).collect();
        return Err(PsError::DimensionMismatch(format!(
            "{} must be distinct objects",
            names.join(", ")
        )));
    }
    let keys = parts.map(key);
    let found: Option<Vec<_>> = store.get_disjoint_mut(keys.each_ref()).into_iter().collect();
    found.and_then(|found| found.try_into().ok()).ok_or_else(|| not_found(&parts))
}

/// A PS server node.
pub struct PsServer {
    id: usize,
    port: ServicePort,
    memory: MemoryMeter,
    alive: AtomicBool,
    /// Incarnation number, bumped on every [`PsServer::kill`]. Folded into
    /// the version base of partitions created after a restart so a
    /// recovered partition's version can never coincide with a pre-crash
    /// version recorded in a snapshot manifest — the delta writer's
    /// "version differs ⇒ dirty" check stays sound across crashes.
    epoch: AtomicU64,
    store: RwLock<Store>,
}

impl std::fmt::Debug for PsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsServer")
            .field("id", &self.id)
            .field("alive", &self.is_alive())
            .field("partitions", &self.store.read().len())
            .finish()
    }
}

impl PsServer {
    pub fn new(id: usize, memory_budget: u64) -> Self {
        PsServer {
            id,
            port: ServicePort::new(NodeId::Server(id)),
            memory: MemoryMeter::new(format!("ps-server-{id}"), memory_budget),
            alive: AtomicBool::new(true),
            epoch: AtomicU64::new(0),
            store: RwLock::default(),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn port(&self) -> &ServicePort {
        &self.port
    }

    pub fn memory(&self) -> &MemoryMeter {
        &self.memory
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Fail the caller if this server is down.
    pub fn ensure_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(PsError::ServerDown { id: self.id })
        }
    }

    /// Kill: all in-memory partitions and accounting are lost.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.store.write().clear();
        self.memory.clear();
    }

    /// Current incarnation (0 until the first kill).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Restart at simulated time `t` with an empty store (recovery
    /// re-populates it from checkpoints).
    pub fn restart(&self, t: SimTime) {
        self.port.reset(t);
        self.alive.store(true, Ordering::Release);
    }

    /// Create or replace a partition.
    pub fn insert<T: Send + Sync + 'static>(
        &self,
        name: &str,
        partition: usize,
        value: T,
        bytes: u64,
    ) -> Result<()> {
        self.ensure_alive()?;
        let mut store = self.store.write();
        let key = (name.to_string(), partition);
        // Fresh partitions (e.g. restored after a crash wiped the store)
        // start their version count in the current epoch's range; replaced
        // ones continue their own count.
        let mut version = self.epoch.load(Ordering::Acquire) << 32;
        if let Some(old) = store.remove(&key) {
            self.memory.free(old.bytes);
            version = old.version;
        }
        self.memory.alloc(bytes)?;
        store.insert(key, StoredPartition { data: Box::new(value), bytes, version: version + 1 });
        Ok(())
    }

    /// Read-only access to a partition.
    pub fn get<T: 'static, R>(
        &self,
        name: &str,
        partition: usize,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R> {
        self.ensure_alive()?;
        let store = self.store.read();
        let part =
            store.get(&key((name, partition))).ok_or_else(|| not_found(&[(name, partition)]))?;
        Ok(f(part.typed(name)?))
    }

    /// Read-only access to two partitions under one store lock — the
    /// server-side form of an operator that reads co-located partitions
    /// of two objects (or one partition through both arguments).
    pub fn get_pair<A: 'static, B: 'static, R>(
        &self,
        a: (&str, usize),
        b: (&str, usize),
        f: impl FnOnce(&A, &B) -> R,
    ) -> Result<R> {
        self.ensure_alive()?;
        let store = self.store.read();
        let (Some(pa), Some(pb)) = (store.get(&key(a)), store.get(&key(b))) else {
            return Err(not_found(&[a, b]));
        };
        Ok(f(pa.typed(a.0)?, pb.typed(b.0)?))
    }

    /// Mutable access; the closure must not change the partition's
    /// footprint (use [`PsServer::update_resize`] if it can).
    pub fn update<T: 'static, R>(
        &self,
        name: &str,
        partition: usize,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R> {
        self.update_resize(name, partition, |t, bytes| (f(t), bytes, true))
    }

    /// Mutable access where the closure may grow/shrink the partition: it
    /// receives the current charged bytes and returns its result, the new
    /// footprint and whether it wrote; only a written partition has its
    /// version bumped (as with [`PsServer::update_pair_with`]).
    pub fn update_resize<T: 'static, R>(
        &self,
        name: &str,
        partition: usize,
        f: impl FnOnce(&mut T, u64) -> (R, u64, bool),
    ) -> Result<R> {
        self.ensure_alive()?;
        let mut store = self.store.write();
        let [part] = disjoint_mut(&mut store, [(name, partition)])?;
        let old_bytes = part.bytes;
        let (r, new_bytes, wrote) = f(part.typed_mut(name)?, old_bytes);
        if new_bytes > old_bytes {
            self.memory.alloc(new_bytes - old_bytes)?;
        } else {
            self.memory.free(old_bytes - new_bytes);
        }
        part.bytes = new_bytes;
        part.version += wrote as u64;
        Ok(r)
    }

    /// Mutable access to partitions `a` and `b` — co-located partitions
    /// of two *different* objects — under one store lock: the server-side
    /// form of an operator that updates both from each other. Both
    /// versions are bumped. Footprints must not change (as with
    /// [`PsServer::update`]).
    pub fn update_pair<A: 'static, B: 'static, R>(
        &self,
        a: (&str, usize),
        b: (&str, usize),
        f: impl FnOnce(&mut A, &mut B) -> R,
    ) -> Result<R> {
        self.ensure_alive()?;
        let mut store = self.store.write();
        let [pa, pb] = disjoint_mut(&mut store, [a, b])?;
        let r = f(pa.typed_mut(a.0)?, pb.typed_mut(b.0)?);
        pa.version += 1;
        pb.version += 1;
        Ok(r)
    }

    /// [`PsServer::update_pair`] plus shared access to a partition `c` of
    /// a third object. `f` returns its result and whether it wrote `a` /
    /// `b`; only a written partition has its version bumped.
    pub fn update_pair_with<A: 'static, B: 'static, C: 'static, R>(
        &self,
        a: (&str, usize),
        b: (&str, usize),
        c: (&str, usize),
        f: impl FnOnce(&mut A, &mut B, &C) -> (R, [bool; 2]),
    ) -> Result<R> {
        self.ensure_alive()?;
        let mut store = self.store.write();
        let [pa, pb, pc] = disjoint_mut(&mut store, [a, b, c])?;
        let (r, wrote) = f(pa.typed_mut(a.0)?, pb.typed_mut(b.0)?, pc.typed(c.0)?);
        pa.version += wrote[0] as u64;
        pb.version += wrote[1] as u64;
        Ok(r)
    }

    /// Write version of a partition (see `StoredPartition::version`).
    pub fn version(&self, name: &str, partition: usize) -> Result<u64> {
        self.ensure_alive()?;
        self.store
            .read()
            .get(&key((name, partition)))
            .map(|p| p.version)
            .ok_or_else(|| not_found(&[(name, partition)]))
    }

    /// Whether a partition exists.
    pub fn contains(&self, name: &str, partition: usize) -> bool {
        self.store.read().contains_key(&(name.to_string(), partition))
    }

    /// Drop a partition, releasing its memory. Returns whether it existed.
    pub fn remove(&self, name: &str, partition: usize) -> bool {
        let mut store = self.store.write();
        if let Some(old) = store.remove(&(name.to_string(), partition)) {
            self.memory.free(old.bytes);
            true
        } else {
            false
        }
    }

    /// Drop every partition of a named object.
    pub fn remove_object(&self, name: &str) {
        let mut store = self.store.write();
        let keys: Vec<_> = store.keys().filter(|(n, _)| n == name).cloned().collect();
        for k in keys {
            if let Some(old) = store.remove(&k) {
                self.memory.free(old.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_roundtrip() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("v", 0, vec![1.0f64, 2.0], 16).unwrap();
        let sum = s.get("v", 0, |v: &Vec<f64>| v.iter().sum::<f64>()).unwrap();
        assert_eq!(sum, 3.0);
        s.update("v", 0, |v: &mut Vec<f64>| v[0] = 10.0).unwrap();
        let first = s.get("v", 0, |v: &Vec<f64>| v[0]).unwrap();
        assert_eq!(first, 10.0);
    }

    #[test]
    fn get_missing_partition_not_found() {
        let s = PsServer::new(0, 1 << 20);
        let err = s.get("nope", 0, |_: &Vec<f64>| ()).unwrap_err();
        assert!(matches!(err, PsError::NotFound(_)));
    }

    #[test]
    fn wrong_type_is_type_mismatch() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("v", 0, vec![1.0f64], 8).unwrap();
        let err = s.get("v", 0, |_: &Vec<u64>| ()).unwrap_err();
        assert!(matches!(err, PsError::TypeMismatch { .. }));
    }

    #[test]
    fn memory_accounting_on_insert_replace_remove() {
        let s = PsServer::new(0, 1000);
        s.insert("a", 0, (), 400).unwrap();
        assert_eq!(s.memory().in_use(), 400);
        s.insert("a", 0, (), 300).unwrap(); // replace frees old
        assert_eq!(s.memory().in_use(), 300);
        assert!(s.remove("a", 0));
        assert_eq!(s.memory().in_use(), 0);
        assert!(!s.remove("a", 0));
    }

    #[test]
    fn oom_on_budget_exceeded() {
        let s = PsServer::new(0, 100);
        let err = s.insert("a", 0, (), 200).unwrap_err();
        assert!(matches!(err, PsError::Oom(_)));
        assert_eq!(s.memory().in_use(), 0);
    }

    #[test]
    fn update_resize_adjusts_accounting() {
        let s = PsServer::new(0, 1000);
        s.insert("m", 0, Vec::<u64>::new(), 100).unwrap();
        s.update_resize("m", 0, |v: &mut Vec<u64>, _old| {
            v.push(7);
            ((), 500, true)
        })
        .unwrap();
        assert_eq!(s.memory().in_use(), 500);
        s.update_resize("m", 0, |_: &mut Vec<u64>, _old| ((), 50, true)).unwrap();
        assert_eq!(s.memory().in_use(), 50);
    }

    #[test]
    fn update_resize_oom_rejects() {
        let s = PsServer::new(0, 100);
        s.insert("m", 0, (), 80).unwrap();
        let err = s.update_resize("m", 0, |_: &mut (), _| ((), 500, true)).unwrap_err();
        assert!(matches!(err, PsError::Oom(_)));
    }

    #[test]
    fn kill_clears_everything_and_blocks_access() {
        let s = PsServer::new(3, 1000);
        s.insert("v", 0, 1u64, 8).unwrap();
        s.kill();
        assert!(!s.is_alive());
        assert_eq!(s.memory().in_use(), 0);
        assert!(matches!(
            s.get("v", 0, |_: &u64| ()),
            Err(PsError::ServerDown { id: 3 })
        ));
        assert!(matches!(s.insert("v", 0, 1u64, 8), Err(PsError::ServerDown { .. })));
        s.restart(SimTime::from_secs(5));
        assert!(s.is_alive());
        // Store is empty after restart.
        assert!(matches!(s.get("v", 0, |_: &u64| ()), Err(PsError::NotFound(_))));
    }

    #[test]
    fn versions_count_writes_not_reads() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("v", 0, vec![0.0f64; 4], 32).unwrap();
        assert_eq!(s.version("v", 0).unwrap(), 1);
        let _ = s.get("v", 0, |v: &Vec<f64>| v.len()).unwrap();
        assert_eq!(s.version("v", 0).unwrap(), 1, "reads do not bump");
        s.update("v", 0, |v: &mut Vec<f64>| v[0] = 1.0).unwrap();
        assert_eq!(s.version("v", 0).unwrap(), 2);
        s.update_resize("v", 0, |_: &mut Vec<f64>, bytes| ((), bytes, false)).unwrap();
        assert_eq!(s.version("v", 0).unwrap(), 2, "an update that wrote nothing does not bump");
        s.insert("v", 0, vec![0.0f64; 2], 16).unwrap();
        assert_eq!(s.version("v", 0).unwrap(), 3, "replace continues the count");
        assert!(matches!(s.version("v", 1), Err(PsError::NotFound(_))));
    }

    #[test]
    fn update_pair_with_spans_three_objects_and_bumps_only_written_ones() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("a", 0, 1u64, 8).unwrap();
        s.insert("b", 0, 2u64, 8).unwrap();
        s.insert("c", 0, vec![3u64], 8).unwrap();
        let sum = s
            .update_pair_with(("a", 0), ("b", 0), ("c", 0), |a: &mut u64, b: &mut u64, c: &Vec<u64>| {
                *a += c[0];
                (*a + *b, [true, false])
            })
            .unwrap();
        assert_eq!(sum, 6);
        assert_eq!(s.get("a", 0, |a: &u64| *a).unwrap(), 4);
        assert_eq!((s.version("a", 0).unwrap(), s.version("b", 0).unwrap()), (2, 1));
        let noop = |_: &mut u64, _: &mut u64, _: &Vec<u64>| ((), [false; 2]);
        assert!(matches!(
            s.update_pair_with(("a", 0), ("a", 0), ("c", 0), noop),
            Err(PsError::DimensionMismatch(_))
        ));
        assert!(matches!(
            s.update_pair_with(("a", 0), ("b", 1), ("c", 0), noop),
            Err(PsError::NotFound(_))
        ));
        assert!(matches!(
            s.update_pair_with(("a", 0), ("c", 0), ("b", 0), noop),
            Err(PsError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn pair_accessors_read_and_write_two_partitions_under_one_lock() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("a", 0, 1u64, 8).unwrap();
        s.insert("b", 0, 2u64, 8).unwrap();
        assert_eq!(s.get_pair(("a", 0), ("b", 0), |a: &u64, b: &u64| a + b).unwrap(), 3);
        // A read may name one partition through both arguments.
        assert_eq!(s.get_pair(("a", 0), ("a", 0), |a: &u64, b: &u64| a + b).unwrap(), 2);
        s.update_pair(("a", 0), ("b", 0), |a: &mut u64, b: &mut u64| std::mem::swap(a, b))
            .unwrap();
        assert_eq!(s.get_pair(("a", 0), ("b", 0), |a: &u64, b: &u64| (*a, *b)).unwrap(), (2, 1));
        assert_eq!((s.version("a", 0).unwrap(), s.version("b", 0).unwrap()), (2, 2));
        let noop = |_: &mut u64, _: &mut u64| ();
        assert!(matches!(
            s.update_pair(("a", 0), ("a", 0), noop),
            Err(PsError::DimensionMismatch(_))
        ));
        assert!(matches!(s.update_pair(("a", 0), ("b", 1), noop), Err(PsError::NotFound(_))));
        assert!(matches!(
            s.get_pair(("a", 0), ("b", 0), |_: &u64, _: &f64| ()),
            Err(PsError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.get_pair(("a", 1), ("b", 0), |_: &u64, _: &u64| ()),
            Err(PsError::NotFound(_))
        ));
    }

    #[test]
    fn post_restart_versions_never_collide_with_pre_crash_ones() {
        let s = PsServer::new(0, 1 << 20);
        s.insert("v", 0, 1u64, 8).unwrap();
        s.update("v", 0, |x: &mut u64| *x = 2).unwrap();
        let pre = s.version("v", 0).unwrap();
        s.kill();
        s.restart(SimTime::from_secs(1));
        assert_eq!(s.epoch(), 1);
        // Recovery re-inserts the partition; even after exactly as many
        // writes as before the crash, the version lives in a new range.
        s.insert("v", 0, 1u64, 8).unwrap();
        s.update("v", 0, |x: &mut u64| *x = 2).unwrap();
        let post = s.version("v", 0).unwrap();
        assert_ne!(pre, post, "a restored partition echoed a pre-crash version");
        assert_eq!(post, (1 << 32) + 2);
    }

    #[test]
    fn remove_object_drops_all_partitions() {
        let s = PsServer::new(0, 1000);
        s.insert("x", 0, (), 10).unwrap();
        s.insert("x", 1, (), 10).unwrap();
        s.insert("y", 0, (), 10).unwrap();
        s.remove_object("x");
        assert!(!s.contains("x", 0));
        assert!(!s.contains("x", 1));
        assert!(s.contains("y", 0));
        assert_eq!(s.memory().in_use(), 10);
    }
}
