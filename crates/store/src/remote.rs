//! The remote key-value store (CouchDB stand-in).
//!
//! "In production serverless platforms, users often rely on additional
//! database storage services for temporary data storage and delivery"
//! (§1). The paper deploys CouchDB 3.1.1 on a dedicated storage node; every
//! data-shipping transfer (§2.4) is a write into it followed by one read
//! per consumer.
//!
//! The store itself tracks object sizes and charges a fixed per-operation
//! overhead (request parsing, MVCC bookkeeping); the bytes travel over the
//! simulated network as flows created by the cluster world, so bandwidth
//! contention at the storage node emerges naturally.

use faasflow_sim::{FastMap, InvocationId, SimDuration};

use crate::keys::DataKey;

/// The storage-node object catalog.
///
/// ```
/// use faasflow_store::{RemoteStore, DataKey};
/// use faasflow_sim::{WorkflowId, InvocationId, FunctionId};
///
/// let mut db = RemoteStore::default();
/// let key = DataKey::new(WorkflowId::new(0), InvocationId::new(0), FunctionId::new(1));
/// db.put(key, 1024);
/// assert_eq!(db.get(key), Some(1024));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RemoteStore {
    objects: FastMap<DataKey, u64>,
    /// Keys of each invocation's objects, so releasing an invocation
    /// touches only its own keys.
    by_invocation: FastMap<InvocationId, Vec<DataKey>>,
}

impl RemoteStore {
    /// Server-side overhead per put (CouchDB document insert).
    pub const PUT_OVERHEAD: SimDuration = SimDuration::from_millis(3);
    /// Server-side overhead per get.
    pub(crate) const GET_OVERHEAD: SimDuration = SimDuration::from_millis(2);

    /// Stores (or overwrites) an object and returns the server-side
    /// processing latency to charge.
    pub fn put(&mut self, key: DataKey, bytes: u64) -> SimDuration {
        if self.objects.insert(key, bytes).is_none() {
            self.by_invocation
                .entry(key.invocation)
                .or_default()
                .push(key);
        }
        Self::PUT_OVERHEAD
    }

    /// Size of a stored object, or `None` when absent. Does not charge
    /// latency — use [`RemoteStore::read`] on the serving path.
    pub fn get(&self, key: DataKey) -> Option<u64> {
        self.objects.get(&key).copied()
    }

    /// Reads an object for serving: returns its size and the server-side
    /// latency to charge, or `None` when absent.
    pub fn read(&self, key: DataKey) -> Option<(u64, SimDuration)> {
        let bytes = self.objects.get(&key).copied()?;
        Some((bytes, Self::GET_OVERHEAD))
    }

    /// Deletes one object; returns its size if it existed.
    pub fn delete(&mut self, key: DataKey) -> Option<u64> {
        let bytes = self.objects.remove(&key)?;
        let keys = self
            .by_invocation
            .get_mut(&key.invocation)
            .expect("stored object is indexed");
        let at = keys
            .iter()
            .position(|&k| k == key)
            .expect("stored object is indexed");
        keys.swap_remove(at);
        if keys.is_empty() {
            self.by_invocation.remove(&key.invocation);
        }
        Some(bytes)
    }

    /// Drops every object of one invocation (end-of-invocation cleanup).
    /// Returns the number of bytes released.
    pub fn release_invocation(&mut self, invocation: InvocationId) -> u64 {
        let Some(keys) = self.by_invocation.remove(&invocation) else {
            return 0;
        };
        keys.iter()
            .map(|k| self.objects.remove(k).expect("indexed object is stored"))
            .sum()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.objects.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::{FunctionId, WorkflowId};

    fn key(inv: u32, f: u32) -> DataKey {
        DataKey::new(
            WorkflowId::new(0),
            InvocationId::new(inv),
            FunctionId::new(f),
        )
    }

    #[test]
    fn put_read_delete_round_trip() {
        let mut db = RemoteStore::default();
        let overhead = db.put(key(0, 1), 4096);
        assert_eq!(overhead, SimDuration::from_millis(3));
        let (bytes, get_overhead) = db.read(key(0, 1)).expect("present");
        assert_eq!(bytes, 4096);
        assert_eq!(get_overhead, SimDuration::from_millis(2));
        assert_eq!(db.delete(key(0, 1)), Some(4096));
        assert_eq!(db.read(key(0, 1)), None);
    }

    #[test]
    fn overwrite_replaces_size() {
        let mut db = RemoteStore::default();
        db.put(key(0, 1), 100);
        db.put(key(0, 1), 300);
        assert_eq!(db.get(key(0, 1)), Some(300));
        assert_eq!(db.object_count(), 1);
    }

    #[test]
    fn release_invocation_scopes_cleanup() {
        let mut db = RemoteStore::default();
        db.put(key(0, 1), 10);
        db.put(key(0, 2), 20);
        db.put(key(1, 1), 40);
        assert_eq!(db.release_invocation(InvocationId::new(0)), 30);
        assert_eq!(db.object_count(), 1);
        assert_eq!(db.resident_bytes(), 40);
    }
}
