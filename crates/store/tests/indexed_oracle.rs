//! Oracle test: the per-invocation key index of `MemStore` and
//! `RemoteStore` against naive flat-scan models.
//!
//! Both stores index their objects by invocation so that releasing an
//! invocation touches only its own keys. The models keep one flat list of
//! `(key, bytes)` and answer every question — including a release — by
//! scanning all of it, which is what the stores did before the index.
//! Random put / get / delete / release / wipe sequences over a small key
//! universe (so duplicates, overwrites and re-puts after a release are
//! common) run against both; after every step the released bytes, object
//! counts, per-workflow `used` / `peak_used` and resident bytes must agree.

use faasflow_sim::{FunctionId, InvocationId, WorkflowId};
use faasflow_store::{DataKey, MemStore, RemoteStore};
use proptest::prelude::*;

const WORKFLOWS: u32 = 3;
const INVOCATIONS: u32 = 4;
const PRODUCERS: u32 = 5;

fn key() -> impl Strategy<Value = DataKey> {
    (0..WORKFLOWS, 0..INVOCATIONS, 0..PRODUCERS).prop_map(|(wf, inv, p)| {
        DataKey::new(
            WorkflowId::new(wf),
            InvocationId::new(inv),
            FunctionId::new(p),
        )
    })
}

fn bytes() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..100, 100u64..5_000]
}

#[derive(Debug, Clone)]
enum Op {
    SetBudget(u32, u64),
    Put(DataKey, u64),
    Get(DataKey),
    Delete(DataKey),
    Release(u32, u32),
    Wipe,
}

fn op() -> impl Strategy<Value = Op> {
    Union::weighted(vec![
        (
            1,
            (0..WORKFLOWS, 0u64..10_000)
                .prop_map(|(wf, b)| Op::SetBudget(wf, b))
                .boxed(),
        ),
        (6, (key(), bytes()).prop_map(|(k, b)| Op::Put(k, b)).boxed()),
        (2, key().prop_map(Op::Get).boxed()),
        (3, key().prop_map(Op::Delete).boxed()),
        (
            3,
            (0..WORKFLOWS, 0..INVOCATIONS)
                .prop_map(|(wf, inv)| Op::Release(wf, inv))
                .boxed(),
        ),
        (1, Just(Op::Wipe).boxed()),
    ])
}

/// Flat-scan `MemStore`: one object list, per-workflow budget and gauge.
#[derive(Debug, Default)]
struct MemModel {
    objects: Vec<(DataKey, u64)>,
    budget: [u64; WORKFLOWS as usize],
    used: [u64; WORKFLOWS as usize],
    peak: [u64; WORKFLOWS as usize],
}

impl MemModel {
    fn find(&self, key: DataKey) -> Option<usize> {
        self.objects.iter().position(|&(k, _)| k == key)
    }

    fn put(&mut self, key: DataKey, bytes: u64) -> bool {
        let wf = key.workflow.index();
        if self.find(key).is_some() || self.used[wf] + bytes > self.budget[wf] {
            return false;
        }
        self.objects.push((key, bytes));
        self.used[wf] += bytes;
        self.peak[wf] = self.peak[wf].max(self.used[wf]);
        true
    }

    fn delete(&mut self, key: DataKey) -> Option<u64> {
        let (_, bytes) = self.objects.remove(self.find(key)?);
        self.used[key.workflow.index()] -= bytes;
        Some(bytes)
    }

    fn release(&mut self, wf: WorkflowId, inv: InvocationId) -> u64 {
        let doomed: Vec<DataKey> = self
            .objects
            .iter()
            .map(|&(k, _)| k)
            .filter(|k| k.workflow == wf && k.invocation == inv)
            .collect();
        doomed.into_iter().filter_map(|k| self.delete(k)).sum()
    }

    fn wipe(&mut self) -> u64 {
        let lost = self.objects.drain(..).map(|(_, b)| b).sum();
        self.used = [0; WORKFLOWS as usize];
        lost
    }
}

/// Flat-scan `RemoteStore`: puts overwrite, releases go by invocation.
#[derive(Debug, Default)]
struct RemoteModel {
    objects: Vec<(DataKey, u64)>,
}

impl RemoteModel {
    fn find(&self, key: DataKey) -> Option<usize> {
        self.objects.iter().position(|&(k, _)| k == key)
    }

    fn put(&mut self, key: DataKey, bytes: u64) {
        match self.find(key) {
            Some(i) => self.objects[i].1 = bytes,
            None => self.objects.push((key, bytes)),
        }
    }

    fn get(&self, key: DataKey) -> Option<u64> {
        self.find(key).map(|i| self.objects[i].1)
    }

    fn delete(&mut self, key: DataKey) -> Option<u64> {
        Some(self.objects.remove(self.find(key)?).1)
    }

    fn release(&mut self, inv: InvocationId) -> u64 {
        let mut released = 0;
        self.objects.retain(|&(k, b)| {
            let doomed = k.invocation == inv;
            if doomed {
                released += b;
            }
            !doomed
        });
        released
    }
}

fn check_mem(store: &MemStore, model: &MemModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.object_count(), model.objects.len(), "object_count");
    for wf in 0..WORKFLOWS {
        let id = WorkflowId::new(wf);
        prop_assert_eq!(store.used(id), model.used[wf as usize], "used({id})");
        prop_assert_eq!(
            store.peak_used(id),
            model.peak[wf as usize],
            "peak_used({id})"
        );
    }
    for &(k, _) in &model.objects {
        prop_assert!(store.contains(k), "{k} missing from the store");
    }
    Ok(())
}

fn check_remote(store: &RemoteStore, model: &RemoteModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.object_count(), model.objects.len(), "object_count");
    prop_assert_eq!(
        store.resident_bytes(),
        model.objects.iter().map(|&(_, b)| b).sum::<u64>(),
        "resident_bytes"
    );
    for &(k, b) in &model.objects {
        prop_assert_eq!(store.get(k), Some(b), "size of {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memstore_matches_flat_scan_model(ops in collection::vec(op(), 1..120)) {
        let mut store = MemStore::new();
        let mut model = MemModel::default();
        for op in ops {
            match op {
                Op::SetBudget(wf, b) => {
                    store.set_budget(WorkflowId::new(wf), b);
                    model.budget[wf as usize] = b;
                }
                Op::Put(k, b) => prop_assert_eq!(store.try_put(k, b), model.put(k, b), "put {}", k),
                Op::Get(k) => {
                    let expected = model.find(k).map(|i| model.objects[i].1);
                    prop_assert_eq!(store.get(k), expected, "get {}", k);
                }
                Op::Delete(k) => prop_assert_eq!(store.delete(k), model.delete(k), "delete {}", k),
                Op::Release(wf, inv) => {
                    let (wf, inv) = (WorkflowId::new(wf), InvocationId::new(inv));
                    prop_assert_eq!(
                        store.release_invocation(wf, inv),
                        model.release(wf, inv),
                        "release {}/{}", wf, inv
                    );
                }
                Op::Wipe => prop_assert_eq!(store.wipe(), model.wipe(), "wipe"),
            }
            check_mem(&store, &model)?;
        }
    }

    #[test]
    fn remote_store_matches_flat_scan_model(ops in collection::vec(op(), 1..120)) {
        let mut store = RemoteStore::default();
        let mut model = RemoteModel::default();
        for op in ops {
            match op {
                // The remote store has no budgets and is never wiped.
                Op::SetBudget(..) | Op::Wipe => {}
                Op::Put(k, b) => {
                    store.put(k, b);
                    model.put(k, b);
                }
                Op::Get(k) => prop_assert_eq!(store.get(k), model.get(k), "get {}", k),
                Op::Delete(k) => prop_assert_eq!(store.delete(k), model.delete(k), "delete {}", k),
                Op::Release(_, inv) => {
                    let inv = InvocationId::new(inv);
                    prop_assert_eq!(
                        store.release_invocation(inv),
                        model.release(inv),
                        "release {}", inv
                    );
                }
            }
            check_remote(&store, &model)?;
        }
    }
}
