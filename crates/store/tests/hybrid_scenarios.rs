//! Multi-workflow / multi-invocation scenarios across the storage stack:
//! the FaaStore policy, the budgeted memstore, and the remote catalog
//! working together the way the cluster drives them.

use faasflow_sim::{FunctionId, InvocationId, NodeId, WorkflowId};
use faasflow_store::{quota, DataKey, FaaStore, Placement, RemoteStore, StorageType};
use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

const HERE: NodeId = NodeId::new(1);

fn key(wf: u32, inv: u32, f: u32) -> DataKey {
    DataKey::new(
        WorkflowId::new(wf),
        InvocationId::new(inv),
        FunctionId::new(f),
    )
}

#[test]
fn workflows_compete_only_within_their_own_budgets() {
    let mut fs = FaaStore::new(true);
    fs.memstore_mut().set_budget(WorkflowId::new(0), 10 << 20);
    fs.memstore_mut().set_budget(WorkflowId::new(1), 1 << 20);
    // Workflow 0 fills its budget...
    assert_eq!(
        fs.decide_put(key(0, 0, 0), 10 << 20, StorageType::Mem, HERE, &[HERE]),
        Placement::LocalMem
    );
    // ...which must not affect workflow 1's small budget.
    assert_eq!(
        fs.decide_put(key(1, 0, 0), 1 << 20, StorageType::Mem, HERE, &[HERE]),
        Placement::LocalMem
    );
    // But workflow 1 cannot borrow workflow 0's remaining space.
    assert_eq!(
        fs.decide_put(key(1, 0, 1), 1, StorageType::Mem, HERE, &[HERE]),
        Placement::Remote
    );
}

#[test]
fn concurrent_invocations_share_one_budget() {
    // Two in-flight invocations of one workflow contend for the reclaimed
    // quota; releasing the first frees space for the third.
    let mut fs = FaaStore::new(true);
    let wf = WorkflowId::new(0);
    fs.memstore_mut().set_budget(wf, 8 << 20);
    assert_eq!(
        fs.decide_put(key(0, 0, 0), 5 << 20, StorageType::Mem, HERE, &[HERE]),
        Placement::LocalMem
    );
    assert_eq!(
        fs.decide_put(key(0, 1, 0), 5 << 20, StorageType::Mem, HERE, &[HERE]),
        Placement::Remote,
        "second invocation overflows the shared budget"
    );
    assert_eq!(fs.release_invocation(wf, InvocationId::new(0)), 5 << 20);
    assert_eq!(
        fs.decide_put(key(0, 2, 0), 5 << 20, StorageType::Mem, HERE, &[HERE]),
        Placement::LocalMem,
        "released budget is reusable"
    );
}

#[test]
fn remote_store_serves_what_faastore_rejects() {
    let mut fs = FaaStore::new(true);
    let mut db = RemoteStore::default();
    fs.memstore_mut().set_budget(WorkflowId::new(0), 1 << 20);
    let big = key(0, 0, 0);
    let placement = fs.decide_put(big, 4 << 20, StorageType::Mem, HERE, &[HERE]);
    assert_eq!(placement, Placement::Remote);
    // The cluster would register the object remotely:
    db.put(big, 4 << 20);
    // Consumer path: local miss, remote hit.
    assert_eq!(fs.read_local(big), None);
    let (bytes, _) = db.read(big).expect("remote serves the object");
    assert_eq!(bytes, 4 << 20);
}

#[test]
fn quota_equations_bound_every_runtime_budget() {
    // Whatever subset of nodes lands on a worker, the sum of subset quotas
    // over any partition of the nodes equals the workflow quota — budgets
    // can never over-commit the reclaimed memory.
    let wf = Workflow::steps(
        "q",
        Step::sequence(vec![
            Step::task("a", FunctionProfile::with_millis(1, 0).peak_mem(64 << 20)),
            Step::foreach(
                "b",
                FunctionProfile::with_millis(1, 0).peak_mem(96 << 20),
                4,
            ),
            Step::task("c", FunctionProfile::with_millis(1, 0).peak_mem(128 << 20)),
        ]),
    );
    let dag = DagParser::default().parse(&wf).expect("parses");
    let mu = 32 << 20;
    let total = quota::workflow_quota(&dag, mu);
    let ids: Vec<FunctionId> = dag.nodes().iter().map(|n| n.id).collect();
    for split in 0..=ids.len() {
        let left = quota::subset_quota(&dag, ids[..split].iter().copied(), mu);
        let right = quota::subset_quota(&dag, ids[split..].iter().copied(), mu);
        assert_eq!(left + right, total, "split at {split}");
    }
}

#[test]
fn per_invocation_cleanup_is_complete_across_both_stores() {
    let mut fs = FaaStore::new(true);
    let mut db = RemoteStore::default();
    let wf = WorkflowId::new(0);
    fs.memstore_mut().set_budget(wf, 64 << 20);
    for inv in 0..4u32 {
        for f in 0..3u32 {
            let k = key(0, inv, f);
            if fs.decide_put(k, 1 << 20, StorageType::Mem, HERE, &[HERE]) == Placement::Remote {
                db.put(k, 1 << 20);
            }
        }
    }
    for inv in 0..4u32 {
        fs.release_invocation(wf, InvocationId::new(inv));
        db.release_invocation(InvocationId::new(inv));
    }
    assert_eq!(fs.memstore().object_count(), 0);
    assert_eq!(db.object_count(), 0);
    assert_eq!(fs.memstore().used(wf), 0);
}
