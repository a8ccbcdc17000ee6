//! The reference kernel that host costs are expressed in.
//!
//! On a host whose cores are shared, CPU speed drifts by up to ±40% over
//! tens of seconds. A fixed kernel timed next to every round slows down
//! with it, so host time divided by the kernel's time is far steadier than
//! host time alone. The kernel shares no code with the simulator, so a
//! faster simulator still reads faster.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass of the kernel takes: a binary heap and a hash map, the
/// structures the event loop spends its time in, driven by a fixed
/// xorshift sequence.
pub fn reference_pass() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        map.insert(x % 50_000, i);
        if i % 2 == 1 {
            if let Some(Reverse(v)) = heap.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        acc = acc.wrapping_add(map.get(&(x % 40_000)).copied().unwrap_or(0));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
