//! Order-preserving parallel map for independent sweep points.
//!
//! Each point of a figure sweep (a `θ` value, a `g` value, …) generates
//! its own workload and runs its own engines — embarrassingly parallel.
//! [`par_map`] fans the points out over scoped std threads and
//! returns results in input order, so tables and checks are unaffected by
//! scheduling. Determinism is preserved because every sweep point derives
//! its randomness from its own explicit seed, never from shared state.

use std::sync::{mpsc, Mutex};

/// Applies `f` to every item on its own thread (bounded by available
/// parallelism), returning outputs in input order.
///
/// # Panics
///
/// Propagates the first worker panic.
pub(crate) fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    par_map_with_workers(items, workers, f)
}

/// [`par_map`] with an explicit worker count. Exposed so tests can force
/// the multi-threaded path on single-core machines (where [`par_map`]
/// would otherwise take the serial fallback).
fn par_map_with_workers<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    // Work queue of (index, item); results land in their slot.
    let queue = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|scope| {
        // Bounded to `n`: the channel can never hold more than one result
        // per item, so a capacity of `n` makes the bound explicit (and a
        // stalled collector backpressures workers instead of buffering
        // without limit).
        let (tx, rx) = mpsc::sync_channel::<(usize, U)>(n);
        for _ in 0..workers.min(n) {
            let (queue, f, tx) = (&queue, &f, tx.clone());
            scope.spawn(move || loop {
                let Some((i, item)) = queue.lock().expect("queue lock").next() else {
                    return;
                };
                tx.send((i, f(item))).expect("collector outlives workers");
            });
        }
        drop(tx);
        for (i, out) in rx {
            slots[i] = Some(out);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Builds the redundant hierarchies of a [`MultiHierarchy`](ifi_hierarchy::MultiHierarchy) in parallel,
/// one BFS per root over [`par_map`]. Each tree derives only from the
/// shared (immutable) topology and its own root, so the result is
/// identical to the serial `MultiHierarchy::with_roots` — at `N = 10^5`
/// the per-root BFS dominates multi-tree setup, and this fans it out.
///
/// # Panics
///
/// As `MultiHierarchy::from_trees`: empty or duplicate `roots`.
pub(crate) fn build_multi_hierarchy(
    topology: &ifi_overlay::Topology,
    roots: &[ifi_sim::PeerId],
) -> ifi_hierarchy::MultiHierarchy {
    let trees = par_map(roots.to_vec(), |r| {
        ifi_hierarchy::Hierarchy::bfs(topology, r)
    });
    ifi_hierarchy::MultiHierarchy::from_trees(trees)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), |x: u64| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = par_map(Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn runs_real_work_in_parallel_without_corruption() {
        // Each task does nontrivial deterministic work; outputs must be
        // exactly reproducible regardless of scheduling.
        let a = par_map((0..16).collect(), |seed: u64| {
            let mut acc = seed;
            for _ in 0..10_000 {
                acc = ifi_sim::mix64(acc);
            }
            acc
        });
        let b: Vec<u64> = (0..16)
            .map(|seed: u64| {
                let mut acc = seed;
                for _ in 0..10_000 {
                    acc = ifi_sim::mix64(acc);
                }
                acc
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn preserves_order_under_shuffled_completion() {
        // Force completion order to differ from input order: each item
        // sleeps for a duration drawn from a seeded shuffle, so late
        // inputs routinely finish first. Results must still come back in
        // input order, and the bounded channel must absorb every result
        // (capacity = n) without deadlocking.
        let n = 24u64;
        let seed = 0x5EED_5EED;
        let out = par_map_with_workers((0..n).collect(), 4, |i: u64| {
            let rank = ifi_sim::mix64(seed ^ i) % n;
            std::thread::sleep(std::time::Duration::from_millis(rank / 4));
            (i, rank)
        });
        let expect: Vec<(u64, u64)> = (0..n).map(|i| (i, ifi_sim::mix64(seed ^ i) % n)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_multi_hierarchy_matches_serial_build() {
        use ifi_sim::PeerId;
        let topo = ifi_overlay::Topology::random_regular(300, 4, &mut ifi_sim::DetRng::new(21));
        let roots = [PeerId::new(7), PeerId::new(42), PeerId::new(199)];
        let parallel = build_multi_hierarchy(&topo, &roots);
        let serial = ifi_hierarchy::MultiHierarchy::with_roots(&topo, &roots);
        assert_eq!(parallel.roots(), serial.roots());
        for (a, b) in parallel.trees().iter().zip(serial.trees()) {
            assert_eq!(a, b, "parallel BFS must be bit-identical to serial");
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = par_map(vec![1u32, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
