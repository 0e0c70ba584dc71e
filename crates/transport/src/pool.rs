//! A pool of parked helper threads, reused across runs.
//!
//! Starting and joining an OS thread costs tens of microseconds, and one
//! TCP run needs about 130 short-lived helpers (a reader per peer, a
//! forwarder per hub connection, the accept loop, the chaos courier). A
//! finished helper therefore parks instead of exiting, and the next
//! [`spawn`] hands it a new job. A worker parked for [`IDLE_RETIRE`]
//! exits on its own, so an idle process gives its threads back.
//!
//! A parked worker waits on a one-job slot (`Mutex<Option<Job>>` plus a
//! `Condvar`), which keeps its heap footprint to the slot and std's own
//! per-thread state. The idle list is the ownership token: a spawner
//! pops a worker off it before filling the slot, and a worker that timed
//! out retires only if it can still take itself off the list, so a
//! retired worker is never handed a job.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How long a parked worker waits for a job before it exits.
const IDLE_RETIRE: Duration = Duration::from_secs(5);

type Job = Box<dyn FnOnce() + Send>;

/// The process-wide pool every fabric helper is started from.
static POOL: Pool = Pool::new(IDLE_RETIRE);

/// Runs `f` on a pooled worker. Like [`thread::spawn`], a panic in `f`
/// is caught and surfaces as the `Err` of [`Task::join`].
pub(crate) fn spawn<T, F>(f: F) -> Task<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    POOL.spawn(f)
}

/// A handle to a pooled job's result, the pooled [`thread::JoinHandle`].
pub(crate) struct Task<T> {
    done: Arc<Done<T>>,
}

struct Done<T> {
    result: Mutex<Option<thread::Result<T>>>,
    ready: Condvar,
}

impl<T> Task<T> {
    /// Waits for the job to finish; `Err` carries its panic payload.
    pub(crate) fn join(self) -> thread::Result<T> {
        let mut result = self.done.result.lock().expect("task result poisoned");
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            result = self.done.ready.wait(result).expect("task result poisoned");
        }
    }
}

/// One parked thread's job slot.
struct Worker {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

struct Pool {
    idle: Mutex<Vec<Arc<Worker>>>,
    retire_after: Duration,
    /// Threads started so far, for the reuse tests.
    #[cfg(test)]
    started: std::sync::atomic::AtomicUsize,
}

impl Pool {
    const fn new(retire_after: Duration) -> Pool {
        Pool {
            idle: Mutex::new(Vec::new()),
            retire_after,
            #[cfg(test)]
            started: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn spawn<T, F>(&'static self, f: F) -> Task<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let done = Arc::new(Done {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let finish = Arc::clone(&done);
        let job: Job = Box::new(move || {
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            *finish.result.lock().expect("task result poisoned") = Some(r);
            finish.ready.notify_one();
        });
        let parked = self.idle.lock().expect("pool poisoned").pop();
        match parked {
            Some(w) => {
                *w.job.lock().expect("worker slot poisoned") = Some(job);
                w.wake.notify_one();
            }
            None => self.start(job),
        }
        Task { done }
    }

    fn start(&'static self, first: Job) {
        #[cfg(test)]
        self.started
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let me = Arc::new(Worker {
            job: Mutex::new(None),
            wake: Condvar::new(),
        });
        // Unnamed: a name is one more heap allocation per parked worker.
        thread::spawn(move || {
            let mut job = first;
            loop {
                job();
                self.idle
                    .lock()
                    .expect("pool poisoned")
                    .push(Arc::clone(&me));
                match self.park(&me) {
                    Some(next) => job = next,
                    None => return,
                }
            }
        });
    }

    /// Waits for the next job; `None` once the worker has retired.
    fn park(&self, me: &Arc<Worker>) -> Option<Job> {
        let mut slot = me.job.lock().expect("worker slot poisoned");
        loop {
            if let Some(job) = slot.take() {
                return Some(job);
            }
            let (guard, wait) = me
                .wake
                .wait_timeout(slot, self.retire_after)
                .expect("worker slot poisoned");
            slot = guard;
            if wait.timed_out() && slot.is_none() {
                drop(slot);
                let mut idle = self.idle.lock().expect("pool poisoned");
                if let Some(at) = idle.iter().position(|w| Arc::ptr_eq(w, me)) {
                    idle.swap_remove(at);
                    return None;
                }
                // A spawner popped us after the timeout: its job is on
                // the way.
                drop(idle);
                slot = me.job.lock().expect("worker slot poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    use super::*;

    /// A private pool, so concurrently running tests do not share counts.
    fn pool(retire_after: Duration) -> &'static Pool {
        Box::leak(Box::new(Pool::new(retire_after)))
    }

    fn started(pool: &Pool) -> usize {
        pool.started.load(Ordering::Relaxed)
    }

    /// Waits until `pool` has `n` parked workers (a worker parks just
    /// after its task's result is published).
    fn await_parked(pool: &Pool, n: usize) {
        for _ in 0..500 {
            if pool.idle.lock().unwrap().len() == n {
                return;
            }
            thread::sleep(Duration::from_millis(2));
        }
        panic!("pool never parked {n} workers");
    }

    #[test]
    fn a_panicking_task_is_an_err_at_join_and_its_worker_is_reused() {
        let pool = pool(IDLE_RETIRE);
        let err = pool
            .spawn(|| -> u32 { panic!("task blew up") })
            .join()
            .expect_err("a panic must surface at join");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"task blew up"));
        await_parked(pool, 1);
        assert_eq!(pool.spawn(|| 7).join().unwrap(), 7);
        assert_eq!(started(pool), 1, "the panicked worker must be reused");
    }

    #[test]
    fn sequential_batches_reuse_workers() {
        const WIDTH: usize = 8;
        let pool = pool(IDLE_RETIRE);
        for _ in 0..2 {
            for _ in 0..200 / WIDTH {
                // WIDTH tasks that all run at once, then all join.
                let gate = Arc::new(Barrier::new(WIDTH));
                let tasks: Vec<_> = (0..WIDTH)
                    .map(|i| {
                        let gate = Arc::clone(&gate);
                        pool.spawn(move || {
                            gate.wait();
                            i
                        })
                    })
                    .collect();
                for (i, t) in tasks.into_iter().enumerate() {
                    assert_eq!(t.join().unwrap(), i);
                }
            }
        }
        // A worker parks a moment after publishing its result, so a few
        // spawns can race ahead of it; the bulk must be reuse.
        assert!(
            started(pool) <= WIDTH + 4,
            "{} threads started for 400 tasks at width {WIDTH}",
            started(pool)
        );
    }

    #[test]
    fn an_idle_worker_retires_and_is_never_handed_a_job() {
        let pool = pool(Duration::from_millis(20));
        let ran = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&ran);
        pool.spawn(move || count.fetch_add(1, Ordering::Relaxed))
            .join()
            .unwrap();
        await_parked(pool, 1);
        await_parked(pool, 0);
        // The retired worker is gone from the idle list, so this job
        // starts a fresh thread and still runs.
        let count = Arc::clone(&ran);
        pool.spawn(move || count.fetch_add(1, Ordering::Relaxed))
            .join()
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(started(pool), 2);
    }
}
