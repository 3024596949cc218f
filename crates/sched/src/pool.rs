//! The work-stealing pool, its scoped-execution API and worker-local slots.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable overriding the pool size picked at system
/// construction (the scheduler gate runs the identity suites at pool sizes
/// 1 and 4 through it).
pub const POOL_SIZE_ENV: &str = "REIS_SCHED_WORKERS";

/// How long a parked worker or scope waiter sleeps before re-checking the
/// deques. A safety net only — the wakeup protocol notifies eagerly; the
/// timeout bounds the damage of any missed edge to one period.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// A queued unit of work. Scoped tasks are lifetime-erased to `'static` at
/// spawn; the scope's wait-for-drain guarantee is what makes that sound.
type Task = Box<dyn FnOnce(&WorkerContext) + Send + 'static>;

/// Parse a pool-size override, falling back on anything absent or invalid
/// (zero included — a pool always has at least one worker).
pub fn parse_pool_size(raw: Option<&str>, fallback: usize) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => fallback.max(1),
    }
}

/// Pool size from [`POOL_SIZE_ENV`], else `fallback` (clamped to ≥ 1).
pub fn pool_size_from_env(fallback: usize) -> usize {
    parse_pool_size(std::env::var(POOL_SIZE_ENV).ok().as_deref(), fallback)
}

/// The host's parallelism, the scan budget a system splits across shards:
/// `REIS_TEST_PARALLELISM` when set to a positive count (so CI can pin
/// different budgets on one machine and diff the runs), else
/// [`std::thread::available_parallelism`], else 1.
pub fn host_parallelism() -> usize {
    std::env::var("REIS_TEST_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// State shared between the pool handle, its workers and scope waiters.
struct Shared {
    /// One deque per worker. Submissions round-robin across them; worker
    /// `i` pops `queues[i]` from the front and steals from the back of the
    /// others.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin injection cursor.
    next_queue: AtomicUsize,
    /// Number of workers currently parked, guarded so a submitter and a
    /// parking worker serialize their queue-check/notify steps.
    sleepers: Mutex<usize>,
    /// Wakes parked workers on submission and shutdown.
    wakeup: Condvar,
    /// Set once by `Drop`; workers exit when they see it with empty deques.
    shutdown: AtomicBool,
}

impl Shared {
    /// Queue a task and wake a parked worker if there is one.
    fn push(&self, task: Task) {
        let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[slot].lock().unwrap().push_back(task);
        // Taking the sleeper lock after the push closes the lost-wakeup
        // window: a worker that saw this deque empty either has not yet
        // incremented `sleepers` (it will re-check the deques first) or is
        // already counted and gets notified here.
        let sleepers = self.sleepers.lock().unwrap();
        if *sleepers > 0 {
            self.wakeup.notify_one();
        }
    }

    /// Pop a task, preferring `home`'s own deque (front), then stealing
    /// from the back of the others in ring order. Non-blocking.
    fn find_task(&self, home: usize) -> Option<Task> {
        let n = self.queues.len();
        if let Some(task) = self.queues[home % n].lock().unwrap().pop_front() {
            return Some(task);
        }
        for offset in 1..n {
            if let Some(task) = self.queues[(home + offset) % n].lock().unwrap().pop_back() {
                return Some(task);
            }
        }
        None
    }

    /// True if any deque holds a task.
    fn any_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    /// Park the calling worker until woken or timed out. Re-checks the
    /// deques and the shutdown flag under the sleeper lock so it cannot
    /// sleep through a submission that raced the park.
    fn park(&self) {
        let mut sleepers = self.sleepers.lock().unwrap();
        if self.shutdown.load(Ordering::Acquire) || self.any_queued() {
            return;
        }
        *sleepers += 1;
        let (guard, _) = self.wakeup.wait_timeout(sleepers, PARK_TIMEOUT).unwrap();
        sleepers = guard;
        *sleepers -= 1;
    }
}

/// The long-lived work-stealing worker pool. Constructed once (per
/// `ReisSystem`); every scan shard executes on it afterwards through
/// [`WorkerPool::scope`]. Dropping the pool shuts
/// the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` long-lived threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            next_queue: AtomicUsize::new(0),
            sleepers: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("reis-sched-{index}"))
                    .spawn(move || worker_main(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Spawn a pool sized by [`POOL_SIZE_ENV`], else `fallback`.
    pub fn from_env(fallback: usize) -> Self {
        Self::new(pool_size_from_env(fallback))
    }

    /// Run `body` with a [`Scope`] on which tasks borrowing from the
    /// caller's stack can be spawned, and wait for all of them — helping
    /// to run queued tasks while waiting. Returns `body`'s value, or the
    /// first task panic as a [`TaskPanic`] (the pool stays fully usable).
    ///
    /// If `body` itself panics, the scope still waits for every spawned
    /// task before unwinding (the borrows must outlive the tasks).
    pub fn scope<'env, F, R>(&self, body: F) -> Result<R, TaskPanic>
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = {
            // The guard waits for the scope to drain even when `body`
            // unwinds, so no queued task can outlive the `'env` borrows.
            let _wait = WaitGuard {
                shared: &self.shared,
                state: &state,
            };
            body(&scope)
        };
        match state.take_panic() {
            Some(message) => Err(TaskPanic { message }),
            None => Ok(result),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _sleepers = self.shared.sleepers.lock().unwrap();
            self.shared.wakeup.notify_all();
        }
        for handle in self.handles.drain(..) {
            // Tasks run under catch_unwind, so workers only exit cleanly.
            let _ = handle.join();
        }
    }
}

/// Worker thread main loop: run everything findable, then park.
fn worker_main(shared: &Shared, index: usize) {
    let ctx = WorkerContext { index };
    loop {
        if let Some(task) = shared.find_task(index) {
            task(&ctx);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        shared.park();
    }
}

/// Identifies which pool thread is running a task: worker index, or one
/// past the last worker index for a scope waiter helping out.
#[derive(Debug, Clone, Copy)]
pub struct WorkerContext {
    index: usize,
}

/// Per-scope completion tracking: outstanding task count plus the first
/// captured panic message.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<String>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn add(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn finish(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, message: String) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    fn take_panic(&self) -> Option<String> {
        self.panic.lock().unwrap().take()
    }
}

/// Render a panic payload the way `std` does for unwinding threads.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Waits for a scope's tasks, helping to run queued work instead of
/// blocking. Helping is what makes nested scopes safe: a worker whose task
/// opens an inner scope drains tasks (its own inner shards included) while
/// it waits, so even a one-worker pool cannot deadlock on nesting.
struct WaitGuard<'a> {
    shared: &'a Shared,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        let helper = WorkerContext {
            index: self.shared.queues.len(),
        };
        loop {
            if let Some(task) = self.shared.find_task(helper.index) {
                task(&helper);
                continue;
            }
            let pending = self.state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // Timed wait: a task stolen by another scope's waiter finishes
            // with a notify, but the timeout also bounds any missed edge.
            let _ = self.state.done.wait_timeout(pending, PARK_TIMEOUT).unwrap();
        }
    }
}

/// A scope handed to [`WorkerPool::scope`]'s body; tasks spawned on it may
/// borrow anything that outlives `'env` and are guaranteed to finish before
/// `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, exactly like `std::thread::Scope`.
    _env: PhantomData<&'scope mut &'env ()>,
}

impl fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &*self.state.pending.lock().unwrap())
            .finish()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queue `task` on the pool. It runs on some worker (or on a helping
    /// waiter) before the enclosing [`WorkerPool::scope`] call returns; a
    /// panic inside it is captured into the scope's [`TaskPanic`] instead
    /// of unwinding through the pool.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce(&WorkerContext) + Send + 'env,
    {
        self.state.add();
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce(&WorkerContext) + Send + 'env> =
            Box::new(move |ctx: &WorkerContext| {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(ctx))) {
                    state.record_panic(panic_message(payload));
                }
                state.finish();
            });
        // SAFETY: lifetime erasure only. The enclosing `scope` call cannot
        // return — even by unwinding — until this scope's pending count hits
        // zero (`WaitGuard`), which happens strictly after `wrapped` has
        // run; the closure therefore never outlives the `'env` borrows it
        // captures. `finish` is called after the closure body completes, so
        // there is no window where the count is zero with the task live.
        let wrapped: Task = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&WorkerContext) + Send + 'env>,
                Box<dyn FnOnce(&WorkerContext) + Send + 'static>,
            >(wrapped)
        };
        self.pool.shared.push(wrapped);
    }
}

/// A task spawned in a [`WorkerPool::scope`] panicked. The panic is
/// contained: the pool, its workers and every other scope keep working;
/// callers surface this as an error value (`ReisError::WorkerPanic` in
/// `reis-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, rendered as text.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_spawned_task() {
        let pool = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        let result = pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
            "body value"
        });
        assert_eq!(result, Ok("body value"));
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_borrow_stack_data() {
        let pool = WorkerPool::new(2);
        let mut cells: Vec<Mutex<u64>> = (0..16).map(|_| Mutex::new(0)).collect();
        pool.scope(|s| {
            for (i, cell) in cells.iter().enumerate() {
                s.spawn(move |_| {
                    *cell.lock().unwrap() = i as u64 + 1;
                });
            }
        })
        .unwrap();
        let total: u64 = cells.iter_mut().map(|c| *c.get_mut().unwrap()).sum();
        assert_eq!(total, (1..=16).sum::<u64>());
    }

    #[test]
    fn panic_is_isolated_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        let result = pool.scope(|s| {
            s.spawn(|_| panic!("boom in task"));
            for _ in 0..31 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let err = result.unwrap_err();
        assert!(err.message.contains("boom in task"), "{}", err.message);
        // Every non-panicking sibling still ran.
        assert_eq!(count.load(Ordering::Relaxed), 31);
        // The pool is not poisoned: a later scope works normally.
        let again = pool.scope(|s| {
            s.spawn(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(again, Ok(()));
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn scope_body_panic_still_waits_for_tasks() {
        let pool = WorkerPool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.scope(|s| {
                for _ in 0..8 {
                    let seen = Arc::clone(&seen);
                    s.spawn(move |_| {
                        seen.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body bails out");
            });
        }));
        assert!(outcome.is_err());
        // The drop guard drained the scope before the unwind continued.
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scopes_on_one_worker_cannot_deadlock() {
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|_| {
                    // The worker waits on the inner scope while helping,
                    // so it runs the inner tasks itself.
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|_| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn parse_pool_size_contract() {
        assert_eq!(parse_pool_size(None, 3), 3);
        assert_eq!(parse_pool_size(Some("4"), 3), 4);
        assert_eq!(parse_pool_size(Some(" 2 "), 3), 2);
        assert_eq!(parse_pool_size(Some("0"), 3), 3);
        assert_eq!(parse_pool_size(Some("nope"), 3), 3);
        assert_eq!(parse_pool_size(None, 0), 1);
    }

    #[test]
    fn drop_joins_cleanly() {
        for _ in 0..8 {
            let pool = WorkerPool::new(2);
            pool.scope(|s| {
                s.spawn(|_| {});
            })
            .unwrap();
            drop(pool);
        }
    }
}
