//! # reis-sched — persistent work-stealing worker pool
//!
//! REIS's throughput case rests on keeping every channel/die busy while the
//! host stays decoupled from device-side work. Before this crate, the engine
//! spawned scoped threads anew for every adaptive scan window — and the
//! per-window spawn/join overhead ate the sharding win at transfer-optimal
//! window sizes (what a dispatch costs today is `sched.scope_dispatch_us`
//! in `reis-perf`). [`WorkerPool`] is the fix:
//! a long-lived pool built on std
//! primitives only, constructed once per [`ReisSystem`](../reis_core) and
//! reused by every query path afterwards, so no query or mutation path
//! creates threads after system construction.
//!
//! Design:
//!
//! * **Per-worker injector + stealable deques** — each worker owns a deque;
//!   submission round-robins across them, a worker pops its own deque from
//!   the front and steals from the back of its siblings when empty.
//! * **Parked idle workers** — an idle worker parks on a condvar after
//!   re-checking the deques under the sleeper lock (no lost wakeups), and a
//!   submission wakes exactly one sleeper.
//! * **Panic-isolating scoped execution** — [`WorkerPool::scope`] mirrors
//!   `std::thread::scope`: tasks may borrow from the caller's stack, and the
//!   scope does not return until every spawned task ran. Each task runs
//!   under `catch_unwind`; the first panic is reported as a [`TaskPanic`]
//!   value, poisoning neither the pool nor unrelated scopes.
//! * **Help-while-waiting** — a thread waiting for its scope to drain runs
//!   queued tasks itself instead of blocking. This keeps nested scopes
//!   deadlock-free even on a one-worker pool, and lets pool size 1 make
//!   progress at all.
//!
//! Scheduling never influences *what* is computed: callers merge results in
//! shard/worker order from slots they own, so results and logical accounting
//! are bit-identical across pool sizes — property-tested by
//! `crates/core/tests/scheduler.rs` and enforced by the `scheduler-gate` CI
//! job.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;

pub use pool::{
    host_parallelism, parse_pool_size, pool_size_from_env, Scope, TaskPanic, WorkerContext,
    WorkerPool, POOL_SIZE_ENV,
};
