//! # reis-cluster — aggregator–leaf scale-out over N REIS devices
//!
//! One logical corpus, partitioned across N independent leaf
//! [`ReisSystem`](reis_core::ReisSystem) instances behind an aggregator
//! that fans queries out, merges per-leaf answers and routes mutations to
//! the owning shard. The headline property is **bit-identity**: for any
//! leaf count, the cluster's search results, retrieved documents and
//! summed transferred-entry accounting equal a single-device deployment
//! of the union corpus (see `crates/core/tests/scaleout.rs`) — and, under
//! injected leaf faults, stay bit-identical as long as every shard keeps
//! one live replica, degrading to an explicitly reported shard subset
//! otherwise (see `crates/core/tests/fault_tolerance.rs`).
//!
//! * [`router`] — deterministic document sharding: contiguous slices of
//!   the union's storage order, an owner map for deploy-time ids,
//!   round-robin routing for later inserts, and shard-major replica
//!   groups when a replication factor is configured.
//! * [`latency`] — modelled per-leaf latency skew (seeded, deterministic)
//!   and hedged duplicate requests for straggler tolerance.
//! * [`fault`] — seeded, deterministic fault injection at the
//!   aggregator→leaf call boundary ([`FaultPlan`]): transient
//!   unavailability, timeouts and permanent kills, replayable call for
//!   call.
//! * [`health`] — the per-leaf health state machine, the bounded
//!   retry/backoff policy and the [`ShardCoverage`] degradation
//!   contract.
//! * [`cluster`] — [`ClusterSystem`], the aggregator itself: deploy,
//!   search (merged exactly by [`reis_core::merge_top_k`]), batched search, mutation routing with replica lockstep,
//!   retry/failover/degradation, per-leaf durability, cluster-manifest
//!   recovery and down-leaf rejoin — and, through its
//!   [`Backend`](reis_core::Backend) implementation, the request pipeline
//!   ([`ClusterSystem::pipeline`] is the generic [`reis_core::Pipeline`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod fault;
pub mod health;
pub mod latency;
pub mod router;

pub use cluster::{ClusterActivity, ClusterRecovery, ClusterSearchOutcome, ClusterSystem};
pub use fault::{FaultDecision, FaultPlan};
pub use health::{HealthState, LeafHealth, RetryPolicy, ShardCoverage};
pub use latency::{HedgePolicy, LatencyModel};
pub use router::ShardRouter;
