//! The asynchronous request pipeline: REIS's front door under load.
//!
//! Callers of [`ReisSystem::search`] choose their own batch sizes; a serving
//! deployment cannot — requests arrive whenever clients send them. The
//! [`Pipeline`] turns arrivals into device work the way a real heavy-traffic
//! server would, and makes **batch size an emergent property of load**. It
//! is one front door for every deployment shape: the lanes, the formation
//! rule and the virtual clock are written once, generic over the small
//! [`Backend`] contract, and instantiated for one database of one device
//! ([`ReisSystem::pipeline`]) and — in `reis-cluster` — for a whole
//! aggregator-leaf cluster.
//!
//! * **Bounded submission queues.** Each lane holds at most
//!   [`PipelineConfig::queue_depth`] requests; past that, [`Pipeline::submit`]
//!   returns [`ReisError::Overloaded`] — explicit backpressure instead of
//!   unbounded queueing.
//! * **Batch formation.** Compatible searches (same `k`/`nprobe`) collect
//!   until the batch reaches [`PipelineConfig::max_batch`] or its oldest
//!   member has waited [`PipelineConfig::max_wait_ns`], then the whole batch
//!   executes as one request of the scan core (one sense per distinct page
//!   for the entire batch). Under light load batches stay small and latency
//!   low; under heavy load they fill and throughput rises.
//! * **Priority lanes.** Mutations and searches queue separately;
//!   [`LanePriority`] decides whether pending mutations drain before a
//!   search batch dispatches (`MutationsFirst`, the default — searches then
//!   observe every earlier-arriving write) or wait their own turn.
//!
//! Time is **virtual**: callers stamp submissions with nanosecond
//! timestamps (e.g. from a seeded
//! [`ArrivalTrace`](../../reis_workloads/arrival) — the `pipeline_overload`
//! workload of `reis-perf` does), and completions are priced by the
//! backend's modelled latency — searches and mutations alike — serialized
//! through a device-busy horizon. The whole pipeline is therefore
//! deterministic: the same trace produces byte-identical completions on any
//! machine and any pool size, which is what lets the scheduler CI gate diff
//! its summaries, and lets a QPS-vs-p99 sweep run on a single-core host.
//!
//! Queue depth, queue wait and formed batch size are observable through
//! `reis-telemetry` (`reis_pipeline_*`), recorded only at submit/dispatch
//! points — never inside the engine — so telemetry stays non-perturbing.

use std::collections::VecDeque;

use reis_nand::Nanos;
use reis_persist::{InsertIds, Mutation};
use reis_telemetry::{CounterId, HistogramId, Telemetry};

use crate::error::{ReisError, Result};
use crate::mutate::MutationOutcome;
use crate::system::{ReisSystem, SearchOutcome};

/// Which lane dispatches first when a search batch is ready while mutations
/// are still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePriority {
    /// Drain every pending mutation before a search batch dispatches (the
    /// default): searches always observe writes that arrived before them.
    MutationsFirst,
    /// Dispatch the search batch immediately; mutations wait for their own
    /// `max_wait` deadline (lower search latency, relaxed read-your-writes).
    SearchesFirst,
}

/// Tuning knobs of a [`Pipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Largest batch handed to the scan core; a full lane dispatches
    /// immediately. Clamped to ≥ 1.
    pub max_batch: usize,
    /// Longest time the oldest queued request waits before its lane
    /// dispatches regardless of batch size, in virtual nanoseconds.
    pub max_wait_ns: u64,
    /// Per-lane submission-queue bound; submissions past it are shed with
    /// [`ReisError::Overloaded`]. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Lane dispatch order (see [`LanePriority`]).
    pub priority: LanePriority,
    /// Shard budget handed to the batched searches. Deliberately explicit
    /// (not derived from the pool size) so the formed work — and with it
    /// every diffable summary — is identical across pool sizes.
    pub workers: usize,
}

impl Default for PipelineConfig {
    /// 8-query batches, 200 µs formation window, 64-deep lanes,
    /// mutations-first, 4 executor workers.
    fn default() -> Self {
        PipelineConfig {
            max_batch: 8,
            max_wait_ns: 200_000,
            queue_depth: 64,
            priority: LanePriority::MutationsFirst,
            workers: 4,
        }
    }
}

impl PipelineConfig {
    /// Builder-style override of the maximum formed batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Builder-style override of the formation window, in microseconds.
    pub fn with_max_wait_us(mut self, us: u64) -> Self {
        self.max_wait_ns = us.saturating_mul(1_000);
        self
    }

    /// Builder-style override of the per-lane queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder-style override of the lane priority.
    pub fn with_priority(mut self, priority: LanePriority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style override of the executor worker budget.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One request submitted to the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineRequest {
    /// Brute-force top-`k` search.
    Search {
        /// The query embedding.
        query: Vec<f32>,
        /// Results requested.
        k: usize,
    },
    /// IVF top-`k` search with an explicit probe count.
    IvfSearch {
        /// The query embedding.
        query: Vec<f32>,
        /// Results requested.
        k: usize,
        /// Clusters probed.
        nprobe: usize,
    },
    /// Append one entry.
    Insert {
        /// The embedding to insert.
        vector: Vec<f32>,
        /// Its document chunk.
        document: Vec<u8>,
    },
    /// Tombstone one entry by stable id.
    Delete {
        /// The stable id to delete.
        id: u32,
    },
    /// Replace one entry by stable id.
    Upsert {
        /// The stable id to replace.
        id: u32,
        /// The replacement embedding.
        vector: Vec<f32>,
        /// The replacement document chunk.
        document: Vec<u8>,
    },
}

/// A search as the search lane holds it (`nprobe: None` = brute force).
#[derive(Debug)]
struct SearchRequest {
    query: Vec<f32>,
    k: usize,
    nprobe: Option<usize>,
}

impl SearchRequest {
    /// Two searches fuse into one batch only when they form one scan-core
    /// request: same `k` and same probe selection.
    fn batch_key(&self) -> (usize, Option<usize>) {
        (self.k, self.nprobe)
    }
}

/// A request sorted into its lane's own type, so neither lane can hold a
/// request of the other kind.
enum Lane {
    Search(SearchRequest),
    Mutation(Mutation<'static>),
}

impl PipelineRequest {
    fn into_lane(self) -> Lane {
        match self {
            PipelineRequest::Search { query, k } => Lane::Search(SearchRequest {
                query,
                k,
                nprobe: None,
            }),
            PipelineRequest::IvfSearch { query, k, nprobe } => Lane::Search(SearchRequest {
                query,
                k,
                nprobe: Some(nprobe),
            }),
            PipelineRequest::Insert { vector, document } => Lane::Mutation(Mutation::insert(
                InsertIds::Minted(None),
                [vector],
                [document],
            )),
            PipelineRequest::Delete { id } => Lane::Mutation(Mutation::Delete { id }),
            PipelineRequest::Upsert {
                id,
                vector,
                document,
            } => Lane::Mutation(Mutation::Upsert {
                id,
                vector: vector.into(),
                document: document.into(),
            }),
        }
    }
}

/// A search answer the pipeline can price on its virtual clock.
pub trait Modelled {
    /// The modelled end-to-end latency of the search.
    fn modelled_latency(&self) -> Nanos;
}

impl Modelled for SearchOutcome {
    fn modelled_latency(&self) -> Nanos {
        self.total_latency()
    }
}

/// What a [`Pipeline`] asks of whatever executes its requests — exactly the
/// calls the lane code makes, nothing else. Implemented by [`DeviceBackend`]
/// (one database of one [`ReisSystem`]) and by `&mut ClusterSystem` in
/// `reis-cluster`; the pipeline is monomorphised over it.
pub trait Backend {
    /// One search's answer.
    type Search: Modelled;

    /// Check a search without running it (`nprobe: None` = brute force):
    /// the error the search itself would raise.
    fn validate_search(&self, query: &[f32], k: usize, nprobe: Option<usize>) -> Result<()>;

    /// Execute one formed batch; answers in query order. `workers` is
    /// [`PipelineConfig::workers`].
    fn search_batch(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<Self::Search>>;

    /// Apply one mutation, as the mutation lane queued it (an insert's
    /// ids are minted as it applies).
    fn mutate(&mut self, mutation: Mutation<'_>) -> Result<MutationOutcome>;

    /// Where the pipeline records its `reis_pipeline_*` series.
    fn telemetry(&self) -> &Telemetry;
}

/// The single-device [`Backend`]: one deployed database of one
/// [`ReisSystem`], held exclusively.
#[derive(Debug)]
pub struct DeviceBackend<'a> {
    system: &'a mut ReisSystem,
    db_id: u32,
}

impl Backend for DeviceBackend<'_> {
    type Search = SearchOutcome;

    fn validate_search(&self, query: &[f32], k: usize, nprobe: Option<usize>) -> Result<()> {
        self.system.validate_search(self.db_id, query, k, nprobe)
    }

    fn search_batch(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        self.system
            .run_batch(self.db_id, queries, k, nprobe, workers)
    }

    fn mutate(&mut self, mutation: Mutation<'_>) -> Result<MutationOutcome> {
        self.system.mutate(self.db_id, mutation)
    }

    fn telemetry(&self) -> &Telemetry {
        &self.system.telemetry
    }
}

/// A completed request's answer; `S` is the backend's search answer.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineReply<S = SearchOutcome> {
    /// A search's outcome (boxed: it dwarfs the mutation variant).
    Search(Box<S>),
    /// A mutation's outcome.
    Mutation(MutationOutcome),
}

/// One completion record: when the request entered, when its batch
/// dispatched, when the modelled device finished it, and the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCompletion<S = SearchOutcome> {
    /// The id [`Pipeline::submit`] returned.
    pub request_id: u64,
    /// Virtual submission timestamp (the caller's).
    pub submitted_ns: u64,
    /// Virtual time the request's batch left its lane.
    pub dispatched_ns: u64,
    /// Virtual time the modelled device completed it. The end-to-end
    /// sojourn is `completed_ns - submitted_ns`.
    pub completed_ns: u64,
    /// Size of the batch the request dispatched in (1 for mutations).
    pub batch_size: usize,
    /// The answer, or the error the executing batch surfaced (malformed
    /// searches never get this far: [`Pipeline::submit`] refuses them).
    /// Request-level errors never poison the pipeline itself.
    pub reply: Result<PipelineReply<S>>,
}

/// A queued request with its submission metadata.
#[derive(Debug)]
struct Pending<T> {
    request_id: u64,
    submitted_ns: u64,
    request: T,
}

/// The asynchronous request pipeline over a [`Backend`] (see the module
/// docs). Created by [`ReisSystem::pipeline`] or `ClusterSystem::pipeline`;
/// holds its backend exclusively, so submissions and dispatches interleave
/// deterministically.
#[derive(Debug)]
pub struct Pipeline<B: Backend> {
    backend: B,
    config: PipelineConfig,
    /// Virtual now: the latest submission or dispatch event processed.
    clock_ns: u64,
    /// When the modelled device frees up; dispatches serialize behind it.
    device_free_ns: u64,
    searches: VecDeque<Pending<SearchRequest>>,
    mutations: VecDeque<Pending<Mutation<'static>>>,
    completions: Vec<PipelineCompletion<B::Search>>,
    next_id: u64,
    shed: u64,
}

impl ReisSystem {
    /// Open an asynchronous request pipeline over one deployed database
    /// (see [`Pipeline`]). The pipeline borrows the system exclusively;
    /// drop it (after [`Pipeline::flush`]) to use the system directly
    /// again.
    pub fn pipeline(&mut self, db_id: u32, config: PipelineConfig) -> Pipeline<DeviceBackend<'_>> {
        Pipeline::new(
            DeviceBackend {
                system: self,
                db_id,
            },
            config,
        )
    }
}

impl<B: Backend> Pipeline<B> {
    /// An empty pipeline over `backend` at virtual time 0.
    pub fn new(backend: B, config: PipelineConfig) -> Self {
        Pipeline {
            backend,
            config: PipelineConfig {
                max_batch: config.max_batch.max(1),
                queue_depth: config.queue_depth.max(1),
                workers: config.workers.max(1),
                ..config
            },
            clock_ns: 0,
            device_free_ns: 0,
            searches: VecDeque::new(),
            mutations: VecDeque::new(),
            completions: Vec::new(),
            next_id: 0,
            shed: 0,
        }
    }

    /// Submit one request at virtual time `at_ns` (timestamps must be
    /// non-decreasing across calls; earlier stamps are clamped to the
    /// current virtual clock). Returns the request id its completion will
    /// carry.
    ///
    /// # Errors
    ///
    /// * The search's own validation error ([`Backend::validate_search`])
    ///   for a malformed search — returned to this submitter only; nothing
    ///   is queued, nothing counts as shed, and the requests it would have
    ///   been batched with are unaffected.
    /// * [`ReisError::Overloaded`] when the request's lane is at
    ///   [`PipelineConfig::queue_depth`] — the request is shed, nothing is
    ///   queued, and the pipeline stays fully usable (drain by advancing
    ///   time, then resubmit).
    pub fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64> {
        // Fire every formation deadline that elapsed before this arrival.
        self.run_until(at_ns);
        let request_id = self.next_id;
        let submitted_ns = self.clock_ns;
        match request.into_lane() {
            Lane::Search(request) => {
                self.backend
                    .validate_search(&request.query, request.k, request.nprobe)?;
                self.admit(self.searches.len())?;
                // A search that cannot fuse with the forming batch closes
                // it: the lane stays homogeneous, so a dispatch always
                // takes the whole lane.
                let incompatible = self
                    .searches
                    .front()
                    .is_some_and(|head| head.request.batch_key() != request.batch_key());
                if incompatible {
                    self.dispatch_searches();
                }
                self.searches.push_back(Pending {
                    request_id,
                    submitted_ns,
                    request,
                });
                self.record_enqueued(self.searches.len());
                if self.searches.len() >= self.config.max_batch {
                    self.dispatch_searches();
                }
            }
            Lane::Mutation(request) => {
                self.admit(self.mutations.len())?;
                self.mutations.push_back(Pending {
                    request_id,
                    submitted_ns,
                    request,
                });
                self.record_enqueued(self.mutations.len());
            }
        }
        self.next_id += 1;
        Ok(request_id)
    }

    /// Shed the arriving request if its lane already holds `queued`.
    fn admit(&mut self, queued: usize) -> Result<()> {
        if queued < self.config.queue_depth {
            return Ok(());
        }
        self.shed += 1;
        self.backend.telemetry().count(CounterId::PipelineShed, 1);
        Err(ReisError::Overloaded {
            depth: self.config.queue_depth,
        })
    }

    fn record_enqueued(&self, depth: usize) {
        let telemetry = self.backend.telemetry();
        telemetry.count(CounterId::PipelineRequests, 1);
        telemetry.observe(HistogramId::PipelineQueueDepth, depth as u64);
    }

    /// Advance virtual time to `at_ns`, firing every lane whose formation
    /// deadline (`oldest submission + max_wait`) elapses on the way, in
    /// deadline order (ties broken by [`LanePriority`]).
    pub fn run_until(&mut self, at_ns: u64) {
        let max_wait_ns = self.config.max_wait_ns;
        loop {
            let search_deadline = self
                .searches
                .front()
                .map(|p| p.submitted_ns.saturating_add(max_wait_ns));
            let mutation_deadline = self
                .mutations
                .front()
                .map(|p| p.submitted_ns.saturating_add(max_wait_ns));
            // The lane whose deadline comes first, and that deadline.
            let (mutations_first, deadline) = match (search_deadline, mutation_deadline) {
                (None, None) => break,
                (Some(s), None) => (false, s),
                (None, Some(m)) => (true, m),
                (Some(s), Some(m)) => {
                    let mutations_first =
                        m < s || (m == s && self.config.priority == LanePriority::MutationsFirst);
                    (mutations_first, s.min(m))
                }
            };
            if deadline > at_ns {
                break;
            }
            self.clock_ns = self.clock_ns.max(deadline);
            if mutations_first {
                self.dispatch_mutations();
            } else {
                self.dispatch_searches();
            }
        }
        self.clock_ns = self.clock_ns.max(at_ns);
    }

    /// Dispatch everything still queued, in priority order, regardless of
    /// formation deadlines. Call before reading the final completion set.
    pub fn flush(&mut self) {
        match self.config.priority {
            LanePriority::MutationsFirst => {
                self.dispatch_mutations();
                self.dispatch_searches();
            }
            LanePriority::SearchesFirst => {
                self.dispatch_searches();
                self.dispatch_mutations();
            }
        }
    }

    /// Take every completion recorded so far, in dispatch order.
    pub fn drain_completions(&mut self) -> Vec<PipelineCompletion<B::Search>> {
        std::mem::take(&mut self.completions)
    }

    /// Requests shed with [`ReisError::Overloaded`] so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests currently queued across both lanes.
    pub fn queued(&self) -> usize {
        self.searches.len() + self.mutations.len()
    }

    /// Dispatch the whole search lane as one fused batch.
    fn dispatch_searches(&mut self) {
        // Read-your-writes: under MutationsFirst no search batch leaves
        // while an earlier-arriving mutation is still queued.
        if self.config.priority == LanePriority::MutationsFirst {
            self.dispatch_mutations();
        }
        let Some(head) = self.searches.front() else {
            return;
        };
        let (k, nprobe) = head.request.batch_key();
        let batch_size = self.searches.len();
        let dispatched_ns = self.clock_ns;
        let start_ns = dispatched_ns.max(self.device_free_ns);
        let telemetry = self.backend.telemetry();
        telemetry.observe(HistogramId::PipelineBatchSize, batch_size as u64);
        let (arrivals, queries): (Vec<(u64, u64)>, Vec<Vec<f32>>) = self
            .searches
            .drain(..)
            .map(|p| ((p.request_id, p.submitted_ns), p.request.query))
            .unzip();
        for &(_, submitted_ns) in &arrivals {
            telemetry.observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(submitted_ns),
            );
        }

        let completion =
            move |(request_id, submitted_ns), completed_ns, reply| PipelineCompletion {
                request_id,
                submitted_ns,
                dispatched_ns,
                completed_ns,
                batch_size,
                reply,
            };
        match self
            .backend
            .search_batch(&queries, k, nprobe, self.config.workers)
        {
            Ok(outcomes) => {
                // Queries of one batch share the device; the batch
                // occupies it for its slowest member while each request
                // completes at its own modelled latency.
                let mut busy_until = start_ns;
                for (arrival, outcome) in arrivals.into_iter().zip(outcomes) {
                    let completed_ns = start_ns + outcome.modelled_latency().as_nanos();
                    busy_until = busy_until.max(completed_ns);
                    let reply = Ok(PipelineReply::Search(Box::new(outcome)));
                    self.completions
                        .push(completion(arrival, completed_ns, reply));
                }
                self.device_free_ns = busy_until;
            }
            Err(error) => {
                // A device-side failure (requests were validated at
                // submission) fails the batch as a unit; no modelled time
                // elapses for work the device rejected.
                for arrival in arrivals {
                    self.completions
                        .push(completion(arrival, start_ns, Err(error.clone())));
                }
            }
        }
    }

    /// Dispatch the whole mutation lane, sequentially in arrival order
    /// (mutations serialize on the device's program path).
    fn dispatch_mutations(&mut self) {
        let dispatched_ns = self.clock_ns;
        while let Some(pending) = self.mutations.pop_front() {
            self.backend.telemetry().observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(pending.submitted_ns),
            );
            let start_ns = dispatched_ns.max(self.device_free_ns);
            let (completed_ns, reply) = match self.backend.mutate(pending.request) {
                Ok(outcome) => {
                    let done = start_ns + outcome.latency.as_nanos();
                    self.device_free_ns = done;
                    (done, Ok(PipelineReply::Mutation(outcome)))
                }
                Err(error) => (start_ns, Err(error)),
            };
            self.completions.push(PipelineCompletion {
                request_id: pending.request_id,
                submitted_ns: pending.submitted_ns,
                dispatched_ns,
                completed_ns,
                batch_size: 1,
                reply,
            });
        }
    }
}
