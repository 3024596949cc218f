//! The asynchronous request pipeline over an aggregator-leaf cluster.
//!
//! Same front door as [`reis_core::Pipeline`] — bounded lanes, batch
//! formation, priority lanes, explicit [`ReisError::Overloaded`]
//! backpressure — but dispatching through [`ClusterSystem::search_batch`]
//! so a formed batch fans out across every shard once per query. The lane
//! mechanics (`PipelineConfig`, `PipelineRequest`, `LanePriority`) are
//! shared with the single-device pipeline so traces port between the two
//! unchanged.
//!
//! Virtual-time semantics are identical: callers stamp submissions, the
//! aggregator's modelled end-to-end latency prices completions, and a
//! device-busy horizon serializes dispatches. One difference in replies:
//! cluster inserts mint a stable id rather than returning a mutation
//! outcome, so they complete at dispatch time with
//! [`ClusterPipelineReply::Inserted`].

use std::collections::VecDeque;

use reis_core::{
    LanePriority, MutationOutcome, PipelineConfig, PipelineRequest, ReisError, Result,
};
use reis_telemetry::{CounterId, HistogramId};

use crate::cluster::{ClusterSearchOutcome, ClusterSystem};

/// A completed cluster request's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterPipelineReply {
    /// A search's merged cluster-wide outcome.
    Search(ClusterSearchOutcome),
    /// An insert's globally minted stable id.
    Inserted(u32),
    /// A delete or upsert outcome (from the owning shard's replicas).
    Mutation(MutationOutcome),
}

/// One completion record, mirroring [`reis_core::PipelineCompletion`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPipelineCompletion {
    /// The id [`ClusterPipeline::submit`] returned.
    pub request_id: u64,
    /// Virtual submission timestamp (the caller's).
    pub submitted_ns: u64,
    /// Virtual time the request's batch left its lane.
    pub dispatched_ns: u64,
    /// Virtual time the modelled cluster completed it.
    pub completed_ns: u64,
    /// Size of the batch the request dispatched in (1 for mutations).
    pub batch_size: usize,
    /// The answer, or the error the whole batch surfaced.
    pub reply: Result<ClusterPipelineReply>,
}

#[derive(Debug)]
struct Pending {
    request_id: u64,
    submitted_ns: u64,
    request: PipelineRequest,
}

/// The asynchronous request pipeline over a [`ClusterSystem`] (see the
/// module docs). Created by [`ClusterSystem::pipeline`].
#[derive(Debug)]
pub struct ClusterPipeline<'a> {
    system: &'a mut ClusterSystem,
    config: PipelineConfig,
    clock_ns: u64,
    device_free_ns: u64,
    searches: VecDeque<Pending>,
    mutations: VecDeque<Pending>,
    completions: Vec<ClusterPipelineCompletion>,
    next_id: u64,
    shed: u64,
}

impl ClusterSystem {
    /// Open an asynchronous request pipeline over the deployed corpus
    /// (see [`ClusterPipeline`]). The pipeline borrows the cluster
    /// exclusively; drop it (after [`ClusterPipeline::flush`]) to use
    /// the cluster directly again.
    pub fn pipeline(&mut self, config: PipelineConfig) -> ClusterPipeline<'_> {
        ClusterPipeline {
            system: self,
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
}

impl ClusterPipeline<'_> {
    /// Submit one request at virtual time `at_ns`. Semantics match
    /// [`reis_core::Pipeline::submit`].
    ///
    /// # Errors
    ///
    /// * The search's own validation error
    ///   ([`ClusterSystem::validate_search`]) for a malformed search,
    ///   returned to this submitter only; nothing is queued or shed.
    /// * [`ReisError::Overloaded`] when the request's lane is at
    ///   [`PipelineConfig::queue_depth`]; the request is shed and the
    ///   pipeline stays fully usable.
    pub fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64> {
        self.run_until(at_ns);
        self.clock_ns = self.clock_ns.max(at_ns);
        if let Some((query, k, nprobe)) = request.as_search() {
            self.system.validate_search(query, k, nprobe)?;
        }

        let telemetry = self.system.telemetry().clone();
        let lane = if request.is_mutation() {
            &mut self.mutations
        } else {
            &mut self.searches
        };
        if lane.len() >= self.config.queue_depth {
            self.shed += 1;
            telemetry.count(CounterId::PipelineShed, 1);
            return Err(ReisError::Overloaded {
                depth: self.config.queue_depth,
            });
        }

        let incompatible = !request.is_mutation()
            && self
                .searches
                .front()
                .is_some_and(|head| head.request.batch_key() != request.batch_key());
        if incompatible {
            self.dispatch_searches();
        }

        let request_id = self.next_id;
        self.next_id += 1;
        let is_mutation = request.is_mutation();
        let pending = Pending {
            request_id,
            submitted_ns: self.clock_ns,
            request,
        };
        let lane = if is_mutation {
            &mut self.mutations
        } else {
            &mut self.searches
        };
        lane.push_back(pending);
        let depth = lane.len();
        telemetry.count(CounterId::PipelineRequests, 1);
        telemetry.observe(HistogramId::PipelineQueueDepth, depth as u64);

        if !is_mutation && self.searches.len() >= self.config.max_batch {
            self.dispatch_searches();
        }
        Ok(request_id)
    }

    /// Advance virtual time to `at_ns`, firing elapsed formation
    /// deadlines in deadline order (ties broken by [`LanePriority`]).
    pub fn run_until(&mut self, at_ns: u64) {
        loop {
            let search_deadline = self
                .searches
                .front()
                .map(|p| p.submitted_ns.saturating_add(self.config.max_wait_ns));
            let mutation_deadline = self
                .mutations
                .front()
                .map(|p| p.submitted_ns.saturating_add(self.config.max_wait_ns));
            let mutations_first = match (search_deadline, mutation_deadline) {
                (None, None) => break,
                (Some(s), None) if s <= at_ns => false,
                (None, Some(m)) if m <= at_ns => true,
                (Some(s), Some(m)) if s.min(m) <= at_ns => {
                    m < s || (m == s && self.config.priority == LanePriority::MutationsFirst)
                }
                _ => break,
            };
            let deadline = if mutations_first {
                mutation_deadline.unwrap()
            } else {
                search_deadline.unwrap()
            };
            self.clock_ns = self.clock_ns.max(deadline);
            if mutations_first {
                self.dispatch_mutations();
            } else {
                self.dispatch_searches();
            }
        }
        self.clock_ns = self.clock_ns.max(at_ns);
    }

    /// Dispatch everything still queued, in priority order.
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
    pub fn drain_completions(&mut self) -> Vec<ClusterPipelineCompletion> {
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

    /// The current virtual time, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    fn dispatch_searches(&mut self) {
        if self.config.priority == LanePriority::MutationsFirst && !self.mutations.is_empty() {
            self.dispatch_mutations();
        }
        if self.searches.is_empty() {
            return;
        }
        let batch: Vec<Pending> = self.searches.drain(..).collect();
        let dispatched_ns = self.clock_ns;
        let start_ns = dispatched_ns.max(self.device_free_ns);
        let batch_size = batch.len();
        let telemetry = self.system.telemetry().clone();
        telemetry.observe(HistogramId::PipelineBatchSize, batch_size as u64);
        for pending in &batch {
            telemetry.observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(pending.submitted_ns),
            );
        }

        let (k, nprobe) = batch[0]
            .request
            .batch_key()
            .expect("search lane holds only searches");
        let queries: Vec<Vec<f32>> = batch
            .iter()
            .map(|p| {
                let (query, ..) = p
                    .request
                    .as_search()
                    .expect("search lane holds only searches");
                query.to_vec()
            })
            .collect();
        match self.system.search_batch(&queries, k, nprobe) {
            Ok(outcomes) => {
                let mut busy_until = start_ns;
                for (pending, outcome) in batch.into_iter().zip(outcomes) {
                    let completed_ns = start_ns + outcome.latency.as_nanos();
                    busy_until = busy_until.max(completed_ns);
                    self.completions.push(ClusterPipelineCompletion {
                        request_id: pending.request_id,
                        submitted_ns: pending.submitted_ns,
                        dispatched_ns,
                        completed_ns,
                        batch_size,
                        reply: Ok(ClusterPipelineReply::Search(outcome)),
                    });
                }
                self.device_free_ns = busy_until;
            }
            Err(error) => {
                for pending in batch {
                    self.completions.push(ClusterPipelineCompletion {
                        request_id: pending.request_id,
                        submitted_ns: pending.submitted_ns,
                        dispatched_ns,
                        completed_ns: start_ns,
                        batch_size,
                        reply: Err(error.clone()),
                    });
                }
            }
        }
    }

    fn dispatch_mutations(&mut self) {
        if self.mutations.is_empty() {
            return;
        }
        let lane: Vec<Pending> = self.mutations.drain(..).collect();
        let dispatched_ns = self.clock_ns;
        let telemetry = self.system.telemetry().clone();
        for pending in lane {
            telemetry.observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(pending.submitted_ns),
            );
            let start_ns = dispatched_ns.max(self.device_free_ns);
            let (completed_ns, reply) = match pending.request {
                PipelineRequest::Insert { vector, document } => {
                    match self.system.insert(&vector, document) {
                        // Cluster inserts report only the minted id, so no
                        // modelled program latency advances the horizon.
                        Ok(id) => (start_ns, Ok(ClusterPipelineReply::Inserted(id))),
                        Err(error) => (start_ns, Err(error)),
                    }
                }
                PipelineRequest::Delete { id } => match self.system.delete(id) {
                    Ok(outcome) => {
                        let done = start_ns + outcome.latency.as_nanos();
                        self.device_free_ns = done;
                        (done, Ok(ClusterPipelineReply::Mutation(outcome)))
                    }
                    Err(error) => (start_ns, Err(error)),
                },
                PipelineRequest::Upsert {
                    id,
                    vector,
                    document,
                } => match self.system.upsert(id, &vector, &document) {
                    Ok(outcome) => {
                        let done = start_ns + outcome.latency.as_nanos();
                        self.device_free_ns = done;
                        (done, Ok(ClusterPipelineReply::Mutation(outcome)))
                    }
                    Err(error) => (start_ns, Err(error)),
                },
                _ => unreachable!("mutation lane holds only mutations"),
            };
            self.completions.push(ClusterPipelineCompletion {
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
