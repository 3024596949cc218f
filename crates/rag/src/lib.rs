//! # reis-rag — end-to-end RAG pipeline latency model
//!
//! The RAG pipeline of Sec. 2.1 / 3.1 has six measurable stages: loading the
//! embedding model, encoding the query, loading the dataset from storage,
//! the ANNS search itself, loading the generation model, and generation.
//! REIS only changes the middle two (dataset loading disappears, search moves
//! into the SSD), so the end-to-end figures (Figs. 2–3, Table 4) are obtained
//! by composing a retrieval-stage estimate — from `reis-core` for REIS or
//! `reis-baseline` for the CPU systems — with fixed stage costs calibrated to
//! the paper's measurement setup (all-roberta-large-v1 for encoding and
//! Llama 3.2 1B on an A100 for generation).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::{Deserialize, Serialize};

use reis_baseline::{CpuPrecision, CpuSystem};
use reis_workloads::DatasetProfile;

/// One stage of the RAG pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RagStage {
    /// Loading the embedding model from storage onto the accelerator.
    EmbeddingModelLoading,
    /// Encoding the query into an embedding.
    Encoding,
    /// Loading the vector database + documents from storage into host DRAM
    /// (absent when retrieval runs in storage).
    DatasetLoading,
    /// The ANNS search plus document retrieval.
    Search,
    /// Loading the generation model (the LLM).
    GenerationModelLoading,
    /// LLM generation of the response.
    Generation,
}

impl RagStage {
    /// All stages in pipeline order.
    pub fn all() -> [RagStage; 6] {
        [
            RagStage::EmbeddingModelLoading,
            RagStage::Encoding,
            RagStage::DatasetLoading,
            RagStage::Search,
            RagStage::GenerationModelLoading,
            RagStage::Generation,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            RagStage::EmbeddingModelLoading => "Embedding Model Loading",
            RagStage::Encoding => "Encoding",
            RagStage::DatasetLoading => "Dataset Loading",
            RagStage::Search => "Search",
            RagStage::GenerationModelLoading => "Generation Model Loading",
            RagStage::Generation => "Generation",
        }
    }
}

/// Latencies of the stages REIS does not change, in seconds.
///
/// Calibrated to the paper's setup (Table 4): all-roberta-large-v1 encoding
/// and Llama 3.2 1B generation on an NVIDIA A100.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RagModelParams {
    /// Embedding-model loading time, seconds.
    pub embedding_model_load_s: f64,
    /// Query encoding time, seconds.
    pub encoding_s: f64,
    /// Generation-model loading time, seconds.
    pub generation_model_load_s: f64,
    /// Generation time, seconds.
    pub generation_s: f64,
}

impl RagModelParams {
    /// The paper's measurement setup: roberta-large encoder + Llama 3.2 1B
    /// generator on an A100, reproducing the Table 4 stage times.
    pub fn roberta_llama_1b() -> Self {
        RagModelParams {
            embedding_model_load_s: 0.62,
            encoding_s: 0.11,
            generation_model_load_s: 0.79,
            generation_s: 17.45,
        }
    }
}

impl Default for RagModelParams {
    fn default() -> Self {
        RagModelParams::roberta_llama_1b()
    }
}

/// Per-stage latency of one end-to-end RAG run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RagBreakdown {
    /// Embedding-model loading, seconds.
    pub embedding_model_loading: f64,
    /// Encoding, seconds.
    pub encoding: f64,
    /// Dataset loading, seconds (zero for in-storage retrieval).
    pub dataset_loading: f64,
    /// Search (and document retrieval), seconds.
    pub search: f64,
    /// Generation-model loading, seconds.
    pub generation_model_loading: f64,
    /// Generation, seconds.
    pub generation: f64,
}

impl RagBreakdown {
    /// End-to-end latency in seconds.
    pub fn total(&self) -> f64 {
        self.embedding_model_loading
            + self.encoding
            + self.dataset_loading
            + self.search
            + self.generation_model_loading
            + self.generation
    }

    /// The latency of one stage in seconds.
    pub fn stage(&self, stage: RagStage) -> f64 {
        match stage {
            RagStage::EmbeddingModelLoading => self.embedding_model_loading,
            RagStage::Encoding => self.encoding,
            RagStage::DatasetLoading => self.dataset_loading,
            RagStage::Search => self.search,
            RagStage::GenerationModelLoading => self.generation_model_loading,
            RagStage::Generation => self.generation,
        }
    }

    /// The fraction of the end-to-end latency one stage contributes.
    pub fn fraction(&self, stage: RagStage) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.stage(stage) / total
        }
    }

    /// The fraction of the end-to-end latency attributable to the retrieval
    /// stage (dataset loading + search) — the paper's "I/O data movement
    /// bottleneck" metric.
    pub fn retrieval_fraction(&self) -> f64 {
        self.fraction(RagStage::DatasetLoading) + self.fraction(RagStage::Search)
    }
}

/// The end-to-end pipeline model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RagPipeline {
    params: RagModelParams,
}

impl RagPipeline {
    /// Create a pipeline with the given fixed-stage parameters.
    pub fn new(params: RagModelParams) -> Self {
        RagPipeline { params }
    }

    /// Compose a breakdown from explicit retrieval-stage costs.
    pub fn breakdown(&self, dataset_loading_s: f64, search_s: f64) -> RagBreakdown {
        RagBreakdown {
            embedding_model_loading: self.params.embedding_model_load_s,
            encoding: self.params.encoding_s,
            dataset_loading: dataset_loading_s,
            search: search_s,
            generation_model_loading: self.params.generation_model_load_s,
            generation: self.params.generation_s,
        }
    }

    /// Breakdown of a CPU-based pipeline on a dataset profile: the dataset is
    /// loaded from storage and searched in host memory.
    pub fn cpu_breakdown(
        &self,
        cpu: &CpuSystem,
        profile: &DatasetProfile,
        precision: CpuPrecision,
    ) -> RagBreakdown {
        let estimate = cpu.cpu_real(profile, 1, None, precision);
        self.breakdown(estimate.load_seconds, estimate.search_seconds_per_query)
    }

    /// Breakdown of a REIS pipeline: no dataset loading; the search stage is
    /// the in-storage retrieval latency (seconds).
    pub fn reis_breakdown(&self, retrieval_seconds: f64) -> RagBreakdown {
        self.breakdown(0.0, retrieval_seconds)
    }
}

impl Default for RagPipeline {
    fn default() -> Self {
        RagPipeline::new(RagModelParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_pipeline_on_wiki_en_is_dominated_by_dataset_loading() {
        // Reproduces the qualitative result of Fig. 2: for wiki_en the
        // retrieval stage (dominated by dataset loading) takes the large
        // majority of the end-to-end time with f32 embeddings.
        let pipeline = RagPipeline::default();
        let cpu = CpuSystem::default();
        let wiki = DatasetProfile::wiki_en();
        let breakdown = pipeline.cpu_breakdown(&cpu, &wiki, CpuPrecision::Float32);
        assert!(
            breakdown.retrieval_fraction() > 0.6,
            "retrieval fraction {:.2} should dominate",
            breakdown.retrieval_fraction()
        );
        // BQ reduces but does not eliminate the bottleneck (Fig. 3).
        let bq = pipeline.cpu_breakdown(&cpu, &wiki, CpuPrecision::BinaryWithRerank);
        assert!(bq.dataset_loading < breakdown.dataset_loading);
        assert!(bq.retrieval_fraction() > 0.4);
    }

    #[test]
    fn reis_pipeline_makes_generation_the_bottleneck() {
        // Table 4: with REIS the combined loading+search share collapses to
        // well under a percent and generation dominates (~92%).
        let pipeline = RagPipeline::default();
        let breakdown = pipeline.reis_breakdown(0.004);
        assert!(breakdown.retrieval_fraction() < 0.01);
        assert!(breakdown.fraction(RagStage::Generation) > 0.85);
        assert_eq!(breakdown.dataset_loading, 0.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let pipeline = RagPipeline::default();
        let b = pipeline.breakdown(3.0, 0.5);
        let sum: f64 = RagStage::all().iter().map(|&s| b.fraction(s)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(b.total() > 0.0);
        for stage in RagStage::all() {
            assert!(!stage.label().is_empty());
        }
    }

    #[test]
    fn larger_generators_shrink_the_retrieval_share() {
        let small = RagPipeline::new(RagModelParams::roberta_llama_1b());
        // A 90B-class generator: generation grows by about an order of
        // magnitude, the caveat Sec. 3.1 discusses.
        let large = RagPipeline::new(RagModelParams {
            generation_s: 170.0,
            ..RagModelParams::roberta_llama_1b()
        });
        let cpu = CpuSystem::default();
        let p = DatasetProfile::hotpotqa();
        let a = small.cpu_breakdown(&cpu, &p, CpuPrecision::Float32);
        let b = large.cpu_breakdown(&cpu, &p, CpuPrecision::Float32);
        assert!(b.retrieval_fraction() < a.retrieval_fraction());
    }
}
