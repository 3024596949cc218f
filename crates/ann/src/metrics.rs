//! Retrieval quality metrics.

/// Fraction of the true `k` nearest neighbors present in the retrieved list
/// (Recall@k, the quality metric used throughout the paper's evaluation).
///
/// Only the first `k` entries of each list are considered.
///
/// # Examples
///
/// ```
/// use reis_ann::metrics::recall_at_k;
///
/// let retrieved = [1, 2, 3, 9];
/// let truth = [3, 2, 7, 8];
/// assert_eq!(recall_at_k(&retrieved, &truth, 4), 0.5);
/// ```
pub fn recall_at_k(retrieved: &[usize], ground_truth: &[usize], k: usize) -> f64 {
    if k == 0 || ground_truth.is_empty() {
        return 0.0;
    }
    let truth = &ground_truth[..k.min(ground_truth.len())];
    let got = &retrieved[..k.min(retrieved.len())];
    let hits = got.iter().filter(|id| truth.contains(id)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_counts_overlap_within_top_k() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 2, 3], 3), 1.0);
        assert_eq!(recall_at_k(&[1, 9, 8], &[1, 2, 3], 3), 1.0 / 3.0);
        assert_eq!(recall_at_k(&[], &[1, 2], 2), 0.0);
        assert_eq!(recall_at_k(&[1, 2], &[], 2), 0.0);
        assert_eq!(recall_at_k(&[1, 2], &[1, 2], 0), 0.0);
    }

    #[test]
    fn recall_ignores_entries_beyond_k() {
        // The correct answer appears only after position k, so it must not count.
        assert_eq!(recall_at_k(&[9, 8, 1], &[1, 2], 2), 0.0);
    }

    #[test]
    fn recall_handles_shorter_retrieved_lists() {
        assert_eq!(recall_at_k(&[1], &[1, 2, 3, 4], 4), 0.25);
    }
}
