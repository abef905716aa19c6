//! Data importance for retrieval-augmented generation (Lyu, Grafberger,
//! Biegel, Wei, Cao, Schelter & Zhang, 2023) — the survey's §2.1 pointer to
//! valuing *retrieval-corpus* entries instead of training examples.
//!
//! The simulated substrate: a retrieval-augmented classifier that answers a
//! query by retrieving the `k` nearest corpus documents (by embedding
//! distance; for unit-norm embeddings this equals cosine ranking) and
//! majority-voting their labels. Because that predictor *is* a k-NN over
//! the corpus, the exact KNN-Shapley recursion applies verbatim — the key
//! observation of the cited paper — so each corpus document's contribution
//! to answer quality is computed exactly.

use crate::knn_shapley::{knn_shapley, knn_utility};
use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::{sq_dist, Matrix};
use nde_learners::preprocessing::text::SentenceEmbedder;
use nde_learners::{LearnError, Result};
use nde_parallel::neighbor_order::k_nearest;

/// A retrieval corpus: embedded documents with answer labels.
pub struct RagCorpus {
    /// Document embeddings (one row per document).
    pub embeddings: Matrix,
    /// Answer label per document.
    pub labels: Vec<usize>,
    /// Number of distinct answers.
    pub n_answers: usize,
}

impl RagCorpus {
    /// Embeds raw documents with the deterministic sentence embedder.
    pub fn from_texts(docs: &[(String, usize)], n_answers: usize, dims: usize) -> Result<Self> {
        if docs.is_empty() {
            return Err(LearnError::EmptyDataset);
        }
        let labels: Vec<usize> = docs.iter().map(|&(_, l)| l).collect();
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_answers) {
            return Err(LearnError::UnknownLabel {
                label: bad,
                n_classes: n_answers,
            });
        }
        Ok(RagCorpus {
            embeddings: SentenceEmbedder::new(dims).embed_matrix(docs.len(), |i| &docs[i].0),
            labels,
            n_answers,
        })
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Answers a query by majority vote over the `k` nearest documents.
    pub fn answer(&self, query: &[f64], k: usize) -> usize {
        let nearest = k_nearest(self.len(), k.max(1), |i| {
            sq_dist(self.embeddings.row(i), query)
        });
        let mut votes = vec![0usize; self.n_answers];
        for (_, i) in nearest {
            votes[self.labels[i]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(l, _)| l)
            .unwrap_or(0)
    }

    fn as_dataset(&self) -> ClassDataset {
        ClassDataset::new(self.embeddings.clone(), self.labels.clone(), self.n_answers)
            .expect("corpus invariants guarantee a valid dataset")
    }
}

/// An evaluation set of `(query embedding, gold answer)` pairs.
pub struct RagEvalSet {
    /// Query embeddings.
    pub queries: Matrix,
    /// Gold answers.
    pub gold: Vec<usize>,
}

impl RagEvalSet {
    /// Embeds raw query texts.
    pub fn from_texts(queries: &[(String, usize)], dims: usize) -> Result<Self> {
        if queries.is_empty() {
            return Err(LearnError::EmptyDataset);
        }
        Ok(RagEvalSet {
            queries: SentenceEmbedder::new(dims).embed_matrix(queries.len(), |i| &queries[i].0),
            gold: queries.iter().map(|&(_, g)| g).collect(),
        })
    }
}

/// Exact Shapley importance of every corpus document for retrieval-answer
/// quality over the evaluation set (lower = more harmful; mislabeled or
/// poisoned documents score negative).
pub fn rag_corpus_shapley(corpus: &RagCorpus, eval: &RagEvalSet, k: usize) -> Result<Vec<f64>> {
    if corpus.embeddings.ncols() != eval.queries.ncols() {
        return Err(LearnError::DimensionMismatch {
            detail: format!(
                "corpus dims {} vs query dims {}",
                corpus.embeddings.ncols(),
                eval.queries.ncols()
            ),
        });
    }
    let valid = ClassDataset::new(eval.queries.clone(), eval.gold.clone(), corpus.n_answers)?;
    Ok(knn_shapley(&corpus.as_dataset(), &valid, k))
}

/// Retrieval-answer quality of the full corpus (the utility the Shapley
/// values decompose): the mean fraction of each query's top-k documents
/// voting for the gold answer.
pub fn rag_utility(corpus: &RagCorpus, eval: &RagEvalSet, k: usize) -> f64 {
    let valid = ClassDataset::new(eval.queries.clone(), eval.gold.clone(), corpus.n_answers)
        .expect("gold labels within range");
    knn_utility(&corpus.as_dataset(), &valid, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::rank_ascending;

    fn corpus_texts() -> Vec<(String, usize)> {
        // Two "topics": refunds (answer 0) and shipping (answer 1).
        let refunds = [
            "refund policy returns money back guarantee",
            "how to request a refund for a damaged order",
            "refunds are processed within five business days",
            "money back if the product is defective",
        ];
        let shipping = [
            "shipping times and delivery tracking information",
            "express delivery options and shipping rates",
            "track your package with the shipping number",
            "international shipping and customs delivery",
        ];
        refunds
            .iter()
            .map(|t| ((*t).to_owned(), 0))
            .chain(shipping.iter().map(|t| ((*t).to_owned(), 1)))
            .collect()
    }

    fn eval_texts() -> Vec<(String, usize)> {
        vec![
            ("can I get a refund money back".to_owned(), 0),
            ("how long is delivery shipping".to_owned(), 1),
            ("refund for defective product".to_owned(), 0),
            ("package tracking delivery".to_owned(), 1),
        ]
    }

    #[test]
    fn retrieval_answers_match_topics() {
        let corpus = RagCorpus::from_texts(&corpus_texts(), 2, 64).unwrap();
        let eval = RagEvalSet::from_texts(&eval_texts(), 64).unwrap();
        for i in 0..eval.gold.len() {
            assert_eq!(
                corpus.answer(eval.queries.row(i), 3),
                eval.gold[i],
                "query {i}"
            );
        }
    }

    #[test]
    fn poisoned_document_scores_most_negative() {
        let mut docs = corpus_texts();
        // Poison: a refund-topic document labeled as shipping.
        docs.push(("refund money back guarantee policy returns".to_owned(), 1));
        let corpus = RagCorpus::from_texts(&docs, 2, 64).unwrap();
        let eval = RagEvalSet::from_texts(&eval_texts(), 64).unwrap();
        let phi = rag_corpus_shapley(&corpus, &eval, 3).unwrap();
        let ranking = rank_ascending(&phi);
        let poisoned = docs.len() - 1;
        assert_eq!(ranking[0], poisoned, "phi = {phi:?}");
        // The poisoned document is clearly below the clean-document average
        // (it can still net ≥ 0 when it also answers same-label queries).
        let clean_mean: f64 = phi[..poisoned].iter().sum::<f64>() / poisoned as f64;
        assert!(phi[poisoned] < clean_mean - 1e-6, "phi = {phi:?}");
    }

    #[test]
    fn shapley_decomposes_utility() {
        let corpus = RagCorpus::from_texts(&corpus_texts(), 2, 32).unwrap();
        let eval = RagEvalSet::from_texts(&eval_texts(), 32).unwrap();
        let phi = rag_corpus_shapley(&corpus, &eval, 3).unwrap();
        let total: f64 = phi.iter().sum();
        assert!((total - rag_utility(&corpus, &eval, 3)).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(RagCorpus::from_texts(&[], 2, 8).is_err());
        assert!(RagCorpus::from_texts(&[("x".to_owned(), 5)], 2, 8).is_err());
        let corpus = RagCorpus::from_texts(&corpus_texts(), 2, 16).unwrap();
        let eval = RagEvalSet::from_texts(&eval_texts(), 32).unwrap();
        assert!(rag_corpus_shapley(&corpus, &eval, 3).is_err()); // dim mismatch
    }
}
