//! Text featurization.
//!
//! The paper's pipeline uses a `SentenceBertTransformer`. A 100M-parameter
//! transformer is out of scope for a self-contained substrate, so
//! [`SentenceEmbedder`] is a deterministic substitute that exercises the
//! same downstream code paths (dense, fixed-width, semantically clustered
//! vectors): every token is mapped to a pseudo-random unit vector derived
//! from its hash; a sentence embeds as the L2-normalized sum. Sentences
//! sharing words land close in cosine space, which is the property the
//! tutorial's sentiment task relies on.
//!
//! All embedding goes through one batched kernel,
//! [`SentenceEmbedder::embed_rows`]. A token's vector depends only on the
//! hash of its lowercased form, and real text repeats few distinct tokens
//! (20 000 generated letters hold ~1.09 M tokens over 187 distinct), so
//! each fixed chunk of rows memoises `hash → unit vector` and pays one map
//! lookup plus one vector add per token. Rows are independent, so chunks
//! fan out over `nde-parallel` and the output is bit-identical for every
//! worker count and to embedding each text on its own.

use std::collections::HashMap;

use crate::matrix::Matrix;

/// Rows per fan-out chunk of [`SentenceEmbedder::embed_rows`]; each chunk
/// keeps its own token memo.
const EMBED_CHUNK_ROWS: usize = 512;

/// FNV-1a hash of a byte stream (stable across runs and platforms).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The tokens of `text`: maximal runs of alphanumeric characters, borrowed
/// and not yet lowercased.
fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// FNV-1a hash of a token's lowercased form. ASCII tokens lowercase byte by
/// byte without allocating; any other token goes through
/// `str::to_lowercase`, which is context-sensitive (a word-final `Σ`
/// lowercases to `ς`).
fn token_hash(token: &str) -> u64 {
    if token.is_ascii() {
        fnv1a(token.bytes().map(|b| b.to_ascii_lowercase()))
    } else {
        fnv1a(token.to_lowercase().bytes())
    }
}

/// Lowercases and splits on non-alphanumeric characters.
pub fn tokenize(text: &str) -> Vec<String> {
    raw_tokens(text).map(str::to_lowercase).collect()
}

/// Deterministic pseudo-sentence-embedding (SentenceBERT substitute).
#[derive(Debug, Clone)]
pub struct SentenceEmbedder {
    /// Output dimensionality.
    pub dims: usize,
}

/// The token vectors one chunk of rows has drawn so far, `dims` values
/// each, keyed by token hash.
struct TokenMemo {
    slots: HashMap<u64, usize>,
    vectors: Vec<f64>,
}

impl SentenceEmbedder {
    /// Creates an embedder with `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        SentenceEmbedder { dims: dims.max(1) }
    }

    /// Appends the pseudo-random unit vector of the token hashing to `hash`,
    /// derived via SplitMix64 expansion and an approximate inverse-normal
    /// transform.
    fn push_token_vector(&self, hash: u64, out: &mut Vec<f64>) {
        let start = out.len();
        let mut state = hash;
        for _ in 0..self.dims {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Map to roughly standard normal via a sum of uniforms.
            let u1 = (z & 0xFFFF_FFFF) as f64 / 4294967296.0;
            let u2 = (z >> 32) as f64 / 4294967296.0;
            out.push(u1 + u2 - 1.0);
        }
        l2_normalize(&mut out[start..]);
    }

    /// The unit vector of the token hashing to `hash`, drawn once per memo.
    fn token_vector<'m>(&self, memo: &'m mut TokenMemo, hash: u64) -> &'m [f64] {
        let next = memo.slots.len();
        let vectors = &mut memo.vectors;
        let slot = *memo.slots.entry(hash).or_insert_with(|| {
            self.push_token_vector(hash, vectors);
            next
        });
        &memo.vectors[slot * self.dims..(slot + 1) * self.dims]
    }

    /// Embeds `n` texts into a row-major buffer: the embedding of `text(i)`
    /// overwrites `out[i * stride + offset..][..dims]`, and every other cell
    /// of `out` is left as it is. A sentence embeds as the normalized sum of
    /// its token vectors, in token order; empty text maps to the zero
    /// vector.
    ///
    /// Rows fan out over `nde-parallel` in fixed chunks of 512, each with
    /// its own memo of token vectors, so the result is bit-identical for
    /// every worker count and to [`SentenceEmbedder::embed`] of each text.
    ///
    /// # Panics
    ///
    /// If `out.len() != n * stride`, or if `offset + dims > stride`.
    pub fn embed_rows<'a, F>(
        &self,
        n: usize,
        text: F,
        out: &mut [f64],
        stride: usize,
        offset: usize,
    ) where
        F: Fn(usize) -> &'a str + Sync,
    {
        assert!(
            offset + self.dims <= stride,
            "a {}-wide embedding at offset {offset} does not fit in rows of {stride}",
            self.dims
        );
        assert_eq!(
            out.len(),
            n * stride,
            "{n} rows of {stride} values expected"
        );
        let mut chunks: Vec<&mut [f64]> = out.chunks_mut(EMBED_CHUNK_ROWS * stride).collect();
        nde_parallel::par_for_each_mut(&mut chunks, 1, |chunk, rows| {
            let mut memo = TokenMemo {
                slots: HashMap::new(),
                vectors: Vec::new(),
            };
            for (r, row) in rows.chunks_exact_mut(stride).enumerate() {
                let acc = &mut row[offset..offset + self.dims];
                acc.fill(0.0);
                for token in raw_tokens(text(chunk * EMBED_CHUNK_ROWS + r)) {
                    let vector = self.token_vector(&mut memo, token_hash(token));
                    for (a, t) in acc.iter_mut().zip(vector) {
                        *a += t;
                    }
                }
                l2_normalize(acc);
            }
        });
    }

    /// Embeds `n` texts into an `n × dims` matrix (row `i` from `text(i)`).
    pub fn embed_matrix<'a, F>(&self, n: usize, text: F) -> Matrix
    where
        F: Fn(usize) -> &'a str + Sync,
    {
        let mut data = vec![0.0; n * self.dims];
        self.embed_rows(n, text, &mut data, self.dims, 0);
        Matrix::new(n, self.dims, data).expect("embed_rows fills n × dims values")
    }

    /// Embeds one sentence: normalized sum of token vectors. Empty text maps
    /// to the zero vector.
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut v = vec![0.0; self.dims];
        self.embed_rows(1, |_| text, &mut v, self.dims, 0);
        v
    }
}

fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(tokenize("Hello, World! 42"), vec!["hello", "world", "42"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = SentenceEmbedder::new(32);
        assert_eq!(
            e.embed("the quick brown fox"),
            e.embed("the quick brown fox")
        );
    }

    #[test]
    fn shared_words_increase_similarity() {
        let e = SentenceEmbedder::new(64);
        let a = e.embed("excellent outstanding brilliant work");
        let b = e.embed("excellent outstanding brilliant effort");
        let c = e.embed("terrible awful poor performance");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = SentenceEmbedder::new(16);
        let v = e.embed("some words here");
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = SentenceEmbedder::new(8);
        assert_eq!(e.embed(""), vec![0.0; 8]);
    }

    #[test]
    fn word_order_is_ignored() {
        let e = SentenceEmbedder::new(32);
        assert_eq!(e.embed("alpha beta"), e.embed("beta alpha"));
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
