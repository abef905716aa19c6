//! Bit-identity oracle for the batched sentence embedder.
//!
//! `reference_embed` is the embedder as it was before the memoised kernel:
//! tokenize into lowercased `String`s, redraw every token's unit vector
//! from its hash, sum in token order and normalize. The library must agree
//! with it bit for bit, through `embed`, `embed_matrix`, `embed_rows` at an
//! offset inside wider rows, and the table encoder, on text that mixes
//! ASCII with tokens whose lowercasing is not byte-wise (`É`, `ß`, `İ`, a
//! word-final `Σ`, CJK).

use nde_learners::preprocessing::{ColumnSpec, SentenceEmbedder, TableEncoder};
use nde_tabular::Table;
use proptest::prelude::*;

fn reference_fnv1a(token: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in token.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn reference_tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

fn reference_l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

fn reference_token_vector(dims: usize, token: &str) -> Vec<f64> {
    let mut state = reference_fnv1a(token);
    let mut v = Vec::with_capacity(dims);
    for _ in 0..dims {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u1 = (z & 0xFFFF_FFFF) as f64 / 4294967296.0;
        let u2 = (z >> 32) as f64 / 4294967296.0;
        v.push(u1 + u2 - 1.0);
    }
    reference_l2_normalize(&mut v);
    v
}

fn reference_embed(dims: usize, text: &str) -> Vec<f64> {
    let dims = dims.max(1);
    let mut acc = vec![0.0f64; dims];
    let tokens = reference_tokenize(text);
    if tokens.is_empty() {
        return acc;
    }
    for token in tokens {
        for (a, t) in acc.iter_mut().zip(reference_token_vector(dims, &token)) {
            *a += t;
        }
    }
    reference_l2_normalize(&mut acc);
    acc
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mixed-script text, punctuation-only text (no tokens at all), and fixed
/// sentences whose `Σ` ends a word after a cased letter (lowercases to `ς`).
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 .,!?;:'ÉéßİΣΑΟ中文字漢-]{0,40}",
        "[ .,!?;:'-]{0,8}",
        Just("ΟΔΟΣ ΣΑΣ. İstanbul STRASSE Straße ÉCOLE école 漢字 ΟΔΟΣ".to_string()),
        Just("aΣ Σ ΣΣ Σa aΣb ΑΣ, ΑΣ.".to_string()),
    ]
}

/// Many rows over a small vocabulary, so that tokens repeat within and
/// across the kernel's 512-row chunks.
fn corpus(rows: usize) -> Vec<String> {
    const WORDS: [&str; 12] = [
        "Excellent",
        "poor",
        "ΟΔΟΣ",
        "Straße",
        "İstanbul",
        "École",
        "漢字",
        "team",
        "42",
        "ΑΣ",
        "work",
        "",
    ];
    (0..rows)
        .map(|i| {
            (0..i % 9)
                .map(|j| WORDS[(i * 7 + j * 5) % WORDS.len()])
                .collect::<Vec<_>>()
                .join(if i % 2 == 0 { " " } else { ", " })
        })
        .collect()
}

proptest! {
    #[test]
    fn embed_matches_the_reference_bit_for_bit(
        texts in prop::collection::vec(text(), 0..12),
        dims in 1usize..70,
        pad in (0usize..4, 0usize..4),
    ) {
        let embedder = SentenceEmbedder::new(dims);
        let expected: Vec<Vec<f64>> = texts.iter().map(|t| reference_embed(dims, t)).collect();
        for (t, e) in texts.iter().zip(&expected) {
            prop_assert_eq!(bits(&embedder.embed(t)), bits(e), "text {:?}", t);
        }

        let m = embedder.embed_matrix(texts.len(), |i| &texts[i]);
        prop_assert_eq!((m.nrows(), m.ncols()), (texts.len(), dims));
        for (i, e) in expected.iter().enumerate() {
            prop_assert_eq!(bits(m.row(i)), bits(e), "row {}", i);
        }

        // Inside wider rows: the embedding overwrites its block only.
        let (before, after) = pad;
        let stride = before + dims + after;
        let mut out = vec![7.5; texts.len() * stride];
        embedder.embed_rows(texts.len(), |i| &texts[i], &mut out, stride, before);
        for (i, e) in expected.iter().enumerate() {
            let row = &out[i * stride..(i + 1) * stride];
            prop_assert!(row[..before].iter().chain(&row[before + dims..]).all(|&x| x == 7.5));
            prop_assert_eq!(bits(&row[before..before + dims]), bits(e), "row {}", i);
        }
    }
}

#[test]
fn batches_spanning_chunks_match_the_reference() {
    let texts = corpus(1_300);
    let embedder = SentenceEmbedder::new(64);
    let m = embedder.embed_matrix(texts.len(), |i| &texts[i]);
    for (i, t) in texts.iter().enumerate() {
        assert_eq!(bits(m.row(i)), bits(&reference_embed(64, t)), "row {i}");
    }
}

#[test]
fn encoded_tables_match_the_reference() {
    let texts = corpus(1_100);
    let n = texts.len();
    let table = Table::builder()
        .float(
            "rating",
            (0..n).map(|i| (i % 5 != 0).then_some(i as f64 % 7.0)),
        )
        .str("letter", texts.iter().map(String::as_str))
        .str("degree", (0..n).map(|i| ["bsc", "msc", "phd"][i % 3]))
        .str("label", (0..n).map(|i| ["neg", "pos"][i % 2]))
        .build()
        .unwrap();
    let encoder = TableEncoder::new(
        vec![
            ColumnSpec::numeric("rating"),
            ColumnSpec::text("letter", 16),
            ColumnSpec::categorical("degree"),
        ],
        "label",
    );
    let (fitted, data) = encoder.fit_transform(&table).unwrap();
    assert_eq!((data.x.nrows(), data.x.ncols()), (n, 20));
    assert_eq!(fitted.width(), 20);
    for (i, t) in texts.iter().enumerate() {
        let row = data.x.row(i);
        assert_eq!(bits(&row[1..17]), bits(&reference_embed(16, t)), "row {i}");
        let mut one_hot = [0.0; 3];
        one_hot[i % 3] = 1.0;
        assert_eq!(row[17..], one_hot, "row {i}");
    }
}
