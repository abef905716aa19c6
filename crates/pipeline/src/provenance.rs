//! Row-level lineage: why-provenance in the sense of Green,
//! Karvounarakis & Tannen (PODS 2007).
//!
//! The traced executor annotates every output row with a [`Monomial`] — the
//! set of source-row tokens that produced it. Selections and projections
//! keep a row's monomial, joins multiply the monomials of the matched rows,
//! and concatenation keeps each side's. Deletion, insertion and Datascope
//! attribution all read these monomials.

use std::collections::HashMap;

/// A provenance token: one row of one named source table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvToken {
    /// Index of the source table (into the trace's `source_names`).
    pub source: usize,
    /// Row index within that source table.
    pub row: usize,
}

impl ProvToken {
    /// Creates a token.
    pub fn new(source: usize, row: usize) -> Self {
        ProvToken { source, row }
    }
}

/// A product of tokens — the lineage of one output row through a
/// select/project/join pipeline. Kept sorted and deduplicated: under set
/// semantics a row used twice is still one dependency (x·x = x).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    tokens: Vec<ProvToken>,
}

impl Monomial {
    /// The monomial `1` (no dependencies).
    pub fn one() -> Self {
        Monomial::default()
    }

    /// A single-token monomial.
    pub fn of(token: ProvToken) -> Self {
        Monomial {
            tokens: vec![token],
        }
    }

    /// The product of two monomials (sorted token-set union).
    pub fn times(&self, other: &Monomial) -> Monomial {
        Monomial::product(&self.tokens, &other.tokens)
    }

    /// The product of two sorted, duplicate-free token lists: one merge
    /// pass into one allocation.
    pub(crate) fn product(a: &[ProvToken], b: &[ProvToken]) -> Monomial {
        let mut tokens = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    tokens.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    tokens.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    tokens.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        tokens.extend_from_slice(&a[i..]);
        tokens.extend_from_slice(&b[j..]);
        Monomial { tokens }
    }

    /// The tokens, sorted.
    pub fn tokens(&self) -> &[ProvToken] {
        &self.tokens
    }

    /// Whether the monomial depends on `token`.
    pub fn contains(&self, token: ProvToken) -> bool {
        self.tokens.binary_search(&token).is_ok()
    }

    /// The tokens belonging to one source table.
    pub fn rows_of_source(&self, source: usize) -> impl Iterator<Item = usize> + '_ {
        self.tokens
            .iter()
            .filter(move |t| t.source == source)
            .map(|t| t.row)
    }

    /// Shifts every token of `source` by `offset`, in place — used when a
    /// delta batch is appended to a grown source table. Tokens sort by
    /// source first, so the shift keeps them sorted.
    pub fn shift_source(&mut self, source: usize, offset: usize) {
        for t in self.tokens.iter_mut().filter(|t| t.source == source) {
            t.row += offset;
        }
    }
}

/// For each source row of `source`, the list of output rows whose monomial
/// depends on it — the inverted index Datascope and what-if analysis use.
pub fn invert_lineage(lineage: &[Monomial], source: usize) -> HashMap<usize, Vec<usize>> {
    let mut index: HashMap<usize, Vec<usize>> = HashMap::new();
    for (out_row, m) in lineage.iter().enumerate() {
        for src_row in m.rows_of_source(source) {
            index.entry(src_row).or_default().push(out_row);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: usize, r: usize) -> ProvToken {
        ProvToken::new(s, r)
    }

    #[test]
    fn monomial_product_is_sorted_dedup_union() {
        let a = Monomial::of(t(0, 2)).times(&Monomial::of(t(1, 0)));
        let b = Monomial::of(t(0, 2));
        let c = a.times(&b);
        assert_eq!(c.tokens(), &[t(0, 2), t(1, 0)]);
        assert!(c.contains(t(1, 0)));
        assert!(!c.contains(t(1, 1)));
    }

    #[test]
    fn shift_source_moves_one_source_and_keeps_order() {
        let mut m = Monomial::of(t(0, 1))
            .times(&Monomial::of(t(1, 5)))
            .times(&Monomial::of(t(2, 0)));
        m.shift_source(1, 10);
        assert_eq!(m.tokens(), &[t(0, 1), t(1, 15), t(2, 0)]);
    }

    #[test]
    fn invert_lineage_builds_dependency_index() {
        let lineage = vec![
            Monomial::of(t(0, 0)).times(&Monomial::of(t(1, 9))),
            Monomial::of(t(0, 0)),
            Monomial::of(t(0, 2)),
        ];
        let index = invert_lineage(&lineage, 0);
        assert_eq!(index[&0], vec![0, 1]);
        assert_eq!(index[&2], vec![2]);
        assert!(!index.contains_key(&1));
        let index1 = invert_lineage(&lineage, 1);
        assert_eq!(index1[&9], vec![0]);
    }
}
