//! Model-based equivalence tests for the interned [`TermKey`]: every observable
//! behaviour — canonicalisation (sort + dedup), ordering, subset/domination,
//! ring placement, lattice enumeration order, expansion — must be
//! indistinguishable from the seed's `Vec<String>` implementation, which is
//! re-implemented here as the reference model. (End-to-end trace equivalence on
//! random corpora is additionally covered by the plan-walk equivalence
//! tests in `tests/proptest_invariants.rs` at the workspace root.)

use alvisp2p_core::key::TermKey;
use alvisp2p_dht::RingId;
use alvisp2p_textindex::TermId;
use proptest::prelude::*;

/// The string-based reference model: the seed's canonical form.
fn model(terms: &[String]) -> Vec<String> {
    let mut t = terms.to_vec();
    t.sort_unstable();
    t.dedup();
    t
}

/// The seed's lattice enumeration: size-descending, canonical-sorted per size.
fn model_subsets_desc(canon: &[String]) -> Vec<Vec<String>> {
    let n = canon.len();
    let mut out = Vec::new();
    for size in (1..=n).rev() {
        let mut level = Vec::new();
        for mask in 1u32..(1u32 << n) {
            if mask.count_ones() as usize != size {
                continue;
            }
            level.push(
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| canon[i].clone())
                    .collect::<Vec<String>>(),
            );
        }
        level.sort();
        out.extend(level);
    }
    out
}

fn term() -> impl Strategy<Value = String> {
    // Length 1–6 over a small alphabet: plenty of duplicate/subset pressure at
    // the short end, steady interner growth at the long end.
    "[a-f]{1,6}"
}

fn term_vec() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(term(), 1..6)
}

proptest! {
    #[test]
    fn construction_matches_the_string_model(terms in term_vec()) {
        let key = TermKey::new(terms.clone());
        let canon = model(&terms);
        prop_assert_eq!(key.terms(), canon.clone());
        prop_assert_eq!(key.len(), canon.len());
        prop_assert_eq!(key.canonical(), canon.join("+"));
        prop_assert_eq!(format!("{key}"), canon.join("+"));
    }

    #[test]
    fn ring_placement_matches_hashing_the_canonical_string(terms in term_vec()) {
        // The cached hash must place the key exactly where the seed's
        // join-and-hash placed it.
        let key = TermKey::new(terms.clone());
        prop_assert_eq!(key.ring_id(), RingId::hash_str(&model(&terms).join("+")));
    }

    #[test]
    fn ordering_matches_vec_string_ordering(a in term_vec(), b in term_vec()) {
        let (ka, kb) = (TermKey::new(a.clone()), TermKey::new(b.clone()));
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(ka.cmp(&kb), ma.cmp(&mb));
        prop_assert_eq!(ka == kb, ma == mb);
        // Hash consistency: equal keys hash equally (std::hash::Hash contract).
        if ka == kb {
            prop_assert_eq!(ka.ring_id(), kb.ring_id());
        }
    }

    #[test]
    fn subset_and_domination_match_set_semantics(a in term_vec(), b in term_vec()) {
        let (ka, kb) = (TermKey::new(a.clone()), TermKey::new(b.clone()));
        let (ma, mb) = (model(&a), model(&b));
        let subset = ma.iter().all(|t| mb.contains(t));
        prop_assert_eq!(ka.is_subset_of(&kb), subset);
        prop_assert_eq!(ka.dominates(&kb), mb.len() < ma.len() && mb.iter().all(|t| ma.contains(t)));
        for t in &ma {
            prop_assert!(ka.contains(t));
        }
    }

    #[test]
    fn lattice_enumeration_matches_the_seed_order(terms in proptest::collection::vec(term(), 1..5)) {
        let key = TermKey::new(terms.clone());
        let canon = model(&terms);
        let got: Vec<Vec<String>> = key
            .all_subsets_desc()
            .iter()
            .map(|k| k.terms().iter().map(|s| s.to_string()).collect())
            .collect();
        prop_assert_eq!(got, model_subsets_desc(&canon));
        // Per-size enumeration agrees too.
        for size in 1..=canon.len() {
            let level: Vec<String> = key.subsets_of_size(size).iter().map(|k| k.canonical()).collect();
            prop_assert!(level.windows(2).all(|w| w[0] < w[1]), "sorted, distinct: {level:?}");
        }
    }

    #[test]
    fn expansion_matches_the_model(terms in term_vec(), extra in term()) {
        let key = TermKey::new(terms.clone());
        let expanded = key.expand(&extra);
        let canon = model(&terms);
        if canon.contains(&extra) {
            prop_assert!(expanded.is_none());
        } else {
            let mut with = canon.clone();
            with.push(extra.clone());
            let grown = expanded.expect("new term expands");
            prop_assert_eq!(grown.terms(), model(&with));
            prop_assert_eq!(grown.ring_id(), RingId::hash_str(&model(&with).join("+")));
            // Id-based expansion is the same operation.
            prop_assert_eq!(key.expand_id(TermId::intern(&extra)).expect("same"), grown);
        }
    }

    #[test]
    fn parents_match_the_model(terms in term_vec()) {
        let key = TermKey::new(terms.clone());
        let canon = model(&terms);
        let parents = key.parents();
        if canon.len() <= 1 {
            prop_assert!(parents.is_empty());
        } else {
            prop_assert_eq!(parents.len(), canon.len());
            for (skip, parent) in parents.iter().enumerate() {
                let expect: Vec<String> = canon
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, t)| t.clone())
                    .collect();
                prop_assert_eq!(parent.terms(), expect);
            }
        }
    }

    #[test]
    fn id_and_string_construction_agree(terms in term_vec()) {
        let from_strings = TermKey::new(terms.clone());
        let ids: Vec<TermId> = terms.iter().map(|t| TermId::intern(t)).collect();
        let from_ids = TermKey::from_term_ids(ids);
        prop_assert_eq!(&from_ids, &from_strings);
        prop_assert_eq!(from_ids.ring_id(), from_strings.ring_id());
        prop_assert_eq!(from_ids.cmp(&from_strings), std::cmp::Ordering::Equal);
    }
}
