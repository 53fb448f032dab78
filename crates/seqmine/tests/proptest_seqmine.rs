//! Property tests of the sequence-mining kernels: GST vs brute force,
//! matcher invariants, the exact `Mut = 0` scan vs the DP, and the
//! anti-monotone pruning property.

use proptest::prelude::*;
use seqmine::{matches_within, min_mutations, occurrence_number, Gst, Motif, Sequence};

fn arb_seqs() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec("[ABC]{1,12}", 1..6)
        .prop_map(|v| v.into_iter().map(|s| Sequence::from_str(&s)).collect())
}

/// 1–3 segments of 1–4 letters over `[ABC]`, repeats and all.
fn arb_motif() -> impl Strategy<Value = Motif> {
    prop::collection::vec("[ABC]{1,4}", 1..4)
        .prop_map(|v| Motif::new(v.into_iter().map(String::into_bytes).collect()))
}

/// Do `segs` occur in `s` exactly, in order and without overlap? Tries
/// every placement of the first segment, not just the leftmost.
fn contains_in_order(s: &[u8], segs: &[Vec<u8>]) -> bool {
    let Some((seg, rest)) = segs.split_first() else {
        return true;
    };
    (0..=s.len()).any(|i| s[i..].starts_with(seg) && contains_in_order(&s[i + seg.len()..], rest))
}

/// Long sequences over a 4–6-letter alphabet, with that alphabet, so
/// that patterns reach deep nodes and often end mid-edge.
fn arb_deep_seqs() -> impl Strategy<Value = (Vec<u8>, Vec<Sequence>)> {
    (4u8..=6, prop::collection::vec("[A-F]{20,60}", 1..5)).prop_map(|(k, v)| {
        let alphabet: Vec<u8> = (b'A'..b'A' + k).collect();
        let seqs = v
            .into_iter()
            .map(|s| Sequence::new(s.bytes().map(|b| b'A' + (b - b'A') % k).collect()))
            .collect();
        (alphabet, seqs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gst_occurrence_equals_brute_force(
        seqs in arb_seqs(),
        pat in "[ABC]{1,5}",
    ) {
        let gst = Gst::build(&seqs);
        let brute = seqs.iter().filter(|s| s.contains(pat.as_bytes())).count();
        prop_assert_eq!(gst.occurrence(pat.as_bytes()), brute);
    }

    #[test]
    fn gst_extensions_are_sound_and_complete(
        seqs in arb_seqs(),
        pat in "[ABC]{0,4}",
    ) {
        let gst = Gst::build(&seqs);
        let ext = gst.extensions(pat.as_bytes());
        for c in [b'A', b'B', b'C'] {
            let mut q = pat.as_bytes().to_vec();
            q.push(c);
            let occurs = seqs.iter().any(|s| s.contains(&q));
            prop_assert_eq!(
                ext.contains(&c),
                occurs,
                "pattern {:?} extension {}", pat, c as char
            );
        }
    }

    #[test]
    fn min_mutations_bounded_by_length(
        seq in "[ABC]{0,12}",
        pat in "[ABD]{1,6}",
    ) {
        let s = Sequence::from_str(&seq);
        let m = Motif::single(pat.as_bytes());
        let cost = min_mutations(&m, &s);
        prop_assert!(cost <= pat.len(), "deleting everything costs |P|");
        // Exact containment iff zero cost.
        prop_assert_eq!(cost == 0, s.contains(pat.as_bytes()));
    }

    #[test]
    fn occurrence_monotone_in_mutation_budget(
        seqs in arb_seqs(),
        pat in "[ABC]{1,5}",
    ) {
        let m = Motif::single(pat.as_bytes());
        let mut prev = 0;
        for budget in 0..=pat.len() {
            let occ = occurrence_number(&m, &seqs, budget);
            prop_assert!(occ >= prev);
            prev = occ;
        }
        prop_assert_eq!(prev, seqs.len(), "budget >= |P| matches everything");
    }

    #[test]
    fn prefix_and_suffix_dominate(
        seqs in arb_seqs(),
        pat in "[ABC]{2,5}",
        budget in 0usize..3,
    ) {
        // The E-dag pruning property: immediate subpatterns occur at
        // least as often.
        let p = pat.as_bytes();
        let whole = occurrence_number(&Motif::single(p), &seqs, budget);
        let prefix = occurrence_number(&Motif::single(&p[..p.len() - 1]), &seqs, budget);
        let suffix = occurrence_number(&Motif::single(&p[1..]), &seqs, budget);
        prop_assert!(prefix >= whole);
        prop_assert!(suffix >= whole);
    }

    #[test]
    fn two_segment_cost_bounded_by_concatenation(
        seq in "[ABC]{2,12}",
        a in "[ABC]{1,3}",
        b in "[ABC]{1,3}",
    ) {
        // *A*B* is easier to match than *AB* (the VLDC can absorb a gap).
        let s = Sequence::from_str(&seq);
        let split = Motif::new(vec![a.as_bytes().to_vec(), b.as_bytes().to_vec()]);
        let joined = Motif::single(format!("{a}{b}").as_bytes());
        prop_assert!(min_mutations(&split, &s) <= min_mutations(&joined, &s));
    }

    #[test]
    fn exact_scan_agrees_with_dp(
        seqs in prop::collection::vec("[ABC]{0,16}", 1..6),
        m in arb_motif(),
    ) {
        let set: Vec<Sequence> = seqs.iter().map(|s| Sequence::from_str(s)).collect();
        for s in &set {
            prop_assert_eq!(
                matches_within(&m, s, 0),
                min_mutations(&m, s) == 0,
                "motif {} sequence {}", m, s
            );
        }
        let brute = set
            .iter()
            .filter(|s| contains_in_order(s.bytes(), m.segments()))
            .count();
        prop_assert_eq!(occurrence_number(&m, &set, 0), brute);
    }

    #[test]
    fn gst_deep_patterns_match_brute_force(
        (alphabet, seqs) in arb_deep_seqs(),
        picks in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 1usize..=30),
            1..8,
        ),
    ) {
        let gst = Gst::build(&seqs);
        for (which, start, len) in picks {
            // A random substring of one of the sequences: it occurs.
            let s = seqs[which % seqs.len()].bytes();
            let start = start % s.len();
            let pat = &s[start..(start + len).min(s.len())];
            let brute = seqs.iter().filter(|t| t.contains(pat)).count();
            prop_assert_eq!(gst.occurrence(pat), brute);
            let ext = gst.extensions(pat);
            prop_assert!(ext.iter().all(|c| alphabet.contains(c)));
            for &c in &alphabet {
                let mut q = pat.to_vec();
                q.push(c);
                let occurs = seqs.iter().any(|t| t.contains(&q));
                prop_assert_eq!(
                    ext.contains(&c),
                    occurs,
                    "pattern {:?} extension {}", String::from_utf8_lossy(pat), c as char
                );
            }
        }
    }
}
