//! Approximate VLDC motif matching (§2.3.3/§4.1.1).
//!
//! The basic subroutine of the discovery algorithm: match a motif
//! `*S1*S2*…*` against a sequence after an *optimal* substitution for the
//! VLDCs, counting the minimum number of mutations (insertions, deletions,
//! mismatches) needed in the segments.
//!
//! Dynamic program: let `B_j(i)` be the minimum mutations to match
//! `*S1*…*S_j*` against some prefix of the sequence whose last consumed
//! segment character is at position `≤ i` (the trailing `*` makes `B_j`
//! monotone non-increasing in `i` after a prefix-min). `B_0 ≡ 0` (the
//! leading `*` absorbs any prefix); each segment is then aligned by an
//! unbanded edit-distance matrix whose top row is `B_{j-1}`'s
//! prefix-min. The answer is `min_i B_m(i)`. Complexity `O(|P| · |s|)`,
//! in three reused rows of `|s| + 1` entries.
//!
//! With no mutations allowed, [`matches_within`] skips the DP: cost 0
//! means the segments occur exactly, in order and without overlap, so a
//! greedy scan for each segment's leftmost occurrence after the previous
//! one gives the same answer.

use crate::seq::{Motif, Sequence};

/// Minimum total mutations over all VLDC substitutions to match `motif`
/// against `seq`; `usize::MAX`-free (always finite: you can always delete
/// the whole motif, costing `|P|`).
pub fn min_mutations(motif: &Motif, seq: &Sequence) -> usize {
    let s = seq.bytes();
    let n = s.len();
    // prev[i] = min cost to match segments consumed so far within the
    // first i characters (prefix-min applied: using MORE of the sequence
    // never hurts thanks to the separating VLDC).
    let mut prev: Vec<usize> = vec![0; n + 1];
    let mut last_row: Vec<usize> = vec![0; n + 1];
    let mut row: Vec<usize> = vec![0; n + 1];

    for seg in motif.segments() {
        // After k segment chars, last_row[i] is the min cost aligning
        // them so that the alignment ends at sequence position i. With
        // k = 0 it is prev (start the segment anywhere after the previous
        // match).
        last_row.copy_from_slice(&prev);
        for &c in seg {
            // Ending at i = 0 means deleting the segment chars so far.
            row[0] = last_row[0] + 1;
            for i in 1..=n {
                let sub = last_row[i - 1] + usize::from(s[i - 1] != c);
                let del = last_row[i] + 1; // delete seg char k
                let ins = row[i - 1] + 1; // insert s[i-1] into segment
                row[i] = sub.min(del).min(ins);
            }
            std::mem::swap(&mut last_row, &mut row);
        }
        // Trailing/inter-segment VLDC: prefix-min so later segments may
        // start at any position ≥ the end of this one.
        let mut best = usize::MAX;
        for i in 0..=n {
            best = best.min(last_row[i]);
            prev[i] = best;
        }
    }
    prev[n]
}

/// Does `motif` occur in `seq` within `max_mut` mutations?
pub fn matches_within(motif: &Motif, seq: &Sequence, max_mut: usize) -> bool {
    if max_mut > 0 {
        return min_mutations(motif, seq) <= max_mut;
    }
    // Exact: each segment's leftmost occurrence at or after the end of
    // the previous segment's match (leftmost leaves the most room). The
    // first-byte test skips most windows before the slice compare.
    let s = seq.bytes();
    let mut from = 0;
    motif.segments().iter().all(|seg| {
        match s[from..]
            .windows(seg.len())
            .position(|w| w[0] == seg[0] && w == &seg[..])
        {
            Some(at) => {
                from += at + seg.len();
                true
            }
            None => false,
        }
    })
}

/// The occurrence number `occurrence_no^i_S(P)` (§2.3.3): how many
/// sequences of `set` contain `motif` within `max_mut` mutations.
pub fn occurrence_number(motif: &Motif, set: &[Sequence], max_mut: usize) -> usize {
    set.iter()
        .filter(|s| matches_within(motif, s, max_mut))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m1(seg: &str) -> Motif {
        Motif::single(seg.as_bytes())
    }

    fn seq(s: &str) -> Sequence {
        Sequence::from_str(s)
    }

    #[test]
    fn exact_substring_costs_zero() {
        assert_eq!(min_mutations(&m1("RR"), &seq("FFRR")), 0);
        assert_eq!(min_mutations(&m1("FFRR"), &seq("FFRR")), 0);
        assert_eq!(min_mutations(&m1("F"), &seq("FFRR")), 0);
    }

    #[test]
    fn one_mismatch() {
        assert_eq!(min_mutations(&m1("RX"), &seq("FFRR")), 1);
        assert_eq!(min_mutations(&m1("XRRX"), &seq("AFRRA")), 2);
    }

    #[test]
    fn deletions_and_insertions() {
        // "ABC" vs sequence containing "AC": delete B -> 1.
        assert_eq!(min_mutations(&m1("ABC"), &seq("ZZACZZ")), 1);
        // "AC" vs sequence containing "ABC": insert B -> 1.
        assert_eq!(min_mutations(&m1("AC"), &seq("ZZABCZZ")), 1);
    }

    #[test]
    fn absent_pattern_costs_its_length() {
        assert_eq!(min_mutations(&m1("QQ"), &seq("AAAA")), 2);
    }

    #[test]
    fn empty_sequence() {
        assert_eq!(min_mutations(&m1("AB"), &seq("")), 2);
    }

    #[test]
    fn two_segments_with_gap() {
        let m = Motif::new(vec![b"AB".to_vec(), b"CD".to_vec()]);
        // *AB*CD* matches ABxxxCD exactly.
        assert_eq!(min_mutations(&m, &seq("ABXXXCD")), 0);
        // Segments may be adjacent (VLDC matches zero letters).
        assert_eq!(min_mutations(&m, &seq("ABCD")), 0);
        // Segments must appear in order: CD…AB costs 2+ mutations... the
        // optimal alignment can still mismatch-repair one segment.
        assert!(min_mutations(&m, &seq("CDAB")) >= 1);
    }

    #[test]
    fn segments_cannot_overlap_out_of_order() {
        let m = Motif::new(vec![b"ZZ".to_vec(), b"ZZ".to_vec()]);
        // Only one ZZ available: the second segment needs 1 insertion at
        // best (reusing the suffix) — cost at least 1.
        assert!(min_mutations(&m, &seq("AZZA")) >= 1);
        // Two disjoint ZZ runs: exact.
        assert_eq!(min_mutations(&m, &seq("ZZAZZ")), 0);
        // The exact scan agrees: adjacent runs match, overlapping ones
        // do not.
        assert!(matches_within(&m, &seq("ZZAZZ"), 0));
        assert!(matches_within(&m, &seq("AZZZZA"), 0));
        assert!(!matches_within(&m, &seq("AZZZA"), 0));
        assert!(!matches_within(&m, &seq(""), 0));
    }

    #[test]
    fn occurrence_number_counts_sequences() {
        let set = vec![seq("FFRR"), seq("MRRM"), seq("MTRM"), seq("DPKY")];
        assert_eq!(occurrence_number(&m1("RR"), &set, 0), 2);
        assert_eq!(occurrence_number(&m1("RM"), &set, 0), 2);
        // With one mutation allowed RM also matches FFRR (R->R, R->M mism?
        // "RR" -> "RM" is one mismatch) so occurrence rises.
        assert_eq!(occurrence_number(&m1("RM"), &set, 1), 3);
    }

    #[test]
    fn subpattern_occurrence_dominates() {
        // Wang et al.'s pruning property: occurrence(P) >= occurrence(P')
        // when P is a subpattern of P'.
        let set = vec![seq("ABCDEF"), seq("XBCDEX"), seq("BCXXDE"), seq("QQQQQ")];
        let small = m1("BCD");
        let big = m1("BCDE");
        for mut_budget in 0..3 {
            assert!(
                occurrence_number(&small, &set, mut_budget)
                    >= occurrence_number(&big, &set, mut_budget),
                "mut={mut_budget}"
            );
        }
    }

    #[test]
    fn mutation_cost_is_edit_distance_to_best_window() {
        // Brute-force check on small inputs: min over all substrings w of
        // edit_distance(seg, w) equals min_mutations for single segments.
        fn edit(a: &[u8], b: &[u8]) -> usize {
            let mut d: Vec<usize> = (0..=b.len()).collect();
            for (i, &ca) in a.iter().enumerate() {
                let mut prev = d[0];
                d[0] = i + 1;
                for (j, &cb) in b.iter().enumerate() {
                    let cur = d[j + 1];
                    d[j + 1] = (prev + usize::from(ca != cb))
                        .min(d[j] + 1)
                        .min(d[j + 1] + 1);
                    prev = cur;
                }
            }
            d[b.len()]
        }
        let text = b"ABRACADABRA";
        let s = seq("ABRACADABRA");
        for pat in ["AB", "RAC", "CAD", "XYZ", "ABRAX", "DAB"] {
            let mut best = pat.len(); // empty window
            for i in 0..=text.len() {
                for j in i..=text.len() {
                    best = best.min(edit(pat.as_bytes(), &text[i..j]));
                }
            }
            assert_eq!(min_mutations(&m1(pat), &s), best, "pattern {pat}");
        }
    }
}
