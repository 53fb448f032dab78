//! Property tests of the framework's equivalence theorems (Ch. 3):
//! for randomly generated mining problems, every traversal — EDT, ETT,
//! PLED, PLET in both worker styles, the hybrid — produces the same good
//! patterns, and the EDT never tests more candidates than the ETT.

use fpdm::core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_transactions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..8, 1..5), 1..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edt_and_ett_find_the_same_good_patterns(
        txns in arb_transactions(),
        min_support in 1usize..6,
    ) {
        let p = ToyItemsets::new(txns, min_support);
        let (edt, _) = sequential_edt_traced(&p);
        let ett = sequential_ett(&p);
        prop_assert_eq!(&edt.good, &ett.good);
        // Theorem 1 vs Lemma 2: the E-dag prunes at least as hard.
        prop_assert!(edt.tested <= ett.tested);
    }

    #[test]
    fn edt_tested_set_has_all_good_subpatterns(
        txns in arb_transactions(),
        min_support in 1usize..6,
    ) {
        // Definition 1: a tested pattern's immediate subpatterns are all
        // good.
        let p = ToyItemsets::new(txns, min_support);
        let (outcome, trace) = sequential_edt_traced(&p);
        for t in &trace.tested {
            if t.len() >= 2 {
                for sub in p.immediate_subpatterns(t) {
                    prop_assert!(
                        outcome.good.contains_key(&sub),
                        "tested {:?} but subpattern {:?} is not good", t, sub
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_traversals_match_sequential(
        txns in arb_transactions(),
        min_support in 1usize..5,
        workers in 1usize..4,
        switch in prop_oneof![1usize..5, Just(64)],
    ) {
        let p = Arc::new(ToyItemsets::new(txns, min_support));
        let reference = sequential_edt(&*p);
        let pled = parallel_edt(Arc::clone(&p), workers);
        prop_assert_eq!(&reference.good, &pled.good);
        prop_assert_eq!(reference.tested, pled.tested);
        for cfg in [ParallelConfig::load_balanced(workers), ParallelConfig::optimistic(workers)] {
            let plet = parallel_ett(Arc::clone(&p), &cfg);
            prop_assert_eq!(&reference.good, &plet.good);
        }
        // Theorem 4; switching below the deepest level is pure PLED.
        let hybrid = parallel_hybrid(Arc::clone(&p), workers, switch);
        prop_assert_eq!(&reference.good, &hybrid.good);
        if switch == 64 {
            prop_assert_eq!(reference.tested, hybrid.tested);
        }
    }

    #[test]
    fn sequence_problems_agree_too(
        seqs in prop::collection::vec("[AB]{2,8}", 2..6),
        min_occ in 1usize..4,
    ) {
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let p = ToySeq::new(refs, min_occ, 6);
        let edt = sequential_edt(&p);
        let ett = sequential_ett(&p);
        prop_assert_eq!(&edt.good, &ett.good);
        let par = parallel_ett(
            Arc::new(p),
            &ParallelConfig::load_balanced(2).adaptive(),
        );
        prop_assert_eq!(&edt.good, &par.good);
    }
}

#[test]
fn adaptive_master_equivalence_at_scale() {
    // A deterministic larger case crossing the 6-worker adaptive switch.
    let txns: Vec<Vec<u32>> = (0..60)
        .map(|i| vec![i % 7, (i + 2) % 7, (i * 5) % 11 + 7, (i * 3) % 11 + 7])
        .collect();
    let p = Arc::new(ToyItemsets::new(txns, 8));
    let reference = sequential_ett(&*p);
    for workers in [2, 6, 8] {
        let out = parallel_ett(
            Arc::clone(&p),
            &ParallelConfig::load_balanced(workers).adaptive(),
        );
        assert_eq!(reference.good, out.good, "workers={workers}");
        let out = parallel_ett(
            Arc::clone(&p),
            &ParallelConfig::optimistic(workers).adaptive(),
        );
        assert_eq!(reference.good, out.good, "optimistic workers={workers}");
    }
}
