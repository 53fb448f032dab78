//! Sequence-mining kernels: generalised-suffix-tree construction, the
//! master-side candidate generation (`Gst::extensions`), exact occurrence
//! counting via the GST vs the matcher, and the approximate-matching DP
//! itself. `dp_occurrence_mut0` times `occurrence_number` at `Mut = 0`,
//! which answers with the exact in-order segment scan, not the DP; the
//! `mut4` and `single_match` benches run the DP.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::cyclins_substitute;
use seqmine::{min_mutations, occurrence_number, Gst, Motif};

fn bench_seqmine(c: &mut Criterion) {
    let seqs = cyclins_substitute(1998);
    let mut g = c.benchmark_group("seqmine");
    g.sample_size(20);

    g.bench_function("gst_build_47x400", |b| {
        b.iter(|| std::hint::black_box(Gst::build(&seqs)))
    });

    let gst = Gst::build(&seqs);
    let pattern = b"MRAILVDWLVEV";
    g.bench_function("gst_exact_occurrence", |b| {
        b.iter(|| std::hint::black_box(gst.occurrence(pattern)))
    });

    // Every length-1..=8 prefix of one sequence: the extension lookups a
    // wave master makes while it expands the frontier.
    let prefixes: Vec<&[u8]> = (1..=8).map(|k| &seqs[0].bytes()[..k]).collect();
    g.bench_function("gst_extensions", |b| {
        b.iter(|| {
            for p in &prefixes {
                std::hint::black_box(gst.extensions(p));
            }
        })
    });

    let motif = Motif::single(pattern);
    g.bench_function("dp_occurrence_mut0", |b| {
        b.iter(|| std::hint::black_box(occurrence_number(&motif, &seqs, 0)))
    });
    g.bench_function("dp_occurrence_mut4", |b| {
        b.iter(|| std::hint::black_box(occurrence_number(&motif, &seqs, 4)))
    });
    g.bench_function("dp_single_match", |b| {
        b.iter(|| std::hint::black_box(min_mutations(&motif, &seqs[0])))
    });
    g.finish();
}

criterion_group!(benches, bench_seqmine);
criterion_main!(benches);
