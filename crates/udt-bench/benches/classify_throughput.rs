//! Serving-path throughput: one `classify_batch` call over a slice vs one
//! single-tuple call per tuple.
//!
//! Both sides run the same arena walk and produce bit-for-bit identical
//! distributions; the single-tuple path
//! (`DecisionTree::predict_distribution`, a one-element batch) pays a
//! fresh [`BatchScratch`] and result vector per call, while the batch
//! reuses one scratch across tuples. `scripts/bench.sh` writes these
//! measurements to `BENCH_classify.json` and prints the batch-vs-single
//! speedups.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use udt_bench::baseline_workload;
use udt_tree::classify::{classify_batch, BatchScratch};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn bench_classify_throughput(c: &mut Criterion) {
    let data = baseline_workload(60);
    let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
        .build(&data)
        .expect("build succeeds")
        .tree;
    let averaged = data.to_averaged();

    let mut group = c.benchmark_group("classify_throughput");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    // Uncertain tuples: full fractional propagation with pdf restriction.
    group.bench_function("single_uncertain", |b| {
        b.iter(|| {
            data.tuples()
                .iter()
                .map(|t| tree.predict_distribution(t).expect("tree has classes")[0])
                .sum::<f64>()
        });
    });
    group.bench_function("batch_uncertain", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| classify_batch(&tree, data.tuples(), &mut scratch).expect("tree has classes")[0]);
    });

    // Point (averaged) tuples: every split is one-sided, the batch walk
    // never materialises a pdf.
    group.bench_function("single_point", |b| {
        b.iter(|| {
            averaged
                .tuples()
                .iter()
                .map(|t| tree.predict_distribution(t).expect("tree has classes")[0])
                .sum::<f64>()
        });
    });
    group.bench_function("batch_point", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| {
            classify_batch(&tree, averaged.tuples(), &mut scratch).expect("tree has classes")[0]
        });
    });
    group.finish();
}

criterion_group!(benches, bench_classify_throughput);
criterion_main!(benches);
