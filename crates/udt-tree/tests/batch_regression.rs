//! Bit-for-bit regression contract of the serving engines on trained
//! trees over realistic uncertain data:
//!
//! 1. `classify_batch` (explicit-stack arena walk, scratch reuse,
//!    one-sided fast paths) ≡ `predict_distribution_node` (the pre-arena
//!    boxed recursion), to the last ulp;
//! 2. the work-queue (parallel) build produces the same arena as the
//!    sequential recursion on the same data, so the whole
//!    train → prune → serve pipeline is deterministic across modes.

use udt_data::repository::by_name;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_prob::ErrorModel;
use udt_tree::classify::{classify_batch, predict_distribution_node, BatchScratch};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn uncertain_iris(s: usize) -> udt_data::Dataset {
    let point = by_name("Iris").unwrap().generate(0.4).unwrap();
    inject_uncertainty(
        &point,
        &UncertaintySpec {
            w: 0.10,
            s,
            model: ErrorModel::Gaussian,
        },
    )
    .unwrap()
}

#[test]
fn batch_recursive_and_boxed_classification_agree_bit_for_bit() {
    let data = uncertain_iris(24);
    let averaged = data.to_averaged();
    for postprune in [false, true] {
        let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(postprune))
            .build(&data)
            .unwrap()
            .tree;
        let boxed_root = tree.root_node();
        let mut scratch = BatchScratch::new();
        for tuples in [data.tuples(), averaged.tuples()] {
            let batch = classify_batch(&tree, tuples, &mut scratch).unwrap();
            for (i, t) in tuples.iter().enumerate() {
                let boxed = predict_distribution_node(&boxed_root, tree.n_classes(), t).unwrap();
                let row = &batch[i * tree.n_classes()..(i + 1) * tree.n_classes()];
                for c in 0..tree.n_classes() {
                    assert_eq!(
                        row[c].to_bits(),
                        boxed[c].to_bits(),
                        "batch vs boxed: tuple {i} class {c} (postprune {postprune})"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_and_sequential_pipelines_serve_identical_distributions() {
    let data = uncertain_iris(16);
    let sequential =
        TreeBuilder::new(UdtConfig::new(Algorithm::UdtGp).with_parallel_subtrees(false))
            .build(&data)
            .unwrap()
            .tree;
    let parallel = TreeBuilder::new(
        UdtConfig::new(Algorithm::UdtGp)
            .with_parallel_cutoff_depth(2)
            .with_parallel_min_fork_tuples(1),
    )
    .build(&data)
    .unwrap()
    .tree;
    assert_eq!(parallel.flat(), sequential.flat(), "post-pruned arenas");
    let mut scratch = BatchScratch::new();
    let a = classify_batch(&sequential, data.tuples(), &mut scratch).unwrap();
    let b = classify_batch(&parallel, data.tuples(), &mut scratch).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
