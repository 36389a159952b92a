//! `train_es` / `train_udt`: seeded 10-fold cross-validation, one tree
//! build per operation, every tree checked byte for byte against its
//! fold's first-round tree.

use std::time::Instant;

use udt_data::split::TrainTest;
use udt_data::Dataset;
use udt_obs::trace;
use udt_tree::classify::argmax_class;
use udt_tree::{
    classify_batch, persist, Algorithm, BatchScratch, DecisionTree, ThreadCount, TreeBuilder,
    UdtConfig,
};

use crate::stats::{self, Tally};

/// Build threads, passed explicitly so no environment default applies.
pub const THREADS: usize = 2;

/// The default configuration of `algorithm` at [`THREADS`] threads.
pub fn config(algorithm: Algorithm) -> UdtConfig {
    UdtConfig::new(algorithm).with_threads(ThreadCount::fixed(THREADS))
}

/// Test tuples of `test` that `tree` labels correctly.
pub fn correct_on(tree: &DecisionTree, test: &Dataset) -> Result<usize, String> {
    let k = tree.n_classes();
    let dists =
        classify_batch(tree, test.tuples(), &mut BatchScratch::new()).map_err(|e| e.to_string())?;
    Ok(dists
        .chunks(k)
        .zip(test.tuples())
        .filter(|(d, t)| argmax_class(d) == t.label())
        .count())
}

/// Each fold's first tree, persisted, and the cross-validated accuracy
/// of those first trees.
pub struct FoldChecks {
    refs: Vec<Option<String>>,
    correct: usize,
    tested: usize,
    nodes: usize,
}

impl FoldChecks {
    pub fn new(folds: usize) -> FoldChecks {
        FoldChecks {
            refs: vec![None; folds],
            correct: 0,
            tested: 0,
            nodes: 0,
        }
    }

    /// Whether `tree` is byte-identical to the fold's reference. The
    /// fold's first tree becomes the reference and is scored on the
    /// fold's test set.
    pub fn check(&mut self, fold: usize, tree: &DecisionTree, test: &Dataset) -> bool {
        let Ok(bytes) = persist::to_json_v3(tree) else {
            return false;
        };
        match &self.refs[fold] {
            Some(reference) => *reference == bytes,
            None => match correct_on(tree, test) {
                Ok(correct) => {
                    self.correct += correct;
                    self.tested += test.len();
                    self.nodes += tree.size();
                    self.refs[fold] = Some(bytes);
                    true
                }
                Err(_) => false,
            },
        }
    }

    /// The persisted bytes of `fold`'s reference tree, once built.
    pub fn reference(&self, fold: usize) -> Option<&str> {
        self.refs[fold].as_deref()
    }

    pub fn complete(&self) -> bool {
        self.refs.iter().all(Option::is_some)
    }

    /// Mean node count of the reference trees.
    pub fn mean_nodes(&self) -> f64 {
        self.nodes as f64 / self.refs.iter().flatten().count().max(1) as f64
    }

    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.tested.max(1) as f64
    }
}

/// Builds `fold`'s training set and checks the tree. Returns the build
/// time in ms and the tree when it passed.
pub fn build_checked(
    builder: &TreeBuilder,
    folds: &[TrainTest],
    fold: usize,
    checks: &mut FoldChecks,
) -> (f64, Option<DecisionTree>) {
    let _op = trace::span("op", "bench");
    let started = Instant::now();
    let built = {
        let _s = trace::span("fold_build", "bench");
        builder.build(&folds[fold].train)
    };
    let elapsed = stats::ms(started.elapsed());
    let _s = trace::span("verify", "bench");
    match built {
        Ok(report) if checks.check(fold, &report.tree, &folds[fold].test) => {
            (elapsed, Some(report.tree))
        }
        _ => (elapsed, None),
    }
}

/// One cold set-up: fold 0 built and checked by a process whose build
/// pool does not exist yet, so the time includes pool start-up. Returns
/// the seconds from inputs in memory to the checked tree, and the tree's
/// persisted bytes for comparison with another process's fold-0 tree.
pub fn cold_build(algorithm: Algorithm, folds: &[TrainTest]) -> Result<(f64, String), String> {
    let started = Instant::now();
    let builder = TreeBuilder::new(config(algorithm));
    let mut checks = FoldChecks::new(folds.len());
    let (_, tree) = build_checked(&builder, folds, 0, &mut checks);
    let secs = started.elapsed().as_secs_f64();
    match (tree, checks.reference(0)) {
        (Some(_), Some(bytes)) => Ok((secs, bytes.to_string())),
        _ => Err("the cold fold-0 build failed its check".to_string()),
    }
}

/// The timed closed loop: fold builds back to back, cycling through the
/// folds, for at least `seconds`, `min_ops` builds and one full round.
pub struct LoopResult {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub tuples: u64,
    pub tally: Tally,
}

pub fn run_loop(
    builder: &TreeBuilder,
    folds: &[TrainTest],
    checks: &mut FoldChecks,
    seconds: f64,
    min_ops: usize,
) -> LoopResult {
    let mut out = LoopResult {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        tuples: 0,
        tally: Tally::default(),
    };
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds
        || out.latencies_ms.len() < min_ops
        || !checks.complete()
    {
        let fold = i % folds.len();
        i += 1;
        let (ms, tree) = build_checked(builder, folds, fold, checks);
        if tree.is_some() {
            out.tally.ok();
            out.latencies_ms.push(ms);
            out.tuples += folds[fold].train.len() as u64;
        } else {
            out.tally.fail();
        }
        // A program that fails every build must still end the run.
        if out.tally.failed > 0 && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}
