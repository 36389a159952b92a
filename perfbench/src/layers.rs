//! Per-layer probes: each layer's public entry point called directly,
//! outside in, on the workload's own data.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use udt_data::Dataset;
use udt_obs::catalog;
use udt_serve::batcher::Batcher;
use udt_serve::config::ServeConfig;
use udt_serve::metrics::ServeMetrics;
use udt_serve::protocol::{Request, Response, StatsReport};
use udt_serve::registry::ModelRegistry;
use udt_tree::classify::argmax_class;
use udt_tree::columns::{self, Scratch};
use udt_tree::fractional::FractionalTuple;
use udt_tree::{
    classify_batch, persist, pool, postprune, Algorithm, BatchScratch, DecisionTree, SearchStats,
    TreeBuilder, WorkerPool,
};

use crate::report::Metrics;
use crate::serve::{self, Requests, MODEL};
use crate::stats::{self, median};
use crate::train;

/// Repetitions of each single-call probe; the median is reported.
const REPS: usize = 5;
/// Full builds whose phase times and counter deltas are reported.
const PROBE_BUILDS: usize = 3;
/// Seconds of in-process batcher traffic.
const BATCHER_SECONDS: f64 = 0.5;

/// Runs `f` [`REPS`] times; the median time in ms and the last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let started = Instant::now();
        let out = f();
        times.push(stats::ms(started.elapsed()));
        last = Some(out);
    }
    (median(&times), last.expect("REPS > 0"))
}

/// Build layers at the root of `train_set` under `algorithm`'s default
/// configuration: presort, event-matrix construction, split search and
/// partition, then phase times and pool/kernel counters of whole builds,
/// post-pruning and persistence. Returns the last built tree.
pub fn build_layers(
    algorithm: Algorithm,
    train_set: &Dataset,
    model_path: &Path,
    out: &mut Metrics,
) -> Result<DecisionTree, String> {
    let config = train::config(algorithm);
    let tuples: Vec<FractionalTuple> = train_set
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    let labels: Vec<u32> = tuples.iter().map(|t| t.label as u32).collect();
    let n_classes = train_set.n_classes();
    let numerical = train_set.schema().numerical_indices();
    let build_pool = WorkerPool::for_concurrency(config.threads.get());
    let _entered = pool::enter(Arc::clone(&build_pool));

    let (presort_ms, root) = timed(|| columns::build_root_with(&tuples, &numerical, &build_pool));
    out.put("columns.presort_ms", presort_ms);
    let events_total: usize = root.columns.iter().map(|c| c.len()).sum();
    out.put("columns.presort_events", events_total as f64);

    let state = columns::root_state(&tuples, &root, config.partition_mode);
    let mut scratch = Scratch::new(tuples.len());
    scratch.load_weights(&state);
    let (construct_ms, events) = timed(|| {
        state
            .columns
            .iter()
            .zip(&root.columns)
            .filter_map(|(col, root_col)| {
                columns::events_from_column_with(
                    col,
                    root_col,
                    &labels,
                    n_classes,
                    &mut scratch,
                    config.profile(),
                )
                .map(|e| (root_col.attribute, e))
            })
            .collect::<Vec<_>>()
    });
    let positions: usize = events.iter().map(|(_, e)| e.n_positions()).sum();
    out.put("events.construct_ms", construct_ms);
    out.put("events.positions", positions as f64);
    out.put("events.matrix_mb", (positions * n_classes * 8) as f64 / 1e6);

    let search = config.split_search();
    let (search_ms, (choice, search_stats)) = timed(|| {
        let mut s = SearchStats::default();
        (search.find_best(&events, config.measure, &mut s), s)
    });
    let choice = choice.ok_or("no split at the root")?;
    out.put("split.search_ms", search_ms);
    out.put("split.candidates", search_stats.candidate_points as f64);
    out.put("split.scored", search_stats.candidates_scored as f64);
    out.put("split.bound_evals", search_stats.bound_calculations as f64);
    out.put(
        "split.scored_frac",
        search_stats.candidates_scored as f64 / search_stats.candidate_points.max(1) as f64,
    );

    let slot = numerical
        .iter()
        .position(|&j| j == choice.attribute)
        .ok_or("the root split is not on a numerical attribute")?;
    let (partition_ms, partition_stats) = timed(|| {
        let mut s = SearchStats::default();
        let children =
            columns::partition_numeric(&root, &state, slot, choice.split, &mut scratch, &mut s);
        drop(children);
        s
    });
    scratch.unload_weights(&state);
    out.put("columns.partition_ms", partition_ms);
    out.put(
        "columns.partition_mb",
        partition_stats.partition_bytes as f64 / 1e6,
    );

    let counters = [
        &catalog::KERNEL_SCALAR_BATCHES,
        &catalog::KERNEL_SIMD_BATCHES,
        &catalog::POOL_TASKS_EXECUTED,
        &catalog::POOL_TASKS_STOLEN,
        &catalog::POOL_IDLE_NS,
    ];
    let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
    let builder = TreeBuilder::new(config.clone());
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut tree = None;
    for _ in 0..PROBE_BUILDS {
        let report = builder.build(train_set).map_err(|e| e.to_string())?;
        let s = &report.stats;
        let parts =
            [s.presort_ns, s.search_ns, s.partition_ns, s.graft_ns].map(|ns| ns as f64 / 1e6);
        for (acc, v) in phases.iter_mut().zip(parts) {
            acc.push(v);
        }
        phases[4].push(stats::ms(report.elapsed) - parts.iter().sum::<f64>());
        tree = Some(report.tree);
    }
    let per_build: Vec<f64> = counters
        .iter()
        .zip(before)
        .map(|(c, b)| c.get().saturating_sub(b) as f64 / PROBE_BUILDS as f64)
        .collect();
    for (name, values) in [
        "build.presort_ms",
        "build.search_ms",
        "build.partition_ms",
        "build.graft_ms",
        "build.unattributed_ms",
    ]
    .into_iter()
    .zip(&phases)
    {
        out.put(name, median(values));
    }
    out.put("kernel.scalar_batches", per_build[0]);
    out.put("kernel.simd_batches", per_build[1]);
    out.put("pool.tasks", per_build[2]);
    out.put("pool.steals", per_build[3]);
    out.put("pool.idle_ms", per_build[4] / 1e6);
    let tree = tree.expect("PROBE_BUILDS > 0");

    let unpruned = TreeBuilder::new(config.clone().with_postprune(false))
        .build(train_set)
        .map_err(|e| e.to_string())?
        .tree;
    let mut prune_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut flat = unpruned.flat().clone();
        let started = Instant::now();
        postprune::prune_flat(&mut flat, config.postprune_z);
        prune_times.push(stats::ms(started.elapsed()));
    }
    out.put("postprune.prune_ms", median(&prune_times));

    let (save_ms, saved) = timed(|| persist::save(&tree, model_path));
    saved.map_err(|e| e.to_string())?;
    let (load_ms, loaded) = timed(|| persist::load(model_path));
    loaded.map_err(|e| e.to_string())?;
    out.put("persist.save_ms", save_ms);
    out.put("persist.load_ms", load_ms);
    Ok(tree)
}

/// The reply the server sends for a request whose distributions are
/// `expected`.
fn reply_for(requests: &Requests, expected: &[f64], k: usize) -> Response {
    match requests.shape {
        serve::Shape::Point => Response::Classify {
            distribution: expected.to_vec(),
            label: argmax_class(expected),
        },
        serve::Shape::Batch => Response::ClassifyBatch {
            distributions: expected.chunks(k).map(<[f64]>::to_vec).collect(),
            labels: expected.chunks(k).map(argmax_class).collect(),
        },
    }
}

/// Serving layers for `requests` against `tree`: the codec on the
/// workload's own messages, the batcher in process with `callers`
/// concurrent callers, in-process classification, the server's own view
/// from `server_stats`, and what is left of the client p50
/// (`client_p50_us`) once those layers are taken out.
pub fn serve_layers(
    tree: &DecisionTree,
    requests: &Requests,
    expected: &[Vec<f64>],
    callers: usize,
    server_stats: &StatsReport,
    client_p50_us: f64,
    out: &mut Metrics,
) -> Result<(), String> {
    let k = tree.n_classes();
    let mut times: [Vec<f64>; 4] = Default::default();
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (request, want) in requests.requests.iter().zip(expected) {
        let reply = reply_for(requests, want, k);
        for _ in 0..REPS {
            let t = Instant::now();
            let line = request.to_line();
            times[0].push(stats::us(t.elapsed()));
            let t = Instant::now();
            let parsed = Request::parse(&line).map_err(|e| e.to_string())?;
            times[1].push(stats::us(t.elapsed()));
            let t = Instant::now();
            let reply_line = reply.to_line();
            times[2].push(stats::us(t.elapsed()));
            let t = Instant::now();
            let parsed_reply = Response::parse(&reply_line).map_err(|e| e.to_string())?;
            times[3].push(stats::us(t.elapsed()));
            if parsed != *request || parsed_reply != reply {
                return Err("protocol round trip changed a message".to_string());
            }
            req_bytes = req_bytes.max(line.len() + 1);
            resp_bytes = resp_bytes.max(reply_line.len() + 1);
        }
    }
    let codec: Vec<f64> = times.iter().map(|t| median(t)).collect();
    out.put("protocol.req_encode_us", codec[0]);
    out.put("protocol.req_decode_us", codec[1]);
    out.put("protocol.resp_encode_us", codec[2]);
    out.put("protocol.resp_decode_us", codec[3]);
    out.put("protocol.req_bytes", req_bytes as f64);
    out.put("protocol.resp_bytes", resp_bytes as f64);

    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert_tree(MODEL, tree.clone())
        .map_err(|e| e.to_string())?;
    let metrics = Arc::new(ServeMetrics::new());
    let batcher = Batcher::start(
        registry,
        Arc::clone(&metrics),
        ServeConfig::default().batch_options(),
    );
    let started = Instant::now();
    let roundtrips: Result<Vec<Vec<f64>>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let batcher = &batcher;
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut times = Vec::new();
                    let n = requests.tuples.len();
                    let mut i = c;
                    while started.elapsed().as_secs_f64() < BATCHER_SECONDS {
                        let r = i % n;
                        i += callers;
                        let tuples = requests.tuples[r].clone();
                        let t = Instant::now();
                        let reply = batcher.classify(MODEL, tuples).map_err(|e| e.to_string())?;
                        times.push(stats::us(t.elapsed()));
                        let same = reply.distributions.len() == expected[r].len()
                            && reply
                                .distributions
                                .iter()
                                .zip(&expected[r])
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !same {
                            return Err("batcher reply differs from classify_batch".to_string());
                        }
                    }
                    Ok(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("batcher caller panicked".to_string()))
            })
            .collect()
    });
    batcher.shutdown();
    let roundtrips: Vec<f64> = roundtrips?.into_iter().flatten().collect();
    let batcher_us = median(&roundtrips);
    out.put("batcher.roundtrip_us", batcher_us);
    out.put(
        "batcher.queue_wait_p50_us",
        metrics.health_snapshot().queue_wait_p50_us,
    );

    let mut scratch = BatchScratch::new();
    let mut classify_times = Vec::new();
    for ts in &requests.tuples {
        for _ in 0..REPS {
            let t = Instant::now();
            let d = classify_batch(tree, ts, &mut scratch).map_err(|e| e.to_string())?;
            classify_times.push(stats::us(t.elapsed()));
            std::hint::black_box(d);
        }
    }
    out.put("classify.batch_us", median(&classify_times));

    let model = server_stats
        .metrics
        .iter()
        .find(|m| m.model == MODEL)
        .ok_or("the server reports no metrics for the model")?;
    out.put("server.p50_us", model.p50_us);
    out.put("server.p99_us", model.p99_us);
    out.put(
        "server.queue_wait_p50_us",
        server_stats.health.queue_wait_p50_us,
    );
    out.put(
        "wire.unattributed_us",
        client_p50_us - codec.iter().sum::<f64>() - batcher_us,
    );
    Ok(())
}
