//! `serve_point` / `serve_batch`: an in-process server with the shipped
//! serving defaults, driven by closed-loop callers over loopback; every
//! reply is checked bit for bit against in-process `classify_batch`.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use udt_data::{Dataset, Tuple};
use udt_obs::trace;
use udt_serve::client::Client;
use udt_serve::config::ServeConfig;
use udt_serve::protocol::Request;
use udt_serve::protocol::Response;
use udt_serve::registry::ModelRegistry;
use udt_serve::server::Server;
use udt_tree::classify::argmax_class;
use udt_tree::{classify_batch, persist, Algorithm, BatchScratch, DecisionTree, TreeBuilder};

use crate::inputs::Rng;
use crate::stats::{self, Tally};
use crate::train;

/// Registry name the model is served under.
pub const MODEL: &str = "bench";
/// Uncertain tuples per `classify_batch` request.
pub const BATCH_TUPLES: usize = 16;

/// What one request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One averaged (point) test tuple per `classify` request.
    Point,
    /// [`BATCH_TUPLES`] uncertain test tuples per `classify_batch` request.
    Batch,
}

/// A workload's requests over one test set.
pub struct Requests {
    pub shape: Shape,
    pub requests: Vec<Request>,
    /// The tuples of each request, for in-process classification.
    pub tuples: Vec<Vec<Tuple>>,
    /// Test-set index of each tuple of each request.
    pub members: Vec<Vec<usize>>,
    /// True label of each test tuple.
    pub labels: Vec<usize>,
}

impl Requests {
    /// Every test tuple appears in at least one request; batch requests
    /// are consecutive runs of a seeded shuffle, the last one wrapping.
    pub fn new(shape: Shape, test: &Dataset, seed: u64) -> Requests {
        let n = test.len();
        let members: Vec<Vec<usize>> = match shape {
            Shape::Point => (0..n).map(|i| vec![i]).collect(),
            Shape::Batch => {
                let order = Rng::new(seed).permutation(n);
                (0..n.div_ceil(BATCH_TUPLES))
                    .map(|b| {
                        (0..BATCH_TUPLES)
                            .map(|j| order[(b * BATCH_TUPLES + j) % n])
                            .collect()
                    })
                    .collect()
            }
        };
        let tuples: Vec<Vec<Tuple>> = members
            .iter()
            .map(|m| {
                m.iter()
                    .map(|&i| match shape {
                        Shape::Point => test.tuple(i).to_averaged(),
                        Shape::Batch => test.tuple(i).clone(),
                    })
                    .collect()
            })
            .collect();
        let requests = tuples
            .iter()
            .map(|ts| match shape {
                Shape::Point => Request::Classify {
                    model: MODEL.to_string(),
                    tuple: ts[0].clone(),
                },
                Shape::Batch => Request::ClassifyBatch {
                    model: MODEL.to_string(),
                    tuples: ts.clone(),
                },
            })
            .collect();
        Requests {
            shape,
            requests,
            tuples,
            members,
            labels: test.tuples().iter().map(Tuple::label).collect(),
        }
    }

    /// In-process distributions of every request, row-major.
    pub fn expected(&self, tree: &DecisionTree) -> Result<Vec<Vec<f64>>, String> {
        let mut scratch = BatchScratch::new();
        self.tuples
            .iter()
            .map(|ts| classify_batch(tree, ts, &mut scratch).map_err(|e| e.to_string()))
            .collect()
    }
}

/// The labels a reply carries when it matches `expected` bit for bit.
pub fn checked_labels(reply: &Response, expected: &[f64], k: usize) -> Option<Vec<usize>> {
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match reply {
        Response::Classify {
            distribution,
            label,
        } if same(distribution, expected) && *label == argmax_class(expected) => Some(vec![*label]),
        Response::ClassifyBatch {
            distributions,
            labels,
        } if distributions.len() * k == expected.len() && labels.len() == distributions.len() => {
            let rows_match = distributions
                .iter()
                .zip(expected.chunks(k))
                .zip(labels)
                .all(|((got, want), &label)| same(got, want) && label == argmax_class(want));
            rows_match.then(|| labels.clone())
        }
        _ => None,
    }
}

/// A server running on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<udt_serve::Result<()>>,
}

impl Running {
    /// Binds `127.0.0.1:0` with the shipped serving defaults.
    pub fn start() -> Result<Running, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server =
            Server::bind(&config, Arc::new(ModelRegistry::new())).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let handle = std::thread::Builder::new()
            .name("bench-server".to_string())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        Ok(Running { addr, handle })
    }

    /// Asks the server to shut down and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        let sent = Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| e.to_string());
        let joined = match self.handle.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        };
        sent.and(joined)
    }
}

/// One set-up: train UDT-ES on `train_set`, persist it (v3), start a
/// server, load the file over the wire and get the first correct reply.
/// Returns the seconds taken, the server and the tree; `Err` when any
/// step fails or the first reply is wrong.
fn set_up(
    train_set: &Dataset,
    model_path: &Path,
    requests: &Requests,
) -> Result<(f64, Running, DecisionTree), String> {
    let started = Instant::now();
    let tree = TreeBuilder::new(train::config(Algorithm::UdtEs))
        .build(train_set)
        .map_err(|e| e.to_string())?
        .tree;
    persist::save(&tree, model_path).map_err(|e| e.to_string())?;
    let running = Running::start()?;
    let first = Client::connect(running.addr).and_then(|mut client| {
        let path = model_path.to_string_lossy();
        client.load_model(MODEL, &path)?;
        client.request(&requests.requests[0])
    });
    let secs = started.elapsed().as_secs_f64();
    let checked = first.map_err(|e| e.to_string()).and_then(|reply| {
        let expected = classify_batch(&tree, &requests.tuples[0], &mut BatchScratch::new())
            .map_err(|e| e.to_string())?;
        checked_labels(&reply, &expected, tree.n_classes())
            .map(|_| ())
            .ok_or_else(|| "first reply differs from in-process classify_batch".to_string())
    });
    match checked {
        Ok(()) => Ok((secs, running, tree)),
        Err(e) => {
            let _ = running.stop();
            Err(e)
        }
    }
}

/// [`set_up`], counted in `tally`: the set-up fails when it errs or its
/// tree differs from `reference`, the persisted tree of the first
/// set-up. Returns `None` (the server already stopped) on failure.
pub fn set_up_checked(
    train_set: &Dataset,
    model_path: &Path,
    requests: &Requests,
    reference: &mut Option<String>,
    tally: &mut Tally,
) -> Result<Option<(f64, Running, DecisionTree)>, String> {
    let (secs, running, tree) = match set_up(train_set, model_path, requests) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            tally.fail();
            return Ok(None);
        }
    };
    let same = persist::to_json_v3(&tree)
        .is_ok_and(|bytes| *reference.get_or_insert_with(|| bytes.clone()) == bytes);
    if same {
        tally.ok();
        Ok(Some((secs, running, tree)))
    } else {
        tally.fail();
        running.stop()?;
        Ok(None)
    }
}

/// What a closed loop measured.
pub struct LoopResult {
    pub latencies_ms: Vec<f64>,
    pub tuples: u64,
    pub wall_s: f64,
    pub tally: Tally,
    /// Served label of each test tuple, once seen.
    pub served: Vec<Option<usize>>,
}

impl LoopResult {
    /// Nothing measured yet, over `n_test` test tuples.
    pub fn empty(n_test: usize) -> LoopResult {
        LoopResult {
            latencies_ms: Vec::new(),
            tuples: 0,
            wall_s: 0.0,
            tally: Tally::default(),
            served: vec![None; n_test],
        }
    }

    /// Adds `other`'s operations to this result; wall times add up.
    pub fn absorb(&mut self, other: LoopResult) {
        self.latencies_ms.extend(other.latencies_ms);
        self.tuples += other.tuples;
        self.wall_s += other.wall_s;
        self.tally.merge(other.tally);
        for (slot, s) in self.served.iter_mut().zip(other.served) {
            *slot = slot.or(s);
        }
    }

    /// Accuracy of the served labels over the test tuples served.
    pub fn accuracy(&self, labels: &[usize]) -> f64 {
        let (mut seen, mut correct) = (0usize, 0usize);
        for (served, &label) in self.served.iter().zip(labels) {
            if let Some(s) = served {
                seen += 1;
                correct += usize::from(*s == label);
            }
        }
        correct as f64 / seen.max(1) as f64
    }
}

/// Loop options.
pub struct LoopSpec {
    pub callers: usize,
    pub seconds: f64,
    pub min_ops: usize,
    pub seed: u64,
}

/// `spec.callers` threads, each with its own connection, send requests
/// back to back in their own seeded order until `spec.seconds` have
/// passed and `spec.min_ops` requests have completed.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &Requests,
    expected: &[Vec<f64>],
    n_classes: usize,
    spec: &LoopSpec,
) -> Result<LoopResult, String> {
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let started = Instant::now();
    let per_caller: Vec<Result<LoopResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.callers)
            .map(|c| {
                let (done, failed) = (&done, &failed);
                scope.spawn(move || -> Result<LoopResult, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let order = Rng::new(spec.seed ^ (c as u64 + 1).wrapping_mul(0x5851_F42D))
                        .permutation(requests.requests.len());
                    let mut out = LoopResult::empty(requests.labels.len());
                    for &r in order.iter().cycle() {
                        let finished = started.elapsed().as_secs_f64() >= spec.seconds;
                        if finished
                            && (done.load(Ordering::Relaxed) >= spec.min_ops
                                || failed.load(Ordering::Relaxed))
                        {
                            break;
                        }
                        let t0 = Instant::now();
                        let reply = {
                            let _s = trace::span("request", "bench");
                            client.request(&requests.requests[r])
                        };
                        let ms = stats::ms(t0.elapsed());
                        let labels = reply
                            .ok()
                            .and_then(|reply| checked_labels(&reply, &expected[r], n_classes));
                        match labels {
                            Some(labels) => {
                                out.tally.ok();
                                out.latencies_ms.push(ms);
                                out.tuples += labels.len() as u64;
                                for (&m, l) in requests.members[r].iter().zip(labels) {
                                    out.served[m] = Some(l);
                                }
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                out.tally.fail();
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("caller panicked".to_string()))
            })
            .collect()
    });
    let mut total = LoopResult::empty(requests.labels.len());
    for part in per_caller {
        total.absorb(part?);
    }
    total.wall_s = started.elapsed().as_secs_f64();
    Ok(total)
}
