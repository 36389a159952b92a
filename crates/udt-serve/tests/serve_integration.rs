//! End-to-end tests over a real loopback socket.
//!
//! The headline guarantee (ISSUE 4 acceptance): classifications served
//! through the NDJSON protocol are **bit-for-bit identical** to calling
//! `classify_batch` directly on the same tuples. The rest exercises the
//! operational surface — hot swap, stats, error handling for unknown
//! models and garbage input, and clean shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use udt_data::{toy, Dataset};
use udt_serve::{Client, ModelRegistry, ServeConfig, Server};
use udt_tree::{
    classify_batch, persist, Algorithm, BatchScratch, DecisionTree, TreeBuilder, UdtConfig,
};

fn trained(algorithm: Algorithm) -> DecisionTree {
    TreeBuilder::new(
        UdtConfig::new(algorithm)
            .with_postprune(false)
            .with_min_node_weight(0.0),
    )
    .build(&toy::table1_dataset().expect("toy data"))
    .expect("toy build")
    .tree
}

/// Starts a server on an ephemeral loopback port with the given models
/// preloaded; returns its address and the join handle of its run loop.
fn start_server(models: Vec<(&str, DecisionTree)>) -> (std::net::SocketAddr, JoinHandle<()>) {
    let registry = Arc::new(ModelRegistry::new());
    for (name, tree) in models {
        registry.insert_tree(name, tree).expect("fresh name");
    }
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind on loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server runs to clean shutdown"));
    (addr, handle)
}

/// The test workload: the Table 1 training tuples (uncertain), the
/// Fig. 1 test tuple, a few point tuples, and an attribute-less tuple
/// exercising the missing-attribute path.
fn workload() -> (Dataset, Vec<udt_data::Tuple>) {
    let data = toy::table1_dataset().expect("toy data");
    let mut tuples = data.tuples().to_vec();
    tuples.push(toy::fig1_test_tuple().expect("fig1 tuple"));
    tuples.push(udt_data::Tuple::from_points(&[-2.0], 0));
    tuples.push(udt_data::Tuple::from_points(&[1.5], 1));
    tuples.push(udt_data::Tuple::new(vec![], 0));
    (data, tuples)
}

#[test]
fn socket_served_classifications_are_bit_for_bit_equal_to_classify_batch() {
    let tree = trained(Algorithm::UdtEs);
    let (_, tuples) = workload();
    let mut scratch = BatchScratch::new();
    let direct = classify_batch(&tree, &tuples, &mut scratch).expect("direct classification");
    let k = tree.n_classes();

    let (addr, handle) = start_server(vec![("toy", tree)]);
    let mut client = Client::connect(addr).expect("connect");

    // One batched request: every distribution equals the direct result
    // to the last bit.
    let (dists, labels) = client.classify_batch("toy", &tuples).expect("batch");
    assert_eq!(dists.len(), tuples.len());
    assert_eq!(labels.len(), tuples.len());
    for (i, dist) in dists.iter().enumerate() {
        let expected = &direct[i * k..(i + 1) * k];
        assert_eq!(dist.len(), k);
        for (a, b) in dist.iter().zip(expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "batch tuple {i}");
        }
    }

    // Single-tuple requests agree too (same engine, same bits).
    for (i, tuple) in tuples.iter().enumerate() {
        let (dist, label) = client.classify("toy", tuple).expect("single");
        let expected = &direct[i * k..(i + 1) * k];
        for (a, b) in dist.iter().zip(expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "single tuple {i}");
        }
        assert_eq!(label, labels[i], "labels agree across request shapes");
    }

    client.shutdown().expect("clean shutdown");
    handle.join().expect("server thread");
}

#[test]
fn concurrent_clients_coalesce_and_all_get_exact_answers() {
    let tree = trained(Algorithm::UdtEs);
    let (_, tuples) = workload();
    let mut scratch = BatchScratch::new();
    let direct = classify_batch(&tree, &tuples, &mut scratch).expect("direct");
    let k = tree.n_classes();

    let (addr, handle) = start_server(vec![("toy", tree)]);
    std::thread::scope(|scope| {
        for (i, tuple) in tuples.iter().enumerate() {
            let expected = &direct[i * k..(i + 1) * k];
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (dist, _) = client.classify("toy", tuple).expect("classify");
                for (a, b) in dist.iter().zip(expected) {
                    assert_eq!(a.to_bits(), b.to_bits(), "concurrent tuple {i}");
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let toy_metrics = stats
        .metrics
        .iter()
        .find(|m| m.model == "toy")
        .expect("toy metrics exist");
    assert_eq!(toy_metrics.requests, tuples.len() as u64);
    assert_eq!(toy_metrics.tuples, tuples.len() as u64);
    assert_eq!(toy_metrics.errors, 0);
    assert!(toy_metrics.p99_us >= toy_metrics.p50_us);
    // The same counters render as a Prometheus text exposition over the
    // same socket.
    let text = client.stats_prometheus().expect("prometheus stats");
    assert!(text.contains(&format!(
        "udt_serve_requests_total{{model=\"toy\"}} {}",
        // The prometheus request itself is not a classify request, but
        // the JSON stats call above is not either: the counter still
        // reads the classification total.
        tuples.len()
    )));
    assert!(text.contains("udt_serve_request_latency_seconds_bucket{model=\"toy\",le=\"+Inf\"}"));
    assert!(text.contains("udt_serve_uptime_seconds"));
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn hot_swap_changes_answers_without_interrupting_service() {
    let es_tree = trained(Algorithm::UdtEs);
    let avg_tree = trained(Algorithm::Avg);
    assert_ne!(es_tree.flat(), avg_tree.flat(), "the two models differ");

    // Persist the replacement where the server can load it.
    let path = std::env::temp_dir().join("udt-serve-swap-test.json");
    persist::save(&avg_tree, &path).expect("save replacement");

    let (_, tuples) = workload();
    let mut scratch = BatchScratch::new();
    let before_expected = classify_batch(&es_tree, &tuples, &mut scratch).expect("direct es");
    let after_expected = classify_batch(&avg_tree, &tuples, &mut scratch).expect("direct avg");

    let (addr, handle) = start_server(vec![("m", es_tree)]);
    let mut client = Client::connect(addr).expect("connect");

    let (before, _) = client.classify_batch("m", &tuples).expect("pre-swap");
    for (i, dist) in before.iter().enumerate() {
        for (a, b) in dist.iter().zip(&before_expected[i * 2..(i + 1) * 2]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    let info = client
        .swap("m", path.to_str().expect("utf-8 temp path"))
        .expect("swap");
    assert_eq!(info.generation, 2);

    let (after, _) = client.classify_batch("m", &tuples).expect("post-swap");
    for (i, dist) in after.iter().enumerate() {
        for (a, b) in dist.iter().zip(&after_expected[i * 2..(i + 1) * 2]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // The registry reports the bumped generation in stats.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.models.len(), 1);
    assert_eq!(stats.models[0].generation, 2);
    assert!(stats.models[0].heap_bytes > 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn load_model_endpoint_loads_and_refuses_duplicates() {
    let tree = trained(Algorithm::UdtEs);
    let path = std::env::temp_dir().join("udt-serve-load-test.json");
    persist::save(&tree, &path).expect("save model");

    let (addr, handle) = start_server(vec![]);
    let mut client = Client::connect(addr).expect("connect");

    // No models yet: classify errors but the connection survives.
    let t = toy::fig1_test_tuple().expect("tuple");
    let err = client.classify("disk", &t).expect_err("unknown model");
    assert!(err.to_string().contains("disk"));

    let info = client
        .load_model("disk", path.to_str().expect("utf-8 temp path"))
        .expect("load");
    assert_eq!(info.generation, 1);
    assert!(info.nodes > 0);
    assert!(client.classify("disk", &t).is_ok());

    // Loading the same name again is refused; a bad path is refused.
    let err = client
        .load_model("disk", path.to_str().unwrap())
        .expect_err("duplicate");
    assert!(err.to_string().contains("swap"));
    assert!(client.load_model("other", "/no/such/file.json").is_err());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_lines_get_error_responses_and_the_connection_survives() {
    let (addr, handle) = start_server(vec![("toy", trained(Algorithm::UdtEs))]);

    // Raw socket: send garbage, then a valid request, on one connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();

    stream.write_all(b"this is not json\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":false"), "got: {line}");
    assert!(line.contains("error"), "got: {line}");

    line.clear();
    stream
        .write_all(b"{\"cmd\":\"classify\",\"model\":\"toy\"}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":false"), "got: {line}");
    assert!(line.contains("tuple"), "got: {line}");

    // Blank lines are ignored, and the connection still serves.
    line.clear();
    stream.write_all(b"\n{\"cmd\":\"stats\"}\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":true"), "got: {line}");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn a_deeply_nested_line_gets_bad_request_instead_of_aborting_the_server() {
    let (addr, handle) = start_server(vec![("toy", trained(Algorithm::UdtEs))]);
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();

    // ~20 KB of brackets: enough to overflow a connection thread's stack
    // in a recursive parser without a depth cap.
    let depth = 10_000;
    let hostile = format!(
        "{{\"cmd\":\"stats\",\"x\":{}{}}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    stream.write_all(hostile.as_bytes()).expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":false"), "got: {line}");
    assert!(line.contains("bad_request"), "got: {line}");

    // The connection and the server survive.
    line.clear();
    stream.write_all(b"{\"cmd\":\"stats\"}\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":true"), "got: {line}");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn shutdown_is_clean_even_with_other_connections_open() {
    let (addr, handle) = start_server(vec![("toy", trained(Algorithm::UdtEs))]);

    // An idle connection that never sends anything must not block the
    // server's shutdown (connection threads poll the stop flag).
    let idle = TcpStream::connect(addr).expect("idle connect");

    let mut client = Client::connect(addr).expect("connect");
    let t = toy::fig1_test_tuple().expect("tuple");
    client.classify("toy", &t).expect("served before shutdown");
    client.shutdown().expect("shutdown ack");

    // The run loop joins every connection thread and drains the queue.
    handle.join().expect("server thread exits cleanly");
    drop(idle);

    // New connections are refused (or reset) after shutdown.
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            // If the OS briefly accepts, the write/read must fail or EOF.
            let _ = s.write_all(b"{\"cmd\":\"stats\"}\n");
            let mut buf = String::new();
            match BufReader::new(&mut s).read_line(&mut buf) {
                Ok(n) => n == 0,
                Err(_) => true,
            }
        }
    };
    assert!(gone, "server is gone");
}

#[test]
fn a_busy_client_cannot_block_shutdown() {
    // One client hammers requests in a loop; another requests shutdown.
    // The server must stop serving and `run()` must return even though
    // the busy connection never goes idle (connection threads check the
    // stop flag on every request, not only on read timeouts).
    let (addr, handle) = start_server(vec![("toy", trained(Algorithm::UdtEs))]);

    let spam_done = Arc::new(AtomicBool::new(false));
    let spam_flag = Arc::clone(&spam_done);
    let spammer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("spammer connects");
        let mut served = 0u64;
        // Spin until the server drops us (shutdown) as a backstop.
        while !spam_flag.load(Ordering::Relaxed) {
            if client.stats().is_err() {
                break;
            }
            served += 1;
        }
        served
    });
    // Let the spammer establish steady traffic first.
    std::thread::sleep(Duration::from_millis(50));

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    // Must return despite the still-chattering client; a regression here
    // hangs the test rather than failing an assertion.
    handle.join().expect("server run loop exits");
    spam_done.store(true, Ordering::Relaxed);
    let served = spammer.join().expect("spammer thread");
    assert!(served > 0, "the busy client was actually served");
}

#[test]
fn backpressure_keeps_every_request_answered() {
    // A tiny queue with one slow-ish worker: submitters must block, not
    // fail, and every reply must still be exact.
    let tree = trained(Algorithm::UdtEs);
    let (_, tuples) = workload();
    let mut scratch = BatchScratch::new();
    let direct = classify_batch(&tree, &tuples, &mut scratch).expect("direct");
    let k = tree.n_classes();

    let registry = Arc::new(ModelRegistry::new());
    registry.insert_tree("toy", tree).expect("fresh");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 2,
        max_batch_tuples: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("run"));

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for round in 0..4 {
            for (i, tuple) in tuples.iter().enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (dist, _) = client.classify("toy", tuple).expect("classify");
                    tx.send((round, i, dist)).expect("send result");
                });
            }
        }
    });
    drop(tx);
    let mut answered = 0;
    for (_, i, dist) in rx {
        answered += 1;
        for (a, b) in dist.iter().zip(&direct[i * k..(i + 1) * k]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert_eq!(answered, 4 * tuples.len());

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
