//! End-to-end and per-layer benchmark of UDT training and serving.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_es|train_udt|serve_point|serve_batch> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for what each workload and metric means.

mod inputs;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use udt_data::split::TrainTest;
use udt_obs::trace::{self, TraceEvent};
use udt_serve::client::Client;
use udt_tree::{Algorithm, TreeBuilder};

use crate::inputs::{Inputs, FOLDS};
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::serve::{LoopResult, LoopSpec, Requests, Running, Shape, MODEL};
use crate::stats::{median, Tally};
use crate::train::FoldChecks;

const USAGE: &str = "usage: udt-perfbench --workload <train_es|train_udt|serve_point|serve_batch> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median. A train set-up
/// is a cold build in a process of its own; a serving run measures one
/// segment of its loop after each set-up.
const SETUP_REPS: usize = 5;
/// Node depth to which the builder's own spans are recorded.
const TRACE_NODE_DEPTH: usize = 6;
/// Seconds of point traffic behind the serving probe of a train workload.
const SERVE_PROBE_SECONDS: f64 = 1.0;
/// Seconds of one closed-loop block in a traced serving run.
const TRACE_BLOCK_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainEs,
    TrainUdt,
    ServePoint,
    ServeBatch,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train_es" => Some(Workload::TrainEs),
            "train_udt" => Some(Workload::TrainUdt),
            "serve_point" => Some(Workload::ServePoint),
            "serve_batch" => Some(Workload::ServeBatch),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainEs => "train_es",
            Workload::TrainUdt => "train_udt",
            Workload::ServePoint => "serve_point",
            Workload::ServeBatch => "serve_batch",
        }
    }

    /// The percentile reported as `tail_ms`: the highest that keeps ten
    /// samples beyond it in a default-length run.
    fn tail_q(self) -> f64 {
        match self {
            Workload::TrainEs => 0.9,
            Workload::TrainUdt => 0.75,
            Workload::ServePoint => 0.9,
            Workload::ServeBatch => 0.9,
        }
    }

    fn algorithm(self) -> Option<Algorithm> {
        match self {
            Workload::TrainEs => Some(Algorithm::UdtEs),
            Workload::TrainUdt => Some(Algorithm::Udt),
            Workload::ServePoint | Workload::ServeBatch => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one cold set-up of a train workload and print its time and
    /// tree (the child process behind each train `setup_s` sample).
    cold_build: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut cold_build = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--cold-build" => {
                cold_build = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--cold-build must be 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        cold_build,
    })
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("/proc/self/status has no {field}"))
}

/// Resets the peak-RSS mark and returns the RSS now, in kB.
fn reset_peak_rss() -> Result<u64, String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))?;
    status_kb("VmRSS")
}

fn main() -> ExitCode {
    let overrides = stats::udt_overrides(std::env::vars());
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each UDT_* variable changes the program \
             being measured",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.cold_build {
        return cold_build_main(&args);
    }
    let (mut metrics, mut tally) = (Metrics::default(), Tally::default());
    let outcome = run(&args, &mut metrics, &mut tally);
    if let Err(e) = &outcome {
        eprintln!("perfbench: {e}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (shown, missing) = metrics.ordered(table);
    for m in &shown {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
    }
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            tally.failed, tally.attempted
        );
    }
    let correct = outcome.is_ok() && tally.failed == 0 && missing.is_empty();
    println!("{}", report::result_line(correct, tally, &shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child side of a train `setup_s` sample: prints the seconds of
/// one cold fold-0 build on its first line and the tree's persisted
/// bytes after it.
fn cold_build_main(args: &Args) -> ExitCode {
    let done = args
        .workload
        .algorithm()
        .ok_or("--cold-build needs a train workload".to_string())
        .and_then(|algorithm| {
            let inputs = inputs::generate(args.seed)?;
            train::cold_build(algorithm, &inputs.folds)
        })
        .and_then(|(secs, bytes)| {
            let mut out = std::io::stdout().lock();
            write!(out, "{secs}\n{bytes}")
                .and_then(|()| out.flush())
                .map_err(|e| e.to_string())
        });
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A cold set-up: its seconds and its fold-0 tree, persisted.
type ColdBuild = (f64, String);

/// Runs [`SETUP_REPS`] cold set-ups of a train workload, one after the
/// other, each in a new process of this program: the build pool is
/// cached for a process's lifetime, so only a process's first build
/// starts it. `None` marks a set-up whose process failed.
fn cold_set_ups(args: &Args) -> Result<Vec<Option<ColdBuild>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..SETUP_REPS {
        let child = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--cold-build", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cold set-up: {e}"))?;
        let parsed = String::from_utf8(child.stdout)
            .ok()
            .filter(|_| child.status.success())
            .and_then(|text| {
                let (secs, bytes) = text.split_once('\n')?;
                Some((secs.parse().ok()?, bytes.to_string()))
            });
        if parsed.is_none() {
            eprintln!("perfbench: cold set-up failed ({})", child.status);
        }
        out.push(parsed);
    }
    Ok(out)
}

fn run(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} simd_backend={} build_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        udt_tree::kernel::detected_backend().name(),
        train::THREADS,
    );
    // Before this process holds its own inputs, so two copies never
    // share the host's memory.
    let cold = match args.workload.algorithm() {
        Some(_) if !args.trace => cold_set_ups(args)?,
        _ => Vec::new(),
    };
    let inputs = inputs::generate(args.seed)?;
    let n: usize = inputs.folds[0].train.len() + inputs.folds[0].test.len();
    println!(
        "inputs: {n} tuples, {} attributes, {} classes, {} pdf points, {FOLDS} folds",
        inputs.folds[0].train.n_attributes(),
        inputs.folds[0].train.n_classes(),
        inputs.pdf_points,
    );
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let baseline_kb = reset_peak_rss()?;
    println!(
        "memory: {:.1} MB resident once the inputs exist",
        stats::peak_above_baseline_mb(baseline_kb, 0)
    );
    match args.workload {
        Workload::TrainEs => run_train(args, Algorithm::UdtEs, &inputs, cold, &out_dir, m, tally)?,
        Workload::TrainUdt => run_train(args, Algorithm::Udt, &inputs, cold, &out_dir, m, tally)?,
        Workload::ServePoint => run_serve(args, Shape::Point, 2, &inputs, &out_dir, m, tally)?,
        Workload::ServeBatch => run_serve(args, Shape::Batch, 1, &inputs, &out_dir, m, tally)?,
    }
    if !args.trace {
        let peak_kb = status_kb("VmHWM")?;
        m.put(
            "peak_rss_mb",
            stats::peak_above_baseline_mb(peak_kb, baseline_kb),
        );
        m.put("ok_frac", tally.ok_frac());
    }
    Ok(())
}

/// Records `p50_ms` and `tail_ms` of `latencies`.
fn put_latencies(workload: Workload, latencies: &[f64], m: &mut Metrics) -> Result<(), String> {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = workload.tail_q();
    let tail = stats::tail(&sorted, q)?;
    println!(
        "latency: {} samples; tail_ms is p{} with {} samples beyond it",
        sorted.len(),
        q * 100.0,
        tail.beyond
    );
    m.put("p50_ms", stats::quantile(&sorted, 0.5));
    m.put("tail_ms", tail.value);
    Ok(())
}

/// The results of [`alternate`].
struct Alternated<T> {
    plain: Vec<T>,
    traced: Vec<T>,
    /// Every span recorded while a traced operation ran.
    events: Vec<TraceEvent>,
}

/// Runs `op` in pairs, once untraced and once with a trace collector
/// active, until `seconds` have passed; `op` gets the pair's index. The
/// order within a pair alternates, so both sides see the same drift in
/// host speed and the same warm-up.
fn alternate<T>(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Result<Alternated<T>, String> {
    let started = Instant::now();
    let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let mut pair = 0;
    while pair == 0 || started.elapsed().as_secs_f64() < seconds {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            if on {
                trace::start(TRACE_NODE_DEPTH);
                let result = op(pair);
                events.extend(trace::finish());
                traced.push(result?);
            } else {
                plain.push(op(pair)?);
            }
        }
        pair += 1;
    }
    events.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    Ok(Alternated {
        plain,
        traced,
        events,
    })
}

/// Records the traced run: writes the Chrome trace, prints self time
/// per span and returns the traced p50 over the untraced one, minus 1.
fn report_trace(
    args: &Args,
    out_dir: &Path,
    events: &[TraceEvent],
    plain_ms: &[f64],
    traced_ms: &[f64],
) -> Result<f64, String> {
    if plain_ms.is_empty() || traced_ms.is_empty() {
        return Err("no operation succeeded".to_string());
    }
    let path: PathBuf = out_dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    trace::write_chrome_trace(&path, events).map_err(|e| e.to_string())?;
    println!(
        "trace: {} spans written to {}",
        events.len(),
        path.display()
    );
    let mut totals: Vec<_> = spans::self_times(events).into_iter().collect();
    totals.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "{:<20} {:>10} {:>14} {:>14}",
        "span", "count", "total ms/op", "self ms/op"
    );
    let ops = traced_ms.len();
    for (name, t) in totals {
        let per_op = |ns: u64| ns as f64 / 1e6 / ops as f64;
        println!(
            "{name:<20} {:>10} {:>14.4} {:>14.4}",
            t.count,
            per_op(t.total_ns),
            per_op(t.self_ns)
        );
    }
    let (plain, traced) = (median(plain_ms), median(traced_ms));
    println!("p50: untraced {plain:.4} ms, traced {traced:.4} ms");
    Ok(traced / plain - 1.0)
}

fn run_train(
    args: &Args,
    algorithm: Algorithm,
    inputs: &Inputs,
    cold: Vec<Option<ColdBuild>>,
    out_dir: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let folds: &[TrainTest] = &inputs.folds;
    let builder = TreeBuilder::new(train::config(algorithm));
    let mut checks = FoldChecks::new(FOLDS);
    if !args.trace {
        let min_ops = stats::min_samples_for_tail(args.workload.tail_q());
        let lp = train::run_loop(&builder, folds, &mut checks, args.seconds, min_ops);
        tally.merge(lp.tally);
        // Each cold set-up's tree must match this process's fold-0 tree.
        let mut setup_s = Vec::new();
        for set_up in cold {
            match set_up {
                Some((secs, bytes)) if checks.reference(0) == Some(bytes.as_str()) => {
                    setup_s.push(secs);
                    tally.ok();
                }
                _ => tally.fail(),
            }
        }
        if tally.failed > 0 {
            return Ok(());
        }
        println!("trees: {:.1} nodes on average", checks.mean_nodes());
        m.put("setup_s", median(&setup_s));
        put_latencies(args.workload, &lp.latencies_ms, m)?;
        m.put("tuples_per_s", lp.tuples as f64 / lp.wall_s);
        m.put("test_accuracy", checks.accuracy());
        return Ok(());
    }

    // Both builds of a pair are of the same fold.
    let Alternated {
        plain,
        traced,
        events,
    } = alternate(args.seconds, |pair| {
        let (ms, tree) = train::build_checked(&builder, folds, pair % FOLDS, &mut checks);
        Ok(tree.map(|_| ms))
    })?;
    for built in plain.iter().chain(&traced) {
        if built.is_some() {
            tally.ok();
        } else {
            tally.fail();
        }
    }
    let plain_ms: Vec<f64> = plain.into_iter().flatten().collect();
    let traced_ms: Vec<f64> = traced.into_iter().flatten().collect();
    let overhead = report_trace(args, out_dir, &events, &plain_ms, &traced_ms)?;
    m.put("trace.overhead_frac", overhead);

    let model_path = out_dir.join(format!("model-{}.json", args.workload.name()));
    let tree = layers::build_layers(algorithm, &folds[0].train, &model_path, m)?;
    let p50 = median(&plain_ms);
    let unattributed = m
        .get("build.unattributed_ms")
        .expect("build layers recorded");
    println!(
        "unattributed build time: {unattributed:.4} ms per build, {:.2}% of the {p50:.4} ms p50",
        100.0 * unattributed / p50
    );
    m.put("trace.unattributed_frac", unattributed / p50);

    // The serving layers, probed with point traffic against fold 0's tree.
    let requests = Requests::new(Shape::Point, &folds[0].test, args.seed);
    let expected = requests.expected(&tree)?;
    let running = Running::start()?;
    let probed = (|| {
        Client::connect(running.addr)
            .and_then(|mut c| c.load_model(MODEL, &model_path.to_string_lossy()))
            .map_err(|e| e.to_string())?;
        let spec = LoopSpec {
            callers: 2,
            seconds: SERVE_PROBE_SECONDS,
            min_ops: 1,
            seed: args.seed,
        };
        let lp = serve::closed_loop(running.addr, &requests, &expected, tree.n_classes(), &spec)?;
        tally.merge(lp.tally);
        let server_stats = Client::connect(running.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| e.to_string())?;
        let p50_us = median(&lp.latencies_ms) * 1e3;
        layers::serve_layers(&tree, &requests, &expected, 2, &server_stats, p50_us, m)
    })();
    running.stop()?;
    probed
}

fn run_serve(
    args: &Args,
    shape: Shape,
    callers: usize,
    inputs: &Inputs,
    out_dir: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let fold = &inputs.folds[0];
    let requests = Requests::new(shape, &fold.test, args.seed);
    let model_path = out_dir.join(format!("model-{}.json", args.workload.name()));
    let mut reference = None;
    let spec = |seconds: f64, min_ops: usize| LoopSpec {
        callers,
        seconds,
        min_ops,
        seed: args.seed,
    };
    if !args.trace {
        // The timed loop runs in segments, each against a server of its
        // own set-up: a server settles into a faster or slower pattern
        // of batching for its lifetime, and the median segment is steadier
        // than any one server.
        let segment_s = args.seconds / SETUP_REPS as f64;
        let min_ops = stats::min_samples_for_tail(args.workload.tail_q()).div_ceil(SETUP_REPS);
        let mut all = LoopResult::empty(requests.labels.len());
        let (mut setup_s, mut rates) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_REPS {
            let checked =
                serve::set_up_checked(&fold.train, &model_path, &requests, &mut reference, tally)?;
            let Some((secs, running, tree)) = checked else {
                continue;
            };
            setup_s.push(secs);
            let segment = requests.expected(&tree).and_then(|expected| {
                serve::closed_loop(
                    running.addr,
                    &requests,
                    &expected,
                    tree.n_classes(),
                    &spec(segment_s, min_ops),
                )
            });
            running.stop()?;
            let segment = segment?;
            rates.push(segment.tuples as f64 / segment.wall_s);
            all.absorb(segment);
        }
        tally.merge(all.tally);
        if tally.failed > 0 {
            return Ok(());
        }
        m.put("setup_s", median(&setup_s));
        put_latencies(args.workload, &all.latencies_ms, m)?;
        m.put("tuples_per_s", median(&rates));
        m.put("test_accuracy", all.accuracy(&requests.labels));
        return Ok(());
    }

    let checked =
        serve::set_up_checked(&fold.train, &model_path, &requests, &mut reference, tally)?;
    let Some((_, running, tree)) = checked else {
        return Ok(());
    };
    let result = (|| {
        let expected = requests.expected(&tree)?;
        let k = tree.n_classes();
        let Alternated {
            plain,
            traced,
            events,
        } = alternate(args.seconds, |_| {
            let block = spec(TRACE_BLOCK_SECONDS, 1);
            serve::closed_loop(running.addr, &requests, &expected, k, &block)
        })?;
        let n_test = requests.labels.len();
        let (mut plain_all, mut traced_all) =
            (LoopResult::empty(n_test), LoopResult::empty(n_test));
        plain.into_iter().for_each(|block| plain_all.absorb(block));
        traced
            .into_iter()
            .for_each(|block| traced_all.absorb(block));
        tally.merge(plain_all.tally);
        tally.merge(traced_all.tally);
        let overhead = report_trace(
            args,
            out_dir,
            &events,
            &plain_all.latencies_ms,
            &traced_all.latencies_ms,
        )?;
        m.put("trace.overhead_frac", overhead);
        let server_stats = Client::connect(running.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| e.to_string())?;
        let probe_path = out_dir.join(format!("probe-{}.json", args.workload.name()));
        layers::build_layers(Algorithm::UdtEs, &fold.train, &probe_path, m)?;
        let p50_us = median(&plain_all.latencies_ms) * 1e3;
        layers::serve_layers(
            &tree,
            &requests,
            &expected,
            callers,
            &server_stats,
            p50_us,
            m,
        )?;
        let unattributed = m
            .get("wire.unattributed_us")
            .expect("serve layers recorded");
        println!(
            "unattributed wire time: {unattributed:.2} us per request, {:.2}% of the {p50_us:.2} us p50",
            100.0 * unattributed / p50_us
        );
        m.put("trace.unattributed_frac", unattributed / p50_us);
        Ok(())
    })();
    running.stop()?;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace collector is process-wide; tests that start it take turns.
    static COLLECTOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn alternate_traces_only_the_traced_half() {
        let _turn = COLLECTOR.lock().unwrap_or_else(|p| p.into_inner());
        let mut active = Vec::new();
        let out = alternate(0.0, |pair| {
            active.push(trace::active());
            let _s = trace::span("probe", "test");
            Ok(pair)
        })
        .expect("no operation fails");
        assert_eq!((out.plain, out.traced), (vec![0], vec![0]));
        assert_eq!(active, [false, true]);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].name, "probe");
        assert!(!trace::active());
    }

    #[test]
    fn alternate_stops_tracing_when_the_traced_operation_fails() {
        let _turn = COLLECTOR.lock().unwrap_or_else(|p| p.into_inner());
        let mut calls = 0;
        let out = alternate(0.0, |_| {
            calls += 1;
            if trace::active() {
                Err("traced failure".to_string())
            } else {
                Ok(())
            }
        });
        assert_eq!(out.err().as_deref(), Some("traced failure"));
        assert_eq!(calls, 2);
        assert!(!trace::active());
    }
}
