//! `perfbench` — the broker system's benchmark.
//!
//! ```text
//! perfbench --brokerd PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench stats RESULTS...
//! perfbench compare BASE NEW
//! ```
//!
//! A run sets the system up three times (the median is `setup_s`),
//! then spends its seconds in passes over the offline pipeline, a real
//! `brokerd` child serving single queries and batches, and churn
//! epochs, and checks every output it gets. The last line of stdout is one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate.

mod churn;
mod daemon;
mod helpers;
mod pipeline;
mod reference;
mod serve;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile_sorted, summarize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{child_sums_s, durations_s, self_times, totals, Tracer};
use workload::{System, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest passes per run, so every series has a traced and an untraced
/// half in a traced run.
const MIN_PASSES: usize = 2;
/// Seconds of single queries and of batch frames per pass.
const QUERY_SLICE_S: f64 = 0.8;
const BATCH_SLICE_S: f64 = 0.8;
/// Length of the serving stream (a whole number of batch frames).
const STREAM: usize = 1 << 16;
/// Where runs leave the saved index, spans and reports.
const OUT_DIR: &str = ".bench_out";

/// Timings of one kind, split by whether the unit was traced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Untraced units (every unit of an untraced run).
    pub plain: Vec<f64>,
    /// Traced units.
    pub traced: Vec<f64>,
}

impl Samples {
    /// Record one unit's value.
    pub fn push(&mut self, traced: bool, v: f64) {
        if traced {
            self.traced.push(v);
        } else {
            self.plain.push(v);
        }
    }

    /// The traced or the untraced values.
    pub fn side(&self, traced: bool) -> &[f64] {
        if traced {
            &self.traced
        } else {
            &self.plain
        }
    }
}

/// Operation counts and failed checks of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations handed to the program.
    pub attempted: u64,
    /// Operations the program refused with an error.
    pub failed: u64,
    /// Failed checks (the first few, for the report).
    pub errors: Vec<String>,
    /// Failed checks in all.
    pub error_count: usize,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error_count += 1;
            if self.errors.len() < 20 {
                self.errors.push(msg());
            }
        }
    }
}

#[derive(Debug)]
struct Args {
    brokerd: PathBuf,
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --brokerd PATH --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench stats RESULTS...\n       perfbench compare BASE NEW\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let (mut brokerd, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--brokerd" => brokerd = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed expects an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=600).contains(&s))
                        .unwrap_or_else(|| usage("--seconds expects a whole number 1..=600")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        brokerd: brokerd.unwrap_or_else(|| usage("--brokerd is required")),
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")) as f64,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => std::process::exit(helpers::stats(&args[1..])),
        Some("compare") => std::process::exit(helpers::compare(&args[1..])),
        _ => {}
    }
    let args = parse_args(&args);
    std::process::exit(run(&args));
}

/// The measured series of one run.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Samples,
    round_s: Samples,
    serve: serve::ServeOut,
    churn: churn::ChurnOut,
    index_bytes: usize,
}

fn run(args: &Args) -> i32 {
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: creating {OUT_DIR}: {e}");
        return 1;
    }
    let w = args.workload;
    let tag = format!("{}-s{}-t{}", w.name, args.seed, u8::from(args.trace));
    let index_path = out_dir.join(format!("index-{tag}-{}.bri", std::process::id()));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let mut m = Measured::default();

    let sys = set_up(args, threads, &index_path, &mut tr, &mut out, &mut m);
    let Some(mut sys) = sys else {
        let _ = std::fs::remove_file(&index_path);
        return 1;
    };
    m.index_bytes = sys.index_bytes;

    // Passes: one pipeline round, a slice of single queries, a slice of
    // batch frames and one churn round each, so that every metric samples
    // the whole run rather than one stretch of it. In a traced run the
    // passes alternate traced and untraced.
    let mut client = serve::Client::new(
        &sys,
        churn::queries(sys.g.node_count(), STREAM, args.seed ^ 0x5e7e),
    );
    let inputs = churn::inputs(&sys, args.seed);
    let mut first: Option<pipeline::Round> = None;
    let mut serving = true;
    let start = Instant::now();
    for pass in 0.. {
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        tr.set_active(pass % 2 == 0);
        let req = tr.request();
        let t0 = Instant::now();
        let round = pipeline::round(&sys.g, threads, &mut tr, req);
        m.round_s.push(tr.active(), t0.elapsed().as_secs_f64());
        out.attempted += 6;
        match &first {
            None => {
                pipeline::check(&sys.g, &round, &mut out);
                first = Some(round);
            }
            Some(f) => out.check(*f == round, || {
                "a repeated pipeline round gave other results".into()
            }),
        }
        let conn = &mut sys.daemon.conn;
        serving = serving
            && client.query_slice(conn, QUERY_SLICE_S, &mut tr, &mut out)
            && client.batch_slice(conn, BATCH_SLICE_S, &mut tr, &mut out);
        churn::round(
            &sys,
            &inputs,
            threads,
            pass == 0,
            &mut tr,
            &mut m.churn,
            &mut out,
        );
    }
    tr.set_active(true);
    m.serve = client.finish(&mut sys, &mut tr, &mut out);

    let System { daemon, .. } = sys;
    serve::stop(daemon, &mut out);
    let _ = std::fs::remove_file(&index_path);
    finish(args, &tag, threads, &tr, &out, &m)
}

/// Set the system up [`SETUPS`] times, stopping each daemon but the
/// last; check the last set-up.
fn set_up(
    args: &Args,
    threads: usize,
    index_path: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
    m: &mut Measured,
) -> Option<System> {
    let mut sys: Option<System> = None;
    for i in 0..SETUPS {
        if let Some(prev) = sys.take() {
            serve::stop(prev.daemon, out);
        }
        tr.set_active(i % 2 == 0);
        let req = tr.request();
        match workload::setup(args.workload, threads, &args.brokerd, index_path, tr, req) {
            Ok((s, secs)) => {
                m.setup_s.push(tr.active(), secs);
                sys = Some(s);
            }
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return None;
            }
        }
    }
    tr.set_active(true);
    let s = sys?;
    out.check(s.codec_roundtrip_ok, || {
        "the saved BRI1 blob does not decode to the built index".into()
    });
    let audit = netgraph::Validate::audit(&s.index);
    out.check(audit.is_ok(), || format!("index audit: {audit:?}"));
    let stream_audit = topology::Validate::audit(&s.stream);
    out.check(stream_audit.is_ok(), || {
        format!("growth stream audit: {stream_audit:?}")
    });
    let want = (
        s.g.node_count() as u32,
        s.roster.len() as u32,
        workload::MAX_L as u8,
    );
    out.check(s.daemon.shape == want, || {
        format!("brokerd serves shape {:?}, built {want:?}", s.daemon.shape)
    });
    Some(s)
}

/// End-to-end metric values from one side (traced or untraced units).
fn end_to_end(m: &Measured, traced: bool) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let med = |s: &Samples| median(s.side(traced));
    vec![
        ("setup_s", "s", med(&m.setup_s)),
        ("pipeline_s", "s", med(&m.round_s)),
        ("query_p50_us", "us", med(&m.serve.query_us)),
        (
            "batch_qps",
            "queries/s",
            med(&m.serve.frame_us).map(|us| serve::BATCH as f64 / (us * 1e-6)),
        ),
        (
            "index_mb",
            "MiB",
            Some(m.index_bytes as f64 / f64::from(1 << 20)),
        ),
        (
            "daemon_rss_mb",
            "MiB",
            Some(m.serve.rss_kib as f64 / 1024.0),
        ),
        ("epoch_p50_ms", "ms", med(&m.churn.epoch_ms)),
        (
            "read_qps",
            "queries/s",
            med(&m.churn.burst_s).map(|s| churn::BURST as f64 / s),
        ),
    ]
}

/// Per-layer metrics, derived from the spans of traced units.
fn per_layer(tr: &Tracer, m: &Measured) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let sp = tr.spans();
    // Median over `root` spans of their summed `child` spans, scaled.
    let child = |root: &str, name: &str, scale: f64| {
        median(&child_sums_s(sp, root, name)).map(|v| v * scale)
    };
    let per_item_ns = |name: &str| {
        let (ns, count) = totals(sp, name);
        (count > 0).then(|| ns as f64 / count as f64)
    };
    let (round, fault, growth) = ("pipeline.round", "churn.fault_epoch", "churn.growth_epoch");
    let codec = child("setup", "brokerset.index.encode", 1.0)
        .zip(child("setup", "brokerset.index.decode", 1.0))
        .map(|(a, b)| a + b);
    vec![
        (
            "topology.internet.generate_s",
            "s",
            child("setup", "topology.internet.generate", 1.0),
        ),
        (
            "topology.evolve.stream_s",
            "s",
            child("setup", "topology.evolve.stream", 1.0),
        ),
        (
            "brokerset.maxsg.select_s",
            "s",
            child(round, "brokerset.maxsg.select", 1.0),
        ),
        (
            "brokerset.parallel.curve_s",
            "s",
            child(round, "brokerset.parallel.curve", 1.0),
        ),
        (
            "brokerset.index.build_s",
            "s",
            child("setup", "brokerset.index.build", 1.0),
        ),
        ("brokerset.index.codec_s", "s", codec),
        ("brokerset.index.bytes", "bytes", Some(m.index_bytes as f64)),
        (
            "brokerset.index.lookup_ns",
            "ns",
            per_item_ns("brokerset.index.query"),
        ),
        (
            "brokerset.index.apply_state_ms",
            "ms",
            child(fault, "brokerset.index.apply_state", 1e3),
        ),
        (
            "brokerset.index.apply_delta_ms",
            "ms",
            child(growth, "brokerset.index.apply_delta", 1e3),
        ),
        (
            "brokerset.index.shards_rebuilt",
            "count",
            Some(m.churn.shards_rebuilt as f64),
        ),
        (
            "netgraph.delta.apply_ms",
            "ms",
            child(growth, "netgraph.delta.apply", 1e3),
        ),
        (
            "brokerset.incremental.apply_ms",
            "ms",
            child(growth, "brokerset.incremental.apply", 1e3),
        ),
        (
            "brokerset.incremental.gains_reevaluated",
            "count",
            Some(m.churn.gains_reevaluated as f64),
        ),
        (
            "routing.plan.build_ms",
            "ms",
            child(growth, "routing.plan.build", 1e3),
        ),
        (
            "routing.plan.execute_ms",
            "ms",
            child(growth, "routing.plan.execute", 1e3),
        ),
        ("proto.codec_ns", "ns", per_item_ns("proto.codec")),
        (
            "proto.hello_rtt_us",
            "us",
            median(&durations_s(sp, "proto.hello")).map(|s| s * 1e6),
        ),
        ("brokerd.ready_s", "s", child("setup", "brokerd.ready", 1.0)),
    ]
}

fn json_metrics(metrics: &[(&str, &str, Option<f64>)]) -> (String, bool) {
    let mut s = String::from("{");
    let mut complete = true;
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let v = value.filter(|v| v.is_finite());
        complete &= v.is_some();
        let v = v.map_or("null".to_string(), |v| format!("{v}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    (s, complete)
}

fn latency_line(name: &str, unit: &str, values: &[f64]) -> String {
    let Some(l) = summarize(values) else {
        return format!("  {name:<22} no samples");
    };
    let mut line = format!("  {name:<22} n={:<8} p50={:<12.4}", l.samples, l.p50);
    if l.tail_p > 99.0 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p99 = percentile_sorted(&sorted, 99.0).unwrap_or(l.tail);
        let _ = write!(line, " p99={p99:<12.4}");
    }
    if l.tail_p > 50.0 {
        let beyond = stats::samples_beyond(l.samples, l.tail_p);
        let _ = write!(
            line,
            " p{}={:.4} {unit} ({beyond} samples beyond)",
            l.tail_p, l.tail
        );
    } else {
        let _ = write!(line, " {unit} (median only)");
    }
    line
}

fn finish(args: &Args, tag: &str, threads: usize, tr: &Tracer, out: &Outcome, m: &Measured) -> i32 {
    let plain = end_to_end(m, false);
    let metrics = if args.trace {
        per_layer(tr, m)
    } else {
        plain.clone()
    };
    let (metrics_json, complete) = json_metrics(&metrics);
    let correct = out.error_count == 0 && complete;

    let side = |s: &Samples| s.side(args.trace).to_vec();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed {} seconds {} trace {} | closed loop, 1 client, 1 connection; brokerd --threads 1; {threads} worker threads in process",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        report,
        "  attempted {} failed {} checks failed {}",
        out.attempted, out.failed, out.error_count
    );
    let _ = writeln!(
        report,
        "  served hit rate {:.4}; first churn round: {} shards rebuilt, {} gains re-evaluated, {} plans executed",
        m.serve.hit_rate, m.churn.shards_rebuilt, m.churn.gains_reevaluated, m.churn.plans
    );
    for e in &out.errors {
        let _ = writeln!(report, "  CHECK FAILED: {e}");
    }
    let _ = writeln!(
        report,
        "latencies ({} units):",
        if args.trace { "traced" } else { "all" }
    );
    for (name, unit, v) in [
        ("setup", "s", side(&m.setup_s)),
        ("pipeline round", "s", side(&m.round_s)),
        ("QUERY round trip", "us", side(&m.serve.query_us)),
        ("BATCH frame", "us", side(&m.serve.frame_us)),
        ("churn epoch", "ms", side(&m.churn.epoch_ms)),
        ("lookup burst", "s", side(&m.churn.burst_s)),
    ] {
        let _ = writeln!(report, "{}", latency_line(name, unit, &v));
    }
    let rounds: Vec<String> = side(&m.round_s).iter().map(|s| format!("{s:.4}")).collect();
    let _ = writeln!(report, "  pipeline rounds (s): {}", rounds.join(" "));
    for (name, unit, v) in &metrics {
        let _ = writeln!(
            report,
            "  {name:<40} {:>16} {unit}",
            v.map_or("-".into(), |v| format!("{v:.6}"))
        );
    }
    if args.trace {
        let _ = writeln!(
            report,
            "tracing overhead (traced units minus untraced units of this run):"
        );
        for ((name, unit, t), (_, _, p)) in end_to_end(m, true).iter().zip(&plain) {
            if let (Some(t), Some(p)) = (t, p) {
                let _ = writeln!(
                    report,
                    "  {name:<16} traced {t:.6} untraced {p:.6} diff {:+.6} {unit}",
                    t - p
                );
            }
        }
        let _ = writeln!(report, "self time by span (traced units):");
        for s in self_times(tr.spans()) {
            let _ = writeln!(
                report,
                "  {:<34} calls {:>8} total {:>12.6}s self {:>12.6}s",
                s.name,
                s.calls,
                s.total_ns as f64 * 1e-9,
                s.self_ns as f64 * 1e-9
            );
        }
        let spans = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload.name));
        if let Err(e) = tr.write_tsv(&spans) {
            eprintln!("warning: writing {}: {e}", spans.display());
        }
    }
    eprint!("{report}");
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!("report-{tag}.txt")),
        &report,
    );

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        out.attempted.max(1),
        out.failed
    );
    i32::from(!correct)
}
