//! Closed-loop `Scenario` → `Report` benchmark of the gossip workspace.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fig4_flat_1m --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One caller evaluates a fixed list of scenarios per workload through
//! the public `gossip` API; the next `Backend::evaluate` starts only
//! after the previous one returns. One **pass** evaluates every
//! scenario of the workload once, in a fixed order, and checks each
//! `Report` against a reference fixed here (see `workloads`). The run
//! first measures set-up in fresh child processes (each runs one cold
//! pass), then one warm-up pass, then warm passes for `--seconds`.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! traced and untraced passes (spans around every `evaluate`) and then
//! times each layer crate's public functions from outside (see
//! `trace`). The last stdout line is one JSON object; the lines before
//! it, prefixed `#`, are the run header and a human-readable summary.

mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use measure::{count_heap, cpu_seconds, mean, median, tail, CountingAlloc};
use trace::{probe_layers, Metric};
use workloads::{pass_calls, Layer, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cold set-up measurements per run (fresh child processes).
const COLD_RUNS: u64 = 5;
/// Fewest warm passes a run times, so the tail percentile has ten
/// samples beyond it.
const MIN_PASSES: usize = 11;
/// Passes with the heap counted, after the timed ones.
const HEAP_PASSES: u64 = 12;
/// End-to-end metrics of an untraced run, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_tail_s", "s"),
    ("cpu_s", "s"),
    ("heap_peak_mb", "MB"),
    ("ok_share", "share"),
];
/// Backends whose share of the traced pass is reported.
const SHARE_LAYERS: [Layer; 4] = [Layer::Graph, Layer::Protocol, Layer::NetSim, Layer::Runtime];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    cold_pass: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut cold_pass = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            "--cold-pass" => cold_pass = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25),
        trace,
        cold_pass,
    })
}

/// Evaluate calls attempted and failed (errored or missed the
/// reference).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One `evaluate` span: which backend, and when, relative to the run.
struct Span {
    pass: u64,
    call: &'static str,
    layer: Layer,
    start: Duration,
    end: Duration,
}

/// Runs pass `pass` of the workload; records a span per call when
/// `spans` is given.
fn run_pass(
    workload: Workload,
    seed: u64,
    pass: u64,
    tally: &mut Tally,
    mut spans: Option<(&mut Vec<Span>, Instant)>,
) {
    for call in pass_calls(workload, seed, pass) {
        let start = Instant::now();
        let result = call.layer.evaluate(&call.scenario);
        let end = Instant::now();
        if let Some((spans, origin)) = spans.as_mut() {
            spans.push(Span {
                pass,
                call: call.name,
                layer: call.layer,
                start: start - *origin,
                end: end - *origin,
            });
        }
        tally.attempted += 1;
        let verdict = result
            .map_err(|e| format!("evaluate failed: {e}"))
            .and_then(|report| call.check.verify(&report));
        if let Err(why) = verdict {
            tally.failed += 1;
            eprintln!("FAILED pass {pass} {}: {why}", call.name);
        }
    }
}

/// Child mode: one cold pass in a fresh process; prints
/// `cold <seconds> <attempted> <failed>`.
fn cold_pass(workload: Workload, seed: u64, pass: u64) {
    let start = Instant::now();
    let mut tally = Tally::default();
    run_pass(workload, seed, pass, &mut tally, None);
    let secs = start.elapsed().as_secs_f64();
    println!("cold {secs} {} {}", tally.attempted, tally.failed);
}

/// Runs cold pass `pass` in a child process and waits for it.
fn spawn_cold(workload: Workload, seed: u64, pass: u64) -> Result<(f64, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--cold-pass", &pass.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the cold pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("cold pass exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    match fields.as_slice() {
        ["cold", secs, attempted, failed] => {
            let parse_err = |e: &dyn std::fmt::Display| format!("cold pass output {text:?}: {e}");
            Ok((
                secs.parse().map_err(|e| parse_err(&e))?,
                Tally {
                    attempted: attempted.parse().map_err(|e| parse_err(&e))?,
                    failed: failed.parse().map_err(|e| parse_err(&e))?,
                },
            ))
        }
        _ => Err(format!("unexpected cold pass output {text:?}")),
    }
}

/// Measures cold set-up in `COLD_RUNS` fresh processes, passes
/// `0..COLD_RUNS`; returns their times.
fn measure_setup(workload: Workload, seed: u64, tally: &mut Tally) -> Result<Vec<f64>, String> {
    (0..COLD_RUNS)
        .map(|pass| {
            let (secs, cold) = spawn_cold(workload, seed, pass)?;
            tally.attempted += cold.attempted;
            tally.failed += cold.failed;
            Ok(secs)
        })
        .collect()
}

/// The untraced run: set-up, warm-up, warm passes for `seconds`, then
/// `HEAP_PASSES` passes with the heap counted.
fn run_end_to_end(args: &Args, header: &mut String) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let setup = measure_setup(args.workload, args.seed, &mut tally)?;
    let mut pass = COLD_RUNS;
    run_pass(args.workload, args.seed, pass, &mut tally, None);
    pass += 1;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while start.elapsed() < budget || walls.len() < MIN_PASSES {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        run_pass(args.workload, args.seed, pass, &mut tally, None);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        pass += 1;
    }
    let peaks: Vec<f64> = (0..HEAP_PASSES)
        .map(|_| {
            let ((), peak, _) =
                count_heap(|| run_pass(args.workload, args.seed, pass, &mut tally, None));
            pass += 1;
            peak as f64 / 1e6
        })
        .collect();
    let (tail_s, percentile, samples) = tail(&walls);
    let _ = writeln!(
        header,
        "# setup: {} cold passes in fresh processes, median of {:?} s",
        setup.len(),
        setup
    );
    let _ = writeln!(
        header,
        "# passes: {samples} warm, pass_tail_s = p{percentile:.1} (10 samples beyond it), \
         pass_s min/median/max = {:.4}/{:.4}/{:.4} s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
    );
    let _ = writeln!(
        header,
        "# heap: {HEAP_PASSES} counted passes after the timed ones, mean of their peak live-heap growth"
    );
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    let _ = writeln!(
        header,
        "# calls: {} attempted, {} failed, failed_share = {failed_share}",
        tally.attempted, tally.failed
    );
    let values = [
        median(&setup),
        median(&walls),
        tail_s,
        median(&cpus),
        // Mean, not median: each pass's peak depends on how its
        // parallel replications happen to overlap, which splits the
        // per-pass peaks into clusters a median jumps between.
        mean(&peaks),
        1.0 - failed_share,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok((tally, metrics))
}

/// The traced run: traced and untraced passes alternate for `seconds`,
/// then the per-layer probes run.
fn run_traced(args: &Args, header: &mut String) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut pass = COLD_RUNS;
    run_pass(args.workload, args.seed, pass, &mut tally, None);
    pass += 1;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<(u64, Duration, Duration)> = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    while start.elapsed() < budget || traced.len() < 2 {
        for with_spans in [true, false] {
            let t0 = Instant::now();
            let recorder = with_spans.then_some((&mut spans, origin));
            run_pass(args.workload, args.seed, pass, &mut tally, recorder);
            let t1 = Instant::now();
            if with_spans {
                passes.push((pass, t0 - origin, t1 - origin));
                traced.push((t1 - t0).as_secs_f64());
            } else {
                untraced.push((t1 - t0).as_secs_f64());
            }
            pass += 1;
        }
    }

    let mut metrics = probe_layers(args.workload, args.seed);
    metrics.extend(span_metrics(&spans, &traced, &untraced));
    let _ = writeln!(
        header,
        "# trace: {} traced + {} untraced passes, {} spans, {} calls attempted, {} failed",
        traced.len(),
        untraced.len(),
        spans.len(),
        tally.attempted,
        tally.failed
    );
    write_spans(args, &passes, &spans, header);
    (tally, metrics)
}

/// Each backend's share of the traced passes' wall time, and the
/// traced passes' median against the untraced ones'.
fn span_metrics(spans: &[Span], traced: &[f64], untraced: &[f64]) -> Vec<Metric> {
    let traced_total: f64 = traced.iter().sum();
    let mut metrics: Vec<Metric> = SHARE_LAYERS
        .iter()
        .map(|&layer| {
            let busy: f64 = spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| (s.end - s.start).as_secs_f64())
                .fold(0.0, |a, b| a + b);
            Metric {
                name: format!("{}.pass_share", layer.name()),
                value: busy / traced_total,
                unit: "share",
            }
        })
        .collect();
    metrics.push(Metric {
        name: "trace.overhead_share".to_string(),
        value: median(traced) / median(untraced) - 1.0,
        unit: "share",
    });
    metrics
}

/// Writes the spans as JSON lines (pass spans, then their `evaluate`
/// children with self times) under `e2ebench/results/`.
fn write_spans(
    args: &Args,
    passes: &[(u64, Duration, Duration)],
    spans: &[Span],
    header: &mut String,
) {
    let mut text = String::new();
    for &(pass, start, end) in passes {
        let children: Duration = spans
            .iter()
            .filter(|s| s.pass == pass)
            .map(|s| s.end - s.start)
            .sum();
        let self_ns = (end - start).saturating_sub(children).as_nanos();
        let _ = writeln!(
            text,
            "{{\"span\":\"pass\",\"id\":{pass},\"parent\":null,\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            start.as_nanos(),
            end.as_nanos()
        );
    }
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"span\":\"evaluate\",\"call\":\"{}\",\"backend\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.call,
            s.layer.name(),
            s.pass,
            s.start.as_nanos(),
            s.end.as_nanos()
        );
    }
    let dir = Path::new("e2ebench").join("results");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => {
            let _ = writeln!(header, "# spans written to {}", path.display());
        }
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}

/// Source identity: the git revision when the tree is a repository,
/// and always an FNV-1a digest of the Rust sources and manifests.
fn source_identity() -> String {
    // The ceiling keeps git from finding a repository above the tree.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    for root in ["Cargo.toml", "src", "crates", "vendor", "e2ebench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("rev={rev} src_fnv64={hash:016x} ({} files)", files.len())
}

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        let keep = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        );
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n != "target") {
                collect_sources(&child, out);
            }
        }
    }
}

fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn run_header(args: &Args) -> String {
    let nproc = workloads::cores();
    let mut header = String::new();
    let _ = writeln!(
        header,
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        header,
        "# {} nproc={nproc} rustc=\"{}\" profile={} l3={}",
        source_identity(),
        env!("E2EBENCH_RUSTC"),
        env!("E2EBENCH_PROFILE"),
        l3_size()
    );
    let sets: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{}={}", w.name(), w.working_set_bytes()))
        .collect();
    let _ = writeln!(header, "# working_set_bytes {}", sets.join(" "));
    let _ = writeln!(
        header,
        "# closed loop, 1 caller; pass = {} calls; tcp transport unmeasured",
        pass_calls(args.workload, args.seed, 0).len()
    );
    header
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.cold_pass {
        cold_pass(args.workload, args.seed, pass);
        return ExitCode::SUCCESS;
    }
    let mut header = run_header(&args);
    let (tally, metrics) = if args.trace {
        run_traced(&args, &mut header)
    } else {
        match run_end_to_end(&args, &mut header) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        let _ = writeln!(header, "# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print!("{header}");
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
