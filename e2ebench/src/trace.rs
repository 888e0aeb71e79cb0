//! The per-layer trace: timed calls into each layer crate's public
//! functions, made from outside with the parameters of the workload the
//! layer works in, plus spans around every `evaluate` of a pass.
//! Nothing inside the library is instrumented. Every traced run prints
//! every metric; the parameters of a probe are those of the workload
//! named below, whichever workload the run traces.
//!
//! Which end-to-end metric each layer metric should move, on which
//! workload:
//!
//! | layer metric | end-to-end metric | workload |
//! |---|---|---|
//! | `core.validate_us` | `setup_s` | all |
//! | `stats.alias_draw_ns` | `pass_s` | `fig4_flat_1m` |
//! | `stats.parallel_map_us` | `pass_s` | `classic_faults_1e4` (short calls) |
//! | `engine.relay_rep_ms`, `engine.relay_ns_per_copy`, `engine.copies_per_rep` | `pass_s`, `cpu_s` | `fig4_flat_1m` (not `stream_1e5` today) |
//! | `engine.sampler_draw_ns` | `pass_s` | `fig4_flat_1m` |
//! | `rgraph.percolation_rep_ms`, `rgraph.uf_ns_per_op` | `pass_s` | `fig4_flat_1m` |
//! | `rgraph.eval_alloc_mb` | `heap_peak_mb`, `setup_s` | `fig4_flat_1m` |
//! | `traffic.*` | `pass_s` | `stream_1e5` |
//! | `netsim.events_per_exec`, `netsim.ns_per_event` | `pass_s` | `classic_faults_1e4`, and the timed point of `stream_1e5` |
//! | `protocol.classic_exec_ms` | `pass_s` | `classic_faults_1e4` |
//! | `topology.build_overlay_ms` | `setup_s`, `pass_s` | `classic_faults_1e4` |
//! | `topology.select_ns`, `faults.*` | `pass_s` | `classic_faults_1e4` |
//! | `runtime.*` | `pass_s`, `cpu_s` | `classic_faults_1e4` |
//! | `{graph,protocol,netsim,runtime}.pass_share` | which call dominates `pass_s` | the traced workload |
//! | `trace.overhead_share` | traced against untraced `pass_s` | the traced workload |

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gossip::model::distribution::{FanoutDistribution, PoissonFanout};
use gossip::netsim::membership::FullView;
use gossip::netsim::{FailurePlan, LatencyModel, NetworkConfig, SimDuration, Simulator};
use gossip::protocol::engine::run_push;
use gossip::protocol::{ExecutionConfig, GossipMessage, MessageId, PushGossip};
use gossip::rgraph::{FlatPercolation, PercolationScratch, UnionFind};
use gossip::stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip::stats::{parallel_map, AliasTable};
use gossip::topology::{build_overlay, select_targets};
use gossip::{
    Backend, ChurnSpec, FanoutSpec, GraphBackend, PeerSelection, RuntimeBackend, Scenario,
};
use gossip_engine::{FanoutSampler, RelayScratch, RelaySetup};
use gossip_faults::{ChurnPlan, GeChain, GilbertElliott};
use gossip_traffic::{injection_rounds, run_stream, StreamParams, StreamScratch, TrafficSpec};

use crate::measure::{count_heap, median};
use crate::workloads::{
    bursty, cores, pass_calls, ws_topology, Workload, CHURN_HORIZON_MS, CHURN_RATE, FANOUT_MEAN,
    FIG4_QS, N_CLASSIC, N_FIG4, N_STREAM, Q,
};

/// One per-layer metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Seed of probe stream `tag`, repetition `i`.
fn probe_seed(seed: u64, tag: u64, i: u64) -> u64 {
    SplitMix64::derive(SplitMix64::derive(seed, 0xE2E0_0000 + tag), i)
}

/// Wall seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn poisson() -> PoissonFanout {
    PoissonFanout::new(FANOUT_MEAN)
}

/// Per-call nanoseconds of `calls` invocations of `f`, median of
/// `rounds` rounds.
fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let (secs, sum) = timed(|| (0..calls).map(&mut f).fold(0u64, u64::wrapping_add));
            black_box(sum);
            secs * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// All per-layer probes except the pass spans. The metrics of unit
/// `count` are pure functions of the seed, so two traced runs with one
/// seed print them identically.
pub fn probe_layers(workload: Workload, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    out.push(metric(
        "core.validate_us",
        validate_us(workload, seed),
        "us",
    ));
    stats_probes(seed, &mut out);
    engine_probes(seed, &mut out);
    rgraph_probes(seed, &mut out);
    traffic_probes(seed, &mut out);
    netsim_probe(seed, &mut out);
    protocol_probe(seed, &mut out);
    topology_probes(seed, &mut out);
    faults_probes(seed, &mut out);
    runtime_probe(seed, &mut out);
    out
}

/// `Scenario::validate` over the workload's own scenarios.
fn validate_us(workload: Workload, seed: u64) -> f64 {
    let calls = pass_calls(workload, seed, 0);
    let per_round = 200;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let (secs, ()) = timed(|| {
                for _ in 0..per_round {
                    for call in &calls {
                        black_box(black_box(&call.scenario).validate())
                            .expect("benchmark scenarios are valid");
                    }
                }
            });
            secs * 1e6 / (per_round * calls.len()) as f64
        })
        .collect();
    median(&samples)
}

fn stats_probes(seed: u64, out: &mut Vec<Metric>) {
    let dist = poisson();
    let weights: Vec<f64> = (0..=dist.truncation_point(1e-12))
        .map(|k| dist.pmf(k))
        .collect();
    let table = AliasTable::new(&weights);
    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 1, 0));
    let draw_ns = ns_per_call(5, 2_000_000, |_| table.sample(&mut rng) as u64);
    out.push(metric("stats.alias_draw_ns", draw_ns, "ns"));

    let workers = cores();
    let map_ns = ns_per_call(5, 200, |i| {
        parallel_map(workers, |j| black_box(i + j) as u64)
            .into_iter()
            .sum()
    });
    out.push(metric("stats.parallel_map_us", map_ns / 1e3, "us"));
}

/// Flat relay at n = 10⁶ over the Fig. 4 points.
fn engine_probes(seed: u64, out: &mut Vec<Metric>) {
    let dist = poisson();
    let sampler = FanoutSampler::new(&dist);
    let mut scratch = RelayScratch::new(N_FIG4);
    let mut rep_secs = Vec::new();
    let mut copies = 0u64;
    for (i, &q) in FIG4_QS.iter().enumerate() {
        for rep in 0..2 {
            let setup = RelaySetup {
                n: N_FIG4,
                source: 0,
                q,
                loss: 0.0,
                dist: &dist,
                sampler: &sampler,
                overlay: None,
                blocked: None,
                prefailed: &[],
            };
            let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 2, (2 * i + rep) as u64));
            let (secs, outcome) = timed(|| setup.run(&mut scratch, &mut rng));
            rep_secs.push(secs);
            copies += outcome.messages_sent;
        }
    }
    let reps = rep_secs.len() as f64;
    out.push(metric("engine.relay_rep_ms", median(&rep_secs) * 1e3, "ms"));
    out.push(metric(
        "engine.relay_ns_per_copy",
        rep_secs.iter().sum::<f64>() * 1e9 / copies.max(1) as f64,
        "ns",
    ));
    out.push(metric(
        "engine.copies_per_rep",
        copies as f64 / reps,
        "count",
    ));

    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 3, 0));
    let draw_ns = ns_per_call(5, 2_000_000, |_| sampler.sample(&dist, &mut rng) as u64);
    out.push(metric("engine.sampler_draw_ns", draw_ns, "ns"));
}

fn rgraph_probes(seed: u64, out: &mut Vec<Metric>) {
    let dist = poisson();
    let sampler = FanoutSampler::new(&dist);
    let mut scratch = PercolationScratch::new(N_FIG4);
    let rep_secs: Vec<f64> = FIG4_QS
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let flat = FlatPercolation {
                n: N_FIG4,
                q,
                loss: 0.0,
                dist: &dist,
                sampler: &sampler,
            };
            let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 4, i as u64));
            let (secs, r) = timed(|| flat.run(&mut scratch, &mut rng));
            black_box(r);
            secs
        })
        .collect();
    out.push(metric(
        "rgraph.percolation_rep_ms",
        median(&rep_secs) * 1e3,
        "ms",
    ));

    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 5, 0));
    let pairs: Vec<(u32, u32)> = (0..N_FIG4)
        .map(|_| {
            (
                rng.next_below(N_FIG4 as u64) as u32,
                rng.next_below(N_FIG4 as u64) as u32,
            )
        })
        .collect();
    let mut uf = UnionFind::new(N_FIG4);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            uf.reset();
            let (secs, sum) = timed(|| {
                pairs.iter().fold(0u64, |acc, &(a, b)| {
                    uf.union(a, b);
                    acc.wrapping_add(uf.find(a) as u64)
                })
            });
            black_box(sum);
            secs * 1e9 / (2 * pairs.len()) as f64
        })
        .collect();
    out.push(metric("rgraph.uf_ns_per_op", median(&samples), "ns"));

    let scenario = Scenario::new(N_FIG4, FanoutSpec::poisson(FANOUT_MEAN))
        .with_failure_ratio(Q)
        .with_replications(2)
        .with_seed(probe_seed(seed, 6, 0));
    let (report, _, allocated) = count_heap(|| GraphBackend.evaluate(&scenario));
    report.expect("the Fig. 4 graph point evaluates");
    let mb = allocated as f64 / 1e6;
    out.push(metric("rgraph.eval_alloc_mb", mb, "MB"));
}

/// The stream workload's streams, replayed the way the protocol
/// backend plays them.
fn traffic_probes(seed: u64, out: &mut Vec<Metric>) {
    let dist = poisson();
    let sampler = FanoutSampler::new(&dist);
    let mut scratch = StreamScratch::new();
    let mut hist = Vec::new();
    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 7, 0));
    let alive: Vec<bool> = (0..N_STREAM).map(|v| v == 0 || rng.next_bool(Q)).collect();
    // The workload's three stream calls, with their replications.
    let calls = pass_calls(Workload::Stream1e5, seed, 0);
    let variants: Vec<(&str, TrafficSpec, u64)> = [
        ("stream.k1.protocol", "k1"),
        ("stream.contended.protocol", "unbatched"),
        ("stream.batched.netsim", "batched"),
    ]
    .iter()
    .map(|&(call_name, label)| {
        let call = calls
            .iter()
            .find(|c| c.name == call_name)
            .expect("the stream workload has this call");
        let spec = call.scenario.traffic.expect("stream calls carry traffic");
        (label, spec, call.scenario.replications as u64)
    })
    .collect();
    // Per-replication means of each stream, summed over the three:
    // frames sent, copies dropped, copies delivered, copies sent.
    let mut per_rep = [0.0f64; 4];
    let mut total_secs = 0.0;
    let mut frames = 0u64;
    for (i, (label, spec, reps)) in variants.iter().enumerate() {
        let injections = injection_rounds(&spec.arrival, spec.messages, probe_seed(seed, 8, 0));
        let params = StreamParams {
            n: N_STREAM,
            source: 0,
            injections: &injections,
            bandwidth: spec.bandwidth,
            queue_capacity: spec.queue_capacity,
            frame_limit: spec.frame_limit(),
            loss: 0.0,
            alive: &alive,
        };
        let mut rep_secs = Vec::new();
        for rep in 0..*reps {
            let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 9, 16 * i as u64 + rep));
            let (secs, outcome) = timed(|| {
                run_stream(
                    &params,
                    &mut scratch,
                    &mut rng,
                    &mut |r| sampler.sample(&dist, r),
                    &mut hist,
                )
            });
            rep_secs.push(secs);
            let c = outcome.counters;
            frames += c.frames_sent;
            let counts = [
                c.frames_sent,
                c.copies_dropped,
                c.copies_delivered,
                c.copies_sent,
            ];
            for (total, count) in per_rep.iter_mut().zip(counts) {
                *total += count as f64 / *reps as f64;
            }
        }
        total_secs += rep_secs.iter().sum::<f64>();
        out.push(metric(
            format!("traffic.stream_rep_ms.{label}"),
            median(&rep_secs) * 1e3,
            "ms",
        ));
    }
    let [frames_per_rep, dropped, delivered, sent] = per_rep;
    out.push(metric("traffic.frames_per_rep", frames_per_rep, "count"));
    out.push(metric("traffic.copies_dropped", dropped, "count"));
    out.push(metric(
        "traffic.ns_per_frame",
        total_secs * 1e9 / frames.max(1) as f64,
        "ns",
    ));
    out.push(metric(
        "traffic.useful_copy_share",
        delivered / sent.max(1.0),
        "share",
    ));
}

/// The event-driven simulator driven directly: push gossip at
/// n = 10⁴ over exponential 5 ms latency.
fn netsim_probe(seed: u64, out: &mut Vec<Metric>) {
    let dist: Arc<dyn FanoutDistribution> = Arc::new(poisson());
    let network = NetworkConfig::new(LatencyModel::Exponential {
        mean: SimDuration::from_millis(5),
    });
    let mut events = 0u64;
    let mut secs = 0.0;
    let execs = 3;
    for exec in 0..execs {
        let exec_seed = probe_seed(seed, 10, exec);
        let (s, n_events) = timed(|| {
            let behaviors = (0..N_CLASSIC)
                .map(|_| PushGossip::new(dist.clone()))
                .collect();
            let mut sim = Simulator::new(
                behaviors,
                network,
                Box::new(FullView::new(N_CLASSIC)),
                exec_seed,
            );
            sim.apply_failure_plan(&FailurePlan::paper_model(Q, 0));
            sim.start_all();
            sim.inject(
                0,
                0,
                GossipMessage::new(MessageId(exec_seed), &b"payload"[..]),
            );
            sim.run_to_quiescence().events_processed
        });
        secs += s;
        events += n_events;
    }
    let per_exec = events as f64 / execs as f64;
    out.push(metric("netsim.events_per_exec", per_exec, "count"));
    out.push(metric(
        "netsim.ns_per_event",
        secs * 1e9 / events.max(1) as f64,
        "ns",
    ));
}

fn protocol_probe(seed: u64, out: &mut Vec<Metric>) {
    let cfg = ExecutionConfig::new(N_CLASSIC, Q);
    let dist = poisson();
    let samples: Vec<f64> = (0..4)
        .map(|exec| {
            let (secs, outcome) = timed(|| run_push(&cfg, &dist, probe_seed(seed, 11, exec)));
            black_box(outcome.expect("the classic push execution runs"));
            secs
        })
        .collect();
    out.push(metric(
        "protocol.classic_exec_ms",
        median(&samples) * 1e3,
        "ms",
    ));
}

fn topology_probes(seed: u64, out: &mut Vec<Metric>) {
    let spec = ws_topology().overlay;
    let mut topo = None;
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let (secs, t) = timed(|| build_overlay(&spec, N_CLASSIC, probe_seed(seed, 12, i)));
            topo = Some(t);
            secs
        })
        .collect();
    out.push(metric(
        "topology.build_overlay_ms",
        median(&samples) * 1e3,
        "ms",
    ));

    let topo = topo.expect("at least one overlay was built");
    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 13, 0));
    let mut targets = Vec::new();
    let select_ns = ns_per_call(5, 1_000_000, |i| {
        select_targets(
            &topo,
            PeerSelection::RandomNeighbour,
            (i % N_CLASSIC) as u32,
            FANOUT_MEAN as usize,
            &mut rng,
            &mut targets,
        );
        targets.len() as u64
    });
    out.push(metric("topology.select_ns", select_ns, "ns"));
}

fn faults_probes(seed: u64, out: &mut Vec<Metric>) {
    let churn = ChurnSpec::symmetric(CHURN_RATE, CHURN_HORIZON_MS);
    let plan_ns = ns_per_call(5, 200, |i| {
        let plan = ChurnPlan::sample(&churn, N_CLASSIC, 0, probe_seed(seed, 14, i as u64));
        (plan.joins.len() + plan.leaves.len()) as u64
    });
    out.push(metric("faults.churn_plan_us", plan_ns / 1e3, "us"));

    let ge = GilbertElliott::new(&bursty());
    let mut rng = Xoshiro256StarStar::new(probe_seed(seed, 15, 0));
    let mut chain = GeChain::start(&ge, &mut rng);
    let transmit_ns = ns_per_call(5, 1_000_000, |_| chain.transmit(&ge, &mut rng) as u64);
    out.push(metric("faults.ge_transmit_ns", transmit_ns, "ns"));
}

/// The live runtime point of the classic workload. Its frame count is
/// exact because every member is nonfailed (q = 1) and
/// `messages_per_member` is frames sent over n.
fn runtime_probe(seed: u64, out: &mut Vec<Metric>) {
    let call = pass_calls(Workload::ClassicFaults1e4, seed, 0)
        .into_iter()
        .find(|c| c.name == "classic.runtime.channel")
        .expect("the classic workload has a runtime call");
    let reps = call.scenario.replications;
    let mut frames_per_exec = 0.0;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (secs, report) = timed(|| RuntimeBackend::channel().evaluate(&call.scenario));
            let report = report.expect("the runtime point evaluates");
            let per_member = report
                .messages_per_member
                .expect("the runtime reports messages per member");
            let total = (per_member * (N_CLASSIC * reps) as f64).round();
            frames_per_exec = total / reps as f64;
            secs
        })
        .collect();
    let eval = median(&samples);
    out.push(metric("runtime.eval_ms", eval * 1e3, "ms"));
    out.push(metric("runtime.frames_per_exec", frames_per_exec, "count"));
    out.push(metric(
        "runtime.ns_per_frame",
        eval * 1e9 / (frames_per_exec * reps as f64).max(1.0),
        "ns",
    ));
}
