//! Live multi-message streams: the [`TrafficSpec`] workload executed by
//! real node actors over a real [`Transport`].
//!
//! Where `gossip-traffic`'s round engine *simulates* the stream in one
//! loop, this module runs it: the source injects k rumors per its
//! injection plan, every actor relays first receipts per message, and
//! two traffic mechanisms ride on the virtual clock:
//!
//! * **Piggybacking** — an arrival group of new message indices travels
//!   as one [`WireMessage`] with up to `frame_limit` ids in its `ids`
//!   field: one fanout draw and one frame-budget slot amortized over
//!   the whole group (a dropped or lost frame loses all of them —
//!   shared fate, exactly like the round engine).
//! * **Token-bucket pacing** — each node may put at most B frames on
//!   the wire per virtual round (one round = the constant hop latency).
//!   The bucket is arithmetic on the virtual clock: a frame scheduled
//!   past the budget is deferred whole rounds (queueing delay that
//!   compounds downstream), and a backlog deeper than `queue_capacity`
//!   frames tail-drops, counted per id.
//!
//! ## Determinism, scoped honestly
//!
//! With batching off, every relay decision for message m at node v is
//! drawn from an RNG derived from `(execution seed, v, m)` — the
//! delivered set per message is a pure function of the seed, exactly
//! like the single-message execution. With piggybacking on, the *group*
//! a node relays depends on which frame physically arrived first, so
//! batched live streams are best-effort deterministic: aggregates are
//! stable, byte-identity is not promised (the round engine is the
//! deterministic reference for batched streams). Token-bucket state is
//! shared across messages and therefore also order-dependent; its
//! effects are likewise aggregate-level.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gossip_model::distribution::FanoutDistribution;
use gossip_model::loss::LossyGossip;
use gossip_model::percolation::SitePercolation;
use gossip_model::scenario::{FailureSpec, LatencySpec, ProtocolSpec, Report, Scenario};
use gossip_model::{success, ModelError};
use gossip_stats::descriptive::OnlineStats;
use gossip_stats::parallel::in_parallel_worker;
use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_traffic::{
    injection_rounds, percentile, TrafficReport, TrafficSpec, TRAFFIC_PLAN_STREAM,
};

use crate::backend::{shard_count, SOURCE};
use crate::transport::{Endpoint, Fabric, Transport};
use crate::wire::WireMessage;

const NS_PER_MS: u64 = 1_000_000;
/// Seed-stream tags: the failure draw matches the single-message
/// execution (`0xFA11`); relay draws get a stream-specific tag mixed
/// with `(node, message)` so unbatched relays are order-independent.
const FAILURE_STREAM: u64 = 0xFA11;
const STREAM_NODE: u64 = 0x7AFF3C;

/// The virtual-clock token bucket: B frame slots per round of
/// `round_ns`, deferral in whole rounds, tail-drop past `capacity`
/// queued frames. Uncapped buckets send at the ready time unchanged.
struct Bucket {
    round_ns: u64,
    bandwidth: u64,
    capacity: u64,
    /// Next window with free slots, and slots used in it.
    window: u64,
    used: u64,
}

impl Bucket {
    fn new(round_ns: u64, bandwidth: Option<usize>, capacity: usize) -> Self {
        Bucket {
            round_ns: round_ns.max(1),
            bandwidth: bandwidth.map_or(u64::MAX, |b| b as u64),
            capacity: capacity as u64,
            window: 0,
            used: 0,
        }
    }

    /// Schedules a frame that becomes ready at `ready_ns`: the virtual
    /// send time (≥ ready), or `None` when the backlog would exceed the
    /// queue capacity.
    fn schedule(&mut self, ready_ns: u64) -> Option<u64> {
        if self.bandwidth == u64::MAX {
            return Some(ready_ns);
        }
        let w = ready_ns / self.round_ns;
        if w > self.window {
            self.window = w;
            self.used = 0;
        }
        let backlog = (self.window - w).saturating_mul(self.bandwidth) + self.used;
        if backlog >= self.capacity {
            return None;
        }
        let send_ns = ready_ns.max(self.window * self.round_ns);
        self.used += 1;
        if self.used >= self.bandwidth {
            self.window += 1;
            self.used = 0;
        }
        Some(send_ns)
    }
}

/// Per-node stream state: one receipt flag per message, the shared
/// token bucket, and locally accumulated metrics merged after join.
struct StreamActor {
    id: u32,
    n: u32,
    exec_seed: u64,
    seen: Vec<bool>,
    bucket: Bucket,
    /// Delivery-delay histogram in rounds since each message's
    /// injection (source receipts land in bin 0).
    hist: Vec<u64>,
    max_round: u64,
    copies_created: u64,
    copies_dropped: u64,
    copies_sent: u64,
    frames_sent: u64,
    copies_lost: u64,
}

/// Everything one live stream execution needs.
pub(crate) struct StreamExecParams<'a> {
    pub n: usize,
    pub dist: &'a dyn FanoutDistribution,
    pub loss: f64,
    /// One round of the virtual clock (the constant hop), in ns.
    pub round_ns: u64,
    pub spec: &'a TrafficSpec,
    pub injections: &'a [u64],
    pub q: f64,
    pub shards: usize,
    pub pacing_micros_per_milli: u64,
    pub deadline: Duration,
}

/// Measured results of one live stream execution.
struct StreamExecOutcome {
    nonfailed: usize,
    /// Per message: counted members holding it at quiescence.
    reached: Vec<u32>,
    hist: Vec<u64>,
    max_round: u64,
    copies_dropped: u64,
    copies_sent: u64,
    copies_lost: u64,
    timed_out: bool,
}

impl StreamActor {
    fn new(id: u32, total: usize, exec_seed: u64, p: &StreamExecParams<'_>) -> Self {
        StreamActor {
            id,
            n: total as u32,
            exec_seed,
            seen: vec![false; p.injections.len()],
            bucket: Bucket::new(p.round_ns, p.spec.bandwidth, p.spec.queue_capacity),
            hist: Vec::new(),
            max_round: 0,
            copies_created: 0,
            copies_dropped: 0,
            copies_sent: 0,
            frames_sent: 0,
            copies_lost: 0,
        }
    }

    fn record_delivery(&mut self, msg: u32, arrival_ns: u64, p: &StreamExecParams<'_>) {
        let inject_round = p.injections[msg as usize];
        // Cannot wrap: the plan horizon was checked against the clock.
        let inject_ns = inject_round * p.round_ns;
        let delta_rounds = arrival_ns.saturating_sub(inject_ns) / p.round_ns;
        let idx = delta_rounds as usize;
        if self.hist.len() <= idx {
            self.hist.resize(idx + 1, 0);
        }
        self.hist[idx] += 1;
        self.max_round = self.max_round.max(inject_round + delta_rounds);
    }

    /// Relays one arrival group of new message indices: one fanout draw
    /// for the whole group, frames chunked to the frame limit, each
    /// scheduled through the token bucket and loss-drawn. The RNG is
    /// derived from `(seed, node, first id of the group)`, which makes
    /// unbatched relays (groups of one) order-independent.
    fn relay_group<E: Endpoint>(
        &mut self,
        ep: &mut E,
        group: &[u32],
        ready_ns: u64,
        p: &StreamExecParams<'_>,
    ) {
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(
            SplitMix64::derive(
                SplitMix64::derive(self.exec_seed, STREAM_NODE),
                self.id as u64,
            ),
            group[0] as u64,
        ));
        let others = (self.n - 1) as usize;
        let fanout = p.dist.sample(&mut rng).min(others);
        let mut targets: Vec<u32> = Vec::with_capacity(fanout);
        while targets.len() < fanout {
            let mut v = rng.next_below(self.n as u64 - 1) as u32;
            if v >= self.id {
                v += 1;
            }
            if !targets.contains(&v) {
                targets.push(v);
            }
        }
        let frame_limit = p.spec.frame_limit();
        for &to in &targets {
            for chunk in group.chunks(frame_limit) {
                self.copies_created += chunk.len() as u64;
                let Some(send_ns) = self.bucket.schedule(ready_ns) else {
                    self.copies_dropped += chunk.len() as u64;
                    continue;
                };
                self.frames_sent += 1;
                self.copies_sent += chunk.len() as u64;
                let lost = p.loss > 0.0 && rng.next_f64() < p.loss;
                if lost {
                    self.copies_lost += chunk.len() as u64;
                    continue;
                }
                let msg = WireMessage {
                    id: self.exec_seed,
                    from: self.id,
                    hop: 1,
                    arrival_virtual_ns: send_ns + p.round_ns,
                    ids: chunk.to_vec(),
                };
                if !ep.send(to, &msg) {
                    // Crashed peer: absorbed in transit, same ledger
                    // line as channel loss.
                    self.copies_lost += chunk.len() as u64;
                }
            }
        }
    }

    /// Processes one frame: mark unseen ids delivered, then relay them —
    /// as one piggybacked group when batching is on, id by id when off.
    fn handle<E: Endpoint>(&mut self, msg: &WireMessage, ep: &mut E, p: &StreamExecParams<'_>) {
        let mut new_ids: Vec<u32> = Vec::with_capacity(msg.ids.len());
        for &m in &msg.ids {
            if !self.seen[m as usize] {
                self.seen[m as usize] = true;
                self.record_delivery(m, msg.arrival_virtual_ns, p);
                new_ids.push(m);
            }
        }
        if new_ids.is_empty() {
            return;
        }
        if p.spec.batched() {
            self.relay_group(ep, &new_ids, msg.arrival_virtual_ns, p);
        } else {
            for m in new_ids {
                self.relay_group(ep, std::slice::from_ref(&m), msg.arrival_virtual_ns, p);
            }
        }
    }
}

/// The shard loop for streams: round-robin over the shard's actors
/// until the fabric quiesces, with the same real-time pacing hold-back
/// as the single-message loop.
fn shard_loop<E: Endpoint>(
    mut group: Vec<(StreamActor, E)>,
    p: &StreamExecParams<'_>,
    fabric: &Fabric,
    epoch: Instant,
) -> Vec<StreamActor> {
    let mut held: Vec<(usize, Instant, WireMessage)> = Vec::new();
    loop {
        let mut progressed = false;
        for (idx, (actor, ep)) in group.iter_mut().enumerate() {
            while let Some(msg) = ep.poll() {
                if p.pacing_micros_per_milli > 0 {
                    let wall_us = msg.arrival_virtual_ns / 1_000_000 * p.pacing_micros_per_milli;
                    let due = epoch + Duration::from_micros(wall_us);
                    if Instant::now() < due {
                        held.push((idx, due, msg));
                        continue;
                    }
                }
                actor.handle(&msg, ep, p);
                fabric.message_settled();
                progressed = true;
            }
        }
        let now = Instant::now();
        let mut i = 0;
        while i < held.len() {
            if held[i].1 <= now {
                let (idx, _, msg) = held.swap_remove(i);
                let (actor, ep) = &mut group[idx];
                actor.handle(&msg, ep, p);
                fabric.message_settled();
                progressed = true;
            } else {
                i += 1;
            }
        }
        if fabric.is_done() {
            break;
        }
        if !progressed {
            if epoch.elapsed() > p.deadline {
                fabric.abort();
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    group.into_iter().map(|(actor, _)| actor).collect()
}

/// Runs one live stream execution over `transport`.
fn run_stream_execution<T: Transport>(
    transport: &T,
    p: &StreamExecParams<'_>,
    exec_seed: u64,
) -> Result<StreamExecOutcome, ModelError>
where
    T::Endpoint: 'static,
{
    let n = p.n;
    let k = p.injections.len();
    // The paper's failure model, same stream tag as the single-message
    // execution: each non-source member up with probability q.
    let mut alive = vec![true; n];
    if p.q < 1.0 {
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(exec_seed, FAILURE_STREAM));
        for (i, flag) in alive.iter_mut().enumerate() {
            if i as u32 != SOURCE && rng.next_f64() >= p.q {
                *flag = false;
            }
        }
    }
    let nonfailed = alive.iter().filter(|&&a| a).count();

    let fabric = Fabric::new();
    let mut endpoints = transport.open(n, &alive, &fabric)?;
    let mut pairs: Vec<(StreamActor, T::Endpoint)> = Vec::with_capacity(nonfailed);
    for (id, slot) in endpoints.iter_mut().enumerate() {
        if let Some(ep) = slot.take() {
            pairs.push((StreamActor::new(id as u32, n, exec_seed, p), ep));
        }
    }

    // Inject the plan at the source: messages sharing an injection
    // round form one arrival group, so piggybacking applies to bursts.
    {
        let (_, source_ep) = pairs
            .iter_mut()
            .find(|(actor, _)| actor.id == SOURCE)
            .expect("the source is immortal");
        let frame_limit = p.spec.frame_limit();
        let mut start = 0usize;
        while start < k {
            let round = p.injections[start];
            let mut end = start;
            while end < k && p.injections[end] == round {
                end += 1;
            }
            let group: Vec<u32> = (start as u32..end as u32).collect();
            let chunk_size = if p.spec.batched() { frame_limit } else { 1 };
            for chunk in group.chunks(chunk_size) {
                let injected = source_ep.send(
                    SOURCE,
                    &WireMessage {
                        id: exec_seed,
                        from: SOURCE,
                        hop: 0,
                        arrival_virtual_ns: round * p.round_ns,
                        ids: chunk.to_vec(),
                    },
                );
                debug_assert!(injected, "sending to the alive source cannot fail");
            }
            start = end;
        }
    }

    let shards = p.shards.clamp(1, pairs.len().max(1));
    let mut groups: Vec<Vec<(StreamActor, T::Endpoint)>> =
        (0..shards).map(|_| Vec::new()).collect();
    for (i, pair) in pairs.into_iter().enumerate() {
        groups[i % shards].push(pair);
    }
    let epoch = Instant::now();
    let fabric_ref: &Arc<Fabric> = &fabric;
    let actors: Vec<StreamActor> = crossbeam::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move |_| shard_loop(group, p, fabric_ref, epoch)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stream shard thread panicked"))
            .collect()
    })
    .expect("runtime stream scope");

    let mut reached = vec![0u32; k];
    let mut hist: Vec<u64> = Vec::new();
    let mut max_round = 0u64;
    let (mut dropped, mut sent, mut lost) = (0u64, 0u64, 0u64);
    for actor in &actors {
        for (m, &seen) in actor.seen.iter().enumerate() {
            if seen {
                reached[m] += 1;
            }
        }
        if hist.len() < actor.hist.len() {
            hist.resize(actor.hist.len(), 0);
        }
        for (total, &count) in hist.iter_mut().zip(&actor.hist) {
            *total += count;
        }
        max_round = max_round.max(actor.max_round);
        dropped += actor.copies_dropped;
        sent += actor.copies_sent;
        lost += actor.copies_lost;
    }
    Ok(StreamExecOutcome {
        nonfailed,
        reached,
        hist,
        max_round,
        copies_dropped: dropped,
        copies_sent: sent,
        copies_lost: lost,
        timed_out: fabric.timed_out(),
    })
}

/// Why this scenario's stream cannot run live, if it can't. Live
/// streams model the paper's base system only: complete view, push
/// relay, static crashes, constant hop latency (the token bucket's
/// round is the hop).
fn check_stream_support(backend: &'static str, scenario: &Scenario) -> Result<(), ModelError> {
    let what = if scenario.protocol != ProtocolSpec::Push {
        Some("multi-message traffic for flood variants (live streams use the push relay)")
    } else if !scenario.topology.is_default() {
        Some("multi-message traffic over structured overlays (live streams run on the complete view)")
    } else if !scenario.faults.is_default() {
        Some("multi-message traffic under dynamic fault injection (live streams model static crashes only)")
    } else if matches!(scenario.failure, FailureSpec::Schedule { .. }) {
        Some(
            "crash schedules under multi-message traffic (live streams draw static crashes from q)",
        )
    } else if !matches!(scenario.latency, LatencySpec::ConstantMillis { .. }) {
        Some("multi-message traffic under stochastic latency (the token bucket's round is the constant hop; use ConstantMillis)")
    } else {
        None
    };
    match what {
        Some(what) => Err(ModelError::Unsupported { backend, what }),
        None => Ok(()),
    }
}

/// One round of the virtual clock in ns. The clock counts nanoseconds
/// in u64, so a plan whose last injection, priced at the hop latency,
/// would not leave half the clock for the dissemination after it is
/// refused typed instead of wrapping.
fn clock_round_ns(hop_ms: u64, injections: &[u64]) -> Result<u64, ModelError> {
    let last = injections.last().copied().unwrap_or(0);
    hop_ms
        .checked_mul(NS_PER_MS)
        .filter(|&ns| last.checked_mul(ns).is_some_and(|at| at <= u64::MAX / 2))
        .ok_or(ModelError::InvalidParameter {
            name: "ms",
            value: hop_ms as f64,
            requirement: "a live stream's last injection round times the hop latency must fit \
                          half the runtime's u64 nanosecond clock",
        })
}

/// Evaluates the scenario's [`TrafficSpec`] live: sequential
/// replications (each already fans out over shard threads), per-message
/// take-off conditioning, and the same [`TrafficReport`] shape as the
/// simulation backends — with throughput priced on the virtual clock,
/// so reports stay free of wall-clock scheduling noise.
pub(crate) fn evaluate_stream_over<T: Transport>(
    transport: &T,
    scenario: &Scenario,
    backend_name: String,
) -> Result<Report, ModelError>
where
    T::Endpoint: 'static,
{
    check_stream_support(transport.name(), scenario)?;
    let spec = scenario
        .traffic
        .expect("stream evaluation is only dispatched when traffic is present");
    let q = scenario
        .q()
        .expect("crash schedules were refused by check_stream_support");
    let hop_ms = match scenario.latency {
        LatencySpec::ConstantMillis { ms } => ms.max(1),
        _ => unreachable!("stochastic latency was refused by check_stream_support"),
    };
    let dist = scenario.fanout.build()?;
    let k = spec.messages;
    let injections = injection_rounds(
        &spec.arrival,
        k,
        SplitMix64::derive(scenario.seed, TRAFFIC_PLAN_STREAM),
    );
    let round_ns = clock_round_ns(hop_ms, &injections)?;
    let params = StreamExecParams {
        n: scenario.n,
        dist: &*dist,
        loss: scenario.loss,
        round_ns,
        spec: &spec,
        injections: &injections,
        q,
        shards: shard_count(
            scenario.n,
            scenario.runtime.max_threads,
            in_parallel_worker(),
        ),
        pacing_micros_per_milli: scenario.runtime.pacing_micros_per_milli,
        deadline: Duration::from_secs(scenario.runtime.watchdog_or_default()),
    };

    let mut outcomes: Vec<StreamExecOutcome> = Vec::with_capacity(scenario.replications);
    for rep in 0..scenario.replications {
        let seed = SplitMix64::derive(scenario.seed, rep as u64);
        let outcome = run_stream_execution(transport, &params, seed)?;
        if outcome.timed_out {
            return Err(ModelError::NoConvergence {
                what: "runtime stream quiescence (a live execution hit its watchdog deadline)",
                iterations: rep,
            });
        }
        outcomes.push(outcome);
    }

    // Take-off conditioning per message at half the single-message
    // analytic prediction, mirroring the simulation stream backends.
    let prediction = LossyGossip::new(&*dist, q, scenario.loss)
        .and_then(|m| m.reliability())
        .unwrap_or(1.0);
    let threshold = if prediction < 0.05 {
        0.0
    } else {
        0.5 * prediction
    };
    let mut per_message: Vec<OnlineStats> = (0..k).map(|_| OnlineStats::new()).collect();
    let mut conditional = OnlineStats::new();
    let mut raw = OnlineStats::new();
    let mut rounds = OnlineStats::new();
    let mut per_member = OnlineStats::new();
    let mut sent = OnlineStats::new();
    let mut dropped = OnlineStats::new();
    let mut lost = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    let mut hist: Vec<u64> = Vec::new();
    let mut takeoffs = 0usize;
    let mut samples = 0usize;
    for outcome in &outcomes {
        let mut any_takeoff = false;
        for (message, &count) in outcome.reached.iter().enumerate() {
            let r = count as f64 / outcome.nonfailed.max(1) as f64;
            samples += 1;
            raw.push(r);
            if r > threshold {
                takeoffs += 1;
                any_takeoff = true;
                conditional.push(r);
                per_message[message].push(r);
            }
        }
        if any_takeoff {
            rounds.push(outcome.max_round as f64);
            let secs = outcome.max_round as f64 * hop_ms as f64 / 1000.0;
            if secs > 0.0 {
                throughput.push(k as f64 / secs);
            }
        }
        per_member.push(outcome.copies_sent as f64 / outcome.nonfailed.max(1) as f64);
        sent.push(outcome.copies_sent as f64);
        dropped.push(outcome.copies_dropped as f64);
        lost.push(outcome.copies_lost as f64);
        if hist.len() < outcome.hist.len() {
            hist.resize(outcome.hist.len(), 0);
        }
        for (total, &count) in hist.iter_mut().zip(&outcome.hist) {
            *total += count;
        }
    }

    let means: Vec<f64> = per_message
        .iter()
        .map(|s| if s.count() == 0 { 0.0 } else { s.mean() })
        .collect();
    let reliability_mean = means.iter().sum::<f64>() / k as f64;
    let reliability_min = means.iter().copied().fold(f64::INFINITY, f64::min);
    let reliability = if conditional.count() == 0 {
        0.0
    } else {
        conditional.mean()
    };
    let ci = conditional.ci95();
    let critical_q = SitePercolation::new(&*dist, 1.0)?.critical_q();
    Ok(Report {
        backend: backend_name,
        scenario: scenario.label(),
        replications: outcomes.len(),
        reliability,
        reliability_std_error: conditional.sem(),
        reliability_ci95: (ci.lo, ci.hi),
        reliability_raw: Some(raw.mean()),
        critical_q,
        takeoff_rate: Some(takeoffs as f64 / samples.max(1) as f64),
        rounds: if rounds.count() == 0 {
            None
        } else {
            Some(rounds.mean())
        },
        messages_per_member: Some(per_member.mean()),
        // Wall clock stays out of runtime reports; the stream's timing
        // metrics below are virtual-clock, hence replayable.
        quiescence_secs: None,
        transport: Some(transport.name().to_string()),
        topology: scenario.topology_label(),
        faults: scenario.faults_label(),
        messages_lost: Some(lost.mean()),
        success_within_t: success::success_probability(reliability, scenario.executions),
        traffic: Some(TrafficReport {
            messages: k,
            reliability_mean,
            reliability_min,
            messages_per_sec: if throughput.count() == 0 {
                None
            } else {
                Some(throughput.mean())
            },
            latency_rounds_p50: percentile(&hist, 0.50),
            latency_rounds_p90: percentile(&hist, 0.90),
            latency_rounds_p99: percentile(&hist, 0.99),
            copies_sent: Some(sent.mean()),
            copies_dropped: Some(dropped.mean()),
            copies_lost: Some(lost.mean()),
            batched: spec.batched(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_uncapped_passes_through() {
        let mut b = Bucket::new(NS_PER_MS, None, 4);
        assert_eq!(b.schedule(123), Some(123));
        assert_eq!(b.schedule(456), Some(456));
    }

    #[test]
    fn bucket_defers_past_budget_and_drops_past_capacity() {
        // B = 2 per round, capacity 4 backlogged slots.
        let mut b = Bucket::new(NS_PER_MS, Some(2), 4);
        // Round 0: two slots at the ready time.
        assert_eq!(b.schedule(0), Some(0));
        assert_eq!(b.schedule(0), Some(0));
        // Third and fourth frames defer one whole round.
        assert_eq!(b.schedule(0), Some(NS_PER_MS));
        assert_eq!(b.schedule(0), Some(NS_PER_MS));
        // Backlog relative to round 0 hit the capacity: drop.
        assert_eq!(b.schedule(0), None);
        // A frame ready in a later round starts a fresh window.
        assert_eq!(b.schedule(5 * NS_PER_MS), Some(5 * NS_PER_MS));
    }

    #[test]
    fn plan_horizon_is_checked_against_the_clock() {
        use gossip_traffic::MAX_INJECTION_ROUND;
        // Half the clock over the longest plan: 2^63 / 2^32 ns = 2147.48 ms.
        let plan = [0, MAX_INJECTION_ROUND];
        assert_eq!(clock_round_ns(2147, &plan), Ok(2147 * NS_PER_MS));
        assert!(matches!(
            clock_round_ns(2148, &plan),
            Err(ModelError::InvalidParameter { name: "ms", .. })
        ));
        assert!(clock_round_ns(u64::MAX / 1000, &[0]).is_err());
    }

    #[test]
    fn overflowing_plan_is_refused_before_running() {
        use crate::RuntimeBackend;
        use gossip_model::scenario::{Backend, FanoutSpec};
        use gossip_traffic::{ArrivalSpec, MAX_INJECTION_ROUND};
        // A valid plan (last injection at round 2^32) whose horizon at a
        // 5 s hop is 2.1e19 ns, past u64: a typed refusal, no actor runs.
        let scenario = Scenario::new(16, FanoutSpec::poisson(4.0))
            .with_latency(LatencySpec::ConstantMillis { ms: 5000 })
            .with_traffic(
                TrafficSpec::stream(2).with_arrival(ArrivalSpec::FixedInterval {
                    every_rounds: MAX_INJECTION_ROUND,
                }),
            );
        assert!(scenario.validate().is_ok());
        let err = RuntimeBackend::channel().evaluate(&scenario).unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "ms", .. }),
            "{err:?}"
        );
    }
}
