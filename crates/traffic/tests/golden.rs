//! Golden outputs of the stream engine: for fixed seeds, the reached
//! counts, rounds to quiescence, every copy counter and the latency
//! histogram of four stream shapes at n = 2000 are pinned to exact
//! values. Any storage or scheduling change to `run_stream` must keep
//! the RNG draw order and the frame order, so these stay byte-identical.
//!
//! Each shape pins one replication value by value, plus a digest over
//! further seeds played through one reused scratch arena (which also
//! checks that nothing leaks between replications).

use gossip_stats::rng::{SplitMix64, Xoshiro256StarStar};
use gossip_traffic::{
    injection_rounds, run_stream, ArrivalSpec, StreamCounters, StreamOutcome, StreamParams,
    StreamScratch, TrafficSpec,
};

const N: usize = 2000;

/// Po(4) fanout by Knuth's product method: a fanout closure that
/// consumes a variable number of draws from the engine's RNG.
fn poisson4(rng: &mut Xoshiro256StarStar) -> usize {
    let limit = (-4.0f64).exp();
    let mut k = 0;
    let mut p = rng.next_f64();
    while p > limit {
        k += 1;
        p *= rng.next_f64();
    }
    k
}

struct Shape {
    spec: TrafficSpec,
    q: f64,
    loss: f64,
}

fn shapes() -> [(&'static str, Shape); 4] {
    [
        (
            "k1_uncapped",
            Shape {
                spec: TrafficSpec::stream(1),
                q: 0.9,
                loss: 0.0,
            },
        ),
        (
            "k16_b4_q32_unbatched",
            Shape {
                spec: TrafficSpec::stream(16)
                    .with_bandwidth(4)
                    .with_queue_capacity(32),
                q: 0.9,
                loss: 0.0,
            },
        ),
        (
            "k16_piggyback8_loss",
            Shape {
                spec: TrafficSpec::stream(16)
                    .with_bandwidth(4)
                    .with_queue_capacity(32)
                    .with_piggyback(8),
                q: 0.9,
                loss: 0.1,
            },
        ),
        (
            "poisson_crashed",
            Shape {
                spec: TrafficSpec::stream(16)
                    .with_bandwidth(2)
                    .with_queue_capacity(16)
                    .with_arrival(ArrivalSpec::Poisson {
                        rate_per_round: 0.5,
                    }),
                q: 0.7,
                loss: 0.05,
            },
        ),
    ]
}

fn run_shape(shape: &Shape, seed: u64, scratch: &mut StreamScratch) -> (StreamOutcome, Vec<u64>) {
    let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, 0x601D));
    let alive: Vec<bool> = (0..N).map(|v| v == 0 || rng.next_bool(shape.q)).collect();
    let injections = injection_rounds(&shape.spec.arrival, shape.spec.messages, seed);
    let p = StreamParams {
        n: N,
        source: 0,
        injections: &injections,
        bandwidth: shape.spec.bandwidth,
        queue_capacity: shape.spec.queue_capacity,
        frame_limit: shape.spec.frame_limit(),
        loss: shape.loss,
        alive: &alive,
    };
    let mut hist = Vec::new();
    let out = run_stream(&p, scratch, &mut rng, &mut poisson4, &mut hist);
    (out, hist)
}

fn counters_vec(c: &StreamCounters) -> [u64; 8] {
    [
        c.copies_created,
        c.copies_dropped,
        c.copies_sent,
        c.frames_sent,
        c.copies_lost,
        c.copies_to_crashed,
        c.copies_delivered,
        c.copies_duplicate,
    ]
}

/// FNV-1a over every pinned output of seeds `2..=9`, one scratch.
fn digest(shape: &Shape) -> u64 {
    let mut scratch = StreamScratch::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for seed in 2..=9 {
        let (out, hist) = run_shape(shape, seed, &mut scratch);
        out.reached.iter().for_each(|&r| mix(r as u64));
        mix(out.rounds);
        counters_vec(&out.counters).into_iter().for_each(&mut mix);
        mix(hist.len() as u64);
        hist.into_iter().for_each(&mut mix);
    }
    h
}

struct Golden {
    reached: &'static [u32],
    rounds: u64,
    counters: [u64; 8],
    hist: &'static [u64],
    digest: u64,
}

fn check(name: &str, golden: &Golden) {
    let (_, shape) = shapes()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known shape");
    let (out, hist) = run_shape(&shape, 1, &mut StreamScratch::new());
    assert_eq!(out.reached, golden.reached, "{name}: reached");
    assert_eq!(out.rounds, golden.rounds, "{name}: rounds");
    assert_eq!(
        counters_vec(&out.counters),
        golden.counters,
        "{name}: counters"
    );
    assert_eq!(hist, golden.hist, "{name}: latency histogram");
    assert_eq!(digest(&shape), golden.digest, "{name}: seeds 2..=9 digest");
}

#[test]
fn k1_uncapped() {
    check(
        "k1_uncapped",
        &Golden {
            reached: &[1762],
            rounds: 11,
            counters: [7080, 0, 7080, 7080, 0, 701, 1761, 4618],
            hist: &[1, 3, 6, 26, 90, 267, 584, 575, 191, 17, 2],
            digest: 0x6dfd2a7cadd4b3c7,
        },
    );
}

#[test]
fn k16_b4_q32_unbatched_drops() {
    let golden = Golden {
        reached: &[
            1741, 1743, 1, 1750, 1745, 1761, 1761, 1, 1741, 1763, 1, 1, 1, 1, 1, 1,
        ],
        rounds: 24,
        counters: [56133, 36, 56097, 56097, 0, 5409, 13997, 36691],
        hist: &[
            16, 3, 13, 37, 108, 302, 758, 1289, 1411, 1393, 1502, 1540, 1307, 1041, 877, 864, 753,
            511, 204, 67, 9, 4, 3, 1,
        ],
        digest: 0x14d6f68e32e391c4,
    };
    assert!(golden.counters[1] > 0, "the contended shape must overflow");
    check("k16_b4_q32_unbatched", &golden);
}

#[test]
fn k16_piggyback8_loss() {
    check(
        "k16_piggyback8_loss",
        &Golden {
            reached: &[
                1730, 1730, 1730, 1730, 1730, 1730, 1730, 1730, 1723, 1723, 1723, 1723, 1723, 1723,
                1723, 1723,
            ],
            rounds: 16,
            counters: [110800, 0, 110800, 13850, 11160, 10080, 27608, 61952],
            hist: &[
                16, 32, 72, 208, 648, 1568, 3712, 6560, 6696, 4600, 2184, 824, 352, 136, 16,
            ],
            digest: 0x7ee260a313159797,
        },
    );
}

#[test]
fn poisson_arrivals_with_crashes() {
    check(
        "poisson_crashed",
        &Golden {
            reached: &[
                1258, 1271, 1252, 1, 1244, 1264, 1261, 1251, 1254, 1233, 1242, 1242, 1241, 1276,
                1269, 1261,
            ],
            rounds: 74,
            counters: [75542, 276, 75266, 75266, 3785, 22045, 18804, 30632],
            hist: &[
                16, 7, 11, 24, 37, 65, 95, 152, 274, 450, 633, 931, 1218, 1426, 1550, 1624, 1554,
                1343, 1149, 961, 827, 763, 671, 592, 520, 487, 406, 358, 230, 170, 108, 71, 39, 22,
                15, 10, 5, 2, 2, 0, 2,
            ],
            digest: 0x53ccf0ae92d14726,
        },
    );
}
