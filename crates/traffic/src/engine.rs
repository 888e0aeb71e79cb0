//! The round-synchronous stream engine: per-round event coalescing,
//! arena-reused per-message receipt state, bounded send queues, and
//! exact copy conservation accounting.
//!
//! One call to [`run_stream`] plays one replication of a k-message
//! stream over the complete overlay:
//!
//! * Each round, messages due per the injection plan enter at the
//!   source as one arrival group; frames sent the previous round are
//!   delivered (one round per hop — the constant-latency discipline of
//!   the event-driven simulator, collapsed to a calendar of exactly two
//!   buffers); then every node transmits up to B queued frames.
//! * A node receiving a frame marks the ids it has not seen (one
//!   receipt bitset per message, arena-reused across replications) and
//!   relays the new ones: with batching off, one fanout draw per id and
//!   single-id frames; with piggybacking, one fanout draw for the whole
//!   arrival group and frames of up to `frame_limit` ids — the
//!   amortization that keeps a stream inside a tight frame budget.
//! * Relays enqueue into a bounded FIFO; a full queue drops the frame
//!   and accounts every id on it as overflow. Loss is drawn per frame:
//!   a lost batched frame loses all its ids (shared fate).
//!
//! ## Storage
//!
//! A frame is 12 bytes (`to`, `at`, `len`). A single-id frame keeps its
//! id in `at`; a multi-id chunk is appended once per relay group to a
//! per-replication id pool that every target's frame shares, and `at`
//! is its offset there. All send queues live in one slab of frame
//! slots: each node keeps the `head`/`tail`/`len` of an intrusive FIFO
//! threaded through the slots, and drained slots go back on a free
//! list, so there is no per-node allocation and memory scales with the
//! frames alive at once. A busy-node bitset marks the nonempty queues;
//! the transmit step visits only those, in ascending node order by a
//! word scan with `trailing_zeros`. Ascending order plus FIFO order
//! fixes the order of the loss draws and of the next round's arrivals,
//! so the output is a function of the RNG alone, not of the layout.
//!
//! The engine is deterministic — a pure function of the RNG, the
//! parameters, and the fanout closure — and terminates: every nonempty
//! queue transmits at least one frame per round and the total relay
//! volume is finite. Fanout sampling is a closure so this crate needs
//! no dependency on the model layer's distribution trait.

use gossip_stats::rng::Xoshiro256StarStar;

use crate::spec::MAX_FRAME_IDS;

/// End of a slot chain (empty queue, empty free list).
const NIL: u32 = u32::MAX;

/// One wire frame, queued or in flight: `len` message ids headed to
/// node `to`. With `len == 1` the id itself is `at`; otherwise the ids
/// are `pool[at..at + len]` in the replication's id pool.
#[derive(Clone, Copy)]
struct Frame {
    to: u32,
    at: u32,
    len: u32,
}

impl Frame {
    /// The message ids this frame carries.
    #[inline]
    fn ids<'a>(&'a self, pool: &'a [u32]) -> &'a [u32] {
        if self.len == 1 {
            std::slice::from_ref(&self.at)
        } else {
            &pool[self.at as usize..][..self.len as usize]
        }
    }
}

/// A slab slot: a frame and the next slot of its queue (or of the free
/// list).
#[derive(Clone, Copy)]
struct Slot {
    frame: Frame,
    next: u32,
}

/// One node's send queue, an intrusive FIFO over slab slots.
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_FIFO: Fifo = Fifo {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// Every node's send queue in one slab, plus the busy-node bitset.
#[derive(Default)]
struct SendQueues {
    fifos: Vec<Fifo>,
    slots: Vec<Slot>,
    free: u32,
    /// Bit `v` set iff node `v`'s queue is nonempty.
    busy: Vec<u64>,
    /// Frames queued across all nodes.
    live: usize,
}

impl SendQueues {
    fn reset(&mut self, n: usize) {
        self.fifos.clear();
        self.fifos.resize(n, EMPTY_FIFO);
        self.slots.clear();
        self.free = NIL;
        self.busy.clear();
        self.busy.resize(n.div_ceil(64), 0);
        self.live = 0;
    }

    #[inline]
    fn len(&self, node: u32) -> usize {
        self.fifos[node as usize].len as usize
    }

    #[inline]
    fn push(&mut self, node: u32, frame: Frame) {
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = Slot { frame, next: NIL };
            slot
        } else {
            assert!(
                self.slots.len() < NIL as usize,
                "more than 2^32 - 1 frames queued at once"
            );
            self.slots.push(Slot { frame, next: NIL });
            (self.slots.len() - 1) as u32
        };
        let fifo = &mut self.fifos[node as usize];
        if fifo.len == 0 {
            fifo.head = slot;
            self.busy[node as usize >> 6] |= 1 << (node & 63);
        } else {
            self.slots[fifo.tail as usize].next = slot;
        }
        fifo.tail = slot;
        fifo.len += 1;
        self.live += 1;
    }

    /// Pops the head of a nonempty queue; clears the node's busy bit
    /// when the queue drains.
    #[inline]
    fn pop(&mut self, node: u32) -> Frame {
        let fifo = &mut self.fifos[node as usize];
        debug_assert!(fifo.len > 0, "pop from an empty queue");
        let slot = fifo.head;
        let Slot { frame, next } = self.slots[slot as usize];
        fifo.head = next;
        fifo.len -= 1;
        if fifo.len == 0 {
            fifo.tail = NIL;
            self.busy[node as usize >> 6] &= !(1 << (node & 63));
        }
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.live -= 1;
        frame
    }

    /// True when every queue is empty and every slot is back on the
    /// free list (checked at quiescence in debug builds).
    fn drained(&self) -> bool {
        let mut free = 0usize;
        let mut slot = self.free;
        while slot != NIL && free <= self.slots.len() {
            free += 1;
            slot = self.slots[slot as usize].next;
        }
        self.live == 0
            && self.busy.iter().all(|&w| w == 0)
            && self.fifos.iter().all(|f| f.len == 0 && f.head == NIL)
            && free == self.slots.len()
    }
}

/// Exact copy accounting over one replication. Two identities hold at
/// quiescence (asserted by the engine in debug builds and by the
/// conservation proptests):
/// `copies_created = copies_dropped + copies_sent` (queues drain), and
/// `copies_sent = copies_lost + copies_to_crashed + copies_delivered +
/// copies_duplicate` (every sent copy is classified once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Message copies generated by relays (enqueue attempts).
    pub copies_created: u64,
    /// Copies dropped at full send queues (overflow).
    pub copies_dropped: u64,
    /// Copies put on the wire.
    pub copies_sent: u64,
    /// Frames put on the wire (= `copies_sent` with batching off).
    pub frames_sent: u64,
    /// Copies lost to the channel (per-frame loss draw).
    pub copies_lost: u64,
    /// Copies that arrived at a crashed member and were absorbed.
    pub copies_to_crashed: u64,
    /// Copies that were a member's first receipt of that message.
    pub copies_delivered: u64,
    /// Copies that arrived at a member that already had the message.
    pub copies_duplicate: u64,
}

/// Inputs of one stream replication.
pub struct StreamParams<'a> {
    /// Group size.
    pub n: usize,
    /// The streaming source (always alive, the paper's immortal
    /// source).
    pub source: u32,
    /// Injection round per message, nondecreasing
    /// (see [`crate::injection_rounds`]).
    pub injections: &'a [u64],
    /// Per-node frames-per-round cap (`None` = uncapped).
    pub bandwidth: Option<usize>,
    /// Bounded send-queue capacity in frames.
    pub queue_capacity: usize,
    /// Message ids per frame (1 = batching off).
    pub frame_limit: usize,
    /// Per-frame loss probability in `[0, 1)`.
    pub loss: f64,
    /// Alive flags per node; `alive[source]` must be true.
    pub alive: &'a [bool],
}

/// What one replication produced.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Per message: alive members holding it at quiescence (source
    /// included).
    pub reached: Vec<u32>,
    /// Rounds until quiescence (empty queues, empty wire, plan done).
    pub rounds: u64,
    /// Exact copy accounting.
    pub counters: StreamCounters,
}

/// Arena-reused scratch: receipt bitsets, the send-queue slab, the id
/// pool, the two-round frame calendar, and target-pick marks survive
/// across replications so the per-replication cost is O(work), not
/// O(allocations).
#[derive(Default)]
pub struct StreamScratch {
    /// Receipt bits, `messages × words_per_message(n)`.
    received: Vec<u64>,
    words: usize,
    queues: SendQueues,
    /// Message ids of multi-id frames, appended once per relay group.
    pool: Vec<u32>,
    arrivals: Vec<Frame>,
    arrivals_next: Vec<Frame>,
    /// Distinct-target marks: `mark[v] == generation` means picked.
    mark: Vec<u64>,
    generation: u64,
    targets: Vec<u32>,
    group: Vec<u32>,
    new_ids: Vec<u32>,
}

impl StreamScratch {
    /// A fresh scratch arena (allocates lazily on first use).
    pub fn new() -> Self {
        StreamScratch::default()
    }

    fn reset(&mut self, n: usize, messages: usize) {
        self.words = n.div_ceil(64);
        self.received.clear();
        self.received.resize(messages * self.words, 0);
        self.queues.reset(n);
        self.pool.clear();
        self.arrivals.clear();
        self.arrivals_next.clear();
        self.mark.clear();
        self.mark.resize(n, 0);
        self.generation = 0;
    }
}

/// Marks `node`'s receipt of `msg`; true on its first receipt.
#[inline]
fn receive(received: &mut [u64], words: usize, msg: u32, node: u32) -> bool {
    let word = &mut received[msg as usize * words + (node as usize >> 6)];
    let bit = 1u64 << (node & 63);
    let seen = *word & bit != 0;
    *word |= bit;
    !seen
}

/// Runs one replication of a k-message stream; see the module docs for
/// the model. `fanout` samples one relay fanout per draw; each first
/// receipt of `histogram_rounds[d] += 1` records a delivery `d` rounds
/// after that message's injection.
pub fn run_stream(
    p: &StreamParams<'_>,
    scratch: &mut StreamScratch,
    rng: &mut Xoshiro256StarStar,
    fanout: &mut dyn FnMut(&mut Xoshiro256StarStar) -> usize,
    latency_hist: &mut Vec<u64>,
) -> StreamOutcome {
    let n = p.n;
    let messages = p.injections.len();
    debug_assert!(p.alive.len() == n && p.alive[p.source as usize]);
    debug_assert!(p.injections.windows(2).all(|w| w[0] <= w[1]));
    scratch.reset(n, messages);

    let mut counters = StreamCounters::default();
    let mut reached = vec![0u32; messages];
    let bandwidth = p.bandwidth.unwrap_or(usize::MAX);
    let mut next_injection = 0usize;
    let mut round = 0u64;

    loop {
        // 1. Injections due this round enter at the source as one
        // arrival group, so piggybacking applies to a burst.
        let mut group = std::mem::take(&mut scratch.group);
        group.clear();
        while next_injection < messages && p.injections[next_injection] <= round {
            let msg = next_injection as u32;
            if receive(&mut scratch.received, scratch.words, msg, p.source) {
                reached[msg as usize] += 1;
                record_latency(latency_hist, 0);
                group.push(msg);
            }
            next_injection += 1;
        }
        if !group.is_empty() {
            relay(p, scratch, rng, fanout, p.source, &group, &mut counters);
        }
        scratch.group = group;

        // 2. Deliver last round's surviving frames (one round per hop).
        let arrivals = std::mem::take(&mut scratch.arrivals);
        for frame in &arrivals {
            let node = frame.to;
            if !p.alive[node as usize] {
                counters.copies_to_crashed += frame.len as u64;
                continue;
            }
            let mut new_ids = std::mem::take(&mut scratch.new_ids);
            new_ids.clear();
            for &msg in frame.ids(&scratch.pool) {
                if receive(&mut scratch.received, scratch.words, msg, node) {
                    reached[msg as usize] += 1;
                    counters.copies_delivered += 1;
                    record_latency(latency_hist, round - p.injections[msg as usize]);
                    new_ids.push(msg);
                } else {
                    counters.copies_duplicate += 1;
                }
            }
            if !new_ids.is_empty() {
                relay(p, scratch, rng, fanout, node, &new_ids, &mut counters);
            }
            scratch.new_ids = new_ids;
        }
        scratch.arrivals = arrivals;
        scratch.arrivals.clear();

        // 3. Every busy node, in ascending order, transmits up to B
        // queued frames.
        let queues = &mut scratch.queues;
        for w in 0..queues.busy.len() {
            let mut bits = queues.busy[w];
            while bits != 0 {
                let node = (w * 64 + bits.trailing_zeros() as usize) as u32;
                bits &= bits - 1;
                for _ in 0..bandwidth.min(queues.len(node)) {
                    let frame = queues.pop(node);
                    counters.frames_sent += 1;
                    counters.copies_sent += frame.len as u64;
                    if p.loss > 0.0 && rng.next_f64() < p.loss {
                        counters.copies_lost += frame.len as u64;
                    } else {
                        scratch.arrivals_next.push(frame);
                    }
                }
            }
        }

        // 4. Quiesce, or skip idle gaps in a slow injection plan.
        if scratch.arrivals_next.is_empty() && scratch.queues.live == 0 {
            if next_injection >= messages {
                break;
            }
            round = p.injections[next_injection];
            continue;
        }
        std::mem::swap(&mut scratch.arrivals, &mut scratch.arrivals_next);
        round += 1;
    }

    debug_assert_eq!(
        counters.copies_created,
        counters.copies_dropped + counters.copies_sent,
        "every created copy was sent or dropped"
    );
    debug_assert_eq!(
        counters.copies_sent,
        counters.copies_lost
            + counters.copies_to_crashed
            + counters.copies_delivered
            + counters.copies_duplicate,
        "every sent copy is classified once"
    );
    debug_assert!(
        scratch.queues.drained(),
        "quiescence leaves no queued frame, busy node or lent slot"
    );

    StreamOutcome {
        reached,
        rounds: round,
        counters,
    }
}

#[inline]
fn record_latency(hist: &mut Vec<u64>, rounds: u64) {
    let idx = rounds as usize;
    if hist.len() <= idx {
        hist.resize(idx + 1, 0);
    }
    hist[idx] += 1;
}

/// Generates the relays a node owes for an arrival group of new ids:
/// one fanout draw per id with batching off, one draw for the whole
/// group with piggybacking; targets are distinct and exclude the
/// relayer; frames are chunked to the frame limit and enqueued into the
/// bounded send queue (tail drop on overflow).
fn relay(
    p: &StreamParams<'_>,
    scratch: &mut StreamScratch,
    rng: &mut Xoshiro256StarStar,
    fanout: &mut dyn FnMut(&mut Xoshiro256StarStar) -> usize,
    from: u32,
    new_ids: &[u32],
    counters: &mut StreamCounters,
) {
    if p.frame_limit > 1 {
        relay_group(p, scratch, rng, fanout, from, new_ids, counters);
    } else {
        // Batching off: each id draws and targets independently.
        for id in new_ids {
            relay_group(
                p,
                scratch,
                rng,
                fanout,
                from,
                std::slice::from_ref(id),
                counters,
            );
        }
    }
}

fn relay_group(
    p: &StreamParams<'_>,
    scratch: &mut StreamScratch,
    rng: &mut Xoshiro256StarStar,
    fanout: &mut dyn FnMut(&mut Xoshiro256StarStar) -> usize,
    from: u32,
    ids: &[u32],
    counters: &mut StreamCounters,
) {
    let n = p.n;
    let draw = fanout(rng).min(n - 1);
    if draw == 0 {
        return;
    }
    // Distinct uniform targets != from, via generation-stamped marks.
    scratch.generation += 1;
    let generation = scratch.generation;
    scratch.mark[from as usize] = generation;
    let mut targets = std::mem::take(&mut scratch.targets);
    targets.clear();
    while targets.len() < draw {
        let candidate = rng.next_below(n as u64) as u32;
        if scratch.mark[candidate as usize] != generation {
            scratch.mark[candidate as usize] = generation;
            targets.push(candidate);
        }
    }
    // Multi-id chunks share one copy of the group's ids in the pool.
    let base = scratch.pool.len() as u32;
    if ids.len() > 1 {
        scratch.pool.extend_from_slice(ids);
        assert!(
            scratch.pool.len() <= u32::MAX as usize,
            "more than 2^32 - 1 piggybacked ids in one replication"
        );
    }
    let chunk_len = p.frame_limit.min(MAX_FRAME_IDS);
    for &to in &targets {
        for (c, chunk) in ids.chunks(chunk_len).enumerate() {
            counters.copies_created += chunk.len() as u64;
            if scratch.queues.len(from) >= p.queue_capacity {
                counters.copies_dropped += chunk.len() as u64;
                continue;
            }
            let at = if chunk.len() == 1 {
                chunk[0]
            } else {
                base + (c * chunk_len) as u32
            };
            scratch.queues.push(
                from,
                Frame {
                    to,
                    at,
                    len: chunk.len() as u32,
                },
            );
            debug_assert!(scratch.queues.len(from) <= p.queue_capacity);
        }
    }
    scratch.targets = targets;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stats::rng::SplitMix64;

    #[allow(clippy::too_many_arguments)]
    fn run(
        n: usize,
        messages: usize,
        bandwidth: Option<usize>,
        queue_capacity: usize,
        frame_limit: usize,
        loss: f64,
        fixed_fanout: usize,
        seed: u64,
    ) -> (StreamOutcome, Vec<u64>) {
        let injections = vec![0u64; messages];
        let alive = vec![true; n];
        let p = StreamParams {
            n,
            source: 0,
            injections: &injections,
            bandwidth,
            queue_capacity,
            frame_limit,
            loss,
            alive: &alive,
        };
        let mut scratch = StreamScratch::new();
        let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(seed, 1));
        let mut hist = Vec::new();
        let out = run_stream(&p, &mut scratch, &mut rng, &mut |_| fixed_fanout, &mut hist);
        (out, hist)
    }

    fn assert_conserved(c: &StreamCounters) {
        assert_eq!(c.copies_created, c.copies_dropped + c.copies_sent);
        assert_eq!(
            c.copies_sent,
            c.copies_lost + c.copies_to_crashed + c.copies_delivered + c.copies_duplicate
        );
    }

    #[test]
    fn flood_fanout_reaches_everyone() {
        let (out, hist) = run(40, 3, None, 1 << 12, 1, 0.0, 39, 7);
        assert_eq!(out.reached, vec![40, 40, 40]);
        assert_conserved(&out.counters);
        let delivered: u64 = hist.iter().sum();
        // 3 source receipts + 39 first receipts per message.
        assert_eq!(delivered, 3 + 3 * 39);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (a, ha) = run(200, 8, Some(4), 64, 4, 0.1, 3, 42);
        let (b, hb) = run(200, 8, Some(4), 64, 4, 0.1, 3, 42);
        assert_eq!(a.reached, b.reached);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.counters, b.counters);
        assert_eq!(ha, hb);
        let (c, _) = run(200, 8, Some(4), 64, 4, 0.1, 3, 43);
        assert_ne!(a.counters, c.counters, "distinct seeds should diverge");
    }

    #[test]
    fn tight_queue_drops_and_still_conserves() {
        let (out, _) = run(100, 32, Some(1), 2, 1, 0.0, 4, 11);
        assert!(
            out.counters.copies_dropped > 0,
            "a 2-frame queue under a 32-message burst must overflow"
        );
        assert_conserved(&out.counters);
    }

    #[test]
    fn batching_amortizes_frames() {
        let (unbatched, _) = run(300, 16, None, 1 << 12, 1, 0.0, 4, 5);
        let (batched, _) = run(300, 16, None, 1 << 12, 8, 0.0, 4, 5);
        assert_eq!(
            unbatched.counters.frames_sent,
            unbatched.counters.copies_sent
        );
        assert!(
            batched.counters.frames_sent < batched.counters.copies_sent,
            "piggybacking should pack multiple copies per frame"
        );
        assert_conserved(&batched.counters);
    }

    #[test]
    fn crashed_members_absorb_copies() {
        let injections = vec![0u64; 4];
        let mut alive = vec![true; 100];
        for flag in alive.iter_mut().skip(50) {
            *flag = false;
        }
        let p = StreamParams {
            n: 100,
            source: 0,
            injections: &injections,
            bandwidth: None,
            queue_capacity: 1 << 12,
            frame_limit: 1,
            loss: 0.0,
            alive: &alive,
        };
        let mut scratch = StreamScratch::new();
        let mut rng = Xoshiro256StarStar::new(9);
        let mut hist = Vec::new();
        let out = run_stream(&p, &mut scratch, &mut rng, &mut |_| 6, &mut hist);
        assert!(out.counters.copies_to_crashed > 0);
        assert!(out.reached.iter().all(|&r| r <= 50));
        assert_conserved(&out.counters);
    }

    #[test]
    fn slow_plan_skips_idle_rounds() {
        // 4 messages 1000 rounds apart: the engine must jump the gaps,
        // and latencies stay relative to each injection.
        let injections = vec![0, 1000, 2000, 3000];
        let alive = vec![true; 50];
        let p = StreamParams {
            n: 50,
            source: 0,
            injections: &injections,
            bandwidth: None,
            queue_capacity: 1 << 12,
            frame_limit: 1,
            loss: 0.0,
            alive: &alive,
        };
        let mut scratch = StreamScratch::new();
        let mut rng = Xoshiro256StarStar::new(3);
        let mut hist = Vec::new();
        let out = run_stream(&p, &mut scratch, &mut rng, &mut |_| 49, &mut hist);
        assert!(out.rounds >= 3000);
        assert!(
            hist.len() < 100,
            "latency is measured from injection, not from round 0 (max {} rounds)",
            hist.len()
        );
        assert_conserved(&out.counters);
    }

    #[test]
    fn scratch_is_reusable_across_replications() {
        let injections = vec![0u64; 8];
        let alive = vec![true; 120];
        let p = StreamParams {
            n: 120,
            source: 0,
            injections: &injections,
            bandwidth: Some(2),
            queue_capacity: 16,
            frame_limit: 4,
            loss: 0.05,
            alive: &alive,
        };
        let mut scratch = StreamScratch::new();
        let mut hist = Vec::new();
        let mut first = None;
        for _ in 0..2 {
            let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(77, 0));
            let out = run_stream(&p, &mut scratch, &mut rng, &mut |_| 3, &mut hist);
            assert_conserved(&out.counters);
            match &first {
                None => first = Some(out.reached.clone()),
                Some(prev) => assert_eq!(prev, &out.reached, "arena reuse must not leak state"),
            }
        }
    }
}
