//! The fault-injecting transport: a lossy, corrupting, duplicating,
//! delaying, partitionable wrapper around a TCP stream.
//!
//! Faults are injected on the *send* side, per link, from a deterministic
//! RNG derived from the run seed and the link's endpoints — so a given
//! seed always produces the same fault pattern on each link's frame
//! sequence, independent of thread scheduling. Corruption flips one
//! random bit in the payload (never the length prefix), so stream framing
//! survives and the receiver's CRC rejects the frame — the corrupt frame
//! behaves like a detected drop, which is exactly how real checksummed
//! transports degrade.
//!
//! The decision core lives in [`Injector`], which is transport-agnostic:
//! it appends deliver-now wire bytes to a caller-supplied buffer. The
//! reactor uses it directly, many logical links batching into one shard
//! stream.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counters::CounterSnapshot;
use crate::wire::{Frame, WireError};

/// Fault rates for every data-plane link.
///
/// All probabilities are per frame, applied independently; `0.0`
/// everywhere is a faithful transport.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Base seed; each link derives its own stream from this and its
    /// endpoint pair.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability a frame has one payload bit flipped (the receiver's
    /// CRC will reject it).
    pub corrupt_rate: f64,
    /// Probability a frame is sent twice.
    pub duplicate_rate: f64,
    /// Probability a frame is held back `1..=max_delay_ticks` ticks,
    /// overtaken by later traffic (reordering).
    pub delay_rate: f64,
    /// Upper bound on injected delay, in node-loop ticks.
    pub max_delay_ticks: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay_ticks: 4,
        }
    }
}

impl FaultConfig {
    /// A convenience profile: `rate` loss plus light corruption,
    /// duplication, and delay — the "hostile network" used by tests and
    /// the CLI.
    pub fn hostile(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            drop_rate: rate,
            corrupt_rate: rate / 4.0,
            duplicate_rate: rate / 4.0,
            delay_rate: rate / 2.0,
            max_delay_ticks: 8,
        }
    }
}

/// Shared partition state: group ids per node, or `None` when healed.
///
/// Consulted by every link at send time; frames crossing group
/// boundaries while a partition is active are dropped.
///
/// All three accessors recover from mutex poisoning: the guarded value is
/// a plain `Option<Vec<usize>>` that is written atomically (never left in
/// a torn state), so a panic on some other thread while it held the lock
/// cannot corrupt it — cascading that panic into every subsequent sender
/// (which is what `.expect("partition lock")` did) turned one dead link
/// into a whole-run abort.
#[derive(Debug, Default)]
pub struct PartitionMap {
    groups: Mutex<Option<Vec<usize>>>,
}

impl PartitionMap {
    /// A healed (no partition) map.
    pub fn new() -> Self {
        PartitionMap::default()
    }

    /// Install a partition: `groups[node]` is the node's group id.
    pub fn set(&self, groups: Vec<usize>) {
        *self
            .groups
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(groups);
    }

    /// Heal the partition.
    pub fn heal(&self) {
        *self
            .groups
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
    }

    /// Whether a frame from `sender` to `receiver` is currently blocked.
    pub fn blocks(&self, sender: usize, receiver: usize) -> bool {
        let guard = self
            .groups
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match &*guard {
            Some(groups) => groups.get(sender) != groups.get(receiver),
            None => false,
        }
    }
}

/// Derive a link-specific RNG from the base seed and the endpoints.
///
/// `seed_from_u64` runs SplitMix64 over the combined word, so nearby
/// `(seed, endpoint)` tuples still yield uncorrelated streams.
fn link_rng(seed: u64, sender: usize, receiver: usize) -> StdRng {
    let combined = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((sender as u64 + 1) << 32) | (receiver as u64 + 1));
    StdRng::seed_from_u64(combined)
}

/// The transport-agnostic fault-decision core for one directed link.
///
/// `admit` consumes exactly one RNG draw per decision in a fixed order
/// (drop, duplicate, then per-copy corrupt/bit-pick and delay/delay-pick),
/// so the fault pattern for a given `(seed, sender, receiver)` depends
/// only on the link's frame sequence — never on which transport carries
/// the bytes or how they are batched.
#[derive(Debug)]
pub struct Injector {
    rng: StdRng,
    config: FaultConfig,
    sender: usize,
    receiver: usize,
    /// Held-back frames as `(due_tick, wire_bytes)`.
    pending: Vec<(u64, Vec<u8>)>,
}

impl Injector {
    /// The injector for the directed link `sender → receiver`.
    pub fn new(sender: usize, receiver: usize, config: FaultConfig) -> Self {
        let rng = link_rng(config.seed, sender, receiver);
        Injector {
            rng,
            config,
            sender,
            receiver,
            pending: Vec::new(),
        }
    }

    /// The receiving node's index.
    pub fn receiver(&self) -> usize {
        self.receiver
    }

    /// Run `frame` through the fault decisions at `tick`, appending the
    /// wire bytes of every deliver-now copy to `out` and updating
    /// `counters` with whatever happened.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the frame cannot be encoded.
    pub fn admit(
        &mut self,
        frame: &Frame,
        tick: u64,
        partition: &PartitionMap,
        counters: &mut CounterSnapshot,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        if partition.blocks(self.sender, self.receiver) {
            counters.dropped += 1;
            return Ok(());
        }
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            counters.dropped += 1;
            return Ok(());
        }
        let copies =
            if self.config.duplicate_rate > 0.0 && self.rng.gen_bool(self.config.duplicate_rate) {
                counters.duplicated += 1;
                2
            } else {
                1
            };
        for _ in 0..copies {
            let mut wire = frame.encode()?;
            if self.config.corrupt_rate > 0.0 && self.rng.gen_bool(self.config.corrupt_rate) {
                // Flip one bit strictly inside the payload: framing holds,
                // the CRC catches it at the receiver.
                let payload_bits = (wire.len() - 4) * 8;
                let bit = self.rng.gen_range(0..payload_bits);
                wire[4 + bit / 8] ^= 1 << (bit % 8);
                counters.corrupted += 1;
            }
            if self.config.delay_rate > 0.0 && self.rng.gen_bool(self.config.delay_rate) {
                let delay = self.rng.gen_range(1..=self.config.max_delay_ticks.max(1));
                self.pending.push((tick + delay, wire));
                counters.delayed += 1;
            } else {
                out.extend_from_slice(&wire);
                counters.sent += 1;
            }
        }
        Ok(())
    }

    /// Append every held-back frame whose due tick has arrived to `out`.
    pub fn flush_due(&mut self, tick: u64, counters: &mut CounterSnapshot, out: &mut Vec<u8>) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= tick {
                let (_, wire) = self.pending.swap_remove(i);
                out.extend_from_slice(&wire);
                counters.sent += 1;
            } else {
                i += 1;
            }
        }
    }

    /// The earliest due tick among held-back frames, if any — the
    /// reactor's deadline source for delayed traffic.
    pub fn next_due(&self) -> Option<u64> {
        self.pending.iter().map(|(due, _)| *due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::panic::AssertUnwindSafe;

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Admit `frame` through `injector` and write its deliver-now bytes
    /// into the loopback stream `tx`.
    fn send(
        injector: &mut Injector,
        tx: &mut TcpStream,
        frame: &Frame,
        tick: u64,
        partition: &PartitionMap,
        counters: &mut CounterSnapshot,
    ) {
        let mut out = Vec::new();
        injector
            .admit(frame, tick, partition, counters, &mut out)
            .unwrap();
        tx.write_all(&out).unwrap();
    }

    #[test]
    fn faithful_link_delivers_everything() {
        let (mut tx, mut rx) = pipe();
        let mut link = Injector::new(0, 1, FaultConfig::default());
        let partition = PartitionMap::new();
        let mut counters = CounterSnapshot::default();
        for seq in 0..32u64 {
            let f = Frame::Update {
                node: 0,
                seq,
                var: 1,
                value: seq as i64,
            };
            send(&mut link, &mut tx, &f, seq, &partition, &mut counters);
        }
        assert_eq!(counters.sent, 32);
        assert_eq!(counters.dropped + counters.corrupted + counters.delayed, 0);
        for seq in 0..32u64 {
            match read_frame(&mut rx).unwrap().unwrap().unwrap() {
                Frame::Update { seq: got, .. } => assert_eq!(got, seq),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut tx, _rx) = pipe();
            let config = FaultConfig {
                seed,
                drop_rate: 0.5,
                ..FaultConfig::default()
            };
            let mut link = Injector::new(2, 3, config);
            let partition = PartitionMap::new();
            let mut counters = CounterSnapshot::default();
            for seq in 0..64u64 {
                let f = Frame::Update {
                    node: 2,
                    seq,
                    var: 0,
                    value: 0,
                };
                send(&mut link, &mut tx, &f, seq, &partition, &mut counters);
            }
            counters
        };
        assert_eq!(run(7), run(7), "same seed, same fault pattern");
        assert_ne!(run(7).dropped, 0);
        assert_ne!(run(7).sent, 0);
    }

    #[test]
    fn corruption_is_always_rejected_downstream() {
        let (mut tx, mut rx) = pipe();
        let config = FaultConfig {
            seed: 3,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut link = Injector::new(0, 1, config);
        let partition = PartitionMap::new();
        let mut counters = CounterSnapshot::default();
        for seq in 0..16u64 {
            let f = Frame::Update {
                node: 0,
                seq,
                var: 2,
                value: -1,
            };
            send(&mut link, &mut tx, &f, seq, &partition, &mut counters);
        }
        drop(tx);
        assert_eq!(counters.corrupted, 16);
        let mut rejected = 0;
        while let Some(result) = read_frame(&mut rx).unwrap() {
            assert!(result.is_err(), "corrupted frame decoded: {result:?}");
            rejected += 1;
        }
        assert_eq!(rejected, 16, "framing survived every corruption");
    }

    #[test]
    fn partition_blocks_cross_group_frames() {
        let (mut tx, mut rx) = pipe();
        let mut link = Injector::new(0, 1, FaultConfig::default());
        let partition = PartitionMap::new();
        partition.set(vec![0, 1]);
        let mut counters = CounterSnapshot::default();
        let f = Frame::Update {
            node: 0,
            seq: 0,
            var: 0,
            value: 0,
        };
        send(&mut link, &mut tx, &f, 0, &partition, &mut counters);
        assert_eq!((counters.sent, counters.dropped), (0, 1));
        partition.heal();
        send(&mut link, &mut tx, &f, 1, &partition, &mut counters);
        assert_eq!((counters.sent, counters.dropped), (1, 1));
        drop(tx);
        assert_eq!(read_frame(&mut rx).unwrap().unwrap().unwrap(), f);
        assert!(read_frame(&mut rx).unwrap().is_none());
    }

    // ---- satellite: one panicking sender must not poison everyone ----

    #[test]
    fn poisoned_partition_lock_does_not_cascade() {
        let map = PartitionMap::new();
        map.set(vec![0, 0, 1, 1]);
        // A "sender thread" panics while holding the partition lock —
        // exactly the mid-send window where the old `.expect()` turned
        // poisoning into a panic cascade across every other link.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = map
                .groups
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            panic!("sender died mid-partition");
        }));
        assert!(result.is_err(), "the sender did panic");
        // Remaining nodes keep working: the active partition is still
        // enforced, and heal/set still function.
        assert!(map.blocks(0, 2), "partition still enforced after poison");
        assert!(!map.blocks(0, 1), "same-group traffic still flows");
        map.heal();
        assert!(!map.blocks(0, 2), "heal works on a poisoned map");
        map.set(vec![0, 1]);
        assert!(map.blocks(0, 1), "set works on a poisoned map");
    }

    #[test]
    fn surviving_links_send_through_a_poisoned_map() {
        let (mut tx, mut rx) = pipe();
        let map = PartitionMap::new();
        map.set(vec![0, 0]);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = map.groups.lock().unwrap();
            panic!("boom");
        }));
        let mut link = Injector::new(0, 1, FaultConfig::default());
        let mut counters = CounterSnapshot::default();
        let f = Frame::Heartbeat {
            node: 0,
            seq: 1,
            vars: vec![(0, 7)],
        };
        send(&mut link, &mut tx, &f, 0, &map, &mut counters);
        assert_eq!(counters.sent, 1);
        drop(tx);
        assert_eq!(read_frame(&mut rx).unwrap().unwrap().unwrap(), f);
    }

    #[test]
    fn delayed_frames_reorder_but_arrive() {
        let (mut tx, mut rx) = pipe();
        let config = FaultConfig {
            seed: 11,
            delay_rate: 0.5,
            max_delay_ticks: 4,
            ..FaultConfig::default()
        };
        let mut link = Injector::new(0, 1, config);
        let partition = PartitionMap::new();
        let mut counters = CounterSnapshot::default();
        for seq in 0..64u64 {
            let f = Frame::Update {
                node: 0,
                seq,
                var: 0,
                value: 0,
            };
            send(&mut link, &mut tx, &f, seq, &partition, &mut counters);
            let mut due = Vec::new();
            link.flush_due(seq, &mut counters, &mut due);
            tx.write_all(&due).unwrap();
        }
        let mut due = Vec::new();
        link.flush_due(u64::MAX, &mut counters, &mut due);
        tx.write_all(&due).unwrap();
        drop(tx);
        assert!(counters.delayed > 0);
        assert_eq!(counters.sent, 64, "every frame eventually flushed");
        let mut seqs = Vec::new();
        while let Some(result) = read_frame(&mut rx).unwrap() {
            match result.unwrap() {
                Frame::Update { seq, .. } => seqs.push(seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seqs.len(), 64);
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "delays produced reordering");
    }
}
