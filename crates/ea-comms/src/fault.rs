//! Fault injection: a [`Transport`] wrapper that drops, delays, or
//! duplicates messages in both directions with configurable
//! probabilities.
//!
//! The RNG is seeded, so a failing fault-injection test replays exactly.
//! One [`FaultConfig`] applies to every send *and* every receive, drawn
//! from the same RNG: wrapping the client side of a connection therefore
//! loses, delays and repeats requests and replies alike. The effect the
//! protocol must survive is the same either way — a request or its reply
//! never arrives (a retry fires) or arrives twice (idempotent handling
//! discards it) — and training must stay byte-identical.
//!
//! Scheduled crashes and partitions are the deterministic simulator's job
//! (`ea-chaos` fault plans), not this wrapper's.

use crate::clock;
use crate::transport::{CommsError, Transport, TransportStats};
use crate::wire::Message;
use ea_tensor::TensorRng;
use std::time::Duration;

/// Probabilities and magnitudes of injected faults, per message in
/// either direction.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a message is silently discarded.
    pub drop_prob: f64,
    /// Probability a message is delayed by up to `max_delay`.
    pub delay_prob: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
    /// Probability a message is delivered twice.
    pub duplicate_prob: f64,
}

impl FaultConfig {
    /// The acceptance-criteria setting: 10% drop, 10% delay, 10% dup.
    pub fn lossy_10() -> Self {
        FaultConfig {
            drop_prob: 0.10,
            delay_prob: 0.10,
            max_delay: Duration::from_millis(20),
            duplicate_prob: 0.10,
        }
    }
}

/// Counters of injected faults, both directions together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages discarded.
    pub dropped: u64,
    /// Messages delayed.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
}

/// What the fault profile decided for one message.
enum Fate {
    Drop,
    Deliver,
    Duplicate,
}

/// A transport with seeded random faults on its send and receive paths.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    cfg: FaultConfig,
    rng: TensorRng,
    faults: FaultStats,
    /// A received message the profile duplicated: the next receive
    /// returns it again.
    replay: Option<Message>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given fault profile and RNG seed.
    pub fn new(inner: T, cfg: FaultConfig, seed: u64) -> Self {
        FaultyTransport {
            inner,
            cfg,
            rng: TensorRng::seed_from_u64(seed),
            faults: FaultStats::default(),
            replay: None,
        }
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Draws one message's fate: drop, or deliver (after an optional
    /// delay) once or twice.
    fn fate(&mut self) -> Fate {
        if self.rng.coin(self.cfg.drop_prob) {
            self.faults.dropped += 1;
            return Fate::Drop;
        }
        if self.rng.coin(self.cfg.delay_prob) {
            self.faults.delayed += 1;
            let nanos = self.rng.up_to(self.cfg.max_delay.as_nanos() as u64);
            clock::sleep(Duration::from_nanos(nanos));
        }
        if self.rng.coin(self.cfg.duplicate_prob) {
            self.faults.duplicated += 1;
            return Fate::Duplicate;
        }
        Fate::Deliver
    }

    /// Applies the profile to a received message: `None` if it was
    /// dropped; a duplicate is held back for the next receive.
    fn received(&mut self, msg: Message) -> Option<Message> {
        match self.fate() {
            Fate::Drop => None,
            Fate::Deliver => Some(msg),
            Fate::Duplicate => {
                self.replay = Some(msg.clone());
                Some(msg)
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, msg: Message) -> Result<(), CommsError> {
        match self.fate() {
            Fate::Drop => Ok(()), // swallowed: the peer never sees it
            Fate::Deliver => self.inner.send(msg),
            Fate::Duplicate => {
                self.inner.send(msg.clone())?;
                self.inner.send(msg)
            }
        }
    }

    fn recv(&mut self) -> Result<Message, CommsError> {
        if let Some(msg) = self.replay.take() {
            return Ok(msg);
        }
        loop {
            let msg = self.inner.recv()?;
            if let Some(msg) = self.received(msg) {
                return Ok(msg);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, CommsError> {
        if let Some(msg) = self.replay.take() {
            return Ok(msg);
        }
        let deadline = clock::now() + timeout;
        loop {
            let remaining = deadline.saturating_sub(clock::now());
            if remaining.is_zero() {
                return Err(CommsError::Timeout);
            }
            let msg = self.inner.recv_timeout(remaining)?;
            if let Some(msg) = self.received(msg) {
                return Ok(msg);
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn record_retry(&mut self) {
        self.inner.record_retry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::loopback_pair;

    fn always(p: f64) -> FaultConfig {
        FaultConfig {
            drop_prob: p,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            duplicate_prob: 0.0,
        }
    }

    #[test]
    fn drop_probability_one_swallows_everything() {
        let (a, mut b) = loopback_pair();
        let mut faulty = FaultyTransport::new(a, always(1.0), 7);
        for _ in 0..10 {
            faulty.send(Message::Hello { proto: 1, pipe: 0, codec: ea_optim::Codec::F32 }).unwrap();
        }
        assert_eq!(faulty.fault_stats().dropped, 10);
        assert!(matches!(b.recv_timeout(Duration::from_millis(10)), Err(CommsError::Timeout)));
    }

    #[test]
    fn duplicate_probability_one_doubles_traffic() {
        let (a, mut b) = loopback_pair();
        let cfg = FaultConfig {
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            duplicate_prob: 1.0,
        };
        let mut faulty = FaultyTransport::new(a, cfg, 7);
        faulty.send(Message::PullRequest { shard: 0, version: 1 }).unwrap();
        assert!(b.recv().is_ok());
        assert!(b.recv_timeout(Duration::from_millis(100)).is_ok(), "expected the duplicate");
        assert_eq!(faulty.fault_stats().duplicated, 1);
    }

    #[test]
    fn same_seed_injects_identical_fault_sequence() {
        let run = |seed: u64| {
            let (a, _b) = loopback_pair();
            let mut faulty = FaultyTransport::new(a, FaultConfig::lossy_10(), seed);
            for i in 0..200 {
                faulty.send(Message::PullRequest { shard: 0, version: i }).unwrap();
            }
            faulty.fault_stats()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ somewhere");
    }

    #[test]
    fn lossy_profile_actually_drops_at_roughly_ten_percent() {
        let (a, _b) = loopback_pair();
        let mut faulty = FaultyTransport::new(
            a,
            FaultConfig { max_delay: Duration::ZERO, ..FaultConfig::lossy_10() },
            1,
        );
        for i in 0..1000 {
            faulty.send(Message::PullRequest { shard: 0, version: i }).unwrap();
        }
        let dropped = faulty.fault_stats().dropped;
        assert!((50..200).contains(&dropped), "10% of 1000 sends, got {dropped}");
    }

    #[test]
    fn receive_drop_probability_one_swallows_everything() {
        let (a, mut b) = loopback_pair();
        let mut faulty = FaultyTransport::new(a, always(1.0), 7);
        for i in 0..5 {
            b.send(Message::PullRequest { shard: 0, version: i }).unwrap();
        }
        assert!(matches!(faulty.recv_timeout(Duration::from_millis(20)), Err(CommsError::Timeout)));
        assert_eq!(faulty.fault_stats().dropped, 5);
    }

    #[test]
    fn receive_duplicate_probability_one_delivers_each_message_twice() {
        let (a, mut b) = loopback_pair();
        let cfg = FaultConfig {
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            duplicate_prob: 1.0,
        };
        let mut faulty = FaultyTransport::new(a, cfg, 7);
        b.send(Message::PullRequest { shard: 0, version: 1 }).unwrap();
        b.send(Message::PullRequest { shard: 0, version: 2 }).unwrap();
        let versions: Vec<u64> = (0..4)
            .map(|_| match faulty.recv_timeout(Duration::from_millis(100)).unwrap() {
                Message::PullRequest { version, .. } => version,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(versions, [1, 1, 2, 2]);
        assert!(matches!(faulty.recv_timeout(Duration::from_millis(10)), Err(CommsError::Timeout)));
        assert_eq!(faulty.fault_stats().duplicated, 2);
    }
}
