//! The reference-shard server core: the whole elastic-averaging server
//! protocol as one state machine that performs no I/O.
//!
//! [`ServerCore`] owns everything between a decoded request and the
//! replies it owes: per-connection pipe and codec, lease renewal and the
//! reaper pass, parked pulls and their deadlines, weight subscribers, and
//! consistent checkpoint capture. It implements [`ReactorHandler`]:
//! callbacks take a message (or a poll tick) and stage replies and closes
//! in an [`Outbox`]. It opens no socket, spawns no thread, writes no file,
//! and reads time only through [`ea_comms::clock`].
//!
//! Two callers run this same code:
//!
//! * the `ea-comms` epoll reactor (via [`RefShardServer::serve_reactor`]),
//!   which owns the sockets and flushes each outbox to them;
//! * the `ea-chaos` deterministic simulator, which tags its simulated
//!   connections with [`ConnId::from_raw`] ids, calls the same
//!   `on_message`/`poll`/`on_disconnect` on virtual time, and delivers
//!   each drained outbox through its faulty network.
//!
//! A pull for a round that is not complete yet is **parked**: the request
//! is recorded, the callback returns, and the reply is staged by the
//! callback whose submission (or heartbeat) completes the round, so round
//! latency never includes a poll interval. Rounds the reaper completes
//! with a degraded quorum are answered on the next `poll`. In
//! fault-tolerant mode a parked pull expires after `pull_wait` without a
//! reply; the client's retransmission renews its lease and asks again.
//!
//! Byte-exactness: the arrival *order* of deltas never affects results —
//! [`RefShard`] folds a round's deltas in pipe order at completion time —
//! so multiplexing thousands of workers onto a few event-loop threads
//! yields bit-identical reference weights to a single-process run.
//!
//! [`RefShardServer::serve_reactor`]: crate::RefShardServer::serve_reactor

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ea_comms::clock;
use ea_comms::reactor::{ConnId, DisconnectReason, Outbox, ReactorHandler};
use ea_comms::{Codec, CommsError, FrameError, Message, PROTO_VERSION};
use ea_trace::{log_event, Category, Histogram, RateLimit, StaticName};

use crate::checkpoint::RefCheckpoint;
use crate::elastic::{RefShard, SubmitOutcome};
use crate::membership::Membership;
use crate::metrics::{ServerMetrics, ServerMetricsSnapshot};
use crate::Error;

static EVICT_MARK: StaticName = StaticName::new("evict");
static REJOIN_MARK: StaticName = StaticName::new("rejoin");
pub(crate) static PULL_SPAN: StaticName = StaticName::new("pull");
pub(crate) static SUBMIT_SPAN: StaticName = StaticName::new("submit");

/// Evictions are per-lease-expiry events: a flapping cluster can emit
/// them in storms, so the log line (not the counter, not the trace
/// event) is capped.
static EVICT_LOG_LIMIT: RateLimit = RateLimit::new(10);

/// A reference pull waiting for its round to complete.
#[derive(Clone, Debug, PartialEq)]
pub struct ParkedPull {
    /// The connection owed the reply.
    pub conn: ConnId,
    /// Global shard id requested.
    pub shard: u32,
    /// Completed-round count requested.
    pub version: u64,
    /// In fault-tolerant mode, the [`clock::now`] reading after which the
    /// pull is dropped unanswered; `None` waits until the round completes.
    pub deadline: Option<Duration>,
    /// The connection's codec at park time, so the deferred reply is
    /// transcoded exactly like an immediate one.
    codec: Codec,
    /// Arrival time, for the `ea_server_pull_us` histogram.
    t0: Duration,
}

/// Per-connection protocol state: the last self-identified pipeline
/// (lease renewal) and the delta codec its `Hello` negotiated.
#[derive(Clone, Copy, Default)]
struct ConnMeta {
    pipe: Option<usize>,
    codec: Codec,
}

/// A lock whose holder panicked is still consistent for these tables:
/// every critical section leaves them valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reference-shard server protocol without I/O (see the module docs).
///
/// Connection state is keyed by [`ConnId`], so one core serves the
/// connections of one caller (one reactor, or one simulated server).
pub struct ServerCore {
    pub(crate) shards: Vec<Arc<RefShard>>,
    n_pipelines: usize,
    /// First *global* shard id this server owns. `shards[i]` holds global
    /// shard `shard_base + i`; requests address shards globally.
    pub(crate) shard_base: usize,
    /// Total shard count of the partitioned model across every server.
    pub(crate) total_shards: usize,
    /// `Some` in fault-tolerant mode: parked pulls expire after it.
    pub(crate) pull_wait: Option<Duration>,
    pub(crate) membership: Membership,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Server-side time spent answering reference pulls (µs), including
    /// any time parked.
    pull_us: Histogram,
    /// Server-side time spent folding delta submissions (µs).
    submit_us: Histogram,
    conns: Mutex<HashMap<ConnId, ConnMeta>>,
    parked: Mutex<Vec<ParkedPull>>,
    /// Lock-free fast path: `has_deferred` and the post-submit check skip
    /// the `parked` lock entirely while nothing is parked.
    parked_count: AtomicUsize,
    /// Read-only weight subscribers (serving replicas): connection →
    /// shard → last published version. Entirely outside the lease
    /// machinery — a subscriber coming or going never affects quorum.
    subs: Mutex<HashMap<ConnId, HashMap<u32, u64>>>,
    /// Lock-free fast path mirroring `parked_count`, counting subscribed
    /// connections.
    subs_count: AtomicUsize,
    /// Pipes whose eviction is blocked on quorum loss, carried between
    /// reap passes.
    deferred: Mutex<Vec<usize>>,
}

impl ServerCore {
    /// A core over `shards` (global shards `shard_base..shard_base +
    /// shards.len()` of `total_shards`) with leases of `lease`. `pull_wait`
    /// bounds how long a pull stays parked (`Some` in fault-tolerant mode).
    pub fn new(
        shards: Vec<Arc<RefShard>>,
        n_pipelines: usize,
        shard_range: (usize, usize),
        lease: Duration,
        pull_wait: Option<Duration>,
    ) -> Self {
        let metrics = Arc::new(ServerMetrics::new());
        Self::build(shards, n_pipelines, shard_range, lease, pull_wait, metrics)
    }

    /// Restores from a reference checkpoint: every shard starts at the
    /// recorded round with the recorded weights, owning the recorded
    /// slice of the shard map.
    pub fn from_checkpoint(
        ckpt: &RefCheckpoint,
        n_pipelines: usize,
        lease: Duration,
        pull_wait: Option<Duration>,
    ) -> Self {
        let shards = ckpt
            .shards
            .iter()
            .map(|w| Arc::new(RefShard::with_version(w.clone(), n_pipelines, ckpt.round)))
            .collect();
        let range = (ckpt.shard_base, ckpt.total_shards);
        let core = Self::new(shards, n_pipelines, range, lease, pull_wait);
        core.metrics.inc_checkpoint_restores();
        core
    }

    /// The same shards and metrics under a new shard range and policy,
    /// with fresh membership and no connections (for configuring a server
    /// before it serves).
    pub(crate) fn reconfigure(
        &self,
        shard_range: (usize, usize),
        lease: Duration,
        pull_wait: Option<Duration>,
    ) -> Self {
        let metrics = Arc::clone(&self.metrics);
        Self::build(self.shards.clone(), self.n_pipelines, shard_range, lease, pull_wait, metrics)
    }

    fn build(
        shards: Vec<Arc<RefShard>>,
        n_pipelines: usize,
        (shard_base, total_shards): (usize, usize),
        lease: Duration,
        pull_wait: Option<Duration>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        assert!(!shards.is_empty(), "a server needs at least one shard");
        assert!(
            shard_base + shards.len() <= total_shards,
            "shard range {shard_base}..{} exceeds total {total_shards}",
            shard_base + shards.len()
        );
        for sh in &shards {
            assert_eq!(sh.n_pipelines(), n_pipelines, "shards disagree on pipeline count");
            sh.set_metrics(Arc::clone(&metrics));
        }
        ServerCore {
            shards,
            n_pipelines,
            shard_base,
            total_shards,
            pull_wait,
            membership: Membership::new(n_pipelines, lease),
            pull_us: metrics.registry().histogram("ea_server_pull_us"),
            submit_us: metrics.registry().histogram("ea_server_submit_us"),
            metrics,
            conns: Mutex::new(HashMap::new()),
            parked: Mutex::new(Vec::new()),
            parked_count: AtomicUsize::new(0),
            subs: Mutex::new(HashMap::new()),
            subs_count: AtomicUsize::new(0),
            deferred: Mutex::new(Vec::new()),
        }
    }

    /// The shards being served.
    pub fn shards(&self) -> &[Arc<RefShard>] {
        &self.shards
    }

    /// Point-in-time copy of the health/fault counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Live-membership count as seen by the lease tracker.
    pub fn live_count(&self) -> usize {
        self.membership.live_count()
    }

    /// The pulls currently parked, in arrival order.
    pub fn parked_pulls(&self) -> Vec<ParkedPull> {
        if self.parked_count.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        lock(&self.parked).clone()
    }

    /// One reaper pass at the current [`clock::now`]: expires lapsed
    /// leases and evicts the dead pipelines from every shard quorum,
    /// completing stalled rounds degraded. Pipes whose eviction would
    /// empty a quorum are retried on later passes. Returns the pipes
    /// evicted by this pass; parked pulls its rounds satisfy are answered
    /// by the next [`ReactorHandler::poll`].
    pub fn reap(&self) -> Vec<usize> {
        let mut deferred = lock(&self.deferred);
        deferred.extend(self.membership.reap(clock::now()));
        let mut evicted_now = Vec::new();
        deferred.retain(|&p| {
            if self.membership.is_live(p) {
                // Rejoined between reap and eviction; its message already
                // readmitted it.
                return false;
            }
            let mut evicted = false;
            let mut quorum_lost = false;
            for sh in &self.shards {
                match sh.evict(p) {
                    Ok(true) => evicted = true,
                    Ok(false) => {}
                    Err(Error::QuorumLost { live, round }) => {
                        quorum_lost = true;
                        log_event!(
                            Warn,
                            "refshard",
                            "refusing to evict pipe {p}: quorum would be lost \
                             ({live} live at round {round})"
                        );
                    }
                    Err(e) => log_event!(Error, "refshard", "evicting pipe {p}: {e}"),
                }
            }
            if evicted {
                evicted_now.push(p);
                self.metrics.inc_evictions();
                ea_trace::instant(&EVICT_MARK, Category::Runtime, p as u64);
                // Lease expiry is exactly the moment a flight recorder
                // exists for: dump the window leading up to it.
                ea_ops::recorder::anomaly("evict");
                if EVICT_LOG_LIMIT.allow() {
                    log_event!(Warn, "refshard", "EVICTED pipe={p} (lease expired)");
                }
            }
            if quorum_lost {
                self.metrics.inc_quorum_lost();
            }
            quorum_lost // keep for retry only while the quorum blocks it
        });
        evicted_now
    }

    /// Consistent in-memory checkpoint: `None` while the shards are
    /// mid-round (inconsistent versions), so a capture is never torn.
    pub fn capture_checkpoint(&self) -> Option<RefCheckpoint> {
        let snaps: Vec<(u64, Vec<f32>)> =
            self.shards.iter().map(|sh| sh.versioned_snapshot()).collect();
        let round = snaps[0].0;
        if snaps.iter().any(|(v, _)| *v != round) {
            return None;
        }
        let shards = snaps.into_iter().map(|(_, w)| w).collect();
        Some(RefCheckpoint::capture_range(round, shards, self.shard_base, self.total_shards))
    }

    /// Lease renewal + readmission on any message from pipeline `p`.
    /// Shard readmission runs even when the membership entry is already
    /// live, to heal the (benign) race where the reaper evicted a pipe
    /// that rejoined between the lease check and the eviction.
    fn touch(&self, p: usize) {
        let was_dead = self.membership.join(p);
        let mut readmitted = was_dead;
        // One join boundary for all shards: past the highest in-flight
        // round, so a rejoiner resyncing to the max shard version can
        // never land beyond a round some slower shard still requires it
        // for.
        let joined_at = self.shards.iter().map(|s| s.version()).max().unwrap_or(0) + 1;
        for sh in &self.shards {
            if sh.readmit_at(p, joined_at) == Ok(true) {
                readmitted = true;
            }
        }
        if readmitted {
            self.metrics.inc_rejoins();
            ea_trace::instant(&REJOIN_MARK, Category::Runtime, p as u64);
            log_event!(Info, "refshard", "REJOIN pipe={p}");
        }
    }

    /// Resolves a *global* shard id to this server's local accumulator.
    fn lookup(&self, shard: u32) -> Result<&Arc<RefShard>, CommsError> {
        (shard as usize).checked_sub(self.shard_base).and_then(|i| self.shards.get(i)).ok_or_else(
            || {
                CommsError::Protocol(format!(
                    "shard {shard} not owned here (this server holds {}..{})",
                    self.shard_base,
                    self.shard_base + self.shards.len()
                ))
            },
        )
    }

    /// Whether a pull for `(shard, version)` can be answered now (round
    /// already complete, the latest-snapshot sentinel, or an unowned
    /// shard that `handle` rejects).
    fn pull_ready(&self, shard: u32, version: u64) -> bool {
        version == u64::MAX || self.lookup(shard).map_or(true, |sh| sh.version() >= version)
    }

    /// Records a pull for an incomplete round.
    fn park(&self, conn: ConnId, shard: u32, version: u64, codec: Codec, out: &mut Outbox) {
        let now = clock::now();
        let deadline = self.pull_wait.map(|w| now + w);
        {
            let mut parked = lock(&self.parked);
            parked.push(ParkedPull { conn, shard, version, deadline, codec, t0: now });
            self.parked_count.store(parked.len(), Ordering::Release);
        }
        // A submission on another reactor thread may have completed the
        // round between the readiness check and the push.
        if self.pull_ready(shard, version) {
            self.complete_parked(out);
        }
    }

    /// Answers every parked pull whose round has completed; drops overdue
    /// ones silently (no reply is owed; the client retransmits).
    fn complete_parked(&self, out: &mut Outbox) {
        if self.parked_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let now = clock::now();
        let mut parked = lock(&self.parked);
        parked.retain(|p| {
            let Ok(sh) = self.lookup(p.shard) else {
                return false;
            };
            let answer = sh.version() >= p.version;
            let expired = p.deadline.is_some_and(|d| now >= d);
            if answer || expired {
                self.pull_us.record(now.saturating_sub(p.t0).as_micros() as u64);
            }
            if answer {
                let (version, weights) = sh.versioned_snapshot();
                let reply = Message::PullReply { shard: p.shard, version, weights };
                out.send(p.conn, encode_reply(reply, p.codec));
            }
            !(answer || expired)
        });
        self.parked_count.store(parked.len(), Ordering::Release);
    }

    /// Pushes a `WeightsUpdate` to every subscriber whose shard advanced
    /// past its last published version — the round-boundary hot-swap
    /// signal for serving replicas. Cheap when nothing advanced: one
    /// atomic load, then per-shard version compares under the subs lock.
    ///
    /// This runs on the callback that completes a round, so it keeps the
    /// expensive part off the lock: each advanced shard is snapshotted
    /// **once** per call and shared across subscribers, and the
    /// per-subscriber weight copies happen outside the subs lock.
    fn publish_updates(&self, out: &mut Outbox) {
        if self.subs_count.load(Ordering::Acquire) == 0 {
            return;
        }
        // Pass 1 (subs lock, no copying): which subscribers lag which
        // shard?
        let lagging: Vec<(ConnId, u32)> = {
            let subs = lock(&self.subs);
            let mut lagging = Vec::new();
            for (shard_idx, sh) in self.shards.iter().enumerate() {
                let shard = (self.shard_base + shard_idx) as u32;
                let current = sh.version();
                for (conn, per_shard) in subs.iter() {
                    if per_shard.get(&shard).is_some_and(|&last| last < current) {
                        lagging.push((*conn, shard));
                    }
                }
            }
            lagging
        };
        if lagging.is_empty() {
            return;
        }
        // One consistent snapshot per advanced shard, shared by every
        // lagging subscriber of that shard.
        let mut snaps: HashMap<u32, (u64, Vec<f32>)> = HashMap::new();
        for &(_, shard) in &lagging {
            snaps.entry(shard).or_insert_with(|| {
                self.lookup(shard).expect("lagging shard is local").versioned_snapshot()
            });
        }
        // Each subscriber gets its negotiated representation. Compressed
        // payloads are encoded once per (shard, codec) and copied into
        // pooled buffers per subscriber; dense payloads are copied into
        // pooled tensor buffers — no fresh `Vec` allocation either way.
        let codec_of: HashMap<ConnId, Codec> = {
            let conns = lock(&self.conns);
            lagging
                .iter()
                .map(|&(c, _)| (c, conns.get(&c).copied().unwrap_or_default().codec))
                .collect()
        };
        let mut encoded: HashMap<(u32, u8), Vec<u8>> = HashMap::new();
        let mut sent = Vec::with_capacity(lagging.len());
        for (conn, shard) in lagging {
            let (version, weights) = &snaps[&shard];
            let wcodec = codec_of[&conn].weights_codec();
            let msg = if wcodec == Codec::F32 {
                let mut copy = ea_tensor::pool::take_cleared(weights.len());
                copy.extend_from_slice(weights);
                Message::WeightsUpdate { shard, version: *version, weights: copy }
            } else {
                let blob = encoded.entry((shard, wcodec.to_wire())).or_insert_with(|| {
                    let mut blob = ea_comms::take_blob(wcodec.encoded_len(weights.len()));
                    wcodec.encode(weights, &mut blob);
                    blob
                });
                let mut copy = ea_comms::take_blob(blob.len());
                copy.extend_from_slice(blob);
                Message::WeightsUpdateC {
                    shard,
                    version: *version,
                    codec: wcodec,
                    n: weights.len() as u32,
                    blob: copy,
                }
            };
            out.send(conn, msg);
            sent.push((conn, shard, *version));
        }
        for (_, blob) in encoded {
            ea_comms::recycle_blob(blob);
        }
        // Record what was sent. A concurrent publish from another
        // reactor thread may have pushed (and recorded) a newer version
        // meanwhile — keep the max; a stale push is harmless because the
        // subscriber discards versions at or below what it serves.
        let mut subs = lock(&self.subs);
        for (conn, shard, version) in sent {
            if let Some(last) = subs.get_mut(&conn).and_then(|m| m.get_mut(&shard)) {
                *last = (*last).max(version);
            }
        }
    }

    /// Drops `conn` for a protocol violation. The shard state is
    /// untouched: bad submissions are rejected atomically.
    fn reject(&self, conn: ConnId, pipe: Option<usize>, e: CommsError, out: &mut Outbox) {
        self.metrics.inc_protocol_violations();
        log_event!(Warn, "refshard", "dropping conn (pipe {pipe:?}): {e}");
        out.close(conn, e.to_string());
    }

    /// Computes the reply to one request that needs no parking. `Err`
    /// means the connection must be closed.
    fn handle(&self, conn: ConnId, msg: Message) -> Result<Message, CommsError> {
        match msg {
            Message::Hello { proto, pipe: _, codec } => {
                if proto != PROTO_VERSION as u16 {
                    return Err(CommsError::Protocol(format!(
                        "peer speaks protocol {proto}, server speaks {PROTO_VERSION}"
                    )));
                }
                // Any codec the wire layer can parse is acceptable: echo
                // it to seal the negotiation, and announce the owned shard
                // slice of the global partition so scatter-gather clients
                // can route.
                Ok(Message::HelloAck {
                    proto: PROTO_VERSION as u16,
                    n_shards: self.total_shards as u32,
                    n_pipelines: self.n_pipelines as u32,
                    codec,
                    shard_base: self.shard_base as u32,
                    shard_count: self.shards.len() as u32,
                })
            }
            Message::PullRequest { shard, version } => {
                // The round is complete (or this is the latest-snapshot
                // sentinel `u64::MAX`). A retransmitted pull can arrive
                // after its round was superseded; the reply carries the
                // weights' *actual* version so the client discards the
                // stale answer instead of mistaking newer weights for
                // older ones.
                let _t = self.pull_us.start_timer();
                let _span = ea_trace::span_arg(&PULL_SPAN, Category::Comm, version);
                let (version, weights) = self.lookup(shard)?.versioned_snapshot();
                Ok(Message::PullReply { shard, version, weights })
            }
            Message::SubmitDelta { shard, round, pipe, delta } => {
                let _t = self.submit_us.start_timer();
                // Same span id the worker stamped on its submit span — the
                // fleet collector joins the two across processes on it.
                let _span = ea_trace::span_arg(&SUBMIT_SPAN, Category::Comm, round)
                    .with_ctx(ea_ops::exchange_span_id(round, pipe));
                let sh = self.lookup(shard)?;
                match sh.submit_at(round, pipe as usize, delta) {
                    Ok(outcome) => Ok(Message::Ack {
                        shard,
                        round,
                        pipe,
                        duplicate: outcome == SubmitOutcome::Duplicate,
                    }),
                    Err(e) => Err(CommsError::Protocol(e.to_string())),
                }
            }
            Message::Heartbeat { pipe, round: beat_round, t_tx_us } => {
                if pipe as usize >= self.n_pipelines {
                    return Err(CommsError::Protocol(format!(
                        "heartbeat from unknown pipe {pipe} (server has {})",
                        self.n_pipelines
                    )));
                }
                self.metrics.inc_heartbeats();
                // The worker's round is authoritative about its own past:
                // it will never submit a round below it. A server restored
                // from a stale checkpoint uses this to stop waiting for
                // rounds the workers completed against the pre-crash
                // incarnation (each such round finishes empty; see
                // `RefShard::defer_until`).
                for sh in &self.shards {
                    sh.defer_until(pipe as usize, beat_round);
                }
                let round = self.shards.iter().map(|sh| sh.version()).max().unwrap_or(0);
                // Health-model gauges: each worker's self-reported round
                // and its lag behind the reference, keyed by pipe so the
                // fleet Prometheus view shows which worker is falling
                // behind.
                let reg = ea_trace::metrics::global();
                reg.gauge(&format!("ea_worker_round_p{pipe}")).set(beat_round as i64);
                reg.gauge(&format!("ea_worker_round_lag_p{pipe}"))
                    .set(round.saturating_sub(beat_round) as i64);
                Ok(Message::HeartbeatAck {
                    pipe,
                    round,
                    quorum: self.membership.live_count() as u32,
                    members: self.membership.mask(),
                    // Clock-alignment echo (NTP-style): the worker computes
                    // offset = t_server - (t_tx + t_rx)/2 from these.
                    echo_tx_us: t_tx_us,
                    t_server_us: clock::now_us(),
                })
            }
            Message::RoundInfoRequest { shard, round } => {
                let sh = self.lookup(shard)?;
                Ok(match sh.round_record(round) {
                    Some(rec) => Message::RoundInfoReply {
                        shard,
                        round,
                        quorum: rec.quorum,
                        members: rec.members,
                        known: true,
                    },
                    None => Message::RoundInfoReply {
                        shard,
                        round,
                        quorum: 0,
                        members: 0,
                        known: false,
                    },
                })
            }
            Message::MetricsRequest => {
                Ok(Message::MetricsReply { counters: self.metrics.snapshot().to_wire() })
            }
            Message::SubscribeWeights { shard } => {
                // Read-only subscription (serving replicas): the current
                // snapshot now, and a push at every later round boundary.
                // Deliberately *not* in `msg_pipe`, so a subscriber never
                // registers lease membership and cannot stall a training
                // quorum.
                let (version, weights) = self.lookup(shard)?.versioned_snapshot();
                let mut subs = lock(&self.subs);
                subs.entry(conn).or_default().insert(shard, version);
                self.subs_count.store(subs.len(), Ordering::Release);
                Ok(Message::WeightsUpdate { shard, version, weights })
            }
            other => Err(CommsError::Protocol(format!("unexpected {} from peer", other.name()))),
        }
    }
}

impl ReactorHandler for ServerCore {
    fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
        // Lease renewal: the first self-identifying message names the
        // connection's pipe; every later message on it renews that pipe's
        // lease. `Hello` also pins the codec every reply is transcoded to.
        let (pipe, codec) = {
            let mut conns = lock(&self.conns);
            let meta = conns.entry(conn).or_default();
            if let Message::Hello { codec, .. } = &msg {
                meta.codec = *codec;
            }
            if let Some(p) = msg_pipe(&msg).filter(|&p| p < self.n_pipelines) {
                meta.pipe = Some(p);
            }
            (meta.pipe, meta.codec)
        };
        if let Some(p) = pipe {
            self.touch(p);
        }
        let msg = match decode_request(msg) {
            Ok(msg) => msg,
            Err(e) => return self.reject(conn, pipe, e, out),
        };
        if let Message::PullRequest { shard, version } = msg {
            if !self.pull_ready(shard, version) {
                return self.park(conn, shard, version, codec, out);
            }
        }
        // Submissions complete rounds; so do heartbeats that let a
        // restored server skip rounds no worker will submit.
        let completes_rounds =
            matches!(msg, Message::SubmitDelta { .. } | Message::Heartbeat { .. });
        match self.handle(conn, msg) {
            Ok(reply) => out.send(conn, encode_reply(reply, codec)),
            Err(e) => return self.reject(conn, pipe, e, out),
        }
        // Answer the pulls this round completion satisfies *now*, on the
        // same callback, and push the new reference to subscribers at the
        // same boundary.
        if completes_rounds {
            self.complete_parked(out);
            self.publish_updates(out);
        }
    }

    fn on_disconnect(&self, conn: ConnId, reason: &DisconnectReason) {
        lock(&self.conns).remove(&conn);
        if self.parked_count.load(Ordering::Acquire) > 0 {
            let mut parked = lock(&self.parked);
            parked.retain(|p| p.conn != conn);
            self.parked_count.store(parked.len(), Ordering::Release);
        }
        if self.subs_count.load(Ordering::Acquire) > 0 {
            let mut subs = lock(&self.subs);
            subs.remove(&conn);
            self.subs_count.store(subs.len(), Ordering::Release);
        }
        // In fault-tolerant mode the lease, not the socket, decides
        // whether the pipeline is dead — a reconnect may be imminent.
        let m = &self.metrics;
        match reason {
            DisconnectReason::PeerClosed => m.inc_disconnects(),
            DisconnectReason::Frame(FrameError::BadCrc { expected, got }) => {
                m.inc_crc_failures();
                log_event!(
                    Error,
                    "refshard",
                    "dropping conn: frame CRC mismatch (expected {expected:#010x}, got {got:#010x})"
                );
            }
            DisconnectReason::Frame(e) => {
                m.inc_protocol_violations();
                log_event!(Error, "refshard", "dropping conn: bad frame: {e}");
            }
            DisconnectReason::Io(e) => {
                m.inc_io_errors();
                log_event!(Error, "refshard", "dropping conn: receive failed: {e}");
            }
            DisconnectReason::SlowConsumer { queued_bytes } => {
                m.inc_slow_consumer_evictions();
                log_event!(
                    Warn,
                    "refshard",
                    "evicting slow consumer ({queued_bytes} bytes queued)"
                );
            }
            DisconnectReason::IdleTimeout => m.inc_idle_timeouts(),
            // Counted when the close was requested / initiated.
            DisconnectReason::HandlerClosed(_) | DisconnectReason::Shutdown => {}
        }
    }

    fn poll(&self, out: &mut Outbox) {
        // Covers rounds completed by the reaper (degraded quorum) and
        // pull_wait expiry — neither arrives via on_message. Subscribers
        // likewise need reaper-completed rounds pushed.
        self.complete_parked(out);
        self.publish_updates(out);
    }

    fn has_deferred(&self) -> bool {
        self.parked_count.load(Ordering::Acquire) > 0 || self.subs_count.load(Ordering::Acquire) > 0
    }

    fn on_shutdown(&self, out: &mut Outbox) {
        // Answer every parked pull whose round is ready; the rest are
        // dropped — no reply is owed and a surviving client's retry logic
        // treats it like a bounded-wait expiry.
        self.complete_parked(out);
        lock(&self.parked).clear();
        self.parked_count.store(0, Ordering::Release);
        // Give subscribers one final consistent snapshot if a round
        // landed since their last push.
        self.publish_updates(out);
    }
}

/// The pipeline id a message identifies itself with, if any. Compressed
/// submissions count: a lossy-codec worker mid-round must renew its lease
/// with every `SubmitDeltaC` exactly like an uncompressed worker does with
/// `SubmitDelta`, or a burst of lost heartbeats gets an *actively
/// submitting* pipeline evicted (found by the ea-chaos lease oracles).
fn msg_pipe(msg: &Message) -> Option<usize> {
    match msg {
        Message::Hello { pipe, .. }
        | Message::SubmitDelta { pipe, .. }
        | Message::SubmitDeltaC { pipe, .. }
        | Message::Heartbeat { pipe, .. } => Some(*pipe as usize),
        _ => None,
    }
}

/// Edge transcode, inbound: a `SubmitDeltaC` becomes the `SubmitDelta`
/// the codec-agnostic `handle` understands. The blob is returned to the
/// byte pool; an undecodable blob is a protocol violation.
fn decode_request(msg: Message) -> Result<Message, CommsError> {
    match msg {
        Message::SubmitDeltaC { shard, round, pipe, codec, n, blob } => {
            let delta = codec.decode(n as usize, &blob).map_err(|e| {
                CommsError::Protocol(format!("undecodable {} SubmitDeltaC: {e}", codec.name()))
            })?;
            ea_comms::recycle_blob(blob);
            Ok(Message::SubmitDelta { shard, round, pipe, delta })
        }
        other => Ok(other),
    }
}

/// Edge transcode, outbound: weight-bearing replies are compressed with
/// the connection's negotiated codec ([`ea_optim::Codec::weights_codec`]
/// of it — top-k deltas still pull dense references). Everything else
/// passes through untouched.
fn encode_reply(reply: Message, codec: Codec) -> Message {
    let wcodec = codec.weights_codec();
    if wcodec == Codec::F32 {
        return reply;
    }
    match reply {
        Message::PullReply { shard, version, weights } => {
            let (n, blob) = encode_weights(wcodec, weights);
            Message::PullReplyC { shard, version, codec: wcodec, n, blob }
        }
        Message::WeightsUpdate { shard, version, weights } => {
            let (n, blob) = encode_weights(wcodec, weights);
            Message::WeightsUpdateC { shard, version, codec: wcodec, n, blob }
        }
        other => other,
    }
}

fn encode_weights(codec: Codec, weights: Vec<f32>) -> (u32, Vec<u8>) {
    let n = weights.len() as u32;
    let mut blob = ea_comms::take_blob(codec.encoded_len(weights.len()));
    codec.encode(&weights, &mut blob);
    ea_tensor::pool::recycle(weights);
    (n, blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A hand-advanced clock for driving the core on virtual time.
    struct ManualClock(Rc<Cell<Duration>>);

    impl clock::Clock for ManualClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    fn hello(pipe: u32) -> Message {
        Message::Hello { proto: PROTO_VERSION as u16, pipe, codec: Codec::F32 }
    }

    fn submit(pipe: u32, delta: f32) -> Message {
        Message::SubmitDelta { shard: 0, round: 0, pipe, delta: vec![delta] }
    }

    fn sends(out: &mut Outbox) -> Vec<(ConnId, Message)> {
        let (sends, closes) = out.drain();
        assert!(closes.is_empty(), "unexpected closes {closes:?}");
        sends
    }

    #[test]
    fn parked_pull_is_answered_when_the_reaper_completes_the_round_degraded() {
        let now = Rc::new(Cell::new(Duration::ZERO));
        let _clock = clock::install(Rc::new(ManualClock(Rc::clone(&now))));
        let lease = Duration::from_millis(100);
        let shards = vec![Arc::new(RefShard::new(vec![0.0], 2))];
        let core = ServerCore::new(shards, 2, (0, 1), lease, None);
        let a = ConnId::from_raw(1);
        let mut out = Outbox::default();
        core.on_message(a, hello(0), &mut out);
        core.on_message(a, submit(0, 8.0), &mut out);
        core.on_message(a, Message::PullRequest { shard: 0, version: 1 }, &mut out);
        assert_eq!(sends(&mut out).len(), 2, "HelloAck and Ack only: the pull is parked");
        assert_eq!(core.parked_pulls().len(), 1);
        // Pipe 0 renews its lease; pipe 1 never speaks and lapses.
        now.set(Duration::from_millis(60));
        core.on_message(a, Message::Heartbeat { pipe: 0, round: 1, t_tx_us: 0 }, &mut out);
        assert!(matches!(sends(&mut out)[..], [(_, Message::HeartbeatAck { .. })]));
        now.set(Duration::from_millis(120));
        assert_eq!(core.reap(), vec![1]);
        core.poll(&mut out);
        match &sends(&mut out)[..] {
            [(to, Message::PullReply { shard: 0, version: 1, weights })] => {
                assert_eq!(*to, a);
                assert_eq!(weights, &vec![8.0]);
            }
            other => panic!("expected the parked reply, got {other:?}"),
        }
        assert!(core.parked_pulls().is_empty());
        assert_eq!(core.shards()[0].round_record(0).unwrap().quorum, 1);
    }

    #[test]
    fn ft_parked_pull_expires_at_pull_wait_and_the_retransmission_succeeds() {
        let now = Rc::new(Cell::new(Duration::ZERO));
        let _clock = clock::install(Rc::new(ManualClock(Rc::clone(&now))));
        let pull_wait = Duration::from_millis(40);
        let shards = vec![Arc::new(RefShard::new(vec![0.0], 2))];
        let core = ServerCore::new(shards, 2, (0, 1), Duration::from_secs(60), Some(pull_wait));
        let (a, b) = (ConnId::from_raw(1), ConnId::from_raw(2));
        let pull = Message::PullRequest { shard: 0, version: 1 };
        let mut out = Outbox::default();
        core.on_message(a, hello(0), &mut out);
        core.on_message(b, hello(1), &mut out);
        core.on_message(a, pull.clone(), &mut out);
        assert_eq!(sends(&mut out).len(), 2);
        let parked = core.parked_pulls();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].deadline, Some(pull_wait));
        // Still within the bounded wait: nothing happens.
        now.set(Duration::from_millis(39));
        core.poll(&mut out);
        assert!(sends(&mut out).is_empty());
        assert_eq!(core.parked_pulls().len(), 1);
        // At the deadline the pull is dropped without a reply.
        now.set(pull_wait);
        core.poll(&mut out);
        assert!(sends(&mut out).is_empty());
        assert!(core.parked_pulls().is_empty());
        assert!(!core.has_deferred());
        // The round completes; the client's retransmission is answered
        // immediately.
        core.on_message(a, submit(0, 2.0), &mut out);
        core.on_message(b, submit(1, 4.0), &mut out);
        assert_eq!(sends(&mut out).len(), 2);
        core.on_message(a, pull, &mut out);
        match &sends(&mut out)[..] {
            [(to, Message::PullReply { version: 1, weights, .. })] => {
                assert_eq!(*to, a);
                assert_eq!(weights, &vec![3.0]);
            }
            other => panic!("expected an immediate reply, got {other:?}"),
        }
    }

    #[test]
    fn the_submission_that_completes_a_round_answers_its_parked_pulls() {
        let shards = vec![Arc::new(RefShard::new(vec![1.0], 2))];
        let core = ServerCore::new(shards, 2, (0, 1), Duration::from_secs(60), None);
        let (a, b) = (ConnId::from_raw(1), ConnId::from_raw(2));
        let mut out = Outbox::default();
        core.on_message(a, submit(0, 2.0), &mut out);
        core.on_message(a, Message::PullRequest { shard: 0, version: 1 }, &mut out);
        assert_eq!(sends(&mut out).len(), 1, "the Ack; the pull is parked");
        core.on_message(b, submit(1, 4.0), &mut out);
        let sent = sends(&mut out);
        assert!(matches!(sent[0], (to, Message::Ack { pipe: 1, .. }) if to == b));
        assert!(matches!(&sent[1], (to, Message::PullReply { version: 1, weights, .. })
            if *to == a && weights == &vec![4.0]));
        assert!(!core.has_deferred());
    }
}
