//! Worker-side protocol driver: request/reply with timeout, bounded
//! retry, and idempotency-aware reply matching — plus the scatter-gather
//! [`RemoteShards`] channel that fans one logical pull/submit out across
//! K shard-server processes over per-server connections.

use crate::transport::{CommsError, Transport};
use crate::wire::Message;
use ea_optim::Codec;
use std::sync::Mutex;
use std::time::Duration;

/// Retry policy for unanswered requests.
///
/// Retransmissions are spaced by *decorrelated jitter*: before attempt
/// `k+1`, the client sleeps a uniformly random duration in
/// `[base, min(cap, 3 × previous_sleep)]` where `base` is
/// `reply_timeout / 8` and `cap` is `reply_timeout`. Under thousand-worker
/// fan-in a server hiccup would otherwise resynchronize every worker's
/// retry clock and turn one slow round into a retransmission storm; the
/// jitter decorrelates the herd while keeping the first retry prompt.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// How long to wait for a matching reply before retransmitting.
    pub reply_timeout: Duration,
    /// Total attempts per request (first send included).
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { reply_timeout: Duration::from_millis(500), max_attempts: 10 }
    }
}

/// Topology reported by the server during the handshake.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Number of reference shards in the *global* model (pipeline stages),
    /// summed over every shard server.
    pub n_shards: usize,
    /// Number of pipelines the server expects per round.
    pub n_pipelines: usize,
    /// Delta codec agreed in the handshake (server echoes the codec it
    /// will accept on `SubmitDeltaC`; replies use
    /// [`Codec::weights_codec`] of this).
    pub codec: Codec,
    /// First global shard id owned by this server.
    pub shard_base: usize,
    /// Number of consecutive global shards owned by this server.
    pub shard_count: usize,
}

/// Live-membership view reported by a heartbeat acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumInfo {
    /// Newest completed round on the server (max shard version).
    pub round: u64,
    /// Number of pipelines currently holding a live lease.
    pub quorum: u32,
    /// Bitmask of live pipeline ids (bit `i` = pipeline `i` live).
    pub members: u64,
}

/// One pipeline's connection to the reference-shard server.
///
/// Every request is retried up to `max_attempts` times: requests are
/// idempotent by construction (`PullRequest` is a read; `SubmitDelta` is
/// deduplicated server-side on `(shard, round, pipe)`), so at-least-once
/// delivery is safe. Replies are matched on their identifying fields;
/// stale replies from earlier retransmissions are discarded.
pub struct ShardClient {
    conn: Box<dyn Transport>,
    retry: RetryConfig,
    info: ServerInfo,
    pipe: usize,
    offset: crate::clock::OffsetEstimator,
}

impl ShardClient {
    /// Performs the version handshake for pipeline `pipe` with the
    /// uncompressed (`F32`) delta codec and returns a ready client.
    pub fn handshake(
        conn: Box<dyn Transport>,
        pipe: usize,
        retry: RetryConfig,
    ) -> Result<Self, CommsError> {
        Self::handshake_with_codec(conn, pipe, retry, Codec::F32)
    }

    /// Performs the version handshake for pipeline `pipe`, requesting the
    /// given delta codec. The server echoes the codec it agrees to (a
    /// pre-v2 server that ignores the field implicitly stays on `F32`);
    /// whatever comes back in the ack is what both sides use from then on.
    pub fn handshake_with_codec(
        mut conn: Box<dyn Transport>,
        pipe: usize,
        retry: RetryConfig,
        codec: Codec,
    ) -> Result<Self, CommsError> {
        let hello =
            Message::Hello { proto: crate::frame::PROTO_VERSION as u16, pipe: pipe as u32, codec };
        let reply =
            request(&mut *conn, &retry, hello, "Hello", |m| matches!(m, Message::HelloAck { .. }))?;
        let Message::HelloAck { proto, n_shards, n_pipelines, codec, shard_base, shard_count } =
            reply
        else {
            unreachable!()
        };
        if proto != crate::frame::PROTO_VERSION as u16 {
            return Err(CommsError::Protocol(format!(
                "server speaks protocol {proto}, client speaks {}",
                crate::frame::PROTO_VERSION
            )));
        }
        let (n_shards, shard_base, shard_count) =
            (n_shards as usize, shard_base as usize, shard_count as usize);
        if shard_count == 0 || shard_base + shard_count > n_shards {
            return Err(CommsError::Protocol(format!(
                "server claims shards {shard_base}..{} of {n_shards}",
                shard_base + shard_count
            )));
        }
        Ok(ShardClient {
            conn,
            retry,
            info: ServerInfo {
                n_shards,
                n_pipelines: n_pipelines as usize,
                codec,
                shard_base,
                shard_count,
            },
            pipe,
            offset: crate::clock::OffsetEstimator::new(),
        })
    }

    /// Topology reported by the server.
    pub fn server_info(&self) -> ServerInfo {
        self.info
    }

    /// This connection's pipeline id.
    pub fn pipe(&self) -> usize {
        self.pipe
    }

    /// Traffic counters of the underlying connection.
    pub fn stats(&self) -> crate::transport::TransportStats {
        self.conn.stats()
    }

    /// Step ❷: fetches shard `shard`'s reference weights at *at least*
    /// `version` completed rounds. In fault-free operation the reply is
    /// always exactly `version` (a round cannot complete without this
    /// pipeline's delta, so the reference cannot run ahead of it); a
    /// newer reply only occurs for a freshly rejoined pipeline racing a
    /// round that completed without it — rejecting those would strand
    /// the rejoiner retransmitting against a reference that has already
    /// moved on. Replies older than `version` are stale retransmissions
    /// and are still discarded.
    pub fn pull(&mut self, shard: usize, version: u64) -> Result<Vec<f32>, CommsError> {
        let req = Message::PullRequest { shard: shard as u32, version };
        let reply = request(&mut *self.conn, &self.retry, req, "PullRequest", |m| {
            matches!(m, Message::PullReply { shard: s, version: v, .. }
                if *s == shard as u32 && *v >= version)
                || matches!(m, Message::PullReplyC { shard: s, version: v, .. }
                    if *s == shard as u32 && *v >= version)
        })?;
        Ok(decode_weights_reply(reply)?.1)
    }

    /// Step ❸: ships this pipeline's local update for `round` on `shard`,
    /// waiting for the (possibly duplicate-flagged) acknowledgement.
    ///
    /// Under a non-`F32` negotiated codec the delta is encoded into a
    /// `SubmitDeltaC`; callers running error feedback submit values they
    /// already round-tripped through the codec, so the re-encode here is
    /// lossless (see `ea_optim::codec`'s idempotence contract).
    pub fn submit(&mut self, shard: usize, round: u64, delta: Vec<f32>) -> Result<(), CommsError> {
        let pipe = self.pipe as u32;
        let codec = self.info.codec;
        let req = if codec == Codec::F32 {
            Message::SubmitDelta { shard: shard as u32, round, pipe, delta }
        } else {
            let n = delta.len() as u32;
            let mut blob = crate::bytepool::take_empty(codec.encoded_len(delta.len()));
            codec.encode(&delta, &mut blob);
            ea_tensor::pool::recycle(delta);
            Message::SubmitDeltaC { shard: shard as u32, round, pipe, codec, n, blob }
        };
        request(&mut *self.conn, &self.retry, req, "SubmitDelta", |m| {
            matches!(m, Message::Ack { shard: s, round: r, pipe: p, .. }
                if *s == shard as u32 && *r == round && *p == pipe)
        })?;
        Ok(())
    }

    /// Fetches shard `shard`'s *newest* reference weights, whatever round
    /// the server has reached. Used by a rejoining worker to resynchronize.
    pub fn pull_latest(&mut self, shard: usize) -> Result<(u64, Vec<f32>), CommsError> {
        let req = Message::PullRequest { shard: shard as u32, version: u64::MAX };
        let reply = request(&mut *self.conn, &self.retry, req, "PullRequest(latest)", |m| {
            matches!(m, Message::PullReply { shard: s, .. } if *s == shard as u32)
                || matches!(m, Message::PullReplyC { shard: s, .. } if *s == shard as u32)
        })?;
        decode_weights_reply(reply)
    }

    /// Renews this pipeline's lease and returns the server's live-quorum
    /// view. `round` is advisory (the worker's current round, for logs).
    ///
    /// Each beat doubles as one NTP-style clock sample: the request
    /// carries the local send time, the ack echoes it alongside the
    /// server's own clock, and the pair feeds this connection's
    /// [`clock_offset`](Self::clock_offset) estimator. Using the echoed
    /// timestamp (not the latest send time) keeps retransmitted beats
    /// honest — a stale ack is matched to the transmit it answers.
    pub fn heartbeat(&mut self, round: u64) -> Result<QuorumInfo, CommsError> {
        let pipe = self.pipe as u32;
        let req = Message::Heartbeat { pipe, round, t_tx_us: crate::clock::now_us() };
        let reply = request(
            &mut *self.conn,
            &self.retry,
            req,
            "Heartbeat",
            |m| matches!(m, Message::HeartbeatAck { pipe: p, .. } if *p == pipe),
        )?;
        let t_rx_us = crate::clock::now_us();
        let Message::HeartbeatAck { round, quorum, members, echo_tx_us, t_server_us, .. } = reply
        else {
            unreachable!()
        };
        self.offset.sample(echo_tx_us, t_server_us, t_rx_us);
        Ok(QuorumInfo { round, quorum, members })
    }

    /// The server↔client clock-offset estimate accumulated from
    /// heartbeats on this connection.
    pub fn clock_offset(&self) -> &crate::clock::OffsetEstimator {
        &self.offset
    }

    /// Asks the server for the recorded membership of `(shard, round)`.
    /// Returns `None` when the record has been evicted or not yet written.
    pub fn round_info(
        &mut self,
        shard: usize,
        round: u64,
    ) -> Result<Option<QuorumInfo>, CommsError> {
        let req = Message::RoundInfoRequest { shard: shard as u32, round };
        let reply = request(&mut *self.conn, &self.retry, req, "RoundInfoRequest", |m| {
            matches!(m, Message::RoundInfoReply { shard: s, round: r, .. }
                if *s == shard as u32 && *r == round)
        })?;
        let Message::RoundInfoReply { round, quorum, members, known, .. } = reply else {
            unreachable!()
        };
        Ok(known.then_some(QuorumInfo { round, quorum, members }))
    }

    /// Reads the server's health counters (the wire form of its
    /// `ServerMetricsSnapshot`, in snapshot field order).
    pub fn metrics(&mut self) -> Result<[u64; crate::wire::METRICS_COUNTERS], CommsError> {
        let reply = request(
            &mut *self.conn,
            &self.retry,
            Message::MetricsRequest,
            "MetricsRequest",
            |m| matches!(m, Message::MetricsReply { .. }),
        )?;
        let Message::MetricsReply { counters } = reply else { unreachable!() };
        Ok(counters)
    }
}

/// Extracts `(version, weights)` from a `PullReply` or `PullReplyC`,
/// decoding the blob with the codec the server stamped on the message
/// (which may be [`Codec::weights_codec`] of the negotiated delta codec).
fn decode_weights_reply(reply: Message) -> Result<(u64, Vec<f32>), CommsError> {
    match reply {
        Message::PullReply { version, weights, .. } => Ok((version, weights)),
        Message::PullReplyC { version, codec, n, blob, .. } => {
            let weights = codec.decode(n as usize, &blob).map_err(|e| {
                CommsError::Protocol(format!("undecodable {} PullReplyC: {e}", codec.name()))
            })?;
            crate::bytepool::recycle(blob);
            Ok((version, weights))
        }
        _ => unreachable!(),
    }
}

/// Sends `req` and waits for a reply satisfying `matches`, retransmitting
/// on timeout up to the attempt budget. Non-matching replies (stale
/// retransmission answers) are discarded.
fn request(
    conn: &mut dyn Transport,
    retry: &RetryConfig,
    req: Message,
    what: &'static str,
    matches: impl Fn(&Message) -> bool,
) -> Result<Message, CommsError> {
    let attempts = retry.max_attempts.max(1);
    // Decorrelated-jitter state (see `RetryConfig` docs): each retry
    // sleeps uniformly in [base, min(cap, 3 × previous sleep)].
    let base = (retry.reply_timeout / 8).max(Duration::from_millis(1));
    let cap = retry.reply_timeout.max(base);
    let mut prev_sleep = base;
    for attempt in 0..attempts {
        if attempt > 0 {
            conn.record_retry();
            crate::trace::counters().on_retry();
            let sleep = jitter_backoff(base, cap, prev_sleep);
            crate::clock::sleep(sleep);
            prev_sleep = sleep;
        }
        conn.send(req.clone())?;
        let deadline = crate::clock::now() + retry.reply_timeout;
        loop {
            let now = crate::clock::now();
            if now >= deadline {
                break; // retransmit
            }
            match conn.recv_timeout(deadline - now) {
                Ok(reply) if matches(&reply) => return Ok(reply),
                // A reply to an earlier retransmission of a *previous*
                // request; recycle any bulk payload and keep waiting.
                Ok(stale) => stale.recycle(),
                Err(CommsError::Timeout) => break,
                Err(e) => return Err(e),
            }
        }
    }
    Err(CommsError::RetriesExhausted { what, attempts })
}

/// One decorrelated-jitter draw: uniform in `[base, min(cap, 3 × prev)]`.
fn jitter_backoff(base: Duration, cap: Duration, prev: Duration) -> Duration {
    let hi = (prev * 3).clamp(base, cap);
    let span_ns = hi.saturating_sub(base).as_nanos() as u64;
    base + Duration::from_nanos(if span_ns == 0 { 0 } else { jitter_u64() % (span_ns + 1) })
}

/// Cheap per-thread SplitMix64 for retry jitter. Seeded from a global
/// counter (not the clock), so runs are deterministic given a thread
/// spawn order while distinct threads still draw uncorrelated streams —
/// no external RNG dependency on the hot protocol path.
fn jitter_u64() -> u64 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_SEED: AtomicU64 = AtomicU64::new(0x243F_6A88_85A3_08D3);
    thread_local! {
        static STATE: Cell<u64> =
            Cell::new(NEXT_SEED.fetch_add(0xA076_1D64_78BD_642F, Ordering::Relaxed));
    }
    STATE.with(|s| {
        let mut z = s.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        s.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// The trainer-facing abstraction: pull reference weights and submit local
/// updates for any `(pipe, shard)`, over whatever backend is configured.
///
/// The in-process backend (`ea-runtime`'s `LocalShards`) calls the shard
/// accumulator directly; [`RemoteShards`] speaks the wire protocol over
/// one [`ShardClient`] connection per pipeline.
pub trait ShardChannel: Send + Sync {
    /// Number of reference shards (one per pipeline stage).
    fn n_shards(&self) -> usize;

    /// Step ❷: reference weights of `shard` at exactly `version` completed
    /// rounds (blocks until available).
    fn pull(&self, pipe: usize, shard: usize, version: u64) -> Result<Vec<f32>, CommsError>;

    /// Steps ❸–❹: ships pipeline `pipe`'s local update for `round`.
    fn submit(
        &self,
        pipe: usize,
        shard: usize,
        round: u64,
        delta: Vec<f32>,
    ) -> Result<(), CommsError>;

    /// Newest `(version, weights)` of `shard`, whatever round the backend
    /// has reached. Used by a rejoining worker to resynchronize.
    fn pull_latest(&self, pipe: usize, shard: usize) -> Result<(u64, Vec<f32>), CommsError>;

    /// Renews pipeline `pipe`'s membership lease and reports the live
    /// quorum. In-process backends have no leases: they report a full
    /// quorum of `n_pipelines` members, all live.
    fn heartbeat(&self, pipe: usize, round: u64) -> Result<QuorumInfo, CommsError>;

    /// Delta codec the backend negotiated. In-process backends exchange
    /// plain `f32` buffers; workers consult this to decide whether an
    /// error-feedback accumulator is worth carrying.
    fn codec(&self) -> Codec {
        Codec::F32
    }

    /// One logical pull of *every* shard at `version`, returned in shard
    /// order. The default walks the shards serially; sharded backends
    /// override it with a concurrent scatter-gather across servers.
    fn pull_all(&self, pipe: usize, version: u64) -> Result<Vec<Vec<f32>>, CommsError> {
        (0..self.n_shards()).map(|s| self.pull(pipe, s, version)).collect()
    }

    /// One logical submit of the deltas for *every* shard (indexed by
    /// shard id) for `round`. The default walks the shards serially;
    /// sharded backends override it with a concurrent scatter.
    fn submit_all(&self, pipe: usize, round: u64, deltas: Vec<Vec<f32>>) -> Result<(), CommsError> {
        for (shard, delta) in deltas.into_iter().enumerate() {
            self.submit(pipe, shard, round, delta)?;
        }
        Ok(())
    }
}

/// One pipeline's fan of connections: element `i` talks to server `i`
/// (index order shared with `RemoteShards::ranges`).
struct PipeConns {
    pipe: usize,
    servers: Vec<Mutex<ShardClient>>,
}

/// Validates that `(shard_base, shard_count)` ranges — already sorted by
/// base — tile `0..n_shards` exactly (no gap, overlap, duplicate, or
/// excess), and returns the routing table mapping each global shard id to
/// its owning server index. Pure so the adversarial shard-map proptests
/// can hammer it directly.
pub fn validate_shard_map(
    ranges: &[(usize, usize)],
    n_shards: usize,
) -> Result<Vec<usize>, CommsError> {
    let mut next = 0usize;
    let mut route = Vec::with_capacity(n_shards);
    for (server, &(base, count)) in ranges.iter().enumerate() {
        if base != next {
            return Err(CommsError::Protocol(format!(
                "shard map has a gap or overlap at shard {next} (server {server} \
                 claims {base}..{})",
                base + count
            )));
        }
        route.extend(std::iter::repeat_n(server, count));
        next = base + count;
    }
    if next != n_shards {
        return Err(CommsError::Protocol(format!("shard map covers {next} of {n_shards} shards")));
    }
    Ok(route)
}

/// [`ShardChannel`] over per-pipeline [`ShardClient`] connections, with
/// the reference model optionally partitioned across K shard-server
/// processes.
///
/// Every pipeline holds one connection *per server*; a logical
/// [`ShardChannel::pull_all`]/[`ShardChannel::submit_all`] scatters across
/// the servers concurrently (one OS thread per remote server, amortized
/// against network round trips) and gathers the per-shard results back
/// into global shard order. Partial failure is all-or-nothing at the call
/// boundary: if any server's leg exhausts its retries the whole call
/// fails, and the caller's supervision loop (lease/quorum machinery from
/// the runtime) decides between reconnect and degraded continuation.
pub struct RemoteShards {
    pipes: Vec<PipeConns>,
    /// `(shard_base, shard_count)` per server, in server index order.
    ranges: Vec<(usize, usize)>,
    /// Global shard id → owning server index.
    route: Vec<usize>,
    n_shards: usize,
    codec: Codec,
}

/// One entry per shard server, labeled with the `(shard_base,
/// shard_count)` range that server owns — the result shape of the
/// fleet-wide [`RemoteShards::metrics`] / [`RemoteShards::clock_offsets`]
/// scatters.
pub type PerServer<T> = Vec<((usize, usize), T)>;

impl RemoteShards {
    /// Builds the channel from handshaken clients, one per pipeline, each
    /// talking to a single server that owns the whole model (any subset of
    /// the global pipeline ids — a worker process typically holds just one).
    pub fn new(clients: Vec<ShardClient>) -> Result<Self, CommsError> {
        Self::sharded(clients.into_iter().map(|c| vec![c]).collect())
    }

    /// Builds the channel from per-pipeline *groups* of handshaken
    /// clients: `groups[p]` holds pipeline *p*'s connections, one per
    /// shard server, in any order. Validates that every group reports the
    /// same partition and that the servers' `(shard_base, shard_count)`
    /// ranges tile `0..n_shards` exactly.
    pub fn sharded(groups: Vec<Vec<ShardClient>>) -> Result<Self, CommsError> {
        let first = groups
            .first()
            .and_then(|g| g.first())
            .ok_or_else(|| CommsError::Protocol("RemoteShards needs ≥ 1 connection".into()))?;
        let (n_shards, codec) = (first.server_info().n_shards, first.server_info().codec);

        let mut pipes = Vec::with_capacity(groups.len());
        let mut ranges: Option<Vec<(usize, usize)>> = None;
        for mut group in groups {
            // Deterministic server order: sort each pipe's fan by the
            // shard range it owns, so server index i means the same
            // partition slice on every pipe.
            group.sort_by_key(|c| c.server_info().shard_base);
            let pipe = group[0].pipe();
            let group_ranges: Vec<(usize, usize)> = group
                .iter()
                .map(|c| {
                    let info = c.server_info();
                    (info.shard_base, info.shard_count)
                })
                .collect();
            for c in &group {
                let info = c.server_info();
                if c.pipe() != pipe || info.n_shards != n_shards || info.codec != codec {
                    return Err(CommsError::Protocol(format!(
                        "inconsistent handshakes in pipeline {pipe}'s server group: \
                         pipe {} / {} shards / codec {}",
                        c.pipe(),
                        info.n_shards,
                        info.codec.name()
                    )));
                }
            }
            match &ranges {
                None => ranges = Some(group_ranges),
                Some(r) if *r == group_ranges => {}
                Some(_) => {
                    return Err(CommsError::Protocol(format!(
                        "pipeline {pipe} sees a different shard partition than pipeline {}",
                        pipes.first().map(|p: &PipeConns| p.pipe).unwrap_or(0)
                    )));
                }
            }
            pipes.push(PipeConns { pipe, servers: group.into_iter().map(Mutex::new).collect() });
        }

        // The sorted ranges must tile 0..n_shards with no gap or overlap.
        let ranges = ranges.expect("≥1 group checked above");
        let route = validate_shard_map(&ranges, n_shards)?;
        Ok(RemoteShards { pipes, ranges, route, n_shards, codec })
    }

    /// Number of shard servers in the partition.
    pub fn n_servers(&self) -> usize {
        self.ranges.len()
    }

    /// The `(shard_base, shard_count)` partition, in server index order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Reads the health counters of **every** shard server in the
    /// partition (concurrent scatter over the first pipeline's fan),
    /// labeling each result with the `(shard_base, shard_count)` range
    /// that server owns. A single-server deployment returns one entry —
    /// same data the old single-connection `ShardClient::metrics` gave.
    pub fn metrics(&self) -> Result<PerServer<[u64; crate::wire::METRICS_COUNTERS]>, CommsError> {
        let pipe = self.pipes.first().map(|p| p.pipe).ok_or_else(|| {
            CommsError::Protocol("RemoteShards has no connections to read metrics over".into())
        })?;
        let per_server =
            self.scatter(pipe, |_, conn| conn.lock().expect("shard client poisoned").metrics())?;
        Ok(self.ranges.iter().copied().zip(per_server).collect())
    }

    /// Per-server clock-offset estimates (µs, server minus local clock)
    /// with their RTT error bounds, accumulated from the first
    /// pipeline's heartbeats. `None` entries have not completed a beat
    /// yet.
    pub fn clock_offsets(&self) -> PerServer<Option<(i64, u64)>> {
        let Some(conns) = self.pipes.first() else {
            return Vec::new();
        };
        self.ranges
            .iter()
            .copied()
            .zip(conns.servers.iter().map(|c| {
                let guard = c.lock().expect("shard client poisoned");
                let est = guard.clock_offset();
                est.offset_us().zip(est.rtt_us())
            }))
            .collect()
    }

    fn pipe_conns(&self, pipe: usize) -> Result<&PipeConns, CommsError> {
        self.pipes
            .iter()
            .find(|p| p.pipe == pipe)
            .ok_or_else(|| CommsError::Protocol(format!("no connection for pipeline {pipe}")))
    }

    fn client(
        &self,
        pipe: usize,
        shard: usize,
    ) -> Result<std::sync::MutexGuard<'_, ShardClient>, CommsError> {
        let server = *self
            .route
            .get(shard)
            .ok_or_else(|| CommsError::Protocol(format!("shard {shard} out of range")))?;
        Ok(self.pipe_conns(pipe)?.servers[server].lock().expect("shard client poisoned"))
    }

    /// Runs `leg` once per server concurrently (inline when there is only
    /// one server) and returns the per-server results in server order,
    /// failing the whole call on the first failed leg.
    fn scatter<T: Send>(
        &self,
        pipe: usize,
        leg: impl Fn(usize, &Mutex<ShardClient>) -> Result<T, CommsError> + Sync,
    ) -> Result<Vec<T>, CommsError> {
        let conns = self.pipe_conns(pipe)?;
        if conns.servers.len() == 1 {
            return Ok(vec![leg(0, &conns.servers[0])?]);
        }
        let leg = &leg;
        let legs = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .servers
                .iter()
                .enumerate()
                .map(|(server, conn)| scope.spawn(move || leg(server, conn)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter leg panicked")).collect::<Vec<_>>()
        });
        legs.into_iter().collect()
    }
}

impl ShardChannel for RemoteShards {
    fn n_shards(&self) -> usize {
        self.n_shards
    }

    fn codec(&self) -> Codec {
        self.codec
    }

    fn pull(&self, pipe: usize, shard: usize, version: u64) -> Result<Vec<f32>, CommsError> {
        self.client(pipe, shard)?.pull(shard, version)
    }

    fn submit(
        &self,
        pipe: usize,
        shard: usize,
        round: u64,
        delta: Vec<f32>,
    ) -> Result<(), CommsError> {
        self.client(pipe, shard)?.submit(shard, round, delta)
    }

    fn pull_latest(&self, pipe: usize, shard: usize) -> Result<(u64, Vec<f32>), CommsError> {
        self.client(pipe, shard)?.pull_latest(shard)
    }

    /// Lease renewal fans out to every server (each keeps its own
    /// membership table). The composed view is the most pessimistic one:
    /// the newest round any server has completed, the smallest quorum,
    /// and the intersection of the live-member masks.
    fn heartbeat(&self, pipe: usize, round: u64) -> Result<QuorumInfo, CommsError> {
        let views = self.scatter(pipe, |_, conn| {
            conn.lock().expect("shard client poisoned").heartbeat(round)
        })?;
        let mut it = views.into_iter();
        let first = it.next().expect("≥1 server by construction");
        Ok(it.fold(first, |acc, v| QuorumInfo {
            round: acc.round.max(v.round),
            quorum: acc.quorum.min(v.quorum),
            members: acc.members & v.members,
        }))
    }

    fn pull_all(&self, pipe: usize, version: u64) -> Result<Vec<Vec<f32>>, CommsError> {
        let per_server = self.scatter(pipe, |server, conn| {
            let (base, count) = self.ranges[server];
            let mut guard = conn.lock().expect("shard client poisoned");
            (base..base + count)
                .map(|shard| guard.pull(shard, version))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(per_server.into_iter().flatten().collect())
    }

    fn submit_all(&self, pipe: usize, round: u64, deltas: Vec<Vec<f32>>) -> Result<(), CommsError> {
        if deltas.len() != self.n_shards {
            return Err(CommsError::Protocol(format!(
                "submit_all got {} deltas for {} shards",
                deltas.len(),
                self.n_shards
            )));
        }
        // Carve the global delta vector into per-server contiguous slices
        // (the partition is contiguous by construction).
        let mut rest = deltas;
        let mut per_server: Vec<Vec<Vec<f32>>> = Vec::with_capacity(self.ranges.len());
        for &(_, count) in self.ranges.iter().rev() {
            let tail = rest.split_off(rest.len() - count);
            per_server.push(tail);
        }
        per_server.reverse();
        let per_server: Vec<Mutex<Option<Vec<Vec<f32>>>>> =
            per_server.into_iter().map(|d| Mutex::new(Some(d))).collect();
        self.scatter(pipe, |server, conn| {
            let batch = per_server[server]
                .lock()
                .expect("delta batch poisoned")
                .take()
                .expect("each scatter leg runs once");
            let (base, _) = self.ranges[server];
            let mut guard = conn.lock().expect("shard client poisoned");
            for (i, delta) in batch.into_iter().enumerate() {
                guard.submit(base + i, round, delta)?;
            }
            Ok(())
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::loopback_pair;
    use crate::wire::Message;

    /// A hand-rolled server end answering exactly one request pattern.
    fn spawn_echo_server(
        mut server: crate::loopback::LoopbackTransport,
        replies: impl Fn(Message) -> Option<Message> + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(msg) = server.recv() {
                if let Some(reply) = replies(msg) {
                    if server.send(reply).is_err() {
                        return;
                    }
                }
            }
        })
    }

    #[test]
    fn jitter_backoff_stays_within_the_decorrelated_envelope() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let mut prev = base;
        for _ in 0..200 {
            let sleep = jitter_backoff(base, cap, prev);
            assert!(sleep >= base, "{sleep:?} below base");
            assert!(sleep <= (prev * 3).clamp(base, cap), "{sleep:?} above 3×prev");
            assert!(sleep <= cap, "{sleep:?} above cap");
            prev = sleep;
        }
    }

    #[test]
    fn jitter_draws_are_not_constant() {
        let draws: Vec<u64> = (0..16).map(|_| jitter_u64()).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "RNG returned a constant");
    }

    #[test]
    fn handshake_reports_topology() {
        let (client_end, server_end) = loopback_pair();
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { proto, .. } => Some(Message::HelloAck {
                proto,
                n_shards: 3,
                n_pipelines: 2,
                codec: Codec::Int8,
                shard_base: 1,
                shard_count: 2,
            }),
            _ => None,
        });
        let client = ShardClient::handshake_with_codec(
            Box::new(client_end),
            1,
            RetryConfig::default(),
            Codec::Int8,
        )
        .unwrap();
        assert_eq!(client.server_info().n_shards, 3);
        assert_eq!(client.server_info().n_pipelines, 2);
        assert_eq!(client.server_info().codec, Codec::Int8);
        assert_eq!(client.server_info().shard_base, 1);
        assert_eq!(client.server_info().shard_count, 2);
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn version_mismatch_is_a_protocol_error() {
        let (client_end, server_end) = loopback_pair();
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { .. } => Some(Message::HelloAck {
                proto: 99,
                n_shards: 1,
                n_pipelines: 1,
                codec: Codec::F32,
                shard_base: 0,
                shard_count: 1,
            }),
            _ => None,
        });
        let err = ShardClient::handshake(Box::new(client_end), 0, RetryConfig::default());
        assert!(matches!(err, Err(CommsError::Protocol(_))));
        h.join().unwrap();
    }

    #[test]
    fn pull_discards_stale_replies_and_matches_the_right_one() {
        let (client_end, server_end) = loopback_pair();
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { proto, .. } => Some(Message::HelloAck {
                proto,
                n_shards: 1,
                n_pipelines: 1,
                codec: Codec::F32,
                shard_base: 0,
                shard_count: 1,
            }),
            Message::PullRequest { shard, version } => {
                Some(Message::PullReply { shard, version, weights: vec![version as f32; 70] })
            }
            _ => None,
        });
        let mut client =
            ShardClient::handshake(Box::new(client_end), 0, RetryConfig::default()).unwrap();
        let w = client.pull(0, 4).unwrap();
        assert_eq!(w, vec![4.0f32; 70]);
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn metrics_roundtrip_over_loopback() {
        let (client_end, server_end) = loopback_pair();
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { proto, .. } => Some(Message::HelloAck {
                proto,
                n_shards: 1,
                n_pipelines: 1,
                codec: Codec::F32,
                shard_base: 0,
                shard_count: 1,
            }),
            Message::MetricsRequest => {
                let mut counters = [0u64; crate::wire::METRICS_COUNTERS];
                counters[4] = 7; // heartbeats
                Some(Message::MetricsReply { counters })
            }
            _ => None,
        });
        let mut client =
            ShardClient::handshake(Box::new(client_end), 0, RetryConfig::default()).unwrap();
        let counters = client.metrics().unwrap();
        assert_eq!(counters[4], 7);
        assert_eq!(counters.iter().sum::<u64>(), 7);
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn unanswered_request_exhausts_retries() {
        let (client_end, server_end) = loopback_pair();
        // Server answers the handshake, then goes silent.
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { proto, .. } => Some(Message::HelloAck {
                proto,
                n_shards: 1,
                n_pipelines: 1,
                codec: Codec::F32,
                shard_base: 0,
                shard_count: 1,
            }),
            _ => None,
        });
        let retry = RetryConfig { reply_timeout: Duration::from_millis(5), max_attempts: 3 };
        let mut client = ShardClient::handshake(Box::new(client_end), 0, retry).unwrap();
        match client.pull(0, 0) {
            Err(CommsError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(client.stats().retries, 2, "two retransmissions after the first send");
        drop(client);
        h.join().unwrap();
    }

    /// Spawns an echo shard server owning global shards
    /// `base..base + count` of `n_shards`, echoing the requested codec.
    /// Pull replies carry `shard + version` so routing mistakes are loud.
    fn spawn_range_server(
        server: crate::loopback::LoopbackTransport,
        n_shards: u32,
        base: u32,
        count: u32,
    ) -> std::thread::JoinHandle<()> {
        spawn_echo_server(server, move |msg| match msg {
            Message::Hello { proto, codec, .. } => Some(Message::HelloAck {
                proto,
                n_shards,
                n_pipelines: 1,
                codec,
                shard_base: base,
                shard_count: count,
            }),
            Message::PullRequest { shard, version } => {
                assert!(
                    (base..base + count).contains(&shard),
                    "pull for shard {shard} routed to server {base}..{}",
                    base + count
                );
                let version = if version == u64::MAX { 9 } else { version };
                Some(Message::PullReply {
                    shard,
                    version,
                    weights: vec![(shard as u64 + version) as f32; 16],
                })
            }
            Message::SubmitDelta { shard, round, pipe, delta } => {
                assert!((base..base + count).contains(&shard), "submit misrouted");
                assert_eq!(delta, vec![shard as f32; 16]);
                Some(Message::Ack { shard, round, pipe, duplicate: false })
            }
            _ => None,
        })
    }

    #[test]
    fn sharded_channel_routes_and_gathers_across_servers() {
        let (client_a, server_a) = loopback_pair();
        let (client_b, server_b) = loopback_pair();
        let ha = spawn_range_server(server_a, 3, 0, 2);
        let hb = spawn_range_server(server_b, 3, 2, 1);
        // Hand the clients over in reverse order: `sharded` must sort the
        // fan by shard_base, not trust caller order.
        let cb = ShardClient::handshake(Box::new(client_b), 0, RetryConfig::default()).unwrap();
        let ca = ShardClient::handshake(Box::new(client_a), 0, RetryConfig::default()).unwrap();
        let shards = RemoteShards::sharded(vec![vec![cb, ca]]).unwrap();
        assert_eq!(shards.n_shards(), 3);
        assert_eq!(shards.n_servers(), 2);

        // Point reads route by shard id.
        assert_eq!(shards.pull(0, 2, 4).unwrap(), vec![6.0f32; 16]);
        let (v, w) = shards.pull_latest(0, 1).unwrap();
        assert_eq!((v, w), (9, vec![10.0f32; 16]));

        // One logical pull fans out to both servers and gathers in shard order.
        let all = shards.pull_all(0, 5).unwrap();
        assert_eq!(all, vec![vec![5.0f32; 16], vec![6.0f32; 16], vec![7.0f32; 16]]);

        // One logical submit scatters each shard's delta to its owner.
        let deltas = (0..3).map(|s| vec![s as f32; 16]).collect();
        shards.submit_all(0, 7, deltas).unwrap();

        drop(shards);
        ha.join().unwrap();
        hb.join().unwrap();
    }

    #[test]
    fn shard_map_gaps_and_overlaps_are_rejected() {
        for (base_b, count_b) in [(1u32, 2u32), (3, 1)] {
            let (client_a, server_a) = loopback_pair();
            let (client_b, server_b) = loopback_pair();
            let ha = spawn_range_server(server_a, 4, 0, 2);
            let hb = spawn_range_server(server_b, 4, base_b, count_b);
            let ca = ShardClient::handshake(Box::new(client_a), 0, RetryConfig::default()).unwrap();
            let cb = ShardClient::handshake(Box::new(client_b), 0, RetryConfig::default()).unwrap();
            let err = RemoteShards::sharded(vec![vec![ca, cb]]);
            assert!(
                matches!(err, Err(CommsError::Protocol(_))),
                "range {base_b}..{} accepted",
                base_b + count_b
            );
            ha.join().unwrap();
            hb.join().unwrap();
        }
    }

    #[test]
    fn negotiated_codec_compresses_the_submit_path() {
        let (client_end, server_end) = loopback_pair();
        let h = spawn_echo_server(server_end, |msg| match msg {
            Message::Hello { proto, codec, .. } => Some(Message::HelloAck {
                proto,
                n_shards: 1,
                n_pipelines: 1,
                codec,
                shard_base: 0,
                shard_count: 1,
            }),
            Message::SubmitDeltaC { shard, round, pipe, codec, n, blob } => {
                assert_eq!(codec, Codec::Int8);
                assert_eq!(blob.len(), codec.encoded_len(n as usize));
                let decoded = codec.decode(n as usize, &blob).unwrap();
                // The submitted values were codec-representable, so the
                // wire round trip is exact.
                assert_eq!(decoded, vec![0.5f32; 64]);
                Some(Message::Ack { shard, round, pipe, duplicate: false })
            }
            Message::PullRequest { shard, version } => {
                let weights = vec![0.25f32; 64];
                let codec = Codec::Int8;
                let mut blob = Vec::new();
                codec.encode(&weights, &mut blob);
                Some(Message::PullReplyC { shard, version, codec, n: 64, blob })
            }
            _ => None,
        });
        let mut client = ShardClient::handshake_with_codec(
            Box::new(client_end),
            0,
            RetryConfig::default(),
            Codec::Int8,
        )
        .unwrap();
        client.submit(0, 3, vec![0.5f32; 64]).unwrap();
        assert_eq!(client.pull(0, 2).unwrap(), vec![0.25f32; 64]);
        drop(client);
        h.join().unwrap();
    }
}
