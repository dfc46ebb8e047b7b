//! The reference-shard server process and the single-pipeline worker.
//!
//! [`RefShardServer`] puts the [`RefShard`](crate::RefShard) accumulators
//! behind a TCP listener: [`RefShardServer::serve_reactor`] hands the
//! server's [`ServerCore`] to the `ea-comms` epoll reactor, which
//! multiplexes every connection over a few event-loop threads. The core
//! speaks the elastic-averaging wire protocol (`Hello` handshake,
//! `PullRequest`/`PullReply`, `SubmitDelta`/`Ack`,
//! `Heartbeat`/`HeartbeatAck`, `RoundInfoRequest`/`RoundInfoReply`).
//! Because submissions are idempotent on `(shard, round, pipe)` and pulls
//! are reads, the server composes with at-least-once clients —
//! retransmitted requests are answered again without double-counting.
//!
//! # Fault tolerance
//!
//! [`RefShardServer::with_fault_tolerance`] arms the membership machinery:
//!
//! * Every message from pipeline `p` renews `p`'s **lease**
//!   ([`Membership`](crate::Membership)); idle workers send explicit
//!   heartbeats.
//! * A background *reaper* thread runs [`ServerCore::reap`]: it expires
//!   lapsed leases and evicts the dead pipeline from every shard quorum —
//!   a round stalled on the dead worker then completes in
//!   **degraded-quorum** mode (`w̃ ← w̃ + (1/k)·Σ Δ_i` over the `k`
//!   survivors).
//! * Parked reference pulls expire after [`FtConfig::pull_wait`]; the
//!   client's retransmission doubles as lease renewal while the reaper
//!   completes the round.
//! * A message from an evicted pipeline *readmits* it at the next round
//!   boundary, so a restarted worker re-enters the quorum cleanly.
//! * The reaper periodically persists a round-tagged, checksummed
//!   [`RefCheckpoint`] (atomic write–rename);
//!   [`RefShardServer::from_checkpoint`] restores it on startup so a
//!   server crash resumes at the recorded round.
//!
//! Every connection failure is **counted and logged**
//! ([`ServerMetrics`](crate::ServerMetrics)) — never silently swallowed.
//!
//! [`ElasticWorker`] is the process-per-pipeline counterpart of
//! [`ElasticTrainer`](crate::ElasticTrainer): one threaded pipeline whose
//! reference pulls and delta submissions go through a
//! [`ShardChannel`] — typically [`RemoteShards`](ea_comms::RemoteShards)
//! over TCP to a `RefShardServer` in another process.

use crate::checkpoint::RefCheckpoint;
use crate::elastic::RefShard;
use crate::metrics::ServerMetricsSnapshot;
use crate::server_core::{ServerCore, PULL_SPAN, SUBMIT_SPAN};
use crate::{Error, ThreadedPipeline};
use ea_autograd::Stage;
use ea_comms::clock::{self, Waiter};
use ea_comms::reactor::{Reactor, ReactorConfig, ReactorHandler};
use ea_comms::{CommsError, QuorumInfo, ShardChannel};
use ea_data::Batch;
use ea_optim::Optimizer;
use ea_trace::{log_event, Category, StaticName};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault-tolerance policy for [`RefShardServer::with_fault_tolerance`].
#[derive(Clone, Debug)]
pub struct FtConfig {
    /// Lease duration: a pipeline silent for longer is declared dead and
    /// evicted from the quorum.
    pub lease: Duration,
    /// How often the reaper thread checks for lapsed leases (and writes
    /// checkpoints). Should be a fraction of `lease`.
    pub reap_interval: Duration,
    /// Upper bound on how long a versioned pull stays parked server-side.
    /// On expiry no reply is sent; the client retransmits, which renews
    /// its lease while the reaper completes the stalled round.
    pub pull_wait: Duration,
    /// Periodic reference checkpointing: `(path, interval)`. The write is
    /// atomic (temp file + rename) and skipped whenever the shards are
    /// mid-round (inconsistent versions).
    pub checkpoint: Option<(PathBuf, Duration)>,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            lease: Duration::from_secs(2),
            reap_interval: Duration::from_millis(500),
            pull_wait: Duration::from_millis(250),
            checkpoint: None,
        }
    }
}

/// A lease long enough to never expire in practice — membership is inert
/// until `with_fault_tolerance` replaces it.
const NO_LEASE: Duration = Duration::from_secs(365 * 24 * 3600);

/// Serves a set of reference shards to remote pipelines: a [`ServerCore`]
/// plus the threads and files a process around it needs (the reaper and
/// the checkpoint writes).
pub struct RefShardServer {
    core: Arc<ServerCore>,
    checkpoint: Option<(PathBuf, Duration)>,
    reaper_stop: Arc<Waiter>,
    reaper: Option<JoinHandle<()>>,
}

impl RefShardServer {
    fn with_core(core: ServerCore) -> Self {
        RefShardServer {
            core: Arc::new(core),
            checkpoint: None,
            reaper_stop: Arc::new(Waiter::new()),
            reaper: None,
        }
    }

    /// Wraps existing shards (all must expect the same `n_pipelines`).
    pub fn new(shards: Vec<Arc<RefShard>>, n_pipelines: usize) -> Self {
        let total = shards.len();
        Self::with_core(ServerCore::new(shards, n_pipelines, (0, total), NO_LEASE, None))
    }

    /// Declares this server one slice of a partitioned reference model:
    /// its shards hold *global* shards
    /// `shard_base..shard_base + shards.len()` of `total_shards`. Clients
    /// address shards globally; the handshake announces the owned range so
    /// a scatter-gather channel can route. Call before serving (and before
    /// [`RefShardServer::with_fault_tolerance`], which preserves the
    /// range).
    pub fn with_shard_range(self, shard_base: usize, total_shards: usize) -> Self {
        let core = &self.core;
        Self::with_core(core.reconfigure((shard_base, total_shards), NO_LEASE, core.pull_wait))
    }

    /// Builds fresh shards from per-stage initial reference weights.
    pub fn from_initial_weights(stage_weights: Vec<Vec<f32>>, n_pipelines: usize) -> Self {
        let shards =
            stage_weights.into_iter().map(|w| Arc::new(RefShard::new(w, n_pipelines))).collect();
        Self::new(shards, n_pipelines)
    }

    /// Restores the shards from a reference checkpoint: every shard starts
    /// at the recorded round with the recorded weights, so training
    /// resumes where the crashed server left off instead of resetting.
    pub fn from_checkpoint(ckpt: &RefCheckpoint, n_pipelines: usize) -> Self {
        Self::with_core(ServerCore::from_checkpoint(ckpt, n_pipelines, NO_LEASE, None))
    }

    /// Arms fault tolerance: lease-based membership, bounded pull waits,
    /// the reaper thread (degraded-quorum completion of stalled rounds),
    /// and optional periodic checkpointing. Call before serving.
    pub fn with_fault_tolerance(self, cfg: FtConfig) -> Self {
        let old = &self.core;
        let range = (old.shard_base, old.total_shards);
        let core = Arc::new(old.reconfigure(range, cfg.lease, Some(cfg.pull_wait)));
        let stop = Arc::new(Waiter::new());
        let reaper = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let checkpoint = cfg.checkpoint.clone();
            let interval = cfg.reap_interval;
            std::thread::Builder::new()
                .name("shard-reaper".into())
                .spawn(move || reaper_loop(&core, &stop, interval, checkpoint))
                .expect("spawn reaper thread")
        };
        RefShardServer { core, checkpoint: cfg.checkpoint, reaper_stop: stop, reaper: Some(reaper) }
    }

    /// Serves `listener` on the `ea-comms` reactor: all connections
    /// multiplexed over `cfg.threads` event-loop threads, dispatched to
    /// this server's [`ServerCore`]. Serve a server from one reactor at a
    /// time: the core keys connection state by reactor-issued ids.
    ///
    /// The returned [`Reactor`] serves until dropped or
    /// [`shutdown`](Reactor::shutdown).
    pub fn serve_reactor(
        &self,
        listener: TcpListener,
        cfg: ReactorConfig,
    ) -> std::io::Result<Reactor> {
        let handler: Arc<dyn ReactorHandler> = self.core.clone();
        Reactor::spawn(listener, handler, cfg)
    }

    /// This server's protocol core, for embedding in a *composite*
    /// reactor handler — e.g. an inference frontend that routes `Infer` to
    /// its own engine and delegates the whole trainer protocol (plus
    /// weight subscriptions) here.
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// The shards being served (e.g. to snapshot the final reference).
    pub fn shards(&self) -> &[Arc<RefShard>] {
        self.core.shards()
    }

    /// Point-in-time copy of the health/fault counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.core.metrics()
    }

    /// One-shot Prometheus text exposition dump: this server's private
    /// counters and latency histograms, followed by the process-wide
    /// [`ea_trace::metrics::global`] registry (pool stats, log totals).
    pub fn render_prometheus(&self) -> String {
        let mut out = self.core.metrics.registry().render_prometheus();
        out.push_str(&ea_trace::metrics::global().render_prometheus());
        out
    }

    /// Live-membership count as seen by the lease tracker.
    pub fn live_count(&self) -> usize {
        self.core.live_count()
    }

    /// Writes a consistent reference checkpoint now (all shards at the
    /// same version), if one is possible. Returns whether a file was
    /// written.
    pub fn checkpoint_now(&self, path: &std::path::Path) -> std::io::Result<bool> {
        save_checkpoint(&self.core, path)
    }
}

impl Drop for RefShardServer {
    fn drop(&mut self) {
        self.reaper_stop.interrupt();
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        // Final checkpoint on clean shutdown, best effort.
        if let Some((path, _)) = self.checkpoint.take() {
            let _ = self.checkpoint_now(&path);
        }
    }
}

static WORKER_ROUND_SPAN: StaticName = StaticName::new("round");

/// The reaper thread: runs the core's reap pass every `interval` and
/// periodically persists a consistent reference checkpoint.
fn reaper_loop(
    core: &ServerCore,
    stop: &Waiter,
    interval: Duration,
    checkpoint: Option<(PathBuf, Duration)>,
) {
    let mut last_save = clock::now();
    loop {
        if stop.wait_timeout(interval) {
            return; // shutdown requested mid-sleep
        }
        core.reap();
        if let Some((path, every)) = &checkpoint {
            let now = clock::now();
            if now.saturating_sub(last_save) >= *every {
                last_save = now;
                if let Err(e) = save_checkpoint(core, path) {
                    log_event!(Error, "refshard", "checkpoint write failed: {e}");
                }
            }
        }
    }
}

/// Persists the shards iff they are at one consistent version (not
/// mid-round; the next tick catches those). Returns whether a file was
/// written.
fn save_checkpoint(core: &ServerCore, path: &std::path::Path) -> std::io::Result<bool> {
    let Some(ckpt) = core.capture_checkpoint() else {
        return Ok(false);
    };
    ckpt.save(path)?;
    core.metrics.inc_checkpoints_saved();
    Ok(true)
}

/// One pipeline of the elastic-averaging ensemble, driven standalone —
/// the worker half of the two-process deployment. Runs the same fused
/// Step ❶–❸ per round as [`ElasticTrainer`](crate::ElasticTrainer), with
/// the reference reached through a [`ShardChannel`].
pub struct ElasticWorker {
    pipeline: ThreadedPipeline,
    channel: Arc<dyn ShardChannel>,
    pipe: usize,
    n_shards: usize,
    alpha: f32,
    round: u64,
    /// Carries quantization error across rounds when the channel
    /// negotiated a lossy codec; a pass-through under `F32`.
    feedback: crate::ErrorFeedback,
}

impl ElasticWorker {
    /// Spawns the pipeline. `alpha` is the elastic pull strength (use
    /// `1/N` to match the default trainer).
    pub fn new(
        stages: Vec<Stage>,
        opts: Vec<Box<dyn Optimizer>>,
        micros: usize,
        alpha: f32,
        pipe: usize,
        channel: Arc<dyn ShardChannel>,
    ) -> Self {
        let n_shards = channel.n_shards();
        assert_eq!(stages.len(), n_shards, "one reference shard per stage");
        let feedback = crate::ErrorFeedback::new(channel.codec(), n_shards);
        ElasticWorker {
            pipeline: ThreadedPipeline::spawn(stages, opts, micros),
            channel,
            pipe,
            n_shards,
            alpha,
            round: 0,
            feedback,
        }
    }

    /// One elastic round on `batch`: pull the round-`r` reference for
    /// every stage, run the fused local-step/α-pull/delta pass, ship the
    /// deltas. Blocks (inside the pulls of the *next* round) until all
    /// peer pipelines finish the current one.
    pub fn round(&mut self, batch: &Batch) -> Result<f32, CommsError> {
        let round = self.round;
        let span_id = ea_ops::exchange_span_id(round, self.pipe as u32);
        let _round_span =
            ea_trace::span_arg(&WORKER_ROUND_SPAN, Category::Runtime, round).with_ctx(span_id);
        let references = {
            let _s = ea_trace::span_arg(&PULL_SPAN, Category::Comm, round).with_ctx(span_id);
            self.channel.pull_all(self.pipe, round)?
        };
        let (loss, deltas) = self.pipeline.step_elastic(batch, references, self.alpha);
        let deltas: Vec<Vec<f32>> =
            deltas.into_iter().enumerate().map(|(s, d)| self.feedback.apply(s, d)).collect();
        {
            let _s = ea_trace::span_arg(&SUBMIT_SPAN, Category::Comm, round).with_ctx(span_id);
            self.channel.submit_all(self.pipe, round, deltas)?;
        }
        self.round += 1;
        Ok(loss)
    }

    /// One *local* training step — no reference pull, no delta shipped.
    /// The supervisor's degraded mode: keep making progress while the
    /// server is unreachable.
    pub fn local_step(&mut self, batch: &Batch) -> Result<f32, Error> {
        self.pipeline.try_step(batch)
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// The elastic pull strength.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Changes the elastic pull strength (e.g. to `1/k` when the quorum
    /// degrades to `k` members).
    pub fn set_alpha(&mut self, alpha: f32) {
        self.alpha = alpha;
    }

    /// Swaps in a fresh channel (same shard topology) after a reconnect.
    pub fn reconnect(&mut self, channel: Arc<dyn ShardChannel>) {
        assert_eq!(channel.n_shards(), self.n_shards, "reconnect changed the shard topology");
        self.feedback = crate::ErrorFeedback::new(channel.codec(), self.n_shards);
        self.channel = channel;
    }

    /// Renews this worker's lease and returns the server's quorum view.
    pub fn heartbeat(&self) -> Result<QuorumInfo, CommsError> {
        self.channel.heartbeat(self.pipe, self.round)
    }

    /// Resynchronizes with the server after a restart or lost rounds:
    /// pulls every shard's *latest* reference, overwrites the replica
    /// parameters with it, and fast-forwards the round counter to the
    /// newest shard version. The next [`ElasticWorker::round`] then
    /// re-enters the quorum at the server's current round boundary.
    pub fn resync(&mut self) -> Result<u64, CommsError> {
        let mut newest = 0u64;
        for s in 0..self.n_shards {
            let (version, weights) = self.channel.pull_latest(self.pipe, s)?;
            newest = newest.max(version);
            self.pipeline.set_stage_params(s, weights);
        }
        // The replica was rebased onto the reference; carried quantization
        // error no longer describes anything real.
        self.feedback.reset();
        self.round = newest;
        // Tell every server where this pipe now stands. A server restored
        // from a stale checkpoint uses the reported round to stop waiting
        // for submissions that died with its previous incarnation
        // (`RefShard::defer_until`); for healthy servers it is a plain
        // lease renewal.
        self.channel.heartbeat(self.pipe, newest)?;
        Ok(newest)
    }

    /// Reference weights of stage `s` as of the last completed round
    /// (blocks until every pipeline has finished it).
    pub fn pull_reference(&self, s: usize) -> Result<Vec<f32>, CommsError> {
        self.channel.pull(self.pipe, s, self.round)
    }

    /// This worker's replica parameters for stage `s`.
    pub fn stage_params(&self, s: usize) -> Vec<f32> {
        self.pipeline.stage_params(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_comms::{
        Codec, Message, RemoteShards, RetryConfig, ShardClient, TcpConfig, TcpTransport, Transport,
        PROTO_VERSION,
    };
    use std::net::SocketAddr;
    use std::time::Instant;

    /// Serves `server` on a reactor bound to an ephemeral loopback port.
    fn serve_tcp(server: RefShardServer) -> (Reactor, Arc<RefShardServer>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = server.serve_reactor(listener, ReactorConfig::default()).unwrap();
        (reactor, Arc::new(server))
    }

    fn raw(reactor: &Reactor) -> TcpTransport {
        TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap()
    }

    fn connect_to(addr: SocketAddr, pipe: usize) -> ShardClient {
        let conn = TcpTransport::connect(addr, TcpConfig::default()).unwrap();
        ShardClient::handshake(Box::new(conn), pipe, RetryConfig::default()).unwrap()
    }

    fn connect(reactor: &Reactor, pipe: usize) -> ShardClient {
        connect_to(reactor.local_addr(), pipe)
    }

    #[test]
    fn handshake_reports_shard_topology() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0; 4], vec![0.0; 6]], 3);
        let (reactor, _server) = serve_tcp(server);
        let client = connect(&reactor, 0);
        assert_eq!(client.server_info().n_shards, 2);
        assert_eq!(client.server_info().n_pipelines, 3);
        drop(client);
    }

    #[test]
    fn restored_server_heals_past_checkpoint_lag_on_heartbeats() {
        // The pre-crash server completed round 3; its checkpoint was
        // taken there, but the workers finished rounds 3..6 against it
        // before it died. The restarted server must not wait for those
        // submissions — the heartbeats carrying the workers' rounds let
        // it complete the lost rounds empty and resume at the boundary.
        let ckpt = RefCheckpoint::capture(3, vec![vec![5.0f32; 4]]);
        let server = RefShardServer::from_checkpoint(&ckpt, 2);
        let (reactor, server) = serve_tcp(server);
        let mut a = connect(&reactor, 0);
        let mut b = connect(&reactor, 1);
        a.heartbeat(6).unwrap();
        assert_eq!(server.shards()[0].version(), 3, "pipe 1 could still submit round 3");
        b.heartbeat(6).unwrap();
        assert_eq!(server.shards()[0].version(), 6, "rounds 3..6 complete empty");
        // Training resumes at the deferred boundary with the restored
        // weights untouched by the empty rounds.
        assert_eq!(a.pull(0, 6).unwrap(), vec![5.0; 4]);
        a.submit(0, 6, vec![1.0; 4]).unwrap();
        b.submit(0, 6, vec![3.0; 4]).unwrap();
        assert_eq!(b.pull(0, 7).unwrap(), vec![7.0; 4]);
        drop(a);
        drop(b);
    }

    #[test]
    fn two_clients_complete_a_round_through_the_server() {
        let server = RefShardServer::from_initial_weights(vec![vec![1.0, 1.0]], 2);
        let shards = server.shards().to_vec();
        let (reactor, _server) = serve_tcp(server);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|p| {
                let client = connect(&reactor, p);
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut c = client;
                    let w = c.pull(0, 0).unwrap();
                    assert_eq!(w, vec![1.0, 1.0]);
                    barrier.wait();
                    c.submit(0, 0, vec![2.0 * (p as f32 + 1.0); 2]).unwrap();
                    // Round 1 is observable by every client afterwards.
                    let w = c.pull(0, 1).unwrap();
                    assert_eq!(w, vec![4.0, 4.0]); // 1 + (2 + 4)/2
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(shards[0].try_weights_at(1), Some(vec![4.0, 4.0]));
    }

    #[test]
    fn retransmitted_submit_is_acked_as_duplicate_and_not_double_counted() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 1);
        let shards = server.shards().to_vec();
        let (reactor, _server) = serve_tcp(server);
        let mut raw = raw(&reactor);
        let hello = Message::Hello { proto: PROTO_VERSION as u16, pipe: 0, codec: Codec::F32 };
        raw.send(hello).unwrap();
        assert!(matches!(raw.recv().unwrap(), Message::HelloAck { .. }));
        for expect_dup in [false, true, true] {
            raw.send(Message::SubmitDelta { shard: 0, round: 0, pipe: 0, delta: vec![5.0] })
                .unwrap();
            match raw.recv().unwrap() {
                Message::Ack { duplicate, .. } => assert_eq!(duplicate, expect_dup),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(shards[0].try_weights_at(1), Some(vec![5.0]), "applied exactly once");
        drop(raw);
    }

    #[test]
    fn stale_pull_is_answered_with_the_actual_version() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 1);
        let shards = server.shards().to_vec();
        shards[0].submit(0, vec![3.0]).unwrap();
        let (reactor, _server) = serve_tcp(server);
        let mut raw = raw(&reactor);
        raw.send(Message::PullRequest { shard: 0, version: 0 }).unwrap();
        match raw.recv().unwrap() {
            Message::PullReply { version, weights, .. } => {
                assert_eq!(version, 1, "reply labeled with the real version");
                assert_eq!(weights, vec![3.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(raw);
    }

    #[test]
    fn protocol_violation_closes_the_connection_without_corrupting_state() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let shards = server.shards().to_vec();
        let (reactor, server) = serve_tcp(server);
        // A bad peer submits a wrong-length delta, then a future round.
        let mut bad = raw(&reactor);
        bad.send(Message::SubmitDelta { shard: 0, round: 0, pipe: 0, delta: vec![1.0; 9] })
            .unwrap();
        assert!(matches!(bad.recv(), Err(CommsError::Closed)), "server dropped the bad peer");
        // A well-behaved peer on a fresh connection is unaffected.
        let mut good = connect(&reactor, 0);
        assert_eq!(good.pull(0, 0).unwrap(), vec![0.0]);
        good.submit(0, 0, vec![4.0]).unwrap();
        shards[0].submit(1, vec![0.0]).unwrap();
        assert_eq!(good.pull(0, 1).unwrap(), vec![2.0]);
        drop(good);
        // The violation was counted, not swallowed.
        assert!(server.metrics().protocol_violations >= 1);
    }

    #[test]
    fn heartbeat_round_info_and_latest_pull_are_served() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let shards = server.shards().to_vec();
        let (reactor, server) = serve_tcp(server);
        let mut c = connect(&reactor, 0);
        // Full quorum reported before any round.
        let q = c.heartbeat(0).unwrap();
        assert_eq!(q, QuorumInfo { round: 0, quorum: 2, members: 0b11 });
        // Complete round 0 out-of-band, degraded to pipe 0 only.
        shards[0].submit_at(0, 0, vec![4.0]).unwrap();
        shards[0].evict(1).unwrap();
        // The latest-pull sentinel never blocks and reports the version.
        let (v, w) = c.pull_latest(0).unwrap();
        assert_eq!((v, w), (1, vec![4.0]));
        // The membership record of round 0 is queryable...
        let rec = c.round_info(0, 0).unwrap().unwrap();
        assert_eq!(rec, QuorumInfo { round: 0, quorum: 1, members: 0b01 });
        // ...and unknown rounds are reported as such, not invented.
        assert_eq!(c.round_info(0, 7).unwrap(), None);
        drop(c);
        assert!(server.metrics().heartbeats >= 1);
    }

    #[test]
    fn ft_mode_bounded_pull_times_out_and_the_retransmission_succeeds() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2).with_fault_tolerance(
            FtConfig {
                lease: Duration::from_secs(60), // never expires in this test
                reap_interval: Duration::from_millis(10),
                pull_wait: Duration::from_millis(40),
                checkpoint: None,
            },
        );
        let shards = server.shards().to_vec();
        let (reactor, _server) = serve_tcp(server);
        let mut c = ShardClient::handshake(
            Box::new(raw(&reactor)),
            0,
            RetryConfig { reply_timeout: Duration::from_millis(80), max_attempts: 20 },
        )
        .unwrap();
        // Ask for round 1 before it exists; complete it from another
        // thread after a few server-side pull timeouts have elapsed.
        let filler = {
            let shards = shards.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                shards[0].submit_at(0, 0, vec![2.0]).unwrap();
                shards[0].submit_at(0, 1, vec![4.0]).unwrap();
            })
        };
        let w = c.pull(0, 1).unwrap();
        assert_eq!(w, vec![3.0]);
        filler.join().unwrap();
        drop(c);
    }

    #[test]
    fn lease_expiry_evicts_and_a_message_readmits() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2).with_fault_tolerance(
            FtConfig {
                lease: Duration::from_millis(60),
                reap_interval: Duration::from_millis(15),
                pull_wait: Duration::from_millis(30),
                checkpoint: None,
            },
        );
        let shards = server.shards().to_vec();
        let (reactor, server) = serve_tcp(server);
        let mut c = connect(&reactor, 0);
        // Pipe 0 stays chatty; pipe 1 never speaks and gets reaped. The
        // lease expires (live_count drops) a beat before the reaper
        // mirrors the eviction into the shard quorum — wait for both.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.live_count() > 1 || shards[0].is_member(1) {
            assert!(Instant::now() < deadline, "pipe 1 was never evicted");
            let _ = c.heartbeat(0).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!shards[0].is_member(1));
        assert!(server.metrics().evictions >= 1);
        // A round completes degraded with just pipe 0...
        c.submit(0, 0, vec![6.0]).unwrap();
        assert_eq!(c.pull(0, 1).unwrap(), vec![6.0]);
        assert_eq!(shards[0].round_record(0).unwrap().quorum, 1);
        // ...and pipe 1 coming back readmits it into the next round.
        let mut back = connect(&reactor, 1);
        let q = back.heartbeat(0).unwrap();
        assert_eq!(q.quorum, 2);
        assert!(shards[0].is_member(1));
        assert!(server.metrics().rejoins >= 1);
        drop(c);
        drop(back);
        reactor.shutdown();
    }

    #[test]
    fn prometheus_dump_reflects_served_traffic() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let (reactor, server) = serve_tcp(server);
        let mut c = connect(&reactor, 0);
        let _ = c.heartbeat(0).unwrap();
        c.submit(0, 0, vec![1.0]).unwrap();
        server.shards()[0].submit(1, vec![1.0]).unwrap();
        assert_eq!(c.pull(0, 1).unwrap(), vec![1.0]);
        drop(c);
        let text = server.render_prometheus();
        assert!(text.contains("ea_server_heartbeats_total 1\n"), "dump:\n{text}");
        assert!(text.contains("# TYPE ea_server_pull_us summary\n"), "dump:\n{text}");
        assert!(text.contains("ea_server_submit_us_count"), "dump:\n{text}");
    }

    #[test]
    fn metrics_message_reads_the_live_snapshot_remotely() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let (reactor, server) = serve_tcp(server);
        let mut c = connect(&reactor, 0);
        let _ = c.heartbeat(0).unwrap();
        let _ = c.heartbeat(1).unwrap();
        let remote = crate::ServerMetricsSnapshot::from_wire(c.metrics().unwrap());
        assert_eq!(remote, server.metrics());
        assert_eq!(remote.heartbeats, 2);
        drop(c);
    }

    #[test]
    fn restart_from_checkpoint_resumes_at_the_recorded_round() {
        let dir = std::env::temp_dir().join("avgpipe_server_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ref.json");
        {
            let server = RefShardServer::from_initial_weights(vec![vec![0.0], vec![0.0]], 1);
            for sh in server.shards() {
                sh.submit(0, vec![5.0]).unwrap();
                sh.submit(0, vec![1.0]).unwrap();
            }
            assert!(server.checkpoint_now(&path).unwrap());
            assert_eq!(server.metrics().checkpoints_saved, 1);
        } // "crash"
        let ckpt = RefCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.round, 2);
        let server = RefShardServer::from_checkpoint(&ckpt, 1);
        assert_eq!(server.metrics().checkpoint_restores, 1);
        for sh in server.shards() {
            assert_eq!(sh.versioned_snapshot(), (2, vec![6.0]));
            // The quorum machinery resumes from the recorded round.
            sh.submit_at(2, 0, vec![1.0]).unwrap();
            assert_eq!(sh.try_weights_at(3), Some(vec![7.0]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_round_checkpoint_is_skipped_not_torn() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0], vec![0.0]], 1);
        // Advance shard 0 only: versions now disagree (1 vs 0).
        server.shards()[0].submit(0, vec![1.0]).unwrap();
        let dir = std::env::temp_dir().join("avgpipe_server_skip_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ref.json");
        assert!(!server.checkpoint_now(&path).unwrap(), "inconsistent state must be skipped");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_trains_against_the_server_like_the_local_trainer() {
        use crate::ElasticTrainer;
        use ea_data::SyntheticTask;
        use ea_models::{gnmt_analogue, AnalogueConfig};
        use ea_optim::OptKind;
        use ea_tensor::TensorRng;

        const CFG: AnalogueConfig =
            AnalogueConfig { vocab: 16, seq: 4, hidden: 16, blocks: 2, stages: 2 };
        let seed = 77;
        let n = 2;
        let task = SyntheticTask::copy_translate(16, 4, 45);
        let make_stages = || gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed)).into_stages();
        let make_opts = || -> Vec<Box<dyn Optimizer>> {
            (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect()
        };

        // Local baseline.
        let eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut local = ElasticTrainer::new(
            (0..n).map(|_| make_stages()).collect(),
            (0..n).map(|_| make_opts()).collect(),
            2,
            None,
            eval,
        );

        // Server + two workers over loopback.
        let init: Vec<Vec<f32>> = make_stages().iter().map(|s| s.params_flat()).collect();
        let server = RefShardServer::from_initial_weights(init, n);
        let shards = server.shards().to_vec();
        let (reactor, _server) = serve_tcp(server);
        let rounds = 3u64;
        let workers: Vec<_> = (0..n)
            .map(|p| {
                let client = connect(&reactor, p);
                let channel: Arc<dyn ShardChannel> =
                    Arc::new(RemoteShards::new(vec![client]).unwrap());
                let stages = make_stages();
                let opts = make_opts();
                let task = SyntheticTask::copy_translate(16, 4, 45);
                std::thread::spawn(move || {
                    let mut worker =
                        ElasticWorker::new(stages, opts, 2, 1.0 / n as f32, p, channel);
                    let mut losses = Vec::new();
                    for r in 0..rounds {
                        let batch = task.batch(4, r * n as u64 + p as u64);
                        losses.push(worker.round(&batch).unwrap());
                    }
                    losses
                })
            })
            .collect();
        let worker_losses: Vec<Vec<f32>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        let mut local_losses = Vec::new();
        for r in 0..rounds {
            let batches: Vec<_> = (0..n as u64).map(|i| task.batch(4, r * n as u64 + i)).collect();
            local_losses.push(local.round(&batches));
        }
        for r in 0..rounds as usize {
            let mean = worker_losses.iter().map(|l| l[r]).sum::<f32>() / n as f32;
            assert_eq!(mean, local_losses[r], "round {r} loss differs");
        }
        for (s, shard) in shards.iter().enumerate() {
            let remote = shard.try_weights_at(rounds).unwrap();
            assert_eq!(remote, local.reference(s), "stage {s} reference differs");
        }
    }
}
