//! The simulated actors: shard servers and elastic workers.
//!
//! The server actor is a thin message pump around the **production**
//! [`ServerCore`] — the same type the epoll reactor dispatches to. Lease
//! accounting, idempotent submits, quorum application, parked pulls and
//! their deadlines, and checkpoint capture all run the real code on
//! virtual time: the actor calls the core's reactor callbacks
//! (`on_message`, `poll`, `on_disconnect`) with [`ConnId::from_raw`] ids
//! and sends whatever the core staged in its [`Outbox`] through the
//! simulated network. The worker actor mirrors `ElasticWorker` +
//! `SupervisedWorker` as an explicit state machine (connect → resync →
//! pull → submit → …) driving the real wire messages and the real
//! [`ErrorFeedback`], with synthetic deterministic deltas in place of
//! actual training.
//!
//! Crash/restart is modeled at process granularity: a crash drops all
//! in-memory state (the simulated "disk" keeps the last checkpoint), and
//! connection generations make sure messages from a previous life are
//! never mistaken for current traffic — exactly the job TCP connection
//! teardown does in the real deployment.

use crate::faults::RestartMode;
use crate::oracle::weights_hash;
use crate::sched::hash_f32;
use crate::sim::{SimConfig, SimCtx};
use crate::{Addr, Event, STimer, WTimer};
use ea_comms::reactor::{ConnId, DisconnectReason, Drained, Outbox, ReactorHandler};
use ea_comms::Message;
use ea_comms::ReactorConfig;
use ea_optim::Codec;
use ea_runtime::{ErrorFeedback, FtConfig, ParkedPull, RefCheckpoint, RefShard, ServerCore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic initial weights for global shard `s`.
pub fn initial_weights(cfg: &SimConfig, s: usize) -> Vec<f32> {
    (0..cfg.shard_len).map(|i| hash_f32(&[0xBEEF, s as u64, i as u64])).collect()
}

/// Deterministic synthetic local update for (pipe, round, shard).
fn synthetic_delta(cfg: &SimConfig, pipe: usize, round: u64, shard: usize) -> Vec<f32> {
    (0..cfg.shard_len)
        .map(|i| hash_f32(&[pipe as u64 + 1, round, shard as u64, i as u64]))
        .collect()
}

/// How long a simulated server keeps a pull parked: the production
/// fault-tolerant default.
fn pull_wait() -> Duration {
    FtConfig::default().pull_wait
}

/// The simulated reactor's poll cadence in virtual nanoseconds: the
/// production default.
fn poll_ns() -> u64 {
    ReactorConfig::default().handler_poll.as_nanos() as u64
}

/// The simulated connection id of `worker`'s generation-`gen` socket.
fn conn_id(worker: usize, gen: u64) -> ConnId {
    ConnId::from_raw(((worker as u64) << 40) | gen)
}

// ---------------------------------------------------------------------
// Server actor
// ---------------------------------------------------------------------

pub struct ServerActor {
    id: usize,
    /// Incarnation: bumped on crash *and* on restart, so stale timer
    /// chains from a previous life never fire into the new one.
    inc: u64,
    /// `None` while crashed.
    core: Option<ServerCore>,
    /// Open connections: core-facing id → (worker, generation).
    conns: BTreeMap<ConnId, (usize, u64)>,
    /// Highest generation seen per worker; lower generations are closed
    /// sockets and their traffic is dropped.
    latest_gen: BTreeMap<usize, u64>,
    /// The simulated disk: survives crashes. Tagged with the incarnation
    /// that captured it so the restore oracle can compare histories.
    disk: Option<(u64, RefCheckpoint)>,
}

impl ServerActor {
    pub fn new(id: usize) -> Self {
        ServerActor {
            id,
            inc: 0,
            core: None,
            conns: BTreeMap::new(),
            latest_gen: BTreeMap::new(),
            disk: None,
        }
    }

    pub fn core(&self) -> Option<&ServerCore> {
        self.core.as_ref()
    }

    pub fn incarnation(&self) -> u64 {
        self.inc
    }

    fn fresh_core(&self, cfg: &SimConfig) -> ServerCore {
        let base = self.id * cfg.shards_per_server;
        let shards = (0..cfg.shards_per_server)
            .map(|j| Arc::new(RefShard::new(initial_weights(cfg, base + j), cfg.n_workers)))
            .collect();
        ServerCore::new(
            shards,
            cfg.n_workers,
            (base, cfg.n_shards()),
            Duration::from_nanos(cfg.lease_ns),
            Some(pull_wait()),
        )
    }

    /// Boots the server at sim start.
    pub fn start(&mut self, ctx: &mut SimCtx) {
        self.inc += 1;
        let core = self.fresh_core(ctx.cfg);
        ctx.oracle.server_started(ctx.now, self.id, self.inc, &core);
        self.core = Some(core);
        self.schedule_timers(ctx);
        ctx.logf(format!("server {} up (inc {})", self.id, self.inc));
    }

    fn schedule_timers(&self, ctx: &mut SimCtx) {
        let (id, inc) = (self.id, self.inc);
        ctx.at(ctx.cfg.reap_ns, Event::ServerTimer { server: id, inc, kind: STimer::Reap });
        ctx.at(poll_ns(), Event::ServerTimer { server: id, inc, kind: STimer::Poll });
        ctx.at(
            ctx.cfg.checkpoint_ns,
            Event::ServerTimer { server: id, inc, kind: STimer::Checkpoint },
        );
    }

    pub fn crash(&mut self, ctx: &mut SimCtx) {
        if self.core.is_none() {
            return;
        }
        self.core = None;
        self.inc += 1; // kill timer chains
        let conns: Vec<(usize, u64)> = self.conns.values().copied().collect();
        self.conns.clear();
        for (w, gen) in conns {
            ctx.conn_closed(Addr::Worker(w), Addr::Server(self.id), gen);
        }
        ctx.logf(format!("server {} CRASH", self.id));
    }

    pub fn restart(&mut self, ctx: &mut SimCtx, mode: RestartMode) {
        if self.core.is_some() {
            return;
        }
        self.inc += 1;
        let core = match (mode, &self.disk) {
            (RestartMode::FromCheckpoint, Some((from_inc, ck))) => {
                let core = ServerCore::from_checkpoint(
                    ck,
                    ctx.cfg.n_workers,
                    Duration::from_nanos(ctx.cfg.lease_ns),
                    Some(pull_wait()),
                );
                ctx.oracle.check_restore(ctx.now, self.id, *from_inc, ck);
                ctx.logf(format!(
                    "server {} RESTART from checkpoint round {} (inc {})",
                    self.id, ck.round, self.inc
                ));
                core
            }
            _ => {
                ctx.logf(format!("server {} RESTART fresh (inc {})", self.id, self.inc));
                self.fresh_core(ctx.cfg)
            }
        };
        ctx.oracle.server_started(ctx.now, self.id, self.inc, &core);
        self.core = Some(core);
        self.schedule_timers(ctx);
    }

    pub fn on_timer(&mut self, ctx: &mut SimCtx, inc: u64, kind: STimer) {
        if inc != self.inc {
            return;
        }
        let Some(core) = self.core.as_ref() else { return };
        let mut out = Outbox::default();
        match kind {
            STimer::Reap => {
                // The reaper thread's pass, then the reactor poll that
                // answers pulls the degraded rounds satisfied.
                let before = core.parked_pulls();
                let evicted = core.reap();
                if !evicted.is_empty() {
                    ctx.oracle.note_evictions(self.id, self.inc, &evicted);
                    ctx.logf(format!("server {} evicted pipes {evicted:?}", self.id));
                }
                core.poll(&mut out);
                self.flush(ctx, &before, out.drain());
                ctx.at(ctx.cfg.reap_ns, Event::ServerTimer { server: self.id, inc, kind });
            }
            STimer::Poll => {
                let before = core.parked_pulls();
                core.poll(&mut out);
                self.flush(ctx, &before, out.drain());
                ctx.at(poll_ns(), Event::ServerTimer { server: self.id, inc, kind });
            }
            STimer::Checkpoint => {
                if let Some(ck) = core.capture_checkpoint() {
                    ctx.oracle.check_capture(ctx.now, self.id, self.inc, &ck);
                    ctx.logf(format!("server {} checkpoint at round {}", self.id, ck.round));
                    self.disk = Some((self.inc, ck));
                }
                ctx.at(ctx.cfg.checkpoint_ns, Event::ServerTimer { server: self.id, inc, kind });
            }
        }
    }

    /// The socket to `worker` (generation `gen`) is gone: the core forgets
    /// the connection and its parked pulls, as on a reactor disconnect.
    fn disconnect(&mut self, worker: usize, gen: u64) -> bool {
        let conn = conn_id(worker, gen);
        if self.conns.remove(&conn).is_none() {
            return false;
        }
        if let Some(core) = self.core.as_ref() {
            core.on_disconnect(conn, &DisconnectReason::PeerClosed);
        }
        true
    }

    pub fn on_conn_closed(&mut self, ctx: &mut SimCtx, worker: usize, gen: u64) {
        if self.disconnect(worker, gen) {
            ctx.logf(format!("server {} closed conn to worker {worker} (gen {gen})", self.id));
        }
    }

    pub fn on_deliver(&mut self, ctx: &mut SimCtx, worker: usize, gen: u64, msg: Message) {
        if self.core.is_none() {
            // Connection refused: the host is down, the OS answers with a
            // reset.
            ctx.conn_closed(Addr::Worker(worker), Addr::Server(self.id), gen);
            return;
        }
        let newest = self.latest_gen.get(&worker).copied().unwrap_or(0);
        if gen < newest {
            return; // closed socket, silently gone
        }
        if gen > newest {
            // The worker reconnected: its older sockets are gone.
            self.latest_gen.insert(worker, gen);
            let stale: Vec<(usize, u64)> =
                self.conns.values().copied().filter(|&(w, g)| w == worker && g < gen).collect();
            for (w, g) in stale {
                self.disconnect(w, g);
            }
        }
        let conn = conn_id(worker, gen);
        self.conns.insert(conn, (worker, gen));

        // Decode a submission's payload the same way the server will, so
        // the oracle knows bitwise what the shard is being fed.
        let submitted: Option<(u32, u64, u32, Vec<f32>)> = match &msg {
            Message::SubmitDelta { shard, round, pipe, delta } => {
                Some((*shard, *round, *pipe, delta.clone()))
            }
            Message::SubmitDeltaC { shard, round, pipe, codec, n, blob } => {
                codec.decode(*n as usize, blob).ok().map(|delta| (*shard, *round, *pipe, delta))
            }
            _ => None,
        };

        let core = self.core.as_ref().expect("checked above");
        let before = core.parked_pulls();
        let mut out = Outbox::default();
        core.on_message(conn, msg, &mut out);
        let staged = out.drain();
        let accepted = staged
            .0
            .iter()
            .any(|(to, m)| *to == conn && matches!(m, Message::Ack { duplicate: false, .. }));
        if let (true, Some((s, r, p, delta))) = (accepted, submitted) {
            let base = self.id * ctx.cfg.shards_per_server;
            ctx.oracle.note_accepted_delta(
                ctx.now,
                self.id,
                self.inc,
                s as usize - base,
                r,
                p as usize,
                delta,
            );
        }
        self.flush(ctx, &before, staged);
    }

    /// Audits the core after a callback and delivers what it staged:
    /// replies go out on their connections; a close drops the connection
    /// (a protocol violation — the shard state is untouched) and tells
    /// the worker, as the reactor's socket teardown would.
    fn flush(&mut self, ctx: &mut SimCtx, before: &[ParkedPull], (sends, closes): Drained) {
        let (id, inc) = (self.id, self.inc);
        let core = self.core.as_ref().expect("flush on a live server");
        let base = id * ctx.cfg.shards_per_server;
        ctx.oracle.check_server(ctx.now, id, inc, core, ctx.cfg.n_workers);
        for (_, m) in &sends {
            if let Message::PullReply { shard, version, weights }
            | Message::WeightsUpdate { shard, version, weights } = m
            {
                ctx.oracle.check_weights_reply(
                    ctx.now,
                    id,
                    inc,
                    *shard as usize - base,
                    *version,
                    weights,
                );
            }
        }
        ctx.oracle.check_parked(ctx.now, id, base, core, before, &sends, poll_ns());
        for (to, m) in sends {
            if let Some(&(w, g)) = self.conns.get(&to) {
                ctx.send(Addr::Server(id), Addr::Worker(w), g, m);
            }
        }
        for (to, why) in closes {
            if let Some((w, g)) = self.conns.remove(&to) {
                core.on_disconnect(to, &DisconnectReason::HandlerClosed(why.clone()));
                ctx.logf(format!("server {id} dropped conn to worker {w} (gen {g}): {why}"));
                ctx.conn_closed(Addr::Worker(w), Addr::Server(id), g);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker actor
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting out the reconnect backoff.
    Backoff,
    /// `Hello` sent to every server, collecting `HelloAck`s.
    Connect,
    /// Latest-snapshot pulls in flight (`version == u64::MAX`).
    Resync,
    /// Pulling every shard at exactly `round`.
    Pull,
    /// Submissions in flight, collecting `Ack`s.
    Submit,
}

pub struct WorkerActor {
    pipe: usize,
    codec: Codec,
    inc: u64,
    /// Connection generation, shared across this worker's connections to
    /// every server (the supervisor reconnects them as a set).
    gen: u64,
    alive: bool,
    done: bool,
    phase: Phase,
    round: u64,
    feedback: ErrorFeedback,
    hello_ok: Vec<bool>,
    resync_version: Vec<Option<u64>>,
    pulled: Vec<bool>,
    submits: Vec<Option<Message>>,
    acked: Vec<bool>,
}

impl WorkerActor {
    pub fn new(cfg: &SimConfig, pipe: usize) -> Self {
        let n_shards = cfg.n_shards();
        WorkerActor {
            pipe,
            codec: cfg.codec_of(pipe),
            inc: 0,
            gen: 0,
            alive: false,
            done: false,
            phase: Phase::Backoff,
            round: 0,
            feedback: ErrorFeedback::new(cfg.codec_of(pipe), n_shards),
            hello_ok: vec![false; cfg.n_servers],
            resync_version: vec![None; n_shards],
            pulled: vec![false; n_shards],
            submits: vec![None; n_shards],
            acked: vec![false; n_shards],
        }
    }

    pub fn done(&self) -> bool {
        self.done
    }

    pub fn rounds(&self) -> u64 {
        self.round
    }

    pub fn start(&mut self, ctx: &mut SimCtx) {
        self.inc += 1;
        self.alive = true;
        self.schedule_timers(ctx);
        self.begin_connect(ctx);
    }

    pub fn crash(&mut self, ctx: &mut SimCtx) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.inc += 1; // kill timer chains
                       // The OS tears the sockets down behind the dead process.
        for k in 0..self.hello_ok.len() {
            ctx.conn_closed(Addr::Server(k), Addr::Worker(self.pipe), self.gen);
        }
        ctx.logf(format!("worker {} CRASH at round {}", self.pipe, self.round));
    }

    pub fn restart(&mut self, ctx: &mut SimCtx) {
        if self.alive {
            return;
        }
        self.inc += 1;
        self.alive = true;
        self.done = false;
        self.round = 0;
        self.feedback = ErrorFeedback::new(self.codec, self.resync_version.len());
        ctx.logf(format!("worker {} RESTART (inc {})", self.pipe, self.inc));
        self.schedule_timers(ctx);
        self.begin_connect(ctx);
    }

    fn schedule_timers(&self, ctx: &mut SimCtx) {
        let (w, inc) = (self.pipe, self.inc);
        ctx.at(
            ctx.cfg.retransmit_ns,
            Event::WorkerTimer { worker: w, inc, kind: WTimer::Retransmit },
        );
        ctx.at(
            ctx.cfg.heartbeat_ns,
            Event::WorkerTimer { worker: w, inc, kind: WTimer::Heartbeat },
        );
    }

    fn begin_connect(&mut self, ctx: &mut SimCtx) {
        self.gen += 1;
        self.phase = Phase::Connect;
        self.hello_ok.fill(false);
        for k in 0..self.hello_ok.len() {
            self.send_hello(ctx, k);
        }
    }

    fn send_hello(&self, ctx: &mut SimCtx, server: usize) {
        let msg = Message::Hello {
            proto: ea_comms::PROTO_VERSION as u16,
            pipe: self.pipe as u32,
            codec: self.codec,
        };
        ctx.send(Addr::Worker(self.pipe), Addr::Server(server), self.gen, msg);
    }

    /// Any connection-level surprise: bump the generation, back off,
    /// reconnect everything — the supervisor's recovery path.
    fn reconnect_with_backoff(&mut self, ctx: &mut SimCtx, why: &str) {
        ctx.logf(format!("worker {} reconnecting: {why}", self.pipe));
        self.gen += 1; // retire the old connections immediately
        self.phase = Phase::Backoff;
        ctx.at(
            ctx.cfg.reconnect_backoff_ns,
            Event::WorkerTimer { worker: self.pipe, inc: self.inc, kind: WTimer::Reconnect },
        );
    }

    fn enter_resync(&mut self, ctx: &mut SimCtx) {
        self.phase = Phase::Resync;
        self.resync_version.fill(None);
        for s in 0..self.resync_version.len() {
            self.send_pull(ctx, s, u64::MAX);
        }
    }

    fn finish_resync(&mut self, ctx: &mut SimCtx) {
        let newest = self.resync_version.iter().map(|v| v.unwrap_or(0)).max().unwrap_or(0);
        self.round = newest;
        self.feedback.reset();
        if ctx.cfg.heartbeats_enabled {
            self.send_heartbeats(ctx);
        }
        ctx.logf(format!("worker {} resynced to round {newest}", self.pipe));
        self.enter_pull_or_finish(ctx);
    }

    fn enter_pull_or_finish(&mut self, ctx: &mut SimCtx) {
        if self.round >= ctx.cfg.target_rounds {
            self.done = true;
            ctx.logf(format!("worker {} DONE ({} rounds)", self.pipe, self.round));
            return;
        }
        self.phase = Phase::Pull;
        self.pulled.fill(false);
        for s in 0..self.pulled.len() {
            self.send_pull(ctx, s, self.round);
        }
    }

    fn send_pull(&self, ctx: &mut SimCtx, shard: usize, version: u64) {
        let owner = ctx.cfg.owner(shard);
        let msg = Message::PullRequest { shard: shard as u32, version };
        ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
    }

    fn send_heartbeats(&self, ctx: &mut SimCtx) {
        for k in 0..self.hello_ok.len() {
            let msg = Message::Heartbeat {
                pipe: self.pipe as u32,
                round: self.round,
                t_tx_us: ctx.now / 1_000,
            };
            ctx.send(Addr::Worker(self.pipe), Addr::Server(k), self.gen, msg);
        }
    }

    fn enter_submit(&mut self, ctx: &mut SimCtx) {
        self.phase = Phase::Submit;
        self.acked.fill(false);
        for s in 0..self.submits.len() {
            let raw = synthetic_delta(ctx.cfg, self.pipe, self.round, s);
            let rounded = self.feedback.apply(s, raw);
            if self.codec != Codec::F32 {
                ctx.oracle.check_feedback(
                    ctx.now,
                    self.pipe,
                    self.codec,
                    &rounded,
                    self.feedback.residual_l1(),
                );
            }
            let msg = if self.codec == Codec::F32 {
                Message::SubmitDelta {
                    shard: s as u32,
                    round: self.round,
                    pipe: self.pipe as u32,
                    delta: rounded,
                }
            } else {
                let mut blob = Vec::new();
                self.codec.encode(&rounded, &mut blob);
                Message::SubmitDeltaC {
                    shard: s as u32,
                    round: self.round,
                    pipe: self.pipe as u32,
                    codec: self.codec,
                    n: rounded.len() as u32,
                    blob,
                }
            };
            self.submits[s] = Some(msg.clone());
            let owner = ctx.cfg.owner(s);
            ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
        }
    }

    pub fn on_timer(&mut self, ctx: &mut SimCtx, inc: u64, kind: WTimer) {
        if inc != self.inc || !self.alive {
            return;
        }
        match kind {
            WTimer::Reconnect => {
                if self.phase == Phase::Backoff {
                    self.begin_connect(ctx);
                }
            }
            WTimer::Retransmit => {
                if !self.done {
                    self.retransmit(ctx);
                    ctx.at(
                        ctx.cfg.retransmit_ns,
                        Event::WorkerTimer { worker: self.pipe, inc, kind },
                    );
                }
            }
            WTimer::Heartbeat => {
                if !self.done {
                    if ctx.cfg.heartbeats_enabled && self.phase != Phase::Backoff {
                        self.send_heartbeats(ctx);
                    }
                    ctx.at(
                        ctx.cfg.heartbeat_ns,
                        Event::WorkerTimer { worker: self.pipe, inc, kind },
                    );
                }
            }
        }
    }

    fn retransmit(&mut self, ctx: &mut SimCtx) {
        match self.phase {
            Phase::Backoff => {}
            Phase::Connect => {
                for k in 0..self.hello_ok.len() {
                    if !self.hello_ok[k] {
                        self.send_hello(ctx, k);
                    }
                }
            }
            Phase::Resync => {
                for s in 0..self.resync_version.len() {
                    if self.resync_version[s].is_none() {
                        self.send_pull(ctx, s, u64::MAX);
                    }
                }
            }
            Phase::Pull => {
                for s in 0..self.pulled.len() {
                    if !self.pulled[s] {
                        self.send_pull(ctx, s, self.round);
                    }
                }
            }
            Phase::Submit => {
                for s in 0..self.acked.len() {
                    if !self.acked[s] {
                        if let Some(msg) = self.submits[s].clone() {
                            let owner = ctx.cfg.owner(s);
                            ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
                        }
                    }
                }
            }
        }
    }

    pub fn on_conn_closed(&mut self, ctx: &mut SimCtx, gen: u64) {
        if self.alive && gen == self.gen && self.phase != Phase::Backoff {
            self.reconnect_with_backoff(ctx, "connection closed by server");
        }
    }

    pub fn on_deliver(&mut self, ctx: &mut SimCtx, from_server: usize, gen: u64, msg: Message) {
        if !self.alive || gen != self.gen {
            return;
        }
        match msg {
            Message::HelloAck { shard_base, shard_count, .. } if self.phase == Phase::Connect => {
                debug_assert_eq!(shard_base as usize, from_server * ctx.cfg.shards_per_server);
                debug_assert_eq!(shard_count as usize, ctx.cfg.shards_per_server);
                self.hello_ok[from_server] = true;
                if self.hello_ok.iter().all(|&ok| ok) {
                    self.enter_resync(ctx);
                }
            }
            Message::PullReply { shard, version, weights } => {
                self.on_pull_reply(ctx, shard as usize, version, weights);
            }
            Message::PullReplyC { shard, version, codec, n, blob } => {
                match codec.decode(n as usize, &blob) {
                    Ok(weights) => self.on_pull_reply(ctx, shard as usize, version, weights),
                    Err(e) => ctx.oracle.fail_liveness(
                        ctx.now,
                        format!("worker {} got undecodable PullReplyC: {e}", self.pipe),
                    ),
                }
            }
            Message::Ack { shard, round, duplicate, .. }
                if self.phase == Phase::Submit && round == self.round =>
            {
                let s = shard as usize;
                if duplicate && !self.acked[s] {
                    // First ack for this leg arriving as a duplicate means
                    // a previous transmission of ours was recorded; either
                    // way the submission landed.
                    ctx.logf(format!(
                        "worker {} round {round} shard {s} acked via retransmission",
                        self.pipe
                    ));
                }
                self.acked[s] = true;
                if self.acked.iter().all(|&a| a) {
                    self.round += 1;
                    self.submits.fill(None);
                    self.enter_pull_or_finish(ctx);
                }
            }
            Message::HeartbeatAck { .. } => {}
            _ => {}
        }
    }

    fn on_pull_reply(&mut self, ctx: &mut SimCtx, shard: usize, version: u64, weights: Vec<f32>) {
        // The weights fingerprint keeps the reply observable in the log
        // without dumping vectors.
        let _ = weights_hash(&weights);
        match self.phase {
            Phase::Resync if self.resync_version[shard].is_none() => {
                self.resync_version[shard] = Some(version);
                if self.resync_version.iter().all(|v| v.is_some()) {
                    self.finish_resync(ctx);
                }
            }
            Phase::Pull => {
                if version == self.round {
                    self.pulled[shard] = true;
                    if self.pulled.iter().all(|&p| p) {
                        self.enter_submit(ctx);
                    }
                } else if version > self.round {
                    // The quorum moved on without us (eviction during a
                    // partition, or a healed server ahead of our round):
                    // same recovery as the real worker — resync.
                    self.reconnect_with_backoff(
                        ctx,
                        &format!("shard {shard} at version {version}, we expected {}", self.round),
                    );
                }
                // version < round: stale retransmitted reply, ignore.
            }
            _ => {}
        }
    }
}
