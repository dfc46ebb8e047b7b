//! `ea-comms`: the pluggable transport layer for multi-process elastic
//! averaging.
//!
//! The paper's Figure 6 runs each parallel pipeline and the reference
//! model in *separate processes*, shipping local updates asynchronously.
//! This crate supplies the missing communication substrate:
//!
//! * [`Transport`] — one ordered, message-framed, bidirectional
//!   connection per pipeline, behind a trait so backends are
//!   configuration, not architecture.
//! * [`loopback`] — in-process channels, zero serialization: messages move
//!   buffers by ownership, preserving the `ea_tensor::pool` zero-copy
//!   discipline end to end.
//! * [`tcp`] — length-prefixed binary frames (versioned header, CRC32
//!   payload check) over `std::net`, with connect/read timeouts, bounded
//!   exponential-backoff connect retry, and per-connection
//!   send/recv/retry/byte counters.
//! * [`wire`] — the elastic-averaging protocol: `Hello`/`HelloAck`
//!   version handshake, `PullRequest`/`PullReply` (Step ❷),
//!   `SubmitDelta`/`Ack` (Steps ❸–❹) with `(shard, round, pipe)`
//!   idempotency keys.
//! * [`fault`] — a seeded drop/delay/duplicate wrapper, applied to both
//!   directions of a client connection, proving the retry + idempotency
//!   design keeps training byte-identical under loss.
//! * [`reactor`] — the nonblocking server loop: an epoll event loop
//!   multiplexing every accepted connection across a small set of
//!   threads, with incremental zero-copy frame assembly into pooled
//!   buffers, write-side backpressure with slow-consumer eviction, and
//!   idle-timeout reaping. The client side is untouched — the reactor
//!   speaks the same `frame` + `wire` protocol.
//! * [`client`] — [`ShardClient`] (request/reply with bounded retry) and
//!   the [`ShardChannel`] abstraction the trainer runs against;
//!   `ea-runtime` provides the in-process implementation
//!   (`LocalShards`) and the `RefShardServer` that serves these messages.

pub(crate) mod bytepool;
pub mod client;
pub mod clock;
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) mod conn;
pub mod fault;
pub mod frame;
pub mod loopback;
pub mod reactor;
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) mod sys;
pub mod tcp;
pub(crate) mod trace;
pub mod transport;
pub mod wire;

pub use client::{
    validate_shard_map, PerServer, QuorumInfo, RemoteShards, RetryConfig, ServerInfo, ShardChannel,
    ShardClient,
};
pub use clock::{Clock, ClockGuard, OffsetEstimator, Waiter};
pub use ea_optim::Codec;
pub use fault::{FaultConfig, FaultStats, FaultyTransport};
pub use frame::{crc32, FrameError, PROTO_VERSION};
pub use loopback::{loopback_pair, LoopbackTransport};
pub use reactor::{
    ConnId, DisconnectReason, Outbox, Reactor, ReactorConfig, ReactorHandler, ReactorWaker,
};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{CommsError, Transport, TransportStats};
pub use wire::Message;

/// Takes an empty pooled byte buffer with capacity ≥ `cap` for building a
/// compressed blob (`SubmitDeltaC`/`PullReplyC`/`WeightsUpdateC`). Hand
/// the filled buffer to a `Message`; the transport recycles it after the
/// frame is serialized.
pub fn take_blob(cap: usize) -> Vec<u8> {
    bytepool::take_empty(cap)
}

/// Returns a received compressed blob to the byte pool after decoding it.
pub fn recycle_blob(buf: Vec<u8>) {
    bytepool::recycle(buf)
}
