//! TCP transport: framed byte stream over `std::net`, with connect/read
//! timeouts, bounded exponential-backoff connect retry, and per-connection
//! traffic counters.
//!
//! Framing is the length-prefixed, CRC-checked format of [`crate::frame`];
//! payload encoding is [`crate::wire`]. `TCP_NODELAY` is set on every
//! connection — the protocol is strictly request/reply per pipeline, so
//! Nagle batching only adds round latency.

use crate::frame::{read_frame, write_frame};
use crate::transport::{CommsError, Transport, TransportStats};
use crate::wire::Message;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection-establishment and stream-timeout policy.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Maximum connect attempts (≥ 1) before giving up.
    pub connect_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
    /// Once a frame has started arriving, the rest of it must arrive
    /// within this window or the stream is treated as broken (a frame
    /// boundary cannot be recovered after a mid-frame timeout).
    pub frame_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            connect_attempts: 8,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            frame_timeout: Duration::from_secs(30),
        }
    }
}

/// One framed TCP connection.
pub struct TcpTransport {
    stream: TcpStream,
    cfg: TcpConfig,
    stats: TransportStats,
    scratch: Vec<u8>,
    payload_scratch: Vec<u8>,
}

impl TcpTransport {
    /// Connects to `addr`, retrying with bounded exponential backoff.
    pub fn connect(addr: impl ToSocketAddrs, cfg: TcpConfig) -> Result<Self, CommsError> {
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| CommsError::ConnectFailed {
                addr: "<unresolvable>".into(),
                attempts: 0,
                last: e.to_string(),
            })?
            .collect();
        let shown = addrs.first().map(|a| a.to_string()).unwrap_or_else(|| "<empty>".into());
        let attempts = cfg.connect_attempts.max(1);
        let mut backoff = cfg.backoff_base;
        let mut last = String::from("no address resolved");
        for attempt in 0..attempts {
            if attempt > 0 {
                crate::clock::sleep(backoff);
                backoff = (backoff * 2).min(cfg.backoff_max);
            }
            for a in &addrs {
                match TcpStream::connect_timeout(a, cfg.connect_timeout) {
                    Ok(stream) => return Self::from_stream(stream, cfg).map_err(CommsError::from),
                    Err(e) => last = e.to_string(),
                }
            }
        }
        Err(CommsError::ConnectFailed { addr: shown, attempts, last })
    }

    /// Wraps an accepted stream.
    pub fn from_stream(stream: TcpStream, cfg: TcpConfig) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            cfg,
            stats: TransportStats::default(),
            scratch: Vec::new(),
            payload_scratch: Vec::new(),
        })
    }

    fn read_one(&mut self, first_byte_timeout: Option<Duration>) -> Result<Message, CommsError> {
        // Phase 1: wait (bounded or not) for the frame to start. Phase 2:
        // once bytes flow, the whole frame must land within frame_timeout —
        // a mid-frame stall leaves no recoverable boundary.
        self.stream.set_read_timeout(first_byte_timeout)?;
        let mut one = [0u8; 1];
        let n = loop {
            match std::io::Read::read(&mut self.stream, &mut one) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        };
        if n == 0 {
            return Err(CommsError::Closed);
        }
        self.stream.set_read_timeout(Some(self.cfg.frame_timeout))?;
        let mut prefixed = PrefixedRead { first: Some(one[0]), inner: &mut self.stream };
        let frame = read_frame(&mut prefixed)?;
        let (msg_type, payload) = frame.ok_or(CommsError::Closed)?;
        let msg = Message::decode_payload(msg_type, &payload)?;
        self.stats.recvs += 1;
        let bytes = (crate::frame::HEADER_LEN + payload.len() + 4) as u64;
        self.stats.bytes_recvd += bytes;
        crate::trace::counters().on_recv_msg(msg_type, bytes, msg.logical_weight_bytes() as u64);
        Ok(msg)
    }
}

/// `Read` adapter replaying one already-consumed byte ahead of the stream.
struct PrefixedRead<'a, R> {
    first: Option<u8>,
    inner: &'a mut R,
}

impl<R: std::io::Read> std::io::Read for PrefixedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(b) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: Message) -> Result<(), CommsError> {
        msg.encode_payload(&mut self.payload_scratch);
        let ty = msg.wire_type();
        let logical = msg.logical_weight_bytes() as u64;
        // Large payload buffers (pull replies, deltas) are done with once
        // serialized; recycle them for the next decode.
        match msg {
            Message::PullReply { weights, .. } | Message::WeightsUpdate { weights, .. } => {
                ea_tensor::pool::recycle(weights)
            }
            Message::SubmitDelta { delta, .. } => ea_tensor::pool::recycle(delta),
            _ => {}
        }
        let payload = std::mem::take(&mut self.payload_scratch);
        let written = write_frame(&mut self.stream, ty, &payload, &mut self.scratch)?;
        self.payload_scratch = payload;
        self.stats.sends += 1;
        self.stats.bytes_sent += written as u64;
        crate::trace::counters().on_send_msg(ty, written as u64, logical);
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, CommsError> {
        self.read_one(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, CommsError> {
        // A zero duration would mean "no timeout" to the socket API.
        self.read_one(Some(timeout.max(Duration::from_millis(1))))
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn record_retry(&mut self) {
        self.stats.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The accepted end of a connection to `listener`.
    fn accept(listener: &TcpListener) -> TcpTransport {
        let (stream, _peer) = listener.accept().unwrap();
        TcpTransport::from_stream(stream, TcpConfig::default()).unwrap()
    }

    fn pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client =
            TcpTransport::connect(addr, TcpConfig::default()).expect("connect to local listener");
        (client, accept(&listener))
    }

    #[test]
    fn roundtrip_over_localhost() {
        let (mut client, mut server) = pair();
        let weights = vec![0.5f32; 300];
        client
            .send(Message::SubmitDelta { shard: 2, round: 5, pipe: 1, delta: weights.clone() })
            .unwrap();
        match server.recv().unwrap() {
            Message::SubmitDelta { shard, round, pipe, delta } => {
                assert_eq!((shard, round, pipe), (2, 5, 1));
                assert_eq!(delta, weights);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.send(Message::Ack { shard: 2, round: 5, pipe: 1, duplicate: false }).unwrap();
        assert!(matches!(client.recv().unwrap(), Message::Ack { duplicate: false, .. }));
        let cs = client.stats();
        assert_eq!(cs.sends, 1);
        assert_eq!(cs.recvs, 1);
        assert!(cs.bytes_sent > 300 * 4);
        assert!(cs.bytes_recvd > 0);
    }

    #[test]
    fn recv_timeout_expires_without_traffic() {
        let (mut client, _server) = pair();
        assert!(matches!(client.recv_timeout(Duration::from_millis(20)), Err(CommsError::Timeout)));
    }

    #[test]
    fn peer_close_is_reported_as_closed() {
        let (mut client, server) = pair();
        drop(server);
        assert!(matches!(client.recv(), Err(CommsError::Closed)));
    }

    #[test]
    fn connect_to_dead_port_fails_after_bounded_retries() {
        // Bind-then-drop to obtain a port with no listener.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let cfg = TcpConfig {
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            connect_timeout: Duration::from_millis(200),
            ..TcpConfig::default()
        };
        let start = std::time::Instant::now();
        match TcpTransport::connect(addr, cfg) {
            Err(CommsError::ConnectFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected ConnectFailed, got {:?}", other.err()),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "backoff must stay bounded");
    }

    #[test]
    fn corrupt_stream_surfaces_frame_error_not_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = accept(&listener);
        std::io::Write::write_all(&mut raw, b"garbage bytes, not a frame").unwrap();
        assert!(matches!(conn.recv(), Err(CommsError::Frame(_))));
    }
}
