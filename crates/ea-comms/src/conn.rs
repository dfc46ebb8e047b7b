//! Per-connection state machine for the epoll reactor.
//!
//! Each accepted socket owns a [`Conn`]: an incremental frame decoder on
//! the read side and a bounded queue of fully-encoded frames on the write
//! side. Both directions are nonblocking — the reactor calls
//! [`Conn::read_message`] when the socket is readable and [`Conn::flush`]
//! when it is writable, and neither ever parks a thread.
//!
//! Zero-copy assembly: the fixed 12-byte header lands in an inline array;
//! once validated, one pooled buffer of exactly `payload_len + 4` bytes is
//! taken from [`crate::bytepool`] and `read(2)` writes payload and CRC
//! trailer directly into it. The payload is never memmoved between a
//! socket buffer and the decode buffer — `Message::decode_payload` reads
//! straight out of the pooled allocation, which is then recycled.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::bytepool;
use crate::frame::{self, FrameError, HEADER_LEN};
use crate::reactor::DisconnectReason;
use crate::wire::Message;

/// Which part of the current inbound frame is being assembled.
enum Phase {
    /// Filling the 12-byte fixed header.
    Header,
    /// Filling `body` (payload + 4-byte CRC trailer) for a validated header.
    Body { msg_type: u8 },
}

/// One multiplexed connection: socket, inbound decoder state, outbound
/// frame queue, and liveness bookkeeping used by the reactor's timer wheel.
pub(crate) struct Conn {
    stream: TcpStream,
    phase: Phase,
    header: [u8; HEADER_LEN],
    /// Bytes filled so far in the current phase's target buffer.
    filled: usize,
    /// Pooled buffer for payload + CRC; sized when the header validates.
    body: Vec<u8>,
    /// Fully-encoded frames awaiting the socket, front partially written.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    head_off: usize,
    /// Total unwritten bytes across the queue (backpressure accounting).
    out_bytes: usize,
    /// Slot-reuse guard: readiness events carry the generation they were
    /// registered with, so events for a closed conn's recycled slot drop.
    pub(crate) gen: u32,
    /// Last time a complete inbound message arrived (idle-timeout basis).
    pub(crate) last_activity: Instant,
    /// Whether the reactor currently has `EPOLLOUT` in this connection's
    /// interest set (tracked here to avoid redundant `EPOLL_CTL_MOD`s).
    pub(crate) armed_write: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, gen: u32) -> Conn {
        Conn {
            stream,
            phase: Phase::Header,
            header: [0u8; HEADER_LEN],
            filled: 0,
            body: Vec::new(),
            outq: VecDeque::new(),
            head_off: 0,
            out_bytes: 0,
            gen,
            last_activity: Instant::now(),
            armed_write: false,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Unwritten outbound bytes currently queued.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.out_bytes
    }

    /// Advances the inbound state machine as far as the socket allows.
    ///
    /// Returns `Ok(Some(msg))` for each completed frame, `Ok(None)` once
    /// the socket would block mid-frame, and `Err` when the connection
    /// must be dropped. A clean EOF at a frame boundary is `PeerClosed`;
    /// EOF mid-frame is a protocol violation (`Truncated`), matching the
    /// blocking reader in [`crate::frame::read_frame`].
    pub(crate) fn read_message(&mut self) -> Result<Option<Message>, DisconnectReason> {
        loop {
            match self.phase {
                Phase::Header => {
                    while self.filled < HEADER_LEN {
                        let at_boundary = self.filled == 0;
                        match self.stream.read(&mut self.header[self.filled..]) {
                            Ok(0) => {
                                return Err(if at_boundary {
                                    DisconnectReason::PeerClosed
                                } else {
                                    DisconnectReason::Frame(FrameError::Truncated)
                                });
                            }
                            Ok(n) => self.filled += n,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(None);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(DisconnectReason::Io(e)),
                        }
                    }
                    let (msg_type, len) =
                        frame::parse_header(&self.header).map_err(DisconnectReason::Frame)?;
                    self.body = bytepool::take(len + 4);
                    self.filled = 0;
                    self.phase = Phase::Body { msg_type };
                }
                Phase::Body { msg_type } => {
                    while self.filled < self.body.len() {
                        match self.stream.read(&mut self.body[self.filled..]) {
                            Ok(0) => {
                                return Err(DisconnectReason::Frame(FrameError::Truncated));
                            }
                            Ok(n) => self.filled += n,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(None);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(DisconnectReason::Io(e)),
                        }
                    }
                    let payload = frame::check_body(&self.body).map_err(DisconnectReason::Frame)?;
                    let len = payload.len();
                    let msg = Message::decode_payload(msg_type, payload)
                        .map_err(DisconnectReason::Frame)?;
                    bytepool::recycle(std::mem::take(&mut self.body));
                    self.phase = Phase::Header;
                    self.filled = 0;
                    self.last_activity = Instant::now();
                    crate::trace::counters().on_recv_msg(
                        msg_type,
                        (HEADER_LEN + len + 4) as u64,
                        msg.logical_weight_bytes() as u64,
                    );
                    return Ok(Some(msg));
                }
            }
        }
    }

    /// Encodes `msg` into a pooled frame buffer and queues it; the
    /// message's large buffers go back to their pools.
    pub(crate) fn enqueue(&mut self, msg: Message) {
        let ty = msg.wire_type();
        let logical = msg.logical_weight_bytes() as u64;
        let buf = frame::encode_message(msg);
        crate::trace::counters().on_send_msg(ty, buf.len() as u64, logical);
        self.out_bytes += buf.len();
        self.outq.push_back(buf);
    }

    /// Writes queued frames until done or the socket would block.
    ///
    /// Returns `Ok(true)` when the queue drained completely, `Ok(false)`
    /// when bytes remain (keep `EPOLLOUT` armed).
    pub(crate) fn flush(&mut self) -> Result<bool, DisconnectReason> {
        while let Some(front) = self.outq.front() {
            match self.stream.write(&front[self.head_off..]) {
                Ok(0) => return Err(DisconnectReason::PeerClosed),
                Ok(n) => {
                    self.head_off += n;
                    self.out_bytes -= n;
                    if self.head_off == front.len() {
                        let done = self.outq.pop_front().unwrap();
                        bytepool::recycle(done);
                        self.head_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    return Err(DisconnectReason::PeerClosed);
                }
                Err(e) => return Err(DisconnectReason::Io(e)),
            }
        }
        Ok(true)
    }

    /// Returns every queued buffer to the byte pool (connection teardown).
    pub(crate) fn recycle_queue(&mut self) {
        for buf in self.outq.drain(..) {
            bytepool::recycle(buf);
        }
        self.out_bytes = 0;
        self.head_off = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn assembles_a_frame_split_across_arbitrary_writes() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);

        let msg = Message::Ack { shard: 3, round: 9, pipe: 1, duplicate: false };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        let mut wire = Vec::new();
        frame::encode_frame(msg.wire_type(), &payload, &mut wire);

        // Dribble the frame one byte at a time; the state machine must
        // report WouldBlock (None) until the last byte lands.
        for (i, b) in wire.iter().enumerate() {
            use std::io::Write;
            client.write_all(&[*b]).unwrap();
            client.flush().unwrap();
            // Give the kernel a moment to make the byte readable.
            let deadline = Instant::now() + std::time::Duration::from_secs(2);
            loop {
                match conn.read_message() {
                    Ok(Some(got)) => {
                        assert_eq!(i, wire.len() - 1, "decoded before the frame completed");
                        assert_eq!(got, msg);
                        return;
                    }
                    Ok(None) => {
                        if i == wire.len() - 1 && Instant::now() < deadline {
                            continue; // last byte may not be visible yet
                        }
                        break;
                    }
                    Err(e) => panic!("unexpected disconnect: {e:?}"),
                }
            }
        }
        panic!("frame never decoded");
    }

    #[test]
    fn clean_eof_at_boundary_is_peer_closed_mid_frame_is_truncated() {
        // Boundary close.
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match conn.read_message() {
                Err(DisconnectReason::PeerClosed) => break,
                Ok(None) if Instant::now() < deadline => continue,
                other => panic!("expected PeerClosed, got {other:?}"),
            }
        }

        // Mid-frame close.
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        {
            use std::io::Write;
            client.write_all(&frame::MAGIC).unwrap(); // 4 of 12 header bytes
        }
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match conn.read_message() {
                Err(DisconnectReason::Frame(FrameError::Truncated)) => break,
                Ok(None) if Instant::now() < deadline => continue,
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_flipped_bit_in_blocks_or_tail_is_bad_crc() {
        for bad in frame::tests::frames_with_one_flipped_bit() {
            let (mut client, server) = pair();
            server.set_nonblocking(true).unwrap();
            let mut conn = Conn::new(server, 0);
            // The frame outgrows the socket buffer: write it from another
            // thread while this one drains it.
            let writer = std::thread::spawn(move || {
                use std::io::Write;
                client.write_all(&bad).unwrap();
                client
            });
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            loop {
                match conn.read_message() {
                    Err(DisconnectReason::Frame(FrameError::BadCrc { .. })) => break,
                    Ok(None) if Instant::now() < deadline => continue,
                    other => panic!("expected BadCrc, got {other:?}"),
                }
            }
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn flush_tracks_partial_writes_and_drains() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        for round in 0..3 {
            conn.enqueue(Message::Ack { shard: 0, round, pipe: 0, duplicate: false });
        }
        let queued = conn.queued_bytes();
        assert!(queued > 0);
        assert!(conn.flush().unwrap(), "small frames drain in one flush");
        assert_eq!(conn.queued_bytes(), 0);

        // The peer can reassemble all three frames from the byte stream.
        let mut client = client;
        client.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        for round in 0..3 {
            let (ty, payload) = frame::read_frame(&mut client).unwrap().unwrap();
            let msg = Message::decode_payload(ty, &payload).unwrap();
            assert_eq!(msg, Message::Ack { shard: 0, round, pipe: 0, duplicate: false });
        }
    }
}
