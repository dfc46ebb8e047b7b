//! Portable [`Reactor`] fallback for hosts without the raw epoll
//! bindings in [`crate::sys`] (non-Linux, or architectures beyond
//! x86_64/aarch64).
//!
//! Same public API and semantics as the epoll implementation, built from
//! blocking I/O: one accept thread, one reader thread + one writer thread
//! per connection, and a ticker thread driving [`ReactorHandler::poll`]
//! and idle timeouts. This trades the epoll reactor's scalability for
//! portability — correctness-equivalent, so downstream code and tests
//! never need a `cfg`.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::{
    resolve_threads, ConnId, DisconnectReason, Outbox, ReactorConfig, ReactorHandler, GEN_MASK,
};
use crate::bytepool;
use crate::frame;
use crate::wire::Message;

/// Per-connection writer-channel command.
enum WriteCmd {
    Frame(Message),
    Close,
}

struct ConnEntry {
    tx: mpsc::Sender<WriteCmd>,
    stream: TcpStream,
    last_activity: Arc<Mutex<Instant>>,
    queued_bytes: Arc<AtomicUsize>,
    /// Frames handed to the writer thread but not yet written — the
    /// drain criterion for graceful shutdown (`queued_bytes` only counts
    /// frames the writer has started encoding).
    inflight: Arc<AtomicUsize>,
}

struct Shared {
    handler: Arc<dyn ReactorHandler>,
    idle_timeout: Option<Duration>,
    max_outbound_bytes: usize,
    handler_poll: Duration,
    stop: AtomicBool,
    /// Graceful-shutdown phase: refuse new connections while queued
    /// writes drain.
    draining: AtomicBool,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_slot: AtomicUsize,
    gen: AtomicU32,
    live_conns: AtomicUsize,
    /// The ticker waits on this instead of a plain sleep, so a
    /// [`ReactorWaker`] can force an immediate handler poll. The flag is a
    /// pending wake: one that lands while the ticker is busy polling is
    /// kept for its next wait instead of lost.
    tick: Mutex<bool>,
    tick_cv: Condvar,
}

impl Shared {
    fn wake_ticker(&self) {
        *self.tick.lock().expect("reactor ticker poisoned") = true;
        self.tick_cv.notify_all();
    }

    /// Routes an outbox produced by any handler callback.
    fn route_outbox(self: &Arc<Self>, outbox: &mut Outbox) {
        for (to, msg) in outbox.sends.drain(..) {
            let conns = self.conns.lock().expect("reactor conns poisoned");
            match conns.get(&to.0) {
                Some(entry) => {
                    // Approximate backpressure accounting: frame size is
                    // payload-dominated; enforce the bound at enqueue.
                    let queued = entry.queued_bytes.load(Ordering::Relaxed);
                    if queued > self.max_outbound_bytes {
                        let _ = entry.stream.shutdown(SockShutdown::Both);
                        msg.recycle();
                        continue;
                    }
                    entry.inflight.fetch_add(1, Ordering::SeqCst);
                    if entry.tx.send(WriteCmd::Frame(msg)).is_err() {
                        // Writer gone; reader thread handles teardown.
                        entry.inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                None => msg.recycle(),
            }
        }
        for (to, _why) in outbox.closes.drain(..) {
            let conns = self.conns.lock().expect("reactor conns poisoned");
            if let Some(entry) = conns.get(&to.0) {
                let _ = entry.tx.send(WriteCmd::Close);
                let _ = entry.stream.shutdown(SockShutdown::Read);
            }
        }
    }
}

/// Thread-per-connection fallback server. See [`super`] for semantics.
pub struct Reactor {
    shared: Arc<Shared>,
    accept_join: Option<JoinHandle<()>>,
    ticker_join: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Reactor {
    /// Takes ownership of `listener` and serves it until [`shutdown`]
    /// (or drop).
    ///
    /// [`shutdown`]: Reactor::shutdown
    pub fn spawn(
        listener: TcpListener,
        handler: Arc<dyn ReactorHandler>,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor> {
        // Thread count is meaningless here (every connection gets its own
        // threads) but is resolved anyway so EA_COMMS_THREADS misuse is
        // caught identically on all platforms.
        let _ = resolve_threads(cfg.threads);
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            idle_timeout: cfg.idle_timeout,
            max_outbound_bytes: cfg.max_outbound_bytes,
            handler_poll: cfg.handler_poll,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_slot: AtomicUsize::new(0),
            gen: AtomicU32::new(0),
            live_conns: AtomicUsize::new(0),
            tick: Mutex::new(false),
            tick_cv: Condvar::new(),
        });

        // Bounded accept timeout so the loop notices `stop`.
        listener.set_nonblocking(true)?;
        let accept_shared = Arc::clone(&shared);
        let accept_join = std::thread::Builder::new()
            .name("ea-reactor-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        let ticker_shared = Arc::clone(&shared);
        let ticker_join = std::thread::Builder::new()
            .name("ea-reactor-ticker".into())
            .spawn(move || ticker_loop(ticker_shared))?;

        Ok(Reactor {
            shared,
            accept_join: Some(accept_join),
            ticker_join: Some(ticker_join),
            local_addr,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently-open connections.
    pub fn live_connections(&self) -> usize {
        self.shared.live_conns.load(Ordering::Relaxed)
    }

    /// A handle that wakes the ticker thread from any thread. See
    /// [`ReactorWaker`].
    pub fn waker(&self) -> ReactorWaker {
        ReactorWaker { shared: Arc::clone(&self.shared) }
    }

    /// Stops the server, closing every connection with
    /// [`DisconnectReason::Shutdown`].
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful shutdown: gives the handler one [`on_shutdown`] callback
    /// to complete or reject its deferred work, stops accepting new
    /// connections, waits (up to `timeout`) until every frame handed to
    /// a writer thread has been written, then closes everything.
    ///
    /// [`on_shutdown`]: ReactorHandler::on_shutdown
    pub fn shutdown_graceful(mut self, timeout: Duration) {
        let mut outbox = Outbox::default();
        self.shared.handler.on_shutdown(&mut outbox);
        self.shared.route_outbox(&mut outbox);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake_ticker();
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let pending = {
                let conns = self.shared.conns.lock().expect("reactor conns poisoned");
                conns.values().any(|e| e.inflight.load(Ordering::SeqCst) > 0)
            };
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake_ticker();
        {
            let conns = self.shared.conns.lock().expect("reactor conns poisoned");
            for entry in conns.values() {
                let _ = entry.tx.send(WriteCmd::Close);
                let _ = entry.stream.shutdown(SockShutdown::Both);
            }
        }
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        if let Some(j) = self.ticker_join.take() {
            let _ = j.join();
        }
        // Wait briefly for per-connection readers to run their
        // disconnect callbacks.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.live_conns.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    drop(stream); // refused: graceful shutdown in progress
                    continue;
                }
                let _ = stream.set_nodelay(true);
                start_conn(stream, &shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Cloneable handle that cuts short the ticker thread's sleep, so
/// deferred work completed outside the reactor is picked up by
/// [`ReactorHandler::poll`] immediately instead of at the next
/// `handler_poll` tick. Safe to call from any thread, at any rate.
#[derive(Clone)]
pub struct ReactorWaker {
    shared: Arc<Shared>,
}

impl ReactorWaker {
    /// Wakes the ticker thread.
    pub fn wake(&self) {
        self.shared.wake_ticker();
    }

    /// Wakes the thread that polls for `conn`: here the one ticker, which
    /// polls for every connection.
    pub fn wake_conn(&self, _conn: ConnId) {
        self.wake();
    }
}

fn ticker_loop(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        {
            let guard = shared.tick.lock().expect("reactor ticker poisoned");
            let (mut woken, _) = shared
                .tick_cv
                .wait_timeout_while(guard, shared.handler_poll, |woken| !*woken)
                .expect("reactor ticker poisoned");
            *woken = false;
        }
        if shared.handler.has_deferred() {
            let mut outbox = Outbox::default();
            shared.handler.poll(&mut outbox);
            shared.route_outbox(&mut outbox);
        }
        if let Some(timeout) = shared.idle_timeout {
            let now = Instant::now();
            let conns = shared.conns.lock().expect("reactor conns poisoned");
            for entry in conns.values() {
                let last = *entry.last_activity.lock().expect("activity poisoned");
                if now.saturating_duration_since(last) >= timeout {
                    // Unblock the reader; it reports IdleTimeout.
                    let _ = entry.stream.shutdown(SockShutdown::Both);
                }
            }
        }
    }
}

fn start_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let slot = shared.next_slot.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
    let gen = shared.gen.fetch_add(1, Ordering::Relaxed) & GEN_MASK;
    let id = ConnId::new(0, gen, slot);
    let (tx, rx) = mpsc::channel::<WriteCmd>();
    let last_activity = Arc::new(Mutex::new(Instant::now()));
    let queued_bytes = Arc::new(AtomicUsize::new(0));
    let inflight = Arc::new(AtomicUsize::new(0));

    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reg_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    shared.conns.lock().expect("reactor conns poisoned").insert(
        id.0,
        ConnEntry {
            tx,
            stream: reg_stream,
            last_activity: Arc::clone(&last_activity),
            queued_bytes: Arc::clone(&queued_bytes),
            inflight: Arc::clone(&inflight),
        },
    );
    shared.live_conns.fetch_add(1, Ordering::Relaxed);

    // Writer thread: drains the channel, encodes and writes frames.
    let wq = Arc::clone(&queued_bytes);
    let winflight = Arc::clone(&inflight);
    let writer = std::thread::Builder::new().name("ea-reactor-writer".into()).spawn(move || {
        let mut stream = write_stream;
        while let Ok(cmd) = rx.recv() {
            match cmd {
                WriteCmd::Frame(msg) => {
                    let ty = msg.wire_type();
                    let logical = msg.logical_weight_bytes() as u64;
                    let wire = frame::encode_message(msg);
                    let len = wire.len();
                    wq.fetch_add(len, Ordering::Relaxed);
                    let ok = std::io::Write::write_all(&mut stream, &wire).is_ok();
                    bytepool::recycle(wire);
                    wq.fetch_sub(len.min(wq.load(Ordering::Relaxed)), Ordering::Relaxed);
                    winflight.fetch_sub(1, Ordering::SeqCst);
                    if !ok {
                        break;
                    }
                    crate::trace::counters().on_send_msg(ty, len as u64, logical);
                }
                WriteCmd::Close => {
                    let _ = stream.shutdown(SockShutdown::Both);
                    break;
                }
            }
        }
    });
    if writer.is_err() {
        cleanup_conn(shared, id);
        return;
    }

    // Reader thread: blocking frame decode → handler dispatch.
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new().name("ea-reactor-reader".into()).spawn(move || {
        let mut stream = stream;
        let reason = read_loop(&mut stream, id, &shared, &last_activity);
        cleanup_conn(&shared, id);
        shared.handler.on_disconnect(id, &reason);
    });
}

fn cleanup_conn(shared: &Arc<Shared>, id: ConnId) {
    if shared.conns.lock().expect("reactor conns poisoned").remove(&id.0).is_some() {
        shared.live_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn read_loop(
    stream: &mut TcpStream,
    id: ConnId,
    shared: &Arc<Shared>,
    last_activity: &Arc<Mutex<Instant>>,
) -> DisconnectReason {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return DisconnectReason::Shutdown;
        }
        match frame::read_frame(stream) {
            Ok(Some((ty, payload))) => {
                let msg = match Message::decode_payload(ty, &payload) {
                    Ok(m) => m,
                    Err(e) => return DisconnectReason::Frame(e),
                };
                crate::trace::counters().on_recv_msg(
                    ty,
                    (frame::HEADER_LEN + payload.len() + 4) as u64,
                    msg.logical_weight_bytes() as u64,
                );
                bytepool::recycle(payload);
                *last_activity.lock().expect("activity poisoned") = Instant::now();
                let mut outbox = Outbox::default();
                shared.handler.on_message(id, msg, &mut outbox);
                shared.route_outbox(&mut outbox);
            }
            Ok(None) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return DisconnectReason::Shutdown;
                }
                // A locally-initiated idle shutdown also reads as clean
                // EOF; attribute it correctly.
                if let Some(t) = shared.idle_timeout {
                    let last = *last_activity.lock().expect("activity poisoned");
                    if Instant::now().saturating_duration_since(last) >= t {
                        return DisconnectReason::IdleTimeout;
                    }
                }
                return DisconnectReason::PeerClosed;
            }
            Err(frame::ReadFrameError::Frame(e)) => return DisconnectReason::Frame(e),
            Err(frame::ReadFrameError::Io(e)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return DisconnectReason::Shutdown;
                }
                if shared.idle_timeout.is_some()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::UnexpectedEof
                    )
                {
                    // The ticker shut us down for idleness.
                    let last = *last_activity.lock().expect("activity poisoned");
                    if let Some(t) = shared.idle_timeout {
                        if Instant::now().saturating_duration_since(last) >= t {
                            return DisconnectReason::IdleTimeout;
                        }
                    }
                }
                return DisconnectReason::Io(e);
            }
        }
    }
}
