//! Dynamic micro-batcher: a bounded admission queue that hands the
//! executor whatever is queued, up to a batch cap.
//!
//! The serving analogue of the paper's micro-batch tuning: throughput
//! rises with batch size only while the device's demand curve still
//! climbs (§5.2), so the executor takes *up to* `cap` requests — the cap
//! computed by [`avgpipe::serve_batch_cap`] from the model's
//! arithmetic-intensity profile and a measured cost model. That is a
//! reason to bound a batch, not to delay one: the batcher is
//! work-conserving. As soon as one request is queued and the executor
//! asks, it gets everything queued. At low load a request runs alone,
//! at once; under load the queue refills while each forward runs, so
//! batches form from the requests that arrived meanwhile and grow
//! toward the cap as the load does.
//!
//! Admission control is load-shedding, not back-pressure: a full queue
//! rejects new requests immediately ([`Admission::Shed`]) so the
//! frontend can answer with a `shed` reply instead of letting latency
//! grow without bound. Shedding at the door keeps the p99 of *accepted*
//! requests inside the budget — the standard serving trade.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ea_comms::reactor::ConnId;

/// One queued inference request.
pub struct InferRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// Connection to answer on (reactor frontends; synthetic for tests).
    pub conn: ConnId,
    /// Flat input rows (token ids encoded as f32).
    pub input: Vec<f32>,
    /// Admission time, for queue-latency accounting.
    pub enqueued: Instant,
}

/// Outcome of [`Batcher::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; a reply will arrive via the completion path.
    Accepted,
    /// Queue full (or batcher stopped) — answer `shed` immediately.
    Shed,
}

/// Bounded request queue + condvar the executor thread blocks on.
pub struct Batcher {
    queue_cap: usize,
    queue: Mutex<VecDeque<InferRequest>>,
    available: Condvar,
    stopped: AtomicBool,
}

impl Batcher {
    /// A batcher admitting at most `queue_cap` queued requests.
    pub fn new(queue_cap: usize) -> Batcher {
        assert!(queue_cap >= 1, "queue capacity must be positive");
        Batcher {
            queue_cap,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stopped: AtomicBool::new(false),
        }
    }

    /// Admits or sheds a request. O(1); never blocks.
    pub fn submit(&self, req: InferRequest) -> Admission {
        if self.stopped.load(Ordering::Acquire) {
            return Admission::Shed;
        }
        let mut q = self.queue.lock().expect("batcher queue poisoned");
        if q.len() >= self.queue_cap {
            return Admission::Shed;
        }
        q.push_back(req);
        drop(q);
        self.available.notify_one();
        Admission::Accepted
    }

    /// Requests currently queued.
    pub fn depth(&self) -> usize {
        self.queue.lock().expect("batcher queue poisoned").len()
    }

    /// Blocks until a request is queued, the batcher stops, or — with an
    /// empty queue — `idle_wait` elapses (returning an empty vec so the
    /// caller can run housekeeping and re-enter). Then returns every
    /// queued request, oldest first, up to `cap`, without waiting for
    /// more. After [`stop`](Batcher::stop) it drains what is queued,
    /// then returns empty at once.
    pub fn next_batch(&self, cap: usize, idle_wait: Duration) -> Vec<InferRequest> {
        let mut q = self.queue.lock().expect("batcher queue poisoned");
        let idle_deadline = Instant::now() + idle_wait;
        while q.is_empty() {
            if self.stopped.load(Ordering::Acquire) {
                return Vec::new();
            }
            let now = Instant::now();
            if now >= idle_deadline {
                return Vec::new();
            }
            let (guard, _) = self
                .available
                .wait_timeout(q, idle_deadline - now)
                .expect("batcher queue poisoned");
            q = guard;
        }
        let take = q.len().min(cap.max(1));
        q.drain(..take).collect()
    }

    /// Stops the batcher: subsequent submits shed, blocked
    /// `next_batch` calls return (draining what is queued first).
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// Whether [`stop`](Batcher::stop) was called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Drains every queued request (for shutdown shedding).
    pub fn drain(&self) -> Vec<InferRequest> {
        let mut q = self.queue.lock().expect("batcher queue poisoned");
        q.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn req(id: u64) -> InferRequest {
        InferRequest { id, conn: ConnId::from_raw(0), input: vec![0.0], enqueued: Instant::now() }
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let b = Batcher::new(2);
        assert_eq!(b.submit(req(1)), Admission::Accepted);
        assert_eq!(b.submit(req(2)), Admission::Accepted);
        let t0 = Instant::now();
        assert_eq!(b.submit(req(3)), Admission::Shed);
        assert!(t0.elapsed() < Duration::from_millis(50), "shed must not block");
        assert_eq!(b.depth(), 2);
    }

    #[test]
    fn batch_fills_to_cap_without_waiting_out_the_delay() {
        let b = Arc::new(Batcher::new(64));
        for i in 0..8 {
            b.submit(req(i));
        }
        let t0 = Instant::now();
        let batch = b.next_batch(8, Duration::from_secs(10));
        assert_eq!(batch.len(), 8);
        assert!(t0.elapsed() < Duration::from_secs(1), "a queued batch must not wait");
        assert_eq!(batch[0].id, 0);
        assert_eq!(batch[7].id, 7);
    }

    #[test]
    fn more_than_cap_queued_returns_exactly_cap_oldest_first() {
        let b = Batcher::new(64);
        for i in 0..11 {
            b.submit(req(i));
        }
        let first = b.next_batch(4, Duration::from_secs(10));
        assert_eq!(first.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(b.depth(), 7);
        let second = b.next_batch(4, Duration::from_secs(10));
        assert_eq!(second.iter().map(|r| r.id).collect::<Vec<_>>(), [4, 5, 6, 7]);
        let rest = b.next_batch(4, Duration::from_secs(10));
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<_>>(), [8, 9, 10]);
    }

    #[test]
    fn request_queued_before_the_call_returns_without_waiting() {
        let b = Batcher::new(64);
        let fastest = (0..20)
            .map(|i| {
                b.submit(req(i));
                let t0 = Instant::now();
                let batch = b.next_batch(8, Duration::from_secs(10));
                let waited = t0.elapsed();
                assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [i]);
                waited
            })
            .min()
            .unwrap();
        // A lone request below the cap is handed over at once. A
        // coalesce window of any length would show in every one of the
        // 20 tries; a loaded host cannot delay them all.
        assert!(fastest < Duration::from_millis(1), "fastest of 20 tries waited {fastest:?}");
    }

    #[test]
    fn request_submitted_during_the_wait_is_returned_on_wake() {
        let b = Arc::new(Batcher::new(64));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            let batch = b2.next_batch(8, Duration::from_secs(10));
            (batch, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(10));
        let submitted = Instant::now();
        b.submit(req(42));
        let (batch, returned) = waiter.join().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 42);
        // Woken by the submit, not by the 10 s idle timeout.
        let after = returned.saturating_duration_since(submitted);
        assert!(after < Duration::from_secs(5), "returned {after:?} after the submit");
    }

    #[test]
    fn stop_drains_queued_requests_and_sheds_new_ones() {
        let b = Batcher::new(8);
        b.submit(req(1));
        b.submit(req(2));
        b.stop();
        assert_eq!(b.submit(req(3)), Admission::Shed);
        let batch = b.next_batch(8, Duration::from_secs(10));
        assert_eq!(batch.len(), 2, "stop drains what was already admitted");
        let empty = b.next_batch(8, Duration::from_secs(10));
        assert!(empty.is_empty(), "stopped and empty returns immediately");
    }

    #[test]
    fn idle_wait_returns_empty_for_housekeeping() {
        let b = Batcher::new(8);
        let t0 = Instant::now();
        let batch = b.next_batch(8, Duration::from_millis(30));
        assert!(batch.is_empty());
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }
}
