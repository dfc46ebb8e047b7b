//! Virtual-time clock abstraction for protocol code.
//!
//! Every wall-clock site in the elastic protocol (lease reaper, heartbeats,
//! supervisor backoff, retry jitter, pull deadlines) goes through the free
//! functions [`now`] and [`sleep`] instead of `Instant::now()` /
//! `thread::sleep`. Under normal operation they delegate to the OS. A
//! simulation harness (ea-chaos) installs a [`Clock`] override for the
//! current thread, after which the same protocol code runs on virtual time:
//! `now()` reads the simulated instant and `sleep()` advances it without
//! blocking.
//!
//! The override is thread-local on purpose: the single-threaded discrete
//! event scheduler owns all simulated actors, while threads spawned by real
//! deployments (reaper threads, reactor threads) keep seeing real time.
//!
//! Timestamps are `Duration`s since an arbitrary process-wide epoch, not
//! `Instant`s, so simulated and real time share one representation.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A source of time plus the ability to wait. Implementations must be
/// monotonic: successive `now()` calls never go backwards.
pub trait Clock {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
    /// Block (or, in simulation, advance virtual time) for `d`.
    fn sleep(&self, d: Duration);
}

thread_local! {
    static OVERRIDE: RefCell<Option<Rc<dyn Clock>>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Current time on the active clock: the thread-local override if one is
/// installed, otherwise monotonic wall time since the process epoch.
pub fn now() -> Duration {
    OVERRIDE.with(|c| match &*c.borrow() {
        Some(clock) => clock.now(),
        None => epoch().elapsed(),
    })
}

/// Sleep on the active clock. Real thread sleep without an override;
/// virtual-time advance under simulation.
pub fn sleep(d: Duration) {
    // Clone the Rc out of the borrow before sleeping so a clock whose
    // `sleep` re-enters `now()` does not hit a RefCell double-borrow.
    let clock = OVERRIDE.with(|c| c.borrow().clone());
    match clock {
        Some(clock) => clock.sleep(d),
        None => {
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
}

/// True if a simulated clock override is installed on this thread.
pub fn is_overridden() -> bool {
    OVERRIDE.with(|c| c.borrow().is_some())
}

/// Installs `clock` as this thread's time source; restores the previous
/// source when dropped. Nested installs stack.
pub struct ClockGuard {
    prev: Option<Rc<dyn Clock>>,
}

/// Install a clock override on the current thread for the lifetime of the
/// returned guard.
pub fn install(clock: Rc<dyn Clock>) -> ClockGuard {
    let prev = OVERRIDE.with(|c| c.borrow_mut().replace(clock));
    ClockGuard { prev }
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Current time on the active clock in whole microseconds — the unit the
/// wire timestamps ([`crate::wire::Message::Heartbeat`] and friends) and
/// trace spans use.
pub fn now_us() -> u64 {
    now().as_micros() as u64
}

/// NTP-style clock-offset estimator over request/response timestamp
/// pairs.
///
/// Each sample is one round trip: the requester stamps `t_tx` from its
/// own clock, the responder echoes it and stamps its own `t_remote`, and
/// the requester notes `t_rx` on receipt. Assuming the response was
/// generated mid-flight, the remote clock leads the local one by
/// `t_remote − (t_tx + t_rx)/2`, with an error bounded by half the round
/// trip. The estimator therefore keeps the sample with the **smallest
/// RTT** seen inside a sliding window of recent samples (classic NTP
/// minimum-filtering): queueing delay only ever inflates RTT, so the
/// fastest exchange is the most symmetric and its midpoint estimate the
/// most trustworthy.
///
/// All timestamps flow through [`now_us`], so under a simulated clock
/// install the estimator is exercised on virtual time (ea-chaos pins its
/// convergence under adversarial jitter).
#[derive(Debug, Clone)]
pub struct OffsetEstimator {
    /// Best (minimum-RTT) sample in the current window.
    best: Option<(u64, i64)>, // (rtt_us, offset_us)
    /// Samples folded into the current window.
    window_len: u32,
    /// Window size before the minimum is re-seeded, so a slow secular
    /// drift between the clocks is eventually tracked instead of being
    /// pinned to one ancient lucky sample.
    window: u32,
    /// Last committed estimate, kept across window reseeds.
    committed: Option<(u64, i64)>,
    samples: u64,
}

impl Default for OffsetEstimator {
    fn default() -> Self {
        OffsetEstimator::new()
    }
}

impl OffsetEstimator {
    /// An estimator with the default 64-sample minimum-filter window.
    pub fn new() -> OffsetEstimator {
        OffsetEstimator::with_window(64)
    }

    /// An estimator re-seeding its minimum filter every `window` samples.
    pub fn with_window(window: u32) -> OffsetEstimator {
        OffsetEstimator {
            best: None,
            window_len: 0,
            window: window.max(1),
            committed: None,
            samples: 0,
        }
    }

    /// Folds in one exchange: `t_tx` and `t_rx` from the local clock,
    /// `t_remote` from the responder. Samples with `t_rx < t_tx` (clock
    /// override swapped mid-flight) are discarded.
    pub fn sample(&mut self, t_tx_us: u64, t_remote_us: u64, t_rx_us: u64) {
        if t_rx_us < t_tx_us {
            return;
        }
        self.samples += 1;
        let rtt = t_rx_us - t_tx_us;
        let midpoint = (t_tx_us as i64 + t_rx_us as i64) / 2;
        let offset = t_remote_us as i64 - midpoint;
        if self.best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
            self.best = Some((rtt, offset));
        }
        self.window_len += 1;
        if self.window_len >= self.window {
            self.committed = self.best.take().or(self.committed);
            self.window_len = 0;
        }
    }

    fn current(&self) -> Option<(u64, i64)> {
        match (self.best, self.committed) {
            (Some(b), Some(c)) => Some(if b.0 <= c.0 { b } else { c }),
            (one, other) => one.or(other),
        }
    }

    /// Estimated remote−local clock offset in µs (`None` before the
    /// first sample). Add it to a local timestamp to express it on the
    /// remote clock.
    pub fn offset_us(&self) -> Option<i64> {
        self.current().map(|(_, off)| off)
    }

    /// RTT of the sample backing [`offset_us`](Self::offset_us) — the
    /// error bound on the estimate is half of this.
    pub fn rtt_us(&self) -> Option<u64> {
        self.current().map(|(rtt, _)| rtt)
    }

    /// Total samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// An interruptible wait: a condvar-backed flag that lets long backoff or
/// reaper-interval sleeps be cut short the moment shutdown is requested.
///
/// Unlike [`sleep`], `Waiter::wait_timeout` always uses real OS blocking —
/// it exists for threads a real deployment spawns (reaper, supervisor), and
/// the simulation never spawns those threads.
#[derive(Default)]
pub struct Waiter {
    interrupted: Mutex<bool>,
    cv: Condvar,
}

impl Waiter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wait up to `d`, returning early if [`interrupt`](Self::interrupt) is
    /// called. Returns `true` if the wait was interrupted.
    pub fn wait_timeout(&self, d: Duration) -> bool {
        let deadline = Instant::now() + d;
        let mut flag = self.interrupted.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *flag {
                return true;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            let (guard, _timed_out) =
                self.cv.wait_timeout(flag, remaining).unwrap_or_else(|e| e.into_inner());
            flag = guard;
        }
    }

    /// Wake every pending and future wait immediately.
    pub fn interrupt(&self) {
        let mut flag = self.interrupted.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.cv.notify_all();
    }

    /// True once [`interrupt`](Self::interrupt) has been called.
    pub fn is_interrupted(&self) -> bool {
        *self.interrupted.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Re-arm the waiter so it can be used for another wait cycle.
    pub fn reset(&self) {
        let mut flag = self.interrupted.lock().unwrap_or_else(|e| e.into_inner());
        *flag = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc;

    struct FakeClock {
        t: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            Duration::from_nanos(self.t.get())
        }
        fn sleep(&self, d: Duration) {
            self.t.set(self.t.get() + d.as_nanos() as u64);
        }
    }

    #[test]
    fn override_redirects_now_and_sleep() {
        assert!(!is_overridden());
        let fake = Rc::new(FakeClock { t: Cell::new(5) });
        {
            let _g = install(fake.clone());
            assert!(is_overridden());
            assert_eq!(now(), Duration::from_nanos(5));
            sleep(Duration::from_nanos(37));
            assert_eq!(now(), Duration::from_nanos(42));
        }
        assert!(!is_overridden());
        // Real clock advances between calls.
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn nested_installs_stack() {
        let outer = Rc::new(FakeClock { t: Cell::new(100) });
        let inner = Rc::new(FakeClock { t: Cell::new(7) });
        let _g1 = install(outer);
        assert_eq!(now(), Duration::from_nanos(100));
        {
            let _g2 = install(inner);
            assert_eq!(now(), Duration::from_nanos(7));
        }
        assert_eq!(now(), Duration::from_nanos(100));
    }

    #[test]
    fn waiter_interrupt_cuts_wait_short() {
        let w = Arc::new(Waiter::new());
        let w2 = w.clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || w2.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        w.interrupt();
        assert!(h.join().unwrap(), "wait should report interruption");
        assert!(start.elapsed() < Duration::from_secs(5));
        // Subsequent waits return immediately until reset.
        assert!(w.wait_timeout(Duration::from_secs(30)));
        w.reset();
        assert!(!w.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn waiter_times_out_without_interrupt() {
        let w = Waiter::new();
        assert!(!w.wait_timeout(Duration::from_millis(5)));
        assert!(!w.is_interrupted());
    }

    #[test]
    fn offset_estimator_prefers_minimum_rtt_samples() {
        let mut e = OffsetEstimator::new();
        assert_eq!(e.offset_us(), None);
        // True offset +1000 µs; symmetric 200 µs RTT.
        e.sample(10_000, 11_100, 10_200);
        assert_eq!(e.offset_us(), Some(1000));
        assert_eq!(e.rtt_us(), Some(200));
        // A slower, asymmetric sample (wrong midpoint) must not displace it.
        e.sample(20_000, 21_900, 21_000);
        assert_eq!(e.offset_us(), Some(1000));
        // A faster sample refines the estimate.
        e.sample(30_000, 31_040, 30_080);
        assert_eq!(e.rtt_us(), Some(80));
        assert_eq!(e.offset_us(), Some(1000));
        assert_eq!(e.samples(), 3);
    }

    #[test]
    fn offset_estimator_reseeds_its_window_to_track_drift() {
        let mut e = OffsetEstimator::with_window(2);
        e.sample(0, 500, 100); // offset +450, rtt 100
        e.sample(1_000, 1_500, 1_100); // window commits here
                                       // Clock drifted: offset is now +2000; new windows must converge
                                       // to it even though the old sample had a smaller RTT.
        for i in 0..4u64 {
            let t = 10_000 + i * 1_000;
            e.sample(t, t + 2_100, t + 200);
        }
        assert_eq!(e.offset_us(), Some(2000));
    }

    #[test]
    fn offset_estimator_discards_backwards_samples() {
        let mut e = OffsetEstimator::new();
        e.sample(100, 50, 20); // t_rx < t_tx
        assert_eq!(e.offset_us(), None);
        assert_eq!(e.samples(), 0);
    }
}
