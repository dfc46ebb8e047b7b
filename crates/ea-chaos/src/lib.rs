//! # ea-chaos — deterministic simulation testing for the elastic protocol
//!
//! Runs the full sharded elastic-averaging topology — K
//! [`ea_runtime::ServerCore`]s times N worker state machines with mixed
//! codecs — as actors on a single-threaded discrete-event scheduler with
//! virtual time. The production protocol code is exercised unmodified:
//! each server actor drives the very handler the epoll reactor runs in
//! production (`on_message`, `poll`, `on_disconnect`), parked pulls and
//! their `pull_wait` deadlines included; workers drive the real
//! [`ea_runtime::ErrorFeedback`] and the real wire codecs; and every
//! wall-clock read inside the stack goes through [`ea_comms::clock`],
//! which the harness overrides with a simulated clock.
//!
//! One `u64` seed determines everything: the fault plan (crashes,
//! restarts, partitions), every per-link drop/delay/duplicate/corrupt
//! decision, and the synthetic weight/delta values. Same seed, same event
//! log and same final shard weights, bit for bit — which is what makes a
//! failing seed a *repro*, not an anecdote.
//!
//! Invariant oracles run on every simulated event (see [`oracle`]):
//! per-shard version monotonicity, bitwise quorum-renormalization
//! arithmetic, no mixed-version weight reads, idempotent delta submission,
//! error-feedback conservation, parked pulls answered or expired on time,
//! and post-quiesce liveness. A failing run dumps the seed, the shrunk
//! fault plan, and the event log; [`shrink`]
//! minimizes the plan first so the repro is as small as the bug allows.
//!
//! ```no_run
//! let report = ea_chaos::run_seed(42);
//! assert!(report.ok, "{:?}", report.violations);
//! ```

pub mod actors;
pub mod faults;
pub mod net;
pub mod oracle;
pub mod sched;
pub mod shrink;
pub mod sim;

pub use faults::{FaultEvent, FaultKind, FaultPlan, RestartMode};
pub use net::{NetConfig, NetStats};
pub use oracle::Oracle;
pub use sched::{SimClock, SimTime, SplitMix64};
pub use shrink::shrink_plan;
pub use sim::{run_seed, run_sim, SimConfig, SimReport};

use ea_comms::Message;

/// A simulated endpoint. Servers and workers live in separate index
/// spaces; `Addr` is the key for links, partitions, and event routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    Server(usize),
    Worker(usize),
}

impl Addr {
    /// A collision-free integer for deriving per-link RNG streams.
    pub fn index(self) -> usize {
        match self {
            Addr::Server(k) => k,
            Addr::Worker(w) => 0x1000 + w,
        }
    }
}

/// Worker-side timer kinds. Timers carry the incarnation that armed them
/// so a restart orphans the old chain instead of double-firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WTimer {
    /// Re-send whatever the current phase is still waiting on.
    Retransmit,
    /// Periodic lease renewal + round advertisement to every server.
    Heartbeat,
    /// End of reconnect backoff: go back to Connect.
    Reconnect,
}

/// Server-side timer kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum STimer {
    /// Run the lease reaper (the simulated analogue of the reaper thread).
    Reap,
    /// Run the server core's reactor poll (parked-pull completion and
    /// expiry, subscriber pushes).
    Poll,
    /// Capture a checkpoint to the simulated disk.
    Checkpoint,
}

/// Everything that can happen in the simulation, in one queue.
#[derive(Clone, Debug)]
pub enum Event {
    /// A protocol message arriving at `to`. `gen` is the sender
    /// connection's generation: stale-generation traffic is discarded by
    /// the receiver exactly like bytes from a closed socket.
    Deliver {
        from: Addr,
        to: Addr,
        gen: u64,
        msg: Message,
    },
    /// Reliable socket-teardown notification for connection `gen`
    /// between `to` and `peer`.
    ConnClosed {
        to: Addr,
        peer: Addr,
        gen: u64,
    },
    WorkerTimer {
        worker: usize,
        inc: u64,
        kind: WTimer,
    },
    ServerTimer {
        server: usize,
        inc: u64,
        kind: STimer,
    },
    CrashServer {
        server: usize,
    },
    RestartServer {
        server: usize,
        mode: RestartMode,
    },
    CrashWorker {
        worker: usize,
    },
    RestartWorker {
        worker: usize,
    },
    StartPartition {
        a: Addr,
        b: Addr,
        duration_ns: u64,
        symmetric: bool,
    },
}
