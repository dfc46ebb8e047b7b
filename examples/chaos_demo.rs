//! Single-process chaos tour of the fault-tolerance machinery.
//!
//! Four worker pipelines train over TCP against a fault-tolerant
//! reference-shard server on the reactor. Worker 3 "crashes" after
//! completing round `CRASH_AT - 1`: its thread ends and drops its
//! connection, so from the server's point of view the worker vanishes
//! before submitting round `CRASH_AT`. The demo then narrates the
//! recovery timeline the paper's elastic semantics allow:
//!
//! 1. round 3 stalls on the dead worker; its lease expires → `EVICTED`
//! 2. the stalled round completes **degraded** over the 3 survivors
//!    (`w̃ ← w̃ + (1/k)·Σ Δ_i`, k = 3) → `DEGRADED`
//! 3. a replacement worker 3 connects, resyncs to the live round and
//!    re-enters the quorum at the next boundary → `REJOIN`, `QUORUM 4/4`
//! 4. everyone trains on to the target round with finite losses.
//!
//! ```text
//! cargo run --release --example chaos_demo
//! ```

use avgpipe_suite::demo;
use ea_comms::reactor::ReactorConfig;
use ea_comms::{RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig, TcpTransport};
use ea_runtime::{ElasticWorker, FtConfig, RefShardServer};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipelines in the chaos ensemble (more than the two-process demo).
const N: usize = 4;
/// Rounds every surviving pipeline must complete.
const ROUNDS: u64 = 12;
/// The round worker 3 never submits: its thread ends just before it.
const CRASH_AT: u64 = 3;

fn alpha() -> f32 {
    1.0 / N as f32
}

fn retry() -> RetryConfig {
    // The fault-tolerant server drops pulls parked past its bounded wait
    // and leans on retransmission, so give clients a deep retry budget.
    RetryConfig { reply_timeout: Duration::from_millis(100), max_attempts: 100 }
}

fn connect(addr: SocketAddr, pipe: usize) -> Arc<dyn ShardChannel> {
    let conn = TcpTransport::connect(addr, TcpConfig::default()).expect("connect");
    let client = ShardClient::handshake(Box::new(conn), pipe, retry()).expect("handshake");
    Arc::new(RemoteShards::new(vec![client]).expect("channel"))
}

fn new_worker(pipe: usize, channel: Arc<dyn ShardChannel>) -> ElasticWorker {
    ElasticWorker::new(
        demo::model_stages(),
        demo::optimizers(),
        demo::MICROS,
        alpha(),
        pipe,
        channel,
    )
}

fn batch_for(task: &ea_data::SyntheticTask, round: u64, pipe: usize) -> ea_data::Batch {
    task.batch(demo::BATCH, round * N as u64 + pipe as u64)
}

fn main() {
    let server = RefShardServer::from_initial_weights(demo::initial_reference(), N)
        .with_fault_tolerance(FtConfig {
            lease: Duration::from_millis(250),
            reap_interval: Duration::from_millis(50),
            pull_wait: Duration::from_millis(60),
            checkpoint: None,
        });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let reactor = server.serve_reactor(listener, ReactorConfig::default()).expect("reactor");
    let addr = reactor.local_addr();
    println!("[chaos] serving {N} pipelines, lease 250ms; worker 3 crashes at round {CRASH_AT}");

    // Three healthy workers run all rounds; worker 0 narrates its losses.
    let mut handles = Vec::new();
    for p in 0..N - 1 {
        let channel = connect(addr, p);
        handles.push(std::thread::spawn(move || {
            let task = demo::task();
            let mut w = new_worker(p, channel);
            while w.rounds_done() < ROUNDS {
                let r = w.rounds_done();
                let loss = w.round(&batch_for(&task, r, p)).expect("healthy round failed");
                if p == 0 {
                    let q = w.heartbeat().expect("heartbeat");
                    println!("[worker 0] round {r}: loss {loss:.6} quorum {}/{N}", q.quorum);
                }
                assert!(loss.is_finite(), "loss diverged");
            }
        }));
    }

    // Worker 3 completes rounds 0..CRASH_AT, then its thread ends: the
    // channel drops, the connection closes, and its lease runs out.
    let doomed = {
        let channel = connect(addr, N - 1);
        std::thread::spawn(move || {
            let task = demo::task();
            let mut w = new_worker(N - 1, channel);
            while w.rounds_done() < CRASH_AT {
                let r = w.rounds_done();
                let loss = w.round(&batch_for(&task, r, N - 1)).expect("pre-crash round failed");
                println!("[worker 3] round {r}: loss {loss:.6}");
            }
            println!("[worker 3] CRASHED before round {CRASH_AT} — going silent");
        })
    };

    // Main thread: narrate server-side membership events and respawn
    // worker 3 once the server has declared it dead.
    let t0 = Instant::now();
    let mut last = server.metrics();
    let mut last_live = server.live_count();
    let mut rejoiner = None;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let ms = t0.elapsed().as_millis();
        let m = server.metrics();
        if m.evictions > last.evictions {
            println!("[server] t={ms}ms EVICTED a silent pipeline (lease expired)");
        }
        if m.degraded_rounds > last.degraded_rounds {
            println!("[server] t={ms}ms DEGRADED round applied over the survivors");
        }
        if m.rejoins > last.rejoins {
            println!("[server] t={ms}ms REJOIN — pipeline readmitted at the next boundary");
        }
        let live = server.live_count();
        if live != last_live {
            println!("[server] t={ms}ms QUORUM live={live}/{N}");
            last_live = live;
        }
        if rejoiner.is_none() && m.evictions >= 1 {
            let channel = connect(addr, N - 1);
            rejoiner = Some(std::thread::spawn(move || {
                let task = demo::task();
                let mut w = new_worker(N - 1, channel);
                let start = w.resync().expect("resync");
                println!("[worker 3'] restarted, resynced to round {start}");
                while w.rounds_done() < ROUNDS {
                    let r = w.rounds_done();
                    match w.round(&batch_for(&task, r, N - 1)) {
                        Ok(loss) => println!("[worker 3'] round {r}: loss {loss:.6}"),
                        Err(e) => {
                            // Raced a round that completed without us —
                            // realign and keep going.
                            let r2 = w.resync().expect("resync after race");
                            println!("[worker 3'] round {r} raced ({e:?}); resynced to {r2}");
                        }
                    }
                }
            }));
        }
        last = m;
        if server.shards().iter().all(|s| s.version() >= ROUNDS) {
            break;
        }
    }

    for h in handles {
        h.join().expect("healthy worker panicked");
    }
    doomed.join().expect("doomed worker panicked");
    if let Some(h) = rejoiner {
        h.join().expect("rejoined worker panicked");
    }

    let m = server.metrics();
    println!(
        "[chaos] done: evictions={} degraded_rounds={} rejoins={} heartbeats={} live={}/{N}",
        m.evictions,
        m.degraded_rounds,
        m.rejoins,
        m.heartbeats,
        server.live_count(),
    );
    for (s, shard) in server.shards().iter().enumerate() {
        println!(
            "[chaos] REF_CHECKSUM stage={s} {:#010x} (round {})",
            demo::weights_checksum(&shard.snapshot()),
            shard.version()
        );
    }
    assert!(m.evictions >= 1 && m.degraded_rounds >= 1 && m.rejoins >= 1);
    println!("CHAOS DEMO OK");
}
