//! End-to-end fault-tolerance tests: worker crash → lease eviction →
//! degraded-quorum rounds → rejoin, and server kill → checkpoint restore.
//!
//! These run the real TCP transport with a four-pipeline ensemble, so
//! they exercise the full stack the chaos demo narrates: membership
//! leases, the reaper, parked pulls with bounded waits and client
//! retransmission, per-round membership records, and atomic reference
//! checkpoints.

use avgpipe_suite::demo;
use ea_comms::reactor::{Reactor, ReactorConfig};
use ea_comms::{RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig, TcpTransport};
use ea_data::{Batch, SyntheticTask};
use ea_models::gnmt_analogue;
use ea_runtime::{ElasticTrainer, ElasticWorker, FtConfig, RefCheckpoint, RefShardServer};
use ea_tensor::TensorRng;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipelines in the fault-tolerance ensemble.
const N: usize = 4;
/// Rounds every surviving pipeline completes.
const ROUNDS: u64 = 12;

fn alpha() -> f32 {
    1.0 / N as f32
}

/// Deep retry budget: the fault-tolerant server drops pulls parked past
/// its bounded wait and relies on retransmission while rounds stall.
fn retry() -> RetryConfig {
    RetryConfig { reply_timeout: Duration::from_millis(100), max_attempts: 200 }
}

/// Serves `server` on a reactor bound to an ephemeral loopback port;
/// returns the reactor and its address.
fn serve(server: &RefShardServer) -> (Reactor, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = server.serve_reactor(listener, ReactorConfig::default()).expect("reactor");
    let addr = reactor.local_addr().to_string();
    (reactor, addr)
}

fn connect(addr: &str, pipe: usize) -> Arc<dyn ShardChannel> {
    let tcp = TcpTransport::connect(addr, TcpConfig::default()).expect("connect");
    let client = ShardClient::handshake(Box::new(tcp), pipe, retry()).expect("handshake");
    Arc::new(RemoteShards::new(vec![client]).expect("channel"))
}

fn worker(pipe: usize, channel: Arc<dyn ShardChannel>) -> ElasticWorker {
    ElasticWorker::new(
        demo::model_stages(),
        demo::optimizers(),
        demo::MICROS,
        alpha(),
        pipe,
        channel,
    )
}

fn batch_for(task: &SyntheticTask, round: u64, pipe: usize) -> Batch {
    task.batch(demo::BATCH, round * N as u64 + pipe as u64)
}

/// Fault-free in-process baseline over the same four-pipeline schedule.
fn baseline_final_loss() -> f32 {
    let stages = (0..N).map(|_| demo::model_stages()).collect();
    let opts = (0..N).map(|_| demo::optimizers()).collect();
    let eval = gnmt_analogue(demo::CFG, &mut TensorRng::seed_from_u64(demo::MODEL_SEED));
    let mut trainer = ElasticTrainer::new(stages, opts, demo::MICROS, Some(alpha()), eval);
    let task = demo::task();
    let mut last = f32::NAN;
    for r in 0..ROUNDS {
        let batches: Vec<Batch> = (0..N).map(|p| batch_for(&task, r, p)).collect();
        last = trainer.round(&batches);
    }
    last
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn crashed_worker_is_evicted_survivors_degrade_and_a_restart_rejoins() {
    let server = Arc::new(
        RefShardServer::from_initial_weights(demo::initial_reference(), N).with_fault_tolerance(
            FtConfig {
                lease: Duration::from_millis(400),
                reap_interval: Duration::from_millis(100),
                pull_wait: Duration::from_millis(100),
                checkpoint: None,
            },
        ),
    );
    let (_reactor, addr) = serve(&server);

    // Three survivors run all rounds; their pulls stall while round 4 is
    // missing pipe 3's delta and resume once the reaper completes it
    // degraded. They hold the final two rounds until the restarted pipe 3
    // has resynced — that pins its readmission boundary before the last
    // round, so the quorum provably recovers to N (purely a determinism
    // gate for the test; the protocol never requires it).
    let rejoined = Arc::new(AtomicBool::new(false));
    let survivors: Vec<_> = (0..N - 1)
        .map(|p| {
            let channel = connect(&addr, p);
            let rejoined = Arc::clone(&rejoined);
            std::thread::spawn(move || {
                let task = demo::task();
                let mut w = worker(p, channel);
                let mut last = f32::NAN;
                let deadline = Instant::now() + Duration::from_secs(60);
                while w.rounds_done() < ROUNDS {
                    let r = w.rounds_done();
                    while r >= ROUNDS - 2 && !rejoined.load(Ordering::Acquire) {
                        assert!(Instant::now() < deadline, "pipe {p}: rejoin never happened");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    last = w.round(&batch_for(&task, r, p)).expect("survivor round failed");
                    assert!(last.is_finite(), "pipe {p} loss diverged");
                }
                last
            })
        })
        .collect();

    // Pipe 3 trains for four rounds, then "crashes": the thread returns,
    // the connection drops, and the worker goes silent mid-round 4 from
    // the server's perspective (its round-4 delta is never sent).
    let crasher = {
        let channel = connect(&addr, N - 1);
        std::thread::spawn(move || {
            let task = demo::task();
            let mut w = worker(N - 1, channel);
            for _ in 0..4 {
                let r = w.rounds_done();
                w.round(&batch_for(&task, r, N - 1)).expect("pre-crash round failed");
            }
        })
    };
    crasher.join().unwrap();

    // The lease expires and the reaper evicts pipe 3.
    wait_until("eviction", Duration::from_secs(10), || server.metrics().evictions >= 1);
    assert_eq!(server.live_count(), N - 1, "quorum must drop to the survivors");

    // Restart pipe 3: re-handshake, adopt the live reference and round,
    // re-enter the quorum at the next boundary.
    let rejoiner = {
        let channel = connect(&addr, N - 1);
        let rejoined = Arc::clone(&rejoined);
        std::thread::spawn(move || {
            let task = demo::task();
            let mut w = worker(N - 1, channel);
            let start = w.resync().expect("resync");
            rejoined.store(true, Ordering::Release);
            while w.rounds_done() < ROUNDS {
                let r = w.rounds_done();
                if w.round(&batch_for(&task, r, N - 1)).is_err() {
                    // Raced a round that completed without us; realign.
                    w.resync().expect("resync after race");
                }
            }
            start
        })
    };

    let mut finals = Vec::new();
    for h in survivors {
        finals.push(h.join().expect("survivor panicked"));
    }
    let rejoin_round = rejoiner.join().expect("rejoiner panicked");
    assert!(rejoin_round >= 4, "rejoiner must resync past its crash round, got {rejoin_round}");

    // Every shard reached the target round despite the crash.
    for shard in server.shards() {
        assert!(shard.version() >= ROUNDS);
    }
    // The membership records show the quorum dipping to 3 and recovering
    // to 4 once the restarted worker was readmitted.
    let records = server.shards()[0].round_records();
    assert!(
        records.iter().any(|r| r.quorum == (N - 1) as u32),
        "no degraded round recorded: {records:?}"
    );
    let last = records.iter().find(|r| r.round == ROUNDS - 1).expect("final round record");
    assert_eq!(last.quorum, N as u32, "quorum must be back to full at the final round");
    assert_eq!(last.members, (1u64 << N) - 1, "all pipelines in the final round");

    let m = server.metrics();
    assert!(m.evictions >= 1, "no eviction recorded");
    assert!(m.rejoins >= 1, "no rejoin recorded");
    assert!(m.degraded_rounds >= 1, "no degraded round counted");
    assert_eq!(server.live_count(), N, "quorum must be back to {N}");

    // Degraded rounds renormalize over the survivors, so the run is not
    // byte-identical to the fault-free baseline — but it must stay in the
    // same training regime.
    let base = baseline_final_loss();
    for loss in finals {
        assert!(
            (loss - base).abs() < 0.2,
            "survivor final loss {loss} drifted from fault-free baseline {base}"
        );
    }
}

#[test]
fn server_kill_and_restart_restores_from_checkpoint_and_resumes() {
    let ckpt_path = std::env::temp_dir().join(format!("ea-ft-restart-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    let n = demo::N_PIPELINES;

    // Phase 1: fault-tolerant server with fast periodic checkpoints;
    // both workers complete four rounds, then the server is torn down.
    let addr1;
    {
        let server = Arc::new(
            RefShardServer::from_initial_weights(demo::initial_reference(), n)
                .with_fault_tolerance(FtConfig {
                    lease: Duration::from_millis(2000),
                    reap_interval: Duration::from_millis(40),
                    pull_wait: Duration::from_millis(100),
                    checkpoint: Some((ckpt_path.clone(), Duration::from_millis(40))),
                }),
        );
        let (_reactor, addr) = serve(&server);
        addr1 = addr;

        let workers: Vec<_> = (0..n)
            .map(|p| {
                let channel = connect(&addr1, p);
                std::thread::spawn(move || {
                    let task = demo::task();
                    let mut w = ElasticWorker::new(
                        demo::model_stages(),
                        demo::optimizers(),
                        demo::MICROS,
                        demo::alpha(),
                        p,
                        channel,
                    );
                    for r in 0..4 {
                        w.round(&demo::worker_batch(&task, r, p)).expect("round failed");
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("worker panicked");
        }
        // A consistent checkpoint at the final round lands on disk.
        wait_until("round-4 checkpoint", Duration::from_secs(10), || {
            RefCheckpoint::load(&ckpt_path).map(|c| c.round >= 4).unwrap_or(false)
        });
        // Server dropped here: the "kill". (A harder kill mid-write is
        // covered by the atomic-write unit tests — a torn temp file can
        // never shadow the last durable checkpoint.)
    }

    // Phase 2: a fresh server restores the shards from the checkpoint
    // and resumes at the recorded round.
    let ckpt = RefCheckpoint::load(&ckpt_path).expect("load checkpoint");
    assert_eq!(ckpt.round, 4);
    let server = Arc::new(RefShardServer::from_checkpoint(&ckpt, n));
    assert_eq!(server.metrics().checkpoint_restores, 1);
    for (shard, saved) in server.shards().iter().zip(&ckpt.shards) {
        assert_eq!(shard.version(), ckpt.round);
        assert_eq!(&shard.snapshot(), saved, "restored weights differ from the checkpoint");
    }

    let (_reactor, addr2) = serve(&server);

    // Rejoining workers resync to the restored round and train on.
    let workers: Vec<_> = (0..n)
        .map(|p| {
            let channel = connect(&addr2, p);
            std::thread::spawn(move || {
                let task = demo::task();
                let mut w = ElasticWorker::new(
                    demo::model_stages(),
                    demo::optimizers(),
                    demo::MICROS,
                    demo::alpha(),
                    p,
                    channel,
                );
                let start = w.resync().expect("resync");
                assert_eq!(start, 4, "workers must resume at the checkpointed round");
                while w.rounds_done() < 8 {
                    let r = w.rounds_done();
                    let loss =
                        w.round(&demo::worker_batch(&task, r, p)).expect("post-restart round");
                    assert!(loss.is_finite());
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker panicked");
    }
    for shard in server.shards() {
        assert_eq!(shard.version(), 8, "training must resume from round 4 to 8");
    }
    let _ = std::fs::remove_file(&ckpt_path);
}
