//! Reference-shard server for the two-process elastic-averaging demo.
//!
//! Hosts the per-stage reference shards on the epoll reactor and serves
//! worker pipelines until every shard has completed `--rounds` rounds and
//! the workers have disconnected, then prints a bit-exact checksum of the
//! final reference weights for each stage (the workers print the same
//! checksums, so a byte-level comparison across processes is a `grep`
//! away).
//!
//! With `--fault-tolerant` the server also runs the membership/lease
//! protocol: workers that go silent past the lease are evicted and
//! stalled rounds complete degraded over the survivors; a restarted
//! worker rejoins at the next round boundary. `--checkpoint PATH` adds
//! periodic atomic reference checkpoints — if PATH already exists on
//! startup the server restores from it and resumes at the recorded round
//! (printing `RESTORED round=R`), which is what the kill-and-restart
//! script exercises.
//!
//! With `--shards K --shard-index I` this process hosts only slice `I`
//! of a `K`-server partition of the reference: the demo's stages are
//! split into `K` contiguous ranges and every worker scatter-gathers its
//! rounds across all `K` servers. `--codec` names the wire codec the
//! workers are expected to negotiate (the actual negotiation is
//! per-connection, in the worker's `Hello`). `--pipelines N` sizes the
//! worker ensemble (default: the demo's 2).
//!
//! ```text
//! cargo run --release --example elastic_server -- --addr 127.0.0.1:7070
//! cargo run --release --example elastic_worker -- --addr 127.0.0.1:7070 --pipe 0 &
//! cargo run --release --example elastic_worker -- --addr 127.0.0.1:7070 --pipe 1
//! ```

use avgpipe_suite::demo;
use ea_comms::reactor::ReactorConfig;
use ea_runtime::{FtConfig, RefCheckpoint, RefShardServer};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut fault_tolerant = false;
    let mut lease_ms: u64 = 2000;
    let mut checkpoint: Option<PathBuf> = None;
    let mut rounds: u64 = demo::ROUNDS;
    let mut shards: usize = 1;
    let mut shard_index: usize = 0;
    let mut codec = "f32".to_string();
    let mut pipelines = demo::N_PIPELINES;
    let mut ops_push: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().expect("--addr needs a value"),
            "--fault-tolerant" => fault_tolerant = true,
            "--lease-ms" => {
                lease_ms = args
                    .next()
                    .expect("--lease-ms needs a value")
                    .parse()
                    .expect("--lease-ms: integer milliseconds")
            }
            "--checkpoint" => {
                checkpoint = Some(PathBuf::from(args.next().expect("--checkpoint needs a path")))
            }
            "--rounds" => {
                rounds =
                    args.next().expect("--rounds needs a value").parse().expect("--rounds: integer")
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a value")
                    .parse()
                    .expect("--shards: integer server count")
            }
            "--shard-index" => {
                shard_index = args
                    .next()
                    .expect("--shard-index needs a value")
                    .parse()
                    .expect("--shard-index: integer")
            }
            "--codec" => codec = args.next().expect("--codec needs a value"),
            "--pipelines" => {
                pipelines = args
                    .next()
                    .expect("--pipelines needs a value")
                    .parse()
                    .expect("--pipelines: integer worker count")
            }
            "--ops-push" => {
                ops_push = Some(args.next().expect("--ops-push needs a collector HOST:PORT"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: elastic_server [--addr HOST:PORT] [--fault-tolerant] \
                     [--lease-ms MS] [--checkpoint PATH] [--rounds R] \
                     [--shards K] [--shard-index I] [--codec f32|f16|int8|topk] \
                     [--pipelines N] [--ops-push HOST:PORT]"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    assert!(shards >= 1 && shard_index < shards, "--shard-index must be < --shards");
    assert!(pipelines >= 1, "--pipelines must be at least 1");
    ea_comms::Codec::parse(&codec).expect("--codec: f32, f16, int8, or topk");

    let n = pipelines;
    // This server's slice of the reference: stages are split into
    // `shards` contiguous ranges; slice `shard_index` is ours. Workers
    // address shards by *global* id, so the server remembers its base.
    let full = demo::initial_reference();
    let total = full.len();
    assert!(shards <= total, "more servers than reference shards");
    let base = shard_index * total / shards;
    let end = (shard_index + 1) * total / shards;
    // Crash-restart recovery: if the checkpoint file already exists we
    // are a restarted server — reload the reference shards and resume at
    // the recorded round instead of re-initializing. The checkpoint
    // carries the shard map, so a slice server restores its own slice.
    let mut server = match checkpoint.as_deref().filter(|p| p.exists()) {
        Some(path) => {
            let ckpt = RefCheckpoint::load(path).expect("load reference checkpoint");
            println!("RESTORED round={}", ckpt.round);
            RefShardServer::from_checkpoint(&ckpt, n)
        }
        None => {
            let slice: Vec<Vec<f32>> = full.into_iter().skip(base).take(end - base).collect();
            RefShardServer::from_initial_weights(slice, n).with_shard_range(base, total)
        }
    };

    if fault_tolerant {
        let lease = Duration::from_millis(lease_ms);
        server = server.with_fault_tolerance(FtConfig {
            lease,
            reap_interval: lease / 4,
            pull_wait: lease / 8,
            checkpoint: checkpoint.clone().map(|p| (p, lease / 4)),
        });
    }
    let listener = TcpListener::bind(&addr).expect("bind the demo address");
    let reactor = server.serve_reactor(listener, ReactorConfig::default()).expect("start reactor");
    let addr = reactor.local_addr();

    // Fleet observability: keep a flight-recorder window (dumped on
    // SIGUSR1 or a runtime anomaly) and stream this process's trace
    // rings and metrics to the ops collector for the duration of the
    // run.
    let recorder =
        ea_ops::FlightRecorder::new(Duration::from_secs(60), format!("flight-server{shard_index}"));
    recorder.install_sigusr1();
    ea_ops::recorder::register(&recorder);
    let _pusher = ops_push.map(|collector| {
        let collector = collector.parse().expect("--ops-push: HOST:PORT");
        let mut cfg = ea_ops::PusherConfig::new(format!("server{shard_index}"));
        cfg.recorder = Some(Arc::clone(&recorder));
        ea_ops::OpsPusher::spawn(collector, cfg).expect("connect to ops collector")
    });

    // The workers (and the CI smoke tests) wait for this line.
    println!("LISTENING {addr} shards={base}..{end}/{total} codec={codec}");

    // Workers connect, crash, and reconnect in any order. The server is
    // done once every shard has completed the target round and every
    // worker has hung up — so the workers' final reference pulls are
    // answered before it exits.
    while server.shards().iter().any(|s| s.version() < rounds) || reactor.live_connections() > 0 {
        std::thread::sleep(Duration::from_millis(20));
    }
    let m = server.metrics();
    println!(
        "METRICS evictions={} rejoins={} degraded_rounds={} heartbeats={} \
         checkpoints_saved={} disconnects={} protocol_violations={} crc_failures={}",
        m.evictions,
        m.rejoins,
        m.degraded_rounds,
        m.heartbeats,
        m.checkpoints_saved,
        m.disconnects,
        m.protocol_violations,
        m.crc_failures,
    );
    println!("QUORUM live={}/{n}", server.live_count());
    print_checksums(&server, base);
    println!("SERVER DONE after {rounds} rounds");
}

fn print_checksums(server: &RefShardServer, base: usize) {
    for (s, shard) in server.shards().iter().enumerate() {
        let w = shard.snapshot();
        println!("REF_CHECKSUM stage={} {:#010x}", base + s, demo::weights_checksum(&w));
    }
}
