//! One worker pipeline of the two-process elastic-averaging demo.
//!
//! Connects to a running `elastic_server`, performs the version handshake
//! and trains its pipeline for the demo's fixed number of rounds, pulling
//! the reference and shipping deltas over TCP. Afterwards it prints the
//! final reference checksums (matching the server's) and, with
//! `--verify-local`, replays the identical workload on the in-process
//! trainer and asserts the losses and reference weights agree bit for bit
//! — printing `VERIFY OK`, which the CI smoke test greps for.
//!
//! `--faults` wraps the connection in the fault-injection shim (10% drop,
//! 10% delay, 10% duplicate): training must still converge to the same
//! bytes, because requests are retried and submissions are idempotent.
//!
//! Against a sharded deployment, pass `--addr` once per server: the
//! worker handshakes with every server, validates that their shard
//! ranges tile the reference, and scatter-gathers each round across
//! them. `--codec f16|int8|topk` negotiates a compressed delta wire;
//! lossy codecs route the quantization error through the worker's
//! error-feedback accumulator, so `--verify-local`'s bit-exact check is
//! only run for `f32`. `--pipelines N` sizes the ensemble (default: the
//! demo's 2; must match the server's flag).
//!
//! Fault-tolerance flags (for a `--fault-tolerant` server):
//!
//! * `--tolerate-faults` wraps the pipeline in [`SupervisedWorker`]:
//!   comms failures are retried with backoff through reconnect + resync,
//!   and past the retry budget the worker degrades to local-only steps.
//! * `--rejoin` resyncs to the server's current reference and round
//!   before training — how a restarted worker re-enters the quorum.
//! * `--crash-at-round K` aborts the process the moment round `K`
//!   completes (the kill half of the kill-and-rejoin script).
//! * `--target-rounds R` / `--round-delay-ms MS` control how far and how
//!   fast the worker runs; the delay leaves the chaos script time to kill
//!   and restart peers mid-training.
//!
//! ```text
//! cargo run --release --example elastic_worker -- --addr 127.0.0.1:7070 --pipe 0 --verify-local
//! ```

use avgpipe_suite::demo;
use ea_comms::{
    Codec, CommsError, FaultConfig, FaultyTransport, QuorumInfo, RemoteShards, RetryConfig,
    ShardChannel, ShardClient, TcpConfig, TcpTransport, Transport,
};
use ea_runtime::{ElasticWorker, SupervisedWorker, SupervisorConfig, WorkerMode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wraps a channel with a submit-path delay that scales with this
/// worker's own round time — the straggler-injection knob
/// (`--slow-factor`) for the ops e2e test. Before each submit it sleeps
/// `factor` × (the time since the round's pull returned + the previous
/// submit's duration), so the worker's own time (compute + submit)
/// grows about `1 + factor`-fold however fast the build or the host is.
/// The sleep lands inside the worker's per-round submit span, so the
/// collector-side timeline shows this pipeline genuinely lagging.
struct SlowChannel {
    inner: Arc<dyn ShardChannel>,
    factor: f64,
    /// When the last pull returned, and how long the last submit took.
    last: Mutex<(Option<Instant>, Duration)>,
}

impl SlowChannel {
    fn pulled(&self) {
        self.last.lock().unwrap().0 = Some(Instant::now());
    }

    /// Sleeps the injected lag, runs `submit`, and records its duration.
    fn lagged<T>(&self, submit: impl FnOnce() -> T) -> T {
        let (pulled, last_submit) = *self.last.lock().unwrap();
        let own = pulled.map_or(Duration::ZERO, |t| t.elapsed()) + last_submit;
        std::thread::sleep(own.mul_f64(self.factor));
        let t0 = Instant::now();
        let out = submit();
        self.last.lock().unwrap().1 = t0.elapsed();
        out
    }
}

impl ShardChannel for SlowChannel {
    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }
    fn pull(&self, pipe: usize, shard: usize, version: u64) -> Result<Vec<f32>, CommsError> {
        let out = self.inner.pull(pipe, shard, version);
        self.pulled();
        out
    }
    fn submit(
        &self,
        pipe: usize,
        shard: usize,
        round: u64,
        delta: Vec<f32>,
    ) -> Result<(), CommsError> {
        self.lagged(|| self.inner.submit(pipe, shard, round, delta))
    }
    fn pull_latest(&self, pipe: usize, shard: usize) -> Result<(u64, Vec<f32>), CommsError> {
        let out = self.inner.pull_latest(pipe, shard);
        self.pulled();
        out
    }
    fn heartbeat(&self, pipe: usize, round: u64) -> Result<QuorumInfo, CommsError> {
        self.inner.heartbeat(pipe, round)
    }
    fn codec(&self) -> Codec {
        self.inner.codec()
    }
    fn pull_all(&self, pipe: usize, version: u64) -> Result<Vec<Vec<f32>>, CommsError> {
        let out = self.inner.pull_all(pipe, version);
        self.pulled();
        out
    }
    fn submit_all(&self, pipe: usize, round: u64, deltas: Vec<Vec<f32>>) -> Result<(), CommsError> {
        // One lag per round, not per shard: override the serial default
        // so the injected lag is independent of the shard map.
        self.lagged(|| self.inner.submit_all(pipe, round, deltas))
    }
}

fn connect_channel(
    addrs: &[String],
    pipe: usize,
    faults: bool,
    retry: RetryConfig,
    codec: Codec,
) -> Result<Arc<dyn ShardChannel>, CommsError> {
    // One connection per shard server; RemoteShards validates that the
    // advertised ranges tile the reference and scatter-gathers across
    // them (a single server degenerates to the point-to-point path).
    let mut clients = Vec::with_capacity(addrs.len());
    for (i, addr) in addrs.iter().enumerate() {
        let tcp = TcpTransport::connect(addr, TcpConfig::default())?;
        let conn: Box<dyn Transport> = if faults {
            // Seed per pipeline and per server so every link drops
            // different frames.
            let seed = 0xFA17 + pipe as u64 * 31 + i as u64;
            Box::new(FaultyTransport::new(tcp, FaultConfig::lossy_10(), seed))
        } else {
            Box::new(tcp)
        };
        clients.push(ShardClient::handshake_with_codec(conn, pipe, retry, codec)?);
    }
    Ok(Arc::new(RemoteShards::sharded(vec![clients])?))
}

fn main() {
    let mut addrs: Vec<String> = Vec::new();
    let mut codec = Codec::F32;
    let mut pipe: Option<usize> = None;
    let mut pipelines = demo::N_PIPELINES;
    let mut verify_local = false;
    let mut faults = false;
    let mut tolerate_faults = false;
    let mut rejoin = false;
    let mut target_rounds: u64 = demo::ROUNDS;
    let mut round_delay = Duration::ZERO;
    let mut crash_at_round: Option<u64> = None;
    let mut ops_push: Option<String> = None;
    let mut slow_factor: f64 = 0.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addrs.push(args.next().expect("--addr needs a value")),
            "--codec" => {
                let name = args.next().expect("--codec needs a value");
                codec = Codec::parse(&name).expect("--codec: f32, f16, int8, or topk")
            }
            "--pipe" => {
                pipe = Some(
                    args.next().expect("--pipe needs a value").parse().expect("--pipe: integer"),
                )
            }
            "--pipelines" => {
                pipelines = args
                    .next()
                    .expect("--pipelines needs a value")
                    .parse()
                    .expect("--pipelines: integer worker count")
            }
            "--verify-local" => verify_local = true,
            "--faults" => faults = true,
            "--tolerate-faults" => tolerate_faults = true,
            "--rejoin" => rejoin = true,
            "--target-rounds" => {
                target_rounds = args
                    .next()
                    .expect("--target-rounds needs a value")
                    .parse()
                    .expect("--target-rounds: integer")
            }
            "--round-delay-ms" => {
                round_delay = Duration::from_millis(
                    args.next()
                        .expect("--round-delay-ms needs a value")
                        .parse()
                        .expect("--round-delay-ms: integer milliseconds"),
                )
            }
            "--crash-at-round" => {
                crash_at_round = Some(
                    args.next()
                        .expect("--crash-at-round needs a value")
                        .parse()
                        .expect("--crash-at-round: integer"),
                )
            }
            "--ops-push" => {
                ops_push = Some(args.next().expect("--ops-push needs a collector HOST:PORT"))
            }
            "--slow-factor" => {
                slow_factor = args
                    .next()
                    .expect("--slow-factor needs a value")
                    .parse()
                    .expect("--slow-factor: a multiple of the worker's own round time")
            }
            "--help" | "-h" => {
                println!(
                    "usage: elastic_worker --pipe N [--addr HOST:PORT]... \
                     [--codec f32|f16|int8|topk] [--pipelines N] [--verify-local] \
                     [--faults] [--tolerate-faults] [--rejoin] [--target-rounds R] \
                     [--round-delay-ms MS] [--crash-at-round K] \
                     [--ops-push HOST:PORT] [--slow-factor F]"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let pipe = pipe.expect("--pipe is required (0-based pipeline id)");
    assert!(pipe < pipelines, "pipe out of range");
    assert!(
        !verify_local || pipelines == demo::N_PIPELINES,
        "--verify-local replays the {}-pipeline demo baseline",
        demo::N_PIPELINES
    );
    if addrs.is_empty() {
        addrs.push("127.0.0.1:7070".to_string());
    }

    // A fault-tolerant server answers pulls within its bounded wait and
    // relies on client retransmission, so give the retry budget headroom.
    let retry = if tolerate_faults {
        RetryConfig { reply_timeout: Duration::from_millis(200), max_attempts: 50 }
    } else {
        RetryConfig::default()
    };
    // Fleet observability: keep a flight-recorder window (dumped on
    // SIGUSR1 or a runtime anomaly) and stream this process's trace
    // rings and metrics to the ops collector for the duration of the
    // run.
    let recorder =
        ea_ops::FlightRecorder::new(Duration::from_secs(60), format!("flight-worker{pipe}"));
    recorder.install_sigusr1();
    ea_ops::recorder::register(&recorder);
    let _pusher = ops_push.map(|collector| {
        let collector = collector.parse().expect("--ops-push: HOST:PORT");
        let mut cfg = ea_ops::PusherConfig::new(format!("worker{pipe}"));
        cfg.recorder = Some(Arc::clone(&recorder));
        ea_ops::OpsPusher::spawn(collector, cfg).expect("connect to ops collector")
    });

    let mut channel =
        connect_channel(&addrs, pipe, faults, retry, codec).expect("connect to server");
    if slow_factor > 0.0 {
        let last = Mutex::new((None, Duration::ZERO));
        channel = Arc::new(SlowChannel { inner: channel, factor: slow_factor, last });
    }

    let task = demo::task();
    let mut worker = ElasticWorker::new(
        demo::model_stages(),
        demo::optimizers(),
        demo::MICROS,
        demo::alpha_n(pipelines),
        pipe,
        channel,
    );
    if rejoin {
        // Re-enter the quorum: adopt the server's current reference and
        // round so our next submit lands at the live round boundary.
        let round = worker.resync().expect("resync with server");
        println!("REJOIN pipe={pipe} round={round}");
    }

    if tolerate_faults {
        let factory_addrs = addrs.clone();
        // A SIGKILLed *server* stays down for whole seconds before its
        // restart; spend the waiting in cheap fail-reconnect cycles
        // instead of exhausting the default budget and going local-only.
        let sup_cfg = SupervisorConfig {
            max_comms_failures: 12,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
            adapt_alpha: false,
        };
        let mut sup = SupervisedWorker::new(
            worker,
            Box::new(move || connect_channel(&factory_addrs, pipe, faults, retry, codec)),
            sup_cfg,
        );
        let mut last_loss = f32::NAN;
        while sup.rounds_done() < target_rounds {
            let r = sup.rounds_done();
            let batch = demo::worker_batch_n(&task, r, pipe, pipelines);
            let report = sup.round(&batch).expect("supervised round failed");
            last_loss = report.loss;
            println!(
                "pipe {pipe} round {r}: loss {:.6} mode={:?} retries={}",
                report.loss, report.mode, report.retries
            );
            if report.mode == WorkerMode::LocalOnly {
                // The demo wants quorum behavior, not a silent solo run.
                panic!("pipe {pipe} lost the server past its retry budget");
            }
            if crash_at_round == Some(r) {
                println!("CRASHING pipe={pipe} at round {r}");
                // Simulate a hard crash: no destructors, no goodbyes.
                std::process::abort();
            }
            if !round_delay.is_zero() {
                std::thread::sleep(round_delay);
            }
        }
        println!("FINAL_LOSS pipe={pipe} {last_loss:.6}");
        // Degraded rounds renormalize over survivors, so byte-exactness
        // versus the fault-free baseline no longer holds; finishing all
        // rounds with finite losses while staying elastic is the check.
        assert!(last_loss.is_finite(), "loss diverged");
        println!("VERIFY OK pipe={pipe} mode=ft");
        return;
    }

    let mut losses = Vec::new();
    for r in 0..target_rounds {
        let batch = demo::worker_batch_n(&task, r, pipe, pipelines);
        let loss = worker.round(&batch).expect("round failed");
        println!("pipe {pipe} round {r}: loss {loss:.6}");
        losses.push(loss);
        if crash_at_round == Some(r) {
            println!("CRASHING pipe={pipe} at round {r}");
            std::process::abort();
        }
        if !round_delay.is_zero() {
            std::thread::sleep(round_delay);
        }
    }
    println!("FINAL_LOSS pipe={pipe} {:.6}", losses.last().unwrap());

    // Pull the post-training reference and print the same checksums the
    // server prints.
    let final_refs: Vec<Vec<f32>> = (0..demo::CFG.stages)
        .map(|s| worker.pull_reference(s).expect("final reference pull"))
        .collect();
    for (s, w) in final_refs.iter().enumerate() {
        println!("REF_CHECKSUM stage={s} {:#010x}", demo::weights_checksum(w));
    }

    if verify_local {
        let (local_losses, local_refs) = demo::run_local_baseline();
        // This worker saw its own per-pipeline losses; the baseline
        // reports the mean — compare the reference weights (bit-exact)
        // and this pipeline's replica parameters instead. A lossy codec
        // quantizes every delta, so exactness only holds for f32; the
        // compressed runs check the references stayed close instead.
        for s in 0..demo::CFG.stages {
            if codec == Codec::F32 {
                assert_eq!(
                    final_refs[s], local_refs[s],
                    "stage {s}: remote reference differs from the in-process trainer"
                );
            } else {
                let dist: f32 = final_refs[s]
                    .iter()
                    .zip(&local_refs[s])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt();
                let norm: f32 = local_refs[s].iter().map(|v| v * v).sum::<f32>().sqrt();
                assert!(
                    dist <= 0.05 * norm.max(1.0),
                    "stage {s}: compressed reference drifted {dist} from the f32 baseline"
                );
            }
        }
        assert!(local_losses.iter().all(|l| l.is_finite()), "local baseline diverged");
        println!("VERIFY OK pipe={pipe} codec={}", codec.name());
    }
}
