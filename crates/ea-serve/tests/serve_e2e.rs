//! End-to-end hot weight swap under live inference traffic.
//!
//! One reactor listener serves both protocols: a trainer drives elastic
//! rounds through `ShardClient` while inference clients hammer `Infer`
//! over the same port and a `WeightsSubscriber` (connected to that same
//! port) feeds round-boundary pushes into the engine. The assertions
//! are the serving system's core guarantees:
//!
//! * **Bit-exactness per version** — every reply must be bit-identical
//!   to a fresh forward pass through a reference model reconstructed
//!   from that version's reference-shard weights. Pre-swap replies
//!   match the initial weights; post-swap replies match the weights
//!   the elastic round actually produced.
//! * **Atomicity** — a reply claiming version `v` must match version
//!   `v`'s model *exactly*; a torn swap (stage 0 new, stage 1 old)
//!   would match neither version and fail the bitwise check. The
//!   background hammer thread keeps traffic in flight *during* the
//!   swap to give a torn read every chance to happen.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ea_comms::reactor::ReactorConfig;
use ea_comms::tcp::{TcpConfig, TcpTransport};
use ea_comms::{RetryConfig, ShardClient};
use ea_models::{gnmt_analogue, AnalogueConfig};
use ea_runtime::RefShardServer;
use ea_serve::{spawn_serving, InferClient, ServeConfig, ServeEngine, WeightsSubscriber};
use ea_tensor::{Tensor, TensorRng};

const CFG: AnalogueConfig = AnalogueConfig { vocab: 16, seq: 6, hidden: 8, blocks: 2, stages: 2 };
const SEED: u64 = 41;

fn model() -> ea_autograd::StagedModel {
    let mut rng = TensorRng::seed_from_u64(SEED);
    gnmt_analogue(CFG, &mut rng)
}

/// Token-id input for request `i`.
fn request_input(i: u64) -> Vec<f32> {
    (0..CFG.seq).map(|j| ((i as usize * 5 + j * 3) % CFG.vocab) as f32).collect()
}

/// Forward `input` through a model carrying `weights` (one flat vector
/// per stage), returning the logits.
fn reference_forward(weights: &[Vec<f32>], input: &[f32]) -> Vec<f32> {
    let mut m = model();
    for (k, w) in weights.iter().enumerate() {
        m.stage_mut(k).set_params_flat(w);
    }
    m.forward_eval(&Tensor::from_vec(input.to_vec(), &[input.len()])).into_vec()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} differs ({g} vs {w})");
    }
}

#[test]
fn mid_traffic_hot_swap_is_atomic_and_bit_exact() {
    // The model being trained and served: two stages, one shard each.
    let trained = model();
    let init: Vec<Vec<f32>> =
        (0..trained.num_stages()).map(|k| trained.stage(k).params_flat()).collect();

    // Trainer-side reference shards, one pipeline (rounds complete on a
    // single submission per shard).
    let server = RefShardServer::from_initial_weights(init.clone(), 1);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();

    // Serving engine: double buffer of the same architecture + weights.
    let engine = ServeEngine::start(
        model(),
        model(),
        0,
        &ea_models::analogue_spec(CFG),
        ServeConfig { input_len: CFG.seq, ..ServeConfig::default() },
    );
    let reactor = spawn_serving(
        listener,
        ReactorConfig { threads: 2, ..ReactorConfig::default() },
        Arc::clone(&engine),
        &server,
    )
    .unwrap();
    let addr = reactor.local_addr();

    // The hot-swap feed subscribes over the same listener.
    let subscriber = WeightsSubscriber::spawn(addr, TcpConfig::default(), Arc::clone(&engine));

    // Background hammer: keeps requests in flight across the swap, and
    // records (version, input-id, output) for post-hoc verification.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = InferClient::connect(addr, TcpConfig::default()).unwrap();
            let mut log: Vec<(u64, u64, Vec<f32>)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let outcome = client.infer(request_input(i)).unwrap();
                if !outcome.shed {
                    log.push((outcome.version, i, outcome.output));
                }
                i += 1;
            }
            log
        })
    };

    // Phase 1: the served version is 0; replies must match the initial
    // weights bitwise.
    let mut client = InferClient::connect(addr, TcpConfig::default()).unwrap();
    for i in 100..108u64 {
        let outcome = client.infer(request_input(i)).unwrap();
        assert!(!outcome.shed, "unloaded server must not shed");
        assert_eq!(outcome.version, 0);
        assert_bits_eq(
            &outcome.output,
            &reference_forward(&init, &request_input(i)),
            "pre-swap reply",
        );
    }

    // Phase 2: complete one elastic round — the trainer submits a delta
    // per shard, advancing every shard to version 1.
    {
        let conn = TcpTransport::connect(addr, TcpConfig::default()).unwrap();
        let retry = RetryConfig { reply_timeout: Duration::from_secs(5), max_attempts: 10 };
        let mut trainer = ShardClient::handshake(Box::new(conn), 0, retry).unwrap();
        for (shard, w) in init.iter().enumerate() {
            let delta: Vec<f32> = (0..w.len()).map(|j| 0.01 + (j % 7) as f32 * 1e-3).collect();
            trainer.pull(shard, 0).unwrap();
            trainer.submit(shard, 0, delta).unwrap();
        }
    }

    // The push propagates: subscriber → engine → snapshot swap.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.served_version() < 1 {
        assert!(Instant::now() < deadline, "hot swap did not land");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Phase 3: post-swap replies must match the *trained* reference
    // weights — fresh forward through a model rebuilt from the shards.
    let new_weights: Vec<Vec<f32>> =
        server.shards().iter().map(|sh| sh.versioned_snapshot().1).collect();
    assert_ne!(new_weights[0], init[0], "round must have changed the reference");
    for i in 200..208u64 {
        let outcome = client.infer(request_input(i)).unwrap();
        assert!(!outcome.shed);
        assert_eq!(outcome.version, 1, "post-swap replies must serve version 1");
        assert_bits_eq(
            &outcome.output,
            &reference_forward(&new_weights, &request_input(i)),
            "post-swap reply",
        );
    }

    // The hammer ran across the swap: every logged reply must match its
    // claimed version's model exactly — a torn (mixed-stage) snapshot
    // matches neither and fails here.
    stop.store(true, Ordering::Relaxed);
    let log = hammer.join().unwrap();
    let mut versions_seen = std::collections::BTreeSet::new();
    for (version, i, output) in &log {
        versions_seen.insert(*version);
        let weights = match version {
            0 => &init,
            1 => &new_weights,
            v => panic!("reply claims unknown version {v}"),
        };
        assert_bits_eq(
            output,
            &reference_forward(weights, &request_input(*i)),
            &format!("hammer reply v{version} (request {i})"),
        );
    }
    assert!(!log.is_empty(), "hammer produced no traffic");
    assert!(versions_seen.contains(&1), "hammer never observed the swap");

    assert_eq!(engine.slo().swaps, 1);
    let m = server.metrics();
    assert_eq!(m.protocol_violations, 0);
    assert_eq!(m.crc_failures, 0);

    subscriber.stop();
    reactor.shutdown_graceful(Duration::from_secs(5));
    engine.shutdown();
}

/// Regression test: a remote `Infer` frame carrying values the model
/// cannot consume (out-of-vocabulary token ids, NaN, infinities) must be
/// answered with a `shed` reply — not panic the executor thread, which
/// would leave every later accepted request blocking forever and make
/// shutdown propagate the panic.
#[test]
fn malformed_remote_infer_is_shed_and_serving_survives() {
    let trained = model();
    let init: Vec<Vec<f32>> =
        (0..trained.num_stages()).map(|k| trained.stage(k).params_flat()).collect();
    let server = RefShardServer::from_initial_weights(init.clone(), 1);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let engine = ServeEngine::start(
        model(),
        model(),
        0,
        &ea_models::analogue_spec(CFG),
        ServeConfig { input_len: CFG.seq, ..ServeConfig::default() },
    );
    let reactor =
        spawn_serving(listener, ReactorConfig::default(), Arc::clone(&engine), &server).unwrap();
    let mut client = InferClient::connect(reactor.local_addr(), TcpConfig::default()).unwrap();

    // Every malformed shape the wire can carry: wrong length, token id
    // at/above vocab, negative id, NaN, infinity.
    let vocab = CFG.vocab as f32;
    let malformed: Vec<Vec<f32>> = vec![
        vec![0.0; CFG.seq - 1],
        {
            let mut v = request_input(0);
            v[0] = vocab;
            v
        },
        {
            let mut v = request_input(1);
            v[2] = -1.0;
            v
        },
        {
            let mut v = request_input(2);
            v[1] = f32::NAN;
            v
        },
        {
            let mut v = request_input(3);
            v[3] = f32::INFINITY;
            v
        },
    ];
    for (n, input) in malformed.into_iter().enumerate() {
        let outcome = client.infer(input).unwrap();
        assert!(outcome.shed, "malformed request {n} must be shed, not served");
        assert!(outcome.output.is_empty());
    }
    assert_eq!(engine.slo().shed, 5);

    // The executor survived: valid traffic on the same connection is
    // still served bit-exactly.
    for i in 0..4u64 {
        let outcome = client.infer(request_input(i)).unwrap();
        assert!(!outcome.shed, "valid request {i} shed after malformed traffic");
        assert_bits_eq(
            &outcome.output,
            &reference_forward(&init, &request_input(i)),
            "post-malformed reply",
        );
    }

    // Pre-fix this join panicked with "serving executor panicked".
    reactor.shutdown_graceful(Duration::from_secs(5));
    engine.shutdown();
}
