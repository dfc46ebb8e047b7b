//! Train-and-serve: elastic-averaging training and live inference on
//! one reactor, with hot weight swaps at round boundaries.
//!
//! The full deployment loop the serving crate exists for:
//!
//! * a [`RefShardServer`] holds the reference shards;
//! * one listener (reactor fleet) serves **both** protocols — two
//!   `ElasticWorker` pipelines train over it while inference clients
//!   query it;
//! * a [`WeightsSubscriber`] feeds round-boundary weight pushes into
//!   the [`ServeEngine`], which swaps its double-buffered snapshot
//!   atomically — served accuracy climbs *while* requests flow, with
//!   no restart and no mixed-version outputs.
//!
//! ```text
//! cargo run --release --example train_and_serve
//! ```

use std::sync::Arc;
use std::time::Duration;

use ea_comms::reactor::ReactorConfig;
use ea_comms::{RemoteShards, RetryConfig, ShardClient, TcpConfig, TcpTransport};
use ea_data::SyntheticTask;
use ea_models::{analogue_spec, gnmt_analogue, AnalogueConfig};
use ea_optim::{OptKind, Optimizer};
use ea_runtime::{ElasticWorker, RefShardServer};
use ea_serve::{spawn_serving, InferClient, ServeConfig, ServeEngine, WeightsSubscriber};
use ea_tensor::TensorRng;

const CFG: AnalogueConfig = AnalogueConfig { vocab: 16, seq: 6, hidden: 24, blocks: 2, stages: 2 };
const SEED: u64 = 42;
const N_PIPELINES: usize = 2;
const ROUNDS: u64 = 60;

fn model() -> ea_autograd::StagedModel {
    gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(SEED))
}

/// Accuracy of served outputs on a held-out batch: one request per
/// sample, argmax per row against the task targets.
fn served_accuracy(client: &mut InferClient, task: &SyntheticTask, samples: usize) -> (f64, u64) {
    let batch = task.eval_batch(samples, 0);
    let mut hits = 0usize;
    let mut version = 0u64;
    for s in 0..samples {
        let rows = &batch.input.data()[s * CFG.seq..(s + 1) * CFG.seq];
        let outcome = client.infer(rows.to_vec()).expect("infer");
        assert!(!outcome.shed, "eval traffic must not be shed");
        version = outcome.version;
        let vocab = CFG.vocab;
        for (t, row) in outcome.output.chunks(vocab).enumerate() {
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            hits += usize::from(pred == batch.targets[s * CFG.seq + t]);
        }
    }
    (hits as f64 / (samples * CFG.seq) as f64, version)
}

fn main() {
    // Reference shards initialized to the model's starting point.
    let init_model = model();
    let init: Vec<Vec<f32>> =
        (0..init_model.num_stages()).map(|k| init_model.stage(k).params_flat()).collect();
    let server = RefShardServer::from_initial_weights(init, N_PIPELINES);

    // Serving engine: two instances of the same architecture+weights
    // form the double buffer.
    let engine = ServeEngine::start(
        model(),
        model(),
        0,
        &analogue_spec(CFG),
        ServeConfig { input_len: CFG.seq, ..ServeConfig::default() },
    );

    // One listener for everything: trainers, subscribers, inference.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = spawn_serving(
        listener,
        ReactorConfig { threads: 2, ..ReactorConfig::default() },
        Arc::clone(&engine),
        &server,
    )
    .expect("spawn serving reactor");
    let addr = reactor.local_addr();
    let subscriber = WeightsSubscriber::spawn(addr, TcpConfig::default(), Arc::clone(&engine));

    println!("serving + training on {addr} (batch cap {})", engine.batch_cap());

    // Two elastic pipelines train over the same port the inference
    // clients use.
    let trainers: Vec<_> = (0..N_PIPELINES)
        .map(|pipe| {
            std::thread::spawn(move || {
                let conn = TcpTransport::connect(addr, TcpConfig::default()).unwrap();
                let retry = RetryConfig { reply_timeout: Duration::from_secs(10), max_attempts: 5 };
                let client = ShardClient::handshake(Box::new(conn), pipe, retry).unwrap();
                let channel = Arc::new(RemoteShards::new(vec![client]).unwrap());
                let opts: Vec<Box<dyn Optimizer>> =
                    (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect();
                let mut worker = ElasticWorker::new(
                    model().into_stages(),
                    opts,
                    4,
                    1.0 / N_PIPELINES as f32,
                    pipe,
                    channel,
                );
                let task = SyntheticTask::copy_translate(CFG.vocab, CFG.seq, 7);
                let mut loss = f32::NAN;
                for round in 0..ROUNDS {
                    loss = worker
                        .round(&task.batch(16, round * N_PIPELINES as u64 + pipe as u64))
                        .unwrap();
                }
                loss
            })
        })
        .collect();

    // Meanwhile: query the serving side and watch accuracy climb as
    // round-boundary swaps land.
    let task = SyntheticTask::copy_translate(CFG.vocab, CFG.seq, 7);
    let mut client = InferClient::connect(addr, TcpConfig::default()).expect("connect");
    let (acc0, v0) = served_accuracy(&mut client, &task, 16);
    println!("served v{v0}: held-out accuracy {acc0:.3} (untrained)");
    let mut last_version = v0;
    while engine.served_version() < ROUNDS {
        std::thread::sleep(Duration::from_millis(50));
        let v = engine.served_version();
        if v >= last_version + 10 {
            let (acc, ver) = served_accuracy(&mut client, &task, 16);
            println!("served v{ver}: held-out accuracy {acc:.3}");
            last_version = v;
        }
    }

    for (pipe, t) in trainers.into_iter().enumerate() {
        let loss = t.join().expect("trainer panicked");
        println!("pipeline {pipe}: final train loss {loss:.4}");
    }

    let (acc_final, v_final) = served_accuracy(&mut client, &task, 32);
    let slo = engine.slo();
    println!("served v{v_final}: final held-out accuracy {acc_final:.3}");
    println!(
        "SLO: {} served / {} shed, {} swaps, e2e p50 {} µs p99 {} µs, mean batch {:.2}",
        slo.served, slo.shed, slo.swaps, slo.e2e_p50_us, slo.e2e_p99_us, slo.mean_batch
    );
    assert!(slo.swaps > 0, "hot swaps must have landed");
    assert!(
        acc_final > acc0 + 0.1,
        "serving must have picked up trained weights ({acc0:.3} -> {acc_final:.3})"
    );

    subscriber.stop();
    reactor.shutdown_graceful(Duration::from_secs(5));
    engine.shutdown();
    println!("TRAIN_AND_SERVE OK");
}
