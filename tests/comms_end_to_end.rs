//! End-to-end tests for the transport-backed elastic trainer: the same
//! training loop over the in-process shards and over TCP to the reactor
//! server on the loopback interface — with one and with two event-loop
//! threads, and with faults injected into both directions of every
//! connection — must produce byte-identical losses and reference weights.

use avgpipe_suite::demo;
use ea_comms::reactor::{Reactor, ReactorConfig};
use ea_comms::{
    FaultConfig, FaultyTransport, RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig,
    TcpTransport, Transport,
};
use ea_data::Batch;
use ea_models::gnmt_analogue;
use ea_runtime::{ElasticTrainer, RefShardServer};
use ea_tensor::TensorRng;
use std::net::TcpListener;
use std::sync::Arc;

/// Builds the demo trainer over an arbitrary shard channel.
fn trainer_with(channel: Arc<dyn ShardChannel>) -> ElasticTrainer {
    let stages = (0..demo::N_PIPELINES).map(|_| demo::model_stages()).collect();
    let opts = (0..demo::N_PIPELINES).map(|_| demo::optimizers()).collect();
    let eval = gnmt_analogue(demo::CFG, &mut TensorRng::seed_from_u64(demo::MODEL_SEED));
    ElasticTrainer::with_channel(stages, opts, demo::MICROS, Some(demo::alpha()), eval, channel)
}

/// Runs `rounds` demo rounds; returns per-round losses and final
/// references.
fn run(trainer: &mut ElasticTrainer, rounds: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    let task = demo::task();
    let losses = (0..rounds)
        .map(|r| {
            let batches: Vec<Batch> =
                (0..demo::N_PIPELINES).map(|p| demo::worker_batch(&task, r, p)).collect();
            trainer.round(&batches)
        })
        .collect();
    let refs = (0..demo::CFG.stages).map(|s| trainer.reference(s)).collect();
    (losses, refs)
}

/// Serves the demo's initial reference on a reactor with `threads`
/// event loops, bound to an ephemeral loopback port.
fn serve(threads: usize) -> (RefShardServer, Reactor) {
    let server = RefShardServer::from_initial_weights(demo::initial_reference(), demo::N_PIPELINES);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = server.serve_reactor(listener, ReactorConfig { threads, ..Default::default() });
    (server, reactor.unwrap())
}

/// A trainer whose pipelines each reach the server over their own
/// connection, built by `wrap` from a fresh TCP stream.
fn remote_trainer(
    reactor: &Reactor,
    retry: RetryConfig,
    wrap: impl Fn(usize, TcpTransport) -> Box<dyn Transport>,
) -> ElasticTrainer {
    let clients: Vec<ShardClient> = (0..demo::N_PIPELINES)
        .map(|p| {
            let conn = TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap();
            ShardClient::handshake(wrap(p, conn), p, retry).unwrap()
        })
        .collect();
    trainer_with(Arc::new(RemoteShards::new(clients).unwrap()))
}

fn run_local(rounds: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    run(&mut demo::local_trainer(), rounds)
}

fn assert_identical(
    (losses, refs): (Vec<f32>, Vec<Vec<f32>>),
    (base_losses, base_refs): (Vec<f32>, Vec<Vec<f32>>),
) {
    assert_eq!(losses, base_losses, "per-round losses must be byte-identical");
    for (s, (a, b)) in refs.iter().zip(&base_refs).enumerate() {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "stage {s} reference weights differ"
        );
    }
}

/// Two event loops: the pipelines' connections land on different reactor
/// threads, so parked pulls are answered across threads.
#[test]
fn loopback_training_is_byte_identical_to_in_process() {
    let rounds = 4;
    let (_server, reactor) = serve(2);
    let mut trainer = remote_trainer(&reactor, RetryConfig::default(), |_, conn| Box::new(conn));
    assert_identical(run(&mut trainer, rounds), run_local(rounds));
}

#[test]
fn tcp_training_is_byte_identical_to_in_process() {
    let rounds = 4;
    let (_server, reactor) = serve(1);
    let mut trainer = remote_trainer(&reactor, RetryConfig::default(), |_, conn| Box::new(conn));
    assert_identical(run(&mut trainer, rounds), run_local(rounds));
}

/// The acceptance test of the fault-injection shim: 10% drop, 10% delay,
/// 10% duplicate on *both* directions of every connection, and training
/// still produces bit-for-bit the in-process result — retries make
/// delivery at-least-once, idempotent submissions make it effectively
/// exactly-once.
#[test]
fn faulty_tcp_training_is_byte_identical_at_ten_percent_loss() {
    let rounds = 3;
    let (_server, reactor) = serve(1);
    // Tight reply timeout so dropped messages retransmit quickly.
    let retry =
        RetryConfig { reply_timeout: std::time::Duration::from_millis(100), max_attempts: 30 };
    // Requests and replies alike are dropped, delayed and duplicated:
    // the shim injects faults on receive as well as on send.
    let mut trainer = remote_trainer(&reactor, retry, |p, conn| {
        Box::new(FaultyTransport::new(conn, FaultConfig::lossy_10(), 100 + p as u64))
    });
    assert_identical(run(&mut trainer, rounds), run_local(rounds));
}
