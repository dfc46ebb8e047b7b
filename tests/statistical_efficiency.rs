//! Statistical efficiency of the compressed delta wire (end to end).
//!
//! Compressing the elastic exchange only pays if it does not cost
//! convergence: the paper's elastic averaging tolerates perturbed deltas,
//! and the worker's error-feedback accumulator re-injects each round's
//! quantization residual into the next submission, so the *accumulated*
//! update stream is unbiased. This test runs the real worker/server path
//! (TCP to the reactor server on 127.0.0.1, negotiated codec, server-side decode, worker-side
//! error feedback) for every codec and asserts the lossy wires reach the
//! f32 run's target loss within 10% extra rounds.

use std::net::TcpListener;
use std::sync::Arc;

use avgpipe_suite::demo;
use ea_comms::reactor::ReactorConfig;
use ea_comms::{
    Codec, RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig, TcpTransport,
};
use ea_runtime::{ElasticWorker, RefShardServer};

const ROUNDS: usize = 40;

/// Per-round mean worker loss when the demo ensemble trains over the
/// wire with `codec` negotiated in the handshake.
fn losses_with_codec(codec: Codec) -> Vec<f32> {
    let n = demo::N_PIPELINES;
    let server = RefShardServer::from_initial_weights(demo::initial_reference(), n);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let reactor = server.serve_reactor(listener, ReactorConfig::default()).expect("reactor");

    let workers: Vec<_> = (0..n)
        .map(|pipe| {
            let conn =
                TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).expect("connect");
            std::thread::spawn(move || {
                let client = ShardClient::handshake_with_codec(
                    Box::new(conn),
                    pipe,
                    RetryConfig::default(),
                    codec,
                )
                .expect("handshake");
                let channel: Arc<dyn ShardChannel> =
                    Arc::new(RemoteShards::new(vec![client]).expect("channel"));
                assert_eq!(channel.codec(), codec, "server must echo the requested codec");
                let mut worker = ElasticWorker::new(
                    demo::model_stages(),
                    demo::optimizers(),
                    demo::MICROS,
                    demo::alpha(),
                    pipe,
                    channel,
                );
                let task = demo::task();
                (0..ROUNDS as u64)
                    .map(|r| worker.round(&demo::worker_batch(&task, r, pipe)).expect("round"))
                    .collect::<Vec<f32>>()
            })
        })
        .collect();

    let per_worker: Vec<Vec<f32>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    (0..ROUNDS).map(|r| per_worker.iter().map(|l| l[r]).sum::<f32>() / n as f32).collect()
}

/// First round (1-based count) at which the loss curve dips to `target`.
fn rounds_to(losses: &[f32], target: f32) -> Option<usize> {
    losses.iter().position(|&l| l <= target).map(|i| i + 1)
}

#[test]
fn lossy_codecs_match_f32_convergence_within_ten_percent_rounds() {
    let f32_losses = losses_with_codec(Codec::F32);
    assert!(f32_losses.iter().all(|l| l.is_finite()), "f32 run diverged");

    // Target: the loss the uncompressed run attains with a 10%-of-budget
    // reserve left, so a compliant lossy run can land inside the budget.
    let target = f32_losses[ROUNDS - ROUNDS / 10 - 1];
    let base = rounds_to(&f32_losses, target).expect("f32 reaches its own target");
    let budget = ((base as f32) * 1.1).ceil() as usize;
    assert!(budget <= ROUNDS, "budget {budget} must fit the horizon");

    for codec in [Codec::Int8, Codec::TopK] {
        let losses = losses_with_codec(codec);
        assert!(losses.iter().all(|l| l.is_finite()), "{codec:?} run diverged");
        let took = rounds_to(&losses, target);
        assert!(
            took.is_some_and(|r| r <= budget),
            "{codec:?} took {took:?} rounds to reach {target} (f32: {base}, budget: {budget})\n\
             f32 curve: {f32_losses:?}\n{codec:?} curve: {losses:?}"
        );
    }
}

/// f16 deltas are near-exact for the demo's magnitudes: the loss curve
/// must track f32's round for round to well under a quantization step.
#[test]
fn f16_wire_tracks_the_f32_curve_closely() {
    let f32_losses = losses_with_codec(Codec::F32);
    let f16_losses = losses_with_codec(Codec::F16);
    for (r, (a, b)) in f32_losses.iter().zip(&f16_losses).enumerate() {
        assert!(
            (a - b).abs() <= 2e-2 * a.abs().max(1.0),
            "round {r}: f16 loss {b} drifted from f32 loss {a}"
        );
    }
}
