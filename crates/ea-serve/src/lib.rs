//! ea-serve: elastic inference serving over the AvgPipe runtime.
//!
//! The paper trains with elastic averaging; this crate closes the loop
//! by *serving* the model those pipelines are producing — while they
//! are still producing it. Three ideas, each reusing a training-side
//! mechanism rather than inventing a serving-only one:
//!
//! * **Dynamic micro-batching from the §5 cost model.** The tuner
//!   picks training micro-batch counts from a measured
//!   arithmetic-intensity profile; serving reads the same demand curve
//!   from the other end. [`avgpipe::serve_batch_cap`] turns the curve
//!   plus startup-calibrated forward timings into a batch cap, and the
//!   [`Batcher`] hands an idle executor every queued request up to that
//!   cap, without waiting for more — batch=1 service under light load,
//!   batches that grow toward the cap under pressure, load-shedding past
//!   the admission bound.
//!
//! * **Hot weight swap at elastic round boundaries.** A serving
//!   replica subscribes to the live reference shards
//!   (`SubscribeWeights`/`WeightsUpdate`, the PR 6 wire extension) via
//!   [`WeightsSubscriber`]. Incoming shard payloads stage in a
//!   [`SnapshotStore`] and swap in atomically only when *every* shard
//!   reached the same version — which is exactly a round boundary, the
//!   one moment a composite model exists in training. Readers are
//!   wait-free (double-buffered `Arc` rotation); no request ever sees
//!   mixed-version weights.
//!
//! * **One reactor fleet for trainers and inference.**
//!   [`ServeDispatch`] composes the engine with ea-runtime's trainer
//!   dispatch on a single epoll reactor: `Infer` routes to the
//!   admission queue, everything else to the elastic-averaging
//!   protocol. SLO accounting (queue/exec/e2e latency histograms,
//!   served/shed counters) lands in an `ea-trace` registry exported
//!   through the existing Prometheus path.
//!
//! Construction: [`ServeEngine::start`] with two instances of the
//! model (the double buffer), then [`spawn_serving`] for the network
//! frontend and [`WeightsSubscriber::spawn`] for the trainer feed. See
//! `examples/train_and_serve.rs` for the full loop.

mod batcher;
mod client;
mod dispatch;
mod engine;
mod snapshot;

pub use batcher::{Admission, Batcher, InferRequest};
pub use client::{InferClient, InferOutcome, SubscriberHandle, WeightsSubscriber};
pub use dispatch::{spawn_serving, ServeDispatch};
pub use engine::{Completion, ServeConfig, ServeEngine, SloSnapshot};
pub use snapshot::{ServedSnapshot, SnapshotStore};
