//! The serving executor: one worker thread running forward-only passes
//! over micro-batches of queued requests against the current weight
//! snapshot.
//!
//! Ties the pieces together:
//!
//! * a [`Batcher`] admits requests and hands the executor everything
//!   queued, as soon as it is idle, up to a **batch cap** computed by
//!   [`avgpipe::serve_batch_cap`] from the model's §5
//!   arithmetic-intensity profile and a *measured* cost model —
//!   calibrated at startup by timing real forward passes at a few
//!   batch sizes;
//! * a [`SnapshotStore`] supplies the model: the worker grabs one
//!   snapshot per batch, so every request in a batch is served by one
//!   consistent weight version (hot swaps land *between* batches);
//! * completions queue up for the frontend ([`drain_completions`]),
//!   with an optional waker poking the event loop that owns the batch's
//!   connection, so replies do not wait out a poll interval;
//! * SLO accounting lands in a private [`ea_trace::Registry`]
//!   (`queue`/`exec`/end-to-end latency histograms, served/shed
//!   counters), exportable as Prometheus text.
//!
//! [`drain_completions`]: ServeEngine::drain_completions

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avgpipe::serve_batch_cap;
use ea_autograd::StagedModel;
use ea_comms::reactor::ConnId;
use ea_models::ModelSpec;
use ea_tensor::Tensor;
use ea_trace::metrics::{Counter, Histogram, Registry};

use crate::batcher::{Admission, Batcher, InferRequest};
use crate::snapshot::SnapshotStore;

/// Told the connection of a finished batch's first request (see
/// [`ServeEngine::set_waker`]).
type CompletionWaker = Box<dyn Fn(ConnId) + Send + Sync>;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Required input length (rows) per request — `seq` for the token
    /// models. Requests of any other length are shed at admission.
    pub input_len: usize,
    /// Admission bound: requests queued beyond this are shed.
    pub queue_cap: usize,
    /// Per-batch forward execution budget (µs) for the latency side of
    /// [`serve_batch_cap`]; `f64::INFINITY` disables it.
    pub batch_budget_us: f64,
    /// Batch sizes timed at startup to calibrate the cost model. Empty
    /// skips calibration (the demand-curve cutoff alone decides).
    pub calibration_sizes: Vec<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            input_len: 1,
            queue_cap: 1024,
            batch_budget_us: f64::INFINITY,
            calibration_sizes: vec![1, 2, 4, 8],
        }
    }
}

/// A finished (or shed) request, ready to answer.
pub struct Completion {
    /// Connection tag the request arrived on.
    pub conn: ConnId,
    /// Client correlation id.
    pub id: u64,
    /// Weight version that served the request.
    pub version: u64,
    /// Flat output rows; empty when shed.
    pub output: Vec<f32>,
    /// True if the request was dropped rather than served.
    pub shed: bool,
}

/// Point-in-time SLO summary from the engine's histograms.
#[derive(Clone, Copy, Debug)]
pub struct SloSnapshot {
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Hot weight swaps applied.
    pub swaps: u64,
    /// End-to-end (admission → completion queued) latency percentiles, µs.
    pub e2e_p50_us: u64,
    /// 95th percentile end-to-end latency, µs.
    pub e2e_p95_us: u64,
    /// 99th percentile end-to-end latency, µs.
    pub e2e_p99_us: u64,
    /// 99th percentile forward-pass execution time, µs.
    pub exec_p99_us: u64,
    /// Mean micro-batch size (requests per forward).
    pub mean_batch: f64,
}

/// Forward-only serving engine. Construct with [`ServeEngine::start`];
/// it owns a worker thread until [`shutdown`](ServeEngine::shutdown).
pub struct ServeEngine {
    store: SnapshotStore,
    batcher: Batcher,
    cfg: ServeConfig,
    /// Token-id domain of the served model's first layer (`None` for
    /// dense inputs); admission validates against it.
    vocab: Option<usize>,
    batch_cap: AtomicUsize,
    completions: Mutex<VecDeque<Completion>>,
    waker: Mutex<Option<CompletionWaker>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    registry: Registry,
    queue_us: Histogram,
    exec_us: Histogram,
    e2e_us: Histogram,
    batch_rows: Histogram,
    served: Counter,
    shed: Counter,
    batches: Counter,
    swaps: Counter,
}

impl ServeEngine {
    /// Calibrates, sizes the batch cap, and spawns the worker thread.
    ///
    /// `active` and `spare` are two instances of the same architecture
    /// (the double buffer); `active`'s parameters serve until the first
    /// hot swap. `spec` is the model's cost-model twin (e.g.
    /// [`ea_models::analogue_spec`]) supplying the demand curve.
    pub fn start(
        active: StagedModel,
        spare: StagedModel,
        initial_version: u64,
        spec: &ModelSpec,
        cfg: ServeConfig,
    ) -> Arc<ServeEngine> {
        assert!(cfg.input_len >= 1, "input_len must be positive");
        let vocab = active.input_vocab();
        let store = SnapshotStore::new(active, spare, initial_version);

        // Calibrate: time real forwards at a few sizes. One warmup per
        // size, then the mean of 3 timed runs — enough signal for a
        // piecewise-linear cost model without delaying startup.
        let mut measured: Vec<(usize, f64)> = Vec::new();
        {
            let snap = store.current();
            let mut sizes = cfg.calibration_sizes.clone();
            sizes.sort_unstable();
            sizes.dedup();
            for &m in sizes.iter().filter(|&&m| m >= 1) {
                let x = Tensor::zeros(&[m * cfg.input_len]);
                let _ = snap.model.forward_eval(&x);
                let t0 = Instant::now();
                for _ in 0..3 {
                    let _ = snap.model.forward_eval(&x);
                }
                measured.push((m, t0.elapsed().as_secs_f64() * 1e6 / 3.0));
            }
        }
        let cap = serve_batch_cap(spec, &measured, cfg.batch_budget_us);

        let registry = Registry::new();
        let engine = Arc::new(ServeEngine {
            store,
            batcher: Batcher::new(cfg.queue_cap),
            vocab,
            batch_cap: AtomicUsize::new(cap),
            completions: Mutex::new(VecDeque::new()),
            waker: Mutex::new(None),
            worker: Mutex::new(None),
            queue_us: registry.histogram("ea_serve_queue_us"),
            exec_us: registry.histogram("ea_serve_exec_us"),
            e2e_us: registry.histogram("ea_serve_e2e_us"),
            batch_rows: registry.histogram("ea_serve_batch_requests"),
            served: registry.counter("ea_serve_served_total"),
            shed: registry.counter("ea_serve_shed_total"),
            batches: registry.counter("ea_serve_batches_total"),
            swaps: registry.counter("ea_serve_swaps_total"),
            registry,
            cfg,
        });

        let runner = Arc::downgrade(&engine);
        let handle = std::thread::Builder::new()
            .name("ea-serve-exec".into())
            .spawn(move || ServeEngine::run(runner))
            .expect("spawn serving executor");
        *engine.worker.lock().expect("worker handle poisoned") = Some(handle);
        engine
    }

    /// Worker loop: take what is queued → forward → complete, retrying
    /// deferred swaps on idle ticks. Holds only a [`Weak`] between
    /// iterations, so dropping the last external handle (even without
    /// [`shutdown`](ServeEngine::shutdown)) ends the loop within one idle
    /// tick instead of leaking a spinning thread.
    fn run(weak: Weak<Self>) {
        loop {
            let Some(engine) = weak.upgrade() else { return };
            let batch = engine
                .batcher
                .next_batch(engine.batch_cap.load(Ordering::Relaxed), Duration::from_millis(20));
            if batch.is_empty() {
                // Idle housekeeping: a swap deferred because a reader
                // pinned the old snapshot can land now.
                if engine.store.try_swap() {
                    engine.swaps.inc();
                }
                if engine.batcher.is_stopped() {
                    return;
                }
                continue;
            }
            engine.execute(batch);
        }
    }

    /// Runs one micro-batch against one consistent snapshot.
    fn execute(&self, batch: Vec<InferRequest>) {
        let k = batch.len();
        let conn = batch[0].conn;
        let exec_start = Instant::now();
        for req in &batch {
            self.queue_us.record((exec_start - req.enqueued).as_micros() as u64);
        }
        let snap = self.store.current();
        let mut input = Vec::with_capacity(k * self.cfg.input_len);
        for req in &batch {
            input.extend_from_slice(&req.input);
        }
        // Admission already validated the inputs, but a forward panic
        // must never kill the executor — a dead worker turns every later
        // accepted request into a client that blocks forever. Shed the
        // batch instead and keep serving.
        let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            snap.model.forward_eval(&Tensor::from_vec(input, &[k * self.cfg.input_len]))
        }));
        let out = match forward {
            Ok(out) => out,
            Err(_) => {
                self.complete_shed(batch, snap.version);
                return;
            }
        };
        self.exec_us.record(exec_start.elapsed().as_micros() as u64);
        self.batch_rows.record(k as u64);
        self.batches.inc();

        let data = out.data();
        assert_eq!(data.len() % k, 0, "output rows not divisible across the batch");
        let chunk = data.len() / k;
        let now = Instant::now();
        {
            let mut completions = self.completions.lock().expect("completion queue poisoned");
            for (i, req) in batch.into_iter().enumerate() {
                self.e2e_us.record((now - req.enqueued).as_micros() as u64);
                completions.push_back(Completion {
                    conn: req.conn,
                    id: req.id,
                    version: snap.version,
                    output: data[i * chunk..(i + 1) * chunk].to_vec(),
                    shed: false,
                });
            }
        }
        self.served.add(k as u64);
        self.wake(conn);
    }

    /// Answers every request of a failed batch with a `shed` completion.
    fn complete_shed(&self, batch: Vec<InferRequest>, version: u64) {
        let n = batch.len() as u64;
        let conn = batch[0].conn;
        {
            let mut completions = self.completions.lock().expect("completion queue poisoned");
            for req in batch {
                completions.push_back(Completion {
                    conn: req.conn,
                    id: req.id,
                    version,
                    output: Vec::new(),
                    shed: true,
                });
            }
        }
        self.shed.add(n);
        self.wake(conn);
    }

    /// Fires the waker, if any, for a batch whose first request came in
    /// on `conn`. That connection's event loop drains every queued
    /// completion and forwards the ones owned by other loops.
    fn wake(&self, conn: ConnId) {
        if let Some(wake) = self.waker.lock().expect("waker poisoned").as_ref() {
            wake(conn);
        }
    }

    /// Whether `input` is servable: the configured length, every value
    /// finite, and — for token models — every value rounding into
    /// `[0, vocab)`. Mirrors the `Embedding` forward's assertion so a
    /// malformed remote frame is shed here instead of panicking the
    /// executor thread.
    fn admissible(&self, input: &[f32]) -> bool {
        input.len() == self.cfg.input_len
            && input.iter().all(|&v| {
                v.is_finite()
                    && self.vocab.is_none_or(|vocab| {
                        let id = v.round();
                        id >= 0.0 && (id as usize) < vocab
                    })
            })
    }

    /// Admits a request, shedding on overload or malformed input
    /// (wrong length, non-finite values, out-of-vocabulary token ids).
    pub fn submit(&self, conn: ConnId, id: u64, input: Vec<f32>) -> Admission {
        if !self.admissible(&input) {
            self.shed.inc();
            return Admission::Shed;
        }
        let outcome =
            self.batcher.submit(InferRequest { id, conn, input, enqueued: Instant::now() });
        if outcome == Admission::Shed {
            self.shed.inc();
        }
        outcome
    }

    /// Stages one shard of a new weight version; swaps the served
    /// snapshot once every shard reached that version. Returns whether
    /// the served version advanced.
    pub fn publish_stage(&self, shard: usize, version: u64, weights: Vec<f32>) -> bool {
        let swapped = self.store.publish_stage(shard, version, weights);
        if swapped {
            self.swaps.inc();
        }
        swapped
    }

    /// Takes every queued completion (frontend reply path).
    pub fn drain_completions(&self) -> Vec<Completion> {
        let mut q = self.completions.lock().expect("completion queue poisoned");
        q.drain(..).collect()
    }

    /// Whether work is still in flight (queued requests or unanswered
    /// completions) — the reactor's `has_deferred` signal.
    pub fn has_pending(&self) -> bool {
        self.batcher.depth() > 0
            || !self.completions.lock().expect("completion queue poisoned").is_empty()
    }

    /// Weight version currently serving.
    pub fn served_version(&self) -> u64 {
        self.store.version()
    }

    /// Number of shards (stages) the model swap requires per version.
    pub fn shards(&self) -> usize {
        self.store.shards()
    }

    /// Current micro-batch cap.
    pub fn batch_cap(&self) -> usize {
        self.batch_cap.load(Ordering::Relaxed)
    }

    /// Overrides the micro-batch cap (benchmark sweeps; `1` disables
    /// coalescing entirely — the no-batching baseline).
    pub fn set_batch_cap(&self, cap: usize) {
        self.batch_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Registers a callback fired with the batch's connection whenever
    /// completions become ready (wired to
    /// [`ea_comms::reactor::ReactorWaker::wake_conn`] by the frontend).
    pub fn set_waker(&self, wake: CompletionWaker) {
        *self.waker.lock().expect("waker poisoned") = Some(wake);
    }

    /// Point-in-time SLO summary.
    pub fn slo(&self) -> SloSnapshot {
        let e2e = self.e2e_us.snapshot();
        SloSnapshot {
            served: self.served.get(),
            shed: self.shed.get(),
            batches: self.batches.get(),
            swaps: self.swaps.get(),
            e2e_p50_us: e2e.percentile(0.5),
            e2e_p95_us: e2e.percentile(0.95),
            e2e_p99_us: e2e.percentile(0.99),
            exec_p99_us: self.exec_us.snapshot().percentile(0.99),
            mean_batch: self.batch_rows.snapshot().mean(),
        }
    }

    /// Prometheus text exposition of the serving metrics.
    pub fn prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// A point-in-time snapshot of the serving registry, in the shape
    /// `ea-ops` pushes to a fleet collector (hand it to a pusher's
    /// `extra_metrics` so SLO histograms join the fleet view and merge
    /// bucket-wise across replicas).
    pub fn metrics_snapshot(&self) -> ea_trace::RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Stops admission, serves out the queue, and joins the worker.
    /// Completions produced by the drain remain claimable via
    /// [`drain_completions`](ServeEngine::drain_completions). Idempotent.
    pub fn shutdown(&self) {
        self.batcher.stop();
        if let Some(handle) = self.worker.lock().expect("worker handle poisoned").take() {
            handle.join().expect("serving executor panicked");
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // The worker holds only a Weak between iterations, so this runs
        // once the last handle (external, or the worker's per-iteration
        // upgrade) is gone; stop() lets a concurrently blocked
        // next_batch return promptly. No join: Drop may run on the
        // worker thread itself.
        self.batcher.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_autograd::{Embedding, Layer, Linear, Stage};
    use ea_models::{analogue_spec, AnalogueConfig};
    use ea_tensor::TensorRng;

    /// Two stages matching the token-model input convention: stage 0
    /// embeds 4 token rows (vocab 8, dim 4), stage 1 projects 4→4.
    /// Each request is 4 token ids; each output is 4×4 = 16 floats.
    fn linear_model(seed: u64) -> StagedModel {
        let mut rng = TensorRng::seed_from_u64(seed);
        let emb: Vec<Box<dyn Layer>> = vec![Box::new(Embedding::new(8, 4, &mut rng))];
        let proj: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new(4, 4, &mut rng))];
        StagedModel::new(vec![Stage::new(emb), Stage::new(proj)])
    }

    fn start_engine(cfg: ServeConfig) -> Arc<ServeEngine> {
        let spec = analogue_spec(AnalogueConfig::small(2));
        ServeEngine::start(linear_model(7), linear_model(8), 0, &spec, cfg)
    }

    fn wait_completions(engine: &ServeEngine, n: usize) -> Vec<Completion> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < n {
            got.extend(engine.drain_completions());
            assert!(Instant::now() < deadline, "timed out: {}/{n} completions", got.len());
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn serves_requests_matching_a_direct_forward() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        let reference = linear_model(7); // same seed == same weights
        let input: Vec<f32> = vec![0.0, 5.0, 2.0, 7.0]; // token ids < vocab 8
        let want = reference.forward_eval(&Tensor::from_vec(input.clone(), &[4]));

        assert_eq!(engine.submit(ConnId::from_raw(1), 9, input), Admission::Accepted);
        let done = wait_completions(&engine, 1);
        assert_eq!(done[0].id, 9);
        assert_eq!(done[0].version, 0);
        assert!(!done[0].shed);
        assert_eq!(done[0].output.len(), want.numel());
        for (got, want) in done[0].output.iter().zip(want.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "served output must be bit-identical");
        }
        engine.shutdown();
    }

    #[test]
    fn batched_outputs_split_per_request_bit_identically() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        let reference = linear_model(7);
        let inputs: Vec<Vec<f32>> =
            (0..6).map(|i| (0..4).map(|j| ((i * 4 + j) % 8) as f32).collect()).collect();
        // One hand-built batch of six, run the way the worker runs one.
        let batch = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| InferRequest {
                id: i as u64,
                conn: ConnId::from_raw(1),
                input: input.clone(),
                enqueued: Instant::now(),
            })
            .collect();
        engine.execute(batch);
        let mut done = wait_completions(&engine, 6);
        done.sort_by_key(|c| c.id);
        for (i, c) in done.iter().enumerate() {
            let want = reference.forward_eval(&Tensor::from_vec(inputs[i].clone(), &[4]));
            for (got, want) in c.output.iter().zip(want.data()) {
                assert_eq!(got.to_bits(), want.to_bits(), "request {i} output differs");
            }
        }
        // All six ran as one forward (not six singleton batches).
        assert_eq!(engine.slo().batches, 1);
        assert_eq!(engine.slo().mean_batch, 6.0);
        engine.shutdown();
    }

    #[test]
    fn wrong_length_input_is_shed_not_queued() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        assert_eq!(engine.submit(ConnId::from_raw(1), 1, vec![1.0; 3]), Admission::Shed);
        assert_eq!(engine.slo().shed, 1);
        assert_eq!(engine.slo().served, 0);
        engine.shutdown();
    }

    #[test]
    fn malformed_values_are_shed_and_the_worker_survives() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        // Out-of-vocab (vocab is 8), negative, non-finite: all shed at
        // admission instead of panicking the executor in Embedding.
        let conn = ConnId::from_raw(1);
        assert_eq!(engine.submit(conn, 1, vec![8.0, 0.0, 0.0, 0.0]), Admission::Shed);
        assert_eq!(engine.submit(conn, 2, vec![0.0, -1.0, 0.0, 0.0]), Admission::Shed);
        assert_eq!(engine.submit(conn, 3, vec![f32::NAN, 0.0, 0.0, 0.0]), Admission::Shed);
        assert_eq!(engine.submit(conn, 4, vec![0.0, f32::INFINITY, 0.0, 0.0]), Admission::Shed);
        assert_eq!(engine.slo().shed, 4);
        // The executor is still alive and serving valid traffic.
        assert_eq!(engine.submit(conn, 5, vec![0.0, 1.0, 2.0, 3.0]), Admission::Accepted);
        let done = wait_completions(&engine, 1);
        assert_eq!(done[0].id, 5);
        assert!(!done[0].shed);
        engine.shutdown();
    }

    #[test]
    fn panicking_forward_sheds_the_batch_instead_of_killing_the_worker() {
        // A dense (no-embedding) model whose first Linear wants width 4,
        // served with input_len 3: admission has no vocab to check, so
        // the request reaches forward_eval, which asserts on the width
        // mismatch. The catch_unwind net must convert that into a shed
        // completion and keep the executor alive for shutdown to join.
        let mut rng = TensorRng::seed_from_u64(11);
        let mk = |rng: &mut TensorRng| {
            let layers: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new(4, 4, rng))];
            StagedModel::new(vec![Stage::new(layers)])
        };
        let spec = analogue_spec(AnalogueConfig::small(1));
        let engine = ServeEngine::start(
            mk(&mut rng),
            mk(&mut rng),
            0,
            &spec,
            ServeConfig {
                input_len: 3,
                // No calibration: startup's own timing forwards would
                // hit the same width mismatch before the worker spawns.
                calibration_sizes: Vec::new(),
                ..ServeConfig::default()
            },
        );
        assert_eq!(engine.submit(ConnId::from_raw(1), 1, vec![0.5; 3]), Admission::Accepted);
        let done = wait_completions(&engine, 1);
        assert_eq!(done[0].id, 1);
        assert!(done[0].shed, "a panicking forward must answer shed");
        assert!(done[0].output.is_empty());
        assert_eq!(engine.slo().shed, 1);
        // Worker survived: shutdown joins without propagating the panic.
        engine.shutdown();
    }

    #[test]
    fn dropping_all_handles_stops_the_worker_without_shutdown() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        let handle = engine.worker.lock().unwrap().take().unwrap();
        drop(engine);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "worker leaked after the last handle dropped");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().unwrap();
    }

    #[test]
    fn hot_swap_changes_outputs_to_the_new_weights() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        let input: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];

        // Build the target weights: every parameter 0.01.
        let mut target = linear_model(9);
        let n0 = target.stage(0).num_params();
        let n1 = target.stage(1).num_params();
        target.stage_mut(0).set_params_flat(&vec![0.01; n0]);
        target.stage_mut(1).set_params_flat(&vec![0.01; n1]);
        let want = target.forward_eval(&Tensor::from_vec(input.clone(), &[4]));

        assert!(!engine.publish_stage(0, 3, vec![0.01; n0]), "half-staged must not swap");
        assert!(engine.publish_stage(1, 3, vec![0.01; n1]));
        assert_eq!(engine.served_version(), 3);

        assert_eq!(engine.submit(ConnId::from_raw(1), 1, input), Admission::Accepted);
        let done = wait_completions(&engine, 1);
        assert_eq!(done[0].version, 3);
        for (got, want) in done[0].output.iter().zip(want.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "post-swap output must match new weights");
        }
        assert_eq!(engine.slo().swaps, 1);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let engine = start_engine(ServeConfig { input_len: 4, ..ServeConfig::default() });
        for i in 0..4 {
            assert_eq!(engine.submit(ConnId::from_raw(2), i, vec![0.1; 4]), Admission::Accepted);
        }
        engine.shutdown();
        let done = engine.drain_completions();
        assert_eq!(done.len(), 4, "shutdown must serve out the admitted queue");
        // Post-shutdown admission sheds.
        assert_eq!(engine.submit(ConnId::from_raw(2), 9, vec![0.1; 4]), Admission::Shed);
    }
}
