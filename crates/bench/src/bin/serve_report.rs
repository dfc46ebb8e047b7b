//! Closed-loop serving benchmark: throughput vs tail latency across
//! micro-batch caps, against the batch=1 baseline. Writes `BENCH_7.json`.
//!
//! A fleet of closed-loop clients (each sends the next request the
//! moment the previous reply lands) hammers one serving frontend over
//! TCP. The sweep pins the engine's batch cap at 1, 2, 4, ... and at
//! the cap the §5 demand-curve sizing picked, measuring client-side
//! latency percentiles and aggregate throughput per setting. The
//! paper-side claim under test: coalescing buys throughput while the
//! demand curve climbs, so some cap > 1 must beat batch=1 throughput
//! without giving up its p99.
//!
//! ```text
//! cargo run -p bench --release --bin serve_report
//! cargo run -p bench --release --bin serve_report -- --clients 16 --secs 3
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ea_comms::reactor::ReactorConfig;
use ea_comms::TcpConfig;
use ea_models::{analogue_spec, gnmt_analogue, AnalogueConfig};
use ea_runtime::RefShardServer;
use ea_serve::{spawn_serving, InferClient, ServeConfig, ServeEngine};
use ea_tensor::TensorRng;

const CFG: AnalogueConfig = AnalogueConfig { vocab: 32, seq: 8, hidden: 32, blocks: 4, stages: 2 };
const SEED: u64 = 17;

struct SettingReport {
    batch_cap: usize,
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    served: u64,
    shed: u64,
    mean_batch: f64,
}

impl SettingReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"batch_cap\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}, \"served\": {}, \"shed\": {}, \"mean_batch\": {:.2}}}",
            self.batch_cap,
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.served,
            self.shed,
            self.mean_batch
        )
    }
}

/// Runs `clients` closed-loop requesters for `secs`, returning the
/// client-observed latency samples (µs) and the shed count.
fn drive(addr: std::net::SocketAddr, clients: usize, secs: f64) -> (Vec<f64>, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = InferClient::connect(addr, TcpConfig::default()).unwrap();
                let mut lat = Vec::new();
                let mut shed = 0u64;
                let mut i = c as u64;
                while !stop.load(Ordering::Relaxed) {
                    let input: Vec<f32> =
                        (0..CFG.seq).map(|j| ((i as usize + j * 3) % CFG.vocab) as f32).collect();
                    let t0 = Instant::now();
                    let outcome = client.infer(input).expect("infer");
                    if outcome.shed {
                        shed += 1;
                    } else {
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    i += 1;
                }
                (lat, shed)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    let mut shed = 0;
    for h in handles {
        let (lat, s) = h.join().expect("client thread panicked");
        all.extend(lat);
        shed += s;
    }
    (all, shed)
}

fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

fn main() {
    let mut clients = 8usize;
    let mut secs = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = args.next().expect("--clients value").parse().expect("int"),
            "--secs" => secs = args.next().expect("--secs value").parse().expect("float"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let spec = analogue_spec(CFG);
    let mut rng = TensorRng::seed_from_u64(SEED);
    let active = gnmt_analogue(CFG, &mut rng);
    let mut rng2 = TensorRng::seed_from_u64(SEED);
    let spare = gnmt_analogue(CFG, &mut rng2);

    let server = RefShardServer::from_initial_weights(
        (0..active.num_stages()).map(|k| active.stage(k).params_flat()).collect(),
        1,
    );
    let engine = ServeEngine::start(
        active,
        spare,
        0,
        &spec,
        ServeConfig { input_len: CFG.seq, queue_cap: 4096, ..ServeConfig::default() },
    );
    let tuned_cap = engine.batch_cap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = spawn_serving(
        listener,
        ReactorConfig { threads: 2, ..ReactorConfig::default() },
        Arc::clone(&engine),
        &server,
    )
    .expect("spawn serving reactor");
    let addr = reactor.local_addr();

    println!(
        "== serve report: {} | {clients} closed-loop clients, {secs:.1}s per setting ==",
        spec.name
    );
    println!("   demand-curve tuned batch cap: {tuned_cap}");

    // Sweep: the no-batching baseline, powers of two, and the tuned cap.
    let mut caps = vec![1usize, 2, 4, 8, 16];
    if !caps.contains(&tuned_cap) {
        caps.push(tuned_cap);
    }
    caps.sort_unstable();

    // Warm up connections, pools, and the JIT-warmed kernels once.
    drive(addr, clients, (secs * 0.25).max(0.25));

    let mut reports: Vec<SettingReport> = Vec::new();
    for &cap in &caps {
        engine.set_batch_cap(cap);
        let slo_before = engine.slo();
        let t0 = Instant::now();
        let (mut lat, shed) = drive(addr, clients, secs);
        let elapsed = t0.elapsed().as_secs_f64();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let slo_after = engine.slo();
        let served = slo_after.served - slo_before.served;
        let batches = (slo_after.batches - slo_before.batches).max(1);
        let r = SettingReport {
            batch_cap: cap,
            throughput_rps: lat.len() as f64 / elapsed,
            p50_us: pct(&lat, 0.50),
            p95_us: pct(&lat, 0.95),
            p99_us: pct(&lat, 0.99),
            served,
            shed,
            mean_batch: served as f64 / batches as f64,
        };
        println!(
            "   cap {cap:>3}: {:>9.1} req/s   p50 {:>8.1} µs   p99 {:>8.1} µs   mean batch {:.2}",
            r.throughput_rps, r.p50_us, r.p99_us, r.mean_batch
        );
        reports.push(r);
    }

    let baseline = reports.iter().find(|r| r.batch_cap == 1).expect("baseline setting");
    let best = reports
        .iter()
        .filter(|r| r.batch_cap > 1)
        .max_by(|a, b| a.throughput_rps.partial_cmp(&b.throughput_rps).unwrap())
        .expect("batched setting");
    let speedup = best.throughput_rps / baseline.throughput_rps;
    println!(
        "   micro-batching: cap {} gives {:.2}x the batch=1 throughput (p99 {:.1} vs {:.1} µs)",
        best.batch_cap, speedup, best.p99_us, baseline.p99_us
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_report\",\n  \"model\": \"{}\",\n  \"clients\": {clients},\n  \
         \"secs_per_setting\": {secs},\n  \"tuned_cap\": {tuned_cap},\n  \
         \"best_batched_cap\": {},\n  \"batched_speedup_vs_batch1\": {speedup:.3},\n  \
         \"settings\": [\n    {}\n  ]\n}}\n",
        spec.name,
        best.batch_cap,
        reports.iter().map(SettingReport::to_json).collect::<Vec<_>>().join(",\n    ")
    );
    std::fs::write("BENCH_7.json", &json).expect("write BENCH_7.json");
    println!("   [saved BENCH_7.json]");

    reactor.shutdown_graceful(Duration::from_secs(5));
    engine.shutdown();
}
