//! Fleet-observability end-to-end test: a real sharded deployment — two
//! `elastic_server` processes and four `elastic_worker` processes, all
//! with `EA_TRACE=spans` and `--ops-push` — streams its trace rings to
//! an in-test [`CollectorServer`]. The merged fleet state must show,
//! for every completed round of every worker, a worker-side submit span
//! and a server-side apply span carrying the same exchange span id, in
//! causal order once the per-process clocks are aligned. A run with one
//! deliberately slow worker (`--slow-ms`) must be flagged by the
//! straggler detector, while the uniform fleet must produce no flags.
//!
//! The example binaries are compiled by the same `cargo test`
//! invocation that runs this file, so they are located relative to the
//! test executable (`target/<profile>/examples/`).

use ea_ops::{analyze, exchange_span_id, CollectorServer, FleetState, StragglerConfig};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const PIPELINES: usize = 4;
const SHARDS: usize = 2;
const ROUNDS: u64 = 6;

/// Residual cross-process skew tolerated by the causal-order check
/// (µs). The NTP-style alignment is sub-millisecond on loopback; the
/// slack covers scheduling noise on shared CI runners.
const SKEW_TOLERANCE_US: i64 = 2_000;

fn example_bin(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop(); // the test binary itself
    if p.ends_with("deps") {
        p.pop();
    }
    p.push("examples");
    p.push(name);
    assert!(p.exists(), "{} not built (run via `cargo test` from the workspace)", p.display());
    p
}

/// Spawns one shard server and blocks until it prints its bound
/// address, so workers never race the bind.
fn spawn_server(shard_index: usize, collector: &str) -> (Child, String) {
    let mut child = Command::new(example_bin("elastic_server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &SHARDS.to_string(),
            "--shard-index",
            &shard_index.to_string(),
            "--pipelines",
            &PIPELINES.to_string(),
            "--rounds",
            &ROUNDS.to_string(),
            "--ops-push",
            collector,
        ])
        .env("EA_TRACE", "spans")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn elastic_server");
    let stdout = child.stdout.take().expect("server stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line =
            lines.next().expect("server exited before LISTENING").expect("read server stdout");
        if let Some(rest) = line.strip_prefix("LISTENING ") {
            break rest.split_whitespace().next().expect("LISTENING addr").to_string();
        }
    };
    // Keep draining so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

fn spawn_worker(pipe: usize, addrs: &[String], collector: &str, slow_ms: u64) -> Child {
    let mut cmd = Command::new(example_bin("elastic_worker"));
    for a in addrs {
        cmd.args(["--addr", a]);
    }
    cmd.args([
        "--pipe",
        &pipe.to_string(),
        "--pipelines",
        &PIPELINES.to_string(),
        "--target-rounds",
        &ROUNDS.to_string(),
        "--ops-push",
        collector,
    ]);
    if slow_ms > 0 {
        cmd.args(["--slow-ms", &slow_ms.to_string()]);
    }
    cmd.env("EA_TRACE", "spans")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn elastic_worker")
}

/// Runs the full fleet to completion against a fresh collector and
/// returns the merged fleet state. `slow_pipe` injects `slow_ms` of
/// per-round lag into that worker's submit path.
fn run_fleet(slow_pipe: Option<(usize, u64)>) -> FleetState {
    let collector = CollectorServer::bind("127.0.0.1:0").expect("bind collector");
    let collector_addr = collector.local_addr().to_string();

    let (servers, addrs): (Vec<Child>, Vec<String>) =
        (0..SHARDS).map(|i| spawn_server(i, &collector_addr)).unzip();
    let workers: Vec<Child> = (0..PIPELINES)
        .map(|p| {
            let slow = match slow_pipe {
                Some((sp, ms)) if sp == p => ms,
                _ => 0,
            };
            spawn_worker(p, &addrs, &collector_addr, slow)
        })
        .collect();

    for (p, w) in workers.into_iter().enumerate() {
        let out = w.wait_with_output().expect("wait worker");
        assert!(
            out.status.success(),
            "worker {p} failed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    for (i, mut s) in servers.into_iter().enumerate() {
        let status = s.wait().expect("wait server");
        assert!(status.success(), "server {i} failed");
    }

    assert!(collector.pushes() > 0, "collector received no pushes");
    assert_eq!(collector.rejects(), 0, "collector rejected pushes");
    let state = collector.state().lock().unwrap_or_else(|e| e.into_inner()).clone();
    collector.shutdown();
    state
}

/// Asserts the tentpole correlation property on a merged fleet: every
/// completed round of every worker contributes a worker submit span and
/// at least one server apply span with the same derived span id, and
/// after clock alignment the server span falls inside the worker's
/// submit window (causal order).
fn assert_rounds_correlated(state: &FleetState) {
    let procs = state.procs();
    assert_eq!(procs.len(), SHARDS + PIPELINES, "expected every process to report in");

    for pipe in 0..PIPELINES {
        let wname = format!("worker{pipe}");
        let wproc = procs.get(&wname).expect("worker process missing from fleet state");
        for round in 0..ROUNDS {
            let ctx = exchange_span_id(round, pipe as u32);
            let wsub = wproc
                .events
                .iter()
                .find(|e| e.name == "submit" && e.ctx == ctx)
                .unwrap_or_else(|| panic!("{wname} round {round}: no submit span with ctx"));
            let w_t0 = wproc.aligned_t0_us(wsub);
            let w_t1 = w_t0 + wsub.dur_us() as i64;

            let mut matched = 0usize;
            for shard in 0..SHARDS {
                let sname = format!("server{shard}");
                let sproc = procs.get(&sname).expect("server process missing");
                for ev in sproc.events.iter().filter(|e| e.ctx == ctx && e.name == "submit") {
                    let s_t0 = sproc.aligned_t0_us(ev);
                    let s_t1 = s_t0 + ev.dur_us() as i64;
                    assert!(
                        s_t0 >= w_t0 - SKEW_TOLERANCE_US,
                        "{wname} round {round}: server apply at {s_t0} precedes \
                         worker submit at {w_t0} after alignment"
                    );
                    assert!(
                        s_t1 <= w_t1 + SKEW_TOLERANCE_US,
                        "{wname} round {round}: server apply ends at {s_t1}, after \
                         the worker submit window ending {w_t1}"
                    );
                    matched += 1;
                }
            }
            assert!(
                matched >= 1,
                "{wname} round {round}: no server apply span carries ctx {ctx:#x}"
            );
        }
    }
}

/// The merged artifacts must be well-formed: the Chrome trace parses as
/// JSON with per-process metadata, and the Prometheus dump carries
/// process labels and conformant headers.
fn assert_artifacts_well_formed(state: &FleetState) {
    let trace = state.chrome_trace();
    let v = ea_trace::json::parse(&trace).expect("fleet trace is valid JSON");
    let events = v["traceEvents"].as_arr().expect("traceEvents array");
    assert!(!events.is_empty(), "fleet trace is empty");
    for pname in ["worker0", "worker3", "server0", "server1"] {
        assert!(
            events
                .iter()
                .any(|e| e["name"] == "process_name" && e["args"]["name"].as_str() == Some(pname)),
            "fleet trace lacks process_name metadata for {pname}"
        );
    }

    let prom = state.prometheus();
    assert!(prom.contains("# TYPE"), "prometheus dump lacks TYPE headers");
    assert!(prom.contains("# HELP"), "prometheus dump lacks HELP headers");
    assert!(prom.contains("process=\"worker0\""), "prometheus dump lacks process labels");
}

#[test]
fn sharded_fleet_produces_correlated_aligned_trace() {
    let state = run_fleet(None);
    assert_rounds_correlated(&state);
    assert_artifacts_well_formed(&state);

    // A uniform fleet must not trip the straggler detector.
    let report = analyze(state.procs(), &StragglerConfig::default());
    assert!(
        report.stragglers.is_empty(),
        "uniform fleet flagged stragglers: {:?}",
        report.stragglers.iter().map(|f| &f.process).collect::<Vec<_>>()
    );
    // Every worker's rounds are reconstructed in the timeline.
    assert_eq!(report.timelines.len(), ROUNDS as usize, "one timeline per round");
    for tl in &report.timelines {
        assert_eq!(tl.workers.len(), PIPELINES, "round {}: all workers present", tl.round);
    }
}

#[test]
fn injected_slow_worker_is_flagged_as_straggler() {
    const SLOW_PIPE: usize = 3;
    let state = run_fleet(Some((SLOW_PIPE, 40)));
    assert_rounds_correlated(&state);

    let report = analyze(state.procs(), &StragglerConfig::default());
    let flagged: Vec<&str> = report.stragglers.iter().map(|f| f.process.as_str()).collect();
    assert!(
        flagged.contains(&format!("worker{SLOW_PIPE}").as_str()),
        "slow worker not flagged; flags: {flagged:?}"
    );
    assert!(
        !flagged.iter().any(|p| *p != format!("worker{SLOW_PIPE}")),
        "healthy workers were flagged: {flagged:?}"
    );
}
