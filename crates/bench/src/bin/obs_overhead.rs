//! Measures the cost of the `adcomp-obs` instrumentation on the estimate
//! hot path and records the verdict in `BENCH_obs_overhead.json`.
//!
//! The same workload — [`measure_spec`] over every catalog attribute,
//! i.e. 7 estimate queries per spec through the full platform stack
//! (validation, rounding, metrics, budget) — runs twice: once with
//! recording on, once with the global kill switch off
//! ([`adcomp_obs::set_enabled`]), which leaves only the relaxed
//! load-and-branch the switch itself costs — and once more with the
//! fleet push exporter live, a [`TelemetryPusher`] exporting metric
//! frames to a real aggregator while the workload runs. Each mode takes
//! the best of several rounds to shed scheduler noise. The budget is
//! **<5 %** overhead for both instrumented modes; the binary exits
//! non-zero beyond it, so CI can gate on it.
//!
//! It also reports, ungated (the figures are hardware dependent), how
//! many captured metric frames per second one [`Aggregator`] merges,
//! called directly and pushed through the wire service, and how many
//! frames the push mode delivered.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adcomp_agg::{AggService, Aggregator, MetricsFrame, PusherConfig, Telemetry, TelemetryPusher};
use adcomp_bench::{context, say, Cli};
use adcomp_core::{measure_spec, AuditTarget};
use adcomp_obs::Registry;
use adcomp_platform::InterfaceKind;
use adcomp_serve::{status_frame, DaemonStatus};
use adcomp_targeting::{AttributeId, TargetingSpec};
use adcomp_wire::{serve_service, ServerConfig};

/// Workload passes per timed round — lengthens each round so the
/// best-of comparison is not dominated by scheduler jitter at small
/// scales.
const PASSES_PER_ROUND: usize = 4;
/// Timed rounds per mode (best-of).
const ROUNDS: usize = 9;
/// Catalog attributes per pass (keeps paper-scale runs tractable).
const MAX_SPECS: usize = 200;
/// Estimate queries issued by one `measure_spec` call (total + 2 genders
/// + 4 ages).
const QUERIES_PER_SPEC: u64 = 7;
/// Overhead budget, in percent.
const THRESHOLD_PCT: f64 = 5.0;
/// Status-frame exports per workload pass in push mode (the daemon
/// pushes once per epoch; one pass is the bench's epoch).
const PUSHES_PER_PASS: usize = 1;
/// Frames merged when timing aggregator ingest.
const INGEST_FRAMES: u64 = 2_000;

fn workload(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    pusher: Option<(&TelemetryPusher, &DaemonStatus)>,
) -> u64 {
    let mut ops = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let m = measure_spec(target, spec).expect("estimate");
        std::hint::black_box(m.total);
        ops += QUERIES_PER_SPEC;
        if let Some((pusher, status)) = pusher {
            if i % (specs.len() / PUSHES_PER_PASS).max(1) == 0 {
                status
                    .epochs
                    .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                pusher.push(Telemetry::Metrics(status_frame(status)));
            }
        }
    }
    ops
}

/// One timed round — `PASSES_PER_ROUND` workload passes with recording
/// `enabled` and, optionally, the push exporter live. Rounds for the
/// different modes are interleaved by the caller so slow load drift on
/// the host hits every mode equally.
fn timed_round(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    enabled: bool,
    pusher: Option<(&TelemetryPusher, &DaemonStatus)>,
) -> (f64, u64) {
    adcomp_obs::set_enabled(enabled);
    let start = Instant::now();
    let mut ops = 0;
    for _ in 0..PASSES_PER_ROUND {
        ops += workload(target, specs, pusher);
    }
    (start.elapsed().as_nanos() as f64 / ops as f64, ops)
}

/// Frames per second the aggregator merges, direct and over the wire.
fn ingest_throughput(frame: &Telemetry) -> (f64, f64) {
    // Direct: the merge cost alone.
    let agg = Aggregator::new();
    let start = Instant::now();
    for seq in 0..INGEST_FRAMES {
        agg.ingest("bench-direct", seq + 1, frame.clone());
    }
    let direct = INGEST_FRAMES as f64 / start.elapsed().as_secs_f64();

    // Wire: decode + merge behind the TCP service, one client, one
    // connection — the shape a daemon's pusher produces.
    let agg = Arc::new(Aggregator::new());
    let handle = serve_service(
        Arc::new(AggService::new(agg.clone())),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind aggregator");
    let client = adcomp_wire::Client::connect(handle.addr()).expect("connect");
    let payload = adcomp_wire::to_bytes(frame);
    let start = Instant::now();
    for seq in 0..INGEST_FRAMES {
        client
            .telemetry_push("bench-wire", seq + 1, payload.clone())
            .expect("push");
    }
    let wire = INGEST_FRAMES as f64 / start.elapsed().as_secs_f64();
    handle.shutdown();
    (direct, wire)
}

fn main() {
    let cli = Cli::parse();
    let ctx = context(cli);
    let target = ctx.target(InterfaceKind::FacebookNormal);
    let n = ctx.simulation.facebook.catalog().len().min(MAX_SPECS);
    let specs: Vec<TargetingSpec> = (0..n as u32)
        .map(|id| TargetingSpec::and_of([AttributeId(id)]))
        .collect();

    // A live aggregator so the push mode exports into a real sink.
    let agg = Arc::new(Aggregator::new());
    let handle = serve_service(
        Arc::new(AggService::new(agg.clone())),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind aggregator");
    let pusher =
        TelemetryPusher::start(PusherConfig::new(handle.addr().to_string(), "obs-overhead"));

    let status = DaemonStatus::new();
    let push = Some((&pusher, status.as_ref()));
    // Warm-up: one untimed round per mode (caches, pusher connection).
    timed_round(&target, &specs, true, None);
    timed_round(&target, &specs, true, push);
    timed_round(&target, &specs, false, None);
    let (mut instrumented, mut with_push, mut baseline) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut ops = 0;
    for _ in 0..ROUNDS {
        let (ns, o) = timed_round(&target, &specs, true, None);
        instrumented = instrumented.min(ns);
        ops = o;
        let (ns, _) = timed_round(&target, &specs, true, push);
        with_push = with_push.min(ns);
        let (ns, _) = timed_round(&target, &specs, false, None);
        baseline = baseline.min(ns);
    }
    adcomp_obs::set_enabled(true);
    pusher.flush(Duration::from_secs(5));
    let frames_pushed = agg.pushes_total();
    drop(pusher);
    handle.shutdown();

    let pct = |mode: f64| {
        if baseline > 0.0 {
            (mode - baseline) / baseline * 100.0
        } else {
            0.0
        }
    };
    let overhead_pct = pct(instrumented);
    let push_overhead_pct = pct(with_push);
    let pass = overhead_pct < THRESHOLD_PCT && push_overhead_pct < THRESHOLD_PCT;

    // Ingest throughput on a frame the size the workload produced.
    let frame = Telemetry::Metrics(MetricsFrame::capture(Registry::global()));
    let (ingest_direct, ingest_wire) = ingest_throughput(&frame);

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"ops_per_round\": {ops},\n  \
         \"rounds\": {ROUNDS},\n  \"baseline_ns_per_op\": {baseline:.1},\n  \
         \"instrumented_ns_per_op\": {instrumented:.1},\n  \
         \"push_ns_per_op\": {with_push:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"push_overhead_pct\": {push_overhead_pct:.2},\n  \
         \"threshold_pct\": {THRESHOLD_PCT:.1},\n  \
         \"frames_pushed\": {frames_pushed},\n  \
         \"ingest_direct_frames_per_sec\": {ingest_direct:.0},\n  \
         \"ingest_wire_frames_per_sec\": {ingest_wire:.0},\n  \"pass\": {pass}\n}}\n"
    );
    std::fs::write("BENCH_obs_overhead.json", &json).expect("write BENCH_obs_overhead.json");
    say!("{json}");
    adcomp_obs::info!(
        "obs overhead: {overhead_pct:.2}% recording, {push_overhead_pct:.2}% with push exporter \
         ({instrumented:.1}/{with_push:.1} vs {baseline:.1} ns/query, budget {THRESHOLD_PCT}%); \
         ingest {ingest_direct:.0}/s direct, {ingest_wire:.0}/s wire"
    );
    if !pass {
        adcomp_obs::error!("instrumentation overhead exceeds the {THRESHOLD_PCT}% budget");
        std::process::exit(1);
    }
}
