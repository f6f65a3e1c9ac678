//! `remote-recorded`: the Table-1 pipeline on test-scale Facebook over
//! the wire, recorded into a fresh run store, then replayed from disk
//! with the platform detached.
//!
//! A loopback `adcomp-wire` server with one executor serves the
//! platform; the audit talks to it through one pipelined
//! [`RemoteSource`] connection. Every pass records into its own store
//! (default WAL options) and is then resumed: the store is reopened and
//! the whole audit replayed from it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use adcomp_core::recording::{record_layout, TargetLayout};
use adcomp_core::{AuditTarget, EstimateSource, RecordingSource};
use adcomp_obs::metrics::{duration_us_buckets, Registry};
use adcomp_platform::{AdPlatform, PlatformApi, SimScale};
use adcomp_store::RunStore;
use adcomp_wire::{serve, ServerConfig, ServerHandle};
use discrimination_via_composition::RemoteSource;

use super::pipeline::{discovery_config, replay_targeting, table1_pass, Table};
use super::{end_to_end, histogram_delta, secs, timed_passes, timed_setups, trace_overhead};
use super::{FacebookTemplate, Outcome, RunConfig};
use crate::probe::{repeat_share, Counts, Probes};
use crate::report::{process_cpu_s, Metrics};

/// Sizes of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Simulation scale (test: 22k users, 81 attributes).
    pub scale: SimScale,
    /// Compositions each discovery samples.
    pub top_k: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        scale: SimScale::Test,
        top_k: 1_000,
    };
    /// Sizes for the self-tests.
    pub const SMALL: Sizes = Sizes {
        scale: SimScale::Test,
        top_k: 60,
    };
}

/// A platform behind a loopback server and one client connection.
pub struct Served {
    /// The client side.
    pub remote: Arc<RemoteSource>,
    server: Option<ServerHandle>,
}

impl Served {
    /// Serves `api` on a loopback port (one executor) and connects.
    pub fn start(api: Arc<dyn PlatformApi>) -> Result<Served, String> {
        let server = serve(api, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let remote = RemoteSource::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        remote
            .prefetch_catalog()
            .map_err(|e| format!("catalog prefetch: {e}"))?;
        Ok(Served {
            remote: Arc::new(remote),
            server: Some(server),
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The platform and its served endpoint.
pub struct Env {
    /// The in-process platform behind the server.
    pub platform: Arc<AdPlatform>,
    /// The plain (undecorated) endpoint.
    pub served: Served,
    sizes: Sizes,
}

/// One recorded pass and its resume from disk.
pub struct Recorded {
    /// The recorded pass's table.
    pub table: Table,
    /// Wall time of the recorded pass (store open to store close).
    pub audit_s: f64,
    /// The store's WAL counters.
    pub wal: adcomp_store::WalStats,
    /// Bytes the WAL occupies on disk.
    pub wal_bytes: u64,
}

/// A resume of a recorded pass.
pub struct Resumed {
    /// The replayed table.
    pub table: Table,
    /// Time to reopen the store.
    pub reopen_s: f64,
    /// Time to reopen the store and replay the whole audit.
    pub resume_s: f64,
    /// Platform estimates issued during the replay.
    pub platform_estimates: u64,
}

impl Env {
    /// Generates the users, starts the server and connects.
    pub fn setup(facebook: &FacebookTemplate, seed: u64, sizes: Sizes) -> Result<Env, String> {
        let platform = Arc::new(facebook.build(seed));
        let served = Served::start(platform.clone())?;
        Ok(Env {
            platform,
            served,
            sizes,
        })
    }

    /// Records one pass into a fresh store at `dir`. `wrap` decorates
    /// the recording source (identity for the end-to-end runs);
    /// `queries` is the probe that sees every audit query, when traced.
    pub fn record(
        &self,
        remote: Arc<dyn EstimateSource>,
        dir: &Path,
        wrap: impl FnOnce(Arc<dyn EstimateSource>) -> Arc<dyn EstimateSource>,
        queries: Option<&Counts>,
    ) -> Result<Recorded, String> {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let store = Arc::new(RunStore::open(dir).map_err(|e| format!("open store: {e}"))?);
        let recording = RecordingSource::new(remote, store.clone())
            .map_err(|e| format!("record metadata: {e}"))?;
        let label = recording.label();
        record_layout(
            &store,
            &TargetLayout {
                targeting: label.clone(),
                measurement: label,
                id_map: None,
            },
        )
        .map_err(|e| format!("record layout: {e}"))?;
        let target = AuditTarget::direct(wrap(Arc::new(recording)));
        let table = table1_pass(&target, &discovery_config(self.sizes.top_k), queries)
            .map_err(|e| e.to_string())?
            .0;
        drop(target);
        let wal = store.stats();
        drop(store);
        let audit_s = secs(start);
        Ok(Recorded {
            table,
            audit_s,
            wal,
            wal_bytes: dir_bytes(dir),
        })
    }

    /// Reopens the store at `dir` and replays the audit from it.
    pub fn resume(&self, dir: &Path) -> Result<Resumed, String> {
        let before = self.platform.stats().estimates;
        let start = Instant::now();
        let store = RunStore::open(dir).map_err(|e| format!("reopen store: {e}"))?;
        let reopen_s = secs(start);
        let target = AuditTarget::from_replay(&store, &self.served.remote.label())
            .map_err(|e| format!("replay target: {e}"))?;
        let table = table1_pass(&target, &discovery_config(self.sizes.top_k), None)
            .map_err(|e| e.to_string())?
            .0;
        Ok(Resumed {
            table,
            reopen_s,
            resume_s: secs(start),
            platform_estimates: self.platform.stats().estimates - before,
        })
    }
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn pass_dir(cfg: &RunConfig, pass: usize) -> PathBuf {
    cfg.work.join(format!("remote-pass-{pass}"))
}

/// The end-to-end run: setups and timed passes.
pub fn untraced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let (env, setup_s) = timed_setups(|_| Env::setup(&template, cfg.seed, Sizes::BENCH))
        .map_err(|e| format!("setup: {e}"))?;
    let mut first: Option<Table> = None;
    let mut audit = Vec::new();
    let mut resumes = Vec::new();
    timed_passes(cfg.seconds, |pass| {
        let dir = pass_dir(cfg, pass);
        let recorded = match env.record(env.served.remote.clone(), &dir, |s| s, None) {
            Ok(r) => r,
            Err(e) => {
                out.checks.error("recorded pass", e);
                return false;
            }
        };
        audit.push(recorded.audit_s);
        match &first {
            None => {
                out.checks.check(
                    "table1 has four populations",
                    recorded.table.rows.len() == 4,
                );
                out.notes
                    .push(format!("table1 digest {:016x}", recorded.table.digest()));
            }
            Some(f) => out
                .checks
                .check("table1 identical across passes", *f == recorded.table),
        }
        let resumed = checked_resume(&env, &dir, &recorded.table, out);
        let _ = std::fs::remove_dir_all(&dir);
        first.get_or_insert(recorded.table);
        match resumed {
            Ok(r) => {
                resumes.push(r.resume_s);
                true
            }
            Err(e) => {
                out.checks.error("resume", e);
                false
            }
        }
    });
    end_to_end(out, setup_s, &audit);
    out.notes.push(format!(
        "resume (reopen + replay) s: {}",
        resumes
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}

/// Resumes the pass recorded at `dir` and checks the replay against the
/// recording.
fn checked_resume(
    env: &Env,
    dir: &Path,
    recorded: &Table,
    out: &mut Outcome,
) -> Result<Resumed, String> {
    let r = env.resume(dir).map_err(|e| format!("replay: {e}"))?;
    out.checks
        .check("replay equals the recording", r.table == *recorded);
    out.checks.check(
        "replay issues no platform estimates",
        r.platform_estimates == 0,
    );
    Ok(r)
}

/// Wire counter readings, for deltas around a pass.
struct WireReading {
    frames: u64,
    bytes: u64,
    retries: u64,
    rtt: adcomp_obs::metrics::HistogramData,
}

impl WireReading {
    fn now() -> WireReading {
        let reg = Registry::global();
        let both = |name: &str| {
            ["in", "out"]
                .iter()
                .map(|dir| reg.counter_with(name, &[("dir", dir)]).get())
                .sum()
        };
        WireReading {
            frames: both("adcomp_wire_frames_total"),
            bytes: both("adcomp_wire_bytes_total"),
            retries: ["rate_limited", "transport"]
                .iter()
                .map(|reason| {
                    reg.counter_with("adcomp_wire_retries_total", &[("reason", reason)])
                        .get()
                })
                .sum(),
            rtt: reg
                .histogram("adcomp_wire_rtt_us", duration_us_buckets())
                .data(),
        }
    }

    fn record(&self, m: &mut Metrics) {
        let now = WireReading::now();
        let rtt = histogram_delta(&now.rtt, &self.rtt);
        m.set("wire.frames", (now.frames - self.frames) as f64);
        m.set("wire.bytes", (now.bytes - self.bytes) as f64);
        m.set("wire.retries", (now.retries - self.retries) as f64);
        m.set("wire.rtt_p50_us", rtt.quantile(0.50).unwrap_or(0) as f64);
        m.set("wire.rtt_p99_us", rtt.quantile(0.99).unwrap_or(0) as f64);
    }
}

/// The per-layer run: reference, traced and replayed passes.
pub fn traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let env = Env::setup(&template, cfg.seed, Sizes::BENCH).map_err(|e| format!("setup: {e}"))?;

    // A warm-up pass, then the untraced reference pass: wall time, wire
    // and store counters.
    let dir = pass_dir(cfg, 0);
    let _ = env.record(env.served.remote.clone(), &dir, |s| s, None);
    let wire = WireReading::now();
    let (stats, cpu) = (env.platform.stats(), process_cpu_s());
    let reference = env.record(env.served.remote.clone(), &dir, |s| s, None);
    let cpu_s = process_cpu_s() - cpu;
    let reference_estimates = env.platform.stats().estimates - stats.estimates;
    wire.record(&mut out.metrics);
    let reference = reference.map_err(|e| format!("untraced pass: {e}"))?;
    let resumed = checked_resume(&env, &dir, &reference.table, out)?;
    let append_us = reappend_us(&dir, &cfg.work.join("remote-reappend"));
    let _ = std::fs::remove_dir_all(&dir);

    // Traced pass: decorated recording source and client, and a second
    // server whose platform is decorated.
    let probes = Probes::new();
    let served_counts = Counts::new();
    let served = Served::start(probes.server_api("platform", env.platform.clone(), &served_counts))
        .map_err(|e| format!("traced setup: {e}"))?;
    let recorded = Counts::logging();
    let wired = Counts::new();
    let stats = env.platform.stats();
    let start = Instant::now();
    let root = probes.span("core.discovery:pass");
    let traced = env.record(
        probes.source("wire", served.remote.clone(), &wired),
        &dir,
        |s| probes.source("core.recording", s, &recorded),
        Some(&recorded),
    );
    drop(root);
    let traced_s = secs(start);
    let traced_estimates = env.platform.stats().estimates - stats.estimates;
    drop(served);
    let _ = std::fs::remove_dir_all(&dir);
    let traced = traced.map_err(|e| format!("traced pass: {e}"))?;
    out.checks.check(
        "traced table1 equals untraced",
        traced.table == reference.table,
    );
    out.checks.check(
        "traced pass issues the same platform queries",
        traced_estimates == reference_estimates,
    );

    let att = probes.attribution("core.discovery:pass");
    let server = probes.server_attribution();
    let m = &mut out.metrics;
    let queries = recorded.calls();
    let client_s = att.layer("wire");
    let platform_s = server.layer("platform");
    m.set("platform.estimates", served_counts.calls() as f64);
    m.set("platform.busy_s", platform_s);
    m.set(
        "platform.us_per_estimate",
        platform_s * 1e6 / served_counts.calls().max(1) as f64,
    );
    m.set("platform.errors", served_counts.errors() as f64);
    m.set("discovery.self_s", att.layer("core.discovery"));
    m.set("wire.client_s", client_s);
    m.set("wire.server_platform_s", platform_s);
    m.set("wire.self_s", client_s - platform_s);
    m.set("wire.queries", wired.calls() as f64);
    m.set(
        "wire.us_per_query",
        client_s * 1e6 / wired.calls().max(1) as f64,
    );
    m.set("recording.self_s", att.layer("core.recording"));
    m.set(
        "recording.store_hit_share",
        1.0 - wired.calls() as f64 / queries.max(1) as f64,
    );
    m.set("store.appends", reference.wal.appends as f64);
    m.set("store.fsyncs", reference.wal.fsyncs as f64);
    m.set(
        "store.bytes_per_record",
        reference.wal_bytes as f64 / reference.wal.appends.max(1) as f64,
    );
    m.set("store.append_us", append_us);
    m.set("store.reopen_s", resumed.reopen_s);
    m.set(
        "store.replay_us_per_query",
        (resumed.resume_s - resumed.reopen_s) * 1e6 / queries.max(1) as f64,
    );
    m.set("resume_s", resumed.resume_s);
    let log = recorded.log();
    m.set("repeat_share", repeat_share(&log));
    replay_targeting(&env.platform, &log, m);
    trace_overhead(m, reference.audit_s, traced_s, att.root_attributed_s, cpu_s);
    out.checks.check(
        "layer self times sum within 5% of the traced pass",
        (att.root_attributed_s / traced_s - 1.0).abs() <= 0.05,
    );
    out.notes.push(format!(
        "untraced {:.3} s, traced {traced_s:.3} s, resume {:.3} s; {queries} audit queries, \
         {reference_estimates} reach the platform",
        reference.audit_s, resumed.resume_s
    ));
    Ok(())
}

/// Mean microseconds to append each record of the store at `from` to a
/// fresh store at `to` (default WAL options), re-reading the records
/// from the recorded store first.
fn reappend_us(from: &Path, to: &Path) -> f64 {
    let Ok(store) = RunStore::open(from) else {
        return 0.0;
    };
    let mut records = Vec::new();
    store.for_each(|key, kind, payload| records.push((kind, key, payload.to_vec())));
    drop(store);
    let _ = std::fs::remove_dir_all(to);
    let Ok(fresh) = RunStore::open(to) else {
        return 0.0;
    };
    let start = Instant::now();
    for (kind, key, payload) in &records {
        if fresh.append(*kind, *key, payload).is_err() {
            return 0.0;
        }
    }
    drop(fresh);
    let us = secs(start) * 1e6 / records.len().max(1) as f64;
    let _ = std::fs::remove_dir_all(to);
    us
}
