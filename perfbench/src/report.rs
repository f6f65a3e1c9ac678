//! Metric declarations, output checks, provenance and the result line.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("audit_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reports zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.estimates", "count"),
    ("platform.busy_s", "s"),
    ("platform.us_per_estimate", "us"),
    ("platform.errors", "count"),
    ("targeting.validate_us", "us"),
    ("targeting.evaluate_us", "us"),
    ("bitset.intersection_len_us", "us"),
    ("platform.round_us", "us"),
    ("engine.batches", "count"),
    ("engine.batch_p50_us", "us"),
    ("engine.batch_p99_us", "us"),
    ("engine.wall_s", "s"),
    ("engine.utilization", "ratio"),
    ("engine.coarse_speedup", "ratio"),
    ("engine.fine_speedup", "ratio"),
    ("discovery.self_s", "s"),
    ("discovery.candidates", "count"),
    ("discovery.survivors", "count"),
    ("discovery.pruned_share", "ratio"),
    ("wire.client_s", "s"),
    ("wire.server_platform_s", "s"),
    ("wire.self_s", "s"),
    ("wire.us_per_query", "us"),
    ("wire.queries", "count"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("wire.rtt_p50_us", "us"),
    ("wire.rtt_p99_us", "us"),
    ("wire.retries", "count"),
    ("recording.self_s", "s"),
    ("recording.store_hit_share", "ratio"),
    ("store.appends", "count"),
    ("store.fsyncs", "count"),
    ("store.bytes_per_record", "bytes"),
    ("store.append_us", "us"),
    ("store.reopen_s", "s"),
    ("store.replay_us_per_query", "us"),
    ("resume_s", "s"),
    ("segment.cache_hits", "count"),
    ("segment.cache_misses", "count"),
    ("segment.hit_ratio", "ratio"),
    ("segment.resident_bytes", "bytes"),
    ("segment.load_us", "us"),
    ("segment.generate_users_per_s", "1/s"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("delivery.rounds_per_s", "1/s"),
    ("delivery.fill_share", "ratio"),
    ("delivery.resolve_s", "s"),
    ("delivery.thread_speedup", "ratio"),
    ("infer.replicates", "count"),
    ("infer.bootstrap_s", "s"),
    ("infer.bootstrap_serial_s", "s"),
    ("infer.dropped_share", "ratio"),
    ("process.cpu_s", "s"),
    ("repeat_share", "ratio"),
    ("trace_overhead_pct", "%"),
    ("trace.pass_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("failed_share", "ratio"),
];

/// Output checks of one run: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check; a failure keeps its name for the report.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(name.to_string());
        }
    }

    /// Records an operation that errored before it could be checked.
    pub fn error(&mut self, name: &str, error: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed.push(format!("{name}: {error}"));
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Names of the failed checks.
    pub fn failed(&self) -> &[String] {
        &self.failed
    }

    /// Failed checks over checks made.
    pub fn failed_share(&self) -> f64 {
        self.failed.len() as f64 / self.attempted.max(1) as f64
    }
}

/// The metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric; the name must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The result line: every metric of `declared` (zero where unset),
    /// with the check counts.
    pub fn result_line(&self, declared: &[(&str, &str)], checks: &Checks) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed.is_empty(),
            checks.attempted,
            checks.failed.len(),
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints; non-finite values
/// (which no metric should produce) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; zero where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed by this process so far, from
/// `/proc/self/stat` (clock ticks assumed at the Linux default of 100
/// per second); zero where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Where and how a run was made, printed before the result line so a
/// figure can be traced to its host, code and inputs.
pub struct Provenance {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Commit the checkout was made from, or `none` outside a git tree.
    pub git_rev: String,
    /// FNV-1a digest over the program's sources and lock file.
    pub source_digest: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Run-store WAL sync policy.
    pub wal_sync: String,
    /// Filesystem type holding the benchmark's working directory.
    pub store_fs: String,
}

impl Provenance {
    /// Collects provenance for a run rooted at the current directory.
    pub fn collect(seed: u64, work: &Path) -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            wal_sync: format!("{:?}", adcomp_store::WalOptions::default().sync),
            store_fs: filesystem_of(work).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object.
    pub fn json(&self, workload: &str) -> String {
        format!(
            "{{\"provenance\": {{\"workload\": \"{workload}\", \"nproc\": {}, \"git_rev\": \"{}\", \
             \"source_digest\": \"{}\", \"profile\": \"{}\", \"seed\": {}, \"wal_sync\": \"{}\", \
             \"store_fs\": \"{}\"}}}}",
            self.nproc,
            self.git_rev,
            self.source_digest,
            self.profile,
            self.seed,
            self.wal_sync,
            self.store_fs
        )
    }
}

/// The commit `HEAD` names, read from `.git` under `root` without
/// running git (so nothing outside the checkout is consulted).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and contents of the program's sources (the
/// `crates`, `shims` and `src` trees plus the root manifest and lock
/// file), visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "shims", "src"] {
        visit(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
fn filesystem_of(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fstype = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}
