//! Daemon configuration: a flat `key = value` file, reloadable between
//! epochs.
//!
//! The file format is deliberately tiny — one `key = value` pair per
//! line, `#` comments, unknown keys rejected — so an operator can edit
//! it while the daemon runs. [`Daemon`](crate::Daemon) re-reads the
//! file between epochs and applies *operational* changes (interval,
//! retries, backoff, epoch budget) without dropping any in-memory or
//! journaled state. *Identity* fields (seed, scale, interface, data
//! root, replicas) define which audit this is; changing one mid-run
//! would silently fork the longitudinal record, so reloads that touch
//! them are rejected with a warning and the old identity stands.
//!
//! Reload detection hashes the file *content* (FNV-1a over the raw
//! bytes), not the mtime — `touch`ing the file is not a reload, and an
//! editor that rewrites the file with identical bytes is not either.

use std::io;
use std::path::{Path, PathBuf};

use adcomp_platform::{InterfaceKind, SimScale};
use adcomp_population::hash_api::fnv1a;

/// Full daemon configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Simulation seed (identity).
    pub seed: u64,
    /// Simulation scale (identity): `test` or `paper`.
    pub scale: SimScale,
    /// Audited interface (identity).
    pub interface: InterfaceKind,
    /// Data root: epoch stores live at `<root>/epoch-<n>/`, the daemon
    /// journal at `<root>/daemon/` (identity).
    pub root: PathBuf,
    /// Endpoint replicas the provider should expose (identity).
    pub replicas: usize,
    /// Time between epoch starts.
    pub interval_ms: u64,
    /// Stop after this many epochs; `0` means run forever.
    pub max_epochs: u64,
    /// Per-epoch retries after a failed attempt (0 = fail fast; the
    /// chaos harness relies on 0 to model process death).
    pub epoch_retries: u32,
    /// First retry backoff.
    pub backoff_base_ms: u64,
    /// Backoff cap (doubling stops here).
    pub backoff_cap_ms: u64,
    /// Serve the status endpoint here; empty disables it.
    pub status_addr: String,
    /// Fsync every journal/store record (`SyncPolicy::EveryRecord`).
    /// The crash-recovery guarantees assume `true`; `false` is for
    /// benchmarks that want the journaling cost without the disk.
    pub fsync: bool,
    /// Put a resilience layer (retry + skip-and-record) between the
    /// scheduler and the recorder.
    pub resilient: bool,
}

impl ServeConfig {
    /// Defaults for a daemon rooted at `root`; every field can be
    /// overridden by the config file.
    pub fn default_at(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            seed: 7,
            scale: SimScale::Test,
            interface: InterfaceKind::LinkedIn,
            root: root.into(),
            replicas: 1,
            interval_ms: 1_000,
            max_epochs: 0,
            epoch_retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            status_addr: String::new(),
            fsync: true,
            resilient: false,
        }
    }

    /// Parses a config file's text over the defaults for `root`.
    /// The file may override `root` itself.
    pub fn parse(text: &str, root: impl Into<PathBuf>) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::default_at(root);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let ctx = |e: String| format!("line {}: {key}: {e}", lineno + 1);
            match key {
                "seed" => cfg.seed = parse_u64(value).map_err(ctx)?,
                "scale" => cfg.scale = parse_scale(value).map_err(ctx)?,
                "interface" => cfg.interface = parse_interface(value).map_err(ctx)?,
                "root" => cfg.root = PathBuf::from(value),
                "replicas" => cfg.replicas = parse_u64(value).map_err(ctx)?.max(1) as usize,
                "interval_ms" => cfg.interval_ms = parse_u64(value).map_err(ctx)?,
                "max_epochs" => cfg.max_epochs = parse_u64(value).map_err(ctx)?,
                "epoch_retries" => cfg.epoch_retries = parse_u64(value).map_err(ctx)? as u32,
                "backoff_base_ms" => cfg.backoff_base_ms = parse_u64(value).map_err(ctx)?,
                "backoff_cap_ms" => cfg.backoff_cap_ms = parse_u64(value).map_err(ctx)?,
                "status_addr" => cfg.status_addr = value.to_string(),
                "fsync" => cfg.fsync = parse_bool(value).map_err(ctx)?,
                "resilient" => cfg.resilient = parse_bool(value).map_err(ctx)?,
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        Ok(cfg)
    }

    /// Loads and parses `path`, returning the config plus the content
    /// hash used for reload detection.
    pub fn load(path: impl AsRef<Path>) -> io::Result<(ServeConfig, u64)> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let text = String::from_utf8_lossy(&bytes);
        let root = path.parent().unwrap_or(Path::new(".")).join("serve-data");
        let cfg = ServeConfig::parse(&text, root).map_err(io::Error::other)?;
        Ok((cfg, fnv1a(&bytes)))
    }

    /// Whether `other` names the same audit: same simulated world, same
    /// interface, same data root, same endpoint fleet.
    pub fn same_identity(&self, other: &ServeConfig) -> bool {
        self.seed == other.seed
            && self.scale == other.scale
            && self.interface == other.interface
            && self.root == other.root
            && self.replicas == other.replicas
    }

    /// Directory of epoch `n`'s recording store.
    pub fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.root.join(format!("epoch-{epoch}"))
    }

    /// Directory of the daemon's lifecycle journal.
    pub fn journal_dir(&self) -> PathBuf {
        self.root.join("daemon")
    }
}

fn parse_u64(value: &str) -> Result<u64, String> {
    value.parse::<u64>().map_err(|e| format!("`{value}`: {e}"))
}

fn parse_bool(value: &str) -> Result<bool, String> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("`{other}`: expected true or false")),
    }
}

fn parse_scale(value: &str) -> Result<SimScale, String> {
    match value {
        "test" => Ok(SimScale::Test),
        "paper" => Ok(SimScale::Paper),
        other => Err(format!("`{other}`: expected test or paper")),
    }
}

fn parse_interface(value: &str) -> Result<InterfaceKind, String> {
    match value {
        "facebook" => Ok(InterfaceKind::FacebookNormal),
        "facebook-restricted" => Ok(InterfaceKind::FacebookRestricted),
        "google" => Ok(InterfaceKind::GoogleDisplay),
        "linkedin" => Ok(InterfaceKind::LinkedIn),
        other => Err(format!(
            "`{other}`: expected facebook, facebook-restricted, google, or linkedin"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_overrides_and_comments() {
        let cfg = ServeConfig::parse(
            "# continuous audit\nseed = 41\ninterface = google  # impressions\n\ninterval_ms = 250\nmax_epochs = 3\nfsync = false\n",
            "/tmp/x",
        )
        .unwrap();
        assert_eq!(cfg.seed, 41);
        assert_eq!(cfg.interface, InterfaceKind::GoogleDisplay);
        assert_eq!(cfg.interval_ms, 250);
        assert_eq!(cfg.max_epochs, 3);
        assert!(!cfg.fsync);
        // Untouched keys keep their defaults.
        assert_eq!(cfg.epoch_retries, 2);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(ServeConfig::parse("sede = 41\n", "/tmp/x").is_err());
        assert!(ServeConfig::parse("seed = many\n", "/tmp/x").is_err());
        assert!(ServeConfig::parse("scale = huge\n", "/tmp/x").is_err());
        assert!(ServeConfig::parse("just a line\n", "/tmp/x").is_err());
    }

    #[test]
    fn identity_covers_world_not_schedule() {
        let a = ServeConfig::default_at("/tmp/x");
        let mut b = a.clone();
        b.interval_ms = 9;
        b.epoch_retries = 9;
        b.max_epochs = 9;
        assert!(a.same_identity(&b));
        b.seed = 8;
        assert!(!a.same_identity(&b));
    }
}
