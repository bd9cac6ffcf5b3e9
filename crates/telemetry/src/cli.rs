//! `--telemetry <off|summary|json:PATH>` plumbing shared by the CLI and
//! every bench binary.
//!
//! Parsing is pure ([`TelemetryMode::parse`]); [`TelemetryMode::from_env_args`]
//! scans a raw argument list (with a `CUALIGN_TELEMETRY` environment
//! fallback, so bench binaries that take no arguments can still be
//! switched on). Activating a mode ([`TelemetryMode::activate`]) flips the
//! global enabled flag and returns a [`TelemetrySink`] whose
//! [`TelemetrySink::emit`] writes the final snapshot wherever the mode
//! points.

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

use crate::registry::Registry;

/// Where (and whether) a run's telemetry snapshot goes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No recording beyond the always-on atomics; nothing emitted.
    #[default]
    Off,
    /// Record everything; print the pretty tree to stderr at exit.
    Summary,
    /// Record everything; append one JSON line to the given file.
    Json(PathBuf),
}

impl TelemetryMode {
    /// Parses `off`, `summary`, or `json:PATH`.
    pub fn parse(s: &str) -> Result<TelemetryMode, String> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "summary" => Ok(TelemetryMode::Summary),
            _ => match s.strip_prefix("json:") {
                Some(path) if !path.is_empty() => Ok(TelemetryMode::Json(PathBuf::from(path))),
                Some(_) => Err("--telemetry json: requires a path (json:PATH)".to_string()),
                None => Err(format!(
                    "unknown telemetry mode '{s}' (expected off, summary, or json:PATH)"
                )),
            },
        }
    }

    /// Finds `--telemetry MODE` (or `--telemetry=MODE`) in `args`,
    /// falling back to the `CUALIGN_TELEMETRY` environment variable, then
    /// to `Off`. The last occurrence wins.
    pub fn from_env_args(args: impl Iterator<Item = String>) -> Result<TelemetryMode, String> {
        let mut found = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if arg == "--telemetry" {
                match args.next() {
                    Some(v) => found = Some(TelemetryMode::parse(&v)?),
                    None => return Err("--telemetry requires a value".to_string()),
                }
            } else if let Some(v) = arg.strip_prefix("--telemetry=") {
                found = Some(TelemetryMode::parse(v)?);
            }
        }
        if let Some(mode) = found {
            return Ok(mode);
        }
        match std::env::var("CUALIGN_TELEMETRY") {
            Ok(v) if !v.is_empty() => TelemetryMode::parse(&v),
            _ => Ok(TelemetryMode::Off),
        }
    }

    /// Whether this mode records (anything other than [`TelemetryMode::Off`]).
    pub fn is_on(&self) -> bool {
        *self != TelemetryMode::Off
    }

    /// Flips the global enabled flag to match this mode and returns the
    /// sink to [`TelemetrySink::emit`] when the run finishes.
    pub fn activate(self) -> TelemetrySink {
        crate::set_enabled(self.is_on());
        TelemetrySink { mode: self }
    }
}

impl fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryMode::Off => write!(f, "off"),
            TelemetryMode::Summary => write!(f, "summary"),
            TelemetryMode::Json(p) => write!(f, "json:{}", p.display()),
        }
    }
}

/// An activated [`TelemetryMode`], ready to emit a snapshot at run end.
#[derive(Debug)]
pub struct TelemetrySink {
    mode: TelemetryMode,
}

impl TelemetrySink {
    /// The mode this sink was activated with.
    pub fn mode(&self) -> &TelemetryMode {
        &self.mode
    }

    /// Snapshots `registry` and writes it out: pretty tree to stderr for
    /// `summary`, one appended JSON line for `json:PATH`, nothing for
    /// `off`. A snapshot with nothing recorded
    /// ([`crate::Snapshot::is_empty`]) emits nothing in any mode, so a
    /// run whose telemetry never switched on does not leave `{}`-husk
    /// lines in JSON sinks.
    pub fn emit(&self, registry: &Registry) -> std::io::Result<()> {
        match &self.mode {
            TelemetryMode::Off => Ok(()),
            TelemetryMode::Summary => {
                let snapshot = registry.snapshot();
                if !snapshot.is_empty() {
                    eprint!("{}", snapshot.render_tree());
                }
                Ok(())
            }
            TelemetryMode::Json(path) => {
                let snapshot = registry.snapshot();
                if snapshot.is_empty() {
                    return Ok(());
                }
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                writeln!(file, "{}", snapshot.to_json())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_modes() {
        assert_eq!(TelemetryMode::parse("off"), Ok(TelemetryMode::Off));
        assert_eq!(TelemetryMode::parse("summary"), Ok(TelemetryMode::Summary));
        assert_eq!(
            TelemetryMode::parse("json:/tmp/t.json"),
            Ok(TelemetryMode::Json(PathBuf::from("/tmp/t.json")))
        );
        assert!(TelemetryMode::parse("json:").is_err());
        assert!(TelemetryMode::parse("verbose").is_err());
    }

    #[test]
    fn scans_args_in_both_flag_styles() {
        fn args(v: &[&str]) -> std::vec::IntoIter<String> {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        }
        assert_eq!(
            TelemetryMode::from_env_args(args(&["--telemetry", "summary"])),
            Ok(TelemetryMode::Summary)
        );
        assert_eq!(
            TelemetryMode::from_env_args(args(&["--telemetry=json:x.json", "--seed", "7"])),
            Ok(TelemetryMode::Json(PathBuf::from("x.json")))
        );
        // Last occurrence wins.
        assert_eq!(
            TelemetryMode::from_env_args(args(&["--telemetry=summary", "--telemetry", "off"])),
            Ok(TelemetryMode::Off)
        );
        assert!(TelemetryMode::from_env_args(args(&["--telemetry"])).is_err());
    }

    #[test]
    fn json_sink_appends_one_line_per_emit() {
        let _flag = crate::flag_lock();
        let dir =
            std::env::temp_dir().join(format!("cualign-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);

        let sink = TelemetryMode::Json(path.clone()).activate();
        let r = Registry::new();
        r.counter("runs").inc();
        sink.emit(&r).unwrap();
        r.counter("runs").inc();
        sink.emit(&r).unwrap();

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"runs\":1"));
        assert!(lines[1].contains("\"runs\":2"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        std::fs::remove_file(&path).unwrap();
        crate::set_enabled(false);
    }

    #[test]
    fn empty_snapshot_emits_nothing() {
        let _flag = crate::flag_lock();
        let dir =
            std::env::temp_dir().join(format!("cualign-telemetry-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.json");
        let _ = std::fs::remove_file(&path);

        let sink = TelemetryMode::Json(path.clone()).activate();
        let r = Registry::new();
        assert!(r.snapshot().is_empty());
        sink.emit(&r).unwrap();
        assert!(
            !path.exists(),
            "an empty snapshot must not leave a husk record"
        );

        // The moment anything records, emission resumes.
        r.counter("runs").inc();
        assert!(!r.snapshot().is_empty());
        sink.emit(&r).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        std::fs::remove_file(&path).unwrap();
        crate::set_enabled(false);
    }

    #[test]
    fn display_round_trips() {
        for s in ["off", "summary", "json:a/b.json"] {
            let mode = TelemetryMode::parse(s).unwrap();
            assert_eq!(TelemetryMode::parse(&mode.to_string()).unwrap(), mode);
        }
    }
}
