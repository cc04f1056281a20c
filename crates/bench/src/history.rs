//! Append-only benchmark history (`BENCH_history.jsonl`).
//!
//! The `BENCH_*.json` artifacts are snapshots: each run overwrites the
//! last, so a perf regression is only visible if someone diffs two CI
//! artifact downloads. The history file complements them — every
//! `perf_report` run appends one JSON line carrying the run's aggregate
//! speedups together with an [`EnvFingerprint`], so drift over time can
//! be separated from drift across machines (different CPU count,
//! `SHACKLE_THREADS`, build profile, toolchain, or commit).

use std::io::{self, Write};
use std::path::Path;
use std::process::Command;

/// Where the run happened: everything that could plausibly move a
/// benchmark number without a code change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Logical CPUs available to the process.
    pub cpus: usize,
    /// The `SHACKLE_THREADS` override, if set.
    pub shackle_threads: Option<String>,
    /// Build profile of the harness binary (`release` or `debug`).
    pub profile: &'static str,
    /// `rustc -V` of the toolchain on `PATH`, if any.
    pub rustc: Option<String>,
    /// Current git commit (short SHA), if the repo is available.
    pub git_sha: Option<String>,
}

impl EnvFingerprint {
    /// Capture the current environment. Missing pieces (no `rustc`, no
    /// git checkout) record as `null` rather than failing — history is
    /// observability, not a gate.
    pub fn capture() -> Self {
        Self {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shackle_threads: std::env::var("SHACKLE_THREADS").ok(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: first_line_of(Command::new("rustc").arg("-V")),
            git_sha: first_line_of(Command::new("git").args(["rev-parse", "--short", "HEAD"])),
        }
    }

    /// The fingerprint as a raw JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"shackle_threads\": {}, \"profile\": {}, \
             \"rustc\": {}, \"git_sha\": {}}}",
            self.cpus,
            json_opt_str(self.shackle_threads.as_deref()),
            json_str(self.profile),
            json_opt_str(self.rustc.as_deref()),
            json_opt_str(self.git_sha.as_deref()),
        )
    }
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn json_str(s: &str) -> String {
    let mut quoted = String::with_capacity(s.len() + 2);
    quoted.push('"');
    for c in s.chars() {
        match c {
            '"' => quoted.push_str("\\\""),
            '\\' => quoted.push_str("\\\\"),
            '\n' => quoted.push_str("\\n"),
            c if (c as u32) < 0x20 => quoted.push_str(&format!("\\u{:04x}", c as u32)),
            c => quoted.push(c),
        }
    }
    quoted.push('"');
    quoted
}

fn json_opt_str(s: Option<&str>) -> String {
    s.map_or_else(|| "null".to_string(), json_str)
}

/// Render one history line: epoch timestamp, environment fingerprint,
/// and the run's aggregates (a raw, pre-serialized JSON object).
pub fn render_line(epoch_secs: u64, env: &EnvFingerprint, aggregates_json: &str) -> String {
    format!(
        "{{\"epoch_secs\": {}, \"env\": {}, \"aggregates\": {}}}\n",
        epoch_secs,
        env.to_json(),
        aggregates_json.trim(),
    )
}

/// Append one run to the history file (created on first use). The line
/// is written with a single `write_all`, so concurrent appenders on the
/// same machine interleave at line granularity, not mid-record.
pub fn append(
    path: impl AsRef<Path>,
    env: &EnvFingerprint,
    aggregates_json: &str,
) -> io::Result<()> {
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = render_line(epoch_secs, env, aggregates_json);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> EnvFingerprint {
        EnvFingerprint {
            cpus: 8,
            shackle_threads: Some("4".into()),
            profile: "release",
            rustc: Some("rustc 1.0.0".into()),
            git_sha: None,
        }
    }

    #[test]
    fn fingerprint_renders_nulls_and_strings() {
        let json = fp().to_json();
        assert_eq!(
            json,
            "{\"cpus\": 8, \"shackle_threads\": \"4\", \"profile\": \"release\", \
             \"rustc\": \"rustc 1.0.0\", \"git_sha\": null}"
        );
    }

    #[test]
    fn capture_never_fails() {
        let env = EnvFingerprint::capture();
        assert!(env.cpus >= 1);
        assert!(matches!(env.profile, "debug" | "release"));
    }

    #[test]
    fn lines_append_and_stay_one_record_per_line() {
        let dir = std::env::temp_dir().join(format!("shackle_history_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_history.jsonl");
        append(&path, &fp(), "{\"exec\": {\"speedup\": 21.0}}").unwrap();
        append(&path, &fp(), "{\"exec\": {\"speedup\": 22.0}}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"epoch_secs\": "));
            assert!(line.contains("\"env\": {\"cpus\": 8"));
            assert!(
                line.ends_with("\"aggregates\": {\"exec\": {\"speedup\": 22.0}}}")
                    || line.contains("21.0")
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_line_embeds_aggregates_verbatim() {
        let line = render_line(123, &fp(), "{\"a\": 1}\n");
        assert_eq!(
            line,
            format!(
                "{{\"epoch_secs\": 123, \"env\": {}, \"aggregates\": {{\"a\": 1}}}}\n",
                fp().to_json()
            )
        );
    }
}
