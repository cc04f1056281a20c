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

// --- trajectory regression check ---

/// The aggregate metrics compared against the history trajectory
/// (dotted paths into one history line's `aggregates` object). Higher
/// is better for all of them.
pub const TRAJECTORY_METRICS: [&str; 3] = [
    "exec.bytecode_speedup",
    "exec.native_speedup",
    "memsim.speedup",
];

/// One metric's comparison against the median of comparable history.
#[derive(Clone, Debug)]
pub struct TrajectoryCheck {
    /// Dotted metric path (one of [`TRAJECTORY_METRICS`]).
    pub metric: &'static str,
    /// The current run's value.
    pub current: f64,
    /// Median across the comparable history entries (0 when none).
    pub median: f64,
    /// Comparable history entries that carried this metric.
    pub samples: usize,
    /// `current / median` (infinity when no samples).
    pub ratio: f64,
    /// Whether enough samples existed to enforce the floor.
    pub enforced: bool,
    /// `!enforced || ratio >= tolerance`.
    pub ok: bool,
}

/// Seek past `"key":` in `json`, returning the remainder starting at
/// the value. Purely lexical — good enough for the flat, known-shape
/// objects this module itself renders, which is the point: no JSON
/// dependency.
fn seek<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let i = json.find(&needle)?;
    Some(json[i + needle.len()..].trim_start())
}

/// Extract the number at a dotted path (`"exec.bytecode_speedup"`).
/// `None` for a missing path or an explicit `null`.
pub fn extract_number(json: &str, path: &str) -> Option<f64> {
    let mut rest = json;
    for seg in path.split('.') {
        rest = seek(rest, seg)?;
    }
    if rest.starts_with("null") {
        return None;
    }
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string at a dotted path. `None` for missing or
/// non-string values.
pub fn extract_string(json: &str, path: &str) -> Option<String> {
    let mut rest = json;
    for seg in path.split('.') {
        rest = seek(rest, seg)?;
    }
    let rest = rest.strip_prefix('"')?;
    // The strings this module renders never contain escaped quotes
    // (profile names, rustc versions, short SHAs).
    Some(rest[..rest.find('"')?].to_string())
}

/// Whether a history line is a single, complete JSON object: starts
/// with `{`, brace-balanced outside string literals, and closes exactly
/// at the end of the line. Purely lexical like the rest of this module,
/// but enough to reject the two real corruption modes of an append-only
/// log — a torn (truncated) final line and interleaved garbage — before
/// their half-parsed numbers pollute the trajectory median (a line cut
/// mid-value, e.g. `"bytecode_speedup": 6.`, would otherwise still
/// extract `6.0` and silently skew the comparison).
pub fn line_is_wellformed(line: &str) -> bool {
    let line = line.trim();
    if !line.starts_with('{') {
        return false;
    }
    let (mut depth, mut in_str, mut escape) = (0i64, false, false);
    for (i, c) in line.char_indices() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i == line.len() - 1;
                }
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    false
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Compare the current run's aggregates against the trajectory of
/// *comparable* history entries — same build profile, since a debug
/// number against a release trajectory measures the compiler, not a
/// regression. Each metric with at least `min_samples` comparable
/// entries must reach `tolerance` × the historical median; metrics
/// with thinner history are reported but not enforced. The tolerance
/// is deliberately generous (the ROADMAP suggests ~0.4×): machine
/// noise and CPU-count drift must not trip it, only a genuine
/// pipeline regression.
pub fn check_trajectory(
    history_text: &str,
    env: &EnvFingerprint,
    current_aggregates: &str,
    tolerance: f64,
    min_samples: usize,
) -> Vec<TrajectoryCheck> {
    let comparable: Vec<&str> = history_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter(|l| {
            if line_is_wellformed(l) {
                return true;
            }
            let shown: String = l.chars().take(80).collect();
            eprintln!("warning: skipping malformed history line: {shown}");
            false
        })
        .filter(|l| extract_string(l, "env.profile").as_deref() == Some(env.profile))
        .collect();
    TRAJECTORY_METRICS
        .iter()
        .filter_map(|&metric| {
            let current = extract_number(current_aggregates, metric)?;
            let mut values: Vec<f64> = comparable
                .iter()
                .filter_map(|l| {
                    let aggregates = seek(l, "aggregates")?;
                    extract_number(aggregates, metric)
                })
                .filter(|v| v.is_finite())
                .collect();
            let samples = values.len();
            let med = median(&mut values);
            let ratio = if med > 0.0 {
                current / med
            } else {
                f64::INFINITY
            };
            let enforced = samples >= min_samples;
            Some(TrajectoryCheck {
                metric,
                current,
                median: med,
                samples,
                ratio,
                enforced,
                ok: !enforced || ratio >= tolerance,
            })
        })
        .collect()
}

/// [`check_trajectory`] over a history file. A missing file is an
/// empty (all-pass) trajectory, not an error: the first run on a fresh
/// checkout has nothing to regress against.
pub fn check_file(
    path: impl AsRef<Path>,
    env: &EnvFingerprint,
    current_aggregates: &str,
    tolerance: f64,
    min_samples: usize,
) -> io::Result<Vec<TrajectoryCheck>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    Ok(check_trajectory(
        &text,
        env,
        current_aggregates,
        tolerance,
        min_samples,
    ))
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

    fn agg(memsim: f64, native: &str) -> String {
        format!(
            "{{\"exec\": {{\"bytecode_speedup\": 6.0, \"native_speedup\": {native}}}, \
             \"search\": {{\"memoized_secs\": 0.28}}, \"memsim\": {{\"speedup\": {memsim:.3}}}}}"
        )
    }

    fn history_of(entries: &[(f64, &str)]) -> String {
        entries
            .iter()
            .map(|(s, profile)| {
                let mut e = fp();
                e.profile = if *profile == "release" {
                    "release"
                } else {
                    "debug"
                };
                render_line(1, &e, &agg(*s, "72.0"))
            })
            .collect()
    }

    #[test]
    fn extract_number_walks_paths_and_handles_null() {
        let a = agg(7.0, "null");
        assert_eq!(extract_number(&a, "search.memoized_secs"), Some(0.28));
        assert_eq!(extract_number(&a, "memsim.speedup"), Some(7.0));
        assert_eq!(extract_number(&a, "exec.bytecode_speedup"), Some(6.0));
        assert_eq!(extract_number(&a, "exec.native_speedup"), None);
        assert_eq!(extract_number(&a, "exec.missing"), None);
        let line = render_line(9, &fp(), &a);
        assert_eq!(extract_string(&line, "env.profile"), Some("release".into()));
        assert_eq!(extract_number(&line, "epoch_secs"), Some(9.0));
    }

    #[test]
    fn trajectory_passes_on_flat_history_and_trips_on_regression() {
        let hist = history_of(&[(7.0, "release"), (7.2, "release"), (6.8, "release")]);
        let ok = check_trajectory(&hist, &fp(), &agg(6.9, "70.0"), 0.4, 3);
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert!(ok.iter().all(|c| c.enforced));
        let memsim = ok.iter().find(|c| c.metric == "memsim.speedup").unwrap();
        assert_eq!(memsim.median, 7.0);
        assert_eq!(memsim.samples, 3);

        // A 10x collapse of the memsim speedup trips the check; the
        // untouched metrics still pass.
        let bad = check_trajectory(&hist, &fp(), &agg(0.7, "70.0"), 0.4, 3);
        let memsim = bad.iter().find(|c| c.metric == "memsim.speedup").unwrap();
        assert!(!memsim.ok && memsim.enforced);
        assert!(bad
            .iter()
            .filter(|c| c.metric != "memsim.speedup")
            .all(|c| c.ok));
    }

    #[test]
    fn trajectory_reports_but_does_not_enforce_thin_history() {
        let hist = history_of(&[(7.0, "release")]);
        let checks = check_trajectory(&hist, &fp(), &agg(0.1, "1.0"), 0.4, 3);
        assert!(!checks.is_empty());
        assert!(checks.iter().all(|c| c.ok && !c.enforced), "{checks:?}");
    }

    #[test]
    fn trajectory_ignores_other_build_profiles_and_null_metrics() {
        // Three debug entries, one release: a release run must not be
        // judged against the debug trajectory.
        let hist = history_of(&[
            (0.5, "debug"),
            (0.5, "debug"),
            (0.5, "debug"),
            (7.0, "release"),
        ]);
        let checks = check_trajectory(&hist, &fp(), &agg(7.0, "70.0"), 0.4, 3);
        let memsim = checks
            .iter()
            .find(|c| c.metric == "memsim.speedup")
            .unwrap();
        assert_eq!(memsim.samples, 1);
        assert!(!memsim.enforced);
        // A current run without a native tier skips that metric
        // entirely rather than comparing null to numbers.
        let no_native = check_trajectory(&hist, &fp(), &agg(7.0, "null"), 0.4, 3);
        assert!(no_native.iter().all(|c| c.metric != "exec.native_speedup"));
    }

    #[test]
    fn wellformed_accepts_real_lines_and_rejects_corruption() {
        let line = render_line(1, &fp(), &agg(7.0, "72.0"));
        assert!(line_is_wellformed(&line));
        // Truncated mid-number: would lexically extract 6.0 and pollute
        // the median if admitted.
        let cut = &line[..line.find("bytecode_speedup").unwrap() + 21];
        assert!(cut.ends_with("6."), "{cut}");
        assert!(!line_is_wellformed(cut));
        assert!(!line_is_wellformed("total garbage, not json"));
        assert!(!line_is_wellformed("{\"a\": 1}}"));
        assert!(!line_is_wellformed("{\"a\": 1} trailing"));
        assert!(!line_is_wellformed(""));
        // Braces inside strings don't confuse the balance check.
        assert!(line_is_wellformed("{\"a\": \"{\\\"}\"}"));
    }

    #[test]
    fn trajectory_skips_truncated_and_garbage_lines() {
        let clean = history_of(&[(7.0, "release"), (7.2, "release"), (6.8, "release")]);
        // A torn final append (cut mid-number so the lexical extractor
        // would read a low value) plus interleaved garbage.
        let torn = render_line(2, &fp(), &agg(0.1, "1.0"));
        let torn = &torn[..torn.len() - 25];
        let dirty = format!("{clean}{torn}\nnot json at all\n{{\"epoch_secs\": 3\n");
        let from_clean = check_trajectory(&clean, &fp(), &agg(6.9, "70.0"), 0.4, 3);
        let from_dirty = check_trajectory(&dirty, &fp(), &agg(6.9, "70.0"), 0.4, 3);
        assert_eq!(from_clean.len(), from_dirty.len());
        for (a, b) in from_clean.iter().zip(&from_dirty) {
            assert_eq!(a.metric, b.metric);
            assert_eq!(a.median, b.median, "{}", a.metric);
            assert_eq!(a.samples, b.samples, "{}", a.metric);
            assert!(b.ok, "{}", b.metric);
        }
        // All-corrupt history degrades to an unenforced (empty) trajectory.
        let all_bad = check_trajectory("garbage\n{\"x\": 1\n", &fp(), &agg(6.9, "70.0"), 0.4, 3);
        assert!(all_bad
            .iter()
            .all(|c| c.samples == 0 && !c.enforced && c.ok));
    }

    #[test]
    fn check_file_treats_missing_history_as_empty() {
        let path = std::env::temp_dir().join(format!(
            "shackle-history-missing-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let checks = check_file(&path, &fp(), &agg(7.0, "70.0"), 0.4, 3).unwrap();
        assert!(checks.iter().all(|c| c.ok && !c.enforced && c.samples == 0));
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
