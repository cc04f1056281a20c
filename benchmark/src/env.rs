//! The environment record printed with every result, the system checks
//! that go with it, and the process-level measurements (peak memory).

use std::process::Command;

/// Where and on what a run was taken.
pub struct Env {
    pub cpus: usize,
    pub rustc: String,
    pub git_sha: String,
    pub seed: u64,
    /// 1-minute load average when the run started.
    pub loadavg: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// 1-minute load average, 0 where `/proc/loadavg` is unreadable.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

impl Env {
    pub fn capture(seed: u64) -> Env {
        Env {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "missing".into()),
            // a driver's checkout is not a git repository
            git_sha: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
            loadavg: loadavg(),
        }
    }

    /// One line for stderr / the head of a report.
    pub fn line(&self) -> String {
        format!(
            "env: cpus={} rustc=\"{}\" git={} seed={} loadavg_1m={:.2}",
            self.cpus, self.rustc, self.git_sha, self.seed, self.loadavg
        )
    }

    /// The same as JSON fields (no surrounding braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"cpus\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \"seed\": {}, \"loadavg_1m\": {}",
            self.cpus, self.rustc, self.git_sha, self.seed, self.loadavg
        )
    }

    /// Warnings about conditions under which the timings should not be
    /// trusted.
    pub fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        if self.loadavg > 0.5 * self.cpus as f64 {
            w.push(format!(
                "1-minute load average {:.2} exceeds half of {} cpu(s): timings will read high",
                self.loadavg, self.cpus
            ));
        }
        if self.rustc == "missing" {
            w.push("rustc is missing: host_run cannot build native kernels".into());
        }
        w
    }
}

/// `VmHWM` (peak resident set, MB) and parent pid of process `pid`.
fn peak_rss_and_parent(pid: &str) -> Option<(f64, u32)> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |key: &str| {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    };
    Some((field("VmHWM:")? / 1024.0, field("PPid:")? as u32))
}

/// Peak memory of the run in MB: the larger of this process's
/// high-water mark and that of any child still alive (the native
/// runner processes). `rustc`, which the native tier spawns during
/// set-up, has exited by then and is deliberately not counted: its
/// peak is the toolchain's, not the product's.
pub fn peak_rss_mb() -> f64 {
    let me = std::process::id();
    let own = peak_rss_and_parent("self").map_or(0.0, |(mb, _)| mb);
    let children = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let pid = name.to_str()?;
            pid.bytes()
                .all(|b| b.is_ascii_digit())
                .then(|| peak_rss_and_parent(pid))?
        })
        .filter(|&(_, parent)| parent == me)
        .map(|(mb, _)| mb);
    children.fold(own, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_memory_counts_live_children() {
        let (own, _) = peak_rss_and_parent("self").expect("/proc/self/status");
        assert!(own > 0.5 && own < 1.0e6, "VmHWM {own} MB");
        assert!(peak_rss_mb() >= own);
        // a live child is found through its PPid
        let mut child = Command::new("sleep").arg("5").spawn().expect("spawn sleep");
        let (_, parent) = peak_rss_and_parent(&child.id().to_string()).expect("child status");
        assert_eq!(parent, std::process::id());
        child.kill().expect("kill sleep");
        child.wait().expect("reap sleep");
    }

    #[test]
    fn load_warning_threshold() {
        let mut e = Env {
            cpus: 2,
            rustc: "rustc 1.0".into(),
            git_sha: "abc".into(),
            seed: 1,
            loadavg: 0.9,
        };
        assert!(e.warnings().is_empty());
        e.loadavg = 1.1;
        assert_eq!(e.warnings().len(), 1);
        e.rustc = "missing".into();
        assert_eq!(e.warnings().len(), 2);
    }
}
