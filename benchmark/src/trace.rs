//! The traced run's record: what `shackle-probe` saw, round by round.
//!
//! The product crates already open a `shackle_probe` span at every layer
//! boundary (`omega`, `fm`, `gist`, `legality`, `enumerate`, `grow`,
//! `codegen`, `model.predict`, `search.topk_rescore`, `compile`, `run`,
//! `interp`, `native.build`, `native.run`, `optimize`, `preflight`,
//! `search`, `quote`) and count work in probe counters. The benchmark
//! adds spans of its own, from its own files, only around the calls it
//! makes into a layer that has none (`ir.parse`, `pipeline.auto_search`,
//! `serve.connection`, `core.grid`, `model.geometry`, `ir.emit`,
//! `exec.native_spawn`). A traced run switches the probe on, resets it
//! before every round and takes a [`Snapshot`] after it, so the traced
//! rounds call exactly what the untraced rounds call.
//!
//! The probe aggregates by span *path* (the stack of enclosing span
//! names): a snapshot row is `{path, calls, wall_ns}` plus the self
//! time computed here — the row's wall time minus that of its direct
//! children — so a layer never counts the layers it calls into.

use shackle_probe::ProfileSpan;
use std::io::Write;

/// One span path of one snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    pub path: String,
    pub calls: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

impl SpanRow {
    /// The span's own name: the last component of its path.
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Everything the probe recorded between a reset and now.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub spans: Vec<SpanRow>,
    pub counters: Vec<(String, u64)>,
}

/// Self time of every row: wall time minus the wall time of the rows
/// exactly one level below it.
fn with_self_times(spans: &[ProfileSpan]) -> Vec<SpanRow> {
    spans
        .iter()
        .map(|s| {
            let children: u128 = spans
                .iter()
                .filter(|c| {
                    c.depth == s.depth + 1
                        && c.path.len() > s.path.len()
                        && c.path.starts_with(&s.path)
                        && c.path.as_bytes()[s.path.len()] == b'/'
                })
                .map(|c| c.wall_ns)
                .sum();
            SpanRow {
                path: s.path.clone(),
                calls: s.calls,
                wall_ns: s.wall_ns as u64,
                self_ns: s.wall_ns.saturating_sub(children) as u64,
            }
        })
        .collect()
}

impl Snapshot {
    /// Read the probe's tables (the polyhedral cache's statistics are
    /// folded into its counters first).
    pub fn take() -> Snapshot {
        shackle_polyhedra::cache::publish_stats();
        let profile = shackle_probe::profile();
        Snapshot {
            spans: with_self_times(&profile.spans),
            counters: profile.counters,
        }
    }

    /// Self nanoseconds and calls of every span called `leaf`, summed
    /// over the paths it appears under.
    pub fn span(&self, leaf: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.leaf() == leaf)
            .fold((0, 0), |(ns, calls), s| (ns + s.self_ns, calls + s.calls))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn write_json(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(
                w,
                "{comma}\n  {{\"path\": \"{}\", \"calls\": {}, \"wall_ns\": {}, \"self_ns\": {}}}",
                s.path, s.calls, s.wall_ns, s.self_ns
            )?;
        }
        write!(w, "],\n \"counters\": {{")?;
        let live = self.counters.iter().filter(|(_, v)| *v > 0);
        for (i, (name, value)) in live.enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            write!(w, "{comma}\"{name}\": {value}")?;
        }
        write!(w, "}}}}")
    }
}

/// A traced run: the set-up phase and every traced round.
#[derive(Default)]
pub struct Trace {
    pub setup: Snapshot,
    pub rounds: Vec<Snapshot>,
}

impl Trace {
    /// Write the whole trace as one JSON document; `header` is a list
    /// of JSON members describing the run.
    pub fn write_json(&self, w: &mut impl Write, header: &str) -> std::io::Result<()> {
        write!(w, "{{{header},\n\"setup\": ")?;
        self.setup.write_json(w)?;
        write!(w, ",\n\"rounds\": [")?;
        for (i, r) in self.rounds.iter().enumerate() {
            writeln!(w, "{}", if i == 0 { "" } else { "," })?;
            r.write_json(w)?;
        }
        writeln!(w, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, calls: u64, wall_ns: u128) -> ProfileSpan {
        ProfileSpan {
            path: path.to_string(),
            depth: path.matches('/').count(),
            name: path.rsplit('/').next().unwrap().to_string(),
            calls,
            wall_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer 100 ⊃ mid 50 ⊃ leaf 10; outer ⊃ tail 20; `outer2` shares
        // a prefix with `outer` but is nobody's child
        let rows = with_self_times(&[
            row("outer", 1, 100),
            row("outer/mid", 2, 50),
            row("outer/mid/leaf", 4, 10),
            row("outer/tail", 1, 20),
            row("outer2", 1, 7),
            row("outer2/leaf", 1, 3),
        ]);
        let own: Vec<u64> = rows.iter().map(|r| r.self_ns).collect();
        assert_eq!(own, vec![30, 40, 10, 20, 4, 3]);
        // self times of a tree add up to its root's wall time
        assert_eq!(own[..4].iter().sum::<u64>(), 100);
        let snap = Snapshot {
            spans: rows,
            counters: vec![("n".to_string(), 5), ("zero".to_string(), 0)],
        };
        // a leaf name is summed over every path it appears under
        assert_eq!(snap.span("leaf"), (13, 5));
        assert_eq!(snap.span("absent"), (0, 0));
        assert_eq!((snap.counter("n"), snap.counter("absent")), (5, 0));
    }

    #[test]
    fn json_lists_setup_and_every_round() {
        let snap = Snapshot {
            spans: with_self_times(&[row("a", 1, 9), row("a/b", 2, 4)]),
            counters: vec![("n".to_string(), 5), ("zero".to_string(), 0)],
        };
        let trace = Trace {
            setup: snap.clone(),
            rounds: vec![snap.clone(), snap],
        };
        let mut out = Vec::new();
        trace.write_json(&mut out, "\"workload\": \"w\"").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"workload\": \"w\",\n\"setup\": {\"spans\": ["));
        assert_eq!(text.matches("\"path\": \"a/b\"").count(), 3);
        assert!(text.contains("\"wall_ns\": 9, \"self_ns\": 5}"));
        assert!(text.contains("\"counters\": {\"n\": 5}"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
