//! Snapshotting and rendering: phase tree for humans, JSON for CI.

use crate::span::SPANS;

/// One span path's accumulated statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Full slash-joined path, e.g. `"cholesky_right/search/legality"`.
    pub path: String,
    /// Nesting depth (number of enclosing spans).
    pub depth: usize,
    /// Leaf name (last path component).
    pub name: String,
    /// Number of times a span closed on this path.
    pub calls: u64,
    /// Wall nanoseconds summed over those calls (and over threads, so
    /// nested parallel phases can exceed their parent's wall time).
    pub wall_ns: u128,
}

/// An immutable snapshot of every span and counter, deterministically
/// ordered (spans by path components, counters by name).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Spans, sorted so every parent precedes its children.
    pub spans: Vec<ProfileSpan>,
    /// `(name, value)` counter pairs, sorted by name. Counters that
    /// were registered but never touched appear with value 0.
    pub counters: Vec<(String, u64)>,
}

pub(crate) fn snapshot() -> Profile {
    let spans = SPANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(path, stat)| ProfileSpan {
            path: path.join("/"),
            depth: path.len() - 1,
            name: path.last().copied().unwrap_or_default().to_string(),
            calls: stat.calls,
            wall_ns: stat.nanos,
        })
        .collect();
    Profile {
        spans,
        counters: crate::metrics::snapshot_counters(),
    }
}

fn human_time(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Profile {
    /// Render the span table as an indented phase tree with per-phase
    /// call counts and wall time, followed by non-zero counters.
    pub fn render_tree(&self) -> String {
        let mut out = String::from("phase tree (wall time, calls):\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for s in &self.spans {
            let indent = "  ".repeat(s.depth + 1);
            let label = format!("{indent}{}", s.name);
            out.push_str(&format!(
                "{label:<40} {:>12} {:>8} calls\n",
                human_time(s.wall_ns),
                s.calls
            ));
        }
        let live: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !live.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in live {
                out.push_str(&format!("  {name:<38} {value:>14}\n"));
            }
        }
        out
    }

    /// Serialize as a deterministic JSON object with `spans` and
    /// `counters` keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"path\": \"{}\", \"calls\": {}, \"wall_ns\": {}}}{comma}\n",
                json_escape(&s.path),
                s.calls,
                s.wall_ns
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            let comma = if first { "" } else { "," };
            first = false;
            out.push_str(&format!("{comma}\n    \"{}\": {value}", json_escape(name)));
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let _l = crate::testlock::hold();
        crate::set_enabled(true);
        crate::reset();
        {
            let _a = crate::span("a");
            let _b = crate::span("b");
            crate::add("n", 2);
        }
        crate::set_enabled(false);
        let json = crate::profile().to_json();
        assert!(json.starts_with("{\n  \"spans\": [\n"));
        assert!(json.contains("{\"path\": \"a\", \"calls\": 1, \"wall_ns\": "));
        assert!(json.contains("{\"path\": \"a/b\", \"calls\": 1, \"wall_ns\": "));
        assert!(json.contains("\"n\": 2"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn tree_lists_parents_before_children() {
        let _l = crate::testlock::hold();
        crate::set_enabled(true);
        crate::reset();
        {
            let _a = crate::span("zeta");
            let _b = crate::span("alpha");
        }
        {
            let _a = crate::span("zeta");
        }
        crate::set_enabled(false);
        let tree = crate::profile().render_tree();
        let zeta = tree.find("zeta").unwrap();
        let alpha = tree.find("alpha").unwrap();
        assert!(zeta < alpha, "parent must precede child:\n{tree}");
        assert!(tree.contains("2 calls"));
    }

    #[test]
    fn human_time_units() {
        assert_eq!(human_time(12), "12ns");
        assert_eq!(human_time(1_500), "1.500us");
        assert_eq!(human_time(2_000_000), "2.000ms");
        assert_eq!(human_time(3_500_000_000), "3.500s");
    }
}
