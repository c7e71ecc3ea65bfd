//! Collapsed-stack ("folded") flamegraph rendering from span trees.
//!
//! The folded format is one line per distinct stack, `frame;frame;... N`,
//! where frames are `;`-joined root-first and `N` is the stack's *self*
//! value — time spent in the leaf frame itself, excluding children. It is
//! the interchange format consumed by `inferno`, Brendan Gregg's
//! `flamegraph.pl`, and speedscope, so the text file `lucid profile`
//! writes can be rendered by any of them without further conversion.
//!
//! Values are microseconds: the native resolution of [`SpanRecord`]
//! durations. Self time is a span's duration minus the sum of its
//! children's durations, floored at zero (children measured on other
//! threads can overlap their parent). Identical stacks are merged and the
//! output is sorted lexicographically so the rendering is deterministic
//! for a given span tree regardless of record order.

use crate::span::SpanRecord;
use serde::{FromJson, Serialize};
use std::collections::BTreeMap;

/// One aggregated stack line of a folded flamegraph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, FromJson)]
pub struct FoldedFrame {
    /// `;`-joined frame names, root first (e.g. `interp.run;stmt.assign`).
    pub stack: String,
    /// Total self time across all spans with this stack, in microseconds.
    pub self_us: u64,
    /// Number of spans merged into this line.
    pub count: u64,
}

/// Aggregates span records into folded stacks (root-first, self-time
/// valued, merged by identical stack, lexicographically sorted).
///
/// Records whose parent id is missing from the record set (e.g. the
/// parent was evicted by the collector's retention bound) are treated as
/// roots of their own stacks rather than dropped, so a truncated span
/// buffer still folds into a complete — if flatter — profile.
pub fn fold_spans(records: &[SpanRecord]) -> Vec<FoldedFrame> {
    let by_id: BTreeMap<u64, &SpanRecord> =
        records.iter().map(|r| (r.id, r)).collect();

    // Children duration sums, for self-time subtraction.
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            if by_id.contains_key(&p) {
                *child_us.entry(p).or_insert(0) += r.dur_us;
            }
        }
    }

    let mut merged: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in records {
        let mut frames = vec![r.name.as_str()];
        let mut cursor = r.parent;
        // Walk to the root; bounded by the record count to survive a
        // (malformed) parent cycle.
        let mut hops = 0usize;
        while let Some(pid) = cursor {
            let Some(parent) = by_id.get(&pid) else { break };
            frames.push(parent.name.as_str());
            cursor = parent.parent;
            hops += 1;
            if hops > records.len() {
                break;
            }
        }
        frames.reverse();
        let stack = frames.join(";");
        let self_us = r
            .dur_us
            .saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
        let entry = merged.entry(stack).or_insert((0, 0));
        entry.0 += self_us;
        entry.1 += 1;
    }

    merged
        .into_iter()
        .map(|(stack, (self_us, count))| FoldedFrame {
            stack,
            self_us,
            count,
        })
        .collect()
}

/// Renders folded frames as collapsed-stack text, one `stack value` line
/// per frame. Zero-valued frames are kept: a sub-microsecond span is
/// still a real stack, and dropping it would make cheap-but-hot paths
/// invisible (and could render a short trace as an empty file).
pub fn to_folded(frames: &[FoldedFrame]) -> String {
    let mut out = String::new();
    for f in frames {
        out.push_str(&f.stack);
        out.push(' ');
        out.push_str(&f.self_us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: 0,
            dur_us,
        }
    }

    /// The golden folded rendering of a fixed span tree:
    ///
    /// ```text
    /// interp.run (1000 µs)
    /// ├── stmt.assign (300 µs)
    /// │   └── stmt.assign.eval (100 µs)
    /// ├── stmt.drop (200 µs)
    /// └── stmt.assign (150 µs)   // merges with the earlier sibling
    /// ```
    #[test]
    fn golden_folded_output_of_fixed_span_tree() {
        let records = vec![
            rec(1, None, "interp.run", 1000),
            rec(2, Some(1), "stmt.assign", 300),
            rec(3, Some(2), "stmt.assign.eval", 100),
            rec(4, Some(1), "stmt.drop", 200),
            rec(5, Some(1), "stmt.assign", 150),
        ];
        let folded = to_folded(&fold_spans(&records));
        let expected = "\
interp.run 350
interp.run;stmt.assign 350
interp.run;stmt.assign;stmt.assign.eval 100
interp.run;stmt.drop 200
";
        assert_eq!(folded, expected);
    }

    #[test]
    fn merged_stacks_count_their_spans() {
        let records = vec![
            rec(1, None, "interp.run", 100),
            rec(2, Some(1), "stmt.assign", 30),
            rec(3, Some(1), "stmt.assign", 20),
        ];
        let frames = fold_spans(&records);
        let assign = frames
            .iter()
            .find(|f| f.stack == "interp.run;stmt.assign")
            .unwrap();
        assert_eq!(assign.count, 2);
        assert_eq!(assign.self_us, 50);
    }

    #[test]
    fn missing_parents_become_roots_not_losses() {
        // Parent id 7 was evicted from the bounded span buffer.
        let records = vec![rec(8, Some(7), "stmt.orphan", 40)];
        let frames = fold_spans(&records);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].stack, "stmt.orphan");
        assert_eq!(frames[0].self_us, 40);
    }

    #[test]
    fn overlapping_children_floor_self_time_at_zero() {
        // Children sum past the parent (overlapped wall time): parent
        // self time floors at 0 and the frame is still emitted.
        let records = vec![
            rec(1, None, "interp.run", 100),
            rec(2, Some(1), "stmt.a", 80),
            rec(3, Some(1), "stmt.b", 80),
        ];
        let folded = to_folded(&fold_spans(&records));
        assert!(folded.contains("interp.run 0\n"));
        assert!(folded.contains("interp.run;stmt.a 80\n"));
    }

    #[test]
    fn parent_cycles_terminate() {
        // Malformed: 1 and 2 are each other's parents. The walk must
        // terminate and still emit both stacks.
        let records = vec![
            rec(1, Some(2), "a", 10),
            rec(2, Some(1), "b", 10),
        ];
        let frames = fold_spans(&records);
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn empty_records_fold_to_empty_text() {
        assert!(fold_spans(&[]).is_empty());
        assert_eq!(to_folded(&[]), "");
    }
}
