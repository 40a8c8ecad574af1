//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a tao layer in
//! [`span`]; a span's name is `<layer>.<operation>` (for example
//! `overlay.route`). With tracing off, [`span`] only calls its closure.
//! With tracing on, each span records its start, end and the span that was
//! open when it began, so a layer's self time is its spans' durations
//! minus the part their child spans cover. Spans stay in memory until
//! [`finish`] hands them back; nothing is written while a workload runs.
//!
//! Some program calls happen inside a program function the benchmark
//! cannot open up (the soft-state lookup inside `GlobalStateSelector::select`).
//! The benchmark times such a call by making an identical one just before,
//! in a [`stand_in`] span: its duration is taken out of the parent's self
//! time a second time, for the copy inside the parent, and out of the
//! timed steps, since the program never makes it.
//!
//! The benchmark is single-threaded (it forces one worker), so the
//! recorder is a thread-local.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Marks a span that has no parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since tracing began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// A repeat of a call the parent makes, made only to time it.
    pub stand_in: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the text before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns the spans in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

fn begin(name: &'static str, stand_in: bool) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let index = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(ROOT);
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stand_in,
        });
        rec.open.push(index);
        Some(index)
    })
}

fn end(index: Option<u32>) {
    let Some(index) = index else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans[index as usize].end_ns = end_ns;
            let popped = rec.open.pop();
            debug_assert_eq!(popped, Some(index), "spans must nest");
        }
    });
}

/// Runs `f` inside a span named `name` (a no-op wrapper when tracing is
/// off).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = begin(name, false);
    let out = f();
    end(id);
    out
}

/// Runs `f`, a repeat of a call the enclosing span's code makes where it
/// cannot be wrapped, inside a stand-in span named `name` (see the module
/// documentation).
#[inline]
pub fn stand_in<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = begin(name, true);
    let out = f();
    end(id);
    out
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Each span's self time: its duration minus its direct children's, and
/// minus each stand-in child's once more for the call it stands for.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let times = if s.stand_in { 2 } else { 1 };
            child_ns[s.parent as usize] += times * s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, children)| s.duration_ns().saturating_sub(children))
        .collect()
}

/// Totals per span name: call count, summed duration and summed self time.
pub fn stats_by_name(spans: &[Span]) -> Vec<(&'static str, NameStats)> {
    let mut out: Vec<(&'static str, NameStats)> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let slot = match out.iter().position(|(n, _)| *n == s.name) {
            Some(i) => i,
            None => {
                out.push((s.name, NameStats::default()));
                out.len() - 1
            }
        };
        let st = &mut out[slot].1;
        st.calls += 1;
        st.total_ns += s.duration_ns();
        st.self_ns += own;
    }
    out
}

/// Looks up one name's totals (zeros when no such span was recorded).
pub fn stats_of(stats: &[(&'static str, NameStats)], name: &str) -> NameStats {
    stats
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s.clone())
        .unwrap_or_default()
}

/// The spans that lie inside `within` (itself included), following
/// parent links.
pub fn descendants(spans: &[Span], within: &[u32]) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for &w in within {
        inside[w as usize] = true;
    }
    // Parents always precede their children, so one forward pass suffices.
    for i in 0..spans.len() {
        let p = spans[i].parent;
        if p != ROOT && inside[p as usize] {
            inside[i] = true;
        }
    }
    inside
}

/// Writes spans compactly, since a traced replay holds millions: a
/// header, one `name_id<TAB>name` line per distinct name (with a third
/// field `stand-in` for stand-in spans' names), then one line per
/// span in start order, `name_id<TAB>start<TAB>duration<TAB>parent`, where
/// `start` is nanoseconds after the previous span's start (the first span's
/// is after tracing began), `duration` is in nanoseconds, and `parent` is
/// how many spans back the parent is (`0` for none).
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let mut names: Vec<(&'static str, bool)> = Vec::new();
    let ids: Vec<usize> = spans
        .iter()
        .map(|s| match names.iter().position(|n| n.0 == s.name) {
            Some(i) => i,
            None => {
                names.push((s.name, s.stand_in));
                names.len() - 1
            }
        })
        .collect();
    writeln!(
        out,
        "# perfbench spans: {} names, {} spans",
        names.len(),
        spans.len()
    )?;
    for (i, (n, stand_in)) in names.iter().enumerate() {
        let mark = if *stand_in { "\tstand-in" } else { "" };
        writeln!(out, "{i}\t{n}{mark}")?;
    }
    let mut prev_start = 0;
    for (i, (s, id)) in spans.iter().zip(ids).enumerate() {
        let back = if s.parent == ROOT {
            0
        } else {
            i - s.parent as usize
        };
        let delta = s.start_ns.saturating_sub(prev_start);
        writeln!(out, "{id}\t{delta}\t{}\t{back}", s.duration_ns())?;
        prev_start = s.start_ns;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "core.a",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                stand_in: false,
            },
            Span {
                name: "overlay.b",
                start_ns: 10,
                end_ns: 60,
                parent: 0,
                stand_in: false,
            },
            Span {
                name: "topology.c",
                start_ns: 20,
                end_ns: 40,
                parent: 1,
                stand_in: false,
            },
            Span {
                name: "overlay.b",
                start_ns: 70,
                end_ns: 80,
                parent: 0,
                stand_in: false,
            },
        ];
        let st = stats_by_name(&spans);
        assert_eq!(stats_of(&st, "core.a").self_ns, 40);
        let b = stats_of(&st, "overlay.b");
        assert_eq!((b.calls, b.total_ns, b.self_ns), (2, 60, 40));
        assert_eq!(stats_of(&st, "topology.c").self_ns, 20);
        assert_eq!(stats_of(&st, "sim.none").calls, 0);
        assert_eq!(spans[2].layer(), "topology");
        assert_eq!(descendants(&spans, &[1]), vec![false, true, true, false]);
        let mut out = Vec::new();
        write_spans(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# perfbench spans: 3 names, 4 spans");
        assert_eq!(&lines[1..4], ["0\tcore.a", "1\toverlay.b", "2\ttopology.c"]);
        assert_eq!(
            &lines[4..],
            [
                "0\t0\t100\t0",
                "1\t10\t50\t1",
                "2\t10\t20\t1",
                "1\t50\t10\t3"
            ]
        );
    }

    #[test]
    fn spans_nest_and_disabled_recording_is_free() {
        assert!(!enabled());
        assert_eq!(span("core.x", || 7), 7);
        start();
        span("core.outer", || span("overlay.inner", || ()));
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(!enabled());
    }

    #[test]
    fn a_stand_in_is_taken_from_its_parent_twice() {
        let at = |name, start_ns, end_ns, parent, stand_in| Span {
            name,
            start_ns,
            end_ns,
            parent,
            stand_in,
        };
        let spans = vec![
            at("core.select", 0, 100, ROOT, false),
            at("softstate.lookup", 0, 30, 0, true),
        ];
        assert_eq!(self_ns(&spans), vec![40, 30]);
        let mut out = Vec::new();
        write_spans(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1\tsoftstate.lookup\tstand-in\n"), "{text}");
    }
}
