//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call into a layer in a span: name,
//! start, end, parent, and the id of the query or program it served.
//! Spans stay in a `Vec` until the run ends; then they are reduced to
//! per-layer self time and written out as a Chrome trace (Perfetto).
//! A disabled tracer runs the closures and records nothing, so the
//! traced and untraced runs execute the same calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// What the spans of one layer add up to.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Self time (duration minus the time covered by child spans)
    /// under timed root phases.
    pub timed_self_ns: u64,
    /// Summed durations of the timed root phases the layer ran under.
    pub phase_ns: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Self time as a percentage of the timed phases the layer ran
    /// under (0 when it ran only in untimed ones).
    pub fn share_pct(&self) -> f64 {
        if self.phase_ns == 0 {
            0.0
        } else {
            self.timed_self_ns as f64 * 100.0 / self.phase_ns as f64
        }
    }
}

/// Roots whose name starts with this are untimed set-up work (oracle,
/// analysis); they count toward a layer's mean call time but not toward
/// its share of the workload's timed phases.
pub const UNTIMED: &str = "untimed.";

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent` (`None` for
    /// a root phase). `f` receives the tracer and the new span, to nest
    /// children under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let ix = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, Some(ix));
        self.spans[ix].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    fn dur(&self, ix: usize) -> u64 {
        self.spans[ix].end_ns - self.spans[ix].start_ns
    }

    fn root_of(&self, mut ix: usize) -> usize {
        while let Some(p) = self.spans[ix].parent {
            ix = p;
        }
        ix
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (ix, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.dur(ix);
            }
        }
        (0..self.spans.len())
            .map(|ix| self.dur(ix).saturating_sub(child_ns[ix]))
            .collect()
    }

    /// Per-layer totals, keyed by span name. All spans are recorded on
    /// one thread and nest strictly, so a span's children never overlap
    /// and its self time is its duration minus theirs.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let self_ns = self.self_ns();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut roots_seen: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for (ix, s) in self.spans.iter().enumerate() {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += self.dur(ix);
            let root = self.root_of(ix);
            if self.spans[root].name.starts_with(UNTIMED) {
                continue;
            }
            l.timed_self_ns += self_ns[ix];
            let roots = roots_seen.entry(s.name).or_default();
            if !roots.contains(&root) {
                roots.push(root);
                l.phase_ns += self.dur(root);
            }
        }
        out
    }

    /// Self time per (root phase, layer), and each root phase's total
    /// duration under the key (phase, phase).
    pub fn phases(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let self_ns = self.self_ns();
        let mut out = BTreeMap::new();
        for (ix, s) in self.spans.iter().enumerate() {
            let root = self.spans[self.root_of(ix)].name;
            *out.entry((root, s.name)).or_default() += self_ns[ix];
            if s.parent.is_none() {
                *out.entry((root, root)).or_default() += self.dur(ix) - self_ns[ix];
            }
        }
        out
    }

    /// Writes every span as a Chrome trace "complete" event, with the
    /// query/program id and the parent span index in `args`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut doc = String::from("{\"traceEvents\": [\n");
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                doc,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {ix}, \"id\": {}, \"parent\": {parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                self.dur(ix) as f64 / 1e3,
                s.id,
                if ix + 1 == self.spans.len() { "" } else { "," }
            );
        }
        doc.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_share_uses_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("phase", 0, None, |tr, root| {
            tr.span("outer", 1, root, |tr, outer| {
                tr.span("inner", 1, outer, |_, _| {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
            });
        });
        let layers = tr.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert!(
            outer.timed_self_ns < inner.timed_self_ns,
            "outer's time is mostly its child"
        );
        assert_eq!(inner.phase_ns, layers["phase"].total_ns);
        assert!(inner.share_pct() > 50.0 && inner.share_pct() <= 100.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_runs_the_call() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", 0, None, |_, parent| {
            assert!(parent.is_none());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(tr.len(), 0);
    }
}
