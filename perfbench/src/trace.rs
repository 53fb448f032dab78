//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Spans of one request share `req`; `parent` is the span
/// that made the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The calling span.
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Start a span that will have children; end it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<u64>, req: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: u64) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list lock");
        spans[id as usize].end_ns = end;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|cs| {
                    cs.iter()
                        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// One request's latency split into layer self times and an explicit
/// remainder: `sum(layers) + unattributed_ns == e2e_ns` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Client-side latency.
    pub e2e_ns: u64,
    /// Self time per layer, in call order.
    pub layers: Vec<(&'static str, u64)>,
    /// What no layer span accounts for (negative when the layer calls
    /// took longer than the request did).
    pub unattributed_ns: i64,
}

impl Attribution {
    /// Attributed time (the layer self times).
    pub fn attributed_ns(&self) -> u64 {
        self.layers.iter().map(|(_, ns)| ns).sum()
    }
}

/// Attribute the client-side span `e2e` to the layer spans under `root`
/// (the replay of the same request): each descendant's self time goes to
/// its layer; the rest of the client-side latency is unattributed.
pub fn attribute(spans: &[Span], selfs: &HashMap<u64, u64>, e2e: &Span, root: u64) -> Attribution {
    let mut under = vec![root];
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    // Spans are recorded parent-first, so one pass in id order finds every
    // descendant.
    for s in spans {
        if s.parent.is_some_and(|p| under.contains(&p)) {
            under.push(s.id);
            layers.push((s.name, selfs[&s.id]));
        }
    }
    let attributed: u64 = layers.iter().map(|(_, ns)| ns).sum();
    Attribution {
        e2e_ns: e2e.dur_ns(),
        layers,
        unattributed_ns: e2e.dur_ns() as i64 - attributed as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "x",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120), // clipped to the parent
            span(4, Some(1), 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 40 - 10);
        assert_eq!(st[&1], 20 - 2);
        assert_eq!(st[&4], 2);
    }

    #[test]
    fn attribution_sums_to_the_client_latency() {
        let spans = vec![
            span(0, None, 0, 1_000),     // client-side request
            span(1, None, 2_000, 2_700), // replay root
            span(2, Some(1), 2_000, 2_100),
            span(3, Some(1), 2_100, 2_600),
            span(4, Some(3), 2_200, 2_300),
        ];
        let st = self_times(&spans);
        let a = attribute(&spans, &st, &spans[0], 1);
        assert_eq!(a.layers, vec![("x", 100), ("x", 400), ("x", 100)]);
        assert_eq!(
            a.attributed_ns() as i64 + a.unattributed_ns,
            a.e2e_ns as i64
        );
        assert_eq!(a.unattributed_ns, 400);
    }
}
