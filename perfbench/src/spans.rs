//! In-memory spans for the traced run, written out when the run ends, and
//! the self-time tree built from them.
//!
//! A span is a named interval with the span that caused it.  Spans are
//! recorded from the benchmark's own files, around calls into each layer;
//! nothing inside the program is instrumented.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// A recorded span: `name`, `[start, end)` in nanoseconds since the
/// tracer's epoch, and its parent (`None` for the root).
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: u64,
    end: u64,
}

/// A copyable view of a tracer's clock, for code that stamps time while
/// the tracer itself is borrowed elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Self { epoch: Instant::now() }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.clock().now()
    }

    pub fn clock(&self) -> Clock {
        Clock { epoch: self.epoch }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.record(name, parent, start, start)
    }

    /// Closes an open span now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id.0 as usize];
        span.end = end;
        end - span.start
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span { name, parent, start, end });
        id
    }

    /// Runs `f` inside a span and returns its result and duration (ns).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent);
        let result = f();
        let nanos = self.close(id);
        (result, nanos)
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end.saturating_sub(span.start))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a tab-separated line:
    /// `id  parent  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |SpanId(parent)| i64::from(parent));
            writeln!(out, "{index}\t{parent}\t{}\t{}\t{}", span.name, span.start, span.end)?;
        }
        out.flush()
    }

    /// Folds the spans into a tree keyed by name path (root → leaf), each
    /// node holding its total duration, its children's total and a count.
    pub fn tree(&self) -> Tree {
        let mut tree = Tree { nodes: Vec::new(), index: HashMap::new() };
        // Node of each span, so a child finds its parent's node directly.
        let mut span_nodes: Vec<usize> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let parent = span.parent.map(|SpanId(parent)| span_nodes[parent as usize]);
            let node = tree.node(parent, span.name);
            let duration = span.end.saturating_sub(span.start);
            tree.nodes[node].total += duration;
            tree.nodes[node].count += 1;
            if let Some(parent) = parent {
                tree.nodes[parent].children += duration;
            }
            span_nodes.push(node);
        }
        tree
    }
}

/// Aggregate of every span sharing one name path.
#[derive(Debug, Clone, Default)]
pub struct Node {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub total: u64,
    pub children: u64,
    pub count: u64,
    kids: Vec<usize>,
}

impl Node {
    /// Self time: the part of the span not covered by its children.
    pub fn self_time(&self) -> u64 {
        self.total.saturating_sub(self.children)
    }

    /// How far the children fall short of (or exceed) the parent, as a
    /// percentage of the parent; 0 for a leaf.
    pub fn gap_pct(&self) -> f64 {
        if self.children == 0 || self.total == 0 {
            0.0
        } else {
            (self.total as f64 - self.children as f64).abs() / self.total as f64 * 100.0
        }
    }
}

/// Span aggregates by name path, in first-seen order.
pub struct Tree {
    nodes: Vec<Node>,
    index: HashMap<(Option<usize>, &'static str), usize>,
}

impl Tree {
    fn node(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        if let Some(&node) = self.index.get(&(parent, name)) {
            return node;
        }
        let node = self.nodes.len();
        self.nodes.push(Node { name, parent, ..Node::default() });
        self.index.insert((parent, name), node);
        if let Some(parent) = parent {
            self.nodes[parent].kids.push(node);
        }
        node
    }

    /// The aggregate of every span named `name`, wherever it sits.
    pub fn layer(&self, name: &str) -> Node {
        let mut sum = Node::default();
        for node in self.nodes.iter().filter(|node| node.name == name) {
            sum.total += node.total;
            sum.children += node.children;
            sum.count += node.count;
        }
        sum
    }

    /// The largest gap between a parent and the sum of its children.
    pub fn max_gap_pct(&self) -> f64 {
        self.nodes.iter().map(Node::gap_pct).fold(0.0, f64::max)
    }

    /// Renders the self-time tree, depth-first.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "self-time tree: total ms, self ms, spans, share of parent, children vs parent\n",
        );
        let roots: Vec<usize> =
            (0..self.nodes.len()).filter(|&node| self.nodes[node].parent.is_none()).collect();
        for root in roots {
            self.render_node(root, 0, &mut out);
        }
        out
    }

    fn render_node(&self, index: usize, depth: usize, out: &mut String) {
        let node = &self.nodes[index];
        let share = match node.parent {
            Some(parent) => crate::report::pct(node.total as f64, self.nodes[parent].total as f64),
            None => 100.0,
        };
        let gap = if node.kids.is_empty() {
            String::new()
        } else {
            format!("  gap {:.2}%", node.gap_pct())
        };
        out.push_str(&format!(
            "{:indent$}{:<width$} {:>12.3} {:>12.3} {:>9} {:>7.2}%{gap}\n",
            "",
            node.name,
            node.total as f64 / 1e6,
            node.self_time() as f64 / 1e6,
            node.count,
            share,
            indent = depth * 2,
            width = 30usize.saturating_sub(depth * 2),
        ));
        for &kid in &node.kids {
            self.render_node(kid, depth + 1, out);
        }
    }
}
