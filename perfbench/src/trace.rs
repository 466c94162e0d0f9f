//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark's own code, around the public
//! functions it calls (container ops, async issue and wait, barriers).
//! Each rank thread owns one [`Tracer`]; with tracing off it records
//! nothing and costs one branch per call. The spans are kept in memory and
//! written out as one TSV file when the round ends.

use std::io::Write;
use std::time::Instant;

/// What a span covers. The `as str` names are the layer-qualified public
/// function the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Barrier,
    Get,
    Put,
    Erase,
    GetBatch,
    Range,
    Window,
    PutAsync,
    Wait,
    Push,
    Pop,
    Len,
    Peek,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Barrier => "runtime.Rank::barrier",
            Name::Get => "core.get",
            Name::Put => "core.put",
            Name::Erase => "core.erase",
            Name::GetBatch => "core.get_batch",
            Name::Range => "core.range",
            Name::Window => "bench.async_window",
            Name::PutAsync => "core.put_async",
            Name::Wait => "core.HclFuture::wait",
            Name::Push => "core.push",
            Name::Pop => "core.pop",
            Name::Len => "core.len",
            Name::Peek => "core.peek",
        }
    }
}

/// One closed span. `parent` is the index + 1 of the enclosing span in the
/// same tracer (0 = root); `op` groups the spans of one benchmark op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A rank thread's span buffer.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by every rank of a round so span starts compare.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Record an already-timed interval; returns its parent handle for
    /// children (0 when tracing is off).
    pub fn record(
        &mut self,
        name: Name,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Open a span whose children are recorded before it closes (the
    /// async window); returns the handle children pass as `parent`.
    pub fn open(&mut self, name: Name, op: u64, start: Instant) -> u32 {
        self.record(name, 0, op, start, start)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, handle: u32, end: Instant) {
        if handle == 0 {
            return;
        }
        let s = &mut self.spans[handle as usize - 1];
        s.dur_ns = (end.duration_since(self.epoch).as_nanos() as u64).saturating_sub(s.start_ns);
    }

    /// Make room for `n` more spans up front, so the timed loop never
    /// stalls on a buffer reallocation.
    pub fn reserve(&mut self, n: usize) {
        if self.on {
            self.spans.reserve(n);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of every span named `name`, across tracers.
pub fn durations(tracers: &[&[Span]], name: Name) -> Vec<u64> {
    let mut v: Vec<u64> = tracers
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Self time (ns) of every span named `name`: its duration minus the part
/// its direct children cover (children never overlap here: one thread).
pub fn self_times(tracers: &[&[Span]], name: Name) -> Vec<u64> {
    let mut out = Vec::new();
    for spans in tracers {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.name == name {
                out.push(s.dur_ns.saturating_sub(child_ns[i]));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Write every span as `rank  id  parent  op  name  start_ns  dur_ns`.
pub fn write_tsv(path: &std::path::Path, per_rank: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "rank\tid\tparent\top\tname\tstart_ns\tdur_ns")?;
    for (rank, spans) in per_rank.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                w,
                "{rank}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.op,
                s.name.as_str(),
                s.start_ns,
                s.dur_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn window_self_time_excludes_its_children() {
        let e = Instant::now();
        let at = |us: u64| e + Duration::from_micros(us);
        let mut t = Tracer::new(true, e);
        t.record(Name::Get, 0, 0, at(0), at(5));
        let w = t.open(Name::Window, 1, at(10));
        t.record(Name::PutAsync, w, 1, at(10), at(12));
        t.record(Name::PutAsync, w, 1, at(12), at(15));
        t.record(Name::Wait, w, 1, at(20), at(40));
        t.close(w, at(45));
        let spans = [t.spans()];
        assert_eq!(self_times(&spans, Name::Window), vec![10_000]);
        assert_eq!(durations(&spans, Name::PutAsync), vec![2_000, 3_000]);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[2..].iter().all(|s| s.parent == 2));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let e = Instant::now();
        let mut t = Tracer::new(false, e);
        assert_eq!(t.record(Name::Get, 0, 0, e, e), 0);
        assert_eq!(t.open(Name::Window, 0, e), 0);
        assert!(t.spans().is_empty());
    }
}
