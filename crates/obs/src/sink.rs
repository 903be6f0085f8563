//! Trace sinks: where records go once emitted.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::TraceRecord;

/// Destination for trace records. Implementations must be cheap enough to
/// sit on the discovery hot path and tolerant of concurrent emitters.
pub trait TraceSink: Send + Sync {
    fn record(&self, rec: &TraceRecord);
    /// Flush buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// Bounded in-memory ring buffer keeping the most recent records.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
}

impl RingSink {
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 4096))),
        }
    }

    /// Records currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    /// Retained records rendered as JSONL lines (no trailing newlines).
    pub fn lines(&self) -> Vec<String> {
        self.snapshot()
            .iter()
            .map(TraceRecord::to_json_line)
            .collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, rec: &TraceRecord) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(rec.clone());
    }
}

/// Streams every record as one JSON line to a file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    path: PathBuf,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
            path,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, rec: &TraceRecord) {
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(rec.to_json_line().as_bytes());
        let _ = out.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Fans each record out to every child sink.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, rec: &TraceRecord) {
        for s in &self.sinks {
            s.record(rec);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(step: u64) -> TraceRecord {
        TraceRecord {
            step,
            event: TraceEvent::SelectivityLearnt { dim: 0, sel: 0.5 },
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|r| r.step).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn tee_duplicates_records() {
        let a = Arc::new(RingSink::new(8));
        let b = Arc::new(RingSink::new(8));
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        tee.record(&rec(1));
        assert_eq!(a.lines(), b.lines());
        assert_eq!(a.lines().len(), 1);
    }
}
