//! Incremental JSONL streaming sinks and the process-wide flush registry.
//!
//! Fleet-scale runs (ISSUE 10) write per-device records as each device
//! completes instead of holding the whole population in memory. Workers
//! append to private *shard* files in completion order; because the pool's
//! work cursor hands out item indices monotonically, each shard is
//! internally sorted by device index, and [`ShardedSink::merge_into`]
//! k-way-merges the shards into a single device-ordered JSONL stream on
//! finalize. The merged output is therefore byte-identical at any
//! `--jobs` width.
//!
//! The [`flush_registered`] registry closes the satellite bug where
//! buffered JSONL tails were silently lost on early exits: every sink
//! created through [`JsonlWriter::create_registered`] is flushed by the
//! CLI's typed `exit()` before the process terminates, on success and
//! failure paths alike.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A line-buffered JSONL writer with an explicit flush.
#[derive(Debug)]
pub struct JsonlWriter {
    path: String,
    w: BufWriter<File>,
}

impl JsonlWriter {
    /// Creates (truncates) `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self {
            path: path.to_string(),
            w: BufWriter::new(File::create(path)?),
        })
    }

    /// Creates `path` and registers the writer in the process-wide flush
    /// registry, so typed CLI exits flush it even on error paths.
    pub fn create_registered(path: &str) -> std::io::Result<Arc<Mutex<JsonlWriter>>> {
        let w = Arc::new(Mutex::new(Self::create(path)?));
        register_for_flush(&w);
        Ok(w)
    }

    /// Appends one line (the newline is added here).
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")
    }

    /// Flushes buffered lines to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &str {
        &self.path
    }
}

// ------------------------------------------------------------- registry --

fn registry() -> &'static Mutex<Vec<Weak<Mutex<JsonlWriter>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<Mutex<JsonlWriter>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a writer so [`flush_registered`] reaches it. Holds only a
/// weak reference: dropped writers fall out of the registry.
pub fn register_for_flush(w: &Arc<Mutex<JsonlWriter>>) {
    registry().lock().unwrap().push(Arc::downgrade(w));
}

/// Flushes every live registered writer. Called by the CLI's typed
/// `exit()` on **every** path, so a nonzero exit can no longer truncate a
/// buffered JSONL tail. Poisoned or unreachable writers are skipped —
/// flushing is best-effort by design on the way out of the process.
pub fn flush_registered() {
    let mut reg = registry().lock().unwrap();
    reg.retain(|weak| match weak.upgrade() {
        Some(sink) => {
            if let Ok(mut w) = sink.lock() {
                let _ = w.flush();
            }
            true
        }
        None => false,
    });
}

// -------------------------------------------------------------- shards --

/// Streaming statistics from a finalized sharded sink — all
/// deterministic, so tests can pin them across `--jobs` widths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Records merged into the final stream.
    pub records: u64,
    /// Shard files the records passed through.
    pub shards: u64,
}

/// A per-worker sharded JSONL sink: workers append `(key, line)` records
/// to private shard files; [`ShardedSink::merge_into`] replays them in
/// global key order. Keys must be monotonically increasing **within each
/// shard** (the pool's atomic work cursor guarantees this when the key is
/// the item index).
#[derive(Debug)]
pub struct ShardedSink {
    shards: Vec<Mutex<JsonlWriter>>,
    paths: Vec<String>,
    next: AtomicUsize,
    records: AtomicU64,
}

impl ShardedSink {
    /// Creates `shards` shard files named `{base}.shard{k}`.
    pub fn create(base: &str, shards: usize) -> std::io::Result<Self> {
        let shards = shards.max(1);
        let paths: Vec<String> = (0..shards).map(|k| format!("{base}.shard{k}")).collect();
        let writers = paths
            .iter()
            .map(|p| JsonlWriter::create(p).map(Mutex::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            shards: writers,
            paths,
            next: AtomicUsize::new(0),
            records: AtomicU64::new(0),
        })
    }

    /// Claims a shard for one worker (call from the pool's per-worker
    /// init). Panics if claimed more times than shards exist.
    pub fn claim(&self) -> usize {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(k < self.shards.len(), "more workers than shards");
        k
    }

    /// Appends one keyed record to shard `k`. The key is stored as a
    /// line prefix and stripped again by the merge.
    pub fn write(&self, k: usize, key: u64, line: &str) {
        let mut w = self.shards[k].lock().unwrap();
        write!(w.w, "{key}\t")
            .and_then(|()| w.write_line(line))
            .unwrap_or_else(|e| panic!("stream shard {}: {e}", w.path()));
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    /// K-way-merges the shard files into `out` in ascending key order,
    /// then deletes them. Each shard is read line-by-line, so peak memory
    /// is O(shards), not O(records).
    pub fn merge_into(self, out: &mut JsonlWriter) -> std::io::Result<StreamStats> {
        for shard in &self.shards {
            shard.lock().unwrap().flush()?;
        }
        let mut heads = Vec::with_capacity(self.paths.len());
        for path in &self.paths {
            heads.push(ShardCursor::open(path)?);
        }
        let mut records = 0u64;
        loop {
            // Linear min-scan over at most `jobs` heads.
            let mut best: Option<(usize, u64)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(key) = head.key {
                    if best.is_none_or(|(_, b)| key < b) {
                        best = Some((i, key));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            out.write_line(heads[i].record())?;
            records += 1;
            heads[i].advance()?;
        }
        out.flush()?;
        for path in &self.paths {
            let _ = std::fs::remove_file(path);
        }
        Ok(StreamStats {
            records,
            shards: self.paths.len() as u64,
        })
    }
}

/// One shard's merge cursor: the head line in a buffer every line of the
/// shard is read into, and the head's key (`None` once the shard is
/// drained).
struct ShardCursor {
    reader: BufReader<File>,
    line: String,
    /// Byte offset of the record in `line`, past the key prefix.
    record_at: usize,
    key: Option<u64>,
}

impl ShardCursor {
    fn open(path: &str) -> std::io::Result<Self> {
        let mut cursor = Self {
            reader: BufReader::new(File::open(path)?),
            line: String::new(),
            record_at: 0,
            key: None,
        };
        cursor.advance()?;
        Ok(cursor)
    }

    /// Reads the next line into the buffer and parses its key prefix.
    fn advance(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            self.key = None;
            return Ok(());
        }
        let tab = self
            .line
            .find('\t')
            .ok_or_else(|| std::io::Error::other("shard line missing key prefix"))?;
        let key = self.line[..tab]
            .parse::<u64>()
            .map_err(|e| std::io::Error::other(format!("bad shard key: {e}")))?;
        self.key = Some(key);
        self.record_at = tab + 1;
        Ok(())
    }

    /// The head record, without its key prefix and line terminator.
    fn record(&self) -> &str {
        let line = &self.line[self.record_at..];
        let line = line.strip_suffix('\n').unwrap_or(line);
        line.strip_suffix('\r').unwrap_or(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("easeio-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn sharded_sink_merges_in_key_order() {
        let base = tmp("merge");
        let sink = ShardedSink::create(&base, 3).unwrap();
        // Worker-order writes: keys interleaved across shards but
        // monotone within each.
        let a = sink.claim();
        let b = sink.claim();
        let c = sink.claim();
        sink.write(b, 1, r#"{"device":1}"#);
        sink.write(a, 0, r#"{"device":0}"#);
        sink.write(c, 2, r#"{"device":2}"#);
        sink.write(b, 4, r#"{"device":4}"#);
        sink.write(a, 3, r#"{"device":3}"#);
        let out_path = format!("{base}.jsonl");
        let mut out = JsonlWriter::create(&out_path).unwrap();
        let stats = sink.merge_into(&mut out).unwrap();
        assert_eq!(
            stats,
            StreamStats {
                records: 5,
                shards: 3
            }
        );
        let text = std::fs::read_to_string(&out_path).unwrap();
        let devices: Vec<&str> = text.lines().collect();
        assert_eq!(
            devices,
            vec![
                r#"{"device":0}"#,
                r#"{"device":1}"#,
                r#"{"device":2}"#,
                r#"{"device":3}"#,
                r#"{"device":4}"#,
            ]
        );
        // Shards are cleaned up.
        for k in 0..3 {
            assert!(!std::path::Path::new(&format!("{base}.shard{k}")).exists());
        }
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn flush_registry_drains_buffered_tails() {
        // Regression (ISSUE 10 satellite): a buffered JSONL line written
        // shortly before a nonzero exit must reach the file once the
        // typed exit path calls `flush_registered`.
        let path = tmp("flush.jsonl");
        let w = JsonlWriter::create_registered(&path).unwrap();
        w.lock()
            .unwrap()
            .write_line(r#"{"phase":"devices","done":1}"#)
            .unwrap();
        // BufWriter holds the line; the file is still empty.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        flush_registered();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"phase\":\"devices\",\"done\":1}\n"
        );
        drop(w);
        // Dropped writers fall out of the registry on the next sweep.
        flush_registered();
        let _ = std::fs::remove_file(&path);
    }
}
