//! The correctness oracle: each connection's op log replayed, after the
//! timed phase, on a mirror built from `hmh-core` alone.
//!
//! The mirror repeats the daemon's steps for every op (decode, merge,
//! insert, encode, estimate), so its state after a write is the exact
//! bytes the daemon should hold and its CARD and JACCARD values are the
//! exact values the daemon should have answered. In a traced run the
//! mirror also keeps its state in a scratch `SketchStore` over a counting
//! `FileBackend`, and every core and store call it makes is a span with
//! the request id of the op it replays.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hmh_core::jaccard::{jaccard, CollisionCorrection};
use hmh_core::{format, HyperMinHash};
use hmh_hash::xxhash::xxh64;
use hmh_serve::MAX_LIST_NAMES;
use hmh_store::{Backend, FileBackend, SketchStore, StoreOptions};

use crate::gen::{self, mix};
use crate::trace::{req_id, Trace, NO_PARENT, NO_REQ};
use crate::workload::{names_digest, Inputs, Kind, Op, Status, NO_NAME};

/// `FileBackend` that counts fsyncs and bytes written, and times each
/// fsync.
#[derive(Debug, Default)]
pub struct Counting {
    inner: FileBackend,
    /// fsync calls.
    pub fsyncs: u64,
    /// Duration of each fsync, ns.
    pub fsync_ns: Vec<u64>,
    /// Bytes appended or written.
    pub bytes: u64,
}

impl Backend for Counting {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.bytes += data.len() as u64;
        self.inner.append(path, data)
    }

    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.bytes += data.len() as u64;
        self.inner.write_new(path, data)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.fsync(path);
        self.fsync_ns.push(start.elapsed().as_nanos() as u64);
        self.fsyncs += 1;
        out
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn ensure_dir(&mut self, path: &Path) -> io::Result<()> {
        self.inner.ensure_dir(path)
    }
}

/// True when the CARD/JACCARD reply of op `index` of `stream` is checked.
pub fn sampled(seed: u64, stream: u64, index: usize, every: u64) -> bool {
    every <= 1 || mix(seed ^ req_id(stream, index)).is_multiple_of(every)
}

/// The expected state of every name, and what replaying ops found.
pub struct Mirror<'a> {
    inp: &'a Inputs,
    /// Expected encoded sketch of each name (`None`: absent).
    pub bytes: Vec<Option<Vec<u8>>>,
    writes: Vec<u32>,
    tainted: Vec<bool>,
    order: Vec<usize>,
    store: Option<(SketchStore<Counting>, PathBuf)>,
    /// Recorded replies that disagreed with the mirror.
    pub problems: Vec<String>,
    /// Replies compared.
    pub checked: u64,
    /// Items inserted by timed replays, and the ns they took.
    pub inserted: (u64, u64),
}

impl<'a> Mirror<'a> {
    /// The state right after preload. With `scratch`, the state is also
    /// kept in a scratch store in that directory.
    pub fn new(inp: &'a Inputs, scratch: Option<&Path>) -> Result<Self, String> {
        let mut bytes = vec![None; inp.names.len()];
        for (i, b) in inp.preload.iter().enumerate() {
            bytes[i] = Some(b.clone());
        }
        let mut order: Vec<usize> = (0..inp.names.len()).collect();
        order.sort_by(|&x, &y| inp.names[x].cmp(&inp.names[y]));
        let store = match scratch {
            Some(dir) => {
                let mut store =
                    SketchStore::open_with(Counting::default(), dir, StoreOptions::default())
                        .map_err(|e| format!("cannot open scratch store: {e}"))?;
                for (i, b) in inp.preload.iter().enumerate() {
                    store
                        .put_encoded(&inp.names[i], b)
                        .map_err(|e| format!("scratch preload: {e}"))?;
                }
                Some((store, dir.to_path_buf()))
            }
            None => None,
        };
        Ok(Self {
            inp,
            bytes,
            writes: vec![0; inp.names.len()],
            tainted: vec![false; inp.names.len()],
            order,
            store,
            problems: Vec::new(),
            checked: 0,
            inserted: (0, 0),
        })
    }

    /// The scratch store, in a traced run.
    pub fn store(&mut self) -> Option<&mut SketchStore<Counting>> {
        self.store.as_mut().map(|(s, _)| s)
    }

    /// True when a failed write left `idx` in an unknown state.
    pub fn tainted(&self, idx: usize) -> bool {
        self.tainted[idx]
    }

    /// Payload of the next PUT to `idx`: its current sketch plus the next
    /// chunk of items (a recomputed sketch always dominates the stored
    /// one, so replicas merging it converge to it).
    pub fn put_payload(&self, idx: usize) -> Vec<u8> {
        let current = self.bytes[idx].as_deref().expect("PUT targets preloaded names");
        let mut sketch = format::decode(current).expect("mirror bytes decode");
        sketch.insert_batch(&gen::chunk_items(self.inp.seed, idx, self.writes[idx]));
        format::encode(&sketch)
    }

    /// Payload of the next MERGE to `idx` (`delta`: pooled delta number).
    pub fn merge_payload(&self, idx: usize, delta: u32) -> Vec<u8> {
        if self.inp.spec.pooled_merges {
            self.inp.pool[delta as usize].clone()
        } else {
            gen::encoded(self.inp.params, &gen::chunk_items(self.inp.seed, idx, self.writes[idx]))
        }
    }

    /// Expected LIST_PAGE reply after cursor `a`.
    pub fn list_page(&self, a: u32) -> Vec<&str> {
        let after = if a == NO_NAME { "" } else { self.inp.names[a as usize].as_str() };
        self.order
            .iter()
            .filter(|&&i| self.bytes[i].is_some() && self.inp.names[i].as_str() > after)
            .take(MAX_LIST_NAMES)
            .map(|&i| self.inp.names[i].as_str())
            .collect()
    }

    fn mismatch(&mut self, what: String) {
        if self.problems.len() < 32 {
            self.problems.push(what);
        } else if self.problems.len() == 32 {
            self.problems.push("... further mismatches not listed".into());
        }
    }

    fn compare(&mut self, op: &Op, req: u64, got: u64, want: u64) {
        self.checked += 1;
        if got != want {
            let name = self.inp.names.get(op.a as usize).map_or("", String::as_str);
            self.mismatch(format!(
                "{} on {name:?} (request {req:#x}): reply {got:#018x}, mirror {want:#018x}",
                op.kind.label()
            ));
        }
    }

    /// Encoded state of `idx`: from the scratch store (a timed
    /// `store.get`) in a traced run, else from the mirror.
    fn load(&self, idx: usize, trace: &mut Trace, req: u64) -> Option<Vec<u8>> {
        match &self.store {
            Some((store, _)) => trace.time("store.get", req, || {
                store.get_encoded(&self.inp.names[idx]).map(<[u8]>::to_vec)
            }),
            None => self.bytes[idx].clone(),
        }
    }

    fn save(&mut self, idx: usize, sketch: &HyperMinHash, trace: &mut Trace, req: u64) {
        let name = &self.inp.names[idx];
        if let Some((store, _)) = &mut self.store {
            trace.time("store.put", req, || store.put(name, sketch)).expect("scratch store write");
        }
        // The daemon encodes inside `store.put`; time the encode apart
        // so it is not counted twice against the request.
        self.bytes[idx] = Some(trace.time("core.encode", NO_REQ, || format::encode(sketch)));
    }

    fn save_encoded(&mut self, idx: usize, payload: Vec<u8>, trace: &mut Trace, req: u64) {
        let name = &self.inp.names[idx];
        if let Some((store, _)) = &mut self.store {
            trace
                .time("store.put", req, || store.put_encoded(name, &payload))
                .expect("scratch store write");
        }
        self.bytes[idx] = Some(payload);
    }

    /// Replay one op of `stream` (its `index`-th): apply writes, and
    /// compare the recorded reply of a read when `check` is set.
    pub fn apply(&mut self, op: &Op, stream: u64, index: usize, check: bool, trace: &mut Trace) {
        let req = req_id(stream, index);
        if op.status == Status::Unexpected {
            self.checked += 1;
            self.mismatch(format!("{} (request {req:#x}): wrong reply type", op.kind.label()));
        }
        let a = op.a as usize;
        if op.kind.is_write() {
            self.apply_write(op, req, trace);
            if op.status == Status::Failed {
                // The write may or may not have landed.
                self.tainted[a] = true;
            }
            return;
        }
        if op.status != Status::Ok || !check {
            return;
        }
        let decode = |trace: &mut Trace, bytes: &[u8]| {
            trace.time("core.decode", req, || format::decode(bytes)).expect("mirror bytes decode")
        };
        match op.kind {
            Kind::Card if !self.tainted[a] => {
                let bytes = self.load(a, trace, req).expect("CARD targets stored names");
                let sketch = decode(trace, &bytes);
                let value = trace.time("core.card", req, || sketch.cardinality());
                self.compare(op, req, op.reply, value.to_bits());
            }
            Kind::Jaccard if !self.tainted[a] && !self.tainted[op.b as usize] => {
                let bytes_a = self.load(a, trace, req).expect("JACCARD targets stored names");
                let bytes_b =
                    self.load(op.b as usize, trace, req).expect("JACCARD targets stored names");
                let (sa, sb) = (decode(trace, &bytes_a), decode(trace, &bytes_b));
                let estimate = trace
                    .time("core.jaccard", req, || jaccard(&sa, &sb, CollisionCorrection::Approx))
                    .expect("same parameters");
                if trace.on() {
                    let _ = trace.time("core.jaccard_raw", NO_REQ, || {
                        jaccard(&sa, &sb, CollisionCorrection::None)
                    });
                }
                self.compare(op, req, op.reply, estimate.estimate.to_bits());
            }
            Kind::Get if !self.tainted[a] => {
                let bytes = self.load(a, trace, req).expect("GET targets stored names");
                self.compare(op, req, op.reply, xxh64(&bytes, 0));
            }
            Kind::ListPage => {
                let after = if op.a == NO_NAME { "" } else { self.inp.names[a].as_str() };
                if let Some((store, _)) = &self.store {
                    trace.time("store.list", req, || store.names_page(after, MAX_LIST_NAMES));
                }
                let want = names_digest(&self.list_page(op.a), false);
                self.compare(op, req, op.reply, want);
            }
            _ => {}
        }
    }

    fn apply_write(&mut self, op: &Op, req: u64, trace: &mut Trace) {
        let a = op.a as usize;
        match op.kind {
            Kind::Put => {
                let payload = self.put_payload(a);
                self.writes[a] += 1;
                // The daemon validates by decoding before it writes.
                trace
                    .time("core.decode", req, || format::decode(&payload))
                    .expect("payload decodes");
                self.save_encoded(a, payload, trace, req);
            }
            Kind::Merge => {
                let payload = self.merge_payload(a, op.b);
                if !self.inp.spec.pooled_merges {
                    self.writes[a] += 1;
                }
                let incoming = trace
                    .time("core.decode", req, || format::decode(&payload))
                    .expect("payload decodes");
                match self.load(a, trace, req) {
                    Some(existing) => {
                        let mut sketch = trace
                            .time("core.decode", req, || format::decode(&existing))
                            .expect("mirror bytes decode");
                        trace
                            .time("core.merge", req, || sketch.merge(&incoming))
                            .expect("same parameters");
                        self.save(a, &sketch, trace, req);
                    }
                    None => self.save_encoded(a, payload, trace, req),
                }
            }
            Kind::BatchPut => {
                let stream = op_stream(self.inp, a);
                let items = gen::batch_items(self.inp.seed, stream, op.b);
                let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
                let mut sketch = match self.load(a, trace, req) {
                    Some(existing) => trace
                        .time("core.decode", req, || format::decode(&existing))
                        .expect("mirror bytes decode"),
                    None => HyperMinHash::new(self.inp.params),
                };
                let start = Instant::now();
                sketch.insert_batch(&slices);
                let end = Instant::now();
                trace.record("core.insert", req, NO_PARENT, start, end);
                self.inserted.0 += slices.len() as u64;
                self.inserted.1 += end.duration_since(start).as_nanos() as u64;
                self.save(a, &sketch, trace, req);
            }
            _ => unreachable!("only writes reach apply_write"),
        }
    }

    /// Replay `ops`, the whole op log of `stream`.
    pub fn replay(&mut self, ops: &[Op], stream: u64, trace: &mut Trace) {
        let every = self.inp.spec.check_every;
        for (i, op) in ops.iter().enumerate() {
            let check = !matches!(op.kind, Kind::Card | Kind::Jaccard)
                || sampled(self.inp.seed, stream, i, every);
            self.apply(op, stream, i, check, trace);
        }
    }

    /// Time re-inserting the preload items of the first `names` names.
    pub fn time_preload_inserts(&mut self, names: usize) {
        for i in 0..names.min(self.inp.spec.names) {
            let items = gen::preload_items(self.inp.seed, i, self.inp.spec.items_per_name);
            let mut sketch = HyperMinHash::new(self.inp.params);
            let start = Instant::now();
            sketch.insert_batch(&items);
            self.inserted.1 += start.elapsed().as_nanos() as u64;
            self.inserted.0 += items.len() as u64;
            std::hint::black_box(&sketch);
        }
    }

    /// Remove the scratch store's directory.
    pub fn drop_scratch(&mut self) {
        if let Some((store, dir)) = self.store.take() {
            drop(store);
            crate::deploy::remove_dir(&dir);
        }
    }
}

/// The stream that owns batch name `idx`.
fn op_stream(inp: &Inputs, idx: usize) -> u64 {
    ((idx - inp.spec.names) / crate::workload::BATCH_NAMES) as u64
}
