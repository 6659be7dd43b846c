//! One benchmark run: set up, drive the timed phase, converge, check
//! every answer, and turn the record into metrics.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hmh_core::format;
use hmh_hash::xxhash::xxh64;
use hmh_route::DEFAULT_VNODES;
use hmh_serve::{Client, Request, MAX_DIGEST_ENTRIES};
use hmh_store::DIGEST_SEED;

use crate::deploy::{self, converge, digests, ring_of, start_router, Convergence, Deployment};
use crate::gen::{self, Rng};
use crate::replay::{sampled, Mirror};
use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::workload::{
    exchange, Inputs, Kind, Op, Spec, Status, Stream, Topology, BATCH_NAMES, CONNECTIONS, NO_NAME,
    POOL, PROBE_STREAM,
};

/// Stream id of the depth-8 window probes.
const WINDOW_STREAM: u64 = PROBE_STREAM + 1;

/// Set-ups per run; `setup_s` is their median and the last one carries
/// the timed phase.
const SETUPS: usize = 5;
/// Spare set-ups, each of which takes an equal share of the probes.
const PROBED_SETUPS: usize = SETUPS - 1;
/// Segments of a traced run's phase, alternately untraced and traced.
const TRACED_SEGMENTS: usize = 10;
/// HEALTH calls timed after the phase.
const HEALTH_CALLS: usize = 7;
/// Fresh replicas bootstrapped, one at a time, from a single daemon for
/// `converge_ms`.
const BOOTSTRAPS: usize = 9;
/// Probe calls of an op type the mix lacks, when its p99 is reported.
const PROBE_CALLS: usize = 2000;
/// Probe calls of BATCH_PUT (median only) when the mix lacks it.
const PROBE_BATCH_CALLS: usize = 256;
/// Probe calls of GET and LIST_PAGE (traced runs only).
const PROBE_TRACE_CALLS: usize = 100;
/// Depth-8 CARD windows probed on depth-1 workloads (traced runs only).
const PROBE_WINDOWS: usize = 100;
/// Routed/direct pairs per op type for the routing hop.
const HOP_SAMPLES: usize = 300;
/// Routed JACCARD and LIST_PAGE probes on single-daemon workloads.
const ROUTE_JACCARDS: usize = 200;
const ROUTE_SCATTERS: usize = 50;
/// Preloaded names re-sketched to time item insertion.
const INSERT_NAMES: usize = 8;

/// End-to-end metrics that `BENCHMARK.json` bounds, in report order. The
/// others are printed on `#` lines only: between runs on a shared 2-vCPU
/// VM they spread wider than the largest bound a metric may have there,
/// mostly because they wait on fsync (see README.md).
pub const BOUNDED: [&str; 3] = ["setup_s", "jaccard_p50_us", "write_amp"];

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones. Its
    /// spans are also written to `<root>/spans-<workload>-<seed>.tsv`.
    pub trace: bool,
    /// Flip one recorded reply before checking (self-test of the check).
    pub tamper: bool,
    /// Directory under which the run's stores live.
    pub root: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
    /// Carried in the JSON result line; otherwise printed on a `#` line
    /// only.
    pub in_result: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Replies compared against the mirror.
    pub checked: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Every check that failed.
    pub problems: Vec<String>,
    /// Conditions of the run: cpus, commit, parameters.
    pub meta: Vec<(&'static str, String)>,
}

/// The run's own directory, deleted when dropped.
struct TempDir {
    path: PathBuf,
    parent: PathBuf,
}

impl TempDir {
    fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let path = root.join(format!("{tag}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path, parent: root.to_path_buf() })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        deploy::remove_dir(&self.path);
        // Succeeds only once no other run is using the root.
        let _ = fs::remove_dir(&self.parent);
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = crate::workload::spec(&cfg.workload)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let inp = Inputs::build(spec, cfg.seed);
    let tmp = TempDir::create(&cfg.root, spec.name)?;

    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut probes = Probes::new(cfg, &inp, epoch);
    let mut dep = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let fresh = set_up(&inp, &tmp.path.join(format!("setup{i}")))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            // The spare set-ups take the probes and then go away, so the
            // measured deployment holds only what the timed traffic
            // writes, and no other daemon runs beside it.
            let probed = probes.round(cfg, &inp, &fresh, &tmp.path.join(format!("probe{i}")));
            fresh.stop();
            probed?;
        } else {
            dep = Some(fresh);
        }
    }
    let mut dep = dep.expect("the last set-up carries the run");
    let out = measure(cfg, &inp, &mut dep, &tmp.path, setup_s, probes, epoch);
    dep.stop();
    out
}

/// Calls of the op types a workload's mix lacks, spread over the spare
/// set-ups and checked against a mirror of each as they are made.
struct Probes<'a> {
    /// Probes of the op types the mix lacks.
    ops: Stream<'a>,
    /// Depth-8 CARD windows (traced runs on depth-1 workloads).
    windows: Stream<'a>,
    /// Replay spans of the probes.
    trace: Trace,
    /// Replies that disagreed with a mirror.
    problems: Vec<String>,
    /// Replies compared.
    checked: u64,
}

impl<'a> Probes<'a> {
    fn new(cfg: &Config, inp: &'a Inputs, epoch: Instant) -> Self {
        Self {
            ops: Stream::new(inp, PROBE_STREAM as usize, Trace::new(cfg.trace, epoch)),
            windows: Stream::new(inp, WINDOW_STREAM as usize, Trace::new(cfg.trace, epoch)),
            trace: Trace::new(cfg.trace, epoch),
            problems: Vec::new(),
            checked: 0,
        }
    }

    /// One round on the freshly set-up `dep`: on a single daemon directly,
    /// on the cluster through the router. A traced run keeps the round's
    /// mirror in a scratch store in `scratch`.
    fn round(
        &mut self,
        cfg: &Config,
        inp: &'a Inputs,
        dep: &Deployment,
        scratch: &Path,
    ) -> Result<(), String> {
        let mut mirror = Mirror::new(inp, cfg.trace.then_some(scratch))?;
        let mut client = Client::connect(dep.entry);
        probe_round(
            inp,
            &mut client,
            &mut mirror,
            &mut self.ops,
            &mut self.windows,
            &mut self.trace,
        );
        drop(client);
        mirror.drop_scratch();
        self.problems.append(&mut mirror.problems);
        self.checked += mirror.checked;
        Ok(())
    }
}

/// Start the deployment, preload it, and converge its replicas.
fn set_up(inp: &Inputs, root: &Path) -> Result<Deployment, String> {
    let dep = Deployment::start(inp.spec.topology, root)?;
    let ready = dep.preload(inp).and_then(|()| {
        converge(&dep.sync_pairs(), &mut Trace::new(false, Instant::now())).map(|_| ())
    });
    match ready {
        Ok(()) => Ok(dep),
        Err(e) => {
            dep.stop();
            Err(e)
        }
    }
}

/// Drive every stream for `seconds` from a common start, as phase
/// `phase`; returns the time from the start to the last reply.
fn phase(streams: &mut [Stream<'_>], clients: &mut [Client], seconds: f64, phase: u8) -> f64 {
    let barrier = Barrier::new(streams.len());
    let length = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(clients.iter_mut())
            .map(|(stream, client)| {
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    stream.drive(client, start + length, phase);
                    (start, Instant::now())
                })
            })
            .collect();
        let spans: Vec<(Instant, Instant)> =
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect();
        let start = spans.iter().map(|s| s.0).min().expect("at least one connection");
        let end = spans.iter().map(|s| s.1).max().expect("at least one connection");
        end.duration_since(start).as_secs_f64()
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure(
    cfg: &Config,
    inp: &Inputs,
    dep: &mut Deployment,
    tmp: &Path,
    mut setup_s: Vec<f64>,
    mut probes: Probes<'_>,
    epoch: Instant,
) -> Result<Outcome, String> {
    let spec = inp.spec;
    let mut trace = Trace::new(cfg.trace, epoch);

    // The timed phase. Nothing else the benchmark does touches the
    // service until it ends. An untraced run drives one unbroken phase;
    // a traced run alternates untraced and traced segments (phases 1 and
    // 2), so the two goodputs give the tracing overhead.
    let mut streams: Vec<Stream<'_>> =
        (0..CONNECTIONS).map(|c| Stream::new(inp, c, Trace::new(false, epoch))).collect();
    let mut clients: Vec<Client> = (0..CONNECTIONS).map(|_| Client::connect(dep.entry)).collect();
    let segments = if cfg.trace { TRACED_SEGMENTS } else { 1 };
    let mut phase_s = [0.0f64; 2];
    let before = dep.store_bytes();
    for segment in 0..segments {
        let traced = segment % 2 == 1;
        streams.iter_mut().for_each(|s| s.trace.set_on(traced));
        let seconds = cfg.seconds / segments as f64;
        let id = 1 + u8::from(traced);
        phase_s[usize::from(traced)] += phase(&mut streams, &mut clients, seconds, id);
    }
    let grown = dep.store_bytes().saturating_sub(before);
    let rss_mb = peak_rss_mb();
    let mut control = clients.swap_remove(0);
    drop(clients);

    // With no other load: converge the cluster from the end of load,
    // then time HEALTH at the store size the phase left.
    let cluster_conv = match spec.topology {
        Topology::Single => None,
        Topology::Cluster { .. } => Some(converge(&dep.sync_pairs(), &mut trace)?),
    };
    let mut health_ms = Vec::with_capacity(HEALTH_CALLS);
    for _ in 0..HEALTH_CALLS {
        let start = Instant::now();
        control.health().map_err(|e| format!("HEALTH failed: {e}"))?;
        health_ms.push(ms(start.elapsed()));
    }
    let counters = if cfg.trace { daemon_counters(dep)? } else { (0, 0, 0) };

    // On a single daemon, `converge_ms` is a fresh replica's bootstrap of
    // the whole keyspace. Each replica stops once converged, but the
    // last, which joins the daemon's group.
    let (conv, mut converge_ms) = match cluster_conv {
        Some(conv) => (conv, vec![conv.ms]),
        None => {
            let mut each = Vec::with_capacity(BOOTSTRAPS);
            for i in 0..BOOTSTRAPS {
                if i > 0 {
                    dep.stop_last_daemon();
                }
                let fresh = dep.add_daemon()?;
                each.push(converge(&[(dep.addr(fresh), dep.addr(0))], &mut trace)?);
            }
            let fresh = dep.daemon_count() - 1;
            dep.groups[0].push(fresh);
            (each[BOOTSTRAPS - 1], each.iter().map(|c| c.ms).collect())
        }
    };

    // Untimed from here on. Replay each connection's op log on the mirror.
    if cfg.tamper {
        tamper(&mut streams[0], inp);
    }
    let scratch = cfg.trace.then(|| tmp.join("scratch"));
    let mut mirror = Mirror::new(inp, scratch.as_deref())?;
    let store_before =
        mirror.store().map(|s| (s.backend().fsyncs, s.backend().bytes, s.backend().fsync_ns.len()));
    for stream in &streams {
        mirror.replay(&stream.log, stream.id, &mut trace);
    }

    // Per-layer probes of the routing tier, while every replica holds the
    // same data.
    let route = if cfg.trace { Some(route_layer(inp, dep, &streams, &mirror)?) } else { None };
    if let Some(route) = &route {
        mirror.problems.extend(route.problems.iter().cloned());
    }

    let store_counts = match (store_before, mirror.store()) {
        (Some((fsyncs, bytes, first)), Some(store)) => {
            let b = store.backend();
            let fsync_us = b.fsync_ns[first..].iter().map(|&ns| ns as f64 / 1e3).collect();
            (b.fsyncs - fsyncs, b.bytes - bytes, fsync_us)
        }
        _ => (0, 0, Vec::new()),
    };
    let writes_replayed =
        streams.iter().flat_map(|s| &s.log).filter(|op| op.kind.is_write()).count() as u64;

    // Per-layer passes over the scratch store.
    let (mut digest_ms, mut fsck_ms) = (Vec::new(), Vec::new());
    if let Some(store) = mirror.store() {
        for _ in 0..3 {
            let start = Instant::now();
            let mut after = String::new();
            loop {
                let page = store.digest_page(&after, MAX_DIGEST_ENTRIES);
                match page.last() {
                    Some((name, _)) if page.len() == MAX_DIGEST_ENTRIES => after = name.clone(),
                    _ => break,
                }
            }
            digest_ms.push(ms(start.elapsed()));
            let start = Instant::now();
            store.fsck().map_err(|e| format!("scratch fsck failed: {e}"))?;
            fsck_ms.push(ms(start.elapsed()));
        }
    }
    if cfg.trace {
        mirror.time_preload_inserts(INSERT_NAMES);
    }

    // Final state: every name through the entry point, and every
    // replica's digests.
    final_checks(inp, dep, &mut control, &mut mirror, &mut trace)?;
    drop(control);
    mirror.drop_scratch();

    // Record.
    for stream in &mut streams {
        trace.absorb(std::mem::replace(&mut stream.trace, Trace::new(false, epoch)));
    }
    // `serve.window` prices the mix's depth-8 exchanges (or the window
    // probes), not windows of probed op types.
    for span in &mut probes.ops.trace.spans {
        if span.name == "serve.window" {
            span.name = "serve.probe_window";
        }
    }
    trace.absorb(std::mem::replace(&mut probes.ops.trace, Trace::new(false, epoch)));
    // The window probes price `serve.window` only, not single-op CARD.
    probes.windows.trace.spans.retain(|s| s.name == "serve.window");
    trace.absorb(std::mem::replace(&mut probes.windows.trace, Trace::new(false, epoch)));
    trace.absorb(std::mem::replace(&mut probes.trace, Trace::new(false, epoch)));
    if cfg.trace {
        let path = cfg.root.join(format!("spans-{}-{}.tsv", spec.name, cfg.seed));
        let mut file =
            fs::File::create(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        trace.write_tsv(&mut file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let phase_ops: Vec<&Op> = streams.iter().flat_map(|s| &s.log).collect();
    let probe_ops: Vec<&Op> = probes.ops.log.iter().collect();
    let attempted = phase_ops.len() as u64;
    let failed = phase_ops.iter().filter(|op| op.status == Status::Failed).count() as u64;
    let ok_in = |phase: u8| {
        phase_ops.iter().filter(|op| op.phase == phase && op.status == Status::Ok).count()
    };
    let goodput = |phase: u8| ok_in(phase) as f64 / phase_s[usize::from(phase) - 1];
    let mut m = Metrics::default();
    if let Some(route) = route {
        let (fsyncs, bytes, fsync_us) = store_counts;
        let layers = Layers {
            fsyncs,
            bytes,
            fsync_us,
            writes: writes_replayed,
            digest_ms,
            fsck_ms,
            route,
            conv,
            counters,
            overhead: goodput(2) / goodput(1),
        };
        per_layer(&mut m, &trace, &mirror, layers)?;
    } else {
        // Each timing is a median or p99 over every successful op of its
        // type: the phase's, or the probes' where the mix lacks the type.
        m.push("setup_s", median(&mut setup_s), "s", setup_s.len())?;
        m.push("goodput_ops_s", Some(goodput(1)), "ops/s", ok_in(1))?;
        for (kind, p99) in [
            (Kind::Jaccard, true),
            (Kind::Card, true),
            (Kind::Merge, true),
            (Kind::Put, true),
            (Kind::BatchPut, false),
        ] {
            let source = if spec.in_mix(kind) { &phase_ops } else { &probe_ops };
            let mut us: Vec<f64> = source
                .iter()
                .filter(|op| op.kind == kind && op.status == Status::Ok)
                .map(|op| op.lat_ns as f64 / 1e3)
                .collect();
            let n = us.len();
            m.push(&format!("{}_p50_us", kind.label()), quantile(&mut us, 0.5), "us", n)?;
            if p99 {
                m.push(&format!("{}_p99_us", kind.label()), quantile(&mut us, 0.99), "us", n)?;
            }
        }
        m.push("health_p50_ms", median(&mut health_ms), "ms", HEALTH_CALLS)?;
        let n = converge_ms.len();
        m.push("converge_ms", median(&mut converge_ms), "ms", n)?;
        let user_bytes: u64 = phase_ops
            .iter()
            .filter(|op| op.status == Status::Ok)
            .map(|op| match op.kind {
                Kind::Put | Kind::Merge => inp.encoded_len() as u64,
                Kind::BatchPut => gen::BATCH_ITEMS * 16,
                _ => 0,
            })
            .sum();
        let amp = grown as f64 / user_bytes.max(1) as f64;
        m.push("write_amp", Some(amp), "ratio", user_bytes as usize)?;
        m.push("peak_rss_mb", rss_mb, "MiB", 1)?;
        for metric in &mut m.0 {
            metric.in_result = BOUNDED.contains(&metric.name.as_str());
        }
    }

    let mut problems = mirror.problems.clone();
    problems.extend(probes.problems.iter().cloned());
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        checked: mirror.checked + probes.checked,
        metrics: m.0,
        problems,
        meta: meta(cfg, spec),
    })
}

/// Flip one bit of the first checked read reply of `stream`.
fn tamper(stream: &mut Stream<'_>, inp: &Inputs) {
    let every = inp.spec.check_every;
    let id = stream.id;
    let target = stream.log.iter_mut().enumerate().find(|(i, op)| {
        op.status == Status::Ok
            && match op.kind {
                Kind::Card | Kind::Jaccard => sampled(inp.seed, id, *i, every),
                Kind::Get | Kind::ListPage => true,
                _ => false,
            }
    });
    if let Some((_, op)) = target {
        op.reply ^= 1;
    }
}

/// One set-up's share of the probes, each checked against the
/// mirror right away: of every op type the mix lacks, and in a traced run
/// also depth-8 CARD windows on a depth-1 workload.
fn probe_round(
    inp: &Inputs,
    client: &mut Client,
    mirror: &mut Mirror<'_>,
    probe: &mut Stream<'_>,
    windows: &mut Stream<'_>,
    trace: &mut Trace,
) {
    let spec = inp.spec;
    let traced = trace.on();
    for kind in Kind::ALL {
        let calls = match kind {
            _ if spec.in_mix(kind) => 0,
            Kind::BatchPut => PROBE_BATCH_CALLS,
            Kind::Get | Kind::ListPage if traced => PROBE_TRACE_CALLS,
            Kind::Get | Kind::ListPage => 0,
            _ => PROBE_CALLS,
        };
        // Reads go at the workload's depth, so at depth 8 a probe's
        // latency is its window's, as in the mix. Writes go one at a
        // time: their payloads come from the mirror, which advances only
        // between exchanges.
        let depth = if kind.is_write() { 1 } else { spec.depth };
        for _ in 0..calls / PROBED_SETUPS / depth {
            let (ops, reqs): (Vec<Op>, Vec<Request>) = (0..depth)
                .map(|_| probe_op(kind, &mut probe.rng, inp, mirror, &mut probe.batch_seq))
                .unzip();
            let (replies, start, end) = exchange(client, &reqs);
            record_checked(probe, mirror, trace, ops, replies, (start, end));
        }
    }
    if traced && spec.depth == 1 {
        for _ in 0..PROBE_WINDOWS / PROBED_SETUPS {
            let (ops, reqs): (Vec<Op>, Vec<Request>) =
                (0..8).map(|_| probe_op(Kind::Card, &mut windows.rng, inp, mirror, &mut 0)).unzip();
            let (replies, start, end) = exchange(client, &reqs);
            record_checked(windows, mirror, trace, ops, replies, (start, end));
        }
    }
}

/// Log one probe exchange and replay it on the mirror at once.
fn record_checked(
    stream: &mut Stream<'_>,
    mirror: &mut Mirror<'_>,
    trace: &mut Trace,
    ops: Vec<Op>,
    replies: Vec<Option<hmh_serve::Response>>,
    (start, end): (Instant, Instant),
) {
    let first = stream.log.len();
    stream.record(ops, replies, start, end, 0);
    for index in first..stream.log.len() {
        let op = stream.log[index];
        mirror.apply(&op, stream.id, index, true, trace);
    }
}

/// One probe op of `kind` on preloaded names (BATCH_PUT: on the probe
/// stream's `batch/*` names).
fn probe_op(
    kind: Kind,
    rng: &mut Rng,
    inp: &Inputs,
    mirror: &Mirror<'_>,
    batch_seq: &mut u32,
) -> (Op, Request) {
    let n = inp.spec.names as u64;
    let a = rng.below(n) as usize;
    let name = inp.names[a].clone();
    let mut op =
        Op { kind, a: a as u32, b: 0, status: Status::Failed, reply: 0, lat_ns: 0, phase: 0 };
    let req = match kind {
        Kind::Card => Request::Card { name },
        Kind::Get => Request::Get { name },
        Kind::Jaccard => {
            let b = (a + 1 + rng.below(n - 1) as usize) % inp.spec.names;
            op.b = b as u32;
            Request::Jaccard { a: name, b: inp.names[b].clone() }
        }
        Kind::Put => Request::Put { name, sketch: mirror.put_payload(a) },
        Kind::Merge => {
            op.b = rng.below(POOL as u64) as u32;
            Request::Merge { name, sketch: mirror.merge_payload(a, op.b) }
        }
        Kind::BatchPut => {
            let idx = inp.batch_name(PROBE_STREAM, rng.below(BATCH_NAMES as u64) as usize);
            (op.a, op.b) = (idx as u32, *batch_seq);
            *batch_seq += 1;
            inp.batch_request(idx, gen::batch_items(inp.seed, PROBE_STREAM, op.b))
        }
        Kind::ListPage => {
            if rng.below(4) == 0 {
                op.a = NO_NAME;
                Request::ListPage { after: String::new() }
            } else {
                Request::ListPage { after: name }
            }
        }
    };
    (op, req)
}

/// Routing-tier numbers of a traced run.
#[derive(Debug, Default)]
struct RouteNumbers {
    hop_card: (Option<f64>, usize),
    hop_put: (Option<f64>, usize),
    cross_jaccard: (Option<f64>, usize),
    local_jaccard: (Option<f64>, usize),
    scatter: (Option<f64>, usize),
    handoffs: u64,
    /// Routed or direct replies that disagreed with the mirror.
    problems: Vec<String>,
}

fn median_of(mut v: Vec<f64>) -> (Option<f64>, usize) {
    let n = v.len();
    (median(&mut v), n)
}

/// Price the routing hop. On the cluster: routed against direct-to-owner
/// for a seeded sample of CARD and PUT, and the phase's own JACCARD and
/// LIST_PAGE split by where their names live. On a single daemon: the
/// same against a router over a 2-group ring of the daemon and its
/// converged replica, which hold identical data.
fn route_layer(
    inp: &Inputs,
    dep: &Deployment,
    streams: &[Stream<'_>],
    mirror: &Mirror<'_>,
) -> Result<RouteNumbers, String> {
    let single = dep.ring.is_none();
    let probe_router = if single {
        let ring = ring_of(&[vec![dep.addr(0)], vec![dep.addr(1)]], DEFAULT_VNODES)?;
        let owners: Vec<usize> = vec![0, 1];
        Some((start_router(ring.clone())?, ring, owners))
    } else {
        None
    };
    let (router_addr, ring, owner_of_group): (_, _, Vec<usize>) = match &probe_router {
        Some((router, ring, owners)) => (router.addr(), ring.clone(), owners.clone()),
        None => (
            dep.entry,
            dep.ring.clone().expect("cluster has a ring"),
            dep.groups.iter().map(|g| g[0]).collect(),
        ),
    };
    let owner = |name: &str| owner_of_group[ring.owner_index(name)];
    let mut routed = Client::connect(router_addr);
    let mut direct: HashMap<usize, Client> = HashMap::new();
    let mut rng = Rng::new(inp.seed, 0x40_07e);
    let mut out = RouteNumbers::default();
    let mut problems = Vec::new();

    let mut hop_card = Vec::new();
    let mut hop_put = Vec::new();
    for i in 0..2 * HOP_SAMPLES {
        let a = rng.below(inp.spec.names as u64) as usize;
        if mirror.tainted(a) {
            continue;
        }
        let name = &inp.names[a];
        let bytes = mirror.bytes[a].as_deref().expect("preloaded names are stored");
        let d = owner(name);
        let direct = direct.entry(d).or_insert_with(|| Client::connect(dep.addr(d)));
        let put = i % 2 == 1;
        let want = if put { 0 } else { card_of(bytes) };
        let timed = |client: &mut Client| {
            let start = Instant::now();
            let reply = if put {
                client.put_raw(name, bytes).map(|()| 0)
            } else {
                client.card(name).map(f64::to_bits)
            };
            (start.elapsed().as_secs_f64() * 1e6, reply.is_ok_and(|v| v == want))
        };
        // Alternate which side goes first.
        let ((r, r_ok), (d_us, d_ok)) = if (i / 2) % 2 == 0 {
            let r = timed(&mut routed);
            (r, timed(direct))
        } else {
            let d = timed(direct);
            (timed(&mut routed), d)
        };
        if !(r_ok && d_ok) {
            problems.push(format!(
                "routed/direct {} on {name:?} disagreed with the mirror",
                if put { "PUT" } else { "CARD" }
            ));
            continue;
        }
        if put {
            hop_put.push(r - d_us)
        } else {
            hop_card.push(r - d_us)
        }
    }
    out.hop_card = median_of(hop_card);
    out.hop_put = median_of(hop_put);

    let (mut cross, mut local, mut scatter) = (Vec::new(), Vec::new(), Vec::new());
    if single {
        for _ in 0..ROUTE_JACCARDS {
            let (op, req) = probe_op(Kind::Jaccard, &mut rng, inp, mirror, &mut 0);
            let Request::Jaccard { a, b } = &req else { unreachable!("probe_op made a JACCARD") };
            let start = Instant::now();
            let value = routed.jaccard(a, b);
            let us = start.elapsed().as_secs_f64() * 1e6;
            let want = jaccard_of(mirror, op.a as usize, op.b as usize);
            if value.map(f64::to_bits).ok() != Some(want) {
                problems.push(format!("routed JACCARD {a:?}/{b:?} disagreed with the mirror"));
            }
            if ring.owner_index(a) == ring.owner_index(b) {
                local.push(us)
            } else {
                cross.push(us)
            }
        }
        for _ in 0..ROUTE_SCATTERS {
            let (op, req) = probe_op(Kind::ListPage, &mut rng, inp, mirror, &mut 0);
            let Request::ListPage { after } = &req else {
                unreachable!("probe_op made a LIST_PAGE")
            };
            let start = Instant::now();
            let page = routed.list_page(after);
            scatter.push(start.elapsed().as_secs_f64() * 1e6);
            let want: Vec<&str> = mirror.list_page(op.a);
            if !page.is_ok_and(|(names, partial)| !partial && names == want) {
                problems
                    .push(format!("routed LIST_PAGE after {after:?} disagreed with the mirror"));
            }
        }
    } else {
        for op in streams
            .iter()
            .flat_map(|s| &s.log)
            .filter(|op| op.phase == 2 && op.status == Status::Ok)
        {
            let us = op.lat_ns as f64 / 1e3;
            match op.kind {
                Kind::Jaccard => {
                    let (a, b) = (&inp.names[op.a as usize], &inp.names[op.b as usize]);
                    if ring.owner_index(a) == ring.owner_index(b) {
                        local.push(us)
                    } else {
                        cross.push(us)
                    }
                }
                Kind::ListPage => scatter.push(us),
                _ => {}
            }
        }
    }
    out.cross_jaccard = median_of(cross);
    out.local_jaccard = median_of(local);
    out.scatter = median_of(scatter);
    drop(routed);
    drop(direct);
    out.handoffs = match probe_router {
        Some((router, _, _)) => {
            let n = router.handoffs().load(std::sync::atomic::Ordering::Relaxed);
            router.join();
            n
        }
        None => dep.handoffs(),
    };
    out.problems = problems;
    Ok(out)
}

fn card_of(bytes: &[u8]) -> u64 {
    format::decode(bytes).expect("mirror bytes decode").cardinality().to_bits()
}

fn jaccard_of(mirror: &Mirror<'_>, a: usize, b: usize) -> u64 {
    let decode =
        |i: usize| format::decode(mirror.bytes[i].as_deref().expect("stored")).expect("decodes");
    decode(a).jaccard(&decode(b)).expect("same parameters").estimate.to_bits()
}

/// Every name read back through the entry point must equal the mirror,
/// and every replica's DIGEST pages must equal the mirror's digests of
/// the names its group owns.
fn final_checks(
    inp: &Inputs,
    dep: &Deployment,
    client: &mut Client,
    mirror: &mut Mirror<'_>,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut bad = Vec::new();
    let mut expected: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); dep.groups.len()];
    for (idx, name) in inp.names.iter().enumerate() {
        let Some(want) = mirror.bytes[idx].as_deref() else { continue };
        if mirror.tainted(idx) {
            continue;
        }
        let group = dep.ring.as_ref().map_or(0, |ring| ring.owner_index(name));
        expected[group].insert(name.clone(), xxh64(want, DIGEST_SEED));
        match client.get_raw(name) {
            Ok(got) if got == want => {}
            Ok(_) => bad.push(format!("final GET {name:?}: bytes differ from the mirror")),
            Err(e) => bad.push(format!("final GET {name:?} failed: {e}")),
        }
    }
    let replicas: Vec<(usize, usize)> =
        dep.groups.iter().enumerate().flat_map(|(g, ds)| ds.iter().map(move |&d| (g, d))).collect();
    let tainted: BTreeSet<&str> = inp
        .names
        .iter()
        .enumerate()
        .filter(|&(i, _)| mirror.tainted(i))
        .map(|(_, n)| n.as_str())
        .collect();
    for (group, d) in replicas {
        let got = digests(dep.addr(d), trace)?;
        let got: BTreeMap<String, u64> =
            got.into_iter().filter(|(n, _)| !tainted.contains(n.as_str())).collect();
        if got != expected[group] {
            bad.push(format!("daemon {d} (group {group}): DIGEST pages differ from the mirror"));
        }
    }
    mirror.checked += inp.names.len() as u64;
    for b in bad {
        if mirror.problems.len() < 40 {
            mirror.problems.push(b);
        }
    }
    Ok(())
}

/// Sum of `served`, `shed` and `expired` over the workload's daemons.
fn daemon_counters(dep: &Deployment) -> Result<(u64, u64, u64), String> {
    let mut sum = (0, 0, 0);
    for d in dep.groups.iter().flatten() {
        let h =
            Client::connect(dep.addr(*d)).health().map_err(|e| format!("HEALTH failed: {e}"))?;
        sum = (sum.0 + h.served, sum.1 + h.shed, sum.2 + h.expired);
    }
    Ok(sum)
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.0.push(Metric {
                    name: name.to_string(),
                    value: v,
                    unit,
                    samples: samples as u64,
                    in_result: true,
                });
                Ok(())
            }
            _ => Err(format!("metric {name} has no samples")),
        }
    }

    fn span_median(
        &mut self,
        trace: &Trace,
        name: &str,
        span: &str,
        scale: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let mut v: Vec<f64> = trace.durations(span).into_iter().map(|us| us * scale).collect();
        let n = v.len();
        self.push(name, median(&mut v), unit, n)
    }
}

/// What a traced run measures besides its spans.
struct Layers {
    /// fsyncs and bytes the scratch store's write replay made.
    fsyncs: u64,
    bytes: u64,
    /// Duration of each of those fsyncs.
    fsync_us: Vec<f64>,
    /// Writes replayed.
    writes: u64,
    /// Whole-keyspace digest passes and fscks of the scratch store.
    digest_ms: Vec<f64>,
    fsck_ms: Vec<f64>,
    route: RouteNumbers,
    conv: Convergence,
    /// `served`, `shed`, `expired` summed over the workload's daemons.
    counters: (u64, u64, u64),
    /// Traced ÷ untraced goodput.
    overhead: f64,
}

fn per_layer(
    m: &mut Metrics,
    trace: &Trace,
    mirror: &Mirror<'_>,
    mut l: Layers,
) -> Result<(), String> {
    for (name, span) in [
        ("core.decode_us", "core.decode"),
        ("core.encode_us", "core.encode"),
        ("core.card_us", "core.card"),
        ("core.jaccard_us", "core.jaccard"),
    ] {
        m.span_median(trace, name, span, 1.0, "us")?;
    }
    let corrected = trace.durations("core.jaccard");
    let raw = trace.durations("core.jaccard_raw");
    m.push(
        "core.jaccard_correction_us",
        median_of(corrected.iter().zip(&raw).map(|(c, r)| c - r).collect()).0,
        "us",
        raw.len(),
    )?;
    m.span_median(trace, "core.merge_us", "core.merge", 1.0, "us")?;
    let (items, ns) = mirror.inserted;
    m.push(
        "core.insert_ns_per_item",
        (items > 0).then(|| ns as f64 / items as f64),
        "ns",
        items as usize,
    )?;

    m.span_median(trace, "store.put_us", "store.put", 1.0, "us")?;
    m.span_median(trace, "store.get_us", "store.get", 1.0, "us")?;
    let n = l.fsync_us.len();
    m.push("store.fsync_us", median(&mut l.fsync_us), "us", n)?;
    let per_write = |count: u64| Some(count as f64 / l.writes.max(1) as f64);
    m.push("store.fsyncs_per_write", per_write(l.fsyncs), "count", l.writes as usize)?;
    m.push("store.bytes_per_write", per_write(l.bytes), "bytes", l.writes as usize)?;
    m.push("store.digest_pass_ms", median(&mut l.digest_ms), "ms", l.digest_ms.len())?;
    m.push("store.fsck_ms", median(&mut l.fsck_ms), "ms", l.fsck_ms.len())?;

    let replay = trace.replay_by_req();
    for kind in Kind::ALL {
        m.span_median(trace, &format!("serve.{}_us", kind.label()), kind.span(), 1.0, "us")?;
    }
    for kind in Kind::ALL {
        let mut own: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.name == kind.span())
            .filter_map(|s| replay.get(&s.req).map(|r| s.us() - r))
            .collect();
        let n = own.len();
        m.push(&format!("serve.self_us.{}", kind.label()), median(&mut own), "us", n)?;
    }
    m.span_median(trace, "serve.window_us", "serve.window", 1.0, "us")?;
    let (served, shed, expired) = l.counters;
    m.push("serve.served", Some(served as f64), "count", 1)?;
    m.push("serve.shed", Some(shed as f64), "count", 1)?;
    m.push("serve.expired", Some(expired as f64), "count", 1)?;

    let r = l.route;
    m.push("route.hop_us.card", r.hop_card.0, "us", r.hop_card.1)?;
    m.push("route.hop_us.put", r.hop_put.0, "us", r.hop_put.1)?;
    m.push("route.cross_jaccard_us", r.cross_jaccard.0, "us", r.cross_jaccard.1)?;
    m.push("route.local_jaccard_us", r.local_jaccard.0, "us", r.local_jaccard.1)?;
    m.push("route.scatter_us", r.scatter.0, "us", r.scatter.1)?;
    m.push("route.handoffs", Some(r.handoffs as f64), "count", 1)?;

    m.span_median(trace, "replica.digest_ms", "replica.digest", 1e-3, "ms")?;
    m.span_median(trace, "replica.sync_ms", "replica.sync", 1e-3, "ms")?;
    m.push("replica.names_pulled", Some(l.conv.pulled as f64), "count", 1)?;
    m.push("replica.rounds", Some(f64::from(l.conv.rounds)), "count", 1)?;
    m.push("trace.overhead", Some(l.overhead), "ratio", 2)
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` (`unknown` outside a clone).
fn commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            Some(line.split(' ').next()?.to_string())
        }),
        None => Some(head.to_string()),
    };
    id.map_or_else(|| "unknown".into(), |id| id.trim().chars().take(12).collect())
}

fn meta(cfg: &Config, spec: &Spec) -> Vec<(&'static str, String)> {
    let (p, q, r) = spec.pqr;
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("workload", spec.name.to_string()),
        ("seed", cfg.seed.to_string()),
        ("held_out_seed", gen::HELD_OUT_SEED.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("cpus", cpus.to_string()),
        ("git_describe", commit()),
        ("params", format!("p={p},q={q},r={r}")),
        ("names", spec.names.to_string()),
        ("topology", format!("{:?}", spec.topology)),
        ("connections", CONNECTIONS.to_string()),
        ("depth", spec.depth.to_string()),
        ("setups", SETUPS.to_string()),
    ]
}
