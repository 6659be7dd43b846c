//! The three workloads, their seeded inputs, and the closed-loop
//! connections of the timed phase.

use std::ops::Range;
use std::time::Instant;

use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::xxhash::xxh64;
use hmh_hash::RandomOracle;
use hmh_serve::{typed_response, Client, ClientError, Request, Response};

use crate::gen::{self, Rng};
use crate::trace::{req_id, Trace, NO_PARENT, NO_REQ};

/// Closed-loop connections driving the timed phase.
pub const CONNECTIONS: usize = 2;
/// Stream id of the post-phase probes (connections are `0..CONNECTIONS`).
pub const PROBE_STREAM: u64 = CONNECTIONS as u64;
/// `batch/*` names owned by each stream.
pub const BATCH_NAMES: usize = 32;
/// Pooled MERGE deltas on workloads with `pooled_merges`.
pub const POOL: usize = 32;
/// LIST_PAGE cursor meaning "from the start".
pub const NO_NAME: u32 = u32::MAX;

/// Operation types the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// CARD.
    Card,
    /// JACCARD.
    Jaccard,
    /// MERGE.
    Merge,
    /// PUT.
    Put,
    /// GET.
    Get,
    /// BATCH_PUT.
    BatchPut,
    /// LIST_PAGE.
    ListPage,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Card,
        Kind::Jaccard,
        Kind::Merge,
        Kind::Put,
        Kind::Get,
        Kind::BatchPut,
        Kind::ListPage,
    ];

    /// Lower-case op name used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Card => "card",
            Kind::Jaccard => "jaccard",
            Kind::Merge => "merge",
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::BatchPut => "batch_put",
            Kind::ListPage => "list_page",
        }
    }

    /// Name of the client span around this op.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Card => "serve.card",
            Kind::Jaccard => "serve.jaccard",
            Kind::Merge => "serve.merge",
            Kind::Put => "serve.put",
            Kind::Get => "serve.get",
            Kind::BatchPut => "serve.batch_put",
            Kind::ListPage => "serve.list_page",
        }
    }

    /// True for ops that change stored state.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Merge | Kind::Put | Kind::BatchPut)
    }
}

/// How the service is deployed for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One daemon, clients talk to it directly.
    Single,
    /// A router over `groups` replica groups of `replicas` daemons each.
    Cluster {
        /// Replica groups on the ring.
        groups: usize,
        /// Daemons per group.
        replicas: usize,
        /// Vnodes per group.
        vnodes: u32,
    },
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Prefix of the preloaded sketch names.
    pub prefix: &'static str,
    /// Sketch parameters `(p, q, r)`.
    pub pqr: (u32, u32, u32),
    /// Preloaded names.
    pub names: usize,
    /// Items in each preloaded sketch.
    pub items_per_name: u64,
    /// Deployment.
    pub topology: Topology,
    /// Ops in flight per connection (1 = one request, one reply).
    pub depth: usize,
    /// Traffic mix: op type and weight.
    pub mix: &'static [(Kind, u32)],
    /// MERGE sends one of [`POOL`] pooled deltas instead of a fresh chunk.
    pub pooled_merges: bool,
    /// Check one CARD/JACCARD reply in this many (1 = every reply).
    pub check_every: u64,
}

impl Spec {
    /// Sketch parameters.
    pub fn params(&self) -> HmhParams {
        let (p, q, r) = self.pqr;
        HmhParams::new(p, q, r).expect("workload parameters are valid")
    }

    /// True when the timed mix sends `kind`.
    pub fn in_mix(&self, kind: Kind) -> bool {
        self.mix.iter().any(|&(k, _)| k == kind)
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "similarity-p15",
        prefix: "doc",
        pqr: (15, 6, 10),
        names: 64,
        items_per_name: 20_000,
        topology: Topology::Single,
        depth: 1,
        mix: &[(Kind::Jaccard, 50), (Kind::Card, 30), (Kind::Merge, 10), (Kind::Get, 10)],
        pooled_merges: true,
        check_every: 8,
    },
    Spec {
        name: "ingest-p10",
        prefix: "ev",
        pqr: (10, 6, 10),
        names: 4096,
        items_per_name: 2_000,
        topology: Topology::Single,
        depth: 8,
        mix: &[(Kind::Put, 35), (Kind::Merge, 20), (Kind::BatchPut, 5), (Kind::Card, 40)],
        pooled_merges: false,
        check_every: 1,
    },
    Spec {
        name: "cluster-p10",
        prefix: "key",
        pqr: (10, 6, 10),
        names: 1024,
        items_per_name: 2_000,
        topology: Topology::Cluster { groups: 2, replicas: 2, vnodes: 128 },
        depth: 1,
        mix: &[
            (Kind::Card, 50),
            (Kind::Jaccard, 20),
            (Kind::Put, 10),
            (Kind::Merge, 10),
            (Kind::Get, 8),
            (Kind::ListPage, 2),
        ],
        pooled_merges: false,
        check_every: 1,
    },
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Everything generated from the seed before the service starts.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// The workload seed.
    pub seed: u64,
    /// Sketch parameters.
    pub params: HmhParams,
    /// Every name: the preloaded ones, then [`BATCH_NAMES`] `batch/*`
    /// names per stream (connections, then probes).
    pub names: Vec<String>,
    /// Encoded preload sketch of each preloaded name.
    pub preload: Vec<Vec<u8>>,
    /// Encoded pooled MERGE deltas (empty unless `pooled_merges`).
    pub pool: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generate the inputs of `spec` from `seed`.
    pub fn build(spec: &'static Spec, seed: u64) -> Self {
        let params = spec.params();
        let mut names: Vec<String> =
            (0..spec.names).map(|i| format!("{}/{i:05}", spec.prefix)).collect();
        for stream in 0..=PROBE_STREAM {
            names.extend((0..BATCH_NAMES).map(|j| format!("batch/{stream}/{j:02}")));
        }
        let preload = (0..spec.names)
            .map(|i| gen::encoded(params, &gen::preload_items(seed, i, spec.items_per_name)))
            .collect();
        let pool = if spec.pooled_merges {
            (0..POOL).map(|d| gen::encoded(params, &gen::delta_items(seed, d))).collect()
        } else {
            Vec::new()
        };
        Self { spec, seed, params, names, preload, pool }
    }

    /// Preloaded names owned by connection `conn`.
    pub fn owned(&self, conn: usize) -> Range<usize> {
        let per = self.spec.names / CONNECTIONS;
        conn * per..(conn + 1) * per
    }

    /// Index of `batch/<stream>/<j>`.
    pub fn batch_name(&self, stream: u64, j: usize) -> usize {
        self.spec.names + stream as usize * BATCH_NAMES + j
    }

    /// Length of every encoded sketch of these parameters.
    pub fn encoded_len(&self) -> usize {
        self.preload[0].len()
    }

    /// A BATCH_PUT request of `items` into name `idx`.
    pub fn batch_request(&self, idx: usize, items: Vec<Vec<u8>>) -> Request {
        let oracle = RandomOracle::default();
        let width = |w: u32| u8::try_from(w).expect("register widths fit a byte");
        Request::BatchPut {
            name: self.names[idx].clone(),
            p: width(self.params.p()),
            q: width(self.params.q()),
            r: width(self.params.r()),
            algorithm: format::algorithm_to_byte(oracle.algorithm()),
            seed: oracle.seed(),
            items,
        }
    }
}

/// How an op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The service answered with the expected reply type.
    Ok,
    /// The call failed or was refused.
    Failed,
    /// The service answered, but with the wrong reply type.
    Unexpected,
}

/// One recorded op: what was sent and a digest of what came back.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Op type.
    pub kind: Kind,
    /// Name index (LIST_PAGE: cursor name index or [`NO_NAME`]).
    pub a: u32,
    /// JACCARD: second name; pooled MERGE: delta; BATCH_PUT: batch number.
    pub b: u32,
    /// How it ended.
    pub status: Status,
    /// CARD/JACCARD: value bits; GET: xxh64 of the bytes; LIST_PAGE:
    /// [`names_digest`] of the page.
    pub reply: u64,
    /// Latency of the exchange that carried it.
    pub lat_ns: u64,
    /// Phase it ran in (1 = untraced, 2 = traced, 0 = probe).
    pub phase: u8,
}

/// Digest of a LIST_PAGE reply.
pub fn names_digest<S: AsRef<str>>(names: &[S], partial: bool) -> u64 {
    let mut joined = Vec::new();
    for name in names {
        joined.extend_from_slice(name.as_ref().as_bytes());
        joined.push(b'\n');
    }
    xxh64(&joined, u64::from(partial))
}

/// Check a reply's type against the op and digest its content.
pub fn digest_reply(kind: Kind, resp: &Response) -> (Status, u64) {
    match (kind, resp) {
        (Kind::Card | Kind::Jaccard, Response::Value(v)) => (Status::Ok, v.to_bits()),
        (Kind::Get, Response::Sketch(bytes)) => (Status::Ok, xxh64(bytes, 0)),
        (Kind::ListPage, Response::NamesPage { names, partial }) => {
            (Status::Ok, names_digest(names, *partial))
        }
        (Kind::Merge | Kind::Put | Kind::BatchPut, Response::Ok) => (Status::Ok, 0),
        _ => (Status::Unexpected, 0),
    }
}

/// One request/reply through the client's single-op API.
pub fn call(client: &mut Client, req: &Request) -> Result<Response, ClientError> {
    match req {
        Request::Card { name } => client.card(name).map(Response::Value),
        Request::Jaccard { a, b } => client.jaccard(a, b).map(Response::Value),
        Request::Get { name } => client.get_raw(name).map(Response::Sketch),
        Request::Merge { name, sketch } => client.merge_raw(name, sketch).map(|()| Response::Ok),
        Request::Put { name, sketch } => client.put_raw(name, sketch).map(|()| Response::Ok),
        Request::BatchPut { name, p, q, r, algorithm: _, seed: _, items } => {
            let params = HmhParams::new(u32::from(*p), u32::from(*q), u32::from(*r))
                .expect("workload parameters are valid");
            let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
            client.batch_put(name, params, RandomOracle::default(), &slices).map(|()| Response::Ok)
        }
        Request::ListPage { after } => {
            client.list_page(after).map(|(names, partial)| Response::NamesPage { names, partial })
        }
        other => unreachable!("workloads never send {other:?}"),
    }
}

/// Send `reqs` as one exchange (a pipelined window when more than one)
/// and time it. A failed call fails every op it carried.
pub fn exchange(
    client: &mut Client,
    reqs: &[Request],
) -> (Vec<Option<Response>>, Instant, Instant) {
    let start = Instant::now();
    let replies = if reqs.len() == 1 {
        vec![call(client, &reqs[0]).ok()]
    } else {
        match client.pipeline(reqs) {
            Ok(replies) => replies.into_iter().map(|r| typed_response(r).ok()).collect(),
            Err(_) => reqs.iter().map(|_| None).collect(),
        }
    };
    (replies, start, Instant::now())
}

/// One connection's generator and record: its RNG, its running view of
/// the names it owns (to build PUT payloads), its op log and its spans.
pub struct Stream<'a> {
    inp: &'a Inputs,
    /// Stream id (connection number).
    pub id: u64,
    /// Draws this stream's ops.
    pub rng: Rng,
    writes: Vec<u32>,
    acc: Vec<Option<HyperMinHash>>,
    /// BATCH_PUTs this stream has sent.
    pub batch_seq: u32,
    /// Every op sent, in order.
    pub log: Vec<Op>,
    /// Client spans (`serve.*`).
    pub trace: Trace,
}

impl<'a> Stream<'a> {
    /// Connection `conn` over `inp`.
    pub fn new(inp: &'a Inputs, conn: usize, trace: Trace) -> Self {
        let mut acc = vec![None; inp.names.len()];
        if !inp.spec.pooled_merges && conn < CONNECTIONS {
            for i in inp.owned(conn) {
                acc[i] = Some(format::decode(&inp.preload[i]).expect("preload decodes"));
            }
        }
        Self {
            inp,
            id: conn as u64,
            rng: Rng::new(inp.seed, 0xc044 + conn as u64),
            writes: vec![0; inp.names.len()],
            acc,
            batch_seq: 0,
            log: Vec::new(),
            trace,
        }
    }

    fn pick(&mut self) -> usize {
        let own = self.inp.owned(self.id as usize);
        own.start + self.rng.below(own.len() as u64) as usize
    }

    /// Draw the next op from the mix.
    pub fn next_op(&mut self) -> (Op, Request) {
        let spec = self.inp.spec;
        let total: u32 = spec.mix.iter().map(|&(_, w)| w).sum();
        let mut roll = self.rng.below(u64::from(total)) as u32;
        let kind = spec
            .mix
            .iter()
            .find(|&&(_, w)| {
                let hit = roll < w;
                roll = roll.saturating_sub(w);
                hit
            })
            .map(|&(k, _)| k)
            .expect("roll falls inside the mix");
        let inp = self.inp;
        let name = |i: usize| inp.names[i].clone();
        let mut op = Op { kind, a: 0, b: 0, status: Status::Failed, reply: 0, lat_ns: 0, phase: 0 };
        let req = match kind {
            Kind::Card => {
                let a = self.pick();
                op.a = a as u32;
                Request::Card { name: name(a) }
            }
            Kind::Get => {
                let a = self.pick();
                op.a = a as u32;
                Request::Get { name: name(a) }
            }
            Kind::Jaccard => {
                let a = self.pick();
                let mut b = self.pick();
                while b == a {
                    b = self.pick();
                }
                (op.a, op.b) = (a as u32, b as u32);
                Request::Jaccard { a: name(a), b: name(b) }
            }
            Kind::Merge if spec.pooled_merges => {
                let a = self.pick();
                let d = self.rng.below(POOL as u64) as usize;
                (op.a, op.b) = (a as u32, d as u32);
                Request::Merge { name: name(a), sketch: inp.pool[d].clone() }
            }
            Kind::Merge | Kind::Put => {
                let a = self.pick();
                op.a = a as u32;
                let chunk = gen::chunk_items(inp.seed, a, self.writes[a]);
                self.writes[a] += 1;
                let acc = self.acc[a].as_mut().expect("PUT and chunk MERGE track their names");
                acc.insert_batch(&chunk);
                if kind == Kind::Put {
                    Request::Put { name: name(a), sketch: format::encode(acc) }
                } else {
                    Request::Merge { name: name(a), sketch: gen::encoded(inp.params, &chunk) }
                }
            }
            Kind::BatchPut => {
                let j = self.rng.below(BATCH_NAMES as u64) as usize;
                let idx = inp.batch_name(self.id, j);
                (op.a, op.b) = (idx as u32, self.batch_seq);
                let items = gen::batch_items(inp.seed, self.id, self.batch_seq);
                self.batch_seq += 1;
                inp.batch_request(idx, items)
            }
            Kind::ListPage => {
                let cursor = self.rng.below(spec.names as u64 + 1) as usize;
                if cursor == spec.names {
                    op.a = NO_NAME;
                    Request::ListPage { after: String::new() }
                } else {
                    op.a = cursor as u32;
                    Request::ListPage { after: name(cursor) }
                }
            }
        };
        (op, req)
    }

    /// Closed loop until `until`: draw a window of `depth` ops, send it,
    /// wait for every reply, record. Returns when the last reply is in.
    pub fn drive(&mut self, client: &mut Client, until: Instant, phase: u8) {
        let depth = self.inp.spec.depth;
        while Instant::now() < until {
            let (ops, reqs): (Vec<Op>, Vec<Request>) = (0..depth).map(|_| self.next_op()).unzip();
            let (replies, start, end) = exchange(client, &reqs);
            self.record(ops, replies, start, end, phase);
        }
    }

    /// Log the ops of one exchange and their spans.
    pub fn record(
        &mut self,
        ops: Vec<Op>,
        replies: Vec<Option<Response>>,
        start: Instant,
        end: Instant,
        phase: u8,
    ) {
        let window = if ops.len() > 1 {
            self.trace.record("serve.window", NO_REQ, NO_PARENT, start, end)
        } else {
            NO_PARENT
        };
        let lat_ns = end.duration_since(start).as_nanos() as u64;
        for (mut op, reply) in ops.into_iter().zip(replies) {
            (op.status, op.reply) = match &reply {
                Some(resp) => digest_reply(op.kind, resp),
                None => (Status::Failed, 0),
            };
            op.lat_ns = lat_ns;
            op.phase = phase;
            let req = req_id(self.id, self.log.len());
            self.trace.record(op.kind.span(), req, window, start, end);
            self.log.push(op);
        }
    }
}
