//! Live in-process daemons and routers, their store directories, and
//! anti-entropy run by the benchmark itself.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use hmh_replica::{fetch_digests, sync_with_peer, ReplicaOptions};
use hmh_route::{route, GroupConfig, Ring, RingConfig, RouteOptions, RouterHandle};
use hmh_serve::{serve, Client, Request, ServeOptions, ServerHandle};

use crate::trace::{Trace, NO_PARENT, NO_REQ};
use crate::workload::{Inputs, Topology};

/// A started deployment of one workload.
pub struct Deployment {
    root: PathBuf,
    daemons: Vec<ServerHandle>,
    dirs: Vec<PathBuf>,
    /// Daemon indices of each replica group, in ring order.
    pub groups: Vec<Vec<usize>>,
    router: Option<RouterHandle>,
    /// The ring behind the router, if any.
    pub ring: Option<Ring>,
    /// Where clients send traffic: the router, or the one daemon.
    pub entry: SocketAddr,
}

fn start_daemon(dir: &Path) -> Result<ServerHandle, String> {
    serve(dir, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("cannot start daemon on {}: {e}", dir.display()))
}

/// A ring over `groups` (lists of replica addresses).
pub fn ring_of(groups: &[Vec<SocketAddr>], vnodes: u32) -> Result<Ring, String> {
    let config = RingConfig {
        epoch: 1,
        vnodes,
        groups: groups
            .iter()
            .enumerate()
            .map(|(g, replicas)| GroupConfig { id: format!("g{g}"), replicas: replicas.clone() })
            .collect(),
    };
    Ring::build(config).map_err(|e| format!("bad ring: {e}"))
}

/// Start a router over `ring`.
pub fn start_router(ring: Ring) -> Result<RouterHandle, String> {
    route(ring, "127.0.0.1:0", RouteOptions::default())
        .map_err(|e| format!("cannot start router: {e}"))
}

impl Deployment {
    /// Start the daemons (and router) of `topology` with fresh stores
    /// under `root`.
    pub fn start(topology: Topology, root: &Path) -> Result<Self, String> {
        let (group_count, replicas, vnodes) = match topology {
            Topology::Single => (1, 1, 0),
            Topology::Cluster { groups, replicas, vnodes } => (groups, replicas, vnodes),
        };
        let mut dep = Self {
            root: root.to_path_buf(),
            daemons: Vec::new(),
            dirs: Vec::new(),
            groups: Vec::new(),
            router: None,
            ring: None,
            entry: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        for _ in 0..group_count {
            let members = (0..replicas).map(|_| dep.add_daemon()).collect::<Result<_, _>>()?;
            dep.groups.push(members);
        }
        dep.entry = dep.addr(0);
        if let Topology::Cluster { .. } = topology {
            let addrs: Vec<Vec<SocketAddr>> =
                dep.groups.iter().map(|g| g.iter().map(|&d| dep.addr(d)).collect()).collect();
            let ring = ring_of(&addrs, vnodes)?;
            let router = start_router(ring.clone())?;
            dep.entry = router.addr();
            dep.router = Some(router);
            dep.ring = Some(ring);
        }
        Ok(dep)
    }

    /// Start one more daemon on a fresh store; returns its index.
    pub fn add_daemon(&mut self) -> Result<usize, String> {
        let dir = self.root.join(format!("d{}", self.daemons.len()));
        let handle = start_daemon(&dir)?;
        self.daemons.push(handle);
        self.dirs.push(dir);
        Ok(self.daemons.len() - 1)
    }

    /// Stop the most recently added daemon and delete its store.
    pub fn stop_last_daemon(&mut self) {
        if let (Some(daemon), Some(dir)) = (self.daemons.pop(), self.dirs.pop()) {
            daemon.join();
            remove_dir(&dir);
        }
    }

    /// Address of daemon `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.daemons[i].addr()
    }

    /// Number of daemons.
    pub fn daemon_count(&self) -> usize {
        self.daemons.len()
    }

    /// Router handoff counter (0 without a router).
    pub fn handoffs(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.handoffs().load(Ordering::Relaxed))
    }

    /// Every ordered (local, peer) pair inside a replica group.
    pub fn sync_pairs(&self) -> Vec<(SocketAddr, SocketAddr)> {
        let mut pairs = Vec::new();
        for group in &self.groups {
            for &local in group {
                for &peer in group {
                    if local != peer {
                        pairs.push((self.addr(local), self.addr(peer)));
                    }
                }
            }
        }
        pairs
    }

    /// Bytes in the store directories of the workload's daemons.
    pub fn store_bytes(&self) -> u64 {
        self.groups
            .iter()
            .flatten()
            .map(|&d| &self.dirs[d])
            .filter_map(|dir| fs::read_dir(dir).ok())
            .flat_map(|entries| entries.filter_map(Result::ok))
            .filter_map(|e| e.metadata().ok())
            .filter(fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    }

    /// PUT every preloaded sketch through the entry point, eight per
    /// pipelined window.
    pub fn preload(&self, inp: &Inputs) -> Result<(), String> {
        let mut client = Client::connect(self.entry);
        let reqs: Vec<Request> = inp
            .preload
            .iter()
            .enumerate()
            .map(|(i, bytes)| Request::Put { name: inp.names[i].clone(), sketch: bytes.clone() })
            .collect();
        for window in reqs.chunks(8) {
            let replies = client.pipeline(window).map_err(|e| format!("preload failed: {e}"))?;
            for reply in replies {
                hmh_serve::typed_response(reply).map_err(|e| format!("preload refused: {e}"))?;
            }
        }
        Ok(())
    }

    /// Stop the router and every daemon and wait for their threads. The
    /// store directories stay until the run deletes its own directory
    /// when it ends, so the filesystem's work of freeing their blocks
    /// does not land in a later set-up or in the timed phase.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.join();
        }
        for daemon in self.daemons {
            daemon.join();
        }
    }
}

/// Delete `dir` and wait until the filesystem has committed the
/// deletion, so the cost of freeing its blocks lands in the run that
/// wrote them and not in the next measurement.
pub fn remove_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(handle) = fs::File::open(parent) {
            let _ = handle.sync_all();
        }
    }
}

/// What one convergence took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Convergence {
    /// Wall time until a round pulled nothing.
    pub ms: f64,
    /// Rounds run, the last of which pulled nothing.
    pub rounds: u32,
    /// Names pulled over all rounds.
    pub pulled: u64,
}

/// Run `sync_with_peer` over every pair until a round pulls nothing.
pub fn converge(
    pairs: &[(SocketAddr, SocketAddr)],
    trace: &mut Trace,
) -> Result<Convergence, String> {
    const MAX_ROUNDS: u32 = 8;
    let opts = ReplicaOptions::default();
    let start = Instant::now();
    let mut out = Convergence::default();
    loop {
        out.rounds += 1;
        let mut pulled = 0;
        for &(local, peer) in pairs {
            let t = Instant::now();
            pulled += sync_with_peer(local, peer, &opts)
                .map_err(|e| format!("sync {local} <- {peer} failed: {e}"))?;
            trace.record("replica.sync", NO_REQ, NO_PARENT, t, Instant::now());
        }
        out.pulled += pulled;
        if pulled == 0 {
            break;
        }
        if out.rounds == MAX_ROUNDS {
            return Err(format!("replicas still diverge after {MAX_ROUNDS} sync rounds"));
        }
    }
    out.ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

/// Every `(name, checksum)` digest daemon `addr` holds.
pub fn digests(
    addr: SocketAddr,
    trace: &mut Trace,
) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let mut client = Client::connect(addr);
    let t = Instant::now();
    let out = fetch_digests(&mut client).map_err(|e| format!("DIGEST from {addr} failed: {e}"))?;
    trace.record("replica.digest", NO_REQ, NO_PARENT, t, Instant::now());
    Ok(out)
}
