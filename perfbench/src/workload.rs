//! Workloads and the set-up every run repeats.
//!
//! Every workload runs the whole system on one quarter-scale topology
//! (13,020 nodes): the offline pipeline, a real `brokerd` serving a
//! saved index, and churn epochs with lookups between them. Workloads
//! differ in the serving broker budget, which sets the index's working
//! set against the reference host's 2 MiB per-core L2 and the number of
//! shards every epoch has to rebuild.

use crate::daemon::Daemon;
use crate::trace::Tracer;
use brokerset::{max_subgraph_greedy, BrokerMaintainer, MaintainConfig, ReachIndex};
use netgraph::{Graph, GraphDelta, NodeId, NodeSet};
use std::path::Path;
use std::time::Instant;
use topology::{evolve, DeltaStream, GrowthConfig, InternetConfig, Scale};

/// Hop cap of the served index (the paper's l <= 6 horizon).
pub const MAX_L: usize = 6;
/// Growth epochs in the churn stream.
pub const GROWTH_EPOCHS: u32 = 24;
/// Seed of the topology, its growth stream and the plan sessions: the
/// calibration seed whose quarter-scale Table 1 rows match the paper's.
/// The run's `--seed` drives the requests (queries, lookup bursts, fault
/// picks), so the spread between seeds measures the program, not a
/// lottery over graphs.
pub const TOPOLOGY_SEED: u64 = 2014;

/// One workload: a serving budget on the quarter-scale topology.
#[derive(Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Which of the paper's three budgets serves queries.
    pub budget: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "quarter-1.9pct",
        budget: 1,
    },
    Workload {
        name: "quarter-6.8pct",
        budget: 2,
    },
];

/// The paper's budgets, 0.19 %, 1.9 % and 6.8 % of the nodes.
pub fn budgets(n: usize) -> [usize; 3] {
    [0.0019, 0.019, 0.068].map(|f: f64| ((n as f64 * f).round() as usize).max(1))
}

/// Everything a run needs after set-up.
#[derive(Debug)]
pub struct System {
    /// The topology.
    pub g: Graph,
    /// Serving broker set, ascending ids.
    pub roster: Vec<NodeId>,
    /// The same set as a `NodeSet`.
    pub brokers: NodeSet,
    /// The in-process index (churn epochs run on clones of it).
    pub index: ReachIndex,
    /// Serialized BRI1 size in bytes.
    pub index_bytes: usize,
    /// Whether the saved blob decoded back to the same index.
    pub codec_roundtrip_ok: bool,
    /// The daemon serving the saved index.
    pub daemon: Daemon,
    /// The growth stream, kept for its audit.
    pub stream: DeltaStream,
    /// The growth stream lowered to graph deltas.
    pub deltas: Vec<GraphDelta>,
    /// The maintained broker set at epoch 0 (largest budget).
    pub maintainer: BrokerMaintainer,
}

/// Set the system up once: topology, serving selection, index build,
/// encode/save/decode, daemon spawn to `HELLO`, growth stream,
/// maintainer. Returns the system and the wall time of all of it.
pub fn setup(
    w: &Workload,
    threads: usize,
    brokerd: &Path,
    index_path: &Path,
    tr: &mut Tracer,
    request: u64,
) -> Result<(System, f64), String> {
    let t0 = Instant::now();
    let root = tr.begin("setup", request);
    let net = tr.leaf("topology.internet.generate", request, || {
        InternetConfig::scaled(Scale::Quarter).generate(TOPOLOGY_SEED)
    });
    let g = net.graph().clone();
    let k = budgets(g.node_count())[w.budget];
    let sel = tr.leaf("brokerset.maxsg.select", request, || {
        max_subgraph_greedy(&g, k)
    });
    let index = tr.leaf("brokerset.index.build", request, || {
        ReachIndex::build(&g, sel.brokers(), MAX_L, threads)
    });
    let bytes = tr.leaf("brokerset.index.encode", request, || index.to_bytes());
    tr.leaf("brokerset.index.save", request, || {
        std::fs::write(index_path, &bytes)
    })
    .map_err(|e| format!("saving {}: {e}", index_path.display()))?;
    let decoded = tr.leaf("brokerset.index.decode", request, || {
        ReachIndex::from_bytes(&bytes)
    });
    let daemon = tr.leaf("brokerd.ready", request, || {
        Daemon::spawn(brokerd, index_path)
    })?;
    let (stream, deltas) = tr.leaf("topology.evolve.stream", request, || {
        let cfg = GrowthConfig::calibrated(GROWTH_EPOCHS, g.node_count());
        let stream = evolve(&net, &cfg, TOPOLOGY_SEED ^ 0xe70);
        let deltas = stream.lower();
        (stream, deltas)
    });
    // The maintained set uses the largest budget, where growth makes it
    // swap brokers and so exercises the reconfiguration planner.
    let maintainer = tr.leaf("brokerset.incremental.init", request, || {
        BrokerMaintainer::new(&g, budgets(g.node_count())[2], MaintainConfig::default())
    });
    tr.end(root);
    let elapsed = t0.elapsed().as_secs_f64();

    let codec_roundtrip_ok = decoded.as_ref().is_ok_and(|d| *d == index);
    let roster: Vec<NodeId> = sel.brokers().iter().collect();
    Ok((
        System {
            brokers: sel.brokers().clone(),
            roster,
            g,
            index,
            index_bytes: bytes.len(),
            codec_roundtrip_ok,
            daemon,
            stream,
            deltas,
            maintainer,
        },
        elapsed,
    ))
}
