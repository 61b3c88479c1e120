//! Churn: writes beside reads on one in-process index. A round is 12
//! fault epochs (defections, node and edge failures, then recovery)
//! followed by the 24-epoch growth stream, each epoch followed by a
//! burst of lookups.

use crate::reference::{self, Dominated};
use crate::trace::Tracer;
use crate::workload::{System, MAX_L, TOPOLOGY_SEED};
use crate::{Outcome, Samples};
use brokerset::{exact_query, IndexCertificate, ReachIndex, StitchAnswer, Validate};
use netgraph::{FaultSchedule, FaultState, Graph, NodeId, NodeSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::ReconfigPlan;
use std::hint::black_box;
use std::time::Instant;

/// Fault epochs per round; the last one is all clear again.
pub const FAULT_EPOCHS: u32 = 12;
/// Lookups in the burst after each epoch.
pub const BURST: usize = 2048;
/// Burst lookups per epoch checked against the reference BFS.
const REFERENCE: usize = 8;
/// Supervised sessions the reconfiguration plans migrate.
const SESSIONS: usize = 24;

/// Inputs shared by every round.
#[derive(Debug)]
pub struct Inputs {
    /// Fault state of each fault epoch.
    states: Vec<FaultState>,
    /// Session pairs for the plans.
    pairs: Vec<(NodeId, NodeId)>,
    /// Lookup bursts, one per epoch.
    bursts: Vec<Vec<(u32, u32, u16)>>,
}

/// The scripted fault schedule: three brokers defect and rejoin, four
/// nodes fail and recover, four edges are cut and spliced back.
fn schedule(g: &Graph, roster: &[NodeId], seed: u64) -> FaultSchedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a05);
    let n = g.node_count() as u32;
    let mut sched = FaultSchedule::new(g.node_count());
    for i in 0..3u32 {
        let b = roster[rng.gen_range(0..roster.len())];
        sched.fail_broker(1 + i, b);
        sched.recover_broker(8 + i, b);
    }
    for i in 0..4u32 {
        let v = NodeId(rng.gen_range(0..n));
        sched.fail_node(3 + i % 3, v);
        sched.recover_node(10, v);
    }
    for _ in 0..4 {
        let u = NodeId(rng.gen_range(0..n));
        if let Some(&v) = g.neighbors(u).first() {
            sched.fail_edge(5, u, v);
            sched.recover_edge(11, u, v);
        }
    }
    sched.set_horizon(FAULT_EPOCHS);
    sched
}

/// Uniform `(s, t, l)` lookups over `n` vertices.
pub fn queries(n: usize, count: usize, seed: u64) -> Vec<(u32, u32, u16)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(1..=MAX_L as u16),
            )
        })
        .collect()
}

/// Make the round inputs: fault picks and bursts from the run's seed,
/// sessions from the topology seed.
pub fn inputs(sys: &System, seed: u64) -> Inputs {
    let sched = schedule(&sys.g, &sys.roster, seed);
    let states: Vec<FaultState> = (1..=FAULT_EPOCHS).map(|e| sched.state_at(e)).collect();
    let n0 = sys.g.node_count();
    // Plan cost depends strongly on which 24 sessions are supervised, so
    // they come with the topology, like the growth stream.
    let mut rng = ChaCha8Rng::seed_from_u64(TOPOLOGY_SEED ^ 0xeca);
    let mut pairs = Vec::with_capacity(SESSIONS);
    while pairs.len() < SESSIONS {
        let (u, v) = (rng.gen_range(0..n0 as u32), rng.gen_range(0..n0 as u32));
        if u != v {
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    // Bursts after growth epochs cover the vertices born so far.
    let mut sizes = vec![n0; FAULT_EPOCHS as usize];
    sizes.extend(sys.deltas.iter().map(|d| d.node_count_after()));
    let bursts = sizes
        .iter()
        .enumerate()
        .map(|(e, &n)| queries(n, BURST, seed ^ 0xb0057 ^ ((e as u64) << 20)))
        .collect();
    Inputs {
        states,
        pairs,
        bursts,
    }
}

/// What the churn rounds measured.
#[derive(Debug, Default)]
pub struct ChurnOut {
    /// Per-epoch time from hand-in until every layer is updated, ms.
    pub epoch_ms: Samples,
    /// Per-burst lookup time, s.
    pub burst_s: Samples,
    /// Shards rebuilt over the first round's epochs.
    pub shards_rebuilt: u64,
    /// Gains the maintainer re-evaluated over the first round.
    pub gains_reevaluated: u64,
    /// Epochs of the first round that executed a reconfiguration plan.
    pub plans: u64,
    /// Burst answer digests of the first round, compared on later ones.
    digests: Vec<u64>,
}

fn digest(answers: &[Option<StitchAnswer>]) -> u64 {
    brokerset::answers_checksum(answers.iter().copied())
}

/// Time one burst of lookups.
fn burst(
    idx: &ReachIndex,
    qs: &[(u32, u32, u16)],
    tr: &mut Tracer,
    req: u64,
    res: &mut ChurnOut,
    out: &mut Outcome,
) -> Vec<Option<StitchAnswer>> {
    let t0 = Instant::now();
    let tok = tr.begin("churn.burst", req);
    let answers: Vec<Option<StitchAnswer>> = qs
        .iter()
        .map(|&(s, t, l)| black_box(idx.query(NodeId(s), NodeId(t), usize::from(l))))
        .collect();
    tr.end_count(tok, qs.len() as u64);
    res.burst_s.push(tr.active(), t0.elapsed().as_secs_f64());
    out.attempted += qs.len() as u64;
    answers
}

/// Every-answer properties under one epoch plus sampled comparison
/// with the reference BFS and `exact_query`.
#[allow(clippy::too_many_arguments)]
fn check_burst(
    g: &Graph,
    roster: &[NodeId],
    state: &FaultState,
    idx: &ReachIndex,
    qs: &[(u32, u32, u16)],
    answers: &[Option<StitchAnswer>],
    epoch: &str,
    out: &mut Outcome,
) {
    let dom = Dominated::under(g, roster, state);
    for (&(s, t, l), a) in qs.iter().zip(answers) {
        let Some(a) = a else { continue };
        let ok = if s == t {
            a.broker == NodeId(s) && a.hops() == 0
        } else {
            a.hops_s + a.hops_t <= u32::from(l).min(MAX_L as u32) && dom.is_live_broker(a.broker)
        };
        out.check(ok, || {
            format!("{epoch}: answer {a:?} to ({s}, {t}, {l}) breaks a property")
        });
    }
    let set = NodeSet::from_iter_with_capacity(g.node_count(), roster.iter().copied());
    for (&(s, t, l), &got) in qs.iter().zip(answers).take(REFERENCE) {
        let (s, t, l) = (NodeId(s), NodeId(t), usize::from(l));
        let want = dom.stitch(roster, s, t, l, MAX_L);
        out.check(got == want, || {
            format!("{epoch}: index {got:?} for ({s}, {t}, {l}), reference BFS {want:?}")
        });
        let exact = exact_query(g, &set, state, s, t, l);
        out.check(got == exact, || {
            format!("{epoch}: index {got:?} for ({s}, {t}, {l}), exact_query {exact:?}")
        });
    }
    let cert = IndexCertificate::new(g, idx, 2, 0x5eed).audit();
    out.check(cert.is_ok(), || {
        format!("{epoch}: index certificate: {cert:?}")
    });
}

/// One round. The first round (`check = true`) checks every epoch;
/// later rounds must reproduce its answers exactly.
pub fn round(
    sys: &System,
    inp: &Inputs,
    threads: usize,
    check: bool,
    tr: &mut Tracer,
    res: &mut ChurnOut,
    out: &mut Outcome,
) {
    let mut idx = sys.index.clone();
    let mut g = sys.g.clone();
    let mut m = sys.maintainer.clone();
    let mut digests = Vec::with_capacity(inp.bursts.len());

    for (e, state) in inp.states.iter().enumerate() {
        let req = tr.request();
        let t0 = Instant::now();
        let root = tr.begin("churn.fault_epoch", req);
        let rep = tr.leaf("brokerset.index.apply_state", req, || {
            idx.apply_state(&g, state, threads)
        });
        tr.end(root);
        res.epoch_ms
            .push(tr.active(), t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let qs = &inp.bursts[e];
        let answers = burst(&idx, qs, tr, req, res, out);
        digests.push(digest(&answers));
        if check {
            res.shards_rebuilt += rep.rebuilt as u64;
            check_burst(
                &g,
                &sys.roster,
                state,
                &idx,
                qs,
                &answers,
                &format!("fault epoch {}", e + 1),
                out,
            );
            if state.is_clear() {
                let pristine: Vec<Option<StitchAnswer>> = qs
                    .iter()
                    .map(|&(s, t, l)| sys.index.query(NodeId(s), NodeId(t), usize::from(l)))
                    .collect();
                out.check(answers == pristine, || {
                    format!("fault epoch {}: clear-state answers not restored", e + 1)
                });
            }
        }
    }
    out.check(inp.states.last().is_some_and(FaultState::is_clear), || {
        "the fault schedule does not end all clear".into()
    });

    let n0 = g.node_count();
    let mut current = NodeSet::from_iter_with_capacity(n0, m.brokers().iter().copied());
    for (e, d) in sys.deltas.iter().enumerate() {
        let req = tr.request();
        let t0 = Instant::now();
        let root = tr.begin("churn.growth_epoch", req);
        let next = tr.leaf("netgraph.delta.apply", req, || g.apply_delta(d));
        let report = tr.leaf("brokerset.incremental.apply", req, || {
            m.apply(&g, &next, d).clone()
        });
        let (cur, after) = report.transition(&current);
        let mut planned = None;
        if cur != after {
            match tr.leaf("routing.plan.build", req, || {
                ReconfigPlan::build(&next, &cur, &after, &inp.pairs)
            }) {
                Ok(plan) => {
                    let cert = tr.leaf("routing.plan.certify", req, || {
                        plan.certificate(&next).audit()
                    });
                    let exec =
                        tr.leaf("routing.plan.execute", req, || plan.execute(&next, threads));
                    planned = Some((cert, exec.cut_audit));
                }
                Err(_) => out.failed += 1,
            }
        }
        let rep = tr.leaf("brokerset.index.apply_delta", req, || {
            idx.apply_delta(&next, d, threads)
        });
        tr.end(root);
        res.epoch_ms
            .push(tr.active(), t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        g = next;
        current = after;

        let e_all = FAULT_EPOCHS as usize + e;
        let qs = &inp.bursts[e_all];
        let answers = burst(&idx, qs, tr, req, res, out);
        digests.push(digest(&answers));
        if check {
            let epoch = format!("growth epoch {}", e + 1);
            res.shards_rebuilt += rep.rebuilt as u64;
            res.gains_reevaluated += report.gains_reevaluated as u64;
            let cov = reference::coverage(&g, m.brokers());
            out.check(cov == report.coverage, || {
                format!(
                    "{epoch}: maintained coverage {} re-derives as {cov}",
                    report.coverage
                )
            });
            if let Some((cert, cuts)) = planned {
                res.plans += 1;
                out.check(cert.is_ok(), || {
                    format!("{epoch}: plan certificate: {cert}")
                });
                out.check(cuts.is_ok(), || format!("{epoch}: unsafe cut: {cuts}"));
            }
            let clear = FaultState::all_clear(g.node_count());
            check_burst(&g, &sys.roster, &clear, &idx, qs, &answers, &epoch, out);
        }
    }
    if check {
        let audit = m.certify(&g).audit();
        out.check(audit.is_ok(), || {
            format!("maintenance certificate: {audit:?}")
        });
        res.digests = digests;
    } else {
        out.check(digests == res.digests, || {
            "a repeated churn round answered differently".into()
        });
    }
}
