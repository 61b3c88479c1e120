//! The offline pipeline: MaxSG selection at the paper's three budgets
//! and the exact l <= 6 curve of each selection.

use crate::reference;
use crate::trace::Tracer;
use crate::workload::{budgets, MAX_L};
use crate::Outcome;
use brokerset::{lhop_curve_parallel, max_subgraph_greedy, SourceMode};
use netgraph::{Graph, NodeId};

/// What one round produced, per budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Selection order per budget.
    pub selections: Vec<Vec<NodeId>>,
    /// Curve fractions for l = 1..=MAX_L per budget.
    pub curves: Vec<Vec<f64>>,
    /// Sources each curve used.
    pub sources: Vec<usize>,
}

/// Run one round: three selections, three exact curves.
pub fn round(g: &Graph, threads: usize, tr: &mut Tracer, request: u64) -> Round {
    let root = tr.begin("pipeline.round", request);
    let mut out = Round {
        selections: Vec::new(),
        curves: Vec::new(),
        sources: Vec::new(),
    };
    for k in budgets(g.node_count()) {
        let sel = tr.leaf("brokerset.maxsg.select", request, || {
            max_subgraph_greedy(g, k)
        });
        let curve = tr.leaf("brokerset.parallel.curve", request, || {
            lhop_curve_parallel(g, sel.brokers(), MAX_L, SourceMode::Exact, threads)
        });
        out.selections.push(sel.order().to_vec());
        out.curves.push(curve.fractions);
        out.sources.push(curve.sources);
    }
    tr.end(root);
    out
}

/// Check a round against the benchmark's own curve count and the
/// properties the method must have.
pub fn check(g: &Graph, r: &Round, out: &mut Outcome) {
    let n = g.node_count();
    let ks = budgets(n);
    for (b, ((sel, curve), &sources)) in r
        .selections
        .iter()
        .zip(&r.curves)
        .zip(&r.sources)
        .enumerate()
    {
        out.check(sel.len() <= ks[b], || {
            format!("budget {}: {} brokers selected", ks[b], sel.len())
        });
        out.check(sources == n, || {
            format!("exact curve used {sources} of {n} sources")
        });
        out.check(curve.windows(2).all(|w| w[0] <= w[1]), || {
            format!("budget {}: curve decreases in l: {curve:?}", ks[b])
        });
        let mut roster = sel.clone();
        roster.sort_unstable();
        let counts = reference::curve_counts(g, &roster, MAX_L);
        let denom = n as f64 * (n as f64 - 1.0);
        let want: Vec<f64> = counts.iter().map(|&c| c as f64 / denom).collect();
        out.check(*curve == want, || {
            format!(
                "budget {}: curve {curve:?} differs from the BFS count {want:?}",
                ks[b]
            )
        });
    }
    for pair in r.curves.windows(2) {
        out.check(pair[0].iter().zip(&pair[1]).all(|(a, b)| a <= b), || {
            format!(
                "curve decreases with the budget: {:?} then {:?}",
                pair[0], pair[1]
            )
        });
    }
}
