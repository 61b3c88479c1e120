//! Serving: one client, one connection, closed loop against the
//! `brokerd` child: single `QUERY` frames, and `BATCH` frames of
//! [`BATCH`] queries, both over the same uniform `(s, t, l)` stream.

use crate::daemon::{self, Daemon};
use crate::reference::Dominated;
use crate::trace::Tracer;
use crate::workload::{System, MAX_L};
use crate::{Outcome, Samples};
use broker_net::proto::Conn;
use broker_net::proto::{self, Request, Response};
use brokerset::{exact_query, StitchAnswer};
use netgraph::{FaultState, NodeId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries per `BATCH` frame.
pub const BATCH: usize = 512;
/// Leading triples answered both as single queries and in batches.
const COMPARE: usize = 1024;
/// Leading triples also answered by the reference BFS and `exact_query`.
const REFERENCE: usize = 64;
/// Fewest single queries and frames per slice, whatever the time.
const MIN_QUERIES: usize = 2048;
const MIN_FRAMES: usize = 4;
/// In-process probes of the traced run.
const LOOKUP_BLOCKS: usize = 256;
const CODEC_ROUNDS: usize = 256;
const HELLO_PROBES: usize = 2000;

/// What the serving phase measured.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Single-`QUERY` round trips, µs.
    pub query_us: Samples,
    /// `BATCH` frame round trips, µs.
    pub frame_us: Samples,
    /// Daemon peak RSS at the end, KiB.
    pub rss_kib: u64,
    /// Share of served queries that found a stitch.
    pub hit_rate: f64,
}

/// Answer properties that hold for every served answer on a clear
/// epoch: the hop split fits the bound and the broker is on the roster
/// (the zero-hop self path excepted).
fn check_answer(
    out: &mut Outcome,
    roster: &[bool],
    (s, t, l): (u32, u32, u16),
    a: Option<StitchAnswer>,
) {
    let Some(a) = a else { return };
    let ok = if s == t {
        a.broker == NodeId(s) && a.hops() == 0
    } else {
        a.hops_s + a.hops_t <= u32::from(l).min(MAX_L as u32)
            && roster.get(a.broker.index()).copied().unwrap_or(false)
    };
    out.check(ok, || {
        format!("answer {a:?} to ({s}, {t}, {l}) breaks a property")
    });
}

/// The client side of the serving phase. Slices of single queries and
/// of batch frames alternate with the run's other work; each kind
/// continues through the stream where its last slice stopped.
#[derive(Debug)]
pub struct Client {
    stream: Vec<(u32, u32, u16)>,
    on_roster: Vec<bool>,
    next_query: usize,
    next_frame: usize,
    sent: u64,
    frames: u64,
    hits: u64,
    single: Vec<Option<StitchAnswer>>,
    batched: Vec<Option<StitchAnswer>>,
    /// The measurements so far.
    pub res: ServeOut,
}

impl Client {
    /// A client over `stream` (a whole number of frames long) for the
    /// system's roster.
    pub fn new(sys: &System, stream: Vec<(u32, u32, u16)>) -> Self {
        let mut on_roster = vec![false; sys.g.node_count()];
        for b in &sys.roster {
            on_roster[b.index()] = true;
        }
        Client {
            stream,
            on_roster,
            next_query: 0,
            next_frame: 0,
            sent: 0,
            frames: 0,
            hits: 0,
            single: Vec::with_capacity(COMPARE),
            batched: Vec::with_capacity(COMPARE),
            res: ServeOut::default(),
        }
    }

    /// Send single `QUERY` frames for `secs` seconds (at least
    /// [`MIN_QUERIES`]). Returns `false` when the connection failed.
    pub fn query_slice(
        &mut self,
        conn: &mut Conn,
        secs: f64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> bool {
        let start = Instant::now();
        for n in 0.. {
            if n >= MIN_QUERIES && n % 256 == 0 && start.elapsed() >= Duration::from_secs_f64(secs)
            {
                break;
            }
            let i = self.next_query;
            self.next_query += 1;
            let (s, t, l) = self.stream[i % self.stream.len()];
            let req = tr.request();
            let t0 = Instant::now();
            let root = tr.begin("serve.query", req);
            let frame = tr.leaf("proto.encode", req, || {
                proto::encode_request(&Request::Query { s, t, l })
            });
            let resp = tr.leaf("proto.roundtrip", req, || daemon::send(conn, &frame));
            tr.end(root);
            self.res
                .query_us
                .push(tr.active(), t0.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            self.sent += 1;
            match resp {
                Ok(Response::Answer(a)) => {
                    self.hits += u64::from(a.is_some());
                    check_answer(out, &self.on_roster, (s, t, l), a);
                    if i < COMPARE {
                        self.single.push(a);
                    }
                }
                Ok(Response::Error { .. }) => out.failed += 1,
                other => {
                    out.check(false, || format!("QUERY reply {other:?}"));
                    return false;
                }
            }
        }
        true
    }

    /// Send `BATCH` frames for `secs` seconds (at least
    /// [`MIN_FRAMES`]). Returns `false` when the connection failed.
    pub fn batch_slice(
        &mut self,
        conn: &mut Conn,
        secs: f64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> bool {
        let start = Instant::now();
        for n in 0.. {
            if n >= MIN_FRAMES && start.elapsed() >= Duration::from_secs_f64(secs) {
                break;
            }
            let lo = (self.next_frame * BATCH) % self.stream.len();
            self.next_frame += 1;
            let entries = &self.stream[lo..lo + BATCH];
            let req = tr.request();
            let t0 = Instant::now();
            let root = tr.begin("serve.batch", req);
            let frame = tr.leaf("proto.encode", req, || {
                proto::encode_request(&Request::Batch(entries.to_vec()))
            });
            let resp = tr.leaf("proto.roundtrip", req, || daemon::send(conn, &frame));
            tr.end_count(root, BATCH as u64);
            self.res
                .frame_us
                .push(tr.active(), t0.elapsed().as_secs_f64() * 1e6);
            out.attempted += BATCH as u64;
            self.frames += 1;
            self.sent += BATCH as u64;
            match resp {
                Ok(Response::BatchAnswers(answers)) if answers.len() == BATCH => {
                    for (&q, &a) in entries.iter().zip(&answers) {
                        self.hits += u64::from(a.is_some());
                        check_answer(out, &self.on_roster, q, a);
                    }
                    let room = COMPARE.saturating_sub(self.batched.len());
                    self.batched.extend(answers.iter().take(room));
                }
                Ok(Response::Error { .. }) => out.failed += BATCH as u64,
                other => {
                    out.check(false, || format!("BATCH reply {other:?}"));
                    return false;
                }
            }
        }
        true
    }

    /// Check the answers, run the traced-run probes, compare the
    /// daemon's `STATS` with what was sent, and read its peak RSS.
    pub fn finish(mut self, sys: &mut System, tr: &mut Tracer, out: &mut Outcome) -> ServeOut {
        out.check(self.single == self.batched, || {
            "BATCH answers differ from single-QUERY answers for the same triples".into()
        });
        let dom = Dominated::clear(&sys.g, &sys.roster);
        let clear = FaultState::all_clear(sys.g.node_count());
        for (&(s, t, l), &got) in self.stream.iter().zip(&self.single).take(REFERENCE) {
            let (s, t) = (NodeId(s), NodeId(t));
            let want = dom.stitch(&sys.roster, s, t, usize::from(l), MAX_L);
            out.check(got == want, || {
                format!("served {got:?} for ({s}, {t}, {l}), reference BFS {want:?}")
            });
            let exact = exact_query(&sys.g, &sys.brokers, &clear, s, t, usize::from(l));
            out.check(got == exact, || {
                format!("served {got:?} for ({s}, {t}, {l}), exact_query {exact:?}")
            });
        }
        if tr.enabled() {
            probes(sys, &self.stream, &self.single, tr, out);
        }
        match sys.daemon.conn.request(&Request::Stats) {
            Ok(Response::Stats(st)) => {
                let (sent, frames, hits) = (self.sent, self.frames, self.hits);
                out.check(
                    st.queries_served == sent && st.batches == frames && st.hits == hits,
                    || format!("daemon STATS {st:?}, client sent {sent} queries in {frames} frames, saw {hits} hits"),
                );
            }
            other => out.check(false, || format!("STATS reply {other:?}")),
        }
        self.res.rss_kib = sys.daemon.peak_rss_kib().unwrap_or(0);
        self.res.hit_rate = self.hits as f64 / self.sent.max(1) as f64;
        self.res
    }
}

/// Traced-run probes of single layers: in-process lookups, the batch
/// codec, and `HELLO` round trips that do no index work.
fn probes(
    sys: &mut System,
    stream: &[(u32, u32, u16)],
    served: &[Option<StitchAnswer>],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let idx = &sys.index;
    let mut local = Vec::with_capacity(served.len());
    for b in 0..LOOKUP_BLOCKS {
        let lo = (b * BATCH) % stream.len();
        let req = tr.request();
        let tok = tr.begin("brokerset.index.query", req);
        for &(s, t, l) in &stream[lo..lo + BATCH] {
            let a = black_box(idx.query(NodeId(s), NodeId(t), usize::from(l)));
            if local.len() < served.len() {
                local.push(a);
            }
        }
        tr.end_count(tok, BATCH as u64);
        out.attempted += BATCH as u64;
    }
    out.check(local == served, || {
        "in-process lookups differ from served answers".into()
    });

    let entries = stream[..BATCH].to_vec();
    let answers: Vec<Option<StitchAnswer>> = entries
        .iter()
        .map(|&(s, t, l)| idx.query(NodeId(s), NodeId(t), usize::from(l)))
        .collect();
    let request = Request::Batch(entries);
    let response = Response::BatchAnswers(answers);
    for _ in 0..CODEC_ROUNDS {
        let req = tr.request();
        let tok = tr.begin("proto.codec", req);
        let q = proto::encode_request(&request);
        let dq = proto::decode_request(&q[4..]);
        let a = proto::encode_response(&response);
        let da = proto::decode_response(&a[4..]);
        tr.end_count(tok, BATCH as u64);
        if !matches!((&dq, &da), (Ok(x), Ok(y)) if *x == request && *y == response) {
            out.check(false, || {
                "BATCH frames do not decode to what was encoded".into()
            });
            break;
        }
    }

    let hello = proto::encode_request(&Request::Hello);
    for _ in 0..HELLO_PROBES {
        let req = tr.request();
        let resp = tr.leaf("proto.hello", req, || {
            daemon::send(&mut sys.daemon.conn, &hello)
        });
        if !matches!(resp, Ok(Response::HelloOk { .. })) {
            out.check(false, || format!("HELLO reply {resp:?}"));
            break;
        }
    }
}

/// Ask a daemon that is no longer needed to stop.
pub fn stop(d: Daemon, out: &mut Outcome) {
    if let Err(e) = d.shutdown() {
        out.check(false, || e);
    }
}
