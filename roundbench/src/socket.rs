//! The socket workload: [`ServerNode::run`] hosting the anytrust servers
//! behind a 127.0.0.1 listener, and one [`run_client`] thread per roster
//! client, all in this process.  Each client queues one post per round.
//!
//! In the timed sessions each client reaches the server through a relay
//! that forwards every frame unchanged and notes when the server's
//! `RoundOpen` and `Cleartext` frames for that client passed: the per-post
//! clock `run_client` does not expose.

use crate::inproc::{Chunk, PHASES, SERVERS};
use crate::sys;
use crate::trace::Tracer;
use dissent_core::{run_client, ClientOutcome, RosterSpec, ServerNode, ServerSummary};
use dissent_metrics::{Histogram, Registry};
use dissent_net::transport::{read_frame, write_frame, Frame};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Post latency quantiles are taken per group of consecutive sessions
/// (over 2000 posts each), and the median over groups is reported.
const LATENCY_GROUPS: usize = 16;

/// Rounds each timed session runs after its last post is queued, so every
/// post is revealed before `Goodbye`.
pub const DRAIN_ROUNDS: u64 = 8;

/// Two socket clients in lock-step, each with one 4 KiB post per round.
pub const CLIENTS: usize = 2;
pub const POST_BYTES: usize = 4096;

/// Zero-round sessions timed per run, and the block size of the median of
/// means: a zero-round session is two-mode (the acceptor's 10 ms poll
/// sleep), so every block mixes both modes.
const SETUP_REPS: usize = 40;
pub const SETUP_BLOCK: usize = 5;

/// Timed sessions per run; rates are medians over sessions.
const SESSIONS: usize = 64;

/// Rounds (over all timed sessions) per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 1250.0;

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Wall and CPU seconds of each zero-round session.
    pub setup_s: Vec<f64>,
    pub setup_cpu_s: Vec<f64>,
    /// One entry per timed session.
    pub sessions: Vec<Chunk>,
    /// Server-side engine time per phase, in [`PHASES`] order.
    pub phase_s: [f64; 5],
    pub frames: u64,
    pub wire_bytes: u64,
    pub revealed_bytes: u64,
    /// Relay-clocked latency of the posts of each group of sessions.
    pub post_ms: Vec<Vec<f64>>,
    pub post_rounds: Vec<f64>,
    pub rounds_run: u64,
    pub rounds_certified: u64,
    pub posts_submitted: u64,
    pub posts_delivered: u64,
    pub disconnects: u64,
    pub spoofs: u64,
    pub handshake_failures: u64,
    pub reconnects: u64,
    pub failures: Vec<String>,
}

/// The roster every node of the workload derives its session from.
pub fn roster(seed: u64) -> RosterSpec {
    let mut roster = RosterSpec::new(CLIENTS, SERVERS);
    roster.seed = seed;
    roster
}

struct SessionRun {
    summary: ServerSummary,
    clients: Vec<ClientOutcome>,
    /// Per client, when each round's frames passed its relay (empty when
    /// the session ran without relays).
    clocks: Vec<RoundClock>,
    registry: Arc<Registry>,
    wall_s: f64,
}

/// When the server's `RoundOpen` and `Cleartext` frames of each round
/// reached one client's relay.
#[derive(Default)]
struct RoundClock {
    opened: HashMap<u64, Instant>,
    revealed: HashMap<u64, Instant>,
}

/// Forward one client connection to `server` and back, frame by frame on
/// the way back, clocking the round frames.  Returns when the server ends
/// the connection.
fn relay(listener: TcpListener, server: &str) -> io::Result<RoundClock> {
    let (client, _) = listener.accept()?;
    drop(listener);
    let upstream = TcpStream::connect(server)?;
    for s in [&client, &upstream] {
        s.set_nodelay(true)?;
    }
    let (mut client_in, mut server_out) = (client.try_clone()?, upstream.try_clone()?);
    let mut from_server = BufReader::new(upstream);
    let mut to_client = BufWriter::new(client);
    let mut clock = RoundClock::default();
    thread::scope(|s| {
        s.spawn(move || {
            let _ = io::copy(&mut client_in, &mut server_out);
            let _ = server_out.shutdown(Shutdown::Write);
        });
        while let Ok(Some(frame)) = read_frame(&mut from_server) {
            match frame {
                Frame::RoundOpen { round } => clock.opened.insert(round, Instant::now()),
                Frame::Cleartext { round, .. } => clock.revealed.insert(round, Instant::now()),
                _ => None,
            };
            if write_frame(&mut to_client, &frame).is_err() {
                break;
            }
        }
        let _ = to_client.get_ref().shutdown(Shutdown::Both);
    });
    Ok(clock)
}

/// One session of `rounds` rounds: bind, serve, run every client (through
/// a relay each when `relayed`), join.
fn session(
    roster: &RosterSpec,
    posts: Vec<Vec<Vec<u8>>>,
    rounds: u64,
    relayed: bool,
    id: u64,
    tracer: &mut Tracer,
) -> Result<SessionRun, String> {
    let (server_span, client_span) = if rounds == 0 {
        ("ServerNode::run(0)", "run_client(0 rounds)")
    } else {
        ("ServerNode::run", "run_client")
    };
    let t0 = Instant::now();
    let node = ServerNode::bind(roster.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = node.local_addr().map_err(|e| e.to_string())?.to_string();
    let registry = node.registry();
    let mut dial = vec![addr.clone(); posts.len()];
    let mut listeners = Vec::new();
    if relayed {
        for d in &mut dial {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            *d = listener
                .local_addr()
                .map_err(|e| e.to_string())?
                .to_string();
            listeners.push(listener);
        }
    }
    let (server, clients, relays) = thread::scope(|s| {
        let server = s.spawn(move || {
            let start = Instant::now();
            (node.run(rounds), start, Instant::now())
        });
        let relays: Vec<_> = listeners
            .into_iter()
            .map(|l| {
                let addr = addr.as_str();
                s.spawn(move || relay(l, addr))
            })
            .collect();
        let clients: Vec<_> = posts
            .into_iter()
            .zip(&dial)
            .enumerate()
            .map(|(index, (posts, addr))| {
                s.spawn(move || {
                    let start = Instant::now();
                    (
                        run_client(roster, addr, index, posts),
                        start,
                        Instant::now(),
                    )
                })
            })
            .collect();
        let clients: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
        let server = server.join();
        let relays: Vec<_> = relays.into_iter().map(|h| h.join()).collect();
        (server, clients, relays)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut clocks = Vec::new();
    for r in relays {
        let clock = r.map_err(|_| "relay thread panicked".to_string())?;
        clocks.push(clock.map_err(|e| format!("relay: {e}"))?);
    }
    let (summary, start, end) = server.map_err(|_| "server thread panicked".to_string())?;
    tracer.record(server_span, id, start, end);
    let summary = summary.map_err(|e| format!("server: {e}"))?;
    let mut outcomes = Vec::new();
    for (index, client) in clients.into_iter().enumerate() {
        let (outcome, start, end) = client.map_err(|_| format!("client {index} panicked"))?;
        tracer.record(client_span, id, start, end);
        outcomes.push(outcome.map_err(|e| format!("client {index}: {e}"))?);
    }
    Ok(SessionRun {
        summary,
        clients: outcomes,
        clocks,
        registry,
        wall_s,
    })
}

/// Counter checks common to every session: nothing dropped, spoofed,
/// refused or reconnected; every client saw every round certified.
fn check_session(run: &SessionRun, rounds: u64, report: &mut Report) {
    let s = &run.summary;
    report.rounds_run += s.rounds;
    report.rounds_certified += s.certified_rounds;
    report.disconnects += s.disconnects;
    report.spoofs += s.rejected_spoofs;
    report.handshake_failures += s.handshake_failures;
    if s.rounds != rounds || s.certified_rounds != rounds {
        report.failures.push(format!(
            "server ran {} rounds ({} certified), expected {rounds}",
            s.rounds, s.certified_rounds
        ));
    }
    if s.disconnects + s.rejected_spoofs + s.handshake_failures != 0 {
        report.failures.push(format!(
            "server counted {} disconnects, {} spoofs, {} handshake failures",
            s.disconnects, s.rejected_spoofs, s.handshake_failures
        ));
    }
    for (index, c) in run.clients.iter().enumerate() {
        report.reconnects += c.reconnects;
        if c.rounds_seen != rounds || c.certified_rounds != rounds || c.reconnects != 0 {
            report.failures.push(format!(
                "client {index} saw {} rounds ({} certified, {} reconnects), expected {rounds}",
                c.rounds_seen, c.certified_rounds, c.reconnects
            ));
        }
        if c.delivered != s.messages {
            report.failures.push(format!(
                "client {index} delivered {} messages, the server {}",
                c.delivered.len(),
                s.messages.len()
            ));
        }
    }
}

/// Add the server's phase times to `out`.  The client phase reads 0:
/// clients build their ciphertexts in their own processes.
fn add_phases(registry: &Registry, out: &mut [f64; 5]) {
    for (sum, p) in out.iter_mut().zip(PHASES) {
        let h: Histogram =
            registry.latency_histogram_with("dissent_round_phase_seconds", "", &[("phase", p)]);
        *sum += h.sum();
    }
}

fn counter(registry: &Registry, name: &str, dir: &str) -> u64 {
    registry.counter_value(name, &[("dir", dir)]).unwrap_or(0)
}

/// Zero-round sessions: bind, derive, dial, authenticate, `Goodbye`.
fn setup(
    seed: u64,
    reps: std::ops::Range<usize>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let roster = roster(seed);
    for rep in reps {
        let cpu0 = sys::cpu_seconds();
        let run = session(
            &roster,
            vec![Vec::new(); CLIENTS],
            0,
            false,
            rep as u64,
            tracer,
        )?;
        report.setup_cpu_s.push(sys::cpu_seconds() - cpu0);
        check_session(&run, 0, report);
        report.setup_s.push(run.wall_s);
    }
    Ok(())
}

/// The post client `client` queues for round `k` of session `sess`: a
/// readable header, then filler drawn from a generator keyed by all four
/// numbers, so the checker regenerates it instead of keeping a copy.
fn post(seed: u64, sess: usize, client: usize, k: u64) -> Vec<u8> {
    let mut body = format!("s{sess} c{client} r{k} ").into_bytes();
    let key = [seed, sess as u64, client as u64, k]
        .iter()
        .fold(0x50C4_E702u64, |h, v| {
            (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
    let mut fill = vec![0u8; POST_BYTES.saturating_sub(body.len())];
    StdRng::seed_from_u64(key).fill_bytes(&mut fill);
    body.extend_from_slice(&fill);
    body.truncate(POST_BYTES);
    body
}

/// The `(session, client, round)` header of a revealed post.
fn header(body: &[u8]) -> Option<(usize, usize, u64)> {
    let mut fields = body
        .split(|&b| b == b' ')
        .map(|f| std::str::from_utf8(f).ok());
    let mut next = |tag: char| fields.next()??.strip_prefix(tag)?.parse::<u64>().ok();
    Some((next('s')? as usize, next('c')? as usize, next('r')?))
}

/// Run the timed sessions, with the zero-round set-up sessions spread
/// between them.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report {
        post_ms: vec![Vec::new(); LATENCY_GROUPS],
        ..Report::default()
    };
    let roster = roster(seed);
    let posts_per_client =
        ((seconds as f64 * ROUNDS_PER_SECOND / SESSIONS as f64).round() as u64).max(1);
    let rounds = posts_per_client + DRAIN_ROUNDS;
    for sess in 0..SESSIONS {
        // Set-ups are spread between the sessions, so that they see the
        // same machine as the rounds do.
        let reps = sess * SETUP_REPS / SESSIONS..(sess + 1) * SETUP_REPS / SESSIONS;
        setup(seed, reps, tracer, &mut report)?;
        let posts: Vec<Vec<Vec<u8>>> = (0..CLIENTS)
            .map(|c| {
                (0..posts_per_client)
                    .map(|k| post(seed, sess, c, k))
                    .collect()
            })
            .collect();
        report.posts_submitted += CLIENTS as u64 * posts_per_client;
        let cpu0 = sys::cpu_seconds();
        let run = session(&roster, posts, rounds, true, sess as u64, tracer)?;
        report.sessions.push(Chunk {
            rounds,
            wall_s: run.wall_s,
            cpu_s: sys::cpu_seconds() - cpu0,
        });
        let group = sess * LATENCY_GROUPS / SESSIONS;
        check_session(&run, rounds, &mut report);
        let mut delivered = vec![vec![false; posts_per_client as usize]; CLIENTS];
        for (round, _, body) in &run.summary.messages {
            let known = header(body).filter(|&(s, c, k)| {
                s == sess
                    && c < CLIENTS
                    && k < posts_per_client
                    && !delivered[c][k as usize]
                    && *body == post(seed, s, c, k)
            });
            match known {
                Some((_, c, k)) => {
                    delivered[c][k as usize] = true;
                    report.posts_delivered += 1;
                    report.revealed_bytes += body.len() as u64;
                    report.post_rounds.push((round - k + 1) as f64);
                    // Post k goes out in round k: from its RoundOpen to the
                    // Cleartext that reveals it, as the client's relay saw.
                    let clock = &run.clocks[c];
                    match (clock.opened.get(&k), clock.revealed.get(round)) {
                        (Some(open), Some(shown)) => report.post_ms[group]
                            .push(shown.duration_since(*open).as_secs_f64() * 1e3),
                        _ => report
                            .failures
                            .push(format!("client {c}'s relay missed round {k} or {round}")),
                    }
                }
                None => report.failures.push(format!(
                    "round {round} revealed {} bytes matching no outstanding post",
                    body.len()
                )),
            }
        }
        let missing = delivered.iter().flatten().filter(|d| !**d).count();
        if missing > 0 {
            report
                .failures
                .push(format!("session {sess}: {missing} posts never revealed"));
        }
        add_phases(&run.registry, &mut report.phase_s);
        report.frames += counter(&run.registry, "dissent_transport_frames_total", "sent")
            + counter(&run.registry, "dissent_transport_frames_total", "received");
        report.wire_bytes += counter(&run.registry, "dissent_transport_bytes_total", "sent")
            + counter(&run.registry, "dissent_transport_bytes_total", "received");
    }
    Ok(report)
}
