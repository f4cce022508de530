//! The in-process workloads: a [`PipelinedSession`] driven by the
//! closed-loop microblog generator, through the public API only.
//!
//! One run does a fixed amount of work for its seed: one timed set-up,
//! `warmup` batches, the timed batches cut into chunks with the remaining
//! timed set-ups spread between them, then drain batches with no new posts
//! until every submitted post has come back out.

use crate::sys;
use crate::trace::Tracer;
use dissent_apps::microblog::ClosedLoopMicroblog;
use dissent_core::{ClientAction, GroupBuilder, PerEntityRng, PipelinedSession, Session};
use dissent_metrics::{Histogram, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Round phases as labelled in `dissent_round_phase_seconds`.
pub const PHASES: [&str; 5] = ["client", "commit", "reveal", "certify", "finalize"];

/// Drain batches allowed before undelivered posts count as lost.
const MAX_DRAIN_BATCHES: usize = 64;

/// Anytrust servers in every workload's group.
pub const SERVERS: usize = 2;

/// Pipeline window W.
const WINDOW: usize = 4;

/// Untimed batches before the timed window.
const WARMUP_BATCHES: usize = 4;

/// One in-process workload.
pub struct Spec {
    pub clients: usize,
    pub post_bytes: usize,
    /// Think time is uniform over `0..=max_think` rounds.
    pub max_think: u64,
    /// Inject one disruption (and expect one expulsion) mid-window.
    pub fault: bool,
    /// Timed set-ups per run (spread over the run), and the block size of
    /// the median of means.
    pub setup_reps: usize,
    pub setup_block: usize,
    /// Timed batches per second of `--seconds`.
    pub batches_per_second: f64,
}

/// Chunks the timed window is cut into; rates are medians over chunks.
const CHUNKS: usize = 16;

/// Latency quantiles are taken per third of the timed window, so that
/// each p99 has more than ten posts beyond it.
const THIRDS: usize = 3;

/// One chunk of the timed window.
#[derive(Clone, Copy)]
pub struct Chunk {
    pub rounds: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub build_s: Vec<f64>,
    pub session_new_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub timed_rounds: u64,
    /// The timed window cut into consecutive chunks of whole batches.
    pub chunks: Vec<Chunk>,
    /// Shuffle soundness of the generated group.
    pub shuffle_soundness: usize,
    /// Engine phase time over the timed batches, in [`PHASES`] order.
    pub phase_s: [f64; 5],
    pub revealed_bytes: u64,
    pub cleartext_bytes: u64,
    /// Batch numbers of the timed window (span ids).
    pub timed_ids: std::ops::Range<u64>,
    /// Pads computed over the timed rounds (N·M client side + N·M server
    /// side), and the pad bytes they cover.
    pub pads: u64,
    pub pad_bytes: u64,
    /// Latency of the posts submitted in each third of the timed window.
    pub post_ms: Vec<Vec<f64>>,
    pub post_rounds: Vec<f64>,
    pub rounds_run: u64,
    pub rounds_certified: u64,
    pub posts_submitted: u64,
    pub posts_delivered: u64,
    pub accusations: u64,
    pub expulsions: u64,
    pub retransmits: u64,
    pub blame_batch_s: f64,
    pub failures: Vec<String>,
}

impl Report {
    /// Median over chunks of rounds per wall second.
    pub fn rounds_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c.rounds as f64 / c.wall_s)
            .collect();
        sys::median(&rates)
    }

    /// Median over thirds of the `q`-quantile of post latency, in ms: the
    /// tail of a typical stretch of the run, not of its one worst stall.
    pub fn post_ms_quantile(&self, q: f64) -> f64 {
        sys::median_quantile(&self.post_ms, q)
    }

    /// Median over chunks of process CPU milliseconds per round.
    pub fn cpu_ms_per_round(&self) -> f64 {
        let per_round: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c.cpu_s * 1e3 / c.rounds as f64)
            .collect();
        sys::median(&per_round)
    }
}

struct PostRecord {
    client: usize,
    round: u64,
    batch: usize,
    /// Submitted in the timed window.
    timed: bool,
}

/// The injected disruption: `disruptor` jams `victim`'s slot in `round`.
struct Fault {
    batch: usize,
    round: u64,
    disruptor: usize,
    victim: usize,
    victim_slot: usize,
    victim_body: Vec<u8>,
}

/// Time one set-up (group generation, then session set-up).
fn setup(
    spec: &Spec,
    seed: u64,
    rep: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let span = tracer.begin("GroupBuilder::build", rep as u64);
    let group = GroupBuilder::new(spec.clients, SERVERS)
        .with_seed(seed)
        .build();
    tracer.end(span);
    let t1 = Instant::now();
    let span = tracer.begin("Session::new", rep as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1011);
    let session = Session::new(&group, &mut rng).map_err(|e| format!("session set-up: {e}"))?;
    tracer.end(span);
    let t2 = Instant::now();
    report.build_s.push((t1 - t0).as_secs_f64());
    report.session_new_s.push((t2 - t1).as_secs_f64());
    report.setup_s.push((t2 - t0).as_secs_f64());
    Ok(session)
}

fn phase_histograms(registry: &Registry) -> Vec<Histogram> {
    PHASES
        .iter()
        .map(|p| {
            registry.latency_histogram_with("dissent_round_phase_seconds", "", &[("phase", p)])
        })
        .collect()
}

/// Run one in-process workload.
pub fn run(spec: &Spec, seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let session = setup(spec, seed, 0, tracer, &mut report)?;
    let n = spec.clients;
    let w = WINDOW;
    report.shuffle_soundness = session.config().shuffle_soundness;
    let mut pipe = PipelinedSession::new(session, w).map_err(|e| e.to_string())?;
    let registry = Registry::new();
    pipe.bind_metrics(&registry);
    let phases = phase_histograms(&registry);
    let mut rngs = PerEntityRng::new(seed, n, SERVERS);
    let mut gen_rng = StdRng::seed_from_u64(seed ^ 0x0B10_6000);
    let mut gen = ClosedLoopMicroblog::new(n, spec.post_bytes, 0, spec.max_think, &mut gen_rng);
    let timed_batches = ((seconds as f64 * spec.batches_per_second).round() as usize).max(2);
    let first_timed = WARMUP_BATCHES;
    let end_timed = first_timed + timed_batches;
    report.timed_ids = first_timed as u64..end_timed as u64;

    let mut ledger: HashMap<Vec<u8>, PostRecord> = HashMap::new();
    // Start of each batch, and the set-up time paused so far by then.
    let mut batch_starts: Vec<(Instant, Duration)> = Vec::new();
    let mut paused = Duration::ZERO;
    let mut fault: Option<Fault> = None;
    let mut retransmit: Option<(usize, Vec<u8>)> = None;
    let mut expelled: Vec<(u64, u32)> = Vec::new();
    let mut corrupted_rounds: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut phase_start = [0.0; 5];
    let chunk_starts: Vec<usize> = (0..CHUNKS)
        .map(|c| first_timed + c * timed_batches / CHUNKS)
        .collect();
    // (instant, CPU seconds, timed rounds so far) at the open chunk's start.
    let mut chunk_mark = (Instant::now(), 0.0, 0u64);
    report.post_ms = vec![Vec::new(); THIRDS];

    let mut batch = 0usize;
    loop {
        let timed = (first_timed..end_timed).contains(&batch);
        let chunk = chunk_starts
            .iter()
            .rposition(|&start| start <= batch)
            .filter(|_| timed);
        let draining = batch >= end_timed;
        if draining && ledger.is_empty() && retransmit.is_none() {
            break;
        }
        if batch >= end_timed + MAX_DRAIN_BATCHES {
            report.failures.push(format!(
                "{} posts still undelivered after {MAX_DRAIN_BATCHES} drain batches",
                ledger.len()
            ));
            break;
        }
        if batch == first_timed {
            for (s, h) in phase_start.iter_mut().zip(&phases) {
                *s = h.sum();
            }
        }
        if timed && chunk_starts.contains(&batch) {
            chunk_mark = (Instant::now(), sys::cpu_seconds(), report.timed_rounds);
        }
        let base = pipe.next_round();
        if spec.fault && batch == first_timed + timed_batches / 2 {
            fault = Some(choose_fault(&pipe, &ledger, batch, base, seed)?);
        }

        // Actions for every round of the batch.
        let span = tracer.begin("ClosedLoopMicroblog::actions", batch as u64);
        let mut actions = Vec::with_capacity(w);
        for k in 0..w as u64 {
            let round = base + k;
            let mut acts = if draining {
                vec![ClientAction::Idle; n]
            } else {
                gen.actions(round)
            };
            if let Some(f) = &fault {
                acts[f.disruptor] = if round == f.round {
                    ClientAction::Disrupt {
                        victim_slot: f.victim_slot,
                    }
                } else {
                    ClientAction::Idle
                };
            }
            for (client, act) in acts.iter().enumerate() {
                if let ClientAction::Send(body) = act {
                    let record = PostRecord {
                        client,
                        round,
                        batch,
                        timed,
                    };
                    if ledger.insert(body.clone(), record).is_some() {
                        report
                            .failures
                            .push(format!("post composed twice: round {round}"));
                    }
                    report.posts_submitted += 1;
                }
            }
            if k == 0 {
                if let Some((client, body)) = retransmit.take() {
                    // The victim's client saw its slot corrupted and sends
                    // the same post again (the accusation example's retry).
                    acts[client] = ClientAction::Send(body);
                    report.retransmits += 1;
                }
            }
            actions.push(acts);
        }
        tracer.end(span);

        let t0 = Instant::now();
        batch_starts.push((t0, paused));
        let span = tracer.begin("PipelinedSession::run_batch", batch as u64);
        let results = pipe.run_batch(&actions, &mut rngs);
        tracer.end(span);
        let t1 = Instant::now();
        if fault.as_ref().is_some_and(|f| f.batch == batch) {
            report.blame_batch_s = (t1 - t0).as_secs_f64();
        }

        let span = tracer.begin("ClosedLoopMicroblog::observe", batch as u64);
        for result in &results {
            gen.observe(result, &mut gen_rng);
            report.rounds_run += 1;
            if result.certified {
                report.rounds_certified += 1;
            } else {
                report
                    .failures
                    .push(format!("round {} not certified", result.round));
            }
            if timed {
                report.timed_rounds += 1;
                report.cleartext_bytes += result.cleartext.len() as u64;
                let pads = 2 * (result.participation * SERVERS) as u64;
                report.pads += pads;
                report.pad_bytes += pads * result.cleartext.len() as u64;
            }
            for (_, body) in &result.messages {
                let Some(record) = ledger.remove(body) else {
                    report.failures.push(format!(
                        "round {} revealed {} bytes matching no outstanding post",
                        result.round,
                        body.len()
                    ));
                    continue;
                };
                report.posts_delivered += 1;
                if timed {
                    report.revealed_bytes += body.len() as u64;
                }
                if record.timed {
                    let (start, paused_then) = batch_starts[record.batch];
                    let waited = (t1 - start) - (paused - paused_then);
                    let third = (record.batch - first_timed) * THIRDS / timed_batches;
                    report.post_ms[third].push(waited.as_secs_f64() * 1e3);
                    report
                        .post_rounds
                        .push((result.round - record.round + 1) as f64);
                }
            }
            if !result.corrupted_slots.is_empty() {
                corrupted_rounds.push((result.round, result.corrupted_slots.clone()));
                if let Some(f) = &fault {
                    if result.round == f.round && result.corrupted_slots.contains(&f.victim_slot) {
                        retransmit = Some((f.victim, f.victim_body.clone()));
                    }
                }
            }
            expelled.extend(result.expelled.iter().map(|&c| (result.round, c)));
        }
        tracer.end(span);

        if let Some(c) =
            chunk.filter(|_| batch + 1 == end_timed || chunk_starts.contains(&(batch + 1)))
        {
            let (t, cpu, rounds) = chunk_mark;
            report.chunks.push(Chunk {
                rounds: report.timed_rounds - rounds,
                wall_s: t.elapsed().as_secs_f64(),
                cpu_s: sys::cpu_seconds() - cpu,
            });
            // Set-ups are spread over the run, between chunks, so that they
            // see the same machine as the rounds do.
            let reps = spec.setup_reps.saturating_sub(1);
            let pause = Instant::now();
            for rep in c * reps / CHUNKS..(c + 1) * reps / CHUNKS {
                drop(setup(spec, seed, rep + 1, tracer, &mut report)?);
            }
            paused += pause.elapsed();
        }
        if batch + 1 == end_timed {
            for ((out, h), start) in report.phase_s.iter_mut().zip(&phases).zip(phase_start) {
                *out = h.sum() - start;
            }
        }
        batch += 1;
    }

    report.accusations = registry
        .counter_value("dissent_accusations_total", &[])
        .unwrap_or(0);
    report.expulsions = registry
        .counter_value("dissent_expulsions_total", &[])
        .unwrap_or(0);
    check_fault(
        spec,
        &pipe,
        fault.as_ref(),
        &expelled,
        &corrupted_rounds,
        &mut report,
    );
    Ok(report)
}

/// Pick the victim (a client whose post went out in the previous batch
/// and is still undelivered, so its slot is open and carries that post in
/// the first round of this batch) and the disruptor (a client with nothing
/// in flight), both by seed.
fn choose_fault(
    pipe: &PipelinedSession,
    ledger: &HashMap<Vec<u8>, PostRecord>,
    batch: usize,
    round: u64,
    seed: u64,
) -> Result<Fault, String> {
    let mut candidates: Vec<(usize, &Vec<u8>)> = ledger
        .iter()
        .filter(|(_, r)| r.batch + 1 == batch)
        .map(|(body, r)| (r.client, body))
        .collect();
    candidates.sort();
    if candidates.is_empty() {
        return Err("fault injection found no post in flight to disrupt".into());
    }
    let (victim, body) = candidates[(seed as usize) % candidates.len()];
    let busy: Vec<usize> = ledger.values().map(|r| r.client).collect();
    let n = pipe.session().config().num_clients();
    let disruptor = (1..n)
        .map(|k| (victim + n / 2 + k) % n)
        .find(|c| *c != victim && !busy.contains(c))
        .ok_or("fault injection found no idle client to disrupt with")?;
    Ok(Fault {
        batch,
        round,
        disruptor,
        victim,
        victim_slot: pipe.session().slot_of_client(victim),
        victim_body: body.clone(),
    })
}

/// The disruptor and only the disruptor is expelled, within the blame
/// horizon; only the victim's slot is ever corrupted, and only in the
/// fault round.
fn check_fault(
    spec: &Spec,
    pipe: &PipelinedSession,
    fault: Option<&Fault>,
    expelled: &[(u64, u32)],
    corrupted: &[(u64, Vec<usize>)],
    report: &mut Report,
) {
    let horizon = pipe.session().config().blame_horizon;
    let Some(f) = fault else {
        if spec.fault {
            report.failures.push("the fault was never injected".into());
        }
        if !expelled.is_empty() || !corrupted.is_empty() {
            report.failures.push(format!(
                "unexpected blame: expelled {expelled:?}, corrupted {corrupted:?}"
            ));
        }
        return;
    };
    match expelled {
        [(round, who)] if *who as usize == f.disruptor && *round < f.round + horizon => {}
        _ => report.failures.push(format!(
            "expected client {} expelled within {horizon} rounds of round {}, got {expelled:?}",
            f.disruptor, f.round
        )),
    }
    if corrupted
        .iter()
        .any(|(round, slots)| *round != f.round || slots.as_slice() != [f.victim_slot])
        || corrupted.is_empty()
    {
        report.failures.push(format!(
            "expected only slot {} corrupted, in round {}; got {corrupted:?}",
            f.victim_slot, f.round
        ));
    }
    if report.expulsions != 1 {
        report
            .failures
            .push(format!("expulsion counter reads {}", report.expulsions));
    }
}
