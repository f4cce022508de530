//! End-to-end and per-layer benchmark of the Dissent round engine and its
//! socket path, driven only through the program's public API.
//!
//! ```text
//! roundbench --workload <crowd-256|bulk-16|socket-2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run (the
//! workload is run once untraced and once traced, and the difference is
//! the tracing overhead).  Every run checks the program's outputs and
//! exits non-zero if a check fails.  See `README.md` for the workloads,
//! metric definitions and the layer-to-metric predictions.

mod inproc;
mod probes;
mod socket;
mod sys;
mod trace;

use dissent_dcnet::slots::SlotConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use sys::{median, median_of_means, median_quantile, quantile, sorted, Metrics};
use trace::Tracer;

enum Workload {
    InProcess(inproc::Spec),
    Socket,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // 256 clients posting the paper's 128-byte unit: the per-pad fixed
        // cost (1024 short pads per round) dominates.  (At 1024 clients the
        // 850 MiB working set made rates drift by 30% between runs on a
        // shared 2-vCPU host.)
        "crowd-256" => Workload::InProcess(inproc::Spec {
            clients: 256,
            post_bytes: 128,
            max_think: 64,
            fault: true,
            setup_reps: 15,
            setup_block: 3,
            batches_per_second: 25.0,
        }),
        // 16 clients posting 16 KiB back to back: long pads, per-byte
        // ChaCha/XOR/SHA-256 cost, slots opening, growing and closing.
        "bulk-16" => Workload::InProcess(inproc::Spec {
            clients: 16,
            post_bytes: 16 * 1024,
            max_think: 0,
            fault: false,
            setup_reps: 65,
            setup_block: 5,
            batches_per_second: 40.0,
        }),
        // Two socket clients in lock-step with a 4 KiB post each per round.
        "socket-2" => Workload::Socket,
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run hands back to `main`: checks, counts and metrics.
struct Outcome {
    attempted: u64,
    /// Posts submitted but never revealed byte-exact.
    lost: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn inproc_end_to_end(spec: &inproc::Spec, r: &inproc::Report) -> Metrics {
    let mut m = Metrics::default();
    let rounds = r.timed_rounds as f64;
    let samples: Vec<String> = r.post_ms.iter().map(|q| q.len().to_string()).collect();
    println!("post latency samples by third: {}", samples.join(" "));
    m.push(
        "setup_s",
        median_of_means(&r.setup_s, spec.setup_block),
        "s",
    );
    let rate = r.rounds_per_s();
    let chunk_rates: Vec<String> = r
        .chunks
        .iter()
        .map(|c| format!("{:.2}", c.rounds as f64 / c.wall_s))
        .collect();
    let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("rounds/s by chunk: {}", chunk_rates.join(" "));
    println!("set-up seconds: {}", setups.join(" "));
    m.push("rounds_per_s", rate, "rounds/s");
    // Revealed bytes per round are fixed by the seed; the rate carries the
    // timing.
    m.push(
        "goodput_kib_per_s",
        r.revealed_bytes as f64 / rounds / 1024.0 * rate,
        "KiB/s",
    );
    m.push("post_ms_p50", r.post_ms_quantile(0.5), "ms");
    m.push("post_ms_p99", r.post_ms_quantile(0.99), "ms");
    m.push("cpu_ms_per_round", r.cpu_ms_per_round(), "ms");
    m.push("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    m.push(
        "certified_frac",
        frac(r.rounds_certified, r.rounds_run),
        "ratio",
    );
    m.push(
        "post_delivered_frac",
        frac(r.posts_delivered, r.posts_submitted),
        "ratio",
    );
    m
}

/// Per-round predictions from the probes, printed next to each measured
/// phase with the unexplained remainder.
struct Model {
    client_ms: f64,
    commit_ms: f64,
    certify_ms: f64,
}

fn model(servers: usize, pads_per_round: f64, p: &probes::Probes, round_len: f64) -> Model {
    let m = servers as f64;
    let sha_ms = round_len / (p.sha256_mib_s * 1024.0 * 1024.0) * 1e3;
    Model {
        // Every participant XORs one pad per server into its ciphertext.
        client_ms: pads_per_round / 2.0 * p.pad_xor_us / 1e3,
        // Every server folds all N pads, then commits (one SHA-256).
        commit_ms: m * (p.server_fold_ms + sha_ms),
        // Digest of the cleartext, then one signature per server.
        certify_ms: sha_ms + m * p.schnorr_sign_us / 1e3,
    }
}

fn print_model(phase_ms: &[f64; 5], model: &Model) {
    println!("phase      measured_ms  probe_model_ms  unexplained_ms");
    for (name, measured, predicted) in [
        ("client", phase_ms[0], model.client_ms),
        ("commit", phase_ms[1], model.commit_ms),
        ("certify", phase_ms[3], model.certify_ms),
    ] {
        println!(
            "{name:<10} {measured:>11.4} {predicted:>15.4} {:>15.4}",
            measured - predicted
        );
    }
}

fn push_probes(m: &mut Metrics, p: &probes::Probes) {
    m.push("dcnet.pad_xor_us", p.pad_xor_us, "us");
    m.push("dcnet.server_fold_ms", p.server_fold_ms, "ms");
    m.push("crypto.hkdf_key_us", p.hkdf_key_us, "us");
    m.push("crypto.chacha_mib_s", p.chacha_mib_s, "MiB/s");
    m.push("crypto.sha256_mib_s", p.sha256_mib_s, "MiB/s");
    m.push("crypto.modexp_us", p.modexp_us, "us");
    m.push("crypto.dh_secret_us", p.dh_secret_us, "us");
    m.push("shuffle.run_shuffle_s", p.run_shuffle_s, "s");
    m.push("crypto.schnorr_sign_us", p.schnorr_sign_us, "us");
    m.push("crypto.schnorr_verify_us", p.schnorr_verify_us, "us");
    m.push("net.handshake_ms", p.handshake_ms, "ms");
}

fn run_inproc(spec: &inproc::Spec, args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        let mut tracer = Tracer::new(false);
        let r = inproc::run(spec, args.seed, args.seconds, &mut tracer)?;
        return Ok(Outcome {
            attempted: r.posts_submitted,
            lost: r.posts_submitted - r.posts_delivered,
            metrics: inproc_end_to_end(spec, &r),
            failures: r.failures,
        });
    }
    // Untraced replay of the same work first, for the tracing overhead.
    let plain = inproc::run(spec, args.seed, args.seconds, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let r = inproc::run(spec, args.seed, args.seconds, &mut tracer)?;
    let rounds = r.timed_rounds as f64;
    let round_len = r.cleartext_bytes as f64 / rounds;
    let p = probes::run(
        spec.clients,
        inproc::SERVERS,
        r.shuffle_soundness,
        round_len.round() as usize,
        args.seed,
        &mut tracer,
    )?;
    write_spans(&tracer, args)?;

    let per_round_ms = |s: f64| s * 1e3 / rounds;
    let phase_ms = r.phase_s.map(per_round_ms);
    let batch_ms =
        per_round_ms(tracer.total_in_s("PipelinedSession::run_batch", r.timed_ids.clone()));
    let unexplained_ms = batch_ms - phase_ms.iter().sum::<f64>();
    println!(
        "accounting: run_batch spans {batch_ms:.4} ms/round = phases {:.4} + unexplained {unexplained_ms:.4}",
        phase_ms.iter().sum::<f64>()
    );
    let pads_per_round = r.pads as f64 / rounds;
    let model = model(inproc::SERVERS, pads_per_round, &p, round_len);
    print_model(&phase_ms, &model);

    let mut m = Metrics::default();
    for (name, v) in PHASE_METRICS.iter().zip(phase_ms) {
        m.push(name, v, "ms");
    }
    m.push("core.unexplained_ms", unexplained_ms, "ms");
    m.push("core.client_probe_ms", model.client_ms, "ms");
    m.push("core.commit_probe_ms", model.commit_ms, "ms");
    m.push("core.group_build_s", median(&r.build_s), "s");
    m.push("core.session_new_s", median(&r.session_new_s), "s");
    m.push("core.accusations", r.accusations as f64, "count");
    m.push("core.expulsions", r.expulsions as f64, "count");
    m.push("core.retransmits", r.retransmits as f64, "count");
    m.push("core.blame_batch_ms", r.blame_batch_s * 1e3, "ms");
    m.push("dcnet.pads_per_round", pads_per_round, "count");
    m.push(
        "dcnet.pad_kib_per_round",
        r.pad_bytes as f64 / 1024.0 / rounds,
        "KiB",
    );
    m.push("dcnet.round_len_bytes", round_len, "bytes");
    m.push(
        "dcnet.useful_frac",
        frac(r.revealed_bytes, r.cleartext_bytes),
        "ratio",
    );
    let post_rounds = sorted(&r.post_rounds);
    m.push(
        "dcnet.post_rounds_p50",
        quantile(&post_rounds, 0.5),
        "rounds",
    );
    m.push(
        "dcnet.post_rounds_p99",
        quantile(&post_rounds, 0.99),
        "rounds",
    );
    push_probes(&mut m, &p);
    push_zeros(&mut m, &SOCKET_ONLY);
    m.push(
        "trace.overhead_pct",
        (plain.rounds_per_s() / r.rounds_per_s() - 1.0) * 100.0,
        "%",
    );
    let mut failures = plain.failures;
    failures.extend(r.failures);
    Ok(Outcome {
        attempted: r.posts_submitted + plain.posts_submitted,
        lost: r.posts_submitted + plain.posts_submitted - r.posts_delivered - plain.posts_delivered,
        failures,
        metrics: m,
    })
}

const PHASE_METRICS: [&str; 5] = [
    "core.phase_client_ms",
    "core.phase_commit_ms",
    "core.phase_reveal_ms",
    "core.phase_certify_ms",
    "core.phase_finalize_ms",
];

/// Per-layer metrics of layers one kind of workload never reaches; they
/// read 0 on the other kind.
const SOCKET_ONLY: [(&str, &str); 9] = [
    ("net.frames_per_round", "count"),
    ("net.bytes_per_round", "bytes"),
    ("net.disconnects", "count"),
    ("net.spoof_rejections", "count"),
    ("net.handshake_failures", "count"),
    ("net.reconnects", "count"),
    ("node.round_ms", "ms"),
    ("node.engine_ms", "ms"),
    ("node.unexplained_ms", "ms"),
];
const IN_PROCESS_ONLY: [(&str, &str); 8] = [
    ("core.unexplained_ms", "ms"),
    ("core.client_probe_ms", "ms"),
    ("core.group_build_s", "s"),
    ("core.session_new_s", "s"),
    ("core.accusations", "count"),
    ("core.expulsions", "count"),
    ("core.retransmits", "count"),
    ("core.blame_batch_ms", "ms"),
];

fn push_zeros(m: &mut Metrics, metrics: &[(&'static str, &'static str)]) {
    for (name, unit) in metrics {
        m.push(name, 0.0, unit);
    }
}

/// Socket timings, one sample per session with the set-up wall and CPU
/// time (of the zero-round sessions) taken off its own, so that rate and
/// CPU cover the same rounds: `(setup_s, rounds_per_s, cpu_ms_per_round,
/// timed wall seconds)`, medians over sessions except the sum.
fn socket_rates(r: &socket::Report) -> (f64, f64, f64, f64) {
    let setup = median_of_means(&r.setup_s, socket::SETUP_BLOCK);
    let setup_cpu = median_of_means(&r.setup_cpu_s, socket::SETUP_BLOCK);
    let rates: Vec<f64> = r
        .sessions
        .iter()
        .map(|c| c.rounds as f64 / (c.wall_s - setup))
        .collect();
    let cpu: Vec<f64> = r
        .sessions
        .iter()
        .map(|c| (c.cpu_s - setup_cpu) * 1e3 / c.rounds as f64)
        .collect();
    let wall = r.sessions.iter().map(|c| c.wall_s - setup).sum();
    (setup, median(&rates), median(&cpu), wall)
}

fn run_socket(args: &Args) -> Result<Outcome, String> {
    let plain = if args.trace {
        Some(socket::run(
            args.seed,
            args.seconds,
            &mut Tracer::new(false),
        )?)
    } else {
        None
    };
    let mut tracer = Tracer::new(args.trace);
    let r = socket::run(args.seed, args.seconds, &mut tracer)?;
    let (setup, rate, cpu_ms, wall) = socket_rates(&r);
    let session_rates: Vec<String> = r
        .sessions
        .iter()
        .map(|c| format!("{:.0}", c.rounds as f64 / (c.wall_s - setup)))
        .collect();
    println!("rounds/s by session: {}", session_rates.join(" "));
    let rounds = r.rounds_run as f64;
    let post_rounds = sorted(&r.post_rounds);
    let mut m = Metrics::default();
    if !args.trace {
        m.push("setup_s", setup, "s");
        m.push("rounds_per_s", rate, "rounds/s");
        m.push(
            "goodput_kib_per_s",
            r.revealed_bytes as f64 / rounds / 1024.0 * rate,
            "KiB/s",
        );
        let samples: Vec<String> = r.post_ms.iter().map(|q| q.len().to_string()).collect();
        println!("post latency samples by group: {}", samples.join(" "));
        m.push("post_ms_p50", median_quantile(&r.post_ms, 0.5), "ms");
        m.push("post_ms_p99", median_quantile(&r.post_ms, 0.99), "ms");
        m.push("cpu_ms_per_round", cpu_ms, "ms");
        m.push("peak_rss_mib", sys::peak_rss_mib(), "MiB");
        m.push(
            "certified_frac",
            frac(r.rounds_certified, r.rounds_run),
            "ratio",
        );
        m.push(
            "post_delivered_frac",
            frac(r.posts_delivered, r.posts_submitted),
            "ratio",
        );
        return Ok(Outcome {
            attempted: r.posts_submitted,
            lost: r.posts_submitted - r.posts_delivered,
            failures: r.failures,
            metrics: m,
        });
    }
    let plain = plain.expect("traced runs replay untraced first");
    let round_len = (SlotConfig::default().len_for_message(socket::POST_BYTES) * socket::CLIENTS
        + socket::CLIENTS.div_ceil(8)) as f64;
    let p = probes::run(
        socket::CLIENTS,
        inproc::SERVERS,
        socket::roster(args.seed).soundness,
        round_len as usize,
        args.seed,
        &mut tracer,
    )?;
    write_spans(&tracer, args)?;
    let phase_ms = r.phase_s.map(|s| s * 1e3 / rounds);
    let engine_ms: f64 = phase_ms.iter().sum();
    let round_ms = wall * 1e3 / rounds;
    let pads_per_round = (2 * socket::CLIENTS * inproc::SERVERS) as f64;
    let model = model(inproc::SERVERS, pads_per_round, &p, round_len);
    println!("server engine per round (clients build ciphertexts in their own threads):");
    print_model(&phase_ms, &model);
    for (name, v) in PHASE_METRICS.iter().zip(phase_ms) {
        m.push(name, v, "ms");
    }
    push_zeros(&mut m, &IN_PROCESS_ONLY);
    m.push("core.commit_probe_ms", model.commit_ms, "ms");
    m.push("dcnet.pads_per_round", pads_per_round, "count");
    m.push(
        "dcnet.pad_kib_per_round",
        pads_per_round * round_len / 1024.0,
        "KiB",
    );
    m.push("dcnet.round_len_bytes", round_len, "bytes");
    m.push(
        "dcnet.useful_frac",
        r.revealed_bytes as f64 / (round_len * rounds),
        "ratio",
    );
    m.push(
        "dcnet.post_rounds_p50",
        quantile(&post_rounds, 0.5),
        "rounds",
    );
    m.push(
        "dcnet.post_rounds_p99",
        quantile(&post_rounds, 0.99),
        "rounds",
    );
    push_probes(&mut m, &p);
    m.push("net.frames_per_round", r.frames as f64 / rounds, "count");
    m.push("net.bytes_per_round", r.wire_bytes as f64 / rounds, "bytes");
    m.push("net.disconnects", r.disconnects as f64, "count");
    m.push("net.spoof_rejections", r.spoofs as f64, "count");
    m.push(
        "net.handshake_failures",
        r.handshake_failures as f64,
        "count",
    );
    m.push("net.reconnects", r.reconnects as f64, "count");
    m.push("node.round_ms", round_ms, "ms");
    m.push("node.engine_ms", engine_ms, "ms");
    m.push("node.unexplained_ms", round_ms - engine_ms, "ms");
    let (_, plain_rate, _, _) = socket_rates(&plain);
    m.push("trace.overhead_pct", (plain_rate / rate - 1.0) * 100.0, "%");
    let mut failures = plain.failures;
    failures.extend(r.failures);
    Ok(Outcome {
        attempted: r.posts_submitted + plain.posts_submitted,
        lost: r.posts_submitted + plain.posts_submitted - r.posts_delivered - plain.posts_delivered,
        failures,
        metrics: m,
    })
}

fn write_spans(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!(
            "roundbench: unknown workload {:?} (crowd-256, bulk-16, socket-2)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let jiffies = sys::cpu_jiffies();
    let (start, cpu_start) = (std::time::Instant::now(), sys::cpu_seconds());
    let outcome = match &spec {
        Workload::InProcess(s) => run_inproc(s, &args),
        Workload::Socket => run_socket(&args),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("roundbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {}",
        sys::json_object(&[
            ("commit", sys::commit()),
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("rayon_threads", rayon::current_num_threads().to_string()),
            (
                "chacha_wide",
                dissent_crypto::chacha::wide_backend_name().to_string()
            ),
            (
                "chacha_wide8",
                dissent_crypto::chacha::wide8_backend_name().to_string()
            ),
            ("group", "testing-256".to_string()),
            // Below the workload's usual figure when the host withheld a
            // vCPU: steal time does not show that on every hypervisor.
            (
                "cores_used",
                format!(
                    "{:.3}",
                    (sys::cpu_seconds() - cpu_start) / start.elapsed().as_secs_f64()
                )
            ),
            (
                "steal_pct",
                format!("{:.3}", sys::steal_pct(jiffies, sys::cpu_jiffies()))
            ),
        ])
    );
    for m in &outcome.metrics.0 {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        println!("check failed: {f}");
    }
    for m in &outcome.metrics.0 {
        if !m.value.is_finite() {
            outcome
                .failures
                .push(format!("metric {} has no value (no samples)", m.name));
        }
    }
    // Each lost post is a failed operation; any other failed check counts
    // at least once.
    let failed = outcome.lost.max(outcome.failures.len() as u64);
    println!(
        "{}",
        sys::result_line(
            failed == 0,
            outcome.attempted.max(1),
            failed,
            &outcome.metrics
        )
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
