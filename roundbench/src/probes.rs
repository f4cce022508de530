//! Layer probes: public primitives timed at the sizes a workload uses, so
//! the traced run can set "probe cost × count per round" next to each
//! measured phase.

use crate::sys;
use crate::trace::Tracer;
use dissent_crypto::chacha::ChaCha20;
use dissent_crypto::dh::DhKeyPair;
use dissent_crypto::elgamal::ElGamal;
use dissent_crypto::group::Group;
use dissent_crypto::hmac::hkdf_key;
use dissent_crypto::schnorr::{self, SigningKeyPair};
use dissent_crypto::sha256::sha256;
use dissent_dcnet::pad::{pad_xor_into, SharedSecret};
use dissent_dcnet::server::server_ciphertext;
use dissent_dcnet::ClientId;
use dissent_net::auth::{Peer, RosterKeys};
use dissent_net::transport::FramedConn;
use dissent_shuffle::protocol::{run_shuffle, submit_element};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Probe results, each per call unless the name says otherwise.
pub struct Probes {
    pub hkdf_key_us: f64,
    pub chacha_mib_s: f64,
    pub sha256_mib_s: f64,
    pub pad_xor_us: f64,
    pub server_fold_ms: f64,
    pub run_shuffle_s: f64,
    pub dh_secret_us: f64,
    pub modexp_us: f64,
    pub schnorr_sign_us: f64,
    pub schnorr_verify_us: f64,
    pub handshake_ms: f64,
}

/// Median seconds per call of `f` over five chunks, each chunk sized to
/// take about `chunk` (at least one call).
fn per_call(chunk: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((chunk.as_secs_f64() / once) as usize).clamp(1, 1 << 20);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    sys::median(&samples)
}

/// Time every probe at `clients` clients, `servers` servers, shuffle
/// soundness `soundness` and a round of `round_len` bytes.
pub fn run(
    clients: usize,
    servers: usize,
    soundness: usize,
    round_len: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Probes, String> {
    let chunk = Duration::from_millis(20);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A0B_E500);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let len = round_len.max(1);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    let mib = len as f64 / (1024.0 * 1024.0);

    let span = tracer.begin("probe:hkdf_key", 0);
    let hkdf_key_us = per_call(chunk, || {
        black_box(hkdf_key(black_box(&key), black_box(&key), b"probe"));
    }) * 1e6;
    tracer.end(span);

    let span = tracer.begin("probe:ChaCha20::apply", 0);
    let mut cipher = ChaCha20::new(&key, &[0u8; 12]);
    let chacha_s = per_call(chunk, || {
        cipher.seek(0);
        cipher.apply(black_box(&mut buf));
    });
    tracer.end(span);

    let span = tracer.begin("probe:sha256", 0);
    let sha_s = per_call(chunk, || {
        black_box(sha256(black_box(&buf)));
    });
    tracer.end(span);

    let span = tracer.begin("probe:pad_xor_into", 0);
    let secret: SharedSecret = key;
    let pad_xor_us = per_call(chunk, || pad_xor_into(&secret, 7, black_box(&mut buf))) * 1e6;
    tracer.end(span);

    // One server's fold over the whole composite list, with its 1/M share
    // of the client ciphertexts.
    let span = tracer.begin("probe:server_ciphertext", 0);
    let secrets: BTreeMap<ClientId, SharedSecret> = (0..clients as ClientId)
        .map(|c| {
            let mut s = [0u8; 32];
            rng.fill_bytes(&mut s);
            (c, s)
        })
        .collect();
    let composite: Vec<ClientId> = secrets.keys().copied().collect();
    let own: BTreeMap<ClientId, Vec<u8>> = composite
        .iter()
        .filter(|c| (**c as usize).is_multiple_of(servers.max(1)))
        .map(|&c| (c, buf.clone()))
        .collect();
    let server_fold_ms = per_call(chunk, || {
        black_box(server_ciphertext(7, len, &composite, &secrets, &own));
    }) * 1e3;
    tracer.end(span);

    let group = Group::testing_256();
    let server_keys: Vec<DhKeyPair> = (0..servers)
        .map(|_| DhKeyPair::generate(&group, &mut rng))
        .collect();
    let span = tracer.begin("probe:run_shuffle", 0);
    let elgamal = ElGamal::new(group.clone());
    let publics: Vec<_> = server_keys.iter().map(|k| k.public().clone()).collect();
    let inputs: Vec<_> = (0..clients)
        .map(|_| {
            let pseudonym = SigningKeyPair::generate(&group, &mut rng);
            submit_element(&elgamal, &publics, pseudonym.public(), &mut rng)
        })
        .collect();
    let shuffle_chunk = Duration::from_millis(if clients > 64 { 1 } else { 100 });
    let mut shuffle_err = None;
    let run_shuffle_s = per_call(shuffle_chunk, || {
        if let Err(e) = run_shuffle(
            &group,
            &server_keys,
            inputs.clone(),
            soundness,
            b"probe",
            &mut rng,
        ) {
            shuffle_err = Some(e.to_string());
        }
    });
    tracer.end(span);
    if let Some(e) = shuffle_err {
        return Err(format!("probe shuffle failed: {e}"));
    }

    let span = tracer.begin("probe:DhKeyPair::shared_secret", 0);
    let peer = server_keys[0].public().clone();
    let mine = DhKeyPair::generate(&group, &mut rng);
    let dh_secret_us = per_call(chunk, || {
        black_box(mine.shared_secret(&group, &peer, b"probe"));
    }) * 1e6;
    tracer.end(span);

    let span = tracer.begin("probe:Group::exp", 0);
    let e = group.random_scalar(&mut rng);
    let modexp_us = per_call(chunk, || {
        black_box(group.exp(black_box(&peer), &e));
    }) * 1e6;
    tracer.end(span);

    let span = tracer.begin("probe:schnorr", 0);
    let signer = SigningKeyPair::generate(&group, &mut rng);
    let msg = [7u8; 32];
    let schnorr_sign_us = per_call(chunk, || {
        black_box(signer.sign(&group, &mut rng, &msg));
    }) * 1e6;
    let sig = signer.sign(&group, &mut rng, &msg);
    let mut verified = true;
    let schnorr_verify_us = per_call(chunk, || {
        verified &= schnorr::verify(&group, signer.public(), &msg, &sig);
    }) * 1e6;
    tracer.end(span);
    if !verified {
        return Err("probe signature failed to verify".into());
    }

    let span = tracer.begin("probe:handshake", 0);
    let handshake_ms = handshake_probe(&group, &mut rng)? * 1e3;
    tracer.end(span);

    Ok(Probes {
        hkdf_key_us,
        chacha_mib_s: mib / chacha_s,
        sha256_mib_s: mib / sha_s,
        pad_xor_us,
        server_fold_ms,
        run_shuffle_s,
        dh_secret_us,
        modexp_us,
        schnorr_sign_us,
        schnorr_verify_us,
        handshake_ms,
    })
}

/// Median seconds for one `RosterKeys` prover/verifier handshake over a
/// fresh loopback connection.
fn handshake_probe(group: &Group, rng: &mut StdRng) -> Result<f64, String> {
    const REPS: usize = 21;
    let signer = SigningKeyPair::generate(group, rng);
    let mut fingerprint = [0u8; 32];
    rng.fill_bytes(&mut fingerprint);
    let keys = RosterKeys {
        group: group.clone(),
        fingerprint,
        client_keys: vec![signer.public().clone()],
        server_keys: Vec::new(),
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let verifier_keys = keys.clone();
    let mut verifier_rng = StdRng::seed_from_u64(rng.next_u64());
    let verifier = thread::spawn(move || -> Result<(), String> {
        for _ in 0..REPS {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let _ = stream.set_nodelay(true);
            let mut conn = FramedConn::new(stream);
            verifier_keys
                .verifier_handshake(&mut conn, &mut verifier_rng)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut samples = Vec::with_capacity(REPS);
    let mut result = Ok(());
    for _ in 0..REPS {
        let t = Instant::now();
        let attempt = TcpStream::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|stream| {
                let _ = stream.set_nodelay(true);
                let mut conn = FramedConn::new(stream);
                keys.prover_handshake(&mut conn, Peer::Client(0), &signer, rng)
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = attempt {
            result = Err(e);
            break;
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    // On a failed handshake the verifier thread is left waiting in accept;
    // one more dial releases it.
    if result.is_err() {
        let _ = TcpStream::connect(addr);
    }
    let joined = verifier
        .join()
        .map_err(|_| "handshake verifier panicked".to_string())?;
    result.and(joined)?;
    Ok(sys::median(&samples))
}
