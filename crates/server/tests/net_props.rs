//! Property tests for the socket runtime's frame assembly: every valid
//! v1/v2 frame shape from the wire fuzz corpus, concatenated and
//! delivered byte-at-a-time and in random chunks, must come out of
//! [`FrameAssembler`] byte-identical to the input frames, with decoded
//! requests identical to whole-buffer decoding — both when pushed and
//! when read straight into the assembler's buffer, as the socket
//! runtime does.
//!
//! The engine-level test at the bottom pins key eviction under the
//! budget a socket runtime configures: a rehydrated session's keys
//! rebuild bit-identical Shoup tables, so its replies are unchanged.
//! (The key store's own invariants are proptested against a reference
//! model inside the crate.)
//!
//! CI runs this suite under both `HEAX_THREADS=1` and
//! `HEAX_THREADS=4`.

use heax_ckks::serialize::{serialize_ciphertext, serialize_galois_keys};
use heax_ckks::{
    CkksContext, CkksEncoder, CkksParams, Encryptor, GaloisKeys, PublicKey, SecretKey,
};
use heax_core::{HeaxAccelerator, HeaxSystem};
use heax_hw::board::Board;
use heax_hw::keyswitch_pipeline::KeySwitchArch;
use heax_hw::mult_dataflow::MultModuleConfig;
use heax_hw::ntt_dataflow::NttModuleConfig;
use heax_server::net::{FrameAssembler, NetConfig, NetServer};
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{self, MessageKind, OpCode, Request, WireOperand, WIRE_V1, WIRE_V2};
use heax_server::HeaxServer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One valid frame from the wire corpus: every client-side message
/// kind, both wire versions, arbitrary session/request ids and
/// payload blobs (the assembler must not care whether a payload is a
/// real ciphertext).
fn corpus_frame(version: u8, variant: usize, session: u64, request: u64, blob: &[u8]) -> Vec<u8> {
    match variant % 6 {
        0 => wire::encode_frame(version, MessageKind::OpenSession, session, request, &[]),
        1 => wire::encode_frame(
            version,
            MessageKind::RegisterRelinKey,
            session,
            request,
            blob,
        ),
        2 => wire::encode_frame(
            version,
            MessageKind::RegisterGaloisKeys,
            session,
            request,
            blob,
        ),
        3 => {
            let body = wire::encode_request(
                version,
                &Request {
                    op: OpCode::Add,
                    step: 0,
                    compress_reply: false,
                    park_as: None,
                    operands: vec![WireOperand::Inline(blob), WireOperand::Inline(blob)],
                },
            );
            wire::encode_frame(version, MessageKind::Request, session, request, &body)
        }
        4 => wire::encode_frame(version, MessageKind::CloseSession, session, request, &[]),
        _ => {
            let body = wire::encode_request(
                version,
                &Request {
                    op: OpCode::Rotate,
                    step: -3,
                    compress_reply: version == WIRE_V2,
                    park_as: Some("parked-name"),
                    operands: vec![WireOperand::Parked("x")],
                },
            );
            wire::encode_frame(version, MessageKind::Request, session, request, &body)
        }
    }
}

/// Strategy: a batch of corpus frames as `(version, variant, session,
/// request, blob)` tuples.
fn arb_corpus() -> impl Strategy<Value = Vec<(u8, usize, u64, u64, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![WIRE_V1, WIRE_V2]),
            0usize..6,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..48),
        ),
        1..8,
    )
}

/// A byte source that yields the stream in the schedule's chunk sizes,
/// one chunk per `read` — a socket delivering fragments.
struct Fragments<'a> {
    stream: &'a [u8],
    chunks: Vec<usize>,
}

impl std::io::Read for Fragments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.chunks.pop().unwrap_or(1).max(1);
        let n = want.min(buf.len()).min(self.stream.len());
        let (head, rest) = self.stream.split_at(n);
        buf[..n].copy_from_slice(head);
        self.stream = rest;
        Ok(n)
    }
}

/// Runs a fragmentation schedule over the concatenated corpus, once
/// pushing each chunk and once reading it straight into the assembler,
/// and checks both outputs against the original frames and
/// whole-buffer decoding.
fn check_reassembly(frames: &[Vec<u8>], chunks: &mut dyn Iterator<Item = usize>) {
    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    let mut schedule = Vec::new();
    let mut off = 0;
    while off < stream.len() {
        let n = chunks.next().unwrap_or(1).clamp(1, stream.len() - off);
        schedule.push(n);
        off += n;
    }

    let mut asm = FrameAssembler::new();
    let mut got = Vec::new();
    let mut off = 0;
    for &n in &schedule {
        asm.push(&stream[off..off + n]);
        off += n;
        while let Some(f) = asm.next_frame().expect("valid streams never error") {
            got.push(f.to_vec());
        }
    }
    assert_eq!(got, frames, "reassembled frames must be byte-identical");
    assert_eq!(asm.buffered(), 0, "no residue after the last frame");

    let mut src = Fragments {
        stream: &stream,
        chunks: schedule.iter().rev().copied().collect(),
    };
    let mut asm = FrameAssembler::new();
    let mut read = Vec::new();
    while asm.read_from(&mut src).expect("in-memory reads") > 0 {
        while let Some(f) = asm.next_frame().expect("valid streams never error") {
            read.push(f.to_vec());
        }
    }
    assert_eq!(read, frames, "frames read in place must be byte-identical");
    assert_eq!(asm.buffered(), 0, "no residue after the last frame");
    // Decoded views are identical to whole-buffer decoding, request
    // bodies included.
    for (reassembled, original) in got.iter().zip(frames) {
        let a = wire::decode_frame(reassembled).expect("corpus frames decode");
        let b = wire::decode_frame(original).expect("corpus frames decode");
        assert_eq!(
            (a.version, a.kind, a.session, a.request, a.payload),
            (b.version, b.kind, b.session, b.request, b.payload)
        );
        if a.kind == MessageKind::Request {
            let ra = wire::decode_request(a.payload, a.version).expect("corpus bodies decode");
            let rb = wire::decode_request(b.payload, b.version).expect("corpus bodies decode");
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }
}

proptest! {
    /// Byte-at-a-time delivery of every corpus frame shape.
    #[test]
    fn assembler_is_exact_under_byte_at_a_time_delivery(specs in arb_corpus()) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|(v, k, s, r, blob)| corpus_frame(*v, *k, *s, *r, blob))
            .collect();
        check_reassembly(&frames, &mut std::iter::repeat(1));
    }

    /// Random chunk schedules (1..=max bytes per delivery, seeded).
    #[test]
    fn assembler_is_exact_under_random_chunk_delivery(
        specs in arb_corpus(),
        seed in 0u64..1000,
    ) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|(v, k, s, r, blob)| corpus_frame(*v, *k, *s, *r, blob))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks = std::iter::from_fn(move || Some(rng.gen_range(1usize..=64)));
        check_reassembly(&frames, &mut chunks);
    }
}

// ---------------------------------------------------------------------
// Engine-level bit-identity across eviction and rehydration.
// ---------------------------------------------------------------------

fn ctx() -> CkksContext {
    let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
}

fn system(ctx: &CkksContext) -> HeaxSystem<'_> {
    let accel = HeaxAccelerator::with_arch(
        ctx,
        Board::stratix10(),
        KeySwitchArch {
            n: 64,
            k: 3,
            nc_intt0: 4,
            m0: 2,
            nc_ntt0: 4,
            num_dyad: 3,
            nc_dyad: 4,
            nc_intt1: 2,
            nc_ntt1: 4,
            nc_ms: 2,
        },
        NttModuleConfig::new(64, 4).unwrap(),
        MultModuleConfig::new(64, 8).unwrap(),
    )
    .unwrap();
    HeaxSystem::new(accel)
}

/// A session evicted under budget pressure and rehydrated from its
/// serialized keys must reproduce the same reply bytes for the same
/// request — the rebuilt Shoup tables are bit-identical, so nothing
/// downstream can tell an evict/rehydrate cycle happened.
#[test]
fn evict_and_reregister_reproduces_replies_bit_identically() {
    let c = ctx();
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&c, &mut rng);
    let pk = PublicKey::generate(&c, &sk, &mut rng);
    let gks = GaloisKeys::generate(&c, &sk, &[1], &mut rng);
    let enc = CkksEncoder::new(&c);
    let ct = Encryptor::new(&c, &pk)
        .encrypt(
            &enc.encode_real(&[1.0, 2.0], c.params().scale(), c.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    let gks_bytes = serialize_galois_keys(&gks);
    let ct_bytes = serialize_ciphertext(&ct);

    // Room for one session's Galois keys, not two. The socket runtime
    // only sizes the engine's budget; the frames go to the engine
    // directly.
    let config = NetConfig {
        key_cache_budget: gks_bytes.len() as u64 * 3 / 2,
        ..NetConfig::default()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let server = net.server_mut();
    let open = |server: &mut HeaxServer<'_>| {
        let opened = server.handle_frame(&client::open_session()).unwrap();
        client::parse_reply(&opened).unwrap().0
    };
    let session = open(server);
    let other = open(server);
    let registered = |server: &mut HeaxServer<'_>, s: u64| {
        let reply = server
            .handle_frame(&client::register_galois_keys(s, &gks_bytes))
            .unwrap();
        client::parse_reply(&reply).unwrap().2 == Reply::KeyRegistered
    };
    assert!(registered(server, session));

    assert!(server
        .handle_frame(&client::rotate(session, 7, &ct_bytes, 1))
        .is_none());
    let first = server.flush().remove(0);

    // The other session's upload evicts this one; closing it frees the
    // budget again, so the rehydration below evicts nobody.
    assert!(registered(server, other));
    assert_eq!(server.stats().key_evictions, 1);
    server.handle_frame(&client::close_session(other));

    // The next rotation rehydrates the evicted keys transparently.
    assert!(server
        .handle_frame(&client::rotate(session, 7, &ct_bytes, 1))
        .is_none());
    let second = server.flush().remove(0);
    assert_eq!(
        first, second,
        "evict + rehydrate must be bit-transparent, Shoup tables included"
    );

    let stats = server.stats();
    assert_eq!(stats.key_evictions, 1);
    assert_eq!(stats.key_reregistrations, 1);
    assert_eq!(net.stats().key_restores, 1);
}
