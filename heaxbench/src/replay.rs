//! Layer replays for the traced run: the public calls of `wire`,
//! `serialize`, `eval` and `ntt`, timed on the workload's own bytes,
//! ciphertexts and parameter set.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heax_ckks::serialize::{
    deserialize_ciphertext, deserialize_operand, serialize_ciphertext, serialize_ciphertext_into,
    serialize_relin_key, serialize_seeded_ciphertext,
};
use heax_ckks::{
    encrypt_symmetric, encrypt_symmetric_seeded, CkksEncoder, Evaluator, GaloisKeys, RelinKey,
};
use heax_math::exec::Sequential;
use heax_server::wire::{self, client, ReplyBody, WIRE_VERSION};
use heax_server::HeaxServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Tracer, ROOT};
use crate::workload::{Burst, Inputs, HOIST_STEPS};

/// Wall time each replayed call is repeated for, at most.
const BUDGET: Duration = Duration::from_millis(150);
/// Most repetitions of one replayed call.
const MAX_REPS: usize = 400;

/// Median µs per call of `f`, each call recorded as a span.
fn time_us(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy tables
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 3 || (begin.elapsed() < BUDGET && samples.len() < MAX_REPS) {
        let start = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(name, start, end, ROOT, samples.len() as u64);
        samples.push((end - start).as_secs_f64() * 1e6);
    }
    crate::median(&mut samples)
}

/// Replays every layer call; returns µs per call by metric name.
///
/// `request_frame` is a request of the workload (its first op), and
/// `reply_frame` a result reply it produced. `server` is the in-process
/// engine, used for the registration replay of key-less workloads.
///
/// # Panics
///
/// On CKKS or codec failures, which would be faults in the program
/// under test.
pub fn replay(
    inputs: &Inputs,
    request_frame: &[u8],
    reply_frame: &[u8],
    server: &mut HeaxServer<'_>,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let ctx = &inputs.ctx;
    let mut m = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x5245_504C_4159);

    // wire
    m.insert(
        "wire.decode_frame_us",
        time_us(tracer, "wire.decode_frame", || {
            black_box(wire::decode_frame(black_box(request_frame)).is_ok());
        }),
    );
    let frame = wire::decode_frame(request_frame).expect("request frame");
    m.insert(
        "wire.decode_request_us",
        time_us(tracer, "wire.decode_request", || {
            black_box(wire::decode_request(black_box(frame.payload), frame.version).is_ok());
        }),
    );
    let reply = wire::decode_frame(reply_frame).expect("reply frame");
    let Ok(ReplyBody::Ciphertext(reply_ct)) = wire::decode_reply(reply.payload) else {
        panic!("the reply frame carries no ciphertext");
    };
    m.insert(
        "wire.encode_response_us",
        time_us(tracer, "wire.encode_response", || {
            black_box(wire::encode_response_frame(
                WIRE_VERSION,
                reply.session,
                reply.request,
                &ReplyBody::Ciphertext(black_box(reply_ct)),
            ));
        }),
    );

    // serialize: both upload forms of the workload's first operand.
    let enc = CkksEncoder::new(ctx);
    let pt = enc
        .encode_real(&inputs.vals[0], ctx.params().scale(), ctx.max_level())
        .expect("encode");
    let full =
        serialize_ciphertext(&encrypt_symmetric(ctx, &inputs.sk, &pt, &mut rng).expect("encrypt"));
    let seeded = serialize_seeded_ciphertext(
        &encrypt_symmetric_seeded(ctx, &inputs.sk, &pt, &mut rng).expect("encrypt"),
    );
    m.insert(
        "serialize.operand_us",
        time_us(tracer, "serialize.operand", || {
            black_box(deserialize_operand(black_box(&full), ctx).is_ok());
        }),
    );
    m.insert(
        "serialize.seeded_operand_us",
        time_us(tracer, "serialize.seeded_operand", || {
            black_box(deserialize_operand(black_box(&seeded), ctx).is_ok());
        }),
    );
    let reply_ct = deserialize_ciphertext(reply_ct, ctx).expect("reply ciphertext");
    let mut buf = Vec::new();
    m.insert(
        "serialize.ct_into_us",
        time_us(tracer, "serialize.ct_into", || {
            serialize_ciphertext_into(black_box(&reply_ct), &mut buf);
            black_box(buf.len());
        }),
    );

    // eval, on the workload's own operands with replay keys of the
    // workload's client.
    let eval = Evaluator::with_executor(ctx, Arc::new(Sequential));
    let a = deserialize_operand(&inputs.pool[0], ctx)
        .expect("operand")
        .0;
    let b = deserialize_operand(&inputs.pool[1], ctx)
        .expect("operand")
        .0;
    let rlk = RelinKey::generate(ctx, &inputs.sk, &mut rng);
    let gks = GaloisKeys::generate(ctx, &inputs.sk, &HOIST_STEPS, &mut rng);
    m.insert(
        "eval.add_us",
        time_us(tracer, "eval.add", || {
            black_box(eval.add(black_box(&a), &b).is_ok());
        }),
    );
    m.insert(
        "eval.multiply_relin_us",
        time_us(tracer, "eval.multiply_relin", || {
            black_box(eval.multiply_relin(black_box(&a), &b, &rlk).is_ok());
        }),
    );
    let prod = eval.multiply_relin(&a, &b, &rlk).expect("multiply");
    m.insert(
        "eval.rescale_us",
        time_us(tracer, "eval.rescale", || {
            black_box(eval.rescale(black_box(&prod)).is_ok());
        }),
    );
    m.insert(
        "eval.rotate_us",
        time_us(tracer, "eval.rotate", || {
            black_box(eval.rotate(black_box(&a), 1, &gks).is_ok());
        }),
    );
    let per_rot = time_us(tracer, "eval.rotate_many", || {
        black_box(eval.rotate_many(black_box(&a), &HOIST_STEPS, &gks).is_ok());
    });
    m.insert(
        "eval.rotate_many_us_per_rot",
        per_rot / HOIST_STEPS.len() as f64,
    );
    m.insert(
        "eval.mod_switch_us",
        time_us(tracer, "eval.mod_switch", || {
            black_box(eval.mod_switch_to_level(black_box(&a), 0).is_ok());
        }),
    );

    // ntt, one limb of the first prime, through the kernels the
    // evaluator dispatches to.
    let table = ctx.ntt_table(0);
    let q = table.modulus().value();
    let mut limb: Vec<u64> = (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect();
    m.insert(
        "ntt.forward_us_per_limb",
        time_us(tracer, "ntt.forward", || {
            table.forward_auto(black_box(&mut limb))
        }),
    );
    m.insert(
        "ntt.inverse_us_per_limb",
        time_us(tracer, "ntt.inverse", || {
            table.inverse_auto(black_box(&mut limb))
        }),
    );
    let n = ctx.n() as f64;
    m.insert("ntt.butterflies_per_limb", n / 2.0 * n.log2());

    // Key registration on the engine, for workloads whose sessions
    // register none during set-up.
    if !inputs.keyed() {
        let bytes = serialize_relin_key(&rlk);
        let opened = server
            .handle_frame(&client::open_session())
            .expect("answered");
        let (sid, _, _) = client::parse_reply(&opened).expect("reply");
        let frame = client::register_relin_key(sid, &bytes);
        m.insert(
            "server.register_us_per_key",
            time_us(tracer, "server.register", || {
                black_box(server.handle_frame(black_box(&frame)));
            }),
        );
    }
    m
}

/// The share of one request's replayed work that is CKKS evaluation,
/// and the share that is codec, for the workload's op mix (µs per
/// request each).
pub fn mix_us(burst: &Burst, m: &BTreeMap<&'static str, f64>) -> (f64, f64) {
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let frame = g("wire.decode_frame_us") + g("wire.decode_request_us");
    let reply = g("wire.encode_response_us") + g("serialize.ct_into_us");
    let (eval, codec) = match burst {
        Burst::Add { .. } => (
            g("eval.add_us"),
            frame + 2.0 * g("serialize.operand_us") + reply,
        ),
        Burst::Hoist { .. } => {
            let rots = HOIST_STEPS.len() as f64;
            (
                rots * (g("eval.rotate_many_us_per_rot") + g("eval.mod_switch_us")),
                (1.0 + rots) * frame + g("serialize.seeded_operand_us") + rots * reply,
            )
        }
        Burst::Chain { .. } => (
            g("eval.multiply_relin_us") + g("eval.rescale_us") + g("eval.rotate_us"),
            3.0 * frame + 2.0 * g("serialize.seeded_operand_us") + reply,
        ),
    };
    let n = burst.len() as f64;
    (eval / n, codec / n)
}
