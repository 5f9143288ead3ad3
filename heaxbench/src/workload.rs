//! The three workloads: their fixed parameters (offered rates, latency
//! limits, windows), the client-side inputs made from the seed, and the
//! bursts of request frames each one sends.

use std::collections::HashMap;

use heax_ckks::serialize::{
    serialize_ciphertext, serialize_galois_keys, serialize_relin_key, serialize_seeded_ciphertext,
};
use heax_ckks::{
    encrypt_symmetric, encrypt_symmetric_seeded, CkksContext, CkksEncoder, CkksParams, GaloisKeys,
    ParamSet, RelinKey, SecretKey,
};
use heax_server::wire::{client, Request, WireOperand};
use heax_server::OpCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Set-A `Add` of two full inline ciphertexts over ~1k key-less
    /// sessions: transport and codec bound.
    AddBytes,
    /// Set-B: one seeded upload parked by `Fetch`, then 8 compressed
    /// `Rotate`s of the handle: key-switch bound, hoisting pays.
    RotateHoist,
    /// Set-A: `MultiplyRelin` → `Rescale` → `Rotate(1)` on Zipf-chosen
    /// sessions whose keys do not all fit the key-cache budget.
    ChainChurn,
}

/// Fixed parameters of one workload. The offered rates and latency
/// limits are absolute numbers calibrated once (2-core x86-64 host,
/// release build) and never derived from the run that uses them.
#[derive(Debug)]
pub struct Spec {
    /// Workload kind.
    pub kind: Kind,
    /// CLI name.
    pub name: &'static str,
    /// CKKS parameter set.
    pub set: ParamSet,
    /// Sessions opened on each server.
    pub sessions: usize,
    /// Closed-loop outstanding bursts, split over the two connections.
    pub window: usize,
    /// Open-loop offered rates in requests/s, ascending; the first is
    /// the `low` rate and the second the `high` rate of the latency
    /// figures.
    pub ladder_rps: &'static [f64],
    /// p99 latency limit (ms) a rung must meet to count for `slo_rps`.
    pub limit_ms: f64,
    /// In-process leg: bursts per flush. The mean loopback batch
    /// (`net.batch_mean` of the traced run, in bursts) measured at the
    /// commit that added the benchmark, so both legs serve flushes of
    /// the same size.
    pub flush_bursts: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::AddBytes,
        name: "add-bytes",
        set: ParamSet::SetA,
        sessions: 1024,
        window: 8,
        ladder_rps: &[300.0, 600.0, 900.0, 1200.0, 1500.0],
        limit_ms: 25.0,
        flush_bursts: 7,
    },
    Spec {
        kind: Kind::RotateHoist,
        name: "rotate-hoist",
        set: ParamSet::SetB,
        sessions: 2,
        window: 2,
        ladder_rps: &[45.0, 90.0, 135.0, 180.0, 225.0],
        limit_ms: 250.0,
        flush_bursts: 2,
    },
    Spec {
        kind: Kind::ChainChurn,
        name: "chain-churn",
        set: ParamSet::SetA,
        sessions: 256,
        window: 4,
        ladder_rps: &[90.0, 180.0, 270.0, 360.0, 450.0, 540.0],
        limit_ms: 100.0,
        flush_bursts: 4,
    },
];

/// Looks a workload up by its CLI name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Ladder rung of the `low` latency figures.
pub const LOW: usize = 0;
/// Ladder rung of the `high` latency figures.
pub const HIGH: usize = 1;
/// Distinct encrypted operands the bursts draw from.
pub const POOL: usize = 4;
/// Rotation steps of a `rotate-hoist` burst.
pub const HOIST_STEPS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Slots filled with seeded values in every operand.
pub const SLOTS: usize = 16;
/// Slots compared by the decrypt check (rotations read 8 beyond).
pub const CHECKED_SLOTS: usize = 8;

/// One burst: the frames the generator schedules together. Operand
/// fields index the operand pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Burst {
    /// `Add(pool[a], pool[b])`, full reply.
    Add { session: usize, a: usize, b: usize },
    /// `Fetch(pool[x]) park "x"`, then `Rotate(k, "x")` compressed for
    /// every step of [`HOIST_STEPS`].
    Hoist { session: usize, x: usize },
    /// `MultiplyRelin(pool[a], pool[b]) park "m"`, `Rescale("m") park
    /// "r"`, `Rotate(1, "r")` compressed.
    Chain { session: usize, a: usize, b: usize },
}

/// What a reply must carry.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A `Parked` acknowledgement under this name.
    Parked(&'static str),
    /// A ciphertext decrypting to these leading slot values.
    Values(Vec<f64>),
}

impl Burst {
    /// Index of the session (into the server's opened-session list).
    pub fn session(&self) -> usize {
        match *self {
            Burst::Add { session, .. }
            | Burst::Hoist { session, .. }
            | Burst::Chain { session, .. } => session,
        }
    }

    /// Requests in the burst.
    pub fn len(&self) -> usize {
        match self {
            Burst::Add { .. } => 1,
            Burst::Hoist { .. } => 1 + HOIST_STEPS.len(),
            Burst::Chain { .. } => 3,
        }
    }

    /// The op of request `j`.
    pub fn op(&self, j: usize) -> OpCode {
        match (self, j) {
            (Burst::Add { .. }, _) => OpCode::Add,
            (Burst::Hoist { .. }, 0) => OpCode::Fetch,
            (Burst::Hoist { .. }, _) => OpCode::Rotate,
            (Burst::Chain { .. }, 0) => OpCode::MultiplyRelin,
            (Burst::Chain { .. }, 1) => OpCode::Rescale,
            (Burst::Chain { .. }, _) => OpCode::Rotate,
        }
    }

    /// Whether request `j`'s result depends on how the server grouped
    /// the burst into flushes (hoisted rotations are decrypt-equal to
    /// plain ones, not bit-equal).
    pub fn batch_dependent(&self, j: usize) -> bool {
        matches!(self, Burst::Hoist { .. }) && j > 0
    }

    /// The expected reply of request `j`, given the pool's slot values.
    pub fn expect(&self, j: usize, vals: &[Vec<f64>]) -> Expect {
        let rot = |v: &[f64], k: usize| -> Vec<f64> {
            (0..CHECKED_SLOTS)
                .map(|i| v.get(i + k).copied().unwrap_or(0.0))
                .collect()
        };
        match *self {
            Burst::Add { a, b, .. } => Expect::Values(
                (0..CHECKED_SLOTS)
                    .map(|i| vals[a][i] + vals[b][i])
                    .collect(),
            ),
            Burst::Hoist { x, .. } => match j {
                0 => Expect::Parked("x"),
                _ => Expect::Values(rot(&vals[x], HOIST_STEPS[j - 1] as usize)),
            },
            Burst::Chain { a, b, .. } => match j {
                0 => Expect::Parked("m"),
                1 => Expect::Parked("r"),
                _ => {
                    let prod: Vec<f64> = vals[a].iter().zip(&vals[b]).map(|(x, y)| x * y).collect();
                    Expect::Values(rot(&prod, 1))
                }
            },
        }
    }

    /// Builds request `j` as a frame with session and request id 0
    /// (patched per send by [`patch_ids`]).
    fn frame(&self, j: usize, pool: &[Vec<u8>]) -> Vec<u8> {
        let req = match *self {
            Burst::Add { a, b, .. } => Request {
                op: OpCode::Add,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(&pool[a]), WireOperand::Inline(&pool[b])],
            },
            Burst::Hoist { x, .. } if j == 0 => Request {
                op: OpCode::Fetch,
                step: 0,
                compress_reply: false,
                park_as: Some("x"),
                operands: vec![WireOperand::Inline(&pool[x])],
            },
            Burst::Hoist { .. } => Request {
                op: OpCode::Rotate,
                step: HOIST_STEPS[j - 1],
                compress_reply: true,
                park_as: None,
                operands: vec![WireOperand::Parked("x")],
            },
            Burst::Chain { a, b, .. } if j == 0 => Request {
                op: OpCode::MultiplyRelin,
                step: 0,
                compress_reply: false,
                park_as: Some("m"),
                operands: vec![WireOperand::Inline(&pool[a]), WireOperand::Inline(&pool[b])],
            },
            Burst::Chain { .. } if j == 1 => Request {
                op: OpCode::Rescale,
                step: 0,
                compress_reply: false,
                park_as: Some("r"),
                operands: vec![WireOperand::Parked("m")],
            },
            Burst::Chain { .. } => Request {
                op: OpCode::Rotate,
                step: 1,
                compress_reply: true,
                park_as: None,
                operands: vec![WireOperand::Parked("r")],
            },
        };
        client::request(0, 0, &req)
    }

    /// The burst with its session index cleared: the template key.
    fn shape(&self) -> Burst {
        match *self {
            Burst::Add { a, b, .. } => Burst::Add { session: 0, a, b },
            Burst::Hoist { x, .. } => Burst::Hoist { session: 0, x },
            Burst::Chain { a, b, .. } => Burst::Chain { session: 0, a, b },
        }
    }
}

/// Writes a frame's session and request ids into its header.
pub fn patch_ids(frame: &mut [u8], session: u64, request: u64) {
    frame[6..14].copy_from_slice(&session.to_le_bytes());
    frame[14..22].copy_from_slice(&request.to_le_bytes());
}

/// Session keys one session registers, serialized.
pub struct SessionKeys {
    /// `RegisterRelinKey` payload, if any.
    pub relin: Option<Vec<u8>>,
    /// `RegisterGaloisKeys` payload, if any.
    pub galois: Option<Vec<u8>>,
}

/// Everything the client side holds: context, secret key, the operand
/// pool with its plaintext slot values, and the frame templates.
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// Seed every input derives from.
    pub seed: u64,
    /// Shared CKKS context.
    pub ctx: CkksContext,
    /// The client's secret key (all sessions share it; each keyed
    /// session registers key-switching keys of its own).
    pub sk: SecretKey,
    /// Serialized operands (full for `add-bytes`, seeded otherwise).
    pub pool: Vec<Vec<u8>>,
    /// Plaintext slot values of each pool operand.
    pub vals: Vec<Vec<f64>>,
    templates: HashMap<(Burst, usize), Vec<u8>>,
    zipf_cdf: Vec<f64>,
    zipf_perm: Vec<usize>,
}

impl Inputs {
    /// Builds the client side of `spec` from `seed`.
    ///
    /// # Panics
    ///
    /// On CKKS failures, which cannot happen for the built-in sets.
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        let ctx =
            CkksContext::new(CkksParams::from_set(spec.set).expect("paper set")).expect("ctx");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4845_4158_4245_4e43);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let mut pool = Vec::with_capacity(POOL);
        let mut vals = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let v: Vec<f64> = (0..SLOTS).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let pt = enc
                .encode_real(&v, ctx.params().scale(), ctx.max_level())
                .expect("encode");
            let bytes = if spec.kind == Kind::AddBytes {
                serialize_ciphertext(&encrypt_symmetric(&ctx, &sk, &pt, &mut rng).expect("encrypt"))
            } else {
                serialize_seeded_ciphertext(
                    &encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).expect("encrypt"),
                )
            };
            pool.push(bytes);
            vals.push(v);
        }
        let mut templates = HashMap::new();
        for a in 0..POOL {
            for b in 0..POOL {
                let shape = match spec.kind {
                    Kind::AddBytes => Burst::Add { session: 0, a, b },
                    Kind::RotateHoist if b == 0 => Burst::Hoist { session: 0, x: a },
                    Kind::RotateHoist => continue,
                    Kind::ChainChurn => Burst::Chain { session: 0, a, b },
                };
                for j in 0..shape.len() {
                    templates.insert((shape, j), shape.frame(j, &pool));
                }
            }
        }
        // Zipf(1) over the sessions, hottest rank mapped to a seeded
        // session so the hot set differs between seeds.
        let weights: Vec<f64> = (1..=spec.sessions).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut zipf_perm: Vec<usize> = (0..spec.sessions).collect();
        for i in (1..zipf_perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            zipf_perm.swap(i, j);
        }
        Inputs {
            spec,
            seed,
            ctx,
            sk,
            pool,
            vals,
            templates,
            zipf_cdf,
            zipf_perm,
        }
    }

    /// The keys session `index` registers, its own in every keyed
    /// session; deterministic in the seed and the index, so a mirror can
    /// regenerate them.
    pub fn session_keys(&self, index: usize) -> SessionKeys {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        match self.spec.kind {
            Kind::AddBytes => SessionKeys {
                relin: None,
                galois: None,
            },
            Kind::RotateHoist => SessionKeys {
                relin: None,
                galois: Some(serialize_galois_keys(&GaloisKeys::generate(
                    &self.ctx,
                    &self.sk,
                    &HOIST_STEPS,
                    &mut rng,
                ))),
            },
            Kind::ChainChurn => {
                let rlk = RelinKey::generate(&self.ctx, &self.sk, &mut rng);
                let gks = GaloisKeys::generate(&self.ctx, &self.sk, &[1], &mut rng);
                SessionKeys {
                    relin: Some(serialize_relin_key(&rlk)),
                    galois: Some(serialize_galois_keys(&gks)),
                }
            }
        }
    }

    /// Whether sessions of this workload register keys.
    pub fn keyed(&self) -> bool {
        self.spec.kind != Kind::AddBytes
    }

    /// Draws the next burst.
    pub fn next_burst(&self, rng: &mut StdRng) -> Burst {
        let p = POOL;
        match self.spec.kind {
            Kind::AddBytes => Burst::Add {
                session: rng.gen_range(0..self.spec.sessions),
                a: rng.gen_range(0..p),
                b: rng.gen_range(0..p),
            },
            Kind::RotateHoist => Burst::Hoist {
                session: rng.gen_range(0..self.spec.sessions),
                x: rng.gen_range(0..p),
            },
            Kind::ChainChurn => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let rank = self.zipf_cdf.partition_point(|&c| c < u);
                Burst::Chain {
                    session: self.zipf_perm[rank.min(self.spec.sessions - 1)],
                    a: rng.gen_range(0..p),
                    b: rng.gen_range(0..p),
                }
            }
        }
    }

    /// Appends the burst's frames to `out`, with session id `sid` and
    /// request ids `first_request..`.
    pub fn write_burst(&self, burst: &Burst, sid: u64, first_request: u64, out: &mut Vec<u8>) {
        let shape = burst.shape();
        for j in 0..burst.len() {
            let template = &self.templates[&(shape, j)];
            let at = out.len();
            out.extend_from_slice(template);
            patch_ids(&mut out[at..], sid, first_request + j as u64);
        }
    }

    /// The burst's frames, one `Vec` each.
    pub fn burst_frames(&self, burst: &Burst, sid: u64, first_request: u64) -> Vec<Vec<u8>> {
        let shape = burst.shape();
        (0..burst.len())
            .map(|j| {
                let mut f = self.templates[&(shape, j)].clone();
                patch_ids(&mut f, sid, first_request + j as u64);
                f
            })
            .collect()
    }
}
