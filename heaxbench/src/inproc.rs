//! The in-process leg: `HeaxServer::handle_frame` + `flush` driven
//! with a fixed, seeded batch composition and the board model attached.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use heax_hw::board::Board;
use heax_hw::scheduler::PipelineConfig;
use heax_math::exec::Sequential;
use heax_server::wire::{self, client, MessageKind};
use heax_server::{HeaxServer, ModeledBoardStats, ServerStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rig::thread_cpu_s;
use crate::trace::{self, Tracer};
use crate::workload::{Burst, Inputs, SessionKeys};

/// Modeled HEAX cores on the attached board model.
pub const MODEL_CORES: usize = 4;
/// Flushes in one cycle of the composition.
const FLUSHES: usize = 8;

/// The seeded batch composition: [`FLUSHES`] flushes of the workload's
/// fixed number of bursts each.
pub fn composition(inputs: &Inputs) -> Vec<Vec<Burst>> {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x494E_5052_4F43);
    (0..FLUSHES)
        .map(|_| {
            (0..inputs.spec.flush_bursts)
                .map(|_| inputs.next_burst(&mut rng))
                .collect()
        })
        .collect()
}

/// Session indices a composition touches.
pub fn sessions_used(comp: &[Vec<Burst>]) -> Vec<usize> {
    let set: BTreeSet<usize> = comp.iter().flatten().map(Burst::session).collect();
    set.into_iter().collect()
}

/// One flush of the first cycle, kept for the correctness gate.
#[derive(Clone, Debug)]
pub struct KeptFlush {
    /// `(burst, session id, first request id)` in submission order.
    pub bursts: Vec<(Burst, u64, u64)>,
    /// The flush's replies, submission order.
    pub replies: Vec<Vec<u8>>,
}

/// Outcome of the in-process leg.
#[derive(Clone, Debug, Default)]
pub struct InprocOut {
    /// Requests timed (every cycle after the warm-up).
    pub requests: u64,
    /// Time in `handle_frame` on request frames, timed cycles.
    pub intake_s: f64,
    /// Time in `flush`, timed cycles.
    pub flush_s: f64,
    /// Time lowering and fusing the queue (traced runs only).
    pub fuse_s: f64,
    /// Time scheduling the fused stream on the board model (traced
    /// runs only).
    pub schedule_s: f64,
    /// Flushes in the timed cycles.
    pub flushes: u64,
    /// CPU time of the timed cycles, seconds. The leg runs on the
    /// calling thread and never waits, so this is its wall time less
    /// the time the host stole from the virtual CPU.
    pub timed_cpu_s: f64,
    /// Requests answered with anything but a result, all cycles.
    pub failed: u64,
    /// Requests sent, all cycles.
    pub attempted: u64,
    /// Allocations of at least 64 KiB in the timed cycles (counted
    /// only when asked).
    pub large_allocs: u64,
    /// Board-model figures of exactly the first cycle.
    pub modeled_first: ModeledBoardStats,
    /// Engine counters when the warm-up ended.
    pub stats_warm: Option<ServerStats>,
    /// Engine counters at the end.
    pub stats_end: Option<ServerStats>,
    /// First-cycle flushes for the gate.
    pub kept: Vec<KeptFlush>,
}

/// The in-process server with its composition prebuilt as frames.
pub struct InProc<'a> {
    server: HeaxServer<'a>,
    pipeline: PipelineConfig,
    flushes: Vec<Vec<(Burst, u64, u64)>>,
    frames: Vec<Vec<Vec<u8>>>,
    /// Seconds spent registering keys, and keys registered.
    pub register: (f64, u64),
}

impl<'a> InProc<'a> {
    /// Builds the server, opens the workload's sessions and registers
    /// the keys of the sessions the composition touches.
    ///
    /// # Panics
    ///
    /// If the engine refuses a session or a registration, which would
    /// be a fault in the program under test.
    pub fn new(
        inputs: &'a Inputs,
        comp: &[Vec<Burst>],
        keys: &HashMap<usize, SessionKeys>,
    ) -> Self {
        let mut server = HeaxServer::new(&inputs.ctx, Board::stratix10())
            .expect("paper set")
            .with_executor(Arc::new(Sequential))
            .with_board_model(MODEL_CORES)
            .expect("board model");
        let pipeline = server
            .system()
            .accelerator()
            .pipeline_config(MODEL_CORES)
            .expect("pipeline config");
        let sids: Vec<u64> = (0..inputs.spec.sessions)
            .map(|_| {
                let reply = server
                    .handle_frame(&client::open_session())
                    .expect("answered");
                let (sid, _, r) = client::parse_reply(&reply).expect("reply");
                assert_eq!(r, client::Reply::SessionOpened, "session open refused");
                sid
            })
            .collect();
        let mut register = (0.0, 0u64);
        for index in sessions_used(comp) {
            let Some(k) = keys.get(&index) else { continue };
            let sid = sids[index];
            let frames = [
                k.relin.as_ref().map(|b| client::register_relin_key(sid, b)),
                k.galois
                    .as_ref()
                    .map(|b| client::register_galois_keys(sid, b)),
            ];
            for f in frames.iter().flatten() {
                let start = Instant::now();
                let reply = server.handle_frame(f).expect("answered");
                register.0 += start.elapsed().as_secs_f64();
                register.1 += 1;
                let (_, _, r) = client::parse_reply(&reply).expect("reply");
                assert_eq!(r, client::Reply::KeyRegistered, "key registration refused");
            }
        }
        let mut next_request = 1u64;
        let mut flushes = Vec::with_capacity(comp.len());
        let mut frames = Vec::with_capacity(comp.len());
        for bursts in comp {
            let mut meta = Vec::with_capacity(bursts.len());
            let mut fs = Vec::new();
            for burst in bursts {
                let sid = sids[burst.session()];
                meta.push((*burst, sid, next_request));
                fs.extend(inputs.burst_frames(burst, sid, next_request));
                next_request += burst.len() as u64;
            }
            flushes.push(meta);
            frames.push(fs);
        }
        InProc {
            server,
            pipeline,
            flushes,
            frames,
            register,
        }
    }

    /// The engine (for replayed registrations).
    pub fn server_mut(&mut self) -> &mut HeaxServer<'a> {
        &mut self.server
    }

    /// Cycles through the composition: warm-up cycles first (the very
    /// first is kept for the gate and prices the board model), then
    /// timed cycles for at least `dur`.
    pub fn run(&mut self, dur: Duration, tracer: &mut Tracer, count_allocs: bool) -> InprocOut {
        let mut out = InprocOut::default();
        let mut cycle = 0usize;
        let mut warm = false;
        let warm_start = Instant::now();
        let mut timed_start = warm_start;
        let mut timed_cpu_start = 0.0;
        loop {
            for (f, frames) in self.frames.iter().enumerate() {
                let timed = warm;
                let mut intake = 0.0;
                // One batch: its intake, replayed fuse and schedule, and
                // flush are its children; its self time is harness
                // overhead.
                let batch = tracer.open("server.batch", f as u64);
                for frame in frames {
                    let start = Instant::now();
                    let answered = self.server.handle_frame(frame);
                    let end = Instant::now();
                    intake += (end - start).as_secs_f64();
                    let request = u64::from_le_bytes(frame[14..22].try_into().expect("8 bytes"));
                    tracer.record("server.handle_frame", start, end, batch, request);
                    if answered.is_some() {
                        out.failed += 1;
                    }
                }
                out.attempted += frames.len() as u64;
                if tracer.enabled() {
                    let start = Instant::now();
                    let fused = self.server.queued_stream().fuse_rotations();
                    let mid = Instant::now();
                    let report = self.pipeline.schedule_stream(&fused.ops);
                    let end = Instant::now();
                    std::hint::black_box(report.ok());
                    tracer.record("ir.fuse", start, mid, batch, f as u64);
                    tracer.record("scheduler.schedule", mid, end, batch, f as u64);
                    if timed {
                        out.fuse_s += (mid - start).as_secs_f64();
                        out.schedule_s += (end - mid).as_secs_f64();
                    }
                }
                let start = Instant::now();
                let replies = self.server.flush();
                let end = Instant::now();
                tracer.record("server.flush", start, end, batch, f as u64);
                tracer.close(batch);
                for reply in &replies {
                    let ok =
                        wire::decode_frame(reply).is_ok_and(|d| d.kind == MessageKind::Response);
                    if !ok {
                        out.failed += 1;
                    }
                }
                out.failed += frames.len().saturating_sub(replies.len()) as u64;
                if timed {
                    out.requests = out.requests.saturating_add(frames.len() as u64);
                    out.intake_s += intake;
                    out.flush_s += (end - start).as_secs_f64();
                    out.flushes = out.flushes.saturating_add(1);
                } else if cycle == 0 {
                    out.kept.push(KeptFlush {
                        bursts: self.flushes[f].clone(),
                        replies,
                    });
                }
            }
            if cycle == 0 {
                out.modeled_first = self.server.stats().modeled.unwrap_or_default();
            }
            cycle += 1;
            // Warm-up: the first cycle, and further cycles until a tenth
            // of the leg has passed, so the heap has grown to its
            // working size before anything is timed.
            if !warm && warm_start.elapsed() >= dur / 10 {
                warm = true;
                out.stats_warm = Some(self.server.stats());
                if count_allocs {
                    trace::count_large_allocs();
                }
                timed_start = Instant::now();
                timed_cpu_start = thread_cpu_s();
            } else if warm && timed_start.elapsed() >= dur {
                break;
            }
        }
        out.timed_cpu_s = thread_cpu_s() - timed_cpu_start;
        if count_allocs {
            out.large_allocs = trace::stop_counting();
        }
        out.stats_end = Some(self.server.stats());
        out
    }
}
