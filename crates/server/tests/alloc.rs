//! Steady-state allocation bounds of the serving path, measured with a
//! counting global allocator:
//!
//! * a [`FrameAssembler`] fed same-size frames — pushed in chunks that
//!   straddle frame boundaries, or read straight into its buffer —
//!   allocates nothing per frame once warm;
//! * an in-process Set-A `Add` (two inline 131 KB ciphertexts) costs at
//!   most five allocations of 64 KiB or more per request, intake to
//!   reply: four operand polynomials decoded from the frame and the
//!   reply frame [`HeaxServer::flush`] copies out. The sum reuses the
//!   first operand's storage and the reply is serialized into a buffer
//!   the server keeps across flushes.
//!
//! The counters are thread-local, so concurrently running tests in
//! this binary cannot pollute a measurement; the engine runs on the
//! sequential backend so all its work stays on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use heax_ckks::serialize::serialize_ciphertext;
use heax_ckks::{encrypt_symmetric, CkksContext, CkksEncoder, CkksParams, ParamSet, SecretKey};
use heax_hw::board::Board;
use heax_math::exec::Sequential;
use heax_server::net::FrameAssembler;
use heax_server::wire::{self, client, MessageKind, OpCode, Request, WireOperand};
use heax_server::HeaxServer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations at or above this size count as large: a Set-A limb
/// polynomial (4096 words × 2 limbs) is exactly this big.
const LARGE: usize = 64 * 1024;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        // `try_with` so allocations during TLS setup/teardown never
        // recurse or abort; they simply go uncounted.
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
                if size >= LARGE {
                    let _ = LARGE_ALLOCS.try_with(|a| a.set(a.get() + 1));
                }
            }
        });
    }
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; `record()` only bumps thread-local counters and never
// allocates, so re-entrancy into the allocator is impossible.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting enabled on this thread; returns its result
/// and the `(all, large)` allocation counts it made.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|a| a.set(0));
    LARGE_ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get), LARGE_ALLOCS.with(Cell::get))
}

/// Same-size request frames with distinct request ids.
fn frames(count: usize, payload: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let body = vec![i as u8; payload];
            wire::encode_frame(wire::WIRE_V2, MessageKind::Request, 1, i as u64, &body)
        })
        .collect()
}

#[test]
fn frame_assembler_is_allocation_free_per_frame_once_warm() {
    let frames = frames(24, 40_000);
    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    // 7 000-byte pushes straddle frame boundaries, so the steady state
    // includes compaction of partial frames.
    let run = |asm: &mut FrameAssembler| {
        let mut got = 0;
        for chunk in stream.chunks(7_000) {
            asm.push(chunk);
            while let Some(f) = asm.next_frame().expect("valid frames") {
                assert_eq!(f.len(), frames[got].len());
                got += 1;
            }
        }
        got
    };
    let mut asm = FrameAssembler::new();
    assert_eq!(run(&mut asm), frames.len());
    let (got, allocs, _) = count_allocs(|| run(&mut asm));
    assert_eq!(got, frames.len());
    assert_eq!(allocs, 0, "{allocs} allocations for {got} pushed frames");

    // The socket path: reads land straight in the intake buffer.
    let read = |asm: &mut FrameAssembler| {
        let mut src = stream.as_slice();
        let mut got = 0;
        while asm.read_from(&mut src).expect("in-memory reads") > 0 {
            while let Some(f) = asm.next_frame().expect("valid frames") {
                assert_eq!(f, frames[got].as_slice());
                got += 1;
            }
        }
        got
    };
    let mut asm = FrameAssembler::new();
    assert_eq!(read(&mut asm), frames.len());
    let (got, allocs, _) = count_allocs(|| read(&mut asm));
    assert_eq!(got, frames.len());
    assert_eq!(allocs, 0, "{allocs} allocations for {got} read frames");
}

#[test]
fn inprocess_set_a_add_makes_at_most_five_large_allocations_per_request() {
    const BATCH: usize = 8;
    let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA).unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xADD);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pt = CkksEncoder::new(&ctx)
        .encode_real(&[1.5, -0.25], ctx.params().scale(), ctx.max_level())
        .unwrap();
    let a = serialize_ciphertext(&encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap());
    let b = serialize_ciphertext(&encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap());
    assert!(
        a.len() > 2 * LARGE,
        "Set-A ciphertexts are two 64 KiB polys"
    );

    let mut server = HeaxServer::new(&ctx, Board::stratix10())
        .unwrap()
        .with_executor(Arc::new(Sequential))
        .with_board_model(4)
        .unwrap();
    let opened = server.handle_frame(&client::open_session()).unwrap();
    let (sid, _, _) = client::parse_reply(&opened).unwrap();
    let requests: Vec<Vec<u8>> = (0..BATCH as u64)
        .map(|r| {
            let req = Request {
                op: OpCode::Add,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(&a), WireOperand::Inline(&b)],
            };
            client::request(sid, r, &req)
        })
        .collect();
    let serve = |server: &mut HeaxServer<'_>| {
        for frame in &requests {
            assert!(server.handle_frame(frame).is_none(), "queued");
        }
        server.flush()
    };

    // Warm-up: the reply buffer and the evaluator's scratch take shape.
    serve(&mut server);
    let warm = serve(&mut server);
    let (replies, _, large) = count_allocs(|| serve(&mut server));
    assert_eq!(replies, warm, "steady-state replies are deterministic");
    let per_request = large as f64 / BATCH as f64;
    assert!(
        per_request <= 5.0,
        "{large} allocations of 64 KiB or more for {BATCH} requests ({per_request} each)"
    );
}
