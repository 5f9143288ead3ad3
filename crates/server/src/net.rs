//! Real-socket nonblocking server runtime: a hand-rolled epoll event
//! loop multiplexing many concurrent TCP connections — each carrying
//! any number of sessions — onto the batch scheduler of
//! [`HeaxServer`].
//!
//! ## Runtime model
//!
//! [`NetServer`] owns a nonblocking [`TcpListener`], a level-triggered
//! readiness poller (the vendored `epoll` shim: raw Linux syscalls, no
//! `libc`, no tokio/mio — the same own-your-substrate policy as
//! `heax_math::exec`), and one `Conn` state machine per accepted
//! connection. A connection is a byte pipe, nothing more: frames may
//! arrive fragmented at any byte boundary and replies are written in
//! whatever chunks the socket accepts, with the remainder parked in a
//! per-connection write buffer until the peer drains it.
//!
//! Each [`NetServer::poll`] turn is one event-loop iteration: accept
//! pending connections, read every readable connection into its
//! [`FrameAssembler`], dispatch completed frames into the inner
//! [`HeaxServer`], decide whether to flush the batch queue, and write
//! pending reply bytes back out.
//!
//! ## One pass over the bytes
//!
//! Each inline ciphertext byte crosses the host once per direction.
//! Inbound, the socket `read`s straight into the connection's linear
//! intake buffer ([`ByteBuf`]) and a complete frame is handed to
//! [`HeaxServer::handle_frame`] as a slice borrowed from that buffer —
//! no bounce buffer, no per-frame copy. Outbound,
//! [`HeaxServer::flush_with`] serializes each result straight behind
//! its frame header and the runtime appends the borrowed frame to the
//! connection's write buffer. The loop is single-threaded by
//! design — parallelism lives *below* the server, in the executor's
//! limb lanes — so driving it from a test, a binary, or a bench loop
//! is the same `while … { poll() }`.
//!
//! ## Admission control and backpressure
//!
//! Request frames are admitted against [`NetConfig::max_queue_depth`]:
//! past the bound the request is answered immediately with the same
//! structured [`ErrorCode::LoadShed`] frame the [`crate::FlushPolicy`]
//! deadline machinery uses when a queued request's budget runs out —
//! one load-shedding vocabulary whether pressure shows up at the door
//! or inside the batch. A connection whose peer stops reading
//! (its write buffer exceeding [`NetConfig::max_write_buffer`]) is
//! dropped rather than allowed to wedge the loop.
//!
//! Key residency is not the transport's concern: the engine budgets
//! resident session keys in modeled board DRAM, evicts and rehydrates
//! them itself, and answers key-residency pressure with the same
//! `LoadShed` frame. [`NetConfig::key_cache_budget`] only sizes that
//! budget.
//!
//! ## Failure containment
//!
//! A hostile connection (bad frame magic, oversized frame) is answered
//! with a structured [`ErrorCode::Malformed`] error frame and dropped;
//! a dying or stalled connection is reaped; replies whose connection
//! is gone are discarded. None of it disturbs co-scheduled sessions:
//! the batch still flushes and every other connection's replies still
//! route. The loopback suites (`tests/net_loopback.rs`) pin this
//! behavior against the in-process server byte-for-byte.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;

use crate::error::ErrorCode;
use crate::server::HeaxServer;
use crate::wire::{self, MessageKind, FRAME_HEADER_LEN, FRAME_MAGIC};

/// Hard cap on a single frame's payload length accepted by the
/// transport (64 MiB). A header announcing more is a framing attack
/// (or a corrupt stream), not a request — the connection is dropped
/// with a structured error before any allocation of that size.
/// Pinned by PROTOCOL.md §7 and the heax-lint L6 rule.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// Poller token reserved for the listening socket.
const LISTENER_TOKEN: u64 = 0;

/// Least spare room a read is offered: below it the intake buffer
/// compacts or grows before the next `read`.
const READ_MIN: usize = 16 * 1024;

// ---------------------------------------------------------------------
// Byte buffer
// ---------------------------------------------------------------------

/// A linear byte buffer: live bytes are `data[head..tail]`, and the
/// spare room after `tail` is where a socket `read` lands directly.
/// Backs both directions of a connection — inbound bytes awaiting frame
/// assembly, handed out as borrowed contiguous frames, and outbound
/// reply bytes awaiting a writable socket, written in one call.
///
/// Consumed space is reclaimed for free when the buffer drains (both
/// ends reset to 0); the live remainder — at most a partial frame on
/// intake — is moved to the front only when the tail runs out of room,
/// and the allocation grows only if that is still not enough. So after
/// warm-up a connection moving same-size frames neither allocates nor
/// copies more than that remainder.
#[derive(Debug, Default)]
pub struct ByteBuf {
    data: Vec<u8>,
    head: usize,
    tail: usize,
}

impl ByteBuf {
    /// An empty buffer (first write allocates).
    pub fn new() -> Self {
        ByteBuf::default()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Current allocation size.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// The buffered bytes, contiguous.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.head..self.tail]
    }

    /// Makes room for at least `min` bytes after the tail: compacts the
    /// live bytes to the front first, grows (doubling) only if that is
    /// not enough.
    fn reserve(&mut self, min: usize) {
        if self.data.len() - self.tail >= min {
            return;
        }
        if self.head > 0 {
            self.data.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.data.len() - self.tail < min {
            let cap = (self.tail + min).max(2 * self.data.len());
            self.data.resize(cap, 0);
        }
    }

    /// Appends `bytes` at the tail.
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.data[self.tail..self.tail + bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// One `read` from `src` straight into the spare room after the
    /// tail (at least 16 KiB of it); returns the byte count, `0`
    /// meaning end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.reserve(READ_MIN);
        let n = src.read(&mut self.data[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Drops up to `n` bytes from the head; returns the number dropped.
    pub fn consume(&mut self, n: usize) -> usize {
        let n = n.min(self.len());
        self.head += n;
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        n
    }

    /// Consumes the first `n` buffered bytes (`n <= len`) and returns
    /// them, still in place: consuming never moves or overwrites bytes,
    /// so the slice stays valid until the next write to the buffer.
    fn split_front(&mut self, n: usize) -> &[u8] {
        let start = self.head;
        let n = self.consume(n);
        &self.data[start..start + n]
    }
}

// ---------------------------------------------------------------------
// Frame assembly
// ---------------------------------------------------------------------

/// A framing-layer violation: the stream can no longer be trusted to
/// contain frames, so the connection must be dropped (after a
/// best-effort structured error frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameIntakeError {
    /// The next 4 buffered bytes are not the `"HEAW"` frame magic —
    /// either garbage or a desynchronized stream.
    BadMagic,
    /// The header announces a payload larger than the transport accepts.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The transport's cap ([`MAX_FRAME_PAYLOAD`] by default).
        max: u32,
    },
}

impl std::fmt::Display for FrameIntakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameIntakeError::BadMagic => write!(f, "bad frame magic"),
            FrameIntakeError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameIntakeError {}

/// Incremental frame assembly over an arbitrarily fragmented byte
/// stream: read (or push) whatever the socket produced, take complete
/// frames as slices borrowed from the intake buffer — no per-frame copy
/// or allocation.
///
/// The assembler validates only what framing needs — the magic and the
/// payload-length bound. Version, kind, and body validation stay with
/// [`wire::decode_frame`] / the server, so a well-framed-but-invalid
/// message is answered with an error frame while the connection lives
/// on; only unframeable bytes kill the connection.
///
/// Standalone (no socket) by design: the fragmentation proptests in
/// `tests/net_props.rs` drive it byte-at-a-time and in random chunks
/// and require the decoded requests to be identical to whole-buffer
/// decoding.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: ByteBuf,
    max_payload: u32,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An assembler with the default [`MAX_FRAME_PAYLOAD`] cap.
    pub fn new() -> Self {
        FrameAssembler::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// An assembler with an explicit payload cap (tests use tiny caps
    /// to exercise the oversize path cheaply).
    pub fn with_max_payload(max_payload: u32) -> Self {
        FrameAssembler {
            buf: ByteBuf::new(),
            max_payload,
        }
    }

    /// Feeds bytes received from the stream, in any fragmentation.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push_slice(bytes);
    }

    /// One `read` from `src` straight into the intake buffer (no bounce
    /// copy); returns the byte count, `0` meaning end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.buf.read_from(src)
    }

    /// Bytes buffered but not yet returned as a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; a complete frame is returned
    /// with header and payload as one slice borrowed from the intake
    /// buffer (exactly what [`HeaxServer::handle_frame`] expects), valid
    /// until the assembler is next fed.
    ///
    /// # Errors
    ///
    /// [`FrameIntakeError`] when the buffered bytes cannot be the start
    /// of a frame; the stream is beyond recovery and the connection
    /// must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameIntakeError> {
        let Some(header) = self.buf.as_slice().get(..FRAME_HEADER_LEN) else {
            return Ok(None);
        };
        if header[..4] != FRAME_MAGIC {
            return Err(FrameIntakeError::BadMagic);
        }
        // Payload length: the little-endian u32 closing the header
        // (after magic, version, kind, session, request).
        let len = u32::from_le_bytes([header[22], header[23], header[24], header[25]]);
        if len > self.max_payload {
            return Err(FrameIntakeError::Oversized {
                len,
                max: self.max_payload,
            });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        Ok(Some(self.buf.split_front(total)))
    }
}

// ---------------------------------------------------------------------
// Configuration and counters
// ---------------------------------------------------------------------

/// Tunables of the socket runtime.
///
/// The admission bound (`max_queue_depth`) is the transport half of
/// the [`FlushPolicy`] load-shedding contract: the policy sheds queued
/// requests whose modeled deadline budget runs out, the transport
/// sheds at the door once the queue is this deep — both answer with
/// [`ErrorCode::LoadShed`] so clients see one backpressure vocabulary.
///
/// [`FlushPolicy`]: crate::server::FlushPolicy
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Accepted-connection cap; connections past it are refused at
    /// accept time.
    pub max_conns: usize,
    /// Queue-depth bound for request admission; requests arriving at a
    /// deeper queue are answered with a load-shed error frame.
    pub max_queue_depth: usize,
    /// Per-connection write-buffer cap: a peer that stops reading until
    /// this many reply bytes pile up is dropped (stalled-reader
    /// containment).
    pub max_write_buffer: usize,
    /// Per-frame payload cap fed to each connection's
    /// [`FrameAssembler`].
    pub max_frame_payload: u32,
    /// Byte budget of the engine's resident session keys; `0` keeps the
    /// engine's default of one eighth of the modeled board's free DRAM.
    pub key_cache_budget: u64,
    /// Flush the batch queue as soon as this many requests are pending.
    pub flush_threshold: usize,
    /// Flush whenever a poll turn ingests no new frame and requests are
    /// pending (latency floor for idle periods). Tests that script
    /// exact batch boundaries turn this off and call
    /// [`NetServer::flush_now`] themselves.
    pub flush_on_idle: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 4096,
            max_queue_depth: 1024,
            max_write_buffer: 8 * 1024 * 1024,
            max_frame_payload: MAX_FRAME_PAYLOAD,
            key_cache_budget: 0,
            flush_threshold: 64,
            flush_on_idle: true,
        }
    }
}

/// Counters of the socket runtime (all saturating), one layer above
/// the inner server's [`ServerStats`](crate::ServerStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the `max_conns` cap.
    pub refused: u64,
    /// Connections that closed or errored from the peer side.
    pub disconnects: u64,
    /// Connections dropped for framing violations (bad magic, oversized
    /// frame), each answered first with a structured error frame.
    pub hostile_drops: u64,
    /// Connections dropped because their write buffer exceeded the cap
    /// (peer stopped reading).
    pub overflow_drops: u64,
    /// Complete frames assembled and dispatched.
    pub frames_in: u64,
    /// Reads that ended with a partial frame still buffered — the
    /// fragmentation reality the assembler exists for.
    pub partial_frame_reads: u64,
    /// Writes that could not take the whole pending reply in one call.
    pub short_writes: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Requests answered with a load-shed error at the admission queue
    /// bound (the engine's own sheds count in
    /// [`ServerStats::shed_requests`](crate::ServerStats::shed_requests)).
    pub admission_sheds: u64,
    /// Flushes the runtime triggered.
    pub flushes: u64,
    /// Replies routed back to their submitting connection.
    pub replies_routed: u64,
    /// Replies whose connection died before the batch finished.
    pub orphaned_replies: u64,
    /// Sessions whose keys the engine evicted (its
    /// [`ServerStats::key_evictions`](crate::ServerStats::key_evictions)).
    pub key_evictions: u64,
    /// Evicted sessions the engine made resident again (its
    /// [`ServerStats::key_reregistrations`](crate::ServerStats::key_reregistrations)).
    pub key_restores: u64,
    /// Most connections ever open at once.
    pub conns_high_water: u64,
}

/// What one [`NetServer::poll`] turn did — handy for driving tests and
/// closed-loop benches without peeking at internals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetTick {
    /// Connections accepted this turn.
    pub accepted: usize,
    /// Complete frames ingested this turn.
    pub frames: usize,
    /// Replies routed (flush output) this turn.
    pub replies: usize,
    /// Connections dropped this turn (any cause).
    pub dropped: usize,
    /// Whether this turn flushed the batch queue.
    pub flushed: bool,
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Per-connection state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    out: ByteBuf,
    /// Interest bits currently registered with the poller.
    interest: u32,
    /// Marked for reaping at the end of the poll turn.
    dying: bool,
}

/// The nonblocking TCP runtime around a [`HeaxServer`] (see the module
/// docs for the serving model).
#[derive(Debug)]
pub struct NetServer<'a> {
    listener: TcpListener,
    poller: epoll::Poller,
    events: Vec<epoll::Event>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connection token owed the reply at each queue position.
    pending: VecDeque<u64>,
    config: NetConfig,
    stats: NetStats,
    inner: HeaxServer<'a>,
}

impl<'a> NetServer<'a> {
    /// Binds a listener and wraps the given engine in the socket
    /// runtime. Bind to port 0 for an ephemeral port
    /// ([`NetServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Socket or poller creation failure.
    pub fn bind(addr: &str, mut inner: HeaxServer<'a>, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = epoll::Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, epoll::READABLE)?;
        if config.key_cache_budget != 0 {
            inner.set_key_budget(config.key_cache_budget);
        }
        Ok(NetServer {
            listener,
            poller,
            events: Vec::new(),
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            pending: VecDeque::new(),
            config,
            stats: NetStats::default(),
            inner,
        })
    }

    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// The raw `getsockname` failure, if any.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The inner engine (stats, queue inspection).
    pub fn server(&self) -> &HeaxServer<'a> {
        &self.inner
    }

    /// Mutable access to the inner engine (tests attach models and
    /// policies through the builder before `bind`; this is for
    /// inspection-with-side-effects like `stats()`).
    pub fn server_mut(&mut self) -> &mut HeaxServer<'a> {
        &mut self.inner
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> NetStats {
        let (key_evictions, key_restores) = self.inner.key_counters();
        NetStats {
            key_evictions,
            key_restores,
            ..self.stats
        }
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Requests queued in the batch whose replies are still owed to
    /// connections.
    pub fn pending_replies(&self) -> usize {
        self.pending.len()
    }

    /// Runs one event-loop turn: wait up to `timeout_ms` for readiness
    /// (`0` = nonblocking), accept/read/dispatch, auto-flush per
    /// config, write, reap.
    ///
    /// # Errors
    ///
    /// Only poller-level failures; per-connection socket errors are
    /// contained (the connection is dropped, the loop lives).
    pub fn poll(&mut self, timeout_ms: i32) -> io::Result<NetTick> {
        let mut tick = NetTick::default();
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(&mut events, timeout_ms)?;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                tick.accepted = tick.accepted.saturating_add(self.accept_ready());
            } else if self.conns.contains_key(&ev.token) {
                if ev.is_readable() {
                    tick.frames = tick.frames.saturating_add(self.read_ready(ev.token));
                }
                if ev.is_writable() {
                    self.write_ready(ev.token);
                }
            }
        }
        self.events = events;
        let depth = self.inner.queue_depth();
        if depth > 0
            && (depth >= self.config.flush_threshold
                || (self.config.flush_on_idle && tick.frames == 0))
        {
            tick.replies = tick.replies.saturating_add(self.flush_now());
            tick.flushed = true;
        }
        // Write pass: push out whatever the sockets will take now.
        let writable: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.out.is_empty() && !c.dying)
            .map(|(&t, _)| t)
            .collect();
        for token in writable {
            self.write_ready(token);
        }
        tick.dropped = tick.dropped.saturating_add(self.reap());
        Ok(tick)
    }

    /// Drains the batch queue now and routes every reply to its
    /// connection; returns the number of replies routed (orphans
    /// included in the count's complement, see
    /// [`NetStats::orphaned_replies`]).
    pub fn flush_now(&mut self) -> usize {
        let NetServer {
            inner,
            pending,
            conns,
            poller,
            stats,
            config,
            ..
        } = self;
        let mut routed = 0;
        let replies = inner.flush_with(|reply| {
            // One route per queued request, submission order — the
            // flush contract.
            let Some(token) = pending.pop_front() else {
                return;
            };
            if enqueue_reply(conns, poller, stats, config, token, reply) {
                routed += 1;
                stats.replies_routed = stats.replies_routed.saturating_add(1);
            }
        });
        if replies > 0 {
            self.stats.flushes = self.stats.flushes.saturating_add(1);
        }
        routed
    }

    /// Accepts every pending connection; returns how many.
    fn accept_ready(&mut self) -> usize {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, epoll::READABLE)
                        .is_err()
                    {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            assembler: FrameAssembler::with_max_payload(
                                self.config.max_frame_payload,
                            ),
                            out: ByteBuf::new(),
                            interest: epoll::READABLE,
                            dying: false,
                        },
                    );
                    accepted += 1;
                    self.stats.accepted = self.stats.accepted.saturating_add(1);
                    self.stats.conns_high_water =
                        self.stats.conns_high_water.max(self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        accepted
    }

    /// Reads a readable connection to `WouldBlock` straight into its
    /// intake buffer, then dispatches each complete frame in place;
    /// returns the number of frames ingested.
    fn read_ready(&mut self, token: u64) -> usize {
        let Some(conn) = self.conns.get_mut(&token) else {
            return 0;
        };
        loop {
            match conn.assembler.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
                Ok(n) => {
                    self.stats.bytes_in = self.stats.bytes_in.saturating_add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
            }
        }
        // The assembler is lent out of the connection while its frames
        // are dispatched, so each frame stays borrowed from the intake
        // buffer while the engine and the reply path are reached.
        let mut assembler = std::mem::take(&mut conn.assembler);
        let mut count = 0;
        let mut hostile: Option<FrameIntakeError> = None;
        loop {
            match assembler.next_frame() {
                Ok(Some(frame)) => {
                    count += 1;
                    self.dispatch(token, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    hostile = Some(e);
                    break;
                }
            }
        }
        if hostile.is_none() && assembler.buffered() > 0 {
            self.stats.partial_frame_reads = self.stats.partial_frame_reads.saturating_add(1);
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.assembler = assembler;
        }
        self.stats.frames_in = self.stats.frames_in.saturating_add(count as u64);
        if let Some(e) = hostile {
            // Structured error frame, then the axe: the stream is
            // unframeable, so this is the last thing the peer hears.
            let payload = wire::encode_error(ErrorCode::Malformed, &e.to_string());
            let reply = wire::encode_frame(wire::WIRE_V1, MessageKind::Error, 0, 0, &payload);
            self.enqueue_reply(token, &reply);
            self.write_ready(token);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dying = true;
            }
            self.stats.hostile_drops = self.stats.hostile_drops.saturating_add(1);
        }
        count
    }

    /// Routes one complete frame: requests pass admission control, and
    /// every frame goes to the engine.
    fn dispatch(&mut self, token: u64, frame: &[u8]) {
        if let Ok(f) = wire::decode_frame(frame) {
            let depth = self.inner.queue_depth();
            if f.kind == MessageKind::Request && depth >= self.config.max_queue_depth {
                self.stats.admission_sheds = self.stats.admission_sheds.saturating_add(1);
                let msg = format!(
                    "queue depth {depth} at the {}-request admission bound",
                    self.config.max_queue_depth
                );
                let shed = self.shed_frame(f.version, f.session, f.request, &msg);
                self.enqueue_reply(token, &shed);
                return;
            }
        }
        // Undecodable frames are answered with a structured error by
        // the engine; the connection lives.
        match self.inner.handle_frame(frame) {
            None => self.pending.push_back(token),
            Some(reply) => {
                self.enqueue_reply(token, &reply);
            }
        }
    }

    /// A load-shed error frame at the peer's wire version.
    fn shed_frame(&self, version: u8, session: u64, request: u64, msg: &str) -> Vec<u8> {
        let payload = wire::encode_error(ErrorCode::LoadShed, msg);
        wire::encode_frame(version, MessageKind::Error, session, request, &payload)
    }

    /// Queues reply bytes on a connection's write buffer; `false` when
    /// the connection is gone or was dropped for overflow.
    fn enqueue_reply(&mut self, token: u64, bytes: &[u8]) -> bool {
        enqueue_reply(
            &mut self.conns,
            &self.poller,
            &mut self.stats,
            &self.config,
            token,
            bytes,
        )
    }

    /// Writes as much pending output as the socket takes.
    fn write_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.out.is_empty() {
            let slice = conn.out.as_slice();
            let want = slice.len();
            match conn.stream.write(slice) {
                Ok(0) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
                Ok(n) => {
                    self.stats.bytes_out = self.stats.bytes_out.saturating_add(n as u64);
                    conn.out.consume(n);
                    if n < want {
                        self.stats.short_writes = self.stats.short_writes.saturating_add(1);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.stats.short_writes = self.stats.short_writes.saturating_add(1);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
            }
        }
        conn.update_interest(&self.poller, token);
    }

    /// Removes every connection marked dying; returns how many.
    fn reap(&mut self) -> usize {
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dying)
            .map(|(&t, _)| t)
            .collect();
        for token in &dead {
            if let Some(conn) = self.conns.remove(token) {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
        }
        dead.len()
    }
}

/// Queues reply bytes on a connection's write buffer; `false` when the
/// connection is gone or was dropped for overflow. A free function over
/// the transport's fields so the flush callback can route replies while
/// the engine is borrowed.
fn enqueue_reply(
    conns: &mut HashMap<u64, Conn>,
    poller: &epoll::Poller,
    stats: &mut NetStats,
    config: &NetConfig,
    token: u64,
    bytes: &[u8],
) -> bool {
    let Some(conn) = conns.get_mut(&token) else {
        stats.orphaned_replies = stats.orphaned_replies.saturating_add(1);
        return false;
    };
    if conn.dying {
        stats.orphaned_replies = stats.orphaned_replies.saturating_add(1);
        return false;
    }
    if conn.out.len() + bytes.len() > config.max_write_buffer {
        // Stalled reader: the peer owes us a read before it gets more
        // replies; containment is dropping it, not buffering without
        // bound.
        conn.dying = true;
        stats.overflow_drops = stats.overflow_drops.saturating_add(1);
        stats.orphaned_replies = stats.orphaned_replies.saturating_add(1);
        return false;
    }
    conn.out.push_slice(bytes);
    conn.update_interest(poller, token);
    true
}

impl Conn {
    /// Re-arms the poller with `READABLE` (+ `WRITABLE` while output is
    /// pending), skipping the syscall when nothing changed.
    fn update_interest(&mut self, poller: &epoll::Poller, token: u64) {
        let want = if self.out.is_empty() {
            epoll::READABLE
        } else {
            epoll::READABLE | epoll::WRITABLE
        };
        if want != self.interest && poller.modify(self.stream.as_raw_fd(), token, want).is_ok() {
            self.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ----- ByteBuf -----

    #[test]
    fn bytebuf_push_consume_compacts_in_place() {
        let mut b = ByteBuf::new();
        assert!(b.is_empty());
        b.push_slice(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_slice(), b"hello");
        assert_eq!(b.consume(2), 2);
        assert_eq!(b.as_slice(), b"llo");
        // Fill to the allocation's end, drain most of it, and push past
        // the end: the live remainder moves to the front instead of the
        // buffer growing.
        b.consume(3);
        b.push_slice(&[7u8; 100]);
        let cap = b.capacity();
        b.push_slice(&vec![7u8; cap - 100]);
        b.consume(cap - 10);
        b.push_slice(b"abcdefghij");
        assert_eq!(b.capacity(), cap, "compaction, not growth");
        assert_eq!(b.len(), 20);
        assert_eq!(&b.as_slice()[..10], &[7u8; 10]);
        assert_eq!(&b.as_slice()[10..], b"abcdefghij");
        // Totality: over-consume is clamped, and draining resets.
        b.push_slice(b"xy");
        assert_eq!(b.consume(99), 22);
        assert!(b.is_empty());
        assert_eq!(b.consume(1), 0);
    }

    #[test]
    fn bytebuf_empty_push_is_a_no_op_even_before_first_allocation() {
        let mut b = ByteBuf::new();
        b.push_slice(&[]);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
        b.push_slice(b"abc");
        b.push_slice(&[]);
        assert_eq!(b.as_slice(), b"abc");
    }

    #[test]
    fn bytebuf_growth_preserves_order() {
        let mut b = ByteBuf::new();
        let mut next = 0u32;
        for i in 0..1000u32 {
            b.push_slice(&i.to_le_bytes());
            // Interleaved partial drains make growth and compaction
            // both happen with live bytes in the buffer.
            if i % 3 == 0 {
                assert_eq!(b.split_front(4), next.to_le_bytes());
                next += 1;
            }
        }
        while next < 1000 {
            assert_eq!(b.split_front(4), next.to_le_bytes());
            next += 1;
        }
        assert!(b.is_empty());
    }

    #[test]
    fn bytebuf_reads_straight_into_spare_room() {
        let src: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
        let mut reader = src.as_slice();
        let mut b = ByteBuf::new();
        while b.read_from(&mut reader).unwrap() > 0 {}
        assert_eq!(b.as_slice(), src.as_slice());
    }

    // ----- FrameAssembler -----

    fn sample_frames() -> Vec<Vec<u8>> {
        vec![
            wire::client::open_session(),
            wire::encode_frame(wire::WIRE_V2, MessageKind::CloseSession, 3, 9, &[]),
            wire::encode_frame(wire::WIRE_V1, MessageKind::Request, 1, 2, &[1, 2, 3, 4]),
        ]
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.push(&[b]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_rejects_bad_magic_and_oversize() {
        let mut asm = FrameAssembler::new();
        asm.push(b"GARBAGE-GARBAGE-GARBAGE-GARBAGE");
        assert_eq!(asm.next_frame(), Err(FrameIntakeError::BadMagic));

        let mut tiny = FrameAssembler::with_max_payload(8);
        let frame = wire::encode_frame(wire::WIRE_V1, MessageKind::Request, 1, 1, &[0u8; 9]);
        tiny.push(&frame);
        assert_eq!(
            tiny.next_frame(),
            Err(FrameIntakeError::Oversized { len: 9, max: 8 })
        );
    }

    #[test]
    fn assembler_needs_full_header_and_payload() {
        let frame = wire::client::open_session();
        let mut asm = FrameAssembler::new();
        asm.push(&frame[..FRAME_HEADER_LEN - 1]);
        assert_eq!(asm.next_frame().unwrap(), None);
        asm.push(&frame[FRAME_HEADER_LEN - 1..]);
        assert_eq!(asm.next_frame().unwrap(), Some(frame.as_slice()));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = NetConfig::default();
        assert!(c.max_conns > 0 && c.max_queue_depth > 0);
        assert_eq!(c.max_frame_payload, MAX_FRAME_PAYLOAD);
        assert!(c.flush_on_idle);
    }
}
