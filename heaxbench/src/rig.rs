//! The loopback leg: `NetServer` on its own thread, the load generator
//! on the calling thread, two TCP connections between them.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use heax_hw::board::Board;
use heax_math::exec::Sequential;
use heax_server::net::{NetConfig, NetServer, NetStats};
use heax_server::wire::{self, client, MessageKind, ReplyBody, FRAME_HEADER_LEN, FRAME_MAGIC};
use heax_server::{ErrorCode, HeaxServer, ServerStats};
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::{Tracer, ROOT};
use crate::workload::{Burst, Inputs, Kind, SessionKeys};

/// Connections between the generator and the server.
pub const CONNS: usize = 2;
/// One burst in this many is kept for the correctness gate.
const SAMPLE_EVERY: u32 = 16;

/// Server-side counters at one instant.
#[derive(Clone, Debug)]
pub struct Snap {
    /// Socket runtime counters.
    pub net: NetStats,
    /// Engine counters.
    pub server: ServerStats,
    /// Seconds spent in `NetServer::poll` turns that did work.
    pub poll_busy_s: f64,
    /// CPU time the server thread has run, seconds. Read from the
    /// scheduler, so time the host stole from the virtual CPU is not in
    /// it.
    pub cpu_s: f64,
}

/// CPU time the calling thread has run, seconds (0 where the kernel
/// does not report it).
pub fn thread_cpu_s() -> f64 {
    schedstat_s("/proc/thread-self/schedstat")
}

/// CPU time the process's live threads have run, seconds. A thread that
/// has ended no longer counts, so differences are taken only over spans
/// in which no thread ends.
pub fn process_cpu_s() -> f64 {
    std::fs::read_dir("/proc/self/task").map_or(0.0, |tasks| {
        tasks
            .filter_map(Result::ok)
            .map(|t| schedstat_s(t.path().join("schedstat")))
            .sum()
    })
}

/// The run time a `schedstat` file reports, seconds (0 if unreadable).
fn schedstat_s(path: impl AsRef<std::path::Path>) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

enum Ctl {
    Snapshot(mpsc::Sender<Snap>),
    Trace(bool),
    Stop,
}

/// The server thread: binds, reports its address, then polls until
/// told to stop. Returns its spans.
fn serve(
    inputs: &Inputs,
    config: NetConfig,
    epoch: Instant,
    ready: mpsc::Sender<io::Result<SocketAddr>>,
    ctl: mpsc::Receiver<Ctl>,
) -> io::Result<Tracer> {
    let inner = HeaxServer::new(&inputs.ctx, Board::stratix10())
        .map_err(|e| io::Error::other(e.to_string()))?
        .with_executor(Arc::new(Sequential));
    let mut net = match NetServer::bind("127.0.0.1:0", inner, config) {
        Ok(net) => net,
        Err(e) => {
            let _ = ready.send(Err(io::Error::new(e.kind(), e.to_string())));
            return Err(e);
        }
    };
    let _ = ready.send(net.local_addr());
    let mut tracer = Tracer::off(epoch);
    let mut busy_s = 0.0;
    let mut turn = 0u64;
    let mut idle = true;
    loop {
        match ctl.try_recv() {
            Ok(Ctl::Snapshot(reply)) => {
                let _ = reply.send(Snap {
                    net: net.stats(),
                    server: net.server().stats(),
                    poll_busy_s: busy_s,
                    cpu_s: thread_cpu_s(),
                });
            }
            Ok(Ctl::Trace(on)) => {
                if on != tracer.enabled() {
                    let old = std::mem::replace(
                        &mut tracer,
                        if on {
                            Tracer::on(epoch)
                        } else {
                            Tracer::off(epoch)
                        },
                    );
                    tracer.absorb(old);
                }
            }
            Ok(Ctl::Stop) | Err(mpsc::TryRecvError::Disconnected) => break,
            Err(mpsc::TryRecvError::Empty) => {}
        }
        // Block only after an idle turn, so a busy turn's time is work,
        // not waiting for readiness.
        let before = net.stats();
        let start = Instant::now();
        let tick = net.poll(if idle { 1 } else { 0 })?;
        let end = Instant::now();
        let after = net.stats();
        idle = !(tick.flushed
            || tick.frames > 0
            || tick.accepted > 0
            || after.bytes_out != before.bytes_out
            || after.bytes_in != before.bytes_in);
        if !idle {
            busy_s += (end - start).as_secs_f64();
            tracer.record("net.poll", start, end, ROOT, turn);
        }
        turn += 1;
    }
    Ok(tracer)
}

/// One generator-side connection. Replies are parsed in place from a
/// reused buffer, so the generator allocates nothing per reply and
/// leaves the allocator to the server.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    inbuf: Vec<u8>,
    in_at: usize,
    interest: u32,
}

impl Conn {
    fn pump_out(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        } else if self.out_at > (4 << 20) {
            self.out.drain(..self.out_at);
            self.out_at = 0;
        }
        Ok(())
    }

    /// Reads everything available into the reply buffer.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if self.in_at == self.inbuf.len() {
            self.inbuf.clear();
            self.in_at = 0;
        } else if self.in_at > (4 << 20) {
            self.inbuf.drain(..self.in_at);
            self.in_at = 0;
        }
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The byte range of the next complete reply frame, if buffered.
    fn next_frame(&mut self) -> io::Result<Option<std::ops::Range<usize>>> {
        let rest = &self.inbuf[self.in_at..];
        if rest.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        if rest[..4] != FRAME_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply without frame magic",
            ));
        }
        let len = u32::from_le_bytes([rest[22], rest[23], rest[24], rest[25]]) as usize;
        let total = FRAME_HEADER_LEN + len;
        if rest.len() < total {
            return Ok(None);
        }
        let range = self.in_at..self.in_at + total;
        self.in_at += total;
        Ok(Some(range))
    }
}

/// How a phase offers load.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Keep this many bursts outstanding.
    Closed {
        /// Outstanding bursts.
        window: usize,
    },
    /// Poisson bursts at this many requests per second.
    Open {
        /// Offered requests per second.
        rps: f64,
        /// Outstanding requests past which the rung is abandoned as
        /// overloaded.
        cap: usize,
    },
}

/// A burst kept for the correctness gate, with every reply.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The burst.
    pub burst: Burst,
    /// Session id it was sent under.
    pub sid: u64,
    /// Request id of its first frame.
    pub first_request: u64,
    /// Reply frames, by position in the burst.
    pub replies: Vec<Option<Vec<u8>>>,
}

/// Outcome of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseOut {
    /// Length of the send window, seconds.
    pub window_s: f64,
    /// Successful replies received inside the send window.
    pub ok_in_window: u64,
    /// Latency of every answered request, ms from its burst's due time.
    pub latencies_ms: Vec<f64>,
    /// How late each burst went out, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Error replies other than load sheds.
    pub errors: u64,
    /// Load-shed replies.
    pub sheds: u64,
    /// Requests unanswered when the phase gave up waiting.
    pub timeouts: u64,
    /// Replies that did not match a request in flight: wrong kind or
    /// session, an unknown or repeated request id, or an undecodable
    /// frame (gate failures).
    pub mismatched: u64,
    /// Requests outstanding when the send window closed.
    pub backlog_end: u64,
    /// The open loop passed its outstanding cap and stopped early.
    pub overloaded: bool,
    /// Bursts kept for the gate.
    pub samples: Vec<Sample>,
}

struct InFlight {
    burst: usize,
    j: usize,
}

struct BurstState {
    burst: Burst,
    sid: u64,
    first_request: u64,
    due: Instant,
    remaining: usize,
    sample: Option<Vec<Option<Vec<u8>>>>,
}

/// The running loopback rig.
pub struct Rig<'scope> {
    conns: Vec<Conn>,
    poller: epoll::Poller,
    ctl: mpsc::Sender<Ctl>,
    handle: Option<ScopedJoinHandle<'scope, io::Result<Tracer>>>,
    /// Session id of each session index.
    sids: Vec<u64>,
    next_request: u64,
    /// Request ids an earlier phase gave up waiting for: the only
    /// replies a phase may receive that are not in flight.
    given_up: HashSet<u64>,
    events: Vec<epoll::Event>,
    buf: Vec<u8>,
}

/// Longest a phase waits for stragglers after its send window.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

impl<'scope> Rig<'scope> {
    /// Starts the server thread, connects, opens every session and
    /// registers its keys. `keep` lists the session indices whose keys
    /// are handed back (the in-process leg registers the same keys).
    ///
    /// # Errors
    ///
    /// Socket failures, or a server answer other than the expected one.
    pub fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        inputs: &'env Inputs,
        epoch: Instant,
        keep: &[usize],
    ) -> io::Result<(Self, HashMap<usize, SessionKeys>)> {
        let spec = inputs.spec;
        let mut kept = HashMap::new();
        let first_keys = inputs.session_keys(0);
        let per_session: u64 = [&first_keys.relin, &first_keys.galois]
            .iter()
            .map(|k| k.as_ref().map_or(0, |b| b.len() as u64))
            .sum();
        // chain-churn: only a quarter of the key working set resident.
        let key_cache_budget = if spec.kind == Kind::ChainChurn {
            per_session * spec.sessions as u64 / 4
        } else {
            0
        };
        let config = NetConfig {
            key_cache_budget,
            ..NetConfig::default()
        };
        let (ready_tx, ready_rx) = mpsc::channel();
        let (ctl_tx, ctl_rx) = mpsc::channel();
        let handle = scope.spawn(move || serve(inputs, config, epoch, ready_tx, ctl_rx));
        let addr = ready_rx
            .recv()
            .map_err(|_| io::Error::other("server thread ended before binding"))??;
        let poller = epoll::Poller::new()?;
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), c as u64, epoll::READABLE)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_at: 0,
                inbuf: Vec::new(),
                in_at: 0,
                interest: epoll::READABLE,
            });
        }
        let mut rig = Rig {
            conns,
            poller,
            ctl: ctl_tx,
            handle: Some(handle),
            sids: Vec::with_capacity(spec.sessions),
            next_request: 1,
            given_up: HashSet::new(),
            events: Vec::new(),
            buf: vec![0u8; 256 * 1024],
        };
        // Open every session over connection 0, in order.
        for _ in 0..spec.sessions {
            rig.conns[0].out.extend_from_slice(&client::open_session());
        }
        while rig.sids.len() < spec.sessions {
            for reply in rig.exchange()? {
                let (sid, _, r) = client::parse_reply(&reply).map_err(io::Error::other)?;
                if r != client::Reply::SessionOpened {
                    return Err(io::Error::other(format!("open session answered {r:?}")));
                }
                rig.sids.push(sid);
            }
        }
        if inputs.keyed() {
            let mut first = Some(first_keys);
            for index in 0..spec.sessions {
                let keys = first.take().unwrap_or_else(|| inputs.session_keys(index));
                let sid = rig.sids[index];
                let mut expected = 0;
                if let Some(k) = &keys.relin {
                    rig.conns[0]
                        .out
                        .extend_from_slice(&client::register_relin_key(sid, k));
                    expected += 1;
                }
                if let Some(k) = &keys.galois {
                    rig.conns[0]
                        .out
                        .extend_from_slice(&client::register_galois_keys(sid, k));
                    expected += 1;
                }
                while expected > 0 {
                    for reply in rig.exchange()? {
                        let (_, _, r) = client::parse_reply(&reply).map_err(io::Error::other)?;
                        if r != client::Reply::KeyRegistered {
                            return Err(io::Error::other(format!(
                                "key registration answered {r:?}"
                            )));
                        }
                        expected -= 1;
                    }
                }
                if keep.contains(&index) {
                    kept.insert(index, keys);
                }
            }
        }
        Ok((rig, kept))
    }

    /// One generator turn outside a phase: write, wait briefly, read.
    fn exchange(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let mut frames = Vec::new();
        for c in 0..self.conns.len() {
            self.conns[c].pump_out()?;
        }
        self.wait(1)?;
        for conn in &mut self.conns {
            conn.fill(&mut self.buf)?;
            while let Some(range) = conn.next_frame()? {
                frames.push(conn.inbuf[range].to_vec());
            }
        }
        Ok(frames)
    }

    /// Waits for readiness (or writability where bytes are pending).
    fn wait(&mut self, timeout_ms: i32) -> io::Result<()> {
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let want = if conn.out_at < conn.out.len() {
                epoll::READABLE | epoll::WRITABLE
            } else {
                epoll::READABLE
            };
            if want != conn.interest {
                self.poller
                    .modify(conn.stream.as_raw_fd(), c as u64, want)?;
                conn.interest = want;
            }
        }
        self.poller.wait(&mut self.events, timeout_ms)
    }

    /// A snapshot of the server's counters.
    ///
    /// # Errors
    ///
    /// The server thread has gone.
    pub fn snapshot(&self) -> io::Result<Snap> {
        let (tx, rx) = mpsc::channel();
        self.ctl
            .send(Ctl::Snapshot(tx))
            .map_err(|_| io::Error::other("server thread gone"))?;
        rx.recv()
            .map_err(|_| io::Error::other("server thread gone"))
    }

    /// Switches the server thread's span recording.
    pub fn set_trace(&self, on: bool) {
        let _ = self.ctl.send(Ctl::Trace(on));
    }

    /// Stops and joins the server thread; returns its spans.
    ///
    /// # Errors
    ///
    /// The server thread's own failure, or its panic.
    pub fn stop(mut self) -> io::Result<Tracer> {
        let _ = self.ctl.send(Ctl::Stop);
        match self.handle.take().map(ScopedJoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("server thread panicked")),
            None => Err(io::Error::other("server thread already joined")),
        }
    }

    /// Runs one phase of `dur` and waits for its replies. Bursts are
    /// drawn from `rng`; about one in [`SAMPLE_EVERY`], up to
    /// `max_samples`, is kept with its replies for the correctness gate.
    /// The cap keeps the kept replies from growing with the run, so the
    /// process's peak memory is the server's. Client send and receive
    /// spans go to `tracer`.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn run_phase(
        &mut self,
        inputs: &Inputs,
        mode: Mode,
        dur: Duration,
        max_samples: usize,
        rng: &mut StdRng,
        tracer: &mut Tracer,
    ) -> io::Result<PhaseOut> {
        let mut out = PhaseOut {
            window_s: dur.as_secs_f64(),
            ..PhaseOut::default()
        };
        let mut inflight: HashMap<u64, InFlight> = HashMap::new();
        let mut bursts: Vec<BurstState> = Vec::new();
        let mut outstanding_bursts = 0usize;
        let mut sampled_bursts = 0usize;
        let start = Instant::now();
        let end = start + dur;
        let mut next_due = start;
        let mut window_closed = false;
        loop {
            let now = Instant::now();
            if now >= end && !window_closed {
                window_closed = true;
                out.backlog_end = inflight.len() as u64;
            }
            // Schedule what is due.
            loop {
                let due = match mode {
                    Mode::Closed { window } => {
                        if now >= end || outstanding_bursts >= window {
                            break;
                        }
                        now
                    }
                    Mode::Open { cap, .. } => {
                        if next_due > now || next_due >= end || out.overloaded {
                            break;
                        }
                        if inflight.len() > cap {
                            out.overloaded = true;
                            break;
                        }
                        next_due
                    }
                };
                let burst = inputs.next_burst(rng);
                let index = burst.session();
                let sid = self.sids[index];
                let first_request = self.next_request;
                self.next_request += burst.len() as u64;
                let c = index % CONNS;
                let send_start = Instant::now();
                inputs.write_burst(&burst, sid, first_request, &mut self.conns[c].out);
                self.conns[c].pump_out()?;
                tracer.record(
                    "client.send",
                    send_start,
                    Instant::now(),
                    ROOT,
                    first_request,
                );
                let b = bursts.len();
                for j in 0..burst.len() {
                    inflight.insert(first_request + j as u64, InFlight { burst: b, j });
                }
                out.attempted += burst.len() as u64;
                out.lag_ms.push((send_start - due).as_secs_f64() * 1e3);
                let sampled = rng.gen_range(0..SAMPLE_EVERY) == 0 && sampled_bursts < max_samples;
                sampled_bursts += usize::from(sampled);
                bursts.push(BurstState {
                    burst,
                    sid,
                    first_request,
                    due,
                    remaining: burst.len(),
                    sample: sampled.then(|| vec![None; burst.len()]),
                });
                outstanding_bursts += 1;
                if let Mode::Open { rps, .. } = mode {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let mean_s = burst.len() as f64 / rps;
                    next_due += Duration::from_secs_f64(-mean_s * (1.0 - u).ln());
                }
            }
            if window_closed && inflight.is_empty() {
                break;
            }
            if now >= end + DRAIN_LIMIT {
                out.timeouts = inflight.len() as u64;
                self.given_up.extend(inflight.keys());
                break;
            }
            for conn in &mut self.conns {
                conn.pump_out()?;
            }
            // Sleep until the next due time (or a reply). The wait has
            // millisecond resolution and the generator never spins: on a
            // 2-vCPU host a spinning generator takes CPU time from the
            // server. Lateness is counted in the latency and reported.
            let timeout_ms = match mode {
                Mode::Open { .. } if !out.overloaded && next_due < end => {
                    let ms = next_due
                        .saturating_duration_since(Instant::now())
                        .as_secs_f64()
                        * 1e3;
                    ms.ceil().clamp(0.0, 50.0) as i32
                }
                _ => 1,
            };
            self.wait(timeout_ms)?;
            let recv_start = Instant::now();
            for conn in &mut self.conns {
                conn.fill(&mut self.buf)?;
            }
            let at = Instant::now();
            let mut received = 0usize;
            for conn in &mut self.conns {
                while let Some(range) = conn.next_frame()? {
                    received += 1;
                    let frame = &conn.inbuf[range];
                    let Ok(decoded) = wire::decode_frame(frame) else {
                        out.mismatched += 1;
                        continue;
                    };
                    let Some(slot) = inflight.remove(&decoded.request) else {
                        // Only a straggler of a phase that timed out may
                        // arrive unasked; anything else is a reply the
                        // server sent twice or under a wrong id.
                        if !self.given_up.remove(&decoded.request) {
                            out.mismatched += 1;
                        }
                        continue;
                    };
                    let st = &mut bursts[slot.burst];
                    let ok = match decoded.kind {
                        MessageKind::Response => {
                            let want_parked = matches!(
                                st.burst.expect(slot.j, &inputs.vals),
                                crate::workload::Expect::Parked(_)
                            );
                            let got_parked = matches!(
                                wire::decode_reply(decoded.payload),
                                Ok(ReplyBody::Parked(_))
                            );
                            if want_parked != got_parked || decoded.session != st.sid {
                                out.mismatched += 1;
                            }
                            true
                        }
                        MessageKind::Error => {
                            let (code, _) = wire::decode_error(decoded.payload);
                            if code == ErrorCode::LoadShed {
                                out.sheds = out.sheds.saturating_add(1);
                            } else {
                                out.errors = out.errors.saturating_add(1);
                            }
                            false
                        }
                        _ => {
                            out.mismatched += 1;
                            false
                        }
                    };
                    out.latencies_ms.push((at - st.due).as_secs_f64() * 1e3);
                    if ok && at <= end {
                        out.ok_in_window += 1;
                    }
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        outstanding_bursts -= 1;
                    }
                    if let Some(replies) = st.sample.as_mut() {
                        replies[slot.j] = Some(frame.to_vec());
                    }
                }
            }
            if received == 0 {
                continue;
            }
            tracer.record("client.recv", recv_start, Instant::now(), ROOT, 0);
        }
        out.samples = bursts
            .into_iter()
            .filter_map(|st| {
                st.sample.map(|replies| Sample {
                    burst: st.burst,
                    sid: st.sid,
                    first_request: st.first_request,
                    replies,
                })
            })
            .collect();
        Ok(out)
    }
}
