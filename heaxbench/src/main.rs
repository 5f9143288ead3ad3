//! The repository benchmark. One run serves one workload end to end:
//! over loopback TCP into `NetServer` and in-process through
//! `HeaxServer::handle_frame` + `flush`, checks the replies, and prints
//! one JSON line of metrics. `--trace 1` runs the traced variant, which
//! prints the per-layer metrics instead.
//!
//! Usage: `heaxbench --workload <add-bytes|rotate-hoist|chain-churn>
//! --seed <n> --seconds <s> --trace <0|1>` (see `heaxbench/README.md`).

mod gate;
mod inproc;
mod replay;
mod rig;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use heax_math::exec::{Executor, Sequential};
use heax_server::wire::{self, ReplyBody};
use heax_server::{OpCode, ServerStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gate::Gate;
use crate::inproc::{composition, sessions_used, InProc, InprocOut};
use crate::rig::{process_cpu_s, Mode, PhaseOut, Rig, Snap};
use crate::trace::Tracer;
use crate::workload::{Inputs, Spec, HIGH, LOW};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Fewest full set-ups per run; `setup_s` is the median of all of them.
const SETUP_MIN: usize = 3;
/// Most full set-ups per run.
const SETUP_MAX: usize = 9;
/// Set-ups continue past `SETUP_MIN` while they have taken less than
/// this in all (cheap set-ups get more repetitions).
const SETUP_BUDGET_S: f64 = 1.5;
/// Most sampled bursts kept (and checked) per gated phase.
const MAX_CHECKED: usize = 8;
/// Interleaved rounds of the untraced run's legs.
const ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Median of a sample (sorts it); 0 for an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile (sorts the sample); 0 for an empty sample.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks `(steal, total)` from `/proc/stat`: on a shared
/// virtual machine, steal is time the host ran something else while
/// this machine's CPUs wanted to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// UTC date `YYYY-MM-DD` of the current time.
fn utc_date() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400) as i64;
    // Civil-from-days (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The commit the sources came from, when the checkout is a git work
/// tree (read from `.git` directly; no process is started).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        rev.to_string()
    }
}

/// Metric name → (value, unit), printed in name order.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(
        name.to_string(),
        (if value.is_finite() { value } else { 0.0 }, unit),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one run measured, before it becomes metrics.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    gate_failures: Vec<String>,
    checked: (u64, u64),
    metrics: Metrics,
}

impl Run {
    fn absorb_phase(&mut self, p: &PhaseOut) {
        self.attempted += p.attempted;
        self.failed += p.errors + p.sheds + p.timeouts + p.mismatched;
        if p.mismatched > 0 {
            self.gate_failures.push(format!(
                "{} replies did not match their requests",
                p.mismatched
            ));
        }
    }

    fn absorb_inproc(&mut self, o: &InprocOut) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

fn find_spec(name: &str) -> Result<&'static Spec, String> {
    workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; expected one of {names:?}")
    })
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| find_spec(&a.workload).map(|s| (a, s))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("heaxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (args, spec) = args;
    let ticks_start = cpu_ticks();
    match run(&args, spec) {
        Ok(run) => {
            let correct = run.gate_failures.is_empty();
            for f in run.gate_failures.iter().take(20) {
                eprintln!("gate failure: {f}");
            }
            eprintln!(
                "gate: {} replies decrypt-checked, {} byte-compared against the mirror",
                run.checked.0, run.checked.1
            );
            let steal = match (ticks_start, cpu_ticks()) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
                _ => -1.0,
            };
            let provenance = format!(
                "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
                 \"trace\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \"executor_lanes\": {}, \
                 \"profile\": \"{}\", \"date\": \"{}\", \"host_steal_frac\": {steal:.4}}}}}",
                spec.name,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                git_rev(),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                Sequential.threads(),
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
                utc_date(),
            );
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect();
            let stdout = io::stdout();
            let mut out = stdout.lock();
            let _ = writeln!(out, "{provenance}");
            let _ = writeln!(
                out,
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                run.attempted.max(1),
                run.failed,
                metrics.join(", ")
            );
            let _ = out.flush();
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("heaxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Seconds for a phase that takes `share` of the run.
fn phase(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64((args.seconds * share).max(0.2))
}

fn run(args: &Args, spec: &'static Spec) -> io::Result<Run> {
    let epoch = Instant::now();
    let mut setups: Vec<f64> = Vec::with_capacity(SETUP_MAX);
    for rep in 0..SETUP_MAX {
        let t0 = Instant::now();
        let cpu0 = process_cpu_s();
        let inputs = Inputs::new(spec, args.seed);
        let comp = composition(&inputs);
        let used = sessions_used(&comp);
        let result = std::thread::scope(|scope| -> io::Result<Option<Run>> {
            let (rig, keys) = Rig::start(scope, &inputs, epoch, &used)?;
            let inproc = InProc::new(&inputs, &comp, &keys);
            drop(keys);
            // Billed in CPU time of every thread: on a shared host the
            // wall time of a set-up, with its many hand-offs between the
            // two threads, moved up to 2.5x with the host's load.
            setups.push(process_cpu_s() - cpu0);
            eprintln!(
                "{}: set-up {} took {:.3} s of CPU time in {:.3} s",
                spec.name,
                rep + 1,
                setups[rep],
                t0.elapsed().as_secs_f64()
            );
            let spent: f64 = setups.iter().sum();
            if rep + 1 < SETUP_MIN || (rep + 1 < SETUP_MAX && spent < SETUP_BUDGET_S) {
                rig.stop()?;
                return Ok(None);
            }
            let mut setups = setups.clone();
            let setup_s = median(&mut setups);
            if args.trace {
                traced(args, &inputs, rig, inproc, epoch).map(Some)
            } else {
                untraced(args, &inputs, rig, inproc, epoch, setup_s).map(Some)
            }
        })?;
        if let Some(run) = result {
            return Ok(run);
        }
    }
    unreachable!("the last set-up always runs")
}

/// Checks the sampled loopback bursts and the first in-process cycle.
fn check(run: &mut Run, inputs: &Inputs, phases: &[&PhaseOut], inproc: &InprocOut) {
    let mut gate = Gate::new(inputs);
    for p in phases {
        for s in &p.samples {
            gate.check(
                "loopback",
                &s.burst,
                s.sid,
                s.first_request,
                &s.replies,
                true,
            );
        }
    }
    let mut kept = 0;
    for flush in &inproc.kept {
        let mut at = 0;
        for &(burst, sid, first) in &flush.bursts {
            let replies: Vec<Option<Vec<u8>>> = flush.replies[at..at + burst.len()]
                .iter()
                .cloned()
                .map(Some)
                .collect();
            at += burst.len();
            if kept < MAX_CHECKED {
                gate.check("in-process", &burst, sid, first, &replies, false);
                kept += 1;
            }
        }
    }
    run.checked = (gate.decrypted, gate.byte_compared);
    run.gate_failures.extend(gate.failures);
}

/// Runs one open-loop rung at `rps` for `dur`; returns it and whether
/// it met the workload's latency limit with no growing backlog.
fn rung(
    rig: &mut Rig<'_>,
    inputs: &Inputs,
    rps: f64,
    dur: Duration,
    rng: &mut StdRng,
    run: &mut Run,
) -> io::Result<(PhaseOut, bool)> {
    let spec = inputs.spec;
    let cap = (rps * spec.limit_ms / 1e3 * 4.0).max(64.0) as usize;
    let mut off = Tracer::off(Instant::now());
    let p = rig.run_phase(
        inputs,
        Mode::Open { rps, cap },
        dur,
        MAX_CHECKED,
        rng,
        &mut off,
    )?;
    run.absorb_phase(&p);
    let mut lat = p.latencies_ms.clone();
    let p99 = percentile(&mut lat, 99.0);
    let meets = p99 <= spec.limit_ms
        && !p.overloaded
        && p.errors + p.sheds + p.timeouts == 0
        && (p.backlog_end as f64) <= rps * spec.limit_ms / 1e3;
    eprintln!(
        "{}: rung {rps} req/s: p50 {:.2} ms, p90 {:.2} ms, p99 {p99:.2} ms, max {:.2} ms \
         over {} replies, backlog {}{}",
        spec.name,
        percentile(&mut lat, 50.0),
        percentile(&mut lat, 90.0),
        percentile(&mut lat, 100.0),
        lat.len(),
        p.backlog_end,
        if meets { "" } else { " (misses the limit)" }
    );
    Ok((p, meets))
}

/// The untraced run: every end-to-end metric.
fn untraced(
    args: &Args,
    inputs: &Inputs,
    mut rig: Rig<'_>,
    mut inproc: InProc<'_>,
    epoch: Instant,
    setup_s: f64,
) -> io::Result<Run> {
    let spec = inputs.spec;
    let mut run = Run::default();
    let mut off = Tracer::off(epoch);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4C4F_4144);
    let closed = Mode::Closed {
        window: spec.window,
    };

    // The two legs alternate over ROUNDS rounds, so a stretch of host
    // contention hits both a little rather than one whole. Every figure
    // is a total over the rounds, so an intermittent cost counts in
    // full.
    let (mut inproc_reqs, mut inproc_cpu_s) = (0u64, 0.0);
    let (mut sat_replies, mut sat_flushes, mut sat_s, mut sat_cpu_s) = (0u64, 0u64, 0.0, 0.0);
    let mut phases = Vec::new();
    // Warm-up of both legs, untimed: without it the first in-process
    // round runs slower (the heap has not reached its serving shape
    // yet). The in-process warm-up's first cycle is the one the gate
    // checks and `modeled_rps` prices.
    let warm = rig.run_phase(inputs, closed, phase(args, 0.05), 0, &mut rng, &mut off)?;
    run.absorb_phase(&warm);
    let io = inproc.run(phase(args, 0.05), &mut off, false);
    run.absorb_inproc(&io);
    let round = |share: f64| phase(args, share / ROUNDS as f64);
    for r in 0..ROUNDS {
        let leg = inproc.run(round(0.38), &mut off, false);
        run.absorb_inproc(&leg);
        inproc_reqs += leg.requests;
        inproc_cpu_s += leg.timed_cpu_s;
        // The closed loop, billed with the server thread's CPU time and
        // with wall time.
        let before = rig.snapshot()?;
        let wall = Instant::now();
        let sat = rig.run_phase(inputs, closed, round(0.52), MAX_CHECKED, &mut rng, &mut off)?;
        sat_s += wall.elapsed().as_secs_f64();
        let after = rig.snapshot()?;
        run.absorb_phase(&sat);
        let replies = after.net.replies_routed - before.net.replies_routed;
        let cpu_s = after.cpu_s - before.cpu_s;
        sat_replies += replies;
        sat_flushes += after.net.flushes - before.net.flushes;
        sat_cpu_s += cpu_s;
        eprintln!(
            "{}: round {r}: in-process {:.1} req/s; loopback {:.1} server CPU us per request",
            spec.name,
            ratio(leg.requests as f64, leg.timed_cpu_s),
            ratio(cpu_s * 1e6, replies as f64),
        );
        phases.push(sat);
    }
    let inproc_rps = ratio(inproc_reqs as f64, inproc_cpu_s);
    let sat_rps = ratio(sat_replies as f64, sat_s);
    let server_us = ratio(sat_cpu_s * 1e6, sat_replies as f64);
    // After every phase, so the figure covers the serving path.
    let rss_mib = peak_rss_mib();
    eprintln!(
        "{}: in-process {inproc_rps:.1} req/s; loopback {sat_rps:.1} req/s and {server_us:.1} \
         server CPU us per request over {sat_replies} requests in {sat_flushes} flushes; peak \
         RSS {rss_mib:.1} MiB",
        spec.name,
    );

    let snap = rig.snapshot()?;
    rig.stop()?;
    run.failed += snap.net.overflow_drops + snap.net.hostile_drops;
    let checked: Vec<&PhaseOut> = phases.iter().collect();
    check(&mut run, inputs, &checked, &io);

    let m = &mut run.metrics;
    put(m, "setup_s", setup_s, "s");
    put(m, "server_cpu_us_per_req", server_us, "us");
    put(m, "inproc_rps", inproc_rps, "1/s");
    let ok = run.attempted.saturating_sub(run.failed);
    put(m, "ok_frac", ratio(ok as f64, run.attempted as f64), "frac");
    put(m, "peak_rss_mib", rss_mib, "MiB");
    put(
        m,
        "modeled_rps",
        io.modeled_first.modeled_requests_per_sec(),
        "1/s",
    );
    Ok(run)
}

/// Per-op engine time per request between two snapshots.
fn exec_us(warm: &ServerStats, end: &ServerStats, op: OpCode) -> (f64, u64) {
    let get = |s: &ServerStats| {
        s.per_op
            .iter()
            .find(|(name, _)| *name == op.name())
            .map_or((0.0, 0), |(_, o)| (o.busy_us, o.requests))
    };
    let (b0, r0) = get(warm);
    let (b1, r1) = get(end);
    (b1 - b0, r1 - r0)
}

/// The traced run: every per-layer metric.
fn traced(
    args: &Args,
    inputs: &Inputs,
    mut rig: Rig<'_>,
    mut inproc: InProc<'_>,
    epoch: Instant,
) -> io::Result<Run> {
    let spec = inputs.spec;
    let mut run = Run::default();
    let mut off = Tracer::off(epoch);
    let mut tracer = Tracer::on(epoch);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0054_5241_4345);
    let closed = Mode::Closed {
        window: spec.window,
    };

    let warm = rig.run_phase(inputs, closed, phase(args, 0.05), 0, &mut rng, &mut off)?;
    run.absorb_phase(&warm);
    let plain = rig.run_phase(inputs, closed, phase(args, 0.15), 0, &mut rng, &mut off)?;
    run.absorb_phase(&plain);

    rig.set_trace(true);
    let before: Snap = rig.snapshot()?;
    let sat = rig.run_phase(
        inputs,
        closed,
        phase(args, 0.15),
        MAX_CHECKED,
        &mut rng,
        &mut tracer,
    )?;
    let after: Snap = rig.snapshot()?;
    run.absorb_phase(&sat);
    let rps = |p: &PhaseOut| p.ok_in_window as f64 / p.window_s;
    let overhead = 1.0 - ratio(rps(&sat), rps(&plain));

    rig.set_trace(false);

    // The open-loop ladder, untraced: every rung up to `high`, then
    // higher rungs while they keep meeting the limit.
    let mut rungs: Vec<PhaseOut> = Vec::new();
    let mut slo_rps = 0.0;
    for (i, &rps) in spec.ladder_rps.iter().enumerate() {
        let (p, meets) = rung(&mut rig, inputs, rps, phase(args, 0.1), &mut rng, &mut run)?;
        let passing = meets && (i == 0 || slo_rps > 0.0);
        if passing {
            slo_rps = p.ok_in_window as f64 / p.window_s;
        }
        rungs.push(p);
        if i >= HIGH && !passing {
            break;
        }
    }
    let after_open: Snap = rig.snapshot()?;

    let io = inproc.run(phase(args, 0.2), &mut tracer, true);
    run.absorb_inproc(&io);

    // Replays on the workload's own frames and replies.
    let first = io.kept.first().expect("one flush kept");
    let (burst, sid, first_req) = first.bursts[0];
    let request_frame = inputs.burst_frames(&burst, sid, first_req).swap_remove(0);
    let reply_frame = io
        .kept
        .iter()
        .flat_map(|k| k.replies.iter())
        .find(|r| {
            wire::decode_frame(r).is_ok_and(|f| {
                matches!(wire::decode_reply(f.payload), Ok(ReplyBody::Ciphertext(_)))
            })
        })
        .cloned()
        .expect("a ciphertext reply");
    let layers = replay::replay(
        inputs,
        &request_frame,
        &reply_frame,
        inproc.server_mut(),
        &mut tracer,
    );

    let server_spans = rig.stop()?;
    tracer.absorb(server_spans);
    run.failed += after_open.net.overflow_drops + after_open.net.hostile_drops;
    let mut checked: Vec<&PhaseOut> = vec![&sat];
    checked.extend(rungs.iter());
    check(&mut run, inputs, &checked, &io);
    let totals = tracer.totals();
    for (name, (count, total, own)) in &totals {
        eprintln!("span {name:<28} {count:>8} spans {total:>10.4} s total {own:>10.4} s self");
    }
    let dir = std::path::Path::new("heaxbench/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("trace-{}.tsv", spec.name));
        match std::fs::File::create(&path) {
            Ok(f) => {
                let mut w = io::BufWriter::new(f);
                tracer.dump(&mut w)?;
                w.flush()?;
                eprintln!("spans written to {}", path.display());
            }
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }

    let m = &mut run.metrics;
    // net, over the traced closed-loop phase: every reply routed between
    // the snapshots, drain included, as the poll time and the byte
    // counters also cover the drain.
    let reqs = (after.net.replies_routed - before.net.replies_routed).max(1) as f64;
    let (n0, n1) = (&before.net, &after.net);
    let d = |a: u64, b: u64| (b - a) as f64;
    let poll_us = (after.poll_busy_s - before.poll_busy_s) * 1e6 / reqs;
    let intake_us = ratio(io.intake_s * 1e6, io.requests as f64);
    let flush_us = ratio(io.flush_s * 1e6, io.requests as f64);
    put(m, "net.poll_us_per_req", poll_us, "us");
    put(
        m,
        "net.transport_us_per_req",
        poll_us - intake_us - flush_us,
        "us",
    );
    put(
        m,
        "net.bytes_in_per_req",
        d(n0.bytes_in, n1.bytes_in) / reqs,
        "bytes",
    );
    put(
        m,
        "net.bytes_out_per_req",
        d(n0.bytes_out, n1.bytes_out) / reqs,
        "bytes",
    );
    put(
        m,
        "net.partial_reads_per_req",
        d(n0.partial_frame_reads, n1.partial_frame_reads) / reqs,
        "count",
    );
    put(
        m,
        "net.short_writes_per_req",
        d(n0.short_writes, n1.short_writes) / reqs,
        "count",
    );
    put(
        m,
        "net.batch_mean",
        ratio(
            d(n0.replies_routed, n1.replies_routed),
            d(n0.flushes, n1.flushes),
        ),
        "count",
    );
    let restores = d(n0.key_restores, n1.key_restores);
    put(m, "net.key_restores_per_req", restores / reqs, "count");
    let bursts = reqs / burst.len() as f64;
    let hit = if inputs.keyed() {
        1.0 - restores / bursts
    } else {
        1.0
    };
    put(m, "net.key_hit_ratio", hit, "ratio");
    put(
        m,
        "net.sheds",
        after_open.net.admission_sheds as f64,
        "count",
    );
    put(
        m,
        "net.drops",
        (after_open.net.overflow_drops + after_open.net.hostile_drops) as f64,
        "count",
    );

    // server, over the traced in-process leg (and the loopback engine).
    let warm_stats = io.stats_warm.clone().unwrap_or_default();
    let end_stats = io.stats_end.clone().unwrap_or_default();
    put(m, "server.intake_us_per_req", intake_us, "us");
    put(m, "server.flush_us_per_req", flush_us, "us");
    let mut exec_total = 0.0;
    for op in [
        OpCode::Add,
        OpCode::Rotate,
        OpCode::MultiplyRelin,
        OpCode::Rescale,
        OpCode::Fetch,
    ] {
        let (busy, n) = exec_us(&warm_stats, &end_stats, op);
        exec_total += busy;
        put(
            m,
            &format!("server.exec_us.{}", op.name()),
            ratio(busy, n as f64),
            "us",
        );
    }
    let host_sched_s = io.fuse_s + io.schedule_s;
    put(
        m,
        "server.finish_us_per_req",
        ratio(
            io.flush_s * 1e6 - exec_total - host_sched_s * 1e6,
            io.requests as f64,
        ),
        "us",
    );
    let register_us = if inputs.keyed() {
        ratio(inproc.register.0 * 1e6, inproc.register.1 as f64)
    } else {
        layers
            .get("server.register_us_per_key")
            .copied()
            .unwrap_or(0.0)
    };
    put(m, "server.register_us_per_key", register_us, "us");
    let (s0, s1) = (&before.server, &after.server);
    let rotates = |s: &ServerStats| {
        s.per_op
            .iter()
            .find(|(n, _)| *n == OpCode::Rotate.name())
            .map_or(0, |(_, o)| o.requests)
    };
    put(
        m,
        "server.hoist_ratio",
        ratio(
            d(s0.hoisted_rotations, s1.hoisted_rotations),
            d(rotates(s0), rotates(s1)),
        ),
        "ratio",
    );
    put(
        m,
        "server.queue_high_water",
        after_open.server.queue_high_water as f64,
        "count",
    );
    put(
        m,
        "server.key_reregistrations",
        after_open.server.key_reregistrations as f64,
        "count",
    );
    put(
        m,
        "server.alloc_large_per_req",
        ratio(io.large_allocs as f64, io.requests as f64),
        "count",
    );

    // wire / serialize / eval / ntt replays.
    for (name, v) in &layers {
        if *name == "server.register_us_per_key" {
            continue;
        }
        let unit = if name.ends_with("butterflies_per_limb") {
            "count"
        } else {
            "us"
        };
        put(m, name, *v, unit);
    }

    // ir / scheduler.
    put(
        m,
        "ir.fuse_us_per_flush",
        ratio(io.fuse_s * 1e6, io.flushes as f64),
        "us",
    );
    put(
        m,
        "scheduler.schedule_us_per_flush",
        ratio(io.schedule_s * 1e6, io.flushes as f64),
        "us",
    );
    let mb = &io.modeled_first;
    let mreq = mb.modeled_requests as f64;
    put(
        m,
        "scheduler.cycles_per_req",
        ratio(mb.modeled_cycles as f64, mreq),
        "cycles",
    );
    put(m, "scheduler.core_util", mb.core_utilization(), "ratio");
    put(
        m,
        "scheduler.input_wait_cycles_per_req",
        ratio(mb.input_wait_cycles as f64, mreq),
        "cycles",
    );
    put(
        m,
        "scheduler.output_wait_cycles_per_req",
        ratio(mb.output_wait_cycles as f64, mreq),
        "cycles",
    );
    put(
        m,
        "scheduler.fifo_backpressure_cycles_per_req",
        ratio(mb.fifo_backpressure_cycles as f64, mreq),
        "cycles",
    );

    // system: parked results across both engines.
    let parked_bytes = [&before, &after, &after_open]
        .iter()
        .map(|s| s.server.parked_bytes)
        .chain([warm_stats.parked_bytes, end_stats.parked_bytes])
        .max()
        .unwrap_or(0);
    let parked = [&before, &after, &after_open]
        .iter()
        .map(|s| s.server.parked_entries)
        .chain([warm_stats.parked_entries, end_stats.parked_entries])
        .max()
        .unwrap_or(0);
    put(
        m,
        "system.dram_used_peak_bytes",
        parked_bytes as f64,
        "bytes",
    );
    put(m, "system.parked_peak", parked as f64, "count");
    put(m, "system.rss_end_mib", peak_rss_mib(), "MiB");

    // Wall-clock loopback figures: on a shared 2-vCPU host they swing
    // with the CPU time the host steals, too far to bound run to run,
    // so they are recorded here, unbounded.
    let high = &rungs[HIGH];
    let low = &rungs[LOW];
    put(m, "loopback.sat_rps", rps(&plain), "1/s");
    put(
        m,
        "loopback.p50_ms.low",
        percentile(&mut low.latencies_ms.clone(), 50.0),
        "ms",
    );
    put(
        m,
        "loopback.p99_ms.low",
        percentile(&mut low.latencies_ms.clone(), 99.0),
        "ms",
    );
    put(
        m,
        "loopback.p50_ms.high",
        percentile(&mut high.latencies_ms.clone(), 50.0),
        "ms",
    );
    put(
        m,
        "loopback.p99_ms.high",
        percentile(&mut high.latencies_ms.clone(), 99.0),
        "ms",
    );
    put(m, "loopback.slo_rps", slo_rps, "1/s");

    // The generator and the tracing itself.
    put(
        m,
        "gen.lag_p99_ms",
        percentile(&mut high.lag_ms.clone(), 99.0),
        "ms",
    );
    put(m, "gen.backlog_end", high.backlog_end as f64, "count");
    put(m, "trace.overhead_frac", overhead, "frac");

    // The split of a loopback request's server time.
    let (eval_us, codec_us) = replay::mix_us(&burst, &layers);
    let transport = poll_us - intake_us - flush_us;
    put(m, "split.eval_share", ratio(eval_us, poll_us), "frac");
    put(
        m,
        "split.net_codec_share",
        ratio(transport.max(0.0) + codec_us, poll_us),
        "frac",
    );
    Ok(run)
}
