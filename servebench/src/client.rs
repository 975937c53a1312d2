//! The load generator: one process, at most `TENANTS` connections and
//! generator threads, speaking the service's framed text protocol.
//! Closed loops (`rtt`, `sat`) wait for replies before sending more;
//! the open loop sends on a 1 ms tick schedule whatever the replies do
//! and times every request from the tick it was due in.

use crate::stats::StepObservation;
use crate::stream::Commands;
use std::io::{BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply frame is a short status line.
const MAX_REPLY_BYTES: usize = 1 << 16;
/// No reply for this long means the server is gone, not slow.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Commands sent and commands that did not get the `ok` reply their
/// stream position requires (`err`, `overloaded`, wrong shape).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Commands sent.
    pub attempted: u64,
    /// Commands not answered as required.
    pub failed: u64,
}

impl Outcome {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    payload: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` (commands are small and pipelined).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            payload: Vec::new(),
        })
    }

    fn send(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(frames)
    }

    fn recv(&mut self) -> std::io::Result<&[u8]> {
        recv_frame(&mut self.reader, &mut self.payload)?;
        Ok(&self.payload)
    }

    /// Whether a whole reply frame is already buffered (reading it will
    /// not block).
    fn reply_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        buf.len() >= 4 && {
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            buf.len() - 4 >= len
        }
    }

    /// One command, one reply: returns whether the reply was the
    /// required `ok` shape.
    pub fn call(&mut self, commands: &Commands, i: usize) -> std::io::Result<bool> {
        self.send(commands.frames(i, i + 1))?;
        let expect = commands.expect(i);
        Ok(expect.matches(self.recv()?))
    }

    /// One ad-hoc command (not from a stream); returns the reply text.
    pub fn call_text(&mut self, command: &str) -> std::io::Result<String> {
        // Framed in memory first: one `write`, as for stream commands.
        let mut frame = Vec::with_capacity(command.len() + 4);
        realloc_sched::core::textio::write_frame(&mut frame, command.as_bytes())?;
        self.send(&frame)?;
        Ok(String::from_utf8_lossy(self.recv()?).into_owned())
    }
}

fn recv_frame(reader: &mut BufReader<TcpStream>, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_REPLY_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("reply frame of {len} bytes"),
        ));
    }
    payload.resize(len, 0);
    reader.read_exact(payload)
}

/// Closed loop at a fixed depth: keeps up to `depth` commands of
/// `commands[*cursor..until]` outstanding until they are all answered
/// or `stop` is raised (what is outstanding is still drained, so the
/// stream stays in order). Advances `cursor` past what was sent and
/// adds every reply to `replies` as it arrives.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &mut Conn,
    commands: &Commands,
    cursor: &mut usize,
    until: usize,
    depth: usize,
    stop: Option<&AtomicBool>,
    replies: &AtomicU64,
    acked_mutations: &AtomicU64,
) -> std::io::Result<Outcome> {
    let until = until.min(commands.len());
    let mut outcome = Outcome::default();
    let mut answered = *cursor;
    loop {
        let stopping = stop.is_some_and(|s| s.load(Ordering::Relaxed));
        let outstanding = *cursor - answered;
        if !stopping && outstanding < depth && *cursor < until {
            let to = (*cursor + depth - outstanding).min(until);
            conn.send(commands.frames(*cursor, to))?;
            outcome.attempted += (to - *cursor) as u64;
            *cursor = to;
        }
        if *cursor == answered {
            return Ok(outcome);
        }
        let (mut got, mut mutations) = (0u64, 0u64);
        loop {
            let expect = commands.expect(answered);
            if !expect.matches(conn.recv()?) {
                outcome.failed += 1;
            }
            mutations += u64::from(expect.is_mutation());
            answered += 1;
            got += 1;
            if answered == *cursor || !conn.reply_buffered() {
                break;
            }
        }
        replies.fetch_add(got, Ordering::SeqCst);
        acked_mutations.fetch_add(mutations, Ordering::SeqCst);
    }
}

/// What the `rtt` phase measured.
#[derive(Clone, Debug, Default)]
pub struct RttSamples {
    /// Mutation round trips, microseconds, in stream order.
    pub mutation_us: Vec<f64>,
    /// `window` read round trips, microseconds, in stream order.
    pub read_us: Vec<f64>,
    /// Per mutation, the `clock` reading just before its send (traced
    /// runs: matched against the service's `receipt` points).
    pub mutation_sent_at: Vec<u64>,
    /// Sends and failures.
    pub outcome: Outcome,
}

/// Closed loop, one connection, one outstanding: `count` commands, each
/// timed from its send to its reply.
pub fn rtt(
    conn: &mut Conn,
    commands: &Commands,
    cursor: &mut usize,
    count: usize,
    acked_mutations: &AtomicU64,
    clock: Option<&realloc_sched::Telemetry>,
) -> std::io::Result<RttSamples> {
    let until = (*cursor + count).min(commands.len());
    let mut samples = RttSamples::default();
    while *cursor < until {
        let i = *cursor;
        let is_mutation = commands.expect(i).is_mutation();
        if let (true, Some(clock)) = (is_mutation, clock) {
            samples.mutation_sent_at.push(clock.now_nanos());
        }
        let t0 = Instant::now();
        let ok = conn.call(commands, i)?;
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        *cursor += 1;
        samples.outcome.attempted += 1;
        samples.outcome.failed += u64::from(!ok);
        if is_mutation {
            samples.mutation_us.push(us);
            acked_mutations.fetch_add(1, Ordering::SeqCst);
        } else {
            samples.read_us.push(us);
        }
    }
    Ok(samples)
}

/// What one open-loop step measured.
#[derive(Clone, Debug, Default)]
pub struct StepSamples {
    /// What the verdict is taken on.
    pub observation: StepObservation,
    /// Latency from each request's due tick, microseconds.
    pub latency_us: Vec<f64>,
    /// Sends and failures.
    pub outcome: Outcome,
}

/// Index of the tick request `i` is due in, at `per_tick` requests a tick.
fn tick_of(i: usize, per_tick: f64) -> u64 {
    (i as f64 / per_tick) as u64
}

/// Open loop on one connection: a sender thread wakes on a 1 ms tick
/// schedule and writes every command due by then; a receiver thread
/// times each reply from its command's **due** tick. `completed` is
/// read at the step's half and end to see whether the backlog grows:
/// the receiver's own reply count, or the quorum's acked-event count
/// when the caller passes one.
#[allow(clippy::too_many_arguments)]
pub fn open_step(
    conn: &mut Conn,
    commands: &Commands,
    cursor: &mut usize,
    rate_rps: f64,
    secs: f64,
    limit_us: f64,
    acked_mutations: &AtomicU64,
    quorum_progress: Option<&AtomicU64>,
) -> std::io::Result<StepSamples> {
    const TICK: Duration = Duration::from_millis(1);
    let per_tick = rate_rps / 1e3;
    let ticks = (secs * 1e3) as u64;
    let first = *cursor;
    let total = ((ticks as f64 * per_tick) as usize).min(commands.len() - first);
    let replies = AtomicU64::new(0);
    let Conn {
        writer,
        reader,
        payload,
    } = conn;
    let start = Instant::now() + TICK;
    let due = |tick: u64| start + TICK * tick as u32;

    let (sent, completed_late_half, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<(usize, Vec<f64>)> {
            let mut late_us = Vec::with_capacity(total);
            let mut next = 0usize;
            for tick in 0..ticks {
                if let Some(wait) = due(tick).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let to = (((tick + 1) as f64 * per_tick) as usize).min(total);
                if to > next {
                    let late = (Instant::now() - due(tick)).as_nanos() as f64 / 1e3;
                    writer.write_all(commands.frames(first + next, first + to))?;
                    late_us.extend(std::iter::repeat_n(late, to - next));
                    next = to;
                }
            }
            Ok((next, late_us))
        });
        let replies = &replies;
        let receiver = scope.spawn(move || -> std::io::Result<(Vec<f64>, u64, u64)> {
            let mut latency_us = Vec::with_capacity(total);
            let (mut failed, mut in_limit) = (0u64, 0u64);
            for i in 0..total {
                recv_frame(reader, payload)?;
                let us = Instant::now()
                    .saturating_duration_since(due(tick_of(i, per_tick)))
                    .as_nanos() as f64
                    / 1e3;
                let expect = commands.expect(first + i);
                let ok = expect.matches(payload);
                failed += u64::from(!ok);
                in_limit += u64::from(ok && us <= limit_us);
                latency_us.push(us);
                replies.fetch_add(1, Ordering::Relaxed);
                acked_mutations.fetch_add(u64::from(expect.is_mutation()), Ordering::SeqCst);
            }
            Ok((latency_us, failed, in_limit))
        });
        // The watcher: progress at the half and at the end of the step.
        let progress = quorum_progress.unwrap_or(replies);
        let half = due(ticks / 2);
        let end = due(ticks);
        std::thread::sleep(half.saturating_duration_since(Instant::now()));
        let at_half = progress.load(Ordering::SeqCst);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let completed_late_half = progress.load(Ordering::SeqCst) - at_half;
        let sent = sender.join().expect("sender panicked");
        let received = receiver.join().expect("receiver panicked");
        (sent, completed_late_half, received)
    });
    let (sent, mut gen_late) = sent?;
    let (latency_us, failed, ok_in_limit) = received?;
    debug_assert_eq!(sent, total);
    *cursor = first + total;
    let offered_late_half = (0..total)
        .filter(|&i| tick_of(i, per_tick) >= ticks / 2)
        .count() as u64;
    Ok(StepSamples {
        observation: StepObservation {
            offered: total as u64,
            ok_in_limit,
            offered_late_half,
            completed_late_half,
            gen_late_p99_us: crate::stats::percentile(&mut gen_late, 0.99),
        },
        latency_us,
        outcome: Outcome {
            attempted: total as u64,
            failed,
        },
    })
}
