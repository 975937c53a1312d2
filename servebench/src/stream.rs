//! Request streams: `ChurnGenerator` output turned into framed command
//! strings during set-up. The program under test only ever sees these
//! bytes; the seed never reaches it.

use realloc_sched::core::textio::write_frame;
use realloc_sched::workloads::{ChurnConfig, ChurnGenerator};
use realloc_sched::Request;
use std::fmt::Write as _;

/// Window spans every workload samples from.
pub const SPANS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];
/// Time horizon of every stream.
pub const HORIZON: u64 = 1 << 16;
/// Machines per shard, and the `m` of the density budget.
pub const MACHINES: usize = 4;
/// Trim factor of the backend and density parameter of the generator.
pub const GAMMA: u64 = 8;

/// The churn shape shared by every workload; only the active-set
/// target differs.
pub fn churn_config(target_active: usize, machines: usize, unaligned: bool) -> ChurnConfig {
    ChurnConfig {
        machines,
        gamma: GAMMA,
        horizon: HORIZON,
        spans: SPANS.to_vec(),
        target_active,
        insert_bias: 0.6,
        unaligned,
    }
}

/// The reply a command must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `ok placed <id>`
    Placed,
    /// `ok removed <id>`
    Removed,
    /// `ok window <start> <end>`, or `ok window none`: a read names a
    /// job live at its stream position, but the service answers the
    /// reads of a pipelined batch after the batch's flush, so a `remove`
    /// a few commands later in the same batch can land first.
    Window,
}

impl Expect {
    /// Whether `reply` is the `ok` shape this command must get.
    pub fn matches(self, reply: &[u8]) -> bool {
        match self {
            Expect::Placed => reply.starts_with(b"ok placed "),
            Expect::Removed => reply.starts_with(b"ok removed "),
            Expect::Window => reply.starts_with(b"ok window "),
        }
    }

    /// Whether the command changes the schedule.
    pub fn is_mutation(self) -> bool {
        !matches!(self, Expect::Window)
    }
}

/// Pre-framed commands, back to back (`u32` big-endian length, then the
/// command text — the `realloc_core::textio` framing), so that any run
/// of consecutive commands is one contiguous `write`.
#[derive(Clone, Debug, Default)]
pub struct Commands {
    bytes: Vec<u8>,
    /// End offset of each command's frame in `bytes`.
    ends: Vec<usize>,
    expect: Vec<Expect>,
}

impl Commands {
    fn push(&mut self, text: &str, expect: Expect) {
        write_frame(&mut self.bytes, text.as_bytes()).expect("memory write");
        self.ends.push(self.bytes.len());
        self.expect.push(expect);
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The framed bytes of commands `from..to`.
    pub fn frames(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        let end = if to == 0 { 0 } else { self.ends[to - 1] };
        &self.bytes[start..end]
    }

    /// The reply command `i` must get.
    pub fn expect(&self, i: usize) -> Expect {
        self.expect[i]
    }

    /// The text of command `i` (without its length prefix).
    pub fn text(&self, i: usize) -> &str {
        let frame = self.frames(i, i + 1);
        std::str::from_utf8(&frame[4..]).expect("commands are ASCII")
    }

    /// FNV-1a over the framed bytes: two equal hashes mean two equal
    /// command streams (selftest's same-seed check).
    pub fn digest(&self) -> u64 {
        self.bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// splitmix64: picks which live id a read targets. Seeded from the
/// stream seed, independent of the churn generator's own draws.
#[derive(Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One tenant's command stream: churn mutations, optionally each paired
/// with a `window` read of a job that is live at that point.
#[derive(Debug)]
pub struct TenantStream {
    tenant: u16,
    gen: ChurnGenerator,
    reads: Option<SplitMix>,
    /// Everything generated so far.
    pub commands: Commands,
    /// The generated requests, in order (reads excluded): what the
    /// isolated layer measurements replay.
    pub requests: Vec<Request>,
    line: String,
}

impl TenantStream {
    /// A mutation-only stream for `tenant` from `seed`;
    /// [`Self::start_reads`] switches the reads on after the prefill.
    pub fn new(tenant: u16, seed: u64, target_active: usize) -> TenantStream {
        TenantStream {
            tenant,
            gen: ChurnGenerator::new(churn_config(target_active, MACHINES, true), seed),
            reads: None,
            commands: Commands::default(),
            requests: Vec::new(),
            line: String::new(),
        }
    }

    /// From here on every mutation is followed by one read of a live id.
    pub fn start_reads(&mut self, seed: u64) {
        self.reads = Some(SplitMix(seed ^ 0x05ee_d0f4_ead5));
    }

    fn push_request(&mut self, request: Request) {
        self.line.clear();
        let expect = match request {
            Request::Insert { id, window } => {
                write!(
                    self.line,
                    "place {} {} {} {}",
                    self.tenant,
                    id.0,
                    window.start(),
                    window.end()
                )
                .expect("string write");
                Expect::Placed
            }
            Request::Delete { id } => {
                write!(self.line, "remove {} {}", self.tenant, id.0).expect("string write");
                Expect::Removed
            }
        };
        self.commands.push(&self.line, expect);
        self.requests.push(request);
    }

    /// Generates until the stream holds `total` commands.
    pub fn extend_to(&mut self, total: usize) {
        while self.commands.len() < total {
            let request = self
                .gen
                .next_request()
                .expect("churn never saturates at these densities");
            self.push_request(request);
            if let Some(rng) = &mut self.reads {
                let live = self.gen.active();
                if !live.is_empty() && self.commands.len() < total {
                    let (id, _) = live[(rng.next() % live.len() as u64) as usize];
                    self.line.clear();
                    write!(self.line, "window {} {}", self.tenant, id.0).expect("string write");
                    self.commands.push(&self.line, Expect::Window);
                }
            }
        }
    }

    /// Generates mutations until the generator's active set reaches
    /// `target` jobs; returns the stream length at that point (the
    /// prefill's end).
    pub fn prefill_to(&mut self, target: usize) -> usize {
        while self.gen.active().len() < target {
            let request = self
                .gen
                .next_request()
                .expect("churn never saturates at these densities");
            self.push_request(request);
        }
        self.commands.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_reads_target_live_ids() {
        let build = |seed| {
            let mut s = TenantStream::new(3, seed, 64);
            let prefill = s.prefill_to(60);
            s.start_reads(seed);
            s.extend_to(prefill + 400);
            s
        };
        let (a, b, c) = (build(7), build(7), build(8));
        assert_eq!(a.commands.digest(), b.commands.digest());
        assert_ne!(a.commands.digest(), c.commands.digest());
        assert_eq!(a.commands.len(), a.commands.expect.len());

        // Replaying the stream, every read names a job live at that point.
        let mut live = std::collections::BTreeSet::new();
        let mut reads = 0;
        for i in 0..a.commands.len() {
            let f: Vec<&str> = a.commands.text(i).split(' ').collect();
            assert_eq!(f[1], "3");
            match a.commands.expect(i) {
                Expect::Placed => assert!(live.insert(f[2].to_string())),
                Expect::Removed => assert!(live.remove(f[2])),
                Expect::Window => {
                    reads += 1;
                    assert!(live.contains(f[2]), "read of a dead id at {i}");
                }
            }
        }
        assert!(reads >= 190, "about half the post-prefill stream reads");
    }

    #[test]
    fn frames_are_contiguous_textio_frames() {
        let mut s = TenantStream::new(1, 1, 16);
        s.extend_to(10);
        let mut wire = s.commands.frames(2, 5);
        for i in 2..5 {
            let payload = realloc_sched::core::textio::read_frame(&mut wire, 4096)
                .unwrap()
                .unwrap();
            assert_eq!(payload, s.commands.text(i).as_bytes());
        }
        assert!(wire.is_empty());
        assert!(s.commands.frames(4, 4).is_empty());
    }

    #[test]
    fn expectations_match_only_their_ok_shape() {
        assert!(Expect::Placed.matches(b"ok placed 9"));
        assert!(!Expect::Placed.matches(b"ok queued 9"));
        assert!(!Expect::Removed.matches(b"err unknown"));
        assert!(Expect::Window.matches(b"ok window 3 9"));
        assert!(Expect::Window.matches(b"ok window none"));
        assert!(!Expect::Window.matches(b"err bad tenant"));
        assert!(!Expect::Placed.matches(b"overloaded 5"));
    }
}
