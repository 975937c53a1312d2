//! The four workloads and the phase plan a `--seconds` budget buys.

/// Tenants (and load connections): one per core of the 2-core sizing
/// host, tenant `t` seeded with `seed + t`.
pub const TENANTS: u16 = 2;
/// Requests each `sat` connection keeps outstanding.
pub const SAT_DEPTH: usize = 32;
/// Slices `sat` is cut into (`stats::cleanest_rate`).
pub const SAT_SLICES: usize = 48;
/// Slices `rtt` and the fixed-rate open step are cut into
/// (`stats::cleanest_sliced`).
pub const LATENCY_SLICES: usize = 24;
/// Open-loop ladder, as multiples of the workload's reference rate.
pub const LADDER: [f64; 4] = [0.4, 0.6, 0.9, 1.35];
/// The ladder rung the end-to-end run's fixed-rate open step offers.
pub const OPEN_RUNG: usize = 1;
/// `--seconds` at which the plan's nominal counts apply (scale 1).
pub const NOMINAL_SECONDS: f64 = 20.0;
/// Rounds the end-to-end run cuts its phases into: `rtt` → `sat` →
/// `open`, four times over, so that every metric's slices are spread
/// over the whole run and a slow stretch of the host lands on a share of
/// each metric instead of on all of one.
pub const ROUNDS: usize = 8;

/// One workload: what is deployed and how it is loaded.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Active jobs per tenant the prefill builds and churn hovers at.
    pub target_active: usize,
    /// `FlushMode::Durable` over a `DurableStore` on `FsIo`.
    pub durable: bool,
    /// TCP replicas fed by a `JournalRelay` pump; quorum is all of them.
    pub replicas: usize,
    /// Every post-prefill mutation is paired with a `window` read.
    pub reads: bool,
    /// Open-loop latency limit, microseconds, on the 99th percentile.
    pub limit_us: f64,
    /// Open-loop reference rate, requests/s: the first baseline's
    /// `sat_rps` rounded to two digits, frozen so that every later run
    /// climbs the same ladder.
    pub ref_rps: f64,
    /// Depth-1 request rate the fixed `rtt` count is sized from.
    pub rtt_ref_rps: f64,
    /// Copy the store directory during `sat` and check the copy.
    pub crash_image: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mem_dense",
        target_active: 16_384,
        durable: false,
        replicas: 0,
        reads: false,
        limit_us: 10_000.0,
        ref_rps: 130_000.0,
        rtt_ref_rps: 60_000.0,
        crash_image: false,
    },
    Workload {
        name: "durable_churn",
        target_active: 2_048,
        durable: true,
        replicas: 0,
        reads: false,
        limit_us: 50_000.0,
        ref_rps: 37_000.0,
        rtt_ref_rps: 1_500.0,
        crash_image: true,
    },
    Workload {
        name: "replicated_churn",
        target_active: 2_048,
        durable: true,
        replicas: 2,
        reads: false,
        limit_us: 50_000.0,
        ref_rps: 36_000.0,
        rtt_ref_rps: 1_400.0,
        crash_image: false,
    },
    Workload {
        name: "interactive_rw",
        target_active: 2_048,
        durable: true,
        replicas: 0,
        reads: true,
        limit_us: 50_000.0,
        ref_rps: 42_000.0,
        rtt_ref_rps: 3_100.0,
        crash_image: false,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Phase lengths and counts. One factor — `seconds / 20` — multiplies
/// every one of them alike; nothing is tuned per workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// `seconds / NOMINAL_SECONDS`.
    pub scale: f64,
    /// Times the `rtt` → `sat` → `open` sequence runs; the lengths below
    /// are totals over all rounds.
    pub rounds: usize,
    /// Seconds of depth-1 traffic the fixed `rtt` count is sized to.
    pub rtt_secs: f64,
    /// Length of the `sat` phase.
    pub sat_secs: f64,
    /// Length of the open-loop phase at one rate.
    pub open_step_secs: f64,
    /// Acked mutations between the checkpoint and the stop in `recover`.
    pub recover_tail: usize,
    /// Acked mutations between harness-triggered checkpoints.
    pub checkpoint_every: u64,
    /// Divisor on every active-set target (selftest's miniature).
    pub shrink: usize,
}

impl Plan {
    /// The end-to-end plan: `rtt` 25 %, `sat` 35 %, one fixed-rate
    /// `open` step 25 % of the budget, the rest for `recover` and the
    /// checks.
    pub fn end_to_end(seconds: f64) -> Plan {
        let scale = seconds / NOMINAL_SECONDS;
        Plan {
            scale,
            rounds: ROUNDS,
            rtt_secs: 5.0 * scale,
            sat_secs: 7.0 * scale,
            open_step_secs: 5.0 * scale,
            recover_tail: (20_000.0 * scale) as usize,
            checkpoint_every: (100_000.0 * scale).max(1_000.0) as u64,
            shrink: 1,
        }
    }

    /// The traced plan: one round of shorter phases, because the run
    /// also holds the isolated layer section, a second (untraced)
    /// system and the whole open-loop ladder.
    pub fn traced(seconds: f64) -> Plan {
        let e2e = Plan::end_to_end(seconds);
        Plan {
            rounds: 1,
            rtt_secs: e2e.rtt_secs / 2.5,
            sat_secs: e2e.sat_secs / 4.0,
            open_step_secs: e2e.open_step_secs / 4.0,
            recover_tail: e2e.recover_tail / 2,
            ..e2e
        }
    }

    /// Requests in one round's `rtt`: fixed for a workload and a scale,
    /// so the reallocation counts repeat exactly for a seed.
    pub fn rtt_count(&self, workload: &Workload) -> usize {
        let slices_per_round = LATENCY_SLICES / self.rounds;
        ((workload.rtt_ref_rps * self.rtt_secs) as usize / self.rounds).max(slices_per_round * 8)
    }

    /// The active-set target after selftest's shrink.
    pub fn target_active(&self, workload: &Workload) -> usize {
        (workload.target_active / self.shrink).max(16)
    }
}
