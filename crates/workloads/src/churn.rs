//! Underallocation-controlled random churn.
//!
//! The generator keeps the active jobs' *effective* (aligned) windows in
//! a [`LaminarBudget`] and only emits an insert the budget admits — every
//! aligned ancestor `A` keeps at most `m·|A|/γ` jobs, exactly Lemma 2's
//! density bound. Sequences are therefore `γ`-dense by construction at
//! every prefix, which is the precondition knob for every Theorem 1
//! experiment (and the `γ` ablation sweep).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realloc_core::feasibility::LaminarBudget;
use realloc_core::{JobId, Request, RequestSeq, Window};

/// Configuration for [`ChurnGenerator`].
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Machines the consumer will use (scales the density budget).
    pub machines: usize,
    /// Density parameter: every aligned window keeps ≤ `m·|W|/γ` jobs.
    pub gamma: u64,
    /// Time horizon (power of two); all windows live in `[0, horizon)`.
    pub horizon: u64,
    /// Window spans to sample from (weights uniform).
    pub spans: Vec<u64>,
    /// Steady-state number of active jobs to hover around.
    pub target_active: usize,
    /// Probability of an insert when below target (else delete).
    pub insert_bias: f64,
    /// Emit unaligned windows (random start); the budget is still enforced
    /// on their aligned effective windows, mirroring the §5 pipeline.
    pub unaligned: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            machines: 1,
            gamma: 8,
            horizon: 1 << 14,
            spans: vec![1, 4, 16, 64, 256, 1024],
            target_active: 128,
            insert_bias: 0.55,
            unaligned: false,
        }
    }
}

/// Random churn generator with certified `γ`-density.
#[derive(Clone, Debug)]
pub struct ChurnGenerator {
    cfg: ChurnConfig,
    rng: StdRng,
    /// The active jobs' effective windows, charged up to the horizon.
    budget: LaminarBudget,
    active: Vec<(JobId, Window)>,
    next_id: u64,
}

impl ChurnGenerator {
    /// New generator with **explicit, deterministic seeding**: all
    /// randomness comes from a `StdRng` seeded with `seed` via
    /// `SeedableRng::seed_from_u64`, and nothing else (no time, no
    /// thread-local entropy). Two generators built with equal `cfg` and
    /// equal `seed` therefore emit byte-identical request streams, which
    /// is what makes old-vs-new perf A/Bs (servebench, the `exp_*`
    /// binaries) comparable across machines and commits — every consumer
    /// (experiments, the benchmark, property tests) passes a fixed
    /// literal seed. Picking a different `seed` yields an independent
    /// stream of the same shape.
    pub fn new(cfg: ChurnConfig, seed: u64) -> Self {
        assert!(cfg.horizon.is_power_of_two());
        assert!(cfg.gamma >= 1 && cfg.machines >= 1);
        assert!(!cfg.spans.is_empty());
        for &s in &cfg.spans {
            assert!(s >= 1 && s <= cfg.horizon, "span {s} outside horizon");
        }
        ChurnGenerator {
            budget: LaminarBudget::new(cfg.machines, cfg.gamma, cfg.horizon),
            cfg,
            rng: StdRng::seed_from_u64(seed),
            active: Vec::new(),
            next_id: 0,
        }
    }

    /// Currently active jobs (id, original window).
    pub fn active(&self) -> &[(JobId, Window)] {
        &self.active
    }

    /// Tries to produce the next request; `None` if sampling failed (the
    /// instance is saturated at this density and nothing can be deleted).
    pub fn next_request(&mut self) -> Option<Request> {
        let want_insert = self.active.len() < self.cfg.target_active
            && (self.active.is_empty() || self.rng.gen_bool(self.cfg.insert_bias));
        if want_insert {
            for _ in 0..64 {
                let span = self.cfg.spans[self.rng.gen_range(0..self.cfg.spans.len())];
                let window = if self.cfg.unaligned {
                    let start = self.rng.gen_range(0..=(self.cfg.horizon - span));
                    Window::with_span(start, span)
                } else {
                    let start = self.rng.gen_range(0..(self.cfg.horizon / span)) * span;
                    Window::with_span(start, span)
                };
                if !self.budget.try_add(window.aligned_subwindow()) {
                    continue;
                }
                let id = JobId(self.next_id);
                self.next_id += 1;
                self.active.push((id, window));
                return Some(Request::Insert { id, window });
            }
            // Fall through to a delete if sampling kept failing.
        }
        if self.active.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.active.len());
        let (id, window) = self.active.swap_remove(idx);
        self.budget.remove(window.aligned_subwindow());
        Some(Request::Delete { id })
    }

    /// Generates a sequence of up to `len` requests.
    pub fn generate(&mut self, len: usize) -> RequestSeq {
        let mut seq = RequestSeq::new();
        for _ in 0..len {
            match self.next_request() {
                Some(r) => {
                    seq.push(r);
                }
                None => break,
            }
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::feasibility::{aligned_density_max_gamma, gamma_underallocated_blocked};
    use realloc_core::Job;
    use std::collections::BTreeMap;

    #[test]
    fn same_seed_same_stream() {
        // Regression guard for the determinism contract documented on
        // `ChurnGenerator::new` (old-vs-new perf A/Bs replay the same
        // stream through two scheduler builds): equal config + equal
        // seed ⇒ identical request streams, across both alignment modes
        // and under incremental (`next_request`) consumption.
        for unaligned in [false, true] {
            let cfg = ChurnConfig {
                unaligned,
                target_active: 64,
                ..ChurnConfig::default()
            };
            let a = ChurnGenerator::new(cfg.clone(), 42).generate(600);
            let b = ChurnGenerator::new(cfg.clone(), 42).generate(600);
            assert_eq!(a.requests(), b.requests(), "unaligned={unaligned}");
            // Incremental consumption sees the same stream too.
            let mut inc = ChurnGenerator::new(cfg.clone(), 42);
            let stepped: Vec<Request> = std::iter::from_fn(|| inc.next_request())
                .take(600)
                .collect();
            assert_eq!(a.requests(), &stepped[..], "unaligned={unaligned}");
            // And a different seed actually changes the stream.
            let c = ChurnGenerator::new(cfg, 43).generate(600);
            assert_ne!(a.requests(), c.requests(), "unaligned={unaligned}");
        }
    }

    #[test]
    fn generated_sequences_are_wellformed() {
        let mut g = ChurnGenerator::new(ChurnConfig::default(), 1);
        let seq = g.generate(500);
        assert!(seq.len() >= 400);
        seq.validate().expect("insert/delete pairing");
    }

    #[test]
    fn density_certified_at_every_prefix() {
        let cfg = ChurnConfig {
            gamma: 8,
            target_active: 64,
            horizon: 1 << 12,
            ..ChurnConfig::default()
        };
        let mut g = ChurnGenerator::new(cfg, 7);
        let seq = g.generate(400);
        let mut active: BTreeMap<JobId, Window> = BTreeMap::new();
        for r in seq.iter() {
            match *r {
                Request::Insert { id, window } => {
                    active.insert(id, window);
                }
                Request::Delete { id } => {
                    active.remove(&id);
                }
            }
            let aligned: Vec<Window> = active.values().map(|w| w.aligned_subwindow()).collect();
            assert!(
                aligned_density_max_gamma(&aligned, 1) >= 8,
                "prefix lost 8-density"
            );
        }
    }

    #[test]
    fn density_implies_blocked_underallocation() {
        // Empirical sanity for the Lemma 2 ⇒ feasibility direction on
        // aligned laminar instances (small sizes, exact check).
        let cfg = ChurnConfig {
            gamma: 8,
            target_active: 32,
            horizon: 1 << 10,
            spans: vec![1, 4, 16, 64],
            ..ChurnConfig::default()
        };
        let mut g = ChurnGenerator::new(cfg, 3);
        let _ = g.generate(300);
        let jobs: Vec<Job> = g
            .active()
            .iter()
            .map(|&(id, w)| Job::unit(id.0, w.aligned_subwindow()))
            .collect();
        assert!(
            gamma_underallocated_blocked(&jobs, 1, 4),
            "8-dense aligned instance should be ≥4-blocked-underallocated"
        );
    }

    #[test]
    fn unaligned_mode_emits_unaligned_windows() {
        let cfg = ChurnConfig {
            unaligned: true,
            spans: vec![3, 5, 7, 12],
            target_active: 40,
            ..ChurnConfig::default()
        };
        let mut g = ChurnGenerator::new(cfg, 11);
        let seq = g.generate(200);
        let any_unaligned = seq.iter().any(|r| match r {
            Request::Insert { window, .. } => !window.is_aligned(),
            _ => false,
        });
        assert!(any_unaligned);
    }

    #[test]
    fn hovers_near_target() {
        let cfg = ChurnConfig {
            target_active: 50,
            horizon: 1 << 12,
            ..ChurnConfig::default()
        };
        let mut g = ChurnGenerator::new(cfg, 5);
        let _ = g.generate(2000);
        assert!(g.active().len() <= 50);
        assert!(
            g.active().len() >= 10,
            "churn collapsed: {}",
            g.active().len()
        );
    }
}
