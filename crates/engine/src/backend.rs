//! Pluggable per-shard scheduler backends.
//!
//! A shard owns one full [`Reallocator`]: a machine group driven through
//! the §3/§5 wrapper ([`realloc_multi::ReallocatingScheduler`]) over a
//! single-machine scheduler with a per-request guarantee. [`BackendKind`]
//! is the serializable selector (it also names backends on the
//! `exp_engine_throughput` command line and inside journal headers);
//! [`BackendKind::build`] instantiates the [`Backend`].
//!
//! `Backend` is a closed enum rather than a trait object so the
//! checkpoint layer gets static snapshot/restore dispatch: every variant
//! is [`Restorable`], and [`Backend::read_state`] rebuilds the right
//! variant from a [`BackendKind`] plus a parsed snapshot section —
//! something a `Box<dyn Reallocator>` cannot offer without downcasting.

use realloc_baselines::NaivePeckingScheduler;
use realloc_core::snapshot::{Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{Error, JobId, Reallocator, RequestOutcome, ScheduleSnapshot, Window};
use realloc_multi::{ReallocatingScheduler, TheoremOneScheduler};
use realloc_reservation::{DeamortizedScheduler, ReservationScheduler};

/// A shard backend: one of the closed set of schedulers a shard can run.
/// All variants are `Send`, so an engine can be handed to another
/// thread or shared behind a mutex.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// Raw reservation scheduler per machine (no trimming).
    Reservation(ReallocatingScheduler<ReservationScheduler>),
    /// Theorem 1: reservation + `n*` trimming per machine.
    TheoremOne(TheoremOneScheduler),
    /// Deamortized trimming per machine.
    Deamortized(ReallocatingScheduler<DeamortizedScheduler>),
    /// Lemma 4 naive pecking baseline per machine.
    Naive(ReallocatingScheduler<NaivePeckingScheduler>),
}

macro_rules! each_backend {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            Backend::Reservation($b) => $body,
            Backend::TheoremOne($b) => $body,
            Backend::Deamortized($b) => $body,
            Backend::Naive($b) => $body,
        }
    };
}

impl Reallocator for Backend {
    fn machines(&self) -> usize {
        each_backend!(self, b => b.machines())
    }

    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        out: &mut RequestOutcome,
    ) -> Result<(), Error> {
        each_backend!(self, b => b.insert_into(id, window, out))
    }

    fn delete_into(&mut self, id: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        each_backend!(self, b => b.delete_into(id, out))
    }

    fn snapshot(&self) -> ScheduleSnapshot {
        each_backend!(self, b => b.snapshot())
    }

    fn active_count(&self) -> usize {
        each_backend!(self, b => b.active_count())
    }

    fn window_of(&self, id: JobId) -> Option<Window> {
        each_backend!(self, b => b.window_of(id))
    }

    fn active_jobs(&self) -> Vec<(JobId, Window)> {
        each_backend!(self, b => b.active_jobs())
    }

    fn name(&self) -> &'static str {
        each_backend!(self, b => b.name())
    }
}

impl Backend {
    /// Writes the backend's full state as a `multi` child section of the
    /// current snapshot section.
    pub fn write_state(&self, w: &mut SnapshotWriter) {
        each_backend!(self, b => w.child(b))
    }

    /// Restores a backend of the given kind from its snapshot section
    /// inside `parent`, validating that the recorded state matches the
    /// selector (machine count, trim γ).
    pub fn read_state(
        kind: BackendKind,
        machines: usize,
        parent: &SnapshotNode,
    ) -> Result<Backend, ParseError> {
        fn section<T: Restorable>(parent: &SnapshotNode) -> Result<&SnapshotNode, ParseError> {
            parent.only_child(T::SNAPSHOT_KIND)
        }
        let backend = match kind {
            BackendKind::Reservation => {
                Backend::Reservation(Restorable::read_state(section::<
                    ReallocatingScheduler<ReservationScheduler>,
                >(parent)?)?)
            }
            BackendKind::TheoremOne { gamma } => {
                let s: TheoremOneScheduler =
                    Restorable::read_state(section::<TheoremOneScheduler>(parent)?)?;
                check_gamma(kind, gamma, (0..s.machines()).map(|m| s.backend(m).gamma()))?;
                Backend::TheoremOne(s)
            }
            BackendKind::Deamortized { gamma } => {
                let s: ReallocatingScheduler<DeamortizedScheduler> = Restorable::read_state(
                    section::<ReallocatingScheduler<DeamortizedScheduler>>(parent)?,
                )?;
                check_gamma(kind, gamma, (0..s.machines()).map(|m| s.backend(m).gamma()))?;
                Backend::Deamortized(s)
            }
            BackendKind::Naive => Backend::Naive(Restorable::read_state(section::<
                ReallocatingScheduler<NaivePeckingScheduler>,
            >(parent)?)?),
        };
        if backend.machines() != machines {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "backend snapshot has {} machines, the engine config says {machines}",
                    backend.machines()
                ),
            });
        }
        Ok(backend)
    }
}

/// Checks that every machine's restored trim γ (in machine order) is the
/// one `kind` selects.
fn check_gamma(
    kind: BackendKind,
    gamma: u64,
    recorded: impl Iterator<Item = u64>,
) -> Result<(), ParseError> {
    match recorded.enumerate().find(|&(_, g)| g != gamma) {
        Some((m, g)) => Err(ParseError {
            line: 0,
            message: format!("machine {m} recorded gamma {g} but the backend is {kind}"),
        }),
        None => Ok(()),
    }
}

/// Which scheduler a shard runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Raw §4 reservation scheduler per machine (no trimming):
    /// `O(log* Δ)` reallocations per request.
    Reservation,
    /// The paper's Theorem 1 configuration: reservation + `n*` trimming,
    /// `O(min{log* n, log* Δ})` per request.
    TheoremOne {
        /// Trim factor `γ`.
        gamma: u64,
    },
    /// Deamortized trimming (worst-case bounded per-request work).
    Deamortized {
        /// Trim factor `γ`.
        gamma: u64,
    },
    /// The Lemma 4 naive pecking-order baseline.
    Naive,
}

impl BackendKind {
    /// Instantiates the backend on `machines` machines.
    pub fn build(&self, machines: usize) -> Backend {
        match *self {
            BackendKind::Reservation => Backend::Reservation(ReallocatingScheduler::from_factory(
                machines,
                ReservationScheduler::new,
            )),
            BackendKind::TheoremOne { gamma } => {
                Backend::TheoremOne(TheoremOneScheduler::theorem_one(machines, gamma))
            }
            BackendKind::Deamortized { gamma } => {
                Backend::Deamortized(ReallocatingScheduler::from_factory(machines, || {
                    DeamortizedScheduler::new(gamma)
                }))
            }
            BackendKind::Naive => Backend::Naive(ReallocatingScheduler::from_factory(
                machines,
                NaivePeckingScheduler::new,
            )),
        }
    }

    /// Parses the textual selector (inverse of [`std::fmt::Display`]):
    /// `reservation`, `theorem1:γ`, `deamortized:γ`, `naive`.
    pub fn parse(s: &str) -> Result<BackendKind, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let gamma = |what: &str| -> Result<u64, String> {
            let raw = arg.ok_or_else(|| format!("{what} needs ':gamma' (e.g. {what}:8)"))?;
            raw.parse::<u64>()
                .map_err(|e| format!("bad gamma '{raw}': {e}"))
                .and_then(|g| {
                    if g >= 1 {
                        Ok(g)
                    } else {
                        Err("gamma must be >= 1".to_string())
                    }
                })
        };
        match name {
            "reservation" => Ok(BackendKind::Reservation),
            "theorem1" => Ok(BackendKind::TheoremOne {
                gamma: gamma("theorem1")?,
            }),
            "deamortized" => Ok(BackendKind::Deamortized {
                gamma: gamma("deamortized")?,
            }),
            "naive" => Ok(BackendKind::Naive),
            other => Err(format!(
                "unknown backend '{other}' (expected reservation, theorem1:g, \
                 deamortized:g, naive)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BackendKind::Reservation => write!(f, "reservation"),
            BackendKind::TheoremOne { gamma } => write!(f, "theorem1:{gamma}"),
            BackendKind::Deamortized { gamma } => write!(f, "deamortized:{gamma}"),
            BackendKind::Naive => write!(f, "naive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::{JobId, Window};

    #[test]
    fn parse_round_trips() {
        for kind in [
            BackendKind::Reservation,
            BackendKind::TheoremOne { gamma: 8 },
            BackendKind::Deamortized { gamma: 4 },
            BackendKind::Naive,
        ] {
            assert_eq!(BackendKind::parse(&kind.to_string()).unwrap(), kind);
        }
        // The full-recompute baselines are not served: their names are
        // unknown backends, like any other.
        for retired in ["edf", "llf"] {
            let e = BackendKind::parse(retired).unwrap_err();
            assert!(e.contains(&format!("unknown backend '{retired}'")), "{e}");
        }
        assert!(BackendKind::parse("theorem1").is_err());
        assert!(BackendKind::parse("theorem1:0").is_err());
        assert!(BackendKind::parse("quantum").is_err());
    }

    #[test]
    fn every_backend_schedules() {
        for kind in [
            BackendKind::Reservation,
            BackendKind::TheoremOne { gamma: 8 },
            BackendKind::Deamortized { gamma: 8 },
            BackendKind::Naive,
        ] {
            let mut b = kind.build(2);
            assert_eq!(b.machines(), 2);
            b.insert(JobId(1), Window::new(0, 16)).unwrap();
            b.insert(JobId(2), Window::new(0, 16)).unwrap();
            assert_eq!(b.active_count(), 2, "{kind}");
            b.delete(JobId(1)).unwrap();
            assert_eq!(b.active_count(), 1, "{kind}");
        }
    }
}
