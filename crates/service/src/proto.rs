//! The serving tier's text protocol: one command per length-prefixed
//! frame in, one reply frame out, in command order.
//!
//! ```text
//! place <tenant> <id> <start> <end>   → ok placed <global>
//! remove <tenant> <id>                → ok removed <global>
//! window <tenant> <id>                → ok window <start> <end> | ok window none
//! metrics                             → ok metrics requests=… failed=… active=… epoch=… shards=…
//! any, while shedding                 → overloaded <retry_after_ms>
//! any, malformed or rejected         → err <detail>
//! ```
//!
//! Tenants are decimal `u16`s (`0` is reserved by the engine and
//! refused here); ids and window bounds are decimal `u64`s. Every
//! admitted mutation is answered with its outcome: `ok …`, or `err` with
//! the engine's rejection code.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{Metrics, TenantId};
use std::time::Duration;

/// One parsed client command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Place a job: admit, then `Engine::submit_for` an insert.
    Place {
        /// Requesting tenant.
        tenant: TenantId,
        /// Tenant-scoped job id.
        id: JobId,
        /// Requested window.
        window: Window,
    },
    /// Remove a job: admit, then `Engine::submit_for` a delete.
    Remove {
        /// Requesting tenant.
        tenant: TenantId,
        /// Tenant-scoped job id.
        id: JobId,
    },
    /// Read a job's original window (not rate limited).
    Window {
        /// Requesting tenant.
        tenant: TenantId,
        /// Tenant-scoped job id.
        id: JobId,
    },
    /// Read engine counters (not rate limited, not tenant-scoped).
    Metrics,
}

impl Command {
    /// Parses one command line. Errors are client-facing `err` details.
    pub fn parse(line: &str) -> Result<Command, String> {
        fn tenant(s: &str) -> Result<TenantId, String> {
            let t: u16 = s
                .parse()
                .map_err(|_| format!("bad tenant '{s}' (decimal u16)"))?;
            Ok(TenantId(t))
        }
        fn num(s: &str, what: &str) -> Result<u64, String> {
            s.parse()
                .map_err(|_| format!("bad {what} '{s}' (decimal u64)"))
        }
        let mut fields = line.split_whitespace();
        let verb = fields.next().ok_or("empty command")?;
        // No verb takes more than four arguments: a fifth is kept only so
        // that an over-long command matches no arm below.
        let mut args = [""; 5];
        let mut argc = 0;
        for field in fields.take(args.len()) {
            args[argc] = field;
            argc += 1;
        }
        match (verb, &args[..argc]) {
            ("place", [t, id, start, end]) => {
                let (start, end) = (num(start, "start")?, num(end, "end")?);
                if end <= start {
                    return Err(format!("empty window [{start}, {end})"));
                }
                Ok(Command::Place {
                    tenant: tenant(t)?,
                    id: JobId(num(id, "id")?),
                    window: Window::new(start, end),
                })
            }
            ("remove", [t, id]) => Ok(Command::Remove {
                tenant: tenant(t)?,
                id: JobId(num(id, "id")?),
            }),
            ("window", [t, id]) => Ok(Command::Window {
                tenant: tenant(t)?,
                id: JobId(num(id, "id")?),
            }),
            ("metrics", []) => Ok(Command::Metrics),
            _ => Err(format!(
                "unknown command '{verb}' (expected place/remove/window/metrics)"
            )),
        }
    }

    /// The tenant a command is billed to, when it has one.
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            Command::Place { tenant, .. }
            | Command::Remove { tenant, .. }
            | Command::Window { tenant, .. } => Some(*tenant),
            Command::Metrics => None,
        }
    }

    /// Whether the command mutates the schedule (and is therefore
    /// subject to rate limiting and the admission cap).
    pub fn is_mutation(&self) -> bool {
        matches!(self, Command::Place { .. } | Command::Remove { .. })
    }

    /// The engine request a mutation maps to (tenant-scoped ids; the
    /// engine namespaces them).
    pub fn to_request(&self) -> Option<(TenantId, Request)> {
        match *self {
            Command::Place { tenant, id, window } => Some((tenant, Request::Insert { id, window })),
            Command::Remove { tenant, id } => Some((tenant, Request::Delete { id })),
            _ => None,
        }
    }
}

/// One server reply, formatted onto the wire by [`Reply::to_text`].
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Insert admitted and serviced.
    Placed(JobId),
    /// Delete admitted and serviced.
    Removed(JobId),
    /// The job's original window.
    WindowIs(Window),
    /// The job is not active.
    WindowNone,
    /// Engine counters.
    MetricsIs(Metrics),
    /// Shed by QoS; retry after the given backoff.
    Overloaded(Duration),
    /// Refused (parse failure, reserved tenant, engine rejection code).
    Err(String),
}

impl Reply {
    /// The wire text for this reply.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        self.write_text(&mut text);
        text
    }

    /// Appends the wire text for this reply to `out` — what the serving
    /// loop formats a whole batch's replies through, one buffer for all.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        let written = match self {
            Reply::Placed(id) => write!(out, "ok placed {}", id.0),
            Reply::Removed(id) => write!(out, "ok removed {}", id.0),
            Reply::WindowIs(w) => write!(out, "ok window {} {}", w.start(), w.end()),
            Reply::WindowNone => write!(out, "ok window none"),
            Reply::MetricsIs(m) => write!(
                out,
                "ok metrics requests={} failed={} active={} epoch={} shards={}",
                m.requests,
                m.failed,
                m.active_jobs,
                m.epoch,
                m.shards.len()
            ),
            Reply::Overloaded(d) => write!(out, "overloaded {}", d.as_millis().max(1)),
            Reply::Err(detail) => write!(out, "err {detail}"),
        };
        written.expect("writing to a String");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_and_refuse() {
        assert_eq!(
            Command::parse("place 3 7 10 14"),
            Ok(Command::Place {
                tenant: TenantId(3),
                id: JobId(7),
                window: Window::new(10, 14),
            })
        );
        assert_eq!(
            Command::parse("  remove 3 7  "),
            Ok(Command::Remove {
                tenant: TenantId(3),
                id: JobId(7),
            })
        );
        assert_eq!(
            Command::parse("window 3 7"),
            Ok(Command::Window {
                tenant: TenantId(3),
                id: JobId(7),
            })
        );
        assert_eq!(Command::parse("metrics"), Ok(Command::Metrics));
        assert!(Command::parse("place 3 7 14 10").is_err(), "empty window");
        assert!(
            Command::parse("place 99999999 7 1 2").is_err(),
            "tenant range"
        );
        assert!(Command::parse("bogus").is_err());
        assert!(Command::parse("").is_err());
        assert!(Command::parse("place 1 2").is_err(), "arity");
        assert_eq!(
            Command::parse("remove 3 7 9 9 9 9 9"),
            Err("unknown command 'remove' (expected place/remove/window/metrics)".to_string()),
            "arity, however long"
        );
    }

    #[test]
    fn replies_format() {
        assert_eq!(Reply::Placed(JobId(9)).to_text(), "ok placed 9");
        assert_eq!(
            Reply::WindowIs(Window::new(10, 14)).to_text(),
            "ok window 10 14"
        );
        assert_eq!(Reply::WindowNone.to_text(), "ok window none");
        assert_eq!(
            Reply::Overloaded(Duration::from_millis(250)).to_text(),
            "overloaded 250"
        );
        // A sub-millisecond backoff still tells the client to wait.
        assert_eq!(
            Reply::Overloaded(Duration::from_micros(10)).to_text(),
            "overloaded 1"
        );
        assert_eq!(Reply::Err("duplicate".into()).to_text(), "err duplicate");
    }
}
