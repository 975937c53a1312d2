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
//! the engine's rejection code. A traced batch suffixes its admitted
//! mutations' replies (`ok placed …`, `ok removed …`, never another
//! shape) with ` trace <id>`, the non-zero causal trace id.
//!
//! This file is the grammar's one home, in both directions: the server
//! parses a [`Command`] and writes a [`Reply`], the client
//! ([`crate::client`]) writes the command and parses the reply, and
//! every value round-trips through its text.

use realloc_core::{JobId, Request, Window};
use realloc_engine::TenantId;
use std::fmt::Write as _;
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

    /// Appends the wire text for this command to `out`, which
    /// [`Command::parse`] reads back.
    pub fn write_text(&self, out: &mut String) {
        let written = match self {
            Command::Place { tenant, id, window } => write!(
                out,
                "place {} {} {} {}",
                tenant.0,
                id.0,
                window.start(),
                window.end()
            ),
            Command::Remove { tenant, id } => write!(out, "remove {} {}", tenant.0, id.0),
            Command::Window { tenant, id } => write!(out, "window {} {}", tenant.0, id.0),
            Command::Metrics => write!(out, "metrics"),
        };
        written.expect("writing to a String");
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

/// One server reply, formatted onto the wire by [`Reply::write_traced`]
/// and read back by [`Reply::parse`]. It carries what the wire carries,
/// so every reply round-trips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Insert admitted and serviced; carries the global job id.
    Placed(JobId),
    /// Delete admitted and serviced; carries the global job id.
    Removed(JobId),
    /// The job's original window.
    WindowIs(Window),
    /// The job is not active.
    WindowNone,
    /// Engine counters.
    MetricsIs {
        /// Requests processed since boot.
        requests: u64,
        /// Requests that failed validation or capacity.
        failed: u64,
        /// Jobs currently scheduled.
        active: u64,
        /// Reallocation epoch.
        epoch: u64,
        /// Shard count.
        shards: u64,
    },
    /// Shed by QoS; retry after this many milliseconds (at least 1 —
    /// see [`Reply::overloaded`]).
    Overloaded(u64),
    /// Refused (parse failure, reserved tenant, engine rejection code).
    Err(String),
}

impl Reply {
    /// The shed reply for a QoS backoff, in whole milliseconds: a
    /// sub-millisecond backoff still tells the client to wait.
    pub fn overloaded(retry_after: Duration) -> Reply {
        Reply::Overloaded(u64::try_from(retry_after.as_millis().max(1)).unwrap_or(u64::MAX))
    }

    /// The wire text for this reply, untraced.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        self.write_traced(None, &mut text);
        text
    }

    /// Appends the wire text for this reply to `out` — what the serving
    /// loop formats a whole batch's replies through, one buffer for all
    /// — suffixed with ` trace <id>` when the batch was traced and the
    /// reply is an admitted mutation's (`placed`/`removed`).
    pub fn write_traced(&self, trace: Option<u64>, out: &mut String) {
        let written = match self {
            Reply::Placed(id) => write!(out, "ok placed {}", id.0),
            Reply::Removed(id) => write!(out, "ok removed {}", id.0),
            Reply::WindowIs(w) => write!(out, "ok window {} {}", w.start(), w.end()),
            Reply::WindowNone => write!(out, "ok window none"),
            Reply::MetricsIs {
                requests,
                failed,
                active,
                epoch,
                shards,
            } => write!(
                out,
                "ok metrics requests={requests} failed={failed} active={active} epoch={epoch} shards={shards}"
            ),
            Reply::Overloaded(ms) => write!(out, "overloaded {ms}"),
            Reply::Err(detail) => write!(out, "err {detail}"),
        };
        written.expect("writing to a String");
        if let (Some(id), Reply::Placed(_) | Reply::Removed(_)) = (trace, self) {
            write!(out, " trace {id}").expect("writing to a String");
        }
    }

    /// Parses one reply frame, the inverse of [`Reply::write_traced`]:
    /// the reply and its trace id, when it carries one. Only a
    /// `placed`/`removed` reply with a non-zero id is traced; in any
    /// other shape the words are the reply's own (an `err` detail may
    /// say "trace"), and a line the server never writes is an error
    /// naming it.
    pub fn parse(line: &str) -> Result<(Reply, Option<u64>), String> {
        if let Some((reply, id)) = line.rsplit_once(" trace ") {
            if let (Some(reply @ (Reply::Placed(_) | Reply::Removed(_))), Ok(id @ 1..)) =
                (Reply::parse_untraced(reply), id.parse::<u64>())
            {
                return Ok((reply, Some(id)));
            }
        }
        Reply::parse_untraced(line)
            .map(|reply| (reply, None))
            .ok_or_else(|| format!("malformed reply '{line}'"))
    }

    fn parse_untraced(line: &str) -> Option<Reply> {
        if let Some(detail) = line.strip_prefix("err ") {
            return Some(Reply::Err(detail.to_string()));
        }
        let num = |s: &str| s.parse::<u64>().ok();
        let count = |field: &str, key: &str| num(field.strip_prefix(key)?.strip_prefix('=')?);
        let fields: Vec<&str> = line.split(' ').collect();
        Some(match fields[..] {
            ["ok", "placed", id] => Reply::Placed(JobId(num(id)?)),
            ["ok", "removed", id] => Reply::Removed(JobId(num(id)?)),
            ["ok", "window", "none"] => Reply::WindowNone,
            ["ok", "window", start, end] => {
                let (start, end) = (num(start)?, num(end)?);
                if end <= start {
                    return None;
                }
                Reply::WindowIs(Window::new(start, end))
            }
            ["ok", "metrics", requests, failed, active, epoch, shards] => Reply::MetricsIs {
                requests: count(requests, "requests")?,
                failed: count(failed, "failed")?,
                active: count(active, "active")?,
                epoch: count(epoch, "epoch")?,
                shards: count(shards, "shards")?,
            },
            ["overloaded", ms] => Reply::Overloaded(num(ms)?),
            _ => return None,
        })
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

    /// Every reply shape beside its wire text.
    fn every_reply() -> Vec<(Reply, &'static str)> {
        vec![
            (Reply::Placed(JobId(9)), "ok placed 9"),
            (Reply::Removed(JobId(9)), "ok removed 9"),
            (Reply::WindowIs(Window::new(10, 14)), "ok window 10 14"),
            (Reply::WindowNone, "ok window none"),
            (
                Reply::MetricsIs {
                    requests: 5,
                    failed: 1,
                    active: 4,
                    epoch: 2,
                    shards: 8,
                },
                "ok metrics requests=5 failed=1 active=4 epoch=2 shards=8",
            ),
            (
                Reply::overloaded(Duration::from_millis(250)),
                "overloaded 250",
            ),
            // A sub-millisecond backoff still tells the client to wait.
            (Reply::overloaded(Duration::from_micros(10)), "overloaded 1"),
            (Reply::Err("duplicate".into()), "err duplicate"),
            (Reply::Err("lost trace 5".into()), "err lost trace 5"),
        ]
    }

    #[test]
    fn replies_format() {
        for (reply, text) in every_reply() {
            assert_eq!(reply.to_text(), text, "{reply:?}");
        }
    }

    /// The grammar read both ways: every command and every reply shape
    /// comes back from its own text, traced replies with their id, and
    /// nothing the server never writes parses.
    #[test]
    fn the_grammar_round_trips() {
        let (tenant, id) = (TenantId(3), JobId(7));
        for command in [
            Command::Place {
                tenant,
                id,
                window: Window::new(10, 14),
            },
            Command::Remove { tenant, id },
            Command::Window { tenant, id },
            Command::Metrics,
        ] {
            let mut text = String::new();
            command.write_text(&mut text);
            assert_eq!(Command::parse(&text), Ok(command));
        }

        // Every reply shape comes back from its wire text.
        for (reply, text) in every_reply() {
            assert_eq!(Reply::parse(text), Ok((reply, None)));
        }

        // Traced: an admitted mutation's reply carries the id back …
        for (text, reply, id) in [
            ("ok placed 7 trace 99", Reply::Placed(JobId(7)), 99),
            ("ok removed 3 trace 12345", Reply::Removed(JobId(3)), 12345),
            ("ok removed 7 trace 99", Reply::Removed(JobId(7)), 99),
        ] {
            let mut written = String::new();
            reply.write_traced(Some(id), &mut written);
            assert_eq!(written, text);
            assert_eq!(Reply::parse(text), Ok((reply, Some(id))));
        }
        // … no other shape is ever suffixed …
        let mut text = String::new();
        Reply::WindowNone.write_traced(Some(5), &mut text);
        assert_eq!(text, "ok window none");
        // … and the words are no suffix where they stay untraced: id 0
        // is the untraced sentinel, a non-mutation shape is never
        // annotated, and an err detail keeps what it says ("err lost
        // trace 5" above).
        assert!(Reply::parse("ok placed 7 trace 0").is_err());
        assert!(Reply::parse("ok window 10 14 trace 5").is_err());

        // A line the server never writes is an error that names it.
        for line in [
            "???",
            "",
            "ok placed banana",
            "ok placed 7 8",
            "ok window 14 10",
            "ok window 10",
            "ok metrics requests=5",
            "ok metrics requests=5 failed=1 active=4 epoch=2 nodes=8",
            "overloaded soon",
            "err",
            "ok  placed 7",
        ] {
            assert_eq!(
                Reply::parse(line),
                Err(format!("malformed reply '{line}'")),
                "{line:?}"
            );
        }
    }
}
