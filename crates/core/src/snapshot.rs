//! Versioned text framing for full-state snapshots, and the
//! [`Restorable`] capability trait.
//!
//! A snapshot is a point-in-time serialization of a scheduler's complete
//! mutable state — not a request log. Together with a journal *tail* it
//! reconstructs a scheduler exactly (checkpoint + WAL discipline), which
//! is what makes O(tail) crash recovery, journal truncation, and
//! "snapshot, ship, restore" shard migration possible at the engine
//! layer.
//!
//! The format extends the [`crate::textio`] line discipline — one record
//! per line, `#` comments ignored — with two framing primitives:
//!
//! * a mandatory first line `# realloc snapshot v1` (the version header;
//!   readers reject anything else up front), and
//! * nestable sections `!begin <kind> [args…]` / `!end`, so composite
//!   schedulers (a machine group, a sharded engine) embed their parts'
//!   snapshots verbatim as child sections.
//!
//! ```text
//! # realloc snapshot v1
//! !begin multi
//! m 2
//! j 17 0 64 1          # job 17, window [0,64), machine 1
//! !begin reservation   # machine 0's full scheduler state
//! t 32 256
//! …
//! !end
//! !begin reservation   # machine 1
//! …
//! !end
//! !end
//! ```
//!
//! Implementations must uphold the round-trip contract: `restore(
//! snapshot_text(s))` yields a scheduler that is *behaviorally
//! indistinguishable* from `s` — every subsequent request produces
//! identical moves, costs, and errors. Parsers return graceful
//! [`ParseError`]s (never panic) on truncated, malformed, or
//! inconsistent input.

use crate::textio::ParseError;
use std::fmt;

/// The mandatory first line of every snapshot document.
pub const SNAPSHOT_HEADER: &str = "# realloc snapshot v1";

/// Appends a snapshot document to `out` as an *embedded* body — every
/// line, newline-terminated — under a caller-written header that
/// carries `text.lines().count()` (journal checkpoint records and
/// replication snapshot frames both embed snapshots this way).
pub fn embed(out: &mut String, text: &str) {
    for line in text.lines() {
        out.push_str(line);
        out.push('\n');
    }
}

/// Reads an embedded snapshot back: exactly `nlines` raw lines off
/// `lines` (comments and blanks are part of the body, and nothing past
/// it is consumed). `Err` carries the reason: fewer lines remain than
/// the header promised, or the body is not a snapshot document.
pub fn take_embedded<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    nlines: usize,
) -> Result<String, String> {
    let mut text = String::new();
    for taken in 0..nlines {
        let Some(raw) = lines.next() else {
            return Err(format!(
                "embedded snapshot truncated: {taken} of {nlines} lines present"
            ));
        };
        text.push_str(raw);
        text.push('\n');
    }
    if !text.starts_with(SNAPSHOT_HEADER) {
        return Err(format!(
            "embedded snapshot does not start with '{SNAPSHOT_HEADER}'"
        ));
    }
    Ok(text)
}

/// Stable 64-bit FNV-1a digest of a text document.
///
/// This is the state-digest primitive of the replication layer: two
/// schedulers whose canonical snapshot texts are byte-identical have
/// equal digests, so a replica can verify it has not diverged from its
/// primary by exchanging 8 bytes instead of shipping a full snapshot.
/// Deterministic across processes, machines, and versions by
/// construction (no keyed hashing, no pointer-width dependence); **not**
/// collision-resistant against an adversary — this detects drift and
/// corruption, it does not authenticate.
pub fn digest64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builder for snapshot text: writes the version header up front and
/// keeps `!begin`/`!end` nesting balanced.
#[derive(Debug)]
pub struct SnapshotWriter {
    out: String,
    depth: usize,
}

impl SnapshotWriter {
    /// New writer with the version header already emitted.
    pub fn new() -> Self {
        let mut out = String::with_capacity(256);
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        SnapshotWriter { out, depth: 0 }
    }

    /// Opens a section of the given kind.
    pub fn begin(&mut self, kind: &str) {
        debug_assert!(!kind.is_empty() && !kind.contains(char::is_whitespace));
        self.out.push_str("!begin ");
        self.out.push_str(kind);
        self.out.push('\n');
        self.depth += 1;
    }

    /// Opens a section with extra argument tokens (e.g. `!begin shard 3`).
    pub fn begin_args(&mut self, kind: &str, args: fmt::Arguments<'_>) {
        use fmt::Write as _;
        debug_assert!(!kind.is_empty() && !kind.contains(char::is_whitespace));
        let _ = write!(self.out, "!begin {kind} {args}");
        self.out.push('\n');
        self.depth += 1;
    }

    /// Closes the innermost open section.
    pub fn end(&mut self) {
        assert!(self.depth > 0, "unbalanced SnapshotWriter::end");
        self.out.push_str("!end\n");
        self.depth -= 1;
    }

    /// Appends one payload record line to the current section.
    pub fn line(&mut self, args: fmt::Arguments<'_>) {
        use fmt::Write as _;
        let _ = write!(self.out, "{args}");
        self.out.push('\n');
    }

    /// Writes `value`'s state as a child section of its own kind.
    pub fn child<T: Restorable>(&mut self, value: &T) {
        self.begin(T::SNAPSHOT_KIND);
        value.write_state(self);
        self.end();
    }

    /// Finishes the document.
    ///
    /// # Panics
    ///
    /// Panics if any section is still open (a writer bug, not an input
    /// error).
    pub fn finish(self) -> String {
        assert!(self.depth == 0, "unclosed snapshot section");
        self.out
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// One parsed snapshot section: its payload lines (in order, with their
/// 1-based line numbers for error reporting) and child sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotNode {
    /// Section kind (the token after `!begin`); empty for the root.
    pub kind: String,
    /// Extra tokens on the `!begin` line.
    pub args: Vec<String>,
    /// Payload lines, comment-stripped and trimmed, with line numbers.
    pub lines: Vec<(usize, String)>,
    /// Child sections, in document order.
    pub children: Vec<SnapshotNode>,
}

impl SnapshotNode {
    fn empty(kind: String, args: Vec<String>) -> Self {
        SnapshotNode {
            kind,
            args,
            lines: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Parses a whole snapshot document into its root node. The root
    /// itself has kind `""`; top-level sections are its children.
    pub fn parse(text: &str) -> Result<SnapshotNode, ParseError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim_end() == SNAPSHOT_HEADER => {}
            other => {
                return Err(ParseError {
                    line: 1,
                    message: format!(
                        "snapshot must start with '{SNAPSHOT_HEADER}', got {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                })
            }
        }
        // Stack of open sections; the root sits at the bottom.
        let mut stack = vec![SnapshotNode::empty(String::new(), Vec::new())];
        for (i, raw) in lines {
            let line = i + 1;
            let content = crate::textio::line_content(raw);
            if content.is_empty() {
                continue;
            }
            if let Some(rest) = content.strip_prefix("!begin") {
                let mut toks = rest.split_whitespace();
                let kind = toks.next().ok_or(ParseError {
                    line,
                    message: "'!begin' without a section kind".to_string(),
                })?;
                let args = toks.map(str::to_string).collect();
                stack.push(SnapshotNode::empty(kind.to_string(), args));
            } else if content == "!end" {
                let done = stack.pop().expect("stack never empties below root");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => {
                        return Err(ParseError {
                            line,
                            message: "'!end' without a matching '!begin'".to_string(),
                        })
                    }
                }
            } else if content.starts_with('!') {
                return Err(ParseError {
                    line,
                    message: format!("unknown framing directive '{content}'"),
                });
            } else {
                stack
                    .last_mut()
                    .expect("root always open")
                    .lines
                    .push((line, content.to_string()));
            }
        }
        if stack.len() != 1 {
            return Err(ParseError {
                line: text.lines().count(),
                message: format!(
                    "snapshot truncated: {} unclosed '!begin' section(s)",
                    stack.len() - 1
                ),
            });
        }
        Ok(stack.pop().expect("root"))
    }

    /// The single child section of the given kind; errors when absent or
    /// ambiguous.
    pub fn only_child(&self, kind: &str) -> Result<&SnapshotNode, ParseError> {
        let mut found = self.children.iter().filter(|c| c.kind == kind);
        let first = found.next().ok_or_else(|| ParseError {
            line: 0,
            message: format!("snapshot has no '{kind}' section"),
        })?;
        if found.next().is_some() {
            return Err(ParseError {
                line: 0,
                message: format!("snapshot has more than one '{kind}' section"),
            });
        }
        Ok(first)
    }

    /// All child sections of the given kind, in order.
    pub fn children_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a SnapshotNode> {
        self.children.iter().filter(move |c| c.kind == kind)
    }

    /// Errors unless this node has the expected kind.
    pub fn expect_kind(&self, kind: &str) -> Result<(), ParseError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(ParseError {
                line: 0,
                message: format!("expected a '{kind}' section, found '{}'", self.kind),
            })
        }
    }
}

/// Typed cursor over one payload line's whitespace-separated fields,
/// producing located [`ParseError`]s instead of panics.
#[derive(Debug)]
pub struct Fields<'a> {
    line: usize,
    parts: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// Cursor over `content` (already comment-stripped) at `line`.
    pub fn of(line: usize, content: &'a str) -> Self {
        Fields {
            line,
            parts: content.split_whitespace(),
        }
    }

    /// A [`ParseError`] at this line.
    pub fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    /// Next raw token; errors naming the missing field otherwise.
    pub fn token(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.parts
            .next()
            .ok_or_else(|| self.err(format!("missing {what}")))
    }

    /// Next token parsed as `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, ParseError> {
        let tok = self.token(what)?;
        tok.parse::<u64>()
            .map_err(|e| self.err(format!("bad {what} '{tok}': {e}")))
    }

    /// Next token parsed as `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, ParseError> {
        let tok = self.token(what)?;
        tok.parse::<usize>()
            .map_err(|e| self.err(format!("bad {what} '{tok}': {e}")))
    }

    /// Every remaining token parsed as `u64`.
    pub fn rest_u64(self, what: &str) -> Result<Vec<u64>, ParseError> {
        let line = self.line;
        self.parts
            .map(|tok| {
                tok.parse::<u64>().map_err(|e| ParseError {
                    line,
                    message: format!("bad {what} '{tok}': {e}"),
                })
            })
            .collect()
    }

    /// Errors if any token remains (trailing garbage hides typos).
    pub fn finish(&mut self) -> Result<(), ParseError> {
        match self.parts.next() {
            None => Ok(()),
            Some(extra) => Err(self.err(format!("unexpected trailing token '{extra}'"))),
        }
    }
}

/// Full-state snapshot/restore capability, implemented by every scheduler
/// layer (single-machine schedulers, the multi-machine wrapper, the
/// engine).
///
/// The contract: [`Restorable::restore`] of [`Restorable::snapshot_text`]
/// yields an instance that is behaviorally indistinguishable from the
/// original — identical moves, costs, errors, and telemetry on any
/// subsequent request stream. Readers must fail gracefully (no panics) on
/// malformed input.
pub trait Restorable: Sized {
    /// Section kind naming this type's state in the framing.
    const SNAPSHOT_KIND: &'static str;

    /// Writes the full mutable state as payload lines / child sections of
    /// the current section. Output must be deterministic (sorted where
    /// the underlying containers are not).
    fn write_state(&self, w: &mut SnapshotWriter);

    /// Rebuilds an instance from a parsed section of kind
    /// [`Restorable::SNAPSHOT_KIND`], re-deriving every redundant index
    /// and validating structural consistency.
    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError>;

    /// Serializes to a self-contained snapshot document.
    fn snapshot_text(&self) -> String {
        let mut w = SnapshotWriter::new();
        w.begin(Self::SNAPSHOT_KIND);
        self.write_state(&mut w);
        w.end();
        w.finish()
    }

    /// Parses a snapshot document produced by
    /// [`Restorable::snapshot_text`].
    fn restore(text: &str) -> Result<Self, ParseError> {
        let root = SnapshotNode::parse(text)?;
        Self::read_state(root.only_child(Self::SNAPSHOT_KIND)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip_nesting() {
        let mut w = SnapshotWriter::new();
        w.begin("outer");
        w.line(format_args!("x 1 2"));
        w.begin_args("inner", format_args!("7"));
        w.line(format_args!("y 3"));
        w.end();
        w.end();
        let text = w.finish();
        assert!(text.starts_with(SNAPSHOT_HEADER));

        let root = SnapshotNode::parse(&text).unwrap();
        let outer = root.only_child("outer").unwrap();
        assert_eq!(outer.lines.len(), 1);
        assert_eq!(outer.lines[0].1, "x 1 2");
        let inner = outer.only_child("inner").unwrap();
        assert_eq!(inner.args, vec!["7".to_string()]);
        assert_eq!(inner.lines[0].1, "y 3");
    }

    #[test]
    fn parser_rejects_malformed_framing() {
        // Missing header.
        assert!(SnapshotNode::parse("!begin x\n!end\n").is_err());
        // Wrong version.
        assert!(SnapshotNode::parse("# realloc snapshot v9\n").is_err());
        // Unbalanced begin (truncated document).
        let text = format!("{SNAPSHOT_HEADER}\n!begin x\n");
        let e = SnapshotNode::parse(&text).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
        // Stray end.
        let text = format!("{SNAPSHOT_HEADER}\n!end\n");
        assert!(SnapshotNode::parse(&text).is_err());
        // Unknown directive.
        let text = format!("{SNAPSHOT_HEADER}\n!frobnicate\n");
        assert!(SnapshotNode::parse(&text).is_err());
        // Begin without a kind.
        let text = format!("{SNAPSHOT_HEADER}\n!begin\n!end\n");
        assert!(SnapshotNode::parse(&text).is_err());
    }

    #[test]
    fn fields_cursor_locates_errors() {
        let mut f = Fields::of(42, "j 17 xyz");
        assert_eq!(f.token("op").unwrap(), "j");
        assert_eq!(f.u64("id").unwrap(), 17);
        let e = f.u64("slot").unwrap_err();
        assert_eq!(e.line, 42);
        assert!(e.message.contains("slot"), "{e}");

        let mut f = Fields::of(7, "a b");
        let e = f.finish().unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");

        let f = Fields::of(1, "1 2 3");
        assert_eq!(f.rest_u64("slot").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn comments_and_blanks_ignored_inside_sections() {
        let text = format!("{SNAPSHOT_HEADER}\n!begin s\n\n# note\nx 1 # inline\n!end\n");
        let root = SnapshotNode::parse(&text).unwrap();
        let s = root.only_child("s").unwrap();
        assert_eq!(s.lines.len(), 1);
        assert_eq!(s.lines[0].1, "x 1");
    }

    #[test]
    fn only_child_rejects_ambiguity() {
        let text = format!("{SNAPSHOT_HEADER}\n!begin s\n!end\n!begin s\n!end\n");
        let root = SnapshotNode::parse(&text).unwrap();
        assert!(root.only_child("s").is_err());
        assert_eq!(root.children_of("s").count(), 2);
        assert!(root.only_child("missing").is_err());
    }
}
