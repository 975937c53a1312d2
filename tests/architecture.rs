//! The architecture contract: one concept, one implementation.
//!
//! Each row of [`ROWS`] protects one concept ("one flush door", "one
//! wire grammar", …) with a few probes. A probe reads a set of files,
//! matches every line against a needle list, and expects a shape of
//! hits — usually none outside the files where the concept lives. A
//! failure names the concept and every `file:line` hit.
//!
//! No rule passes vacuously: every path a probe names must select at
//! least one file, every file it allows must exist, and a probe scoped
//! to a function's body must find that function. Each row also carries
//! `trips_on`, a minimal violation: the self-test plants it in a copy
//! of the tree and wants the row to fail on exactly that line.
//!
//! A `[simplicity]` change that removes a second implementation adds a
//! row here that trips at its parent. Run it alone with
//! `cargo test --test architecture`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// One concept and the probes that keep it to one implementation.
struct Row {
    concept: &'static str,
    probes: &'static [Probe],
    /// `(file, line)`: appending `line` to `file` breaks the concept.
    trips_on: (&'static str, &'static str),
}

/// One search: the files it reads, the lines it looks for, and what it
/// expects to find.
#[derive(Clone, Copy)]
struct Probe {
    /// Files and directories, relative to the repository root;
    /// directories are read recursively, and a `*` matches within one
    /// path component (`crates/*/src`, `crates/engine/src/*.rs`).
    paths: &'static [&'static str],
    /// Only `*.rs` files under `paths`.
    rs_only: bool,
    /// Only the lines from one containing this text to the next line
    /// that is exactly `    }` — a method's body.
    body_of: Option<&'static str>,
    /// A line hits if any needle matches in it; see [`Needle`].
    needles: &'static [&'static str],
    expect: Expect,
}

/// The shape of hits a probe accepts.
#[derive(Clone, Copy)]
enum Expect {
    /// No hit outside these files.
    NoneOutside(&'static [&'static str]),
    /// At most one hit line per needle: a definition, never a second.
    OncePerNeedle,
    /// Hits in this file and in no other.
    OnlyIn(&'static str),
    /// Exactly one hit line, and it is in this file.
    OneLineIn(&'static str),
    /// Every match, sorted, is exactly this list.
    Exactly(&'static [&'static str]),
}

const fn probe(paths: &'static [&'static str], needles: &'static [&'static str]) -> Probe {
    Probe {
        paths,
        rs_only: false,
        body_of: None,
        needles,
        expect: Expect::NoneOutside(&[]),
    }
}

impl Probe {
    const fn rs_only(self) -> Probe {
        Probe {
            rs_only: true,
            ..self
        }
    }

    const fn body_of(self, anchor: &'static str) -> Probe {
        Probe {
            body_of: Some(anchor),
            ..self
        }
    }

    const fn expect(self, expect: Expect) -> Probe {
        Probe { expect, ..self }
    }
}

const ROWS: &[Row] = &[
    Row {
        concept: "one socket-server skeleton",
        probes: &[probe(&["crates/*/src"], &[r"\.incoming()"])
            .expect(Expect::OnlyIn("crates/core/src/net.rs"))],
        trips_on: (
            "crates/service/src/server.rs",
            "        for stream in listener.incoming() {",
        ),
    },
    Row {
        concept: "one frame-stream producer",
        probes: &[probe(
            &["crates/*/src"],
            &["fn next_pending_frame", "fn trim_history", "fn stamp"],
        )
        .expect(Expect::OncePerNeedle)],
        trips_on: (
            "crates/cluster/src/tcp.rs",
            "    fn trim_history(&mut self) {",
        ),
    },
    Row {
        concept: "one flush door, one drain body",
        probes: &[probe(
            &["crates/*/src"],
            &[
                r"fn flush_instrumented\b",
                r"fn drain_instrumented\b",
                r"fn flush_batch\b",
                r"fn flush_batch_traced\b",
                r"fn flush_staged\b",
                r"fn flush_coalesced\b",
            ],
        )],
        trips_on: (
            "crates/engine/src/serve.rs",
            "    fn flush_batch(&mut self) -> BatchReport {",
        ),
    },
    Row {
        concept: "the flush door and its two shorthands",
        probes: &[
            probe(&["crates/engine/src/*.rs"], &[r"pub fn flush\w*"]).expect(Expect::Exactly(&[
                "pub fn flush",
                "pub fn flush_durable",
                "pub fn flush_mode",
            ])),
        ],
        trips_on: (
            "crates/engine/src/serve.rs",
            "    pub fn flush_all(&mut self) -> BatchReport {",
        ),
    },
    Row {
        concept: "a flush runs one way: when called, inline, over shards held by value",
        probes: &[
            probe(
                &["crates/*/src"],
                &[
                    "WorkerPool",
                    "force_parallel_pool",
                    "uses_pool",
                    "Mutex<Shard>",
                ],
            ),
            probe(
                &["crates/*/src", "src", "examples"],
                &[
                    "CoalesceConfig",
                    "FlushMode::Coalesced",
                    "fn flush_now",
                    "Reply::Queued",
                ],
            ),
            probe(&["crates/*/src"], &[r"\.parallel\b"]),
        ],
        trips_on: (
            "crates/engine/src/serve.rs",
            "        if self.config.parallel {",
        ),
    },
    Row {
        concept: "one record per job",
        probes: &[
            probe(&["crates/engine/src/shard.rs"], &["active: *FxHashMap"]),
            probe(&["crates/multi/src/scheduler.rs"], &["BTreeSet"]),
            probe(&["crates/engine/src"], &["netted()"]),
        ],
        trips_on: (
            "crates/engine/src/shard.rs",
            "    active: FxHashMap<JobId, Window>,",
        ),
    },
    Row {
        concept: "one way through the commit, and no knob for it",
        probes: &[
            probe(
                &["crates/*/src"],
                &["fn lead_now", "fn commit_nowait", "fn commit_ungathered"],
            ),
            probe(
                &[
                    "crates/store/src",
                    "crates/engine/src",
                    "crates/service/src",
                ],
                &["env::var"],
            ),
        ],
        trips_on: (
            "crates/store/src/store.rs",
            r#"        let cap = std::env::var("GATHER_CAP_US");"#,
        ),
    },
    Row {
        concept: "one clock in the store's commit path: `Clock` times it, one driver waits",
        probes: &[
            probe(&["crates/store/src"], &["Instant::", "SystemTime::"]),
            probe(&["crates/store/src"], &["wait_timeout"])
                .expect(Expect::OneLineIn("crates/store/src/store.rs")),
            probe(&["crates/store/src/store.rs"], &["wait_timeout"])
                .body_of("fn gather<")
                .expect(Expect::OneLineIn("crates/store/src/store.rs")),
        ],
        trips_on: (
            "crates/store/src/store.rs",
            "        let started = Instant::now();",
        ),
    },
    Row {
        concept: "one recorded stream: journal grammar in journal.rs, one replay body",
        probes: &[
            probe(
                &["crates/*/src"],
                &["realloc-engine journal v", "fn retained_of"],
            )
            .expect(Expect::NoneOutside(&["crates/engine/src/journal.rs"])),
            probe(
                &["crates/store/src/store.rs"],
                &[r#""c "#, r#""T "#, r#""s "#, r#""b "#],
            ),
            probe(
                &["crates/engine/src/journal.rs"],
                &[r"\.submit(", r"\.flush("],
            )
            .body_of("fn replay_from"),
            probe(
                &["crates/*/src"],
                &["fn reset_journal", "fn bump_batches_past"],
            ),
        ],
        trips_on: (
            "crates/store/src/store.rs",
            r#"        out.push_str(&format!("c {epoch} {batches}\n"));"#,
        ),
    },
    Row {
        concept: "one metrics source of truth",
        probes: &[
            probe(
                &["crates/*/src"],
                &[
                    "ShardTele",
                    "SERVICE_SAMPLE_EVERY",
                    "fn set_telemetry",
                    "apply_shard_tele",
                ],
            ),
            probe(
                &["crates/telemetry/src"],
                &["restore_registry", "fn from_parts"],
            ),
            probe(
                &["crates/engine/src"],
                &[
                    r"requests_total\.add",
                    r"failed_total\.add",
                    r"reallocations_total\.add",
                    r"migrations_total\.add",
                ],
            ),
            probe(&["crates/engine/src"], &["carry.hist.clone()"]).expect(Expect::OncePerNeedle),
        ],
        trips_on: (
            "crates/engine/src/tele.rs",
            "        self.requests_total.add(report.requests);",
        ),
    },
    Row {
        concept: "one §3 rule, Lemma 3's balance",
        probes: &[probe(
            &["crates/multi/src"],
            &[
                r"machine_of\(group\.start, group\.members\.len\(\)",
                "rotation expects",
            ],
        )],
        trips_on: (
            "crates/multi/src/scheduler.rs",
            "        let tail = machine_of(group.start, group.members.len());",
        ),
    },
    Row {
        concept: "one way a handler serves a batch",
        probes: &[probe(&["crates/*/src"], &["fn serve_batch"])],
        trips_on: (
            "crates/service/src/server.rs",
            "    fn serve_batch(&mut self, batch: &[Command]) {",
        ),
    },
    Row {
        concept: "only schedulers with a guarantee are served, and one rebuild order",
        probes: &[
            probe(
                &["crates/*/src", "src", "tests", "examples"],
                &["AdaptiveScheduler", "multi::adaptive", "RECOVER_FRACTION"],
            ),
            probe(
                &["crates/engine"],
                &[
                    "BackendKind::Edf",
                    "BackendKind::Llf",
                    "Backend::Edf",
                    "Backend::Llf",
                    "EdfRescheduler",
                    "LlfRescheduler",
                ],
            ),
            probe(
                &["crates/baselines/src"],
                &[
                    "impl Restorable for EdfRescheduler",
                    "impl Restorable for LlfRescheduler",
                    "read_recompute_state",
                ],
            ),
            probe(
                &[
                    "crates/core/src",
                    "crates/reservation/src",
                    "crates/multi/src",
                    "crates/engine/src",
                ],
                &[
                    r"\.span\(\), *[a-z_]+\.start\(\)",
                    r"sort_by_key\(.*\.span\(\)",
                    r"sort_unstable_by_key\(.*\.span\(\)",
                ],
            )
            .expect(Expect::OneLineIn("crates/core/src/window.rs")),
        ],
        trips_on: (
            "crates/engine/src/shard.rs",
            "        jobs.sort_by_key(|(_, w)| (w.span(), w.start()));",
        ),
    },
    Row {
        concept: "one replication source",
        probes: &[
            probe(
                &["crates", "examples", "tests", "src"],
                &[
                    r"struct Primary\b",
                    "Primary::",
                    "mod primary",
                    "check_marker",
                ],
            )
            .rs_only(),
            probe(&["crates/cluster/src"], &["primary_mut"]),
        ],
        trips_on: ("crates/cluster/src/group.rs", "pub struct Primary {"),
    },
    Row {
        concept: "one wire grammar, and clients dial through FrameConn",
        probes: &[
            probe(
                &["crates", "src", "examples", "tests"],
                &[
                    "QosResponse",
                    "mod driver",
                    "workloads::driver",
                    "fn parse_traced",
                ],
            )
            .rs_only(),
            probe(
                &["crates/*/src"],
                &[
                    r#"" trace "#,
                    r#""ok placed"#,
                    r#""ok removed"#,
                    r#""ok window"#,
                    r#""ok metrics"#,
                    r#""overloaded"#,
                    r#"\["ok""#,
                    r#"\["overloaded""#,
                ],
            )
            .expect(Expect::NoneOutside(&["crates/service/src/proto.rs"])),
        ],
        trips_on: (
            "crates/service/src/client.rs",
            r#"        if line.starts_with("ok placed") {"#,
        ),
    },
    Row {
        concept:
            "one socket frame reader: every framed connection reads and writes through FrameConn",
        probes: &[probe(
            &["crates/*/src"],
            &[
                "BufReader<TcpStream>",
                "BufWriter<TcpStream>",
                "set_nonblocking(",
                "fill_buf(",
            ],
        )
        .expect(Expect::NoneOutside(&["crates/core/src/net.rs"]))],
        trips_on: (
            "crates/cluster/src/tcp.rs",
            "    reader: BufReader<TcpStream>,",
        ),
    },
    Row {
        concept: "scheduler state is index-addressed: a request hashes no id, interval or window",
        probes: &[
            probe(
                &[
                    "crates/reservation/src/state.rs",
                    "crates/reservation/src/scheduler.rs",
                    "crates/reservation/src/base.rs",
                ],
                &["FxHashMap", "HashMap<"],
            ),
            // The one hashed directory: far pages of the paged stores.
            probe(&["crates/reservation/src/paged.rs"], &["FxHashMap<"])
                .expect(Expect::OneLineIn("crates/reservation/src/paged.rs")),
            // The id index of callers that address jobs by id.
            probe(&["crates/reservation/src/jobs.rs"], &["FxHashMap<"])
                .expect(Expect::OneLineIn("crates/reservation/src/jobs.rs")),
        ],
        trips_on: (
            "crates/reservation/src/state.rs",
            "    pub intervals: FxHashMap<Slot, IntervalState>,",
        ),
    },
    Row {
        concept: "one request door per scheduler trait: moves append to the caller's buffer",
        probes: &[
            probe(
                &["crates/*/src"],
                &["fn insert_tracked", "fn delete_tracked", "fn slot_tracked"],
            ),
            // Only the provided wrappers hand out a fresh move list.
            probe(
                &["crates/*/src"],
                &[
                    "-> Result<Vec<SlotMove>, Error>",
                    "-> Result<RequestOutcome, Error>",
                ],
            )
            .expect(Expect::NoneOutside(&["crates/core/src/traits.rs"])),
        ],
        trips_on: ("crates/reservation/src/trim.rs", "    fn insert_tracked("),
    },
    Row {
        concept: "one Lemma 2 budget: LaminarBudget counts, Window::ancestors walks",
        probes: &[
            probe(
                &["crates", "src", "examples", "tests"],
                &["aligned_parent("],
            )
            .rs_only()
            .expect(Expect::NoneOutside(&[
                "crates/core/src/window.rs",
                "crates/core/tests/edge_cases.rs",
                "crates/core/tests/properties.rs",
            ])),
            probe(
                &["crates", "src", "examples", "tests"],
                &["HashMap<Window, u64>"],
            )
            .rs_only()
            .expect(Expect::NoneOutside(&["crates/core/src/feasibility.rs"])),
        ],
        trips_on: (
            "crates/workloads/src/churn.rs",
            "            match w.aligned_parent() {",
        ),
    },
    Row {
        concept: "one ruler: servebench and the exp bins measure, nothing else",
        probes: &[probe(
            &[
                "Cargo.toml",
                "crates/*/Cargo.toml",
                "crates/compat/*/Cargo.toml",
                ".github/workflows/ci.yml",
            ],
            &["criterion", "realloc-bench", "cargo bench"],
        )],
        trips_on: (
            "Cargo.toml",
            r#"criterion = { path = "crates/compat/criterion" }"#,
        ),
    },
    Row {
        concept: "one architecture contract",
        probes: &[probe(
            &[".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"],
            &["grep -r"],
        )],
        trips_on: (
            ".github/workflows/ci.yml",
            "          grep -rn 'fn serve_batch' crates/*/src",
        ),
    },
];

/// This file: it spells every needle and every violation.
const TABLE: &str = "tests/architecture.rs";

/// One alternative of a ported regular expression, matched on bytes.
/// Literal text, except: `.` is any byte, `[a-z_]` a class of ranges
/// and bytes, `\w` a word byte (`[A-Za-z0-9_]`), `\b` a word boundary;
/// `*` or `+` after any of these but `\b` repeats it; a backslash
/// before any other byte makes it literal.
struct Needle {
    atoms: Vec<Atom>,
    /// The literal bytes every match starts with: where to try.
    prefix: String,
}

enum Atom {
    Boundary,
    Repeat {
        class: Class,
        min: usize,
        max: usize,
    },
}

enum Class {
    Byte(u8),
    Any,
    Word,
    Set(Vec<u8>),
}

impl Class {
    fn matches(&self, c: u8) -> bool {
        match self {
            Class::Byte(b) => c == *b,
            Class::Any => true,
            Class::Word => is_word(c),
            Class::Set(set) => set.contains(&c),
        }
    }
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

impl Needle {
    fn parse(text: &str) -> Needle {
        let b = text.as_bytes();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < b.len() {
            let class = match b[i] {
                b'\\' => {
                    i += 1;
                    match b[i] {
                        b'b' => {
                            atoms.push(Atom::Boundary);
                            i += 1;
                            continue;
                        }
                        b'w' => Class::Word,
                        c => Class::Byte(c),
                    }
                }
                b'.' => Class::Any,
                b'[' => {
                    let end = i + b[i..]
                        .iter()
                        .position(|&c| c == b']')
                        .expect("a closed class");
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < end {
                        if j + 2 < end && b[j + 1] == b'-' {
                            set.extend(b[j]..=b[j + 2]);
                            j += 3;
                        } else {
                            set.push(b[j]);
                            j += 1;
                        }
                    }
                    i = end;
                    Class::Set(set)
                }
                c => Class::Byte(c),
            };
            i += 1;
            let (min, max) = match b.get(i) {
                Some(b'*') => (0, usize::MAX),
                Some(b'+') => (1, usize::MAX),
                _ => (1, 1),
            };
            if max > 1 {
                i += 1;
            }
            atoms.push(Atom::Repeat { class, min, max });
        }
        let prefix = atoms
            .iter()
            .map_while(|atom| match atom {
                Atom::Repeat {
                    class: Class::Byte(c),
                    min: 1,
                    max: 1,
                } if c.is_ascii() => Some(char::from(*c)),
                _ => None,
            })
            .collect();
        Needle { atoms, prefix }
    }

    /// The first match in `line` at or after byte `from`, as a byte
    /// range; the longest one at its start.
    fn find(&self, line: &str, from: usize) -> Option<(usize, usize)> {
        line[from..]
            .match_indices(&self.prefix)
            .find_map(|(k, _)| Some((from + k, match_at(&self.atoms, line.as_bytes(), from + k)?)))
    }
}

/// Where a match of `atoms` starting at `i` ends, longest first.
fn match_at(atoms: &[Atom], s: &[u8], i: usize) -> Option<usize> {
    let Some((atom, rest)) = atoms.split_first() else {
        return Some(i);
    };
    match atom {
        Atom::Boundary => {
            let before = i > 0 && is_word(s[i - 1]);
            let after = s.get(i).is_some_and(|&c| is_word(c));
            (before != after).then(|| match_at(rest, s, i)).flatten()
        }
        Atom::Repeat { class, min, max } => {
            let run = s[i..]
                .iter()
                .take(*max)
                .take_while(|&&c| class.matches(c))
                .count();
            (*min..=run).rev().find_map(|k| match_at(rest, s, i + k))
        }
    }
}

/// The files the table reads, by `/`-separated path from the
/// repository root. Build output (`target` directories) is not read.
#[derive(Clone)]
struct Tree(BTreeMap<String, String>);

impl Tree {
    fn load() -> Tree {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let tops: BTreeSet<&str> = ROWS
            .iter()
            .flat_map(|row| row.probes)
            .flat_map(|probe| probe.paths)
            .map(|path| path.split('/').next().expect("a path"))
            .collect();
        let mut files = BTreeMap::new();
        for top in tops {
            walk(root, top.to_string(), &mut files);
        }
        Tree(files)
    }

    /// The files `path` selects, with their text.
    fn select<'t>(
        &'t self,
        path: &'t str,
        rs_only: bool,
    ) -> impl Iterator<Item = (&'t str, &'t str)> + 't {
        self.0
            .iter()
            .filter(move |(file, _)| selects(path, file) && (!rs_only || file.ends_with(".rs")))
            .map(|(file, text)| (file.as_str(), text.as_str()))
    }

    /// Appends `line` to `file` (creating it), and returns its number.
    fn plant(&mut self, file: &str, line: &str) -> usize {
        let text = self.0.entry(file.to_string()).or_default();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(line);
        text.push('\n');
        text.lines().count()
    }
}

fn walk(root: &Path, rel: String, files: &mut BTreeMap<String, String>) {
    let path = root.join(&rel);
    if path.is_dir() {
        if path.file_name().is_some_and(|name| name == "target") {
            return;
        }
        let entries = fs::read_dir(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for entry in entries {
            let name = entry.expect("a directory entry").file_name();
            walk(root, format!("{rel}/{}", name.to_string_lossy()), files);
        }
    } else if path.is_file() && rel != TABLE {
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        files.insert(rel, String::from_utf8_lossy(&bytes).into_owned());
    }
}

/// Whether `pattern`'s components match the leading components of
/// `file`: the file itself, or a directory it lies under.
fn selects(pattern: &str, file: &str) -> bool {
    let mut names = file.split('/');
    pattern.split('/').all(|glob| {
        names.next().is_some_and(|name| match glob.split_once('*') {
            None => name == glob,
            Some((head, tail)) => {
                name.len() >= head.len() + tail.len()
                    && name.starts_with(head)
                    && name.ends_with(tail)
            }
        })
    })
}

/// A line that matched, as `file:line: text`.
struct Hit<'t> {
    file: &'t str,
    number: usize,
    text: &'t str,
}

impl std::fmt::Display for Hit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.number, self.text.trim())
    }
}

fn listed<'h, 't: 'h>(hits: impl IntoIterator<Item = &'h Hit<'t>>) -> String {
    hits.into_iter().map(|hit| format!("\n    {hit}")).collect()
}

impl Probe {
    /// Every fault this probe finds in `tree`.
    fn faults(&self, tree: &Tree) -> Vec<String> {
        let mut faults = Vec::new();
        let mut files: BTreeMap<&str, &str> = BTreeMap::new();
        for path in self.paths {
            let selected: Vec<_> = tree.select(path, self.rs_only).collect();
            if selected.is_empty() {
                faults.push(format!("{path} is missing or holds nothing to read"));
            }
            files.extend(selected);
        }
        let allowed = match &self.expect {
            Expect::NoneOutside(files) => files,
            Expect::OnlyIn(file) | Expect::OneLineIn(file) => std::slice::from_ref(file),
            Expect::OncePerNeedle | Expect::Exactly(_) => &[],
        };
        for file in allowed {
            if !tree.0.contains_key(*file) {
                faults.push(format!("{file} is missing"));
            }
        }

        let needles: Vec<Needle> = self.needles.iter().map(|n| Needle::parse(n)).collect();
        let mut hits = Vec::new();
        let mut anchored = false;
        for (file, text) in files {
            let mut inside = self.body_of.is_none();
            for (number, text) in (1..).zip(text.lines()) {
                if let Some(anchor) = self.body_of {
                    if !inside && text.contains(anchor) {
                        inside = true;
                        anchored = true;
                    }
                }
                if inside && needles.iter().any(|n| n.find(text, 0).is_some()) {
                    hits.push(Hit { file, number, text });
                }
                if self.body_of.is_some() && text == "    }" {
                    inside = false;
                }
            }
        }
        if let Some(anchor) = self.body_of {
            if !anchored {
                faults.push(format!("no `{anchor}` in {}", self.paths.join(", ")));
            }
        }

        match self.expect {
            Expect::NoneOutside(allowed) => {
                let stray: Vec<&Hit> = hits
                    .iter()
                    .filter(|hit| !allowed.contains(&hit.file))
                    .collect();
                if !stray.is_empty() {
                    faults.push(format!("{}:{}", self.needles.join(" | "), listed(stray)));
                }
            }
            Expect::OncePerNeedle => {
                for (needle, text) in needles.iter().zip(self.needles) {
                    let defs: Vec<&Hit> = hits
                        .iter()
                        .filter(|hit| needle.find(hit.text, 0).is_some())
                        .collect();
                    if defs.len() > 1 {
                        faults.push(format!(
                            "`{text}` is defined more than once:{}",
                            listed(defs)
                        ));
                    }
                }
            }
            Expect::OnlyIn(home) => {
                let stray: Vec<&Hit> = hits.iter().filter(|hit| hit.file != home).collect();
                if !stray.is_empty() || hits.is_empty() {
                    faults.push(format!(
                        "{}: want hits in {home} only:{}",
                        self.needles.join(" | "),
                        listed(&hits)
                    ));
                }
            }
            Expect::OneLineIn(home) => {
                if hits.len() != 1 || hits[0].file != home {
                    faults.push(format!(
                        "{}: want one line, in {home}:{}",
                        self.needles.join(" | "),
                        listed(&hits)
                    ));
                }
            }
            Expect::Exactly(want) => {
                let mut found = Vec::new();
                for hit in &hits {
                    for needle in &needles {
                        let mut from = 0;
                        while let Some((start, end)) = needle.find(hit.text, from) {
                            found.push(&hit.text[start..end]);
                            from = end.max(start + 1);
                        }
                    }
                }
                found.sort_unstable();
                if found != want {
                    faults.push(format!("found {found:?}, want {want:?}:{}", listed(&hits)));
                }
            }
        }
        faults
    }
}

/// `Err` names the row's concept and every fault its probes find.
fn check(row: &Row, tree: &Tree) -> Result<(), String> {
    let faults: Vec<String> = row.probes.iter().flat_map(|p| p.faults(tree)).collect();
    if faults.is_empty() {
        Ok(())
    } else {
        Err(format!("{}:\n  {}", row.concept, faults.join("\n  ")))
    }
}

fn row(concept: &str) -> &'static Row {
    ROWS.iter()
        .find(|row| row.concept.starts_with(concept))
        .expect("a row of the table")
}

#[test]
fn every_concept_has_one_implementation() {
    let tree = Tree::load();
    let faults: Vec<String> = ROWS
        .iter()
        .filter_map(|row| check(row, &tree).err())
        .collect();
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

#[test]
fn every_row_trips_on_its_violation() {
    let tree = Tree::load();
    for row in ROWS {
        let (file, line) = row.trips_on;
        let mut planted = tree.clone();
        let number = planted.plant(file, line);
        let fault = check(row, &planted)
            .err()
            .unwrap_or_else(|| panic!("{}: passes with {file}:{number}: {line}", row.concept));
        assert!(
            fault.starts_with(row.concept) && fault.contains(&format!("{file}:{number}: ")),
            "{}: the fault does not name {file}:{number}:\n{fault}",
            row.concept
        );
    }
}

#[test]
fn a_row_with_nothing_to_read_fails() {
    let mut tree = Tree::load();
    tree.0.remove("crates/engine/src/shard.rs");
    let fault = check(row("one record per job"), &tree).unwrap_err();
    assert!(
        fault.contains("crates/engine/src/shard.rs is missing"),
        "{fault}"
    );

    let mut tree = Tree::load();
    tree.0.retain(|file, _| !file.starts_with(".claude/"));
    let fault = check(row("one architecture contract"), &tree).unwrap_err();
    assert!(
        fault.contains(".claude/skills/verify/SKILL.md is missing"),
        "{fault}"
    );

    let mut tree = Tree::load();
    let journal = tree.0.get_mut("crates/engine/src/journal.rs").unwrap();
    *journal = journal.replace("fn replay_from", "fn replay_since");
    let fault = check(row("one recorded stream"), &tree).unwrap_err();
    assert!(fault.contains("no `fn replay_from`"), "{fault}");
}

#[test]
fn the_replay_probe_reads_the_body_of_replay_from_only() {
    let replays = row("one recorded stream");
    let mut tree = Tree::load();
    tree.plant(
        "crates/engine/src/journal.rs",
        "        engine.submit(job);",
    );
    assert!(check(replays, &tree).is_ok(), "outside the body");

    let journal = tree.0.get_mut("crates/engine/src/journal.rs").unwrap();
    let anchor = journal.find("fn replay_from").unwrap();
    let body = anchor + journal[anchor..].find('\n').unwrap() + 1;
    journal.insert_str(body, "        engine.flush();\n");
    let fault = check(replays, &tree).unwrap_err();
    assert!(fault.contains("engine.flush();"), "{fault}");
}

#[test]
fn needles_port_the_regular_expressions() {
    let hits = |needle: &str, line: &str| Needle::parse(needle).find(line, 0).is_some();
    assert!(hits(r"fn flush_batch\b", "fn flush_batch(&mut self)"));
    assert!(!hits(r"fn flush_batch\b", "fn flush_batch_traced("));
    assert!(hits(r"\.parallel\b", "if config.parallel {"));
    assert!(!hits(r"\.parallel\b", "config.parallelism"));
    assert!(hits("carry.hist.clone()", "carry_hist_clone()"));
    assert!(!hits(r"\.incoming()", "xincoming()"));
    assert!(hits("active: *FxHashMap", "active:FxHashMap"));
    assert!(hits(
        r"\.span\(\), *[a-z_]+\.start\(\)",
        "(w.span(),  job_w.start())"
    ));
    assert!(!hits(
        r"\.span\(\), *[a-z_]+\.start\(\)",
        "(w.span(), .start())"
    ));
    assert!(hits(
        r"sort_by_key\(.*\.span\(\)",
        "v.sort_by_key(|w| w.span())"
    ));
    assert!(hits(r#"\["ok""#, r#"["ok", "x"]"#));
    let found = Needle::parse(r"pub fn flush\w*").find("    pub fn flush_mode(", 0);
    assert_eq!(found, Some((4, 21)));
}
