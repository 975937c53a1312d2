//! The scheduler's state is paged over the whole time axis `[0, 2^63)`:
//! a stream replayed at offsets 0, 2^40 and `MAX_TIME − 2^20` makes the
//! same moves and writes the same snapshot, shifted by the offset, and
//! keeps every invariant after every request.
//!
//! At offset 0 the stream's horizon spans each store's head and pages
//! past it; the far offsets put all of it in pages behind the hashed
//! directory. Windows of `2^15` slots and more are wider than 64
//! level-2 intervals, so their open sets take the list path.

use realloc_core::{
    Error, JobId, Request, RequestSeq, Restorable, SingleMachineReallocator, SlotMove, Window,
};
use realloc_reservation::{ReservationScheduler, TrimmedScheduler, MAX_TIME};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

/// Horizon of the stream: it fits below every offset's end of the axis.
const HORIZON: u64 = 1 << 17;

const OFFSETS: [u64; 3] = [0, 1 << 40, MAX_TIME - (1 << 20)];

fn stream(seed: u64) -> RequestSeq {
    ChurnGenerator::new(
        ChurnConfig {
            machines: 1,
            gamma: 8,
            horizon: HORIZON,
            spans: vec![1, 4, 32, 256, 2048, 1 << 15, 1 << 16, 1 << 17],
            target_active: 160,
            insert_bias: 0.6,
            unaligned: false,
        },
        seed,
    )
    .generate(500)
}

/// What a request did: its moves, or which kind of error.
type Outcome = Result<Vec<SlotMove>, String>;

/// What a request did, with every slot moved back by `offset`.
fn outcome(result: Result<Vec<SlotMove>, Error>, offset: u64) -> Outcome {
    let back = |slot: Option<u64>| slot.map(|s| s - offset);
    match result {
        Ok(moves) => Ok(moves
            .into_iter()
            .map(|m| SlotMove {
                job: m.job,
                from: back(m.from),
                to: back(m.to),
            })
            .collect()),
        // Error texts name windows; which request failed is what counts.
        Err(e) => Err(format!("{:?}", std::mem::discriminant(&e))),
    }
}

/// A snapshot with every time coordinate moved back by `offset`: the
/// window and slot fields of job, window-state and original lines.
fn unshifted(text: &str, offset: u64) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut fields: Vec<String> = line.split(' ').map(str::to_string).collect();
        let times = match fields[0].as_str() {
            "j" | "o" | "w" => 2..fields.len(),
            _ => 0..0,
        };
        for f in &mut fields[times] {
            *f = (f.parse::<u64>().expect("a time field") - offset).to_string();
        }
        out.push_str(&fields.join(" "));
        out.push('\n');
    }
    out
}

/// Replays `seq` shifted by each offset through a fresh `make()`, checks
/// `check` after every request, and wants every replay to agree with the
/// first, request by request and in the final snapshot.
fn same_at_every_offset<S: SingleMachineReallocator + Restorable>(
    seq: &RequestSeq,
    make: impl Fn() -> S,
    check: impl Fn(&S),
) {
    let mut runs: Vec<(Vec<Outcome>, String)> = Vec::new();
    for offset in OFFSETS {
        let mut s = make();
        let mut outcomes = Vec::new();
        for &request in seq.requests() {
            let result = match request {
                Request::Insert { id, window } => s.insert(
                    id,
                    Window::new(window.start() + offset, window.end() + offset),
                ),
                Request::Delete { id } => s.delete(id),
            };
            outcomes.push(outcome(result, offset));
            check(&s);
        }
        runs.push((outcomes, unshifted(&s.snapshot_text(), offset)));
    }
    let (base_moves, base_text) = &runs[0];
    assert!(
        base_moves.iter().filter(|o| o.is_ok()).count() > seq.requests().len() / 2,
        "the stream is mostly served"
    );
    for ((moves, text), offset) in runs.iter().zip(OFFSETS).skip(1) {
        for (i, (a, b)) in base_moves.iter().zip(moves).enumerate() {
            assert_eq!(a, b, "request {i} at offset {offset}");
        }
        assert_eq!(text, base_text, "snapshot at offset {offset}");
    }
}

#[test]
fn reservation_scheduler_is_the_same_far_along_the_axis() {
    same_at_every_offset(&stream(11), ReservationScheduler::new, |s| {
        s.check_invariants().expect("invariants hold");
    });
}

#[test]
fn trimmed_scheduler_is_the_same_far_along_the_axis() {
    same_at_every_offset(
        &stream(12),
        || TrimmedScheduler::new(2),
        |s| s.inner().check_invariants().expect("invariants hold"),
    );
}

#[test]
fn the_far_end_of_the_axis_holds_a_job() {
    // The last slot before MAX_TIME, and the widest window ending there.
    let mut s = ReservationScheduler::new();
    let last = Window::new(MAX_TIME - 1, MAX_TIME);
    let wide = Window::with_span(MAX_TIME - (1 << 20), 1 << 20);
    s.insert(JobId(1), last).unwrap();
    s.insert(JobId(2), wide).unwrap();
    s.check_invariants().unwrap();
    assert_eq!(s.slot_of(JobId(1), None), Some(MAX_TIME - 1));
    let restored = ReservationScheduler::restore(&s.snapshot_text()).unwrap();
    restored.check_invariants().unwrap();
    assert_eq!(restored.snapshot_text(), s.snapshot_text());
}
