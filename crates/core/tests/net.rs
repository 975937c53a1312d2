//! The socket-server skeleton on loopback: reaping, shutdown, the
//! never-blocks-never-strands probe, and the client end's reply read,
//! through the public API the three TCP servers and their clients use.

use realloc_core::net::{AcceptLoop, Buffered, FrameConn};
use realloc_core::textio::write_frame;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const CAP: u32 = 64;

/// Answers every frame with itself until the peer is gone.
fn echo(mut conn: FrameConn) {
    while let Ok(Some(frame)) = conn.read(CAP) {
        if conn.write(&frame).is_err() || conn.flush().is_err() {
            return;
        }
    }
}

fn echo_once(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut conn = FrameConn::connect(addr).unwrap();
    conn.write(payload).unwrap();
    conn.flush().unwrap();
    conn.read(CAP).unwrap().expect("an echo, not EOF")
}

#[test]
fn a_silent_connection_is_reaped_and_the_loop_keeps_serving() {
    let timeout = Some(Duration::from_millis(50));
    let accept = AcceptLoop::spawn("127.0.0.1:0", "test", timeout, echo).unwrap();
    let mut silent = TcpStream::connect(accept.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let n = silent
        .read(&mut [0u8; 16])
        .expect("the handler should hang up, not stall");
    assert_eq!(n, 0, "expected EOF from the reaped handler");
    assert_eq!(echo_once(accept.addr(), b"still here"), b"still here");
}

#[test]
fn shutdown_joins_the_accept_thread_and_is_idempotent() {
    let mut accept = AcceptLoop::spawn("127.0.0.1:0", "test", None, echo).unwrap();
    assert_eq!(echo_once(accept.addr(), b"up"), b"up");
    accept.shutdown();
    // The accept thread owned the listener: joined means closed.
    let refused = TcpStream::connect(accept.addr()).expect_err("nobody listens any more");
    assert_eq!(refused.kind(), ErrorKind::ConnectionRefused);
    accept.shutdown();
    drop(accept); // a third time, through Drop
}

/// Blocks until `n` bytes wait unread in `socket`, so the probe under
/// test meets them rather than an empty wire.
fn await_unread(socket: &TcpStream, n: usize) {
    let mut scratch = vec![0u8; n];
    while socket.peek(&mut scratch).unwrap() < n {
        std::thread::yield_now();
    }
}

#[test]
fn read_buffered_never_strands_a_partial_frame_and_sees_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (served, _) = listener.accept().unwrap();
    let socket = served.try_clone().unwrap(); // to watch the wire with
    let mut conn = FrameConn::new(served).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello").unwrap();

    // A partial length prefix, then a partial payload: not yet — and no
    // byte of it was consumed, or the blocking read that follows the
    // rest of the frame could not reassemble it.
    for cut in [2, 6] {
        client.write_all(&wire[..cut]).unwrap();
        await_unread(&socket, cut);
        assert_eq!(conn.read_buffered(CAP), Buffered::NotYet);
        client.write_all(&wire[cut..]).unwrap();
        assert_eq!(conn.read(CAP).unwrap().as_deref(), Some(&b"hello"[..]));
    }

    // A whole frame on the wire is taken without blocking.
    client.write_all(&wire).unwrap();
    await_unread(&socket, wire.len());
    assert_eq!(conn.read_buffered(CAP), Buffered::Frame(b"hello".to_vec()));

    // An over-cap length is left for the blocking read to refuse.
    client.write_all(&(CAP + 1).to_be_bytes()).unwrap();
    await_unread(&socket, 4);
    assert_eq!(conn.read_buffered(CAP), Buffered::NotYet);
    let err = conn.read(CAP).expect_err("the cap error surfaces here");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(
        err.to_string().contains(&format!("{} bytes", CAP + 1)),
        "{err}"
    );

    // An idle open wire is not yet; a closed one (wait for the FIN: a
    // zero-byte read) is gone.
    assert_eq!(conn.read_buffered(CAP), Buffered::NotYet);
    drop(client);
    assert_eq!(socket.peek(&mut [0u8; 1]).unwrap(), 0);
    assert_eq!(conn.read_buffered(CAP), Buffered::Gone);
}

#[test]
fn a_dialed_connection_reads_replies_as_text_and_names_what_is_wrong() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut conn = FrameConn::connect(listener.local_addr().unwrap()).unwrap();
    let (mut served, _) = listener.accept().unwrap();

    write_frame(&mut served, "ok réponse".as_bytes()).unwrap();
    assert_eq!(conn.read_reply(CAP).unwrap(), "ok réponse");

    write_frame(&mut served, &[0xff, 0xfe]).unwrap();
    let err = conn.read_reply(CAP).expect_err("not UTF-8");
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    // A peer that never answers times out instead of hanging the client.
    conn.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let err = conn.read_reply(CAP).expect_err("nothing was sent");
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "{err:?}"
    );

    // A peer that hung up is an unexpected end, not an empty reply.
    drop(served);
    let err = conn.read_reply(CAP).expect_err("the peer is gone");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
}
