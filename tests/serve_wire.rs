//! The `mas_serve` line protocol over a kept-alive TCP connection.
//!
//! Each reply must leave the server as one write. A line and its `\n`
//! written separately on an unbuffered socket make Nagle's algorithm hold
//! the terminator until the client's delayed ACK, stalling every reply
//! after the first by about 40 ms.

use minimpi::scaled_ms;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// A `mas_serve` child on an ephemeral port, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mas_serve"))
            .args(["--listen", "127.0.0.1:0", "--devices", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mas_serve");
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if out.read_line(&mut line).expect("read server stdout") == 0 {
                let _ = child.kill();
                panic!("mas_serve exited before announcing its address");
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn kept_alive_connection_answers_without_nagle_stalls() {
    const TRIPS: usize = 10;
    let server = Server::spawn();
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream.set_read_timeout(Some(scaled_ms(10_000))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = &stream;
    let mut reply = String::new();
    let t0 = Instant::now();
    for trip in 0..TRIPS {
        w.write_all(b"stats\n").expect("send");
        reply.clear();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("ok "), "trip {trip}: {reply:?}");
        assert!(reply.ends_with('\n'), "trip {trip}: unterminated {reply:?}");
    }
    let took = t0.elapsed();
    // A stalled server needs ~40 ms per trip after the first (~360 ms in
    // all); an unstalled one a fraction of a millisecond each.
    let bound = scaled_ms(150);
    assert!(
        took < bound,
        "{TRIPS} stats round trips on one connection took {took:?} (bound {bound:?})"
    );
}
