//! The Unix-domain-socket transport: `fcc serve --socket PATH`.
//!
//! One listener, one connection thread per client, one shared
//! [`Daemon`]. Connections are served in parallel: each thread parses,
//! admits, compiles and renders its own requests through the same
//! [`Daemon::handle_line`] path the stdio transport uses, and the only
//! lock the threads share is the function cache's, held to probe, to
//! insert and to count. So a cache hit is answered while another
//! connection compiles, and two connections' misses compile at once.
//! A request sequence sent over the socket still yields byte-identical
//! responses to the same sequence over stdin (`tests/serve_durable.rs`
//! pins this): a compile is a pure function of its cache key, and a key
//! several connections miss at once is compiled once while the others
//! wait for it.
//!
//! Shutdown is graceful: a `shutdown` verb (on any connection) is
//! answered, the read half of every live connection is shut down so
//! idle readers see end-of-file, and a self-connection unblocks
//! `accept`. The thread scope then joins every connection — a request
//! already being served finishes and its response flushes — before the
//! advisory cache index is written and the socket file removed. A crash
//! skips all of that, and the store is designed to not care.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::daemon::{Daemon, ServeOptions};

/// Serve connections on the Unix socket at `path` until a `shutdown`
/// verb arrives on any connection. A stale socket file from a previous
/// run is removed before binding; the live one is removed on exit.
pub fn serve_socket(path: &Path, opts: ServeOptions) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let daemon = Daemon::new(opts)?;
    let live = Live::default();

    thread::scope(|scope| {
        for (id, conn) in listener.incoming().enumerate() {
            let Ok(stream) = conn else { continue };
            match live.admit(id, &stream) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => continue,
            }
            let (daemon, live) = (&daemon, &live);
            scope.spawn(move || {
                let _ = handle_conn(stream, daemon, live, path);
                live.close(id);
            });
        }
        // Scope exit joins every connection thread: in-flight requests
        // finish and flush before we continue below.
    });

    daemon.finish();
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// The live connections, so that stopping can end every idle reader.
#[derive(Default)]
struct Live {
    conns: Mutex<HashMap<usize, UnixStream>>,
    stopped: AtomicBool,
}

impl Live {
    fn conns(&self) -> MutexGuard<'_, HashMap<usize, UnixStream>> {
        // Every update is a single map operation: poisoning loses nothing.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Track an accepted connection; false once stopped.
    fn admit(&self, id: usize, stream: &UnixStream) -> io::Result<bool> {
        let mut conns = self.conns();
        if self.stopped() {
            return Ok(false);
        }
        conns.insert(id, stream.try_clone()?);
        Ok(true)
    }

    fn close(&self, id: usize) {
        self.conns().remove(&id);
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Stop accepting, and shut the read half of every live connection:
    /// an idle reader sees end-of-file, while a request being served
    /// still finishes and its response flushes.
    fn stop(&self) {
        let conns = self.conns();
        self.stopped.store(true, Ordering::SeqCst);
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// Service one client connection until it disconnects, the daemon stops,
/// or this client asks for shutdown.
fn handle_conn(
    stream: UnixStream,
    daemon: &Daemon,
    live: &Live,
    sock_path: &Path,
) -> io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    if daemon.serve_lines(reader, &stream, || live.stopped())? {
        live.stop();
        // Unblock the accept loop so the listener can exit.
        let _ = UnixStream::connect(sock_path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::io::{BufRead, Write};

    fn sock_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fcc-sock-{tag}-{}.sock", std::process::id()))
    }

    fn connect_with_retry(path: &Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(path) {
                return s;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("socket {path:?} never came up");
    }

    fn send_lines(stream: &mut UnixStream, lines: &[&str]) -> Vec<String> {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = Vec::new();
        for line in lines {
            writeln!(stream, "{line}").unwrap();
            stream.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp.trim_end().to_string());
        }
        out
    }

    #[test]
    fn socket_round_trip_with_concurrent_clients_and_shutdown() {
        let path = sock_path("roundtrip");
        let opts = ServeOptions::default();
        let server = {
            let path = path.clone();
            thread::spawn(move || serve_socket(&path, opts))
        };

        let compile = format!(
            "{{\"v\":1,\"id\":1,\"verb\":\"compile\",\"source\":\"{}\"}}",
            json::escape("fn f(x) { return x + 1; }")
        );
        let mut a = connect_with_retry(&path);
        let mut b = connect_with_retry(&path);
        let ra = send_lines(&mut a, &[&compile]);
        let rb = send_lines(&mut b, &[&compile]);
        assert_eq!(ra, rb, "two clients, same request, same bytes");
        let doc = json::parse(&ra[0]).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));

        let stats = send_lines(&mut a, &[r#"{"v":1,"verb":"stats"}"#]);
        let doc = json::parse(&stats[0]).unwrap();
        assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(2));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));

        let bye = send_lines(&mut a, &[r#"{"v":1,"id":"bye","verb":"shutdown"}"#]);
        assert!(bye[0].contains("\"id\":\"bye\""));
        drop(a);
        drop(b);
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "the socket file is removed on exit");
    }

    #[test]
    fn shutdown_ends_the_daemon_while_another_client_sits_idle() {
        let path = sock_path("idle");
        let (done, exited) = std::sync::mpsc::channel();
        let server = {
            let path = path.clone();
            thread::spawn(move || {
                let served = serve_socket(&path, ServeOptions::default());
                let _ = done.send(());
                served
            })
        };
        let mut idle = connect_with_retry(&path);
        let pong = send_lines(&mut idle, &[r#"{"v":1,"verb":"ping"}"#]);
        assert!(pong[0].contains("\"ok\":true"));
        let mut a = connect_with_retry(&path);
        let bye = send_lines(&mut a, &[r#"{"v":1,"verb":"shutdown"}"#]);
        assert!(bye[0].contains("\"ok\":true"));
        exited
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("serve_socket returns within 5 s of shutdown, an idle client notwithstanding");
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "the socket file is removed on exit");
        let mut rest = String::new();
        assert_eq!(
            BufReader::new(&idle).read_line(&mut rest).unwrap(),
            0,
            "the idle client sees end-of-file"
        );
    }

    #[test]
    fn stale_socket_files_are_replaced_on_bind() {
        let path = sock_path("stale");
        std::fs::write(&path, b"stale").unwrap();
        let opts = ServeOptions::default();
        let server = {
            let path = path.clone();
            thread::spawn(move || serve_socket(&path, opts))
        };
        let mut c = connect_with_retry(&path);
        let resp = send_lines(&mut c, &[r#"{"v":1,"verb":"ping"}"#]);
        assert!(resp[0].contains("\"ok\":true"));
        send_lines(&mut c, &[r#"{"v":1,"verb":"shutdown"}"#]);
        drop(c);
        server.join().unwrap().unwrap();
    }
}
