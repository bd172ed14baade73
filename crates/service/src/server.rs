//! The TCP daemon: one accept loop, one thread per connection.
//!
//! Connections speak the [`crate::protocol`] request grammar against a
//! shared [`Scheduler`] + [`ImageCache`]. Job preparation (parse,
//! translate, predecode, intern) happens on the connection thread —
//! workers only ever execute slices — so a malformed submission costs
//! its own client, not the worker pool.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::ImageCache;
use crate::job::JobSpec;
use crate::protocol::{parse_request, Request};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::session::{SessionHandle, SessionStatus};
use crate::PROTOCOL;

use art9_sim::HaltReason;

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Listen address; an empty string (or port 0) binds an ephemeral
    /// loopback port — [`Server::local_addr`] reports the result.
    pub addr: String,
    /// Scheduler tuning.
    pub scheduler: SchedulerConfig,
}

struct ServerShared {
    scheduler: Scheduler,
    cache: ImageCache,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// A running service instance.
pub struct Server {
    shared: Arc<ServerShared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, spawns the scheduler workers and the accept
    /// thread, and returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listen address.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let addr = if config.addr.is_empty() {
            "127.0.0.1:0".to_string()
        } else {
            config.addr
        };
        let listener = TcpListener::bind(&addr)?;
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::new(config.scheduler),
            cache: ImageCache::new(),
            stop: AtomicBool::new(false),
            addr: listener.local_addr()?,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("art9-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops accepting, stops the workers, joins the accept thread.
    /// Connection threads finish on their own as clients disconnect.
    pub fn shutdown(&mut self) {
        request_shutdown(&self.shared);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Blocks until the service is shut down (daemon mode).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flags the service for shutdown and unblocks the accept loop with a
/// dummy connection.
fn request_shutdown(shared: &ServerShared) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.scheduler.shutdown();
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(shared: &Arc<ServerShared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("art9-conn".into())
            .spawn(move || {
                let _ = handle_connection(&shared, stream);
            });
    }
}

fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let request = match parse_request(line.trim_end_matches(['\r', '\n'])) {
            Ok(r) => r,
            Err(e) => {
                writeln!(writer, "ERR {e}")?;
                continue;
            }
        };
        match request {
            Request::Hello => writeln!(writer, "OK {PROTOCOL}")?,
            Request::Submit { args, inline_lines } => {
                let body = read_inline_body(&mut reader, inline_lines)?;
                match submit(shared, &args, body) {
                    Ok(handle) => writeln!(writer, "OK job {}", handle.id)?,
                    Err(e) => writeln!(writer, "ERR {e}")?,
                }
            }
            Request::Status(id) => match shared.scheduler.session(id) {
                None => writeln!(writer, "ERR no session {id}")?,
                Some(h) => writeln!(writer, "{}", status_line(&h))?,
            },
            Request::Wait(id) => match shared.scheduler.session(id) {
                None => writeln!(writer, "ERR no session {id}")?,
                Some(h) => {
                    h.wait();
                    writeln!(writer, "{}", status_line(&h))?;
                }
            },
            Request::Result(id) => match shared.scheduler.session(id) {
                None => writeln!(writer, "ERR no session {id}")?,
                Some(h) => write_result(&mut writer, &h)?,
            },
            Request::Events(id) => match shared.scheduler.session(id) {
                None => writeln!(writer, "ERR no session {id}")?,
                Some(h) => stream_events(&mut writer, &h)?,
            },
            Request::Cancel(id) => match shared.scheduler.session(id) {
                None => writeln!(writer, "ERR no session {id}")?,
                Some(h) => {
                    h.request_cancel();
                    writeln!(writer, "OK job {id} cancel-requested")?;
                }
            },
            Request::List => {
                writeln!(writer, "OK sessions")?;
                for h in shared.scheduler.sessions() {
                    let v = h.view();
                    writeln!(
                        writer,
                        "session {} {} {} {} {} {}",
                        v.id,
                        v.name,
                        v.status.token(),
                        v.retired,
                        v.slices,
                        v.migrations
                    )?;
                }
                writeln!(writer, "end")?;
            }
            Request::Metrics => write_metrics(&mut writer, shared)?,
            Request::Shutdown => {
                writeln!(writer, "OK shutting down")?;
                request_shutdown(shared);
                return Ok(());
            }
            Request::Quit => {
                writeln!(writer, "OK bye")?;
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

fn read_inline_body(
    reader: &mut BufReader<TcpStream>,
    inline_lines: usize,
) -> io::Result<Option<String>> {
    if inline_lines == 0 {
        return Ok(None);
    }
    let mut body = String::new();
    let mut line = String::new();
    for _ in 0..inline_lines {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // truncated upload; the assembler will diagnose it
        }
        body.push_str(line.trim_end_matches(['\r', '\n']));
        body.push('\n');
    }
    Ok(Some(body))
}

fn submit(
    shared: &ServerShared,
    args: &std::collections::HashMap<String, String>,
    body: Option<String>,
) -> Result<Arc<SessionHandle>, String> {
    let spec = JobSpec::from_args(args, body)?;
    let prepared = spec.prepare(&shared.cache).map_err(|e| e.to_string())?;
    Ok(shared.scheduler.submit(prepared))
}

fn halt_name(halt: HaltReason) -> &'static str {
    match halt {
        HaltReason::JumpToSelf => "jump-to-self",
        HaltReason::FellOffEnd => "fell-off-end",
    }
}

/// One-line session status: `OK job <id> state=<s> retired=<n>
/// slices=<n> migrations=<n> [worker=<w>] [halt=<r> verified=<v>]
/// [error=<text…>]` (the free-text error is always last).
fn status_line(handle: &SessionHandle) -> String {
    let v = handle.view();
    let mut line = format!(
        "OK job {} state={} retired={} slices={} migrations={}",
        v.id,
        v.status.token(),
        v.retired,
        v.slices,
        v.migrations
    );
    match &v.status {
        SessionStatus::Running { worker } => {
            line.push_str(&format!(" worker={worker}"));
        }
        SessionStatus::Done => {
            if let Some(r) = handle.result() {
                line.push_str(&format!(
                    " halt={} verified={}",
                    halt_name(r.halt),
                    if r.verified { "ok" } else { "-" }
                ));
                if let Some(flips) = r.flips {
                    line.push_str(&format!(" flips={flips}"));
                }
            }
        }
        SessionStatus::Failed(e) => line.push_str(&format!(" error={e}")),
        SessionStatus::Queued | SessionStatus::Cancelled => {}
    }
    line
}

fn write_result(writer: &mut TcpStream, handle: &SessionHandle) -> io::Result<()> {
    let Some(r) = handle.result() else {
        return writeln!(
            writer,
            "ERR job {} has no result (state={})",
            handle.id,
            handle.view().status.token()
        );
    };
    writeln!(writer, "OK result {}", handle.id)?;
    writeln!(writer, "halt {}", halt_name(r.halt))?;
    writeln!(writer, "retired {}", r.retired)?;
    writeln!(writer, "verified {}", if r.verified { "ok" } else { "-" })?;
    for (i, value) in r.trf.iter().enumerate() {
        writeln!(writer, "reg t{i} {value}")?;
    }
    for (mnemonic, count) in &r.mix {
        writeln!(writer, "mix {mnemonic} {count}")?;
    }
    if let Some(flips) = r.flips {
        writeln!(writer, "flips {flips}")?;
    }
    writeln!(writer, "end")
}

/// Streams `event <slice> <retired> <worker> <flips|->` lines until
/// the session is terminal and its ring is drained, then a final
/// status line and `end`.
fn stream_events(writer: &mut TcpStream, handle: &SessionHandle) -> io::Result<()> {
    writeln!(writer, "OK events {}", handle.id)?;
    loop {
        let (events, terminal) = handle.next_events(Duration::from_millis(50));
        for e in &events {
            let flips = e.flips.map_or_else(|| "-".to_string(), |f| f.to_string());
            writeln!(
                writer,
                "event {} {} {} {}",
                e.slice, e.retired, e.worker, flips
            )?;
        }
        writer.flush()?;
        if terminal && events.is_empty() {
            writeln!(writer, "{}", status_line(handle))?;
            return writeln!(writer, "end");
        }
    }
}

fn write_metrics(writer: &mut TcpStream, shared: &ServerShared) -> io::Result<()> {
    let m = shared.scheduler.metrics();
    let (hits, misses) = shared.cache.stats();
    writeln!(writer, "OK metrics")?;
    writeln!(writer, "workers {}", m.workers)?;
    writeln!(writer, "quantum {}", m.quantum)?;
    writeln!(writer, "sessions-total {}", m.sessions_total)?;
    writeln!(writer, "sessions-active {}", m.sessions_active)?;
    writeln!(writer, "sessions-retained {}", m.sessions_retained)?;
    writeln!(writer, "sessions-evicted {}", m.sessions_evicted)?;
    writeln!(writer, "slices {}", m.slices)?;
    writeln!(writer, "steals {}", m.steals)?;
    writeln!(writer, "migrations {}", m.migrations)?;
    writeln!(writer, "p50-slice-us {:.3}", m.p50_slice_us)?;
    writeln!(writer, "p99-slice-us {:.3}", m.p99_slice_us)?;
    writeln!(writer, "cache-images {}", shared.cache.len())?;
    writeln!(writer, "cache-hits {hits}")?;
    writeln!(writer, "cache-misses {misses}")?;
    writeln!(writer, "cache-evictions {}", shared.cache.evictions())?;
    writeln!(writer, "end")
}
