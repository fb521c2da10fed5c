//! A hand-rolled, zero-dependency HTTP/1.1 server over `std::net` — the
//! transport under `predator serve`.
//!
//! Scope is deliberately small: GET-only, one request per connection
//! (`Connection: close`), exact-path routing, bounded request heads. That
//! covers every scraper that matters here (Prometheus, `curl`, the
//! `predator stats --url` client below) without pulling in an async runtime
//! or an HTTP crate the offline build couldn't vendor anyway.
//!
//! The accept loop polls a stop flag between non-blocking accepts, so a
//! [`ServerHandle`] can shut the thread down promptly — the graceful-exit
//! path `predator serve` takes on SIGINT/SIGTERM.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) the server reads.
const MAX_REQUEST_HEAD: usize = 8 * 1024;
/// How long a connection has, from accept, to send its whole request head
/// (a late one is answered 400), and the timeout of each response write: a
/// stalled or dripping scraper cannot wedge the serve thread for longer.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A parsed request: method is always GET by the time a handler runs.
#[derive(Debug, Clone)]
pub struct Request {
    /// Decoded path, without the query string.
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
}

/// A response to serialize back to the client.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers (name, value), written verbatim after the standard set.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// 200 with `application/json`.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// 200 with the Prometheus text exposition content type.
    pub fn prometheus(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// 200 with `text/plain`.
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, msg: &str) -> Self {
        Response {
            status,
            content_type: "text/plain",
            body: format!("{msg}\n").into_bytes(),
            headers: Vec::new(),
        }
    }

    /// 401 with the `WWW-Authenticate: Bearer` challenge the bearer-auth
    /// gate answers unauthenticated requests with.
    pub fn unauthorized() -> Self {
        let mut r = Response::error(401, "missing or invalid bearer token");
        r.headers
            .push(("WWW-Authenticate", "Bearer realm=\"predator\"".to_string()));
        r
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            401 => "Unauthorized",
            404 => "Not Found",
            405 => "Method Not Allowed",
            412 => "Precondition Failed",
            500 => "Internal Server Error",
            _ => "Error",
        }
    }
}

type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// A bound-but-not-yet-serving HTTP server: register routes, then
/// [`spawn`](HttpServer::spawn) it onto its own thread.
pub struct HttpServer {
    listener: TcpListener,
    routes: Vec<(String, Handler)>,
    auth_token: Option<String>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(HttpServer {
            listener,
            routes: Vec::new(),
            auth_token: None,
        })
    }

    /// Requires `Authorization: Bearer <token>` on every route except
    /// `/health` (liveness probes stay unauthenticated). `None` disables
    /// the gate.
    pub fn with_auth(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// The bound address — the source of truth for ephemeral ports.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Registers a handler for an exact path (`"/metrics"`).
    pub fn route(
        mut self,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push((path.to_string(), Box::new(handler)));
        self
    }

    /// Starts the accept loop on a background thread and returns its handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("predator-serve".into())
            .spawn(move || self.run(&stop2))?;
        Ok(ServerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    fn run(self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _timer = crate::static_histogram!("serve_request_ns").start_timer();
                    crate::static_counter!("serve_requests_total").inc();
                    if self.handle(stream).is_err() {
                        crate::static_counter!("serve_request_errors_total").inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    crate::static_counter!("serve_request_errors_total").inc();
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    fn handle(&self, stream: TcpStream) -> std::io::Result<()> {
        let deadline = Instant::now() + IO_TIMEOUT;
        stream.set_nonblocking(false)?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut stream = stream;
        let response = match read_request(&mut stream, deadline) {
            Ok((method, target, auth)) if method == "GET" => {
                let (path, query) = match target.split_once('?') {
                    Some((p, q)) => (p.to_string(), Some(q.to_string())),
                    None => (target, None),
                };
                if !self.authorized(&path, auth.as_deref()) {
                    write_response(&mut stream, &Response::unauthorized())?;
                    return Ok(());
                }
                let req = Request { path, query };
                match self.routes.iter().find(|(p, _)| *p == req.path) {
                    Some((_, h)) => h(&req),
                    None => Response::error(404, "no such endpoint"),
                }
            }
            Ok((method, _, _)) => Response::error(405, &format!("method {method} not allowed")),
            Err(msg) => Response::error(400, msg),
        };
        write_response(&mut stream, &response)
    }

    fn authorized(&self, path: &str, auth: Option<&str>) -> bool {
        let Some(token) = &self.auth_token else {
            return true;
        };
        if path == "/health" {
            return true;
        }
        match auth.and_then(|a| a.strip_prefix("Bearer ")) {
            Some(presented) => constant_time_eq(presented.trim(), token),
            None => false,
        }
    }
}

/// Compares token strings without early exit, so response timing does not
/// leak how many prefix bytes matched.
fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().min(b.len()) {
        diff |= (a[i] ^ b[i]) as usize;
    }
    diff == 0
}

/// Reads the request head, all of it by `deadline`, and returns `(method,
/// target, authorization)`. Each read waits only for the time left, so a
/// client sending a byte at a time cannot stretch the head past it.
fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(String, String, Option<String>), &'static str> {
    const LATE: &str = "request head not received in time";
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(LATE);
        }
        let n = stream
            .set_read_timeout(Some(left))
            .and_then(|()| stream.read(&mut buf))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => LATE,
                _ => "read failed",
            })?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_REQUEST_HEAD {
            return Err("request head too large");
        }
    }
    let text = std::str::from_utf8(&head).map_err(|_| "request not UTF-8")?;
    let mut lines = text.lines();
    let line = lines.next().ok_or("empty request")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("malformed request line")?;
    let target = parts.next().ok_or("malformed request line")?;
    let auth = lines.take_while(|l| !l.is_empty()).find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("authorization")
            .then(|| value.trim().to_string())
    });
    Ok((method.to_string(), target.to_string(), auth))
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        r.status,
        r.reason(),
        r.content_type,
        r.body.len()
    );
    for (name, value) in &r.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&r.body)?;
    stream.flush()
}

/// A running server: keeps the accept thread alive until
/// [`stop`](ServerHandle::stop) (or drop) joins it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop to exit and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A minimal blocking HTTP GET client for the server above (and any other
/// text endpoint): returns `(status, body)`. `addr` is `host:port`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    http_get_auth(addr, path, timeout, None)
}

/// [`http_get`] with an optional bearer token (`Authorization: Bearer ...`).
pub fn http_get_auth(
    addr: &str,
    path: &str,
    timeout: Duration,
    token: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let auth_header = match token {
        Some(t) => format!("Authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\n{auth_header}Connection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "response not UTF-8"))?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body split")
    })?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ServerHandle {
        HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .route("/ping", |_| Response::text("pong".into()))
            .route("/health", |_| Response::text("ok".into()))
            .route("/echo", |req: &Request| {
                Response::text(req.query.clone().unwrap_or_default())
            })
            .route("/gate", |_| Response::error(412, "gate failed"))
            .route("/boom", |_| Response::error(500, "boom"))
            .spawn()
            .unwrap()
    }

    /// Sends `request` verbatim and returns the whole raw response.
    fn raw(addr: &str, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_a_registered_route() {
        let s = server();
        let (status, body) = http_get(&s.addr().to_string(), "/ping", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "pong");
        s.stop();
    }

    #[test]
    fn query_strings_reach_the_handler() {
        let s = server();
        let (status, body) = http_get(&s.addr().to_string(), "/echo?a=1", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "a=1");
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let s = server();
        let addr = s.addr().to_string();
        let (status, _) = http_get(&addr, "/nope", IO_TIMEOUT).unwrap();
        assert_eq!(status, 404);

        let out = raw(
            &addr,
            b"POST /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(
            out.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{out}"
        );
        // Every status a route answers with carries its own reason phrase:
        // 412 is `/report`'s failed policy gate.
        for (path, line) in [
            ("/gate", "HTTP/1.1 412 Precondition Failed\r\n"),
            ("/boom", "HTTP/1.1 500 Internal Server Error\r\n"),
            ("/nope", "HTTP/1.1 404 Not Found\r\n"),
        ] {
            let out = raw(&addr, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
            assert!(out.starts_with(line), "{out}");
        }
    }

    #[test]
    fn a_dripping_client_cannot_hold_the_server_past_the_head_deadline() {
        let s = server();
        let addr = s.addr().to_string();
        // A request head that never ends, one byte every 300 ms for 12 s,
        // until the server hangs up on it.
        let mut slow = TcpStream::connect(&addr).unwrap();
        let drip = std::thread::spawn(move || {
            let bytes = b"GET /ping HTTP/1.1\r\n"
                .iter()
                .chain(std::iter::repeat(&b'x'));
            for &b in bytes.take(40) {
                if slow.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        // Connected first, so accepted first (the accept queue is FIFO):
        // this request waits behind the drip for as long as it holds on.
        let t0 = Instant::now();
        let (status, body) = http_get(&addr, "/health", Duration::from_secs(10)).unwrap();
        let waited = t0.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert!(waited < Duration::from_secs(3), "/health waited {waited:?}");
        drip.join().unwrap();
        s.stop();
    }

    #[test]
    fn bearer_auth_gates_everything_but_health() {
        let s = HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .with_auth(Some("s3cret".into()))
            .route("/ping", |_| Response::text("pong".into()))
            .route("/health", |_| Response::text("ok".into()))
            .spawn()
            .unwrap();
        let addr = s.addr().to_string();

        // No token: 401 with the Bearer challenge.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 401"), "{out}");
        assert!(out.contains("WWW-Authenticate: Bearer"), "{out}");

        // Wrong token: still 401.
        let (status, _) = http_get_auth(&addr, "/ping", IO_TIMEOUT, Some("nope")).unwrap();
        assert_eq!(status, 401);

        // Right token: through.
        let (status, body) = http_get_auth(&addr, "/ping", IO_TIMEOUT, Some("s3cret")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "pong");

        // /health stays open for liveness probes.
        let (status, _) = http_get(&addr, "/health", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        s.stop();
    }

    #[test]
    fn constant_time_eq_compares_exactly() {
        assert!(constant_time_eq("abc", "abc"));
        assert!(!constant_time_eq("abc", "abd"));
        assert!(!constant_time_eq("abc", "ab"));
        assert!(!constant_time_eq("", "x"));
        assert!(constant_time_eq("", ""));
    }

    #[test]
    fn stop_joins_the_accept_thread() {
        let s = server();
        let addr = s.addr().to_string();
        s.stop();
        // The listener is gone: new connections are refused (or time out).
        assert!(http_get(&addr, "/ping", Duration::from_millis(200)).is_err());
    }
}
