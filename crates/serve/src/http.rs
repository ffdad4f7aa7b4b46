//! A deliberately minimal HTTP/1.1 layer: enough to parse one request
//! per connection and write one response (or an SSE stream), nothing
//! more. Every connection is `Connection: close` — clients that want
//! another request open another socket, which keeps the server's state
//! machine trivial and the accept pool the only concurrency knob.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/metrics`).
    pub path: String,
    /// The raw query string after `?`, if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps onto an error status.
#[derive(Debug)]
pub enum ParseError {
    /// Client closed the connection before sending a request line.
    Eof,
    /// Socket error mid-request.
    Io(io::Error),
    /// Malformed request line or headers (400).
    Malformed(String),
    /// Head or body over the fixed caps (431 / 413).
    TooLarge(&'static str),
}

/// Read one head line (request line or header) into `line`, buffering
/// at most `budget + 1` bytes. The cap is enforced *while reading* —
/// a client streaming an endless newline-free line gets
/// [`ParseError::TooLarge`] at the cap instead of growing the string
/// without bound.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: usize,
    what: &'static str,
    line: &mut String,
) -> Result<usize, ParseError> {
    let mut limited = reader.by_ref().take(budget as u64 + 1);
    let n = limited.read_line(line).map_err(ParseError::Io)?;
    if n > budget {
        return Err(ParseError::TooLarge(what));
    }
    Ok(n)
}

/// Read one request from `stream` (which should have a read timeout
/// set by the caller).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    match read_head_line(&mut reader, budget, "request line", &mut line)? {
        0 => return Err(ParseError::Eof),
        n => budget -= n,
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t.to_string()),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line {:?}",
                line.trim_end()
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };

    let mut headers = Vec::new();
    loop {
        let mut header_line = String::new();
        match read_head_line(&mut reader, budget, "headers", &mut header_line)? {
            0 => return Err(ParseError::Malformed("truncated headers".into())),
            n => budget -= n,
        }
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header {trimmed:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Write a complete `Connection: close` response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra `(name, value)` header lines (e.g. the
/// `WWW-Authenticate` challenge a 401 must carry).
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    // One write: a second small one would wait (Nagle) for the client
    // to acknowledge the first, costing each response a round trip.
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Push `bytes` through a real socket pair and parse them.
    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(bytes).expect("write");
        drop(client);
        let (mut server_side, _) = listener.accept().expect("accept");
        read_request(&mut server_side)
    }

    #[test]
    fn parses_request_with_query_and_body() {
        let req = parse(b"POST /query?x=1 HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(
            parse(b"nonsense\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(ParseError::Eof)));
        let huge = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::TooLarge("body"))
        ));
        let long_header = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "h".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(long_header.as_bytes()),
            Err(ParseError::TooLarge("headers"))
        ));
    }

    /// The head cap must bound buffering *while* reading: a client that
    /// streams an endless newline-free request line (socket held open,
    /// so no EOF ever arrives) gets rejected at the cap instead of
    /// growing server memory until the connection dies.
    #[test]
    fn rejects_unterminated_request_line_without_waiting_for_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(&vec![b'A'; MAX_HEAD_BYTES + 64])
            .expect("write");
        // Keep `client` open: read_request must return from the bound,
        // not from end-of-stream.
        let (mut server_side, _) = listener.accept().expect("accept");
        assert!(matches!(
            read_request(&mut server_side),
            Err(ParseError::TooLarge("request line"))
        ));
        drop(client);
    }
}
