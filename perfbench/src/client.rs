//! The load client: one HTTP/1.1 request per connection, as the server
//! closes every connection after its response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect, write and read timeout; a request slower than this fails.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A response's status and body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// POST `body` to `path` and read the response to its last byte.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}
