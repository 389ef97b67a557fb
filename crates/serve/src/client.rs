//! A minimal blocking HTTP client for the serve endpoints — just enough
//! for the integration tests and CI smoke scripting.
//! Not a general client: it speaks exactly the dialect `ntv serve` emits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A keep-alive connection to a serve instance.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response: status code and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always JSON from this service).
    pub body: String,
}

impl Connection {
    /// Open a keep-alive connection.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Issue a request and read the full response.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed response framing.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        // One buffer, one write: on a `TCP_NODELAY` socket each write is
        // its own segment.
        let message = format!(
            "{method} {path} HTTP/1.1\r\nhost: ntv\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes())?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(bad("connection closed before response"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;

        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("truncated response headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad response content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("response body not UTF-8"))?;
        Ok(Response { status, body })
    }

    /// POST a JSON body to `/v1/query`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed response framing.
    pub fn query(&mut self, body: &str) -> std::io::Result<Response> {
        self.request("POST", "/v1/query", body)
    }
}

/// One-shot request on a fresh connection.
///
/// # Errors
///
/// Propagates connect and transport failures.
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    Connection::open(addr)?.request(method, path, body)
}
