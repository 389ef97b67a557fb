//! A deliberately small HTTP/1.1 implementation: request parsing and
//! response framing for the serve front end.
//!
//! The workspace is offline (no hyper/tokio), and the service needs only
//! the slice of HTTP that batch JSON clients use: `GET`/`POST`, a
//! `Content-Length` body, keep-alive connections. Everything else —
//! chunked bodies, expect/continue, multipart — is rejected with a clear
//! status. Hard caps on the header block and body size bound per-request
//! memory before a single byte of JSON is parsed.
//!
//! Each message goes out in one `write`: the server's sockets are
//! `TCP_NODELAY`, so every `write` call is its own segment and its own
//! wake-up of the reader.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line + headers (16 KiB — far above any sane client),
/// enforced before the bytes are buffered.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on the request body (1 MiB — thousands of batched queries).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: enough structure for routing, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path (query strings are not used by this service).
    pub target: String,
    /// Decoded body (empty when absent).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read. Each maps to one response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line, header, or body framing → 400.
    Bad(String),
    /// Headers or body exceeded the hard caps → 413.
    TooLarge,
    /// Socket error or timeout; the connection is dropped silently.
    Io(String),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e.to_string())
    }
}

/// Read one request off a connection.
///
/// `Ok(None)` is a clean end-of-stream (the client closed between
/// requests — the normal end of a keep-alive session).
///
/// # Errors
///
/// See [`RequestError`] for the status each failure maps to.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, RequestError> {
    // The request line and the headers share one byte budget.
    let mut budget = MAX_HEADER_BYTES;
    let mut line = Vec::new();
    if read_head_line(reader, &mut line, &mut budget)? == 0 {
        return Ok(None);
    }
    let mut parts = utf8(&line)?.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(RequestError::Bad("malformed request line".to_string())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!("unsupported version {version}")));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";

    let mut content_length: usize = 0;
    loop {
        if read_head_line(reader, &mut line, &mut budget)? == 0 {
            return Err(RequestError::Bad("truncated headers".to_string()));
        }
        let header = utf8(&line)?.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RequestError::Bad(format!("malformed header `{header}`")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| RequestError::Bad("bad content-length".to_string()))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(RequestError::TooLarge);
                }
            }
            "transfer-encoding" => {
                // Chunked bodies are out of scope; refusing beats
                // misinterpreting the framing.
                return Err(RequestError::Bad(
                    "transfer-encoding is not supported; send content-length".to_string(),
                ));
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::Bad("body is not valid UTF-8".to_string()))?;

    Ok(Some(Request {
        method,
        target,
        body,
        keep_alive,
    }))
}

/// Read one header-block line into `line` (cleared first), reading no more
/// than `budget` bytes and charging them to it, so an endless line is
/// refused at the cap instead of being buffered. Returns the bytes read; 0
/// is end of stream.
///
/// A line still without its newline when the budget runs out, or a line
/// that starts with nothing left to spend, is [`RequestError::TooLarge`].
fn read_head_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    budget: &mut usize,
) -> Result<usize, RequestError> {
    if *budget == 0 {
        return Err(RequestError::TooLarge);
    }
    line.clear();
    let n = reader
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', line)?;
    *budget -= n;
    if *budget == 0 && !line.ends_with(b"\n") {
        return Err(RequestError::TooLarge);
    }
    Ok(n)
}

/// A header-block line as text; HTTP heads are ASCII.
fn utf8(line: &[u8]) -> Result<&str, RequestError> {
    std::str::from_utf8(line)
        .map_err(|_| RequestError::Bad("request head is not valid UTF-8".to_string()))
}

/// Reason phrase for the statuses this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Write a JSON response with exact `Content-Length` framing.
///
/// The status line, headers and body are rendered into one buffer and
/// sent with one `write_all`. The body bytes pass through untouched —
/// response byte-identity is decided entirely by the caller's rendering.
///
/// # Errors
///
/// Propagates socket write failures (the connection is then dropped).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // The head is at most ~120 bytes.
    let mut message = Vec::with_capacity(body.len() + 128);
    write!(
        message,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    message.extend_from_slice(body.as_bytes());
    writer.write_all(&message)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str) -> Result<Option<Request>, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    /// A `Write` that keeps the bytes and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = read("POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .expect("ok")
            .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/query");
        assert_eq!(req.body, "{\"a\"");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = read("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read("").expect("ok"), None);
    }

    #[test]
    fn oversized_and_malformed_inputs_are_rejected() {
        assert!(matches!(read("GARBAGE\r\n\r\n"), Err(RequestError::Bad(_))));
        assert!(matches!(
            read("GET / HTTP/2\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(RequestError::TooLarge)
        ));
        let huge_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(20_000));
        assert!(matches!(read(&huge_header), Err(RequestError::TooLarge)));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            read_request(&mut BufReader::new(&b"GET /\xff HTTP/1.1\r\n\r\n"[..])),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn a_newline_free_request_line_is_refused_at_the_cap() {
        // 64 MiB with no newline: refused after at most the header cap (plus
        // one `BufReader` fill), not after buffering the whole line.
        const LINE: u64 = 64 << 20;
        let mut reader = BufReader::new(io::repeat(b'a').take(LINE));
        assert_eq!(read_request(&mut reader), Err(RequestError::TooLarge));
        let consumed = LINE - reader.into_inner().limit();
        assert!(
            consumed <= (MAX_HEADER_BYTES + 8 * 1024) as u64,
            "read {consumed} bytes"
        );
    }

    #[test]
    fn the_header_budget_is_inclusive_and_exact() {
        // Request line + one header, padded so the block ends exactly at
        // `MAX_HEADER_BYTES`.
        let block = |total: usize, blank_line: bool| {
            let head = "GET / HTTP/1.1\r\nX-Pad: ";
            let tail = if blank_line { "\r\n\r\n" } else { "\r\n" };
            format!(
                "{head}{}{tail}",
                "x".repeat(total - head.len() - tail.len())
            )
        };
        // Ending with the blank line at the cap is accepted...
        let at_cap = block(MAX_HEADER_BYTES, true);
        assert_eq!(at_cap.len(), MAX_HEADER_BYTES);
        assert!(matches!(read(&at_cap), Ok(Some(_))));
        // ...one byte more is not...
        assert_eq!(
            read(&block(MAX_HEADER_BYTES + 1, true)),
            Err(RequestError::TooLarge)
        );
        // ...and complete header lines that fill the budget exactly leave no
        // room for the blank line: too large, not "truncated headers".
        let full = block(MAX_HEADER_BYTES, false);
        assert_eq!(full.len(), MAX_HEADER_BYTES);
        assert_eq!(read(&full), Err(RequestError::TooLarge));
    }

    #[test]
    fn responses_are_exactly_framed() {
        let mut out = CountingWriter::default();
        write_response(&mut out, 200, "{\"ok\":true}", true).expect("write");
        assert_eq!(
            String::from_utf8(out.bytes).expect("utf8"),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        assert_eq!(out.writes, 1, "one write per message");

        let mut out = CountingWriter::default();
        let body = "{\"error\":\"request exceeds size caps\"}";
        write_response(&mut out, 413, body, false).expect("write");
        assert_eq!(
            String::from_utf8(out.bytes).expect("utf8"),
            format!(
                "HTTP/1.1 413 Payload Too Large\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        assert_eq!(out.writes, 1, "one write per message");
    }
}
