//! The benchmark's own HTTP/1.1 client: one keep-alive connection, one
//! request in flight, `content-length` framing. Independent of the
//! program's client so a change there cannot change what is measured.
//!
//! The socket blocks in `read`; the CPUs stay awake under it because a
//! run keeps them busy with idle-class spinners (see `warm`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a response may take before the request counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one pre-rendered request and reads the response; the body is
    /// left in `body`. A failed exchange drops the connection, and the next
    /// request dials a fresh one.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        let result = self.exchange_inner(request, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_inner(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let outcome = (|| {
            let stream = self.stream()?;
            let mut sent = 0;
            while sent < request.len() {
                sent += timed(stream.write(&request[sent..]))?;
            }
            let mut chunk = [0u8; 4096];
            let head_end = loop {
                if let Some(pos) = find(&buf, b"\r\n\r\n") {
                    break pos + 4;
                }
                let n = timed(stream.read(&mut chunk))?;
                if n == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
                }
                buf.extend_from_slice(&chunk[..n]);
            };
            let head = std::str::from_utf8(&buf[..head_end])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "head"))?;
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "status"))?;
            let mut length = 0usize;
            for line in head.split("\r\n").skip(1) {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        length = value.trim().parse().unwrap_or(0);
                    }
                }
            }
            while buf.len() < head_end + length {
                let n = timed(stream.read(&mut chunk))?;
                if n == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            body.clear();
            body.extend_from_slice(&buf[head_end..head_end + length]);
            Ok(status)
        })();
        self.buf = buf;
        outcome
    }
}

/// A socket call that ran into `IO_TIMEOUT` reads as a timeout.
fn timed(result: io::Result<usize>) -> io::Result<usize> {
    result.map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock => io::Error::new(io::ErrorKind::TimedOut, "no response"),
        _ => e,
    })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Renders a request with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders a bodiless GET.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// One GET on a fresh connection, returning `(status, body)`.
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let status = conn.exchange(&get(path), &mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// One POST on a fresh connection, returning `(status, body)`.
pub fn post_once(addr: SocketAddr, path: &str, json: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let status = conn.exchange(&post(path, json), &mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// The `(item, score)` pairs of a `/recommend` response body, in order.
/// A scan, not a JSON parser: the benchmark must not lean on the
/// program's codec to judge the program's output.
pub fn parse_recommendations(body: &[u8]) -> Option<Vec<(u64, f64)>> {
    let text = std::str::from_utf8(body).ok()?;
    let mut rest = text.strip_prefix("{\"recommendations\":[")?;
    let mut out = Vec::new();
    while let Some(pos) = rest.find('{') {
        rest = &rest[pos + 1..];
        let end = rest.find('}')?;
        let (mut item, mut score) = (None, None);
        for field in rest[..end].split(',') {
            let (key, value) = field.split_once(':')?;
            match key.trim() {
                "\"item_id\"" => item = value.trim().parse::<u64>().ok(),
                "\"score\"" => score = value.trim().parse::<f64>().ok(),
                _ => return None,
            }
        }
        out.push((item?, score?));
        rest = &rest[end + 1..];
    }
    Some(out)
}

/// Sums every sample of a Prometheus metric family line `name{…} value`
/// (or `name value`) in an exposition text.
pub fn scrape_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            l.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendations_scan() {
        let body = br#"{"recommendations":[{"item_id":5,"score":0.5},{"item_id":7,"score":0.25}]}"#;
        assert_eq!(parse_recommendations(body), Some(vec![(5, 0.5), (7, 0.25)]));
        assert_eq!(
            parse_recommendations(br#"{"recommendations":[]}"#),
            Some(vec![])
        );
        assert_eq!(parse_recommendations(br#"{"error":"x"}"#), None);
    }

    #[test]
    fn scrape_sums_labelled_samples() {
        let text = "# HELP a x\na_total{pod=\"0\"} 2\na_total{pod=\"1\"} 3\na_total_other 9\n";
        assert_eq!(scrape_sum(text, "a_total"), 5.0);
    }
}
