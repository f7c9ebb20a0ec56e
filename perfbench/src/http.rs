//! A minimal keep-alive HTTP/1.1 client for the poller, the `/metrics`
//! scrapes and the body checks. Load itself comes from
//! `rd_bench::loadgen`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// One GET on the kept-alive connection, conditional when
    /// `if_none_match` is given.
    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> io::Result<Response> {
        let mut req = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n");
        if let Some(tag) = if_none_match {
            req.push_str(&format!("if-none-match: {tag}\r\n"));
        }
        req.push_str("\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-UTF-8 response head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let mut length = 0usize;
        let mut etag = None;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| io::Error::other("bad content-length"))?
                    }
                    "etag" => etag = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        if status == 304 {
            length = 0;
        }
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Response { status, etag, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One GET on a fresh connection.
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Client::connect(addr)?.get(path, None)
}
