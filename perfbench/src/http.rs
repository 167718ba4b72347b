//! A minimal HTTP/1.1 client: one request per connection, as the fleet's
//! scrape plane serves them (`Connection: close`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without a header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line: {head:?}")))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    request(addr, "GET", path, "")
}
