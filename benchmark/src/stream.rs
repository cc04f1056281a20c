//! The in-memory byte stream the daemon is driven through.
//!
//! `Server::serve_connection` is the function the TCP workers and
//! `--stdio` both call; it only needs a `Read` and a `Write`. Handing
//! it a queue of pre-encoded request frames and a buffer for the
//! responses measures request in → response out with no socket, no
//! second thread and no scheduler in the timed path (the loopback-TCP
//! mix was bimodal on the 2-vCPU VM this was sized on). The stream
//! timestamps each frame when its first byte is handed out and each
//! response when it is flushed, so per-request latency falls out
//! without touching the product code.

use std::io::{self, Read, Write};
use std::time::Instant;

/// A queue of whole request frames, read front to back; EOF after the
/// last one ends the connection cleanly.
pub struct FrameSource<'a> {
    frames: &'a [Vec<u8>],
    frame: usize,
    offset: usize,
    /// When the first byte of each frame was handed to the reader.
    pub started: Vec<Instant>,
}

impl<'a> FrameSource<'a> {
    pub fn new(frames: &'a [Vec<u8>]) -> Self {
        FrameSource {
            frames,
            frame: 0,
            offset: 0,
            started: Vec::with_capacity(frames.len()),
        }
    }
}

impl Read for FrameSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(frame) = self.frames.get(self.frame) else {
            return Ok(0);
        };
        if buf.is_empty() {
            return Ok(0);
        }
        if self.offset == 0 {
            self.started.push(Instant::now());
        }
        // never read across a frame boundary: the next frame's clock
        // starts when the server asks for it
        let n = buf.len().min(frame.len() - self.offset);
        buf[..n].copy_from_slice(&frame[self.offset..self.offset + n]);
        self.offset += n;
        if self.offset == frame.len() {
            self.frame += 1;
            self.offset = 0;
        }
        Ok(n)
    }
}

/// Collects response frames; each `flush` closes one response (the
/// protocol writes a frame with one `write_all` and then flushes).
#[derive(Default)]
pub struct FrameSink {
    current: Vec<u8>,
    /// The bytes of every response written, in order.
    pub responses: Vec<Vec<u8>>,
    /// When each response was flushed.
    pub written: Vec<Instant>,
}

impl Write for FrameSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.current.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.current.is_empty() {
            self.written.push(Instant::now());
            self.responses.push(std::mem::take(&mut self.current));
        }
        Ok(())
    }
}

/// Seconds from each frame being handed out to its response being
/// flushed, in request order.
pub fn latencies_s(source: &FrameSource<'_>, sink: &FrameSink) -> Vec<f64> {
    source
        .started
        .iter()
        .zip(&sink.written)
        .map(|(start, written)| written.duration_since(*start).as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_serve::proto::{read_frame, send_request, write_frame};
    use shackle_serve::{Request, Response, Server};

    fn encode(req: &Request) -> Vec<u8> {
        let mut bytes = Vec::new();
        send_request(&mut bytes, req).unwrap();
        bytes
    }

    #[test]
    fn frames_come_out_whole_and_timestamped_once() {
        let frames = vec![encode(&Request::Stats), encode(&Request::Stats)];
        let mut src = FrameSource::new(&frames);
        // a reader that asks for more than one frame's worth still
        // stops at the boundary
        let mut big = [0u8; 64];
        assert_eq!(src.read(&mut big).unwrap(), frames[0].len());
        assert_eq!(src.started.len(), 1);
        let (tag, payload) = read_frame(&mut src).unwrap().expect("second frame");
        assert_eq!((tag, payload.len()), (frames[1][0], 0));
        assert_eq!(src.started.len(), 2);
        assert!(read_frame(&mut src).unwrap().is_none());
        assert_eq!(src.started.len(), 2);
    }

    #[test]
    fn sink_closes_a_response_per_flush() {
        let mut sink = FrameSink::default();
        write_frame(&mut sink, 7, b"abc").unwrap();
        write_frame(&mut sink, 8, b"").unwrap();
        sink.flush().unwrap(); // nothing pending: no empty response
        assert_eq!(sink.responses.len(), 2);
        assert_eq!(sink.written.len(), 2);
        assert_eq!(sink.responses[0][0], 7);
        assert_eq!(&sink.responses[0][9..], b"abc");
    }

    #[test]
    fn served_connection_has_a_start_for_every_response() {
        let src_text = shackle_ir::parse::to_source(&shackle_ir::kernels::matmul_ijk());
        let frames = vec![
            encode(&Request::Quote {
                probe_n: 12,
                source: src_text.clone(),
            }),
            vec![99, 0, 0, 0, 0, 0, 0, 0, 0], // unknown tag: protocol error frame
            encode(&Request::Quote {
                probe_n: 16,
                source: src_text,
            }),
        ];
        let mut src = FrameSource::new(&frames);
        let mut sink = FrameSink::default();
        Server::new()
            .with_store(None)
            .serve_connection(&mut src, &mut sink)
            .unwrap();
        assert_eq!(src.started.len(), frames.len());
        assert_eq!(sink.written.len(), frames.len());
        for (s, w) in src.started.iter().zip(&sink.written) {
            assert!(s <= w);
        }
        assert_eq!(latencies_s(&src, &sink).len(), frames.len());
        // responses are in request order: each starts after the
        // previous one was written
        assert!(sink.written[0] <= src.started[1]);
        let decode = |bytes: &Vec<u8>| {
            let (tag, payload) = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
            Response::decode(tag, &payload).unwrap()
        };
        assert!(matches!(
            decode(&sink.responses[0]),
            Response::Quoted { .. }
        ));
        assert!(matches!(decode(&sink.responses[1]), Response::Error { .. }));
        assert!(matches!(
            decode(&sink.responses[2]),
            Response::Quoted { .. }
        ));
    }
}
