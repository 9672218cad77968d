//! Length-prefixed framing over a byte stream.
//!
//! Every message on a socket is one *frame*: a 4-byte big-endian length
//! followed by that many payload bytes, capped at
//! [`MAX_FRAME`]. The reader distinguishes a
//! clean close (EOF on a frame boundary, `Ok(None)`) from a truncated
//! frame (EOF mid-frame, `UnexpectedEof`) so peer loss can be told
//! apart from protocol corruption.
//!
//! Two APIs share the format:
//!
//! * [`write_frame`]/[`FrameDecoder::read_frame_from`] — blocking, one
//!   frame per call; a read may bring bytes past the frame, which the
//!   decoder keeps, so one decoder reads one stream;
//! * [`FrameDecoder`]/[`WriteBuf`] — incremental state machines for
//!   nonblocking sockets: a decoder accumulates whatever bytes a
//!   readiness wakeup delivered and yields every complete frame, a
//!   write buffer coalesces any number of queued frames into one
//!   contiguous flush (the reactor's writev-style single write per
//!   wakeup), each frame encoded straight into it
//!   ([`WriteBuf::push_with`]).

use std::io::{self, Read, Write};

use crate::wire::MAX_FRAME;

/// Writes one frame: length prefix, payload, flush.
///
/// # Errors
///
/// `InvalidInput` if the payload exceeds `MAX_FRAME`; otherwise any
/// underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental frame decoder for nonblocking streams, and the one
/// reader of a blocking one ([`FrameDecoder::read_frame_from`]).
///
/// Feed it bytes with [`FrameDecoder::read_from`] (which reads until
/// the socket has no more to give) or [`FrameDecoder::extend`], then drain
/// complete frames with [`FrameDecoder::next_frame`]. Partial frames —
/// even a split length prefix — persist across calls, so a readiness
/// loop can hand it arbitrary byte fragments.
///
/// A socket is read straight into the decoder's own buffer, and a frame
/// is lent out of it, not copied: a caller decodes it in place. The
/// buffer starts at 128 bytes and doubles only when a read fills it, so
/// an idle connection costs little and a busy one stops growing at its
/// largest burst.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialised storage; bytes `start..end` are buffered.
    buf: Vec<u8>,
    /// Start of the first byte not yet taken as a frame.
    start: usize,
    /// End of the bytes received.
    end: usize,
}

/// What one [`FrameDecoder::read_from`] pass observed on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The socket has no more bytes for now (short read, `WouldBlock`).
    Blocked,
    /// The peer closed the stream (EOF).
    Eof,
}

impl FrameDecoder {
    /// Bytes a decoder's buffer holds before its first growth.
    const INITIAL: usize = 128;

    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Reads from `r` until it runs dry or closes, straight into the
    /// buffer. A read that does not fill the free space has emptied the
    /// socket: the pass stops there, not a syscall later at
    /// `WouldBlock`. Whatever arrives afterwards — an EOF included — a
    /// level-triggered poller reports on its next turn.
    ///
    /// # Errors
    ///
    /// Any I/O error other than `WouldBlock`/`Interrupted`.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<ReadStatus> {
        loop {
            if self.end == self.buf.len() {
                self.reserve(1);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(ReadStatus::Eof),
                Ok(n) => {
                    self.end += n;
                    if self.end < self.buf.len() {
                        return Ok(ReadStatus::Blocked);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadStatus::Blocked);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Lends the next complete frame, if one is buffered. The slice is
    /// valid until the decoder is next fed.
    ///
    /// # Errors
    ///
    /// `InvalidData` if a length prefix exceeds [`MAX_FRAME`] (protocol
    /// corruption: the caller severs the connection).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(len) = self.whole_frame()? else {
            return Ok(None);
        };
        let at = self.start + 4;
        self.start = at + len;
        if self.start == self.end {
            // Everything taken: the next read lands at the front.
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(&self.buf[at..at + len]))
    }

    /// Reads a *blocking* `r` until a frame is buffered whole, and lends
    /// it: a read at a time, none past the one completing the frame,
    /// whose surplus stays buffered for the next call. `Ok(None)` on a
    /// clean EOF, at a frame boundary.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` mid-frame, `InvalidData` for a length prefix over
    /// [`MAX_FRAME`], and any I/O error but `Interrupted` (a read
    /// timeout included).
    pub fn read_frame_from(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        while self.whole_frame()?.is_none() {
            self.reserve(1);
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.mid_frame() => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(0) => return Ok(None),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.next_frame()
    }

    /// The payload length of the first buffered frame, if it is whole.
    fn whole_frame(&self) -> io::Result<Option<usize>> {
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4].try_into().unwrap();
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME"),
            ));
        }
        Ok((avail >= 4 + len).then_some(len))
    }

    /// Whether a partial frame is buffered — an EOF here is a
    /// truncation, not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// The bytes buffered past the last frame taken, for a caller that
    /// stops decoding mid-stream and owes them to whoever reads the
    /// stream next.
    pub fn into_remainder(mut self) -> Vec<u8> {
        self.buf.truncate(self.end);
        self.buf.drain(..self.start);
        self.buf
    }

    /// Makes room for `more` bytes past `end`: moves a partial frame to
    /// the front first, and grows (doubling, from `INITIAL`) only if
    /// that is not enough.
    fn reserve(&mut self, more: usize) {
        if self.buf.len() - self.end >= more {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let need = self.end + more;
        if self.buf.len() < need {
            let len = need.max(Self::INITIAL).max(self.buf.len() * 2);
            self.buf.resize(len, 0);
        }
    }
}

/// An outbound frame buffer: any number of frames queued by any number
/// of producers, flushed as one contiguous byte range per wakeup.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    /// Flushed prefix of `buf` (a partial nonblocking write stops
    /// mid-range; the next flush resumes here).
    start: usize,
}

impl WriteBuf {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes a frame is given up front: a fresh buffer's first frame
    /// is encoded without regrowth.
    const FRAME_ROOM: usize = 128;

    /// Queues one frame whose payload `body` encodes in place, straight
    /// into the buffer it is flushed from: a length placeholder, the
    /// payload appended after it, then the length patched in. Returns
    /// the bytes queued, the 4-byte prefix included.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the payload exceeds [`MAX_FRAME`]; nothing of
    /// the frame stays queued.
    pub fn push_with(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        let at = self.buf.len();
        self.buf.reserve(Self::FRAME_ROOM);
        self.buf.extend_from_slice(&[0; 4]);
        body(&mut self.buf);
        let len = self.buf.len() - at - 4;
        if len > MAX_FRAME {
            self.buf.truncate(at);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            ));
        }
        self.buf[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
        Ok(len + 4)
    }

    /// Queues one frame of already-encoded `payload`; it is refused as
    /// [`WriteBuf::push_with`] refuses one.
    pub fn push_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.push_with(|out| out.extend_from_slice(payload))
            .map(drop)
    }

    /// Whether any unflushed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.start >= self.buf.len()
    }

    /// Writes as much of the queued bytes as `w` accepts right now —
    /// every queued frame goes out in a single coalesced write when the
    /// socket cooperates. Returns whether the buffer fully drained
    /// (`false` = the socket blocked mid-buffer; keep write interest).
    ///
    /// # Errors
    ///
    /// Any I/O error other than `WouldBlock`/`Interrupted`.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream refused queued frames",
                    ));
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    self.compact();
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }

    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let (mut c, mut dec) = (Cursor::new(buf), FrameDecoder::new());
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"hello");
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"");
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"world");
        assert!(dec.read_frame_from(&mut c).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // Cut alone, and behind a whole frame read off the same stream.
        for cut in 1..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            let err = FrameDecoder::new().read_frame_from(&mut c).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            let mut two = buf.clone();
            two.extend_from_slice(&buf[..cut]);
            let (mut c, mut dec) = (Cursor::new(two), FrameDecoder::new());
            assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"hello");
            let err = dec.read_frame_from(&mut c).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let err = FrameDecoder::new()
            .read_frame_from(&mut Cursor::new(buf))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_is_refused_at_write_time() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing written for a refused frame");
    }

    #[test]
    fn decoder_reassembles_one_byte_fragments() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        write_frame(&mut bytes, b"").unwrap();
        write_frame(&mut bytes, &vec![7u8; 1000]).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &bytes {
            dec.extend(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"hello");
        assert_eq!(got[1], b"");
        assert_eq!(got[2], vec![7u8; 1000]);
        assert!(!dec.mid_frame(), "no residue after complete frames");
    }

    #[test]
    fn decoder_rejects_oversized_prefix() {
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_be_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_tracks_mid_frame_residue() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"abcdef").unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..bytes.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.mid_frame(), "truncated frame leaves residue");
    }

    /// A short read ends the pass: no second call to learn `WouldBlock`.
    /// Only a read that fills the buffer earns another, into a grown one.
    #[test]
    fn read_from_stops_at_a_short_read() {
        struct Counted {
            left: usize,
            calls: usize,
        }
        impl Read for Counted {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.left == 0 {
                    return Err(io::Error::from(io::ErrorKind::WouldBlock));
                }
                let n = buf.len().min(self.left);
                buf[..n].fill(0);
                self.left -= n;
                Ok(n)
            }
        }
        let mut dec = FrameDecoder::new();
        let mut r = Counted {
            left: 100,
            calls: 0,
        };
        assert_eq!(dec.read_from(&mut r).unwrap(), ReadStatus::Blocked);
        assert_eq!((r.calls, dec.end), (1, 100));
        let mut dec = FrameDecoder::new();
        let mut r = Counted {
            left: FrameDecoder::INITIAL + 7,
            calls: 0,
        };
        assert_eq!(dec.read_from(&mut r).unwrap(), ReadStatus::Blocked);
        assert_eq!(r.calls, 2, "a full buffer may have left more behind");
        assert_eq!(dec.end, FrameDecoder::INITIAL + 7);
    }

    /// The buffer is the decoder's only storage: it starts at `INITIAL`,
    /// is reused from the front once drained, and grows only for a
    /// burst that does not fit.
    #[test]
    fn the_buffer_grows_only_when_a_read_fills_it() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &[5u8; 100]).unwrap();
        let mut dec = FrameDecoder::new();
        for _ in 0..1000 {
            dec.read_from(&mut Cursor::new(&framed)).unwrap();
            assert_eq!(dec.next_frame().unwrap(), Some(&[5u8; 100][..]));
            assert!(!dec.mid_frame());
        }
        assert_eq!(dec.buf.len(), FrameDecoder::INITIAL);
        let mut burst = Vec::new();
        for _ in 0..8 {
            burst.extend_from_slice(&framed);
        }
        dec.read_from(&mut Cursor::new(&burst)).unwrap();
        // 832 bytes: doubled until a read came up short.
        assert_eq!(dec.buf.len(), 1024);
        for _ in 0..8 {
            assert_eq!(dec.next_frame().unwrap(), Some(&[5u8; 100][..]));
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn write_buf_coalesces_and_resumes_partial_writes() {
        let mut wb = WriteBuf::new();
        wb.push_frame(b"one").unwrap();
        let queued = wb.push_with(|out| out.extend_from_slice(b"two-longer"));
        assert_eq!(queued.unwrap(), 4 + 10);
        assert!(!wb.is_empty());

        // A writer that accepts 5 bytes then blocks, alternating.
        struct Dribble {
            out: Vec<u8>,
            open: bool,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.open {
                    self.open = false;
                    let n = buf.len().min(5);
                    self.out.extend_from_slice(&buf[..n]);
                    Ok(n)
                } else {
                    self.open = true;
                    Err(io::Error::from(io::ErrorKind::WouldBlock))
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Dribble {
            out: Vec::new(),
            open: true,
        };
        let mut rounds = 0;
        while !wb.flush_to(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 32, "flush must make progress");
        }
        assert!(wb.is_empty());
        let (mut c, mut dec) = (Cursor::new(w.out), FrameDecoder::new());
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"one");
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), b"two-longer");
        assert!(dec.read_frame_from(&mut c).unwrap().is_none());
    }

    /// A frame encoded in place is refused whole when its payload is
    /// over `MAX_FRAME`: the frames queued before it stay, nothing of
    /// it does. A fresh buffer's first frame is encoded without
    /// regrowth.
    #[test]
    fn an_oversized_frame_leaves_nothing_queued() {
        let mut wb = WriteBuf::new();
        wb.push_with(|out| out.extend_from_slice(&[1; 100]))
            .unwrap();
        assert_eq!(wb.buf.capacity(), WriteBuf::FRAME_ROOM);
        let err = wb
            .push_with(|out| out.resize(out.len() + MAX_FRAME + 1, 2))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(wb.push_with(|out| out.push(3)).unwrap(), 5);
        let mut out = Vec::new();
        assert!(wb.flush_to(&mut out).unwrap());
        let (mut c, mut dec) = (Cursor::new(out), FrameDecoder::new());
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), [1; 100]);
        assert_eq!(dec.read_frame_from(&mut c).unwrap().unwrap(), [3]);
        assert!(dec.read_frame_from(&mut c).unwrap().is_none());
    }
}
