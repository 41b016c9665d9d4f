//! The framed wire format spoken between the gateway and `peerstripe-node`
//! daemons.
//!
//! Every message is one *frame*:
//!
//! ```text
//! [magic u16 LE][version u8][kind u8][meta_len u32 LE][payload_len u32 LE]
//! [meta: meta_len bytes, the kind's record][payload: payload_len bytes, raw]
//! ```
//!
//! The *meta* is one fixed binary record per kind; block *payload* bytes ride
//! the raw payload section.  The header is validated before any body byte is
//! trusted: bad magic, another [`VERSION`] (nothing is negotiated), or a body
//! larger than [`MAX_FRAME`] rejects the frame without allocating for it.
//!
//! Every record starts with the request id: `0` (untraced), or `1` then the
//! id as a `u64`.  Every reply echoes its request's, error replies included.
//! The kind's fields follow in a fixed order.  Integers are little-endian; an
//! `Id` is its `u128`, a `ByteSize` a `u64`, a flag one byte (0 or 1), and a
//! *string* a `u32` length plus that many UTF-8 bytes.
//!
//! | Kind | Fields after the request id |
//! |---|---|
//! | `Ping`, `GetCapacity`, `Shutdown`, `GetStats`, `Stored`, `Removed`, `ShuttingDown` | — |
//! | `StoreBlock` | key `Id`, *name*, size `ByteSize`, has-payload flag |
//! | `FetchBlock` | *name* |
//! | `RemoveBlock` | *name*, size `ByteSize` |
//! | `Pong` | node `Id` |
//! | `Capacity` | free `ByteSize` |
//! | `Block` | found flag, size `ByteSize`, has-payload flag (a miss: 0, 0, 0) |
//! | `Error` | tag: `0` insufficient space, `1` already stored, `2` bad request, then its detail string |
//! | `Stats` | the [`NodeStats`] as a JSON string |
//!
//! A *name* is a tag, the file as a string, then the variant's `u32`s: `0`
//! chunk (chunk), `1` block (chunk, ecb), `2` CAT (none), `3` whole file
//! (salt).  `Stats` is the one kind whose fields are JSON: it is a
//! health scrape, not a data RPC, and its metrics export is open-ended.
//!
//! A reader dispatches on the kind byte first, so an unknown kind is
//! [`WireError::UnknownKind`] whatever its meta.  It then consumes the record
//! exactly: a short record, a trailing byte, an unknown tag, a flag byte
//! other than 0 or 1, or a string that is not UTF-8 is a [`WireError::Body`].
//!
//! A frame is read into buffers of its own ([`read_request`],
//! [`read_response`]) with one exception: [`read_block_reply_into`] reads the
//! payload of a `Block` reply — the one large thing a read receives —
//! straight off the stream into a buffer the caller owns, so a fetched block
//! is written once, where it is read.  The store's twin is
//! [`write_store_block_from`], which writes a `StoreBlock` whose payload is
//! in parts, from where they are.  The bytes on the wire are the same.
//!
//! On the socket a frame is one system call each way: one vectored write, and
//! one `read` through the connection's `BufReader` (at both ends) for its
//! header, record and a small payload.  A large payload goes on straight into
//! its destination, past the buffer but for at most 8 KiB at each end.
//!
//! The message set is the paper's §3 primitive set: `GetCapacity` (the
//! `getCapacity` probe), `StoreBlock` (chunk store) and `FetchBlock`
//! (retrieval, and the reads a regeneration starts from), plus `Ping`,
//! `RemoveBlock` (store rollback), `Shutdown`, `GetStats` and typed error
//! replies.

use peerstripe_core::ObjectName;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::RegistryExport;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;

/// First two header bytes of every frame: `"PS"` little-endian.
pub const MAGIC: u16 = 0x5053;
/// Wire protocol version this build speaks.
pub const VERSION: u8 = 2;
/// Maximum accepted frame body (meta + payload), guarding both sides against
/// a corrupt or hostile length field.
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Frame kind bytes. Requests have the high bit clear, responses set.
/// `0x05` / `0x85` belonged to a retired verb and stay unassigned.
pub mod kind {
    /// Liveness check request.
    pub const PING: u8 = 0x01;
    /// `getCapacity` probe request.
    pub const GET_CAPACITY: u8 = 0x02;
    /// Store one block request.
    pub const STORE_BLOCK: u8 = 0x03;
    /// Fetch one block request.
    pub const FETCH_BLOCK: u8 = 0x04;
    /// Remove a block (store rollback).
    pub const REMOVE_BLOCK: u8 = 0x06;
    /// Ask the daemon to shut down gracefully.
    pub const SHUTDOWN: u8 = 0x07;
    /// Ask for the daemon's metrics snapshot and recent-request log.
    pub const GET_STATS: u8 = 0x08;
    /// Reply to [`PING`].
    pub const PONG: u8 = 0x81;
    /// Reply to [`GET_CAPACITY`].
    pub const CAPACITY: u8 = 0x82;
    /// Success reply to [`STORE_BLOCK`].
    pub const STORED: u8 = 0x83;
    /// Reply to [`FETCH_BLOCK`].
    pub const BLOCK: u8 = 0x84;
    /// Reply to [`REMOVE_BLOCK`].
    pub const REMOVED: u8 = 0x86;
    /// Reply to [`SHUTDOWN`].
    pub const SHUTTING_DOWN: u8 = 0x87;
    /// Reply to [`GET_STATS`].
    pub const STATS: u8 = 0x88;
    /// Typed error reply (any request).
    pub const ERROR: u8 = 0xFF;
}

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// The first two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// The peer speaks a protocol version this build does not.
    Version(u8),
    /// The declared body length exceeds [`MAX_FRAME`].
    Oversized(u64),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The meta section failed to parse as the expected message.
    Body(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::Version(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME}-byte limit"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            WireError::Body(e) => write!(f, "malformed message body: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl WireError {
    /// True for transport-level failures where reconnecting may help, as
    /// opposed to protocol violations where it will not.
    pub fn is_transport(&self) -> bool {
        matches!(self, WireError::Io(_) | WireError::Truncated)
    }

    /// A stable label for the error's variant, the `kind` of a gateway error;
    /// none shares a spelling with a [`RemoteError::kind_label`], so wire
    /// errors stay distinguishable from node refusals in merged telemetry.
    pub fn kind_label(&self) -> &'static str {
        match self {
            WireError::Io(_) => "io",
            WireError::Truncated => "truncated",
            WireError::BadMagic(_) => "bad_magic",
            WireError::Version(_) => "version",
            WireError::Oversized(_) => "oversized",
            WireError::UnknownKind(_) => "unknown_kind",
            WireError::Body(_) => "body",
        }
    }
}

/// A request the gateway sends to a node daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// The paper's `getCapacity` probe: how much space will you accept?
    GetCapacity,
    /// Store a block under `key`; the payload travels in the frame's raw
    /// payload section.
    StoreBlock {
        /// Overlay key the object is stored under.
        key: Id,
        /// The object's name.
        name: ObjectName,
        /// Size charged against the node's capacity.
        size: ByteSize,
        /// Block bytes (absent on the metadata-only placement path).
        payload: Option<Vec<u8>>,
    },
    /// Fetch the block stored under `name`'s key.
    FetchBlock {
        /// The object's name.
        name: ObjectName,
    },
    /// Undo a store: remove the object.  A daemon tracks every object it
    /// stores, so removing one it does not hold changes nothing and is still
    /// answered `Removed`; a resent remove is harmless.
    RemoveBlock {
        /// The object's name.
        name: ObjectName,
        /// The size the store charged.  The daemon frees what its own record
        /// of the object says, never this.
        size: ByteSize,
    },
    /// Ask the daemon to finish in-flight requests and exit.
    Shutdown,
    /// Ask for the node's metrics snapshot and recent-request log.
    GetStats,
}

impl Request {
    /// The `op` label of both sides' metrics and op logs.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::GetCapacity => "get_capacity",
            Request::StoreBlock { .. } => "store_block",
            Request::FetchBlock { .. } => "fetch_block",
            Request::RemoveBlock { .. } => "remove_block",
            Request::Shutdown => "shutdown",
            Request::GetStats => "get_stats",
        }
    }
}

/// Why a node refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The node does not have the space (`StoreBlock`).
    InsufficientSpace,
    /// An object with the same key is already stored (`StoreBlock`).
    AlreadyStored,
    /// The request could not be understood.
    BadRequest {
        /// Human-readable detail.
        detail: String,
    },
}

impl RemoteError {
    /// A stable label for the refusal, its `kind` at both ends of the wire
    /// (error counters and op-log `outcome`s).
    pub fn kind_label(&self) -> &'static str {
        match self {
            RemoteError::InsufficientSpace => "insufficient_space",
            RemoteError::AlreadyStored => "already_stored",
            RemoteError::BadRequest { .. } => "bad_request",
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::InsufficientSpace => write!(f, "insufficient space on the node"),
            RemoteError::AlreadyStored => {
                write!(f, "an object with the same key is already stored")
            }
            RemoteError::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

/// One finished request in a bounded op log, the gateway's or a daemon's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpLogEntry {
    /// The request id the caller threaded through the frame meta; `None`
    /// when the request was untraced.
    pub request_id: Option<u64>,
    /// The node the gateway sent the request to; `None` in a daemon's own
    /// log, which is that node's.
    pub node: Option<NodeRef>,
    /// The [`Request::op`] (`store_block`, `fetch_block`, ...).
    pub op: String,
    /// How long the request took, in milliseconds: the record of slow
    /// requests, at whatever threshold a reader picks.
    pub duration_ms: f64,
    /// `"ok"` or an error's kind label (`insufficient_space`, `io`, ...).
    pub outcome: String,
}

impl OpLogEntry {
    /// True when the request completed without a typed error.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }
}

/// A node daemon's one account of itself: identity, capacity and what is
/// stored against it, its account's metrics export, and the tail of its
/// recent-request log.  Carried by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// The reporting node's overlay identifier.
    pub node: Id,
    /// Contributed capacity.
    pub capacity: ByteSize,
    /// Bytes currently charged against the capacity.
    pub used: ByteSize,
    /// Objects currently stored.
    pub objects: u64,
    /// The node's account: per-op counters and latency histograms, and
    /// error counters by op and kind.
    pub metrics: RegistryExport,
    /// The bounded recent-request log, oldest first.
    pub op_log: Vec<OpLogEntry>,
}

/// A reply a node daemon sends back to the gateway.
///
/// `PartialEq` only (no `Eq`): [`Response::Stats`] carries float-valued
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`], carrying the node's overlay id.
    Pong {
        /// The responding node's identifier.
        node: Id,
    },
    /// Reply to [`Request::GetCapacity`]: the advertised free space.  The
    /// space is *not* reserved (Section 4.3 of the paper).
    Capacity {
        /// Free space the node is willing to devote to one block.
        free: ByteSize,
    },
    /// The block was stored.
    Stored,
    /// Reply to [`Request::FetchBlock`]; `None` when the node does not hold
    /// the object.
    Block {
        /// The found block's size and payload.  The payload is shared with
        /// the node's store, so a reply is written from the stored bytes
        /// without copying them first.
        block: Option<(ByteSize, Option<Arc<Vec<u8>>>)>,
    },
    /// The block was removed (or its space released).
    Removed,
    /// The daemon acknowledges the shutdown request and will exit.
    ShuttingDown,
    /// Reply to [`Request::GetStats`]: the node's observability snapshot.
    Stats {
        /// Capacity, use, metrics, and the recent-request log.
        stats: Box<NodeStats>,
    },
    /// The request was refused.
    Error(RemoteError),
}

/// A frame's header and meta record, built in one buffer.  Each field method
/// appends one field of the module docs' layout.
struct Record(Vec<u8>);

impl Record {
    /// A frame of kind `kind_byte` whose record so far is the id prefix.
    fn new(kind_byte: u8, rid: Option<u64>) -> Record {
        let mut buf = Vec::with_capacity(HEADER_LEN + 64);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&[VERSION, kind_byte]);
        buf.extend_from_slice(&[0; 8]);
        rid.into_iter()
            .fold(Record(buf).flag(rid.is_some()), Record::u64)
    }

    fn bytes(mut self, bytes: &[u8]) -> Record {
        self.0.extend_from_slice(bytes);
        self
    }

    fn tag(self, tag: u8) -> Record {
        self.bytes(&[tag])
    }

    fn flag(self, on: bool) -> Record {
        self.tag(u8::from(on))
    }

    fn u32(self, v: u32) -> Record {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(self, v: u64) -> Record {
        self.bytes(&v.to_le_bytes())
    }

    fn id(self, id: Id) -> Record {
        self.bytes(&id.0.to_le_bytes())
    }

    fn size(self, size: ByteSize) -> Record {
        self.u64(size.as_u64())
    }

    /// A string longer than `u32::MAX` bytes would wrap its length field,
    /// but its frame is refused as oversized first.
    fn string(self, s: &str) -> Record {
        self.u32(s.len() as u32).bytes(s.as_bytes())
    }

    fn name(self, name: &ObjectName) -> Record {
        match name {
            ObjectName::Chunk { file, chunk } => self.tag(0).string(file).u32(*chunk),
            ObjectName::Block { file, chunk, ecb } => {
                self.tag(1).string(file).u32(*chunk).u32(*ecb)
            }
            ObjectName::Cat { file } => self.tag(2).string(file),
            ObjectName::WholeFile { file, salt } => self.tag(3).string(file).u32(*salt),
        }
    }

    fn error(self, error: &RemoteError) -> Record {
        match error {
            RemoteError::InsufficientSpace => self.tag(0),
            RemoteError::AlreadyStored => self.tag(1),
            RemoteError::BadRequest { detail } => self.tag(2).string(detail),
        }
    }

    /// Fill in the header's lengths and write the frame: the record, then
    /// the payload, `parts` one after the other.
    fn write(mut self, w: &mut impl Write, parts: &[&[u8]]) -> Result<(), WireError> {
        let meta_len = (self.0.len() - HEADER_LEN) as u64;
        let payload_len: u64 = parts.iter().map(|part| part.len() as u64).sum();
        if meta_len + payload_len > MAX_FRAME {
            return Err(WireError::Oversized(meta_len + payload_len));
        }
        // Both fit a u32 now: as one LE u64 they are the header's two fields.
        let lengths = meta_len | payload_len << 32;
        if let Some(field) = self.0.get_mut(4..HEADER_LEN) {
            field.copy_from_slice(&lengths.to_le_bytes());
        }
        write_all_vectored(
            w,
            std::iter::once(self.0.as_slice()).chain(parts.iter().copied()),
        )?;
        w.flush()?;
        Ok(())
    }
}

/// Write `parts` one after the other: one vectored write of up to eight of
/// them, so a frame is one segment where it fits and one wakeup for the
/// reader.  A short write goes on where it stopped.
fn write_all_vectored<'a>(
    w: &mut impl Write,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> Result<(), WireError> {
    const SLICES: usize = 8;
    let mut parts = parts.filter(|part| !part.is_empty());
    // The unwritten bytes of the part the next write starts in.
    let mut first = parts.next();
    while let Some(head) = first {
        let mut slices = [IoSlice::new(&[]); SLICES];
        let mut used = 0;
        for (slice, part) in slices
            .iter_mut()
            .zip(std::iter::once(head).chain(parts.clone()))
        {
            *slice = IoSlice::new(part);
            used += 1;
        }
        match w.write_vectored(slices.get(..used).unwrap_or_default()) {
            Ok(0) => return Err(WireError::Io(ErrorKind::WriteZero.into())),
            Ok(mut written) => {
                let mut part = head;
                first = loop {
                    match part.get(written..) {
                        Some(rest) if !rest.is_empty() => break Some(rest),
                        _ => written = written.saturating_sub(part.len()),
                    }
                    match parts.next() {
                        Some(next) => part = next,
                        None => break None,
                    }
                };
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// A meta record being consumed front to back, one field of the module docs'
/// layout a call; every way a record can be wrong is a [`WireError::Body`].
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn short(&self, wanted: usize) -> WireError {
        WireError::Body(format!(
            "a {wanted}-byte field runs past the meta record's end"
        ))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (field, rest) = self.0.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.0 = rest;
        Ok(*field)
    }

    fn tag(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Body(format!("bad flag byte {other}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    fn id(&mut self) -> Result<Id, WireError> {
        self.array().map(|b| Id(u128::from_le_bytes(b)))
    }

    fn size(&mut self) -> Result<ByteSize, WireError> {
        self.u64().map(ByteSize::bytes)
    }

    fn rid(&mut self) -> Result<Option<u64>, WireError> {
        self.flag()?.then(|| self.u64()).transpose()
    }

    fn string(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let (bytes, rest) = self
            .0
            .split_at_checked(len)
            .ok_or_else(|| self.short(len))?;
        self.0 = rest;
        std::str::from_utf8(bytes).map_err(|e| WireError::Body(format!("string is not UTF-8: {e}")))
    }

    fn name(&mut self) -> Result<ObjectName, WireError> {
        Ok(match self.tag()? {
            0 => ObjectName::Chunk {
                file: self.string()?.into(),
                chunk: self.u32()?,
            },
            1 => ObjectName::Block {
                file: self.string()?.into(),
                chunk: self.u32()?,
                ecb: self.u32()?,
            },
            2 => ObjectName::Cat {
                file: self.string()?.into(),
            },
            3 => ObjectName::WholeFile {
                file: self.string()?.into(),
                salt: self.u32()?,
            },
            other => return Err(WireError::Body(format!("unknown name tag {other}"))),
        })
    }

    fn error(&mut self) -> Result<RemoteError, WireError> {
        Ok(match self.tag()? {
            0 => RemoteError::InsufficientSpace,
            1 => RemoteError::AlreadyStored,
            2 => RemoteError::BadRequest {
                detail: self.string()?.to_owned(),
            },
            other => return Err(WireError::Body(format!("unknown error tag {other}"))),
        })
    }

    /// A `Block` reply's fields: found, size, has-payload.
    fn block(&mut self) -> Result<(bool, ByteSize, bool), WireError> {
        Ok((self.flag()?, self.size()?, self.flag()?))
    }

    fn end(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(WireError::Body(format!("{n} bytes trail the meta record"))),
        }
    }
}

/// One kind's fields, parsed off its record after the id prefix; the
/// frame's payload is handed in for the kinds that carry one.
type Parse<T> = fn(&mut Fields<'_>, Vec<u8>) -> Result<T, WireError>;

/// Consume a record exactly: the id prefix, then the kind's fields.
fn decode<T>(
    parse: Parse<T>,
    meta: &[u8],
    payload: Vec<u8>,
) -> Result<(T, Option<u64>), WireError> {
    let mut fields = Fields(meta);
    let rid = fields.rid()?;
    let message = parse(&mut fields, payload)?;
    fields.end()?;
    Ok((message, rid))
}

/// Read exactly `len` body bytes into a fresh buffer.  The bytes land in the
/// buffer's spare capacity, which is never zeroed first; a stream that ends
/// early is [`WireError::Truncated`], never a short buffer.
fn read_section(r: &mut impl Read, len: u64) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(len as usize);
    if r.take(len).read_to_end(&mut buf)? as u64 != len {
        return Err(WireError::Truncated);
    }
    Ok(buf)
}

/// Read a frame up to its payload: validated header and meta section, as
/// `(kind, meta, payload_len)`.  The payload's bytes are the caller's to read.
fn read_frame_head(r: &mut impl Read) -> Result<(u8, Vec<u8>, u64), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(WireError::Version(header[2]));
    }
    let kind = header[3];
    let meta_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as u64;
    let payload_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as u64;
    if meta_len + payload_len > MAX_FRAME {
        return Err(WireError::Oversized(meta_len + payload_len));
    }
    Ok((kind, read_section(r, meta_len)?, payload_len))
}

/// Serialize and write one request frame (untraced).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_request_traced(w, req, None)
}

/// Serialize and write one request frame, threading an optional request id
/// through the frame meta.
pub fn write_request_traced(
    w: &mut impl Write,
    req: &Request,
    rid: Option<u64>,
) -> Result<(), WireError> {
    let record = |kind_byte| Record::new(kind_byte, rid);
    match req {
        Request::Ping => record(kind::PING).write(w, &[]),
        Request::GetCapacity => record(kind::GET_CAPACITY).write(w, &[]),
        Request::StoreBlock {
            key,
            name,
            size,
            payload,
        } => record(kind::STORE_BLOCK)
            .id(*key)
            .name(name)
            .size(*size)
            .flag(payload.is_some())
            .write(w, &[payload.as_deref().unwrap_or(&[])]),
        Request::FetchBlock { name } => record(kind::FETCH_BLOCK).name(name).write(w, &[]),
        Request::RemoveBlock { name, size } => record(kind::REMOVE_BLOCK)
            .name(name)
            .size(*size)
            .write(w, &[]),
        Request::Shutdown => record(kind::SHUTDOWN).write(w, &[]),
        Request::GetStats => record(kind::GET_STATS).write(w, &[]),
    }
}

/// Write one `StoreBlock` request frame whose payload is `parts`, one after
/// the other: the bytes [`write_request_traced`] writes for the request that
/// carries them concatenated, written from where they are.
pub fn write_store_block_from(
    w: &mut impl Write,
    key: Id,
    name: &ObjectName,
    size: ByteSize,
    parts: &[&[u8]],
    rid: Option<u64>,
) -> Result<(), WireError> {
    Record::new(kind::STORE_BLOCK, rid)
        .id(key)
        .name(name)
        .size(size)
        .flag(true)
        .write(w, parts)
}

/// Read and parse one request frame, dropping any request id.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    read_request_traced(r).map(|(req, _)| req)
}

/// Read and parse one request frame along with the optional request id the
/// sender threaded through the meta (`None` = untraced).
pub fn read_request_traced(r: &mut impl Read) -> Result<(Request, Option<u64>), WireError> {
    let (kind_byte, meta, payload_len) = read_frame_head(r)?;
    let payload = read_section(r, payload_len)?;
    decode(request_fields(kind_byte)?, &meta, payload)
}

/// The parser of a request kind's fields, or [`WireError::UnknownKind`].
fn request_fields(kind_byte: u8) -> Result<Parse<Request>, WireError> {
    Ok(match kind_byte {
        kind::PING => |_, _| Ok(Request::Ping),
        kind::GET_CAPACITY => |_, _| Ok(Request::GetCapacity),
        kind::STORE_BLOCK => |f, payload| {
            Ok(Request::StoreBlock {
                key: f.id()?,
                name: f.name()?,
                size: f.size()?,
                payload: f.flag()?.then_some(payload),
            })
        },
        kind::FETCH_BLOCK => |f, _| Ok(Request::FetchBlock { name: f.name()? }),
        kind::REMOVE_BLOCK => |f, _| {
            Ok(Request::RemoveBlock {
                name: f.name()?,
                size: f.size()?,
            })
        },
        kind::SHUTDOWN => |_, _| Ok(Request::Shutdown),
        kind::GET_STATS => |_, _| Ok(Request::GetStats),
        other => return Err(WireError::UnknownKind(other)),
    })
}

/// Serialize and write one response frame (untraced).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    write_response_traced(w, resp, None)
}

/// Serialize and write one response frame, echoing the request id of the
/// request it answers.
pub fn write_response_traced(
    w: &mut impl Write,
    resp: &Response,
    rid: Option<u64>,
) -> Result<(), WireError> {
    let record = |kind_byte| Record::new(kind_byte, rid);
    match resp {
        Response::Pong { node } => record(kind::PONG).id(*node).write(w, &[]),
        Response::Capacity { free } => record(kind::CAPACITY).size(*free).write(w, &[]),
        Response::Stored => record(kind::STORED).write(w, &[]),
        Response::Block { block } => {
            let payload = block.as_ref().and_then(|(_, payload)| payload.as_deref());
            record(kind::BLOCK)
                .flag(block.is_some())
                .size(block.as_ref().map_or(ByteSize::ZERO, |(size, _)| *size))
                .flag(payload.is_some())
                .write(w, &[payload.map_or(&[], Vec::as_slice)])
        }
        Response::Removed => record(kind::REMOVED).write(w, &[]),
        Response::ShuttingDown => record(kind::SHUTTING_DOWN).write(w, &[]),
        Response::Stats { stats } => {
            let json = serde_json::to_string(stats.as_ref())
                .map_err(|e| WireError::Body(e.to_string()))?;
            record(kind::STATS).string(&json).write(w, &[])
        }
        Response::Error(e) => record(kind::ERROR).error(e).write(w, &[]),
    }
}

/// Read and parse one response frame, dropping any echoed request id.
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    read_response_traced(r).map(|(resp, _)| resp)
}

/// Read and parse one response frame along with the optional request id the
/// responder echoed (`None` = untraced).
pub fn read_response_traced(r: &mut impl Read) -> Result<(Response, Option<u64>), WireError> {
    let (kind_byte, meta, payload_len) = read_frame_head(r)?;
    let payload = read_section(r, payload_len)?;
    decode(response_fields(kind_byte)?, &meta, payload)
}

/// What [`read_block_reply_into`] found in the reply to a `FetchBlock`.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockReply {
    /// A block with a payload, which now lies in the caller's buffers.
    Landed,
    /// A block whose payload is shorter than the caller's `head`; its bytes
    /// were read off the stream and dropped.
    Short,
    /// Any reply without a block payload — no such block, a size-only block,
    /// an error — parsed whole.
    Other(Response),
}

impl BlockReply {
    /// The parsed reply, when no payload was taken out of it.
    pub fn response(&self) -> Option<&Response> {
        match self {
            BlockReply::Other(resp) => Some(resp),
            BlockReply::Landed | BlockReply::Short => None,
        }
    }
}

/// Read the reply to a `FetchBlock`, and if it is a block with a payload read
/// that straight off the stream into the caller's buffers: the first
/// `head.len()` bytes into `head`, the rest appended to `tail`'s spare
/// capacity (grown if short, never zeroed first).  No reply buffer is
/// allocated.  Any other reply is parsed as [`read_response`] would.
///
/// On every error `tail` keeps the length it had; a stream that ends inside
/// the payload is [`WireError::Truncated`], as for any frame.
pub fn read_block_reply_into(
    r: &mut impl Read,
    head: &mut [u8],
    tail: &mut Vec<u8>,
) -> Result<BlockReply, WireError> {
    let (kind_byte, meta, payload_len) = read_frame_head(r)?;
    if kind_byte == kind::BLOCK {
        let mut fields = Fields(&meta);
        fields.rid()?;
        let (found, _, has_payload) = fields.block()?;
        fields.end()?;
        if found && has_payload {
            let Some(rest) = payload_len.checked_sub(head.len() as u64) else {
                // Consumed all the same: the stream stays frame-aligned.
                read_section(r, payload_len)?;
                return Ok(BlockReply::Short);
            };
            r.read_exact(head)?;
            let prior = tail.len();
            let read = r.take(rest).read_to_end(tail);
            if !matches!(read, Ok(n) if n as u64 == rest) {
                tail.truncate(prior);
                return Err(read.err().map_or(WireError::Truncated, WireError::from));
            }
            return Ok(BlockReply::Landed);
        }
    }
    let payload = read_section(r, payload_len)?;
    let (resp, _rid) = decode(response_fields(kind_byte)?, &meta, payload)?;
    Ok(BlockReply::Other(resp))
}

/// The parser of a response kind's fields, or [`WireError::UnknownKind`].
fn response_fields(kind_byte: u8) -> Result<Parse<Response>, WireError> {
    Ok(match kind_byte {
        kind::PONG => |f, _| Ok(Response::Pong { node: f.id()? }),
        kind::CAPACITY => |f, _| Ok(Response::Capacity { free: f.size()? }),
        kind::STORED => |_, _| Ok(Response::Stored),
        kind::BLOCK => |f, payload| {
            let (found, size, has_payload) = f.block()?;
            Ok(Response::Block {
                block: found.then(|| (size, has_payload.then(|| Arc::new(payload)))),
            })
        },
        kind::REMOVED => |_, _| Ok(Response::Removed),
        kind::SHUTTING_DOWN => |_, _| Ok(Response::ShuttingDown),
        kind::STATS => |f, _| {
            let stats = serde_json::from_str(f.string()?).map(Box::new);
            Ok(Response::Stats {
                stats: stats.map_err(|e| WireError::Body(e.to_string()))?,
            })
        },
        kind::ERROR => |f, _| Ok(Response::Error(f.error()?)),
        other => return Err(WireError::UnknownKind(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_telemetry::{CounterExport, HistogramExport};
    use std::io::Cursor;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut Cursor::new(buf)).unwrap()
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::GetCapacity,
            Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 2, 1),
                size: ByteSize::mb(1),
                payload: Some(vec![1, 2, 3]),
            },
            Request::StoreBlock {
                key: Id::hash("k2"),
                name: ObjectName::chunk("g", 0),
                size: ByteSize::kb(4),
                payload: None,
            },
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
            Request::RemoveBlock {
                name: ObjectName::block("f", 0, 0),
                size: ByteSize::mb(2),
            },
            Request::Shutdown,
            Request::GetStats,
        ];
        for req in reqs {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    fn sample_stats() -> NodeStats {
        let ping = vec![("op".to_string(), "ping".to_string())];
        let metrics = RegistryExport {
            counters: vec![CounterExport {
                name: "node_requests_total".to_string(),
                labels: ping.clone(),
                value: 3,
            }],
            histograms: vec![HistogramExport {
                name: "node_request_latency_ms".to_string(),
                labels: ping,
                count: 1,
                sum: 0.2,
                bounds: vec![1.0, 10.0],
                bucket_counts: vec![1, 0, 0],
            }],
        };
        NodeStats {
            node: Id::hash("node-0"),
            capacity: ByteSize::mb(64),
            used: ByteSize::kb(96),
            objects: 2,
            metrics,
            op_log: vec![
                OpLogEntry {
                    request_id: Some(7),
                    node: None,
                    op: "store_block".to_string(),
                    duration_ms: 0.31,
                    outcome: "ok".to_string(),
                },
                OpLogEntry {
                    request_id: None,
                    node: None,
                    op: "fetch_block".to_string(),
                    duration_ms: 120.5,
                    outcome: "ok".to_string(),
                },
                OpLogEntry {
                    request_id: Some(9),
                    node: None,
                    op: "store_block".to_string(),
                    duration_ms: 0.02,
                    outcome: "insufficient_space".to_string(),
                },
            ],
        }
    }

    #[test]
    fn stats_frames_round_trip() {
        let resp = Response::Stats {
            stats: Box::new(sample_stats()),
        };
        assert_eq!(roundtrip_response(resp.clone()), resp);
        assert_eq!(roundtrip_request(Request::GetStats), Request::GetStats);
    }

    /// A daemon built before the op log named each entry's node sends no
    /// `node`: the entry reads as `None`.  A missing field of any other type
    /// is still refused, so a missing `duration_ms` never becomes NaN.
    #[test]
    fn a_missing_option_field_reads_as_none_and_any_other_is_refused() {
        let mut stats = sample_stats();
        stats.op_log[0].node = Some(3);
        let json = serde_json::to_string(&stats).unwrap();
        let read = |json: &str| {
            let mut frame = Vec::new();
            Record::new(kind::STATS, None)
                .string(json)
                .write(&mut frame, &[])
                .unwrap();
            read_response(&mut frame.as_slice())
        };
        let without_node = json.replacen(r#""request_id":7,"node":3,"#, r#""request_id":7,"#, 1);
        assert_ne!(without_node, json);
        stats.op_log[0].node = None;
        let expected = Response::Stats {
            stats: Box::new(stats),
        };
        assert_eq!(read(&without_node).unwrap(), expected);
        let without_duration = json.replacen(r#""duration_ms":0.31,"#, "", 1);
        assert_ne!(without_duration, json);
        assert!(matches!(read(&without_duration), Err(WireError::Body(_))));
    }

    #[test]
    fn request_ids_round_trip_on_every_kind() {
        let reqs = vec![
            Request::Ping, // field-less: the record is the id prefix alone
            Request::GetStats,
            Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 2, 1),
                size: ByteSize::mb(1),
                payload: Some(vec![1, 2, 3]),
            },
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let rid = 1000 + i as u64;
            let mut buf = Vec::new();
            write_request_traced(&mut buf, &req, Some(rid)).unwrap();
            let (back, got) = read_request_traced(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, req);
            assert_eq!(got, Some(rid));
        }
        let resps = vec![
            Response::Stored,
            Response::Pong {
                node: Id::hash("n"),
            },
            Response::Stats {
                stats: Box::new(sample_stats()),
            },
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let rid = 2000 + i as u64;
            let mut buf = Vec::new();
            write_response_traced(&mut buf, &resp, Some(rid)).unwrap();
            let (back, got) = read_response_traced(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, resp);
            assert_eq!(got, Some(rid));
        }
    }

    #[test]
    fn absent_request_id_reads_as_untraced() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // An untraced field-less frame's record is the one-byte id prefix.
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 1);
        assert_eq!(buf[HEADER_LEN..], [0]);
        let (req, rid) = read_request_traced(&mut Cursor::new(buf)).unwrap();
        assert_eq!(req, Request::Ping);
        assert_eq!(rid, None);

        // A traced frame still parses for an id-oblivious reader.
        let mut traced = Vec::new();
        write_request_traced(
            &mut traced,
            &Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
            Some(42),
        )
        .unwrap();
        assert_eq!(
            read_request(&mut Cursor::new(traced)).unwrap(),
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            }
        );
    }

    #[test]
    fn error_replies_echo_the_request_id() {
        for rid in [Some(7), None] {
            let mut buf = Vec::new();
            let refusal = Response::Error(RemoteError::InsufficientSpace);
            write_response_traced(&mut buf, &refusal, rid).unwrap();
            let (resp, got) = read_response_traced(&mut Cursor::new(buf)).unwrap();
            assert_eq!(resp, refusal);
            assert_eq!(got, rid);
        }
    }

    #[test]
    fn a_bad_flag_tag_or_string_is_a_body_error() {
        let (mut store, mut refusal, mut block) = (Vec::new(), Vec::new(), Vec::new());
        let req = Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::block("f", 2, 1),
            size: ByteSize::kb(1),
            payload: None,
        };
        write_request_traced(&mut store, &req, Some(7)).unwrap();
        let resp = Response::Error(RemoteError::InsufficientSpace);
        write_response(&mut refusal, &resp).unwrap();
        write_response(&mut block, &Response::Block { block: None }).unwrap();
        // (frame, meta offset, byte): the id flag, the has-payload flag, the
        // name tag, the file name's one byte, the error tag, the found flag.
        let edits = [
            (&store, 0, 2),
            (&store, 47, 2),
            (&store, 25, 4),
            (&store, 30, 0xff),
            (&refusal, 1, 3),
            (&block, 1, 2),
        ];
        for (bytes, at, byte) in edits {
            let mut bad = bytes.clone();
            bad[HEADER_LEN + at] = byte;
            let read = match bad[3] {
                kind::STORE_BLOCK => read_request(&mut bad.as_slice()).map(drop),
                _ => read_response(&mut bad.as_slice()).map(drop),
            };
            assert!(
                matches!(read, Err(WireError::Body(_))),
                "meta byte {at} = {byte:#x}: {read:?}"
            );
        }
    }

    /// Lowercase hex of `bytes`, to compare with a literal written with
    /// spaces between its fields.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One frame of every kind, with fixed fields and request id
    /// `0x0807060504030201`, byte for byte.  A change here is a change of
    /// the wire layout: it must come with a new [`VERSION`].
    #[test]
    fn every_kind_writes_the_pinned_v2_layout() {
        const RID: Option<u64> = Some(0x0807_0605_0403_0201);
        let id = Id(0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100);
        let size = ByteSize::kb(1);
        let request = |req: Request| {
            let mut buf = Vec::new();
            write_request_traced(&mut buf, &req, RID).unwrap();
            buf
        };
        let response = |resp: Response| {
            let mut buf = Vec::new();
            write_response_traced(&mut buf, &resp, RID).unwrap();
            buf
        };
        // magic, version, kind, meta length, payload length | request id | fields | payload
        let frames = [
            (
                request(Request::Ping),
                "5350 02 01 09000000 00000000 | 01 0102030405060708",
            ),
            (
                request(Request::GetCapacity),
                "5350 02 02 09000000 00000000 | 01 0102030405060708",
            ),
            (
                request(Request::StoreBlock {
                    key: id,
                    name: ObjectName::block("f", 2, 1),
                    size,
                    payload: Some(vec![0xaa, 0xbb]),
                }),
                "5350 02 03 30000000 02000000 | 01 0102030405060708 \
                 | 000102030405060708090a0b0c0d0e0f 01 01000000 66 02000000 01000000 \
                 0004000000000000 01 | aabb",
            ),
            (
                request(Request::FetchBlock {
                    name: ObjectName::chunk("f", 3),
                }),
                "5350 02 04 13000000 00000000 | 01 0102030405060708 | 00 01000000 66 03000000",
            ),
            (
                request(Request::FetchBlock {
                    name: ObjectName::whole_file("f", 4),
                }),
                "5350 02 04 13000000 00000000 | 01 0102030405060708 | 03 01000000 66 04000000",
            ),
            (
                request(Request::RemoveBlock {
                    name: ObjectName::cat("f"),
                    size,
                }),
                "5350 02 06 17000000 00000000 | 01 0102030405060708 \
                 | 02 01000000 66 0004000000000000",
            ),
            (
                request(Request::Shutdown),
                "5350 02 07 09000000 00000000 | 01 0102030405060708",
            ),
            (
                request(Request::GetStats),
                "5350 02 08 09000000 00000000 | 01 0102030405060708",
            ),
            (
                response(Response::Pong { node: id }),
                "5350 02 81 19000000 00000000 | 01 0102030405060708 \
                 | 000102030405060708090a0b0c0d0e0f",
            ),
            (
                response(Response::Capacity { free: size }),
                "5350 02 82 11000000 00000000 | 01 0102030405060708 | 0004000000000000",
            ),
            (
                response(Response::Stored),
                "5350 02 83 09000000 00000000 | 01 0102030405060708",
            ),
            (
                response(Response::Block {
                    block: Some((size, Some(Arc::new(vec![0xaa, 0xbb])))),
                }),
                "5350 02 84 13000000 02000000 | 01 0102030405060708 \
                 | 01 0004000000000000 01 | aabb",
            ),
            (
                response(Response::Block { block: None }),
                "5350 02 84 13000000 00000000 | 01 0102030405060708 | 00 0000000000000000 00",
            ),
            (
                response(Response::Removed),
                "5350 02 86 09000000 00000000 | 01 0102030405060708",
            ),
            (
                response(Response::ShuttingDown),
                "5350 02 87 09000000 00000000 | 01 0102030405060708",
            ),
            (
                response(Response::Error(RemoteError::InsufficientSpace)),
                "5350 02 ff 0a000000 00000000 | 01 0102030405060708 | 00",
            ),
            (
                response(Response::Error(RemoteError::BadRequest {
                    detail: "no".to_string(),
                })),
                "5350 02 ff 10000000 00000000 | 01 0102030405060708 | 02 02000000 6e6f",
            ),
        ];
        for (frame, expected) in frames {
            let expected: String = expected.chars().filter(char::is_ascii_hexdigit).collect();
            assert_eq!(hex(&frame), expected);
        }

        // `Stats`: the same prefix, then its JSON as a string.
        let stats = sample_stats();
        let json = serde_json::to_string(&stats).unwrap();
        let frame = response(Response::Stats {
            stats: Box::new(stats),
        });
        let (head, text) = frame.split_at(HEADER_LEN + 9 + 4);
        let meta_len = (9 + 4 + json.len()) as u32;
        let expected = format!(
            "53500288{}00000000010102030405060708{}",
            hex(&meta_len.to_le_bytes()),
            hex(&(json.len() as u32).to_le_bytes())
        );
        assert_eq!(hex(head), expected);
        assert_eq!(text, json.as_bytes());
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong {
                node: Id::hash("n"),
            },
            Response::Capacity {
                free: ByteSize::gb(3),
            },
            Response::Stored,
            Response::Block { block: None },
            Response::Block {
                block: Some((ByteSize::mb(1), Some(Arc::new(vec![9, 8, 7])))),
            },
            Response::Block {
                block: Some((ByteSize::mb(1), None)),
            },
            Response::Removed,
            Response::ShuttingDown,
            Response::Error(RemoteError::InsufficientSpace),
            Response::Error(RemoteError::AlreadyStored),
            Response::Error(RemoteError::BadRequest {
                detail: "nope".to_string(),
            }),
        ];
        for resp in resps {
            assert_eq!(roundtrip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn block_replies_land_in_the_callers_buffers_or_parse_whole() {
        let payload: Vec<u8> = (0..200u8).collect();
        let with_payload = Response::Block {
            block: Some((ByteSize::mb(1), Some(Arc::new(payload.clone())))),
        };
        let mut frame = Vec::new();
        write_response_traced(&mut frame, &with_payload, Some(7)).unwrap();
        // Two replies back to back: the reader stops at the frame's end.
        let mut stream = frame.repeat(2);
        write_response(&mut stream, &Response::Stored).unwrap();

        // The head is split off, the rest appended behind what `tail` holds.
        let mut r = stream.as_slice();
        let (mut head, mut tail) = ([0u8; 12], vec![0xEE]);
        let reply = read_block_reply_into(&mut r, &mut head, &mut tail).unwrap();
        assert_eq!(reply, BlockReply::Landed);
        assert_eq!(head[..], payload[..12]);
        assert_eq!((tail[0], &tail[1..]), (0xEE, &payload[12..]));
        // A payload shorter than the head is read past, landing nothing.
        let mut long_head = [0u8; 201];
        let reply = read_block_reply_into(&mut r, &mut long_head, &mut tail).unwrap();
        assert_eq!(reply, BlockReply::Short);
        assert_eq!(tail.len(), 1 + 188);
        assert_eq!(read_response(&mut r).unwrap(), Response::Stored);
        assert!(r.is_empty());

        // Replies without a block payload come back parsed.
        for resp in [
            Response::Block { block: None },
            Response::Block {
                block: Some((ByteSize::mb(1), None)),
            },
            Response::Error(RemoteError::BadRequest {
                detail: "nope".to_string(),
            }),
        ] {
            let mut bytes = Vec::new();
            write_response(&mut bytes, &resp).unwrap();
            let reply = read_block_reply_into(&mut bytes.as_slice(), &mut head, &mut tail);
            assert_eq!(reply.unwrap(), BlockReply::Other(resp));
            assert_eq!(tail.len(), 1 + 188);
        }

        // Cut anywhere, the frame is a transport error and `tail` is as long
        // as it was — also when part of the payload had already landed.
        for cut in 0..frame.len() {
            let err = read_block_reply_into(&mut &frame[..cut], &mut head, &mut tail).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "cut at {cut}: {err:?}");
            assert_eq!(tail.len(), 1 + 188, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_is_rejected_before_the_body() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[0] = 0x00;
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[2] = VERSION + 1;
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::Version(v)) => assert_eq!(v, VERSION + 1),
            other => panic!("expected Version, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // Declare a payload far past MAX_FRAME; no such bytes follow.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::Oversized(n)) => assert!(n > MAX_FRAME),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 0, 0),
                size: ByteSize::mb(1),
                payload: Some(vec![0; 64]),
            },
        )
        .unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, buf.len() - 1] {
            match read_request(&mut Cursor::new(&buf[..cut])) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[3] = 0x70;
        match read_request(&mut Cursor::new(buf.clone())) {
            Err(WireError::UnknownKind(0x70)) => {}
            other => panic!("expected UnknownKind, got {other:?}"),
        }
        // A response kind is unknown to the request reader and vice versa.
        let mut pong = Vec::new();
        write_response(
            &mut pong,
            &Response::Pong {
                node: Id::hash("n"),
            },
        )
        .unwrap();
        assert!(matches!(
            read_request(&mut Cursor::new(pong)),
            Err(WireError::UnknownKind(k)) if k == kind::PONG
        ));
    }

    #[test]
    fn oversized_writes_are_refused() {
        let req = Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::block("f", 0, 0),
            size: ByteSize::mb(32),
            payload: Some(vec![0u8; MAX_FRAME as usize + 1]),
        };
        let mut buf = Vec::new();
        assert!(matches!(
            write_request(&mut buf, &req),
            Err(WireError::Oversized(_))
        ));
    }
}
