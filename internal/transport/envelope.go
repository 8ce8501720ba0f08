package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Wire envelope. Every message on a TCP connection is one frame:
//
//	version(1) | uvarint bodyLen | body | crc32(body), little-endian
//
// mirroring the record framing of internal/wire and the WAL. The body is
//
//	kind(1) | uvarint seq | payload
//
// where seq matches a response to its in-flight call (connections are
// multiplexed: many calls share one socket and responses may return out of
// order). Payloads by kind:
//
//	frameCall: uvarint fromLen | from | type-tagged request  (codec.go)
//	frameResp: type-tagged response
//	frameErr:  flags(1, bit 0 = transient) | uvarint msgLen | msg
//
// A frame longer than MaxFrameSize is rejected before its body is read, so
// a hostile peer cannot make a node allocate unbounded memory by declaring
// an absurd length.

const (
	// envelopeVersion is the wire protocol version, the first byte of every
	// frame. A mismatch fails the connection immediately: refusing loudly
	// beats misparsing quietly. The value codec is structural — a struct is
	// its fields in order, with no names or count — so a message that gains
	// a field decodes wrongly, not with an error, at a peer that does not
	// know the field. Version 2 is the first with the Direct mark on the
	// store-plane requests (internal/overlay) and the declined response. A
	// new message type needs no new version: a peer that does not know the
	// type's name refuses the value with an error (codec.go).
	envelopeVersion = 2

	// MaxFrameSize bounds one frame's declared body length (16 MiB). The
	// largest legitimate payloads — handoff maps during a join — stay far
	// below this; anything bigger is hostile or corrupt.
	MaxFrameSize = 16 << 20

	frameCall = 1
	frameResp = 2
	frameErr  = 3

	errFlagTemporary = 1
)

// errBadFrame tags malformed-envelope failures (bad version, CRC mismatch,
// oversized or truncated frames) so the connection layer can distinguish
// protocol damage from ordinary I/O errors.
var errBadFrame = errors.New("transport: bad frame")

// appendFrame appends one encoded frame carrying payload to buf. The frame
// is built in place: its length is known up front, so the header is written
// first and the checksum is taken over the body where it lies.
func appendFrame(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	var seqBuf [binary.MaxVarintLen64]byte
	seqLen := binary.PutUvarint(seqBuf[:], seq)
	bodyLen := 1 + seqLen + len(payload)
	buf = slices.Grow(buf, 1+binary.MaxVarintLen64+bodyLen+4)
	buf = append(buf, envelopeVersion)
	buf = binary.AppendUvarint(buf, uint64(bodyLen))
	body := len(buf)
	buf = append(buf, kind)
	buf = append(buf, seqBuf[:seqLen]...)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
}

// frameHeaderRoom is what openFrame leaves in front of a body whose length
// is not known yet: the version byte and the longest length prefix.
const frameHeaderRoom = 1 + binary.MaxVarintLen64

// openFrame starts a frame whose payload the caller encodes straight into
// buf after it returns (a request, a response: codec output has no length
// until it is done). It must be handed an empty buffer; closeFrame finishes
// the frame.
func openFrame(buf []byte, kind byte, seq uint64) []byte {
	var room [frameHeaderRoom]byte
	buf = append(buf[:0], room[:]...)
	buf = append(buf, kind)
	return binary.AppendUvarint(buf, seq)
}

// closeFrame seals a frame begun by openFrame: the checksum is appended and
// the header written right-aligned against the body, so the payload is never
// moved. It returns the grown buffer (for reuse) and the frame, a sub-slice
// of it that starts wherever the header turned out to begin.
func closeFrame(buf []byte) (grown, frame []byte) {
	body := buf[frameHeaderRoom:]
	var hdr [frameHeaderRoom]byte
	hdr[0] = envelopeVersion
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	start := frameHeaderRoom - n
	copy(buf[start:], hdr[:n])
	return buf, buf[start:]
}

// Frame buffers are pooled: a frame's life ends when its Write returns (the
// goroutine that built it wrote it), so the buffer goes straight back. Only
// ordinary ones do. A sync.Pool keeps what it holds across one collection,
// and a join's hand-off frames run to megabytes: pooled, they would sit in
// every process's live heap long after the join.
const maxPooledFrame = 16 << 10

var framePool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1024)
	return &buf
}}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledFrame {
		framePool.Put(buf)
	}
}

// decodeFrame parses one frame from data, returning the frame and the
// remaining bytes. It performs every validation readFrame does, on an
// in-memory buffer — the fuzz target.
func decodeFrame(data []byte) (kind byte, seq uint64, payload []byte, rest []byte, err error) {
	if len(data) < 1 {
		return 0, 0, nil, nil, fmt.Errorf("%w: empty", errBadFrame)
	}
	if data[0] != envelopeVersion {
		return 0, 0, nil, nil, fmt.Errorf("%w: version %d", errBadFrame, data[0])
	}
	n, w := binary.Uvarint(data[1:])
	if w <= 0 {
		return 0, 0, nil, nil, fmt.Errorf("%w: truncated length", errBadFrame)
	}
	if n > MaxFrameSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: length %d exceeds limit %d", errBadFrame, n, MaxFrameSize)
	}
	rest = data[1+w:]
	if uint64(len(rest)) < n+4 {
		return 0, 0, nil, nil, fmt.Errorf("%w: truncated body", errBadFrame)
	}
	body := rest[:n]
	sum := binary.LittleEndian.Uint32(rest[n : n+4])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, 0, nil, nil, fmt.Errorf("%w: crc mismatch", errBadFrame)
	}
	kind, seq, payload, err = splitBody(body)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	return kind, seq, payload, rest[n+4:], nil
}

func splitBody(body []byte) (kind byte, seq uint64, payload []byte, err error) {
	if len(body) < 1 {
		return 0, 0, nil, fmt.Errorf("%w: empty body", errBadFrame)
	}
	kind = body[0]
	switch kind {
	case frameCall, frameResp, frameErr:
	default:
		return 0, 0, nil, fmt.Errorf("%w: unknown kind %d", errBadFrame, kind)
	}
	seq, w := binary.Uvarint(body[1:])
	if w <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: truncated seq", errBadFrame)
	}
	return kind, seq, body[1+w:], nil
}

// readFrame reads one frame from a buffered connection stream, enforcing
// the size guard before the body is allocated. The body is read into
// scratch, grown if need be and returned for the next call: the payload is
// a view into it, valid until then. A connection's read loop decodes each
// payload before it reads on, and nothing decoded aliases the payload, so
// one buffer serves the connection — except one that a rare large frame grew
// past maxPooledFrame, which is not handed back: an idle connection would
// hold it for as long as it stays open.
func readFrame(br *bufio.Reader, scratch []byte) (kind byte, seq uint64, payload, grown []byte, err error) {
	ver, err := br.ReadByte()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if ver != envelopeVersion {
		return 0, 0, nil, nil, fmt.Errorf("%w: version %d", errBadFrame, ver)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("%w: length: %v", errBadFrame, err)
	}
	if n > MaxFrameSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: length %d exceeds limit %d", errBadFrame, n, MaxFrameSize)
	}
	scratch = slices.Grow(scratch[:0], int(n)+4)
	buf := scratch[:n+4]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, 0, nil, nil, fmt.Errorf("%w: body: %v", errBadFrame, err)
	}
	body := buf[:n]
	sum := binary.LittleEndian.Uint32(buf[n:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, 0, nil, nil, fmt.Errorf("%w: crc mismatch", errBadFrame)
	}
	kind, seq, payload, err = splitBody(body)
	if cap(scratch) > maxPooledFrame {
		scratch = nil // the payload keeps it alive until it is decoded, and no longer
	}
	return kind, seq, payload, scratch, err
}

// appendCallPayload appends a frameCall payload: the caller's identity
// followed by the type-tagged request.
func appendCallPayload(buf []byte, from NodeID, req any) ([]byte, error) {
	return appendAny(appendString(buf, string(from)), req)
}

// decodeCallPayload parses a frameCall payload. lastFrom is the identity the
// connection's previous call carried: nearly always this one's too, and then
// the same string serves instead of a fresh copy per call.
func decodeCallPayload(payload []byte, lastFrom NodeID) (from NodeID, req any, err error) {
	raw, rest, err := consumeRaw(payload, "caller")
	if err != nil {
		return "", nil, err
	}
	v, rest, err := consumeAny(rest)
	if err != nil {
		return "", nil, err
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes in call", errBadFrame, len(rest))
	}
	if from = lastFrom; string(raw) != string(from) {
		from = NodeID(raw)
	}
	return from, v, nil
}

// encodeErrPayload builds a frameErr payload, preserving the Temporary()
// classification so the caller's retry layer sees the same transience the
// remote handler reported.
func encodeErrPayload(callErr error) []byte {
	var flags byte
	var tmp interface{ Temporary() bool }
	if errors.As(callErr, &tmp) && tmp.Temporary() {
		flags |= errFlagTemporary
	}
	buf := []byte{flags}
	return appendString(buf, callErr.Error())
}

// decodeErrPayload reconstructs a remote handler error.
func decodeErrPayload(payload []byte) (error, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: empty error payload", errBadFrame)
	}
	flags := payload[0]
	msg, rest, err := consumeString(payload[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in error", errBadFrame, len(rest))
	}
	if flags&errFlagTemporary != 0 {
		return &temporaryError{msg: msg}, nil
	}
	return errors.New(msg), nil
}
