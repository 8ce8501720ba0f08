package dht

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file implements the durable bucket store behind Local: a write-ahead
// log plus snapshot, so a crashed node recovers exactly the entries it
// journaled instead of silently resurrecting (or losing) its in-memory map.
//
// On disk a store is a directory with two files:
//
//	snapshot.bin — the full key/value state as of the last compaction
//	wal.log      — records appended since that snapshot
//
// Both files share one record framing:
//
//	uvarint bodyLen | body | crc32(body), little-endian
//	body = op byte | uvarint keyLen | key | payload
//
// and the log holds three kinds of record:
//
//	'P' put     payload = the value, encoded by the injected Codec
//	'D' delete  no payload
//	'A' append  payload = what the put added to the value it replaced, in the
//	            Codec's own delta encoding (DeltaCodec)
//
// A caller journals puts and deletes; Append writes the third kind by itself,
// for a put that names the value it replaces when the codec can show the new
// value is that one extended — an insert then costs the log its record, not
// its bucket. Every other put, and every codec without deltas, journals the
// whole value. A snapshot holds puts only.
//
// Value payloads are opaque bytes produced by the Codec — in production the
// fuzz-hardened wire.BucketCodec (declared structurally here because wire
// imports dht, so dht cannot import wire). Recovery replays the snapshot
// strictly (it was published by atomic rename, so damage means the directory
// is not ours) and the log tolerantly: a torn or corrupt tail — the signature
// of dying mid-append — is truncated at the last intact record, and replay
// proceeds with everything before it. An intact append record that does not
// fit the value replay holds for its key is neither: it fails Restore with
// ErrWALInconsistent, because skipping it would lose the records after it.
//
// An append record is not idempotent, so replay must never meet one the
// snapshot already contains. Each compaction therefore starts a generation:
// snapshot and log both open with a generation frame (body = 'G' | uvarint
// generation; generation 0 — a store never compacted, or one written before
// generations existed — has none). Compact publishes the snapshot of
// generation g+1 by atomic rename and only then resets the log to g+1; a
// crash between the two leaves a log older than its snapshot, which Restore
// recognises and discards — everything in it is in the snapshot.
//
// Compaction is due when the log has grown to the size of the snapshot it
// extends (and holds at least CompactThreshold records): rewriting the
// snapshot then costs what the log it retires cost, however small the
// records, so the store writes each journaled byte a bounded number of times.

// Codec encodes the values a durable Local journals. It is structurally
// identical to wire.Codec so wire.BucketCodec satisfies it without dht
// importing wire (wire already imports dht).
type Codec interface {
	Marshal(v any) ([]byte, error)
	Unmarshal(data []byte) (any, error)
}

// DeltaCodec is the optional interface of a Codec whose values grow by
// appending, so that the journal can record what a put added instead of what
// it produced. wire.BucketCodec implements it.
type DeltaCodec interface {
	// AppendDelta reports whether next is prev — the value it replaces —
	// extended, and if so appends to buf an encoding of the extension:
	// nothing at all when next equals prev.
	AppendDelta(buf []byte, prev, next any) ([]byte, bool)
	// ApplyDelta returns base extended by an encoding AppendDelta produced
	// against a value equal to base, and an error for anything else.
	ApplyDelta(base any, delta []byte) (any, error)
}

// ErrWALInconsistent reports journal files that do not describe one history:
// an intact append record whose base replay does not hold, or a log of a
// later generation than the snapshot beside it.
var ErrWALInconsistent = errors.New("dht: wal inconsistent")

// WALOp tags a journaled mutation.
type WALOp byte

const (
	// WALPut records a value stored under a key.
	WALPut WALOp = 'P'
	// WALRemove records a key's deletion.
	WALRemove WALOp = 'D'
	// walAppend is how Append journals a put that extended its Prev; replay
	// hands its payload to the DeltaCodec.
	walAppend WALOp = 'A'
	// walGeneration opens a file of generation 1 or later.
	walGeneration WALOp = 'G'
)

// WALRecord is one journaled mutation. Value is nil for WALRemove.
type WALRecord struct {
	Op    WALOp
	Key   Key
	Value any
	// Prev is the value a put replaces, when the caller holds it; nil when
	// there was none or it is not known. It lets the journal record only
	// what the put added (see DeltaCodec).
	Prev any
	// unchanged is set by Append on a put whose Value the codec shows equal
	// to its Prev: nothing was journaled for it, and nothing need be stored.
	unchanged bool
}

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Dir is the store directory; it is created if absent.
	Dir string
	// Codec encodes values. Required.
	Codec Codec
	// CompactThreshold is the least number of log records at which
	// ShouldCompact reports true. Default 4096; negative disables
	// compaction hints.
	CompactThreshold int
	// SyncEveryAppend forces an fsync after every Append. Off by default:
	// the simulator's crashes wipe process memory, not the kernel's page
	// cache, so tests and experiments run at memory speed; deployments
	// that fear power loss turn it on (BenchmarkWALAppend measures both).
	SyncEveryAppend bool
}

// ReplayInfo summarises what Restore recovered.
type ReplayInfo struct {
	// SnapshotRecords is the number of entries loaded from the snapshot.
	SnapshotRecords int
	// LogRecords is the number of log records replayed on top.
	LogRecords int
	// TornTail reports that the log ended in a torn or corrupt record,
	// which was discarded and truncated away.
	TornTail bool
	// StaleLog reports that the log was of an earlier generation than the
	// snapshot — the store died between publishing that snapshot and
	// resetting the log — and was discarded: the snapshot holds all of it.
	StaleLog bool
}

// WAL is the append-only journal + snapshot pair behind a durable Local.
// It is safe for concurrent use.
type WAL struct {
	mu        sync.Mutex
	dir       string
	codec     Codec
	delta     DeltaCodec // codec, when it can journal extensions; else nil
	log       *os.File
	gen       uint64 // generation of the log, and of the snapshot it extends
	appended  int    // log records since the last compaction
	logBytes  int64  // log bytes since the last compaction
	snapBytes int64  // size of the snapshot the log extends
	threshold int
	syncEvery bool
	replay    ReplayInfo
	// scratch is the buffer frames are built in, kept between calls unless
	// one grew it past maxScratch.
	scratch []byte
}

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.bin"
	// maxScratch bounds the frame buffer a WAL keeps: steady-state appends
	// fit with room to spare, and a bulk load's multi-megabyte group commit
	// is not held for the life of the store.
	maxScratch = 64 << 10
)

// OpenWAL opens (creating if needed) the durable store in opts.Dir.
func OpenWAL(opts WALOptions) (*WAL, error) {
	if opts.Codec == nil {
		return nil, errors.New("dht: OpenWAL requires a Codec")
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = 4096
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dht: wal dir: %w", err)
	}
	// O_APPEND: every write lands at the end of the log wherever Restore
	// last read, with no seek before it.
	f, err := os.OpenFile(filepath.Join(opts.Dir, walFileName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dht: wal log: %w", err)
	}
	delta, _ := opts.Codec.(DeltaCodec)
	return &WAL{
		dir:       opts.Dir,
		codec:     opts.Codec,
		delta:     delta,
		log:       f,
		threshold: opts.CompactThreshold,
		syncEvery: opts.SyncEveryAppend,
	}, nil
}

// beginFrame reserves room in buf for a frame's length prefix and returns the
// offset to hand endFrame once the body has been appended.
func beginFrame(buf []byte) ([]byte, int) {
	var gap [binary.MaxVarintLen64]byte
	return append(buf, gap[:]...), len(buf)
}

// endFrame completes the frame begun at start: the body's length goes in
// front of it (the body moves down over what the prefix did not need) and
// its checksum behind.
func endFrame(buf []byte, start int) []byte {
	body := buf[start+binary.MaxVarintLen64:]
	n := binary.PutUvarint(buf[start:], uint64(len(body)))
	end := start + n + copy(buf[start+n:], body)
	return binary.LittleEndian.AppendUint32(buf[:end], crc32.ChecksumIEEE(buf[start+n:end]))
}

// appendGeneration appends the frame that opens a file of generation gen.
func appendGeneration(buf []byte, gen uint64) []byte {
	buf, start := beginFrame(buf)
	buf = append(buf, byte(walGeneration))
	return endFrame(binary.AppendUvarint(buf, gen), start)
}

// appendRecord appends the framed bytes for one record. A put that extends
// its Prev is framed as an append record, and one that equals it as nothing:
// written reports whether buf grew.
func (w *WAL) appendRecord(buf []byte, rec *WALRecord) (out []byte, written bool, err error) {
	buf, start := beginFrame(buf)
	buf = append(buf, byte(rec.Op))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(buf, rec.Key...)
	switch rec.Op {
	case WALRemove:
	case WALPut:
		if w.delta != nil && rec.Prev != nil {
			payload := len(buf)
			var extends bool
			if buf, extends = w.delta.AppendDelta(buf, rec.Prev, rec.Value); extends {
				if len(buf) == payload {
					return buf[:start], false, nil
				}
				buf[start+binary.MaxVarintLen64] = byte(walAppend)
				return endFrame(buf, start), true, nil
			}
			buf = buf[:payload]
		}
		val, err := w.codec.Marshal(rec.Value)
		if err != nil {
			return nil, false, fmt.Errorf("dht: wal encode %q: %w", rec.Key, err)
		}
		buf = append(buf, val...)
	default:
		return nil, false, fmt.Errorf("dht: wal cannot journal op %q", byte(rec.Op))
	}
	return endFrame(buf, start), true, nil
}

// Append journals a group of records with a single write (group commit):
// either callers see all of them on replay or, if the process dies mid-
// write, the torn tail is discarded as a unit boundary at worst one frame
// deep. A put whose Value equals its Prev changes nothing and is not
// journaled. Append returns after the OS accepts the bytes; call Sync (or
// set SyncEveryAppend) to force them to stable storage.
func (w *WAL) Append(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return errors.New("dht: wal closed")
	}
	buf, written := w.scratch[:0], 0
	for i := range recs {
		rec := &recs[i]
		var framed bool
		var err error
		if buf, framed, err = w.appendRecord(buf, rec); err != nil {
			return err
		}
		if rec.unchanged = !framed; framed {
			written++
		}
	}
	if cap(buf) <= maxScratch {
		w.scratch = buf
	}
	if written == 0 {
		return nil
	}
	return w.writeLocked(buf, written)
}

// writeLocked appends buf, holding records frames, to the log.
func (w *WAL) writeLocked(buf []byte, records int) error {
	if _, err := w.log.Write(buf); err != nil {
		return fmt.Errorf("dht: wal append: %w", err)
	}
	w.appended += records
	w.logBytes += int64(len(buf))
	if w.syncEvery {
		if err := w.log.Sync(); err != nil {
			return fmt.Errorf("dht: wal sync: %w", err)
		}
	}
	return nil
}

// Sync forces journaled records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return errors.New("dht: wal closed")
	}
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("dht: wal sync: %w", err)
	}
	return nil
}

// nextFrame parses the frame at the head of data and verifies its checksum,
// returning the body and the frame's size.
func nextFrame(data []byte) (body []byte, size int, err error) {
	bodyLen, n := binary.Uvarint(data)
	if n <= 0 || bodyLen > uint64(len(data)-n) {
		return nil, 0, errors.New("header malformed")
	}
	end := n + int(bodyLen)
	if end+4 > len(data) {
		return nil, 0, errors.New("truncated")
	}
	body = data[n:end]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, 0, errors.New("checksum mismatch")
	}
	return body, end + 4, nil
}

// readGeneration returns the generation data opens with and the size of the
// frame that says so: 0 and 0 when data does not start with an intact
// generation frame (a file of generation 0 has none).
func readGeneration(data []byte) (gen uint64, size int) {
	body, size, err := nextFrame(data)
	if err != nil || len(body) < 2 || WALOp(body[0]) != walGeneration {
		return 0, 0
	}
	gen, n := binary.Uvarint(body[1:])
	if n <= 0 || 1+n != len(body) {
		return 0, 0
	}
	return gen, size
}

// readRecords decodes framed records from data into state. A malformed frame
// is an error when strict; otherwise decoding stops there (torn tail) and
// returns its offset with torn=true. An intact record that cannot be applied
// is an error either way.
func (w *WAL) readRecords(data []byte, strict bool, state map[Key]any) (records, goodEnd int, torn bool, err error) {
	off := 0
	for off < len(data) {
		body, size, frameErr := nextFrame(data[off:])
		var rec WALRecord
		if frameErr == nil {
			rec, frameErr = w.decodeBody(body)
		}
		if frameErr != nil {
			if strict {
				return records, off, false, fmt.Errorf("dht: wal frame at %d: %w", off, frameErr)
			}
			return records, off, true, nil
		}
		if strict && rec.Op != WALPut {
			return records, off, false, fmt.Errorf("dht: wal frame at %d: op %q in a snapshot", off, byte(rec.Op))
		}
		if err := w.applyRecord(state, rec); err != nil {
			return records, off, false, err
		}
		records++
		off += size
	}
	return records, off, false, nil
}

// decodeBody parses one checksummed record body. An append record comes back
// with its undecoded payload as the Value.
func (w *WAL) decodeBody(body []byte) (WALRecord, error) {
	if len(body) < 1 {
		return WALRecord{}, errors.New("dht: wal record empty")
	}
	op := WALOp(body[0])
	if op != WALPut && op != WALRemove && op != walAppend {
		return WALRecord{}, fmt.Errorf("dht: wal record op %q unknown", body[0])
	}
	keyLen, n := binary.Uvarint(body[1:])
	if n <= 0 || keyLen > uint64(len(body)-1-n) {
		return WALRecord{}, errors.New("dht: wal record key length malformed")
	}
	keyStart := 1 + n
	keyEnd := keyStart + int(keyLen)
	rec := WALRecord{Op: op, Key: Key(body[keyStart:keyEnd])}
	switch op {
	case WALPut:
		v, err := w.codec.Unmarshal(body[keyEnd:])
		if err != nil {
			return WALRecord{}, fmt.Errorf("dht: wal record value: %w", err)
		}
		rec.Value = v
	case walAppend:
		rec.Value = body[keyEnd:]
	default:
		if keyEnd != len(body) {
			return WALRecord{}, errors.New("dht: wal delete record has trailing bytes")
		}
	}
	return rec, nil
}

// applyRecord folds one decoded record into state.
func (w *WAL) applyRecord(state map[Key]any, rec WALRecord) error {
	switch rec.Op {
	case WALPut:
		state[rec.Key] = rec.Value
	case WALRemove:
		delete(state, rec.Key)
	case walAppend:
		base, ok := state[rec.Key]
		if !ok {
			return fmt.Errorf("%w: append record for absent key %q", ErrWALInconsistent, rec.Key)
		}
		if w.delta == nil {
			return fmt.Errorf("%w: append record for %q, and a codec (%T) without deltas", ErrWALInconsistent, rec.Key, w.codec)
		}
		next, err := w.delta.ApplyDelta(base, rec.Value.([]byte))
		if err != nil {
			return fmt.Errorf("%w: append record for %q: %w", ErrWALInconsistent, rec.Key, err)
		}
		state[rec.Key] = next
	}
	return nil
}

// Restore rebuilds the journaled state: snapshot entries first (strict — a
// snapshot is published atomically, so damage is refused, not repaired),
// then the log replayed on top, with a torn or corrupt tail truncated away
// so subsequent Appends extend the last intact record. A log of an earlier
// generation than the snapshot is discarded unread.
func (w *WAL) Restore() (map[Key]any, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil, errors.New("dht: wal closed")
	}
	state := make(map[Key]any)
	info := ReplayInfo{}
	snap, err := os.ReadFile(filepath.Join(w.dir, snapshotFileName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("dht: wal snapshot read: %w", err)
	}
	snapGen, n := readGeneration(snap)
	if info.SnapshotRecords, _, _, err = w.readRecords(snap[n:], true, state); err != nil {
		return nil, fmt.Errorf("dht: wal snapshot corrupt: %w", err)
	}
	if _, err := w.log.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("dht: wal seek: %w", err)
	}
	data, err := io.ReadAll(w.log)
	if err != nil {
		return nil, fmt.Errorf("dht: wal read: %w", err)
	}
	logGen, n := readGeneration(data)
	if logGen > snapGen {
		return nil, fmt.Errorf("%w: log of generation %d beside a snapshot of generation %d", ErrWALInconsistent, logGen, snapGen)
	}
	w.gen, w.snapBytes = snapGen, int64(len(snap))
	if info.StaleLog = logGen < snapGen; info.StaleLog {
		if err := w.resetLogLocked(); err != nil {
			return nil, err
		}
	} else {
		records, goodEnd, torn, err := w.readRecords(data[n:], false, state)
		if err != nil {
			return nil, err
		}
		goodEnd += n
		if torn {
			if err := w.log.Truncate(int64(goodEnd)); err != nil {
				return nil, fmt.Errorf("dht: wal truncate torn tail: %w", err)
			}
		}
		info.LogRecords, info.TornTail = records, torn
		w.appended, w.logBytes = records, int64(goodEnd)
	}
	w.replay = info
	return state, nil
}

// resetLogLocked empties the log and opens it at the WAL's generation. A log
// that cannot be reset is closed: appends to one of an earlier generation
// than the snapshot would be discarded by the next Restore.
func (w *WAL) resetLogLocked() error {
	w.appended, w.logBytes = 0, 0
	err := w.log.Truncate(0)
	if err == nil && w.gen > 0 {
		err = w.writeLocked(appendGeneration(nil, w.gen), 0)
	}
	if err != nil {
		w.log.Close() //lint:allow droppederr the reset error already reports the failure
		w.log = nil
		return fmt.Errorf("dht: wal log reset: %w", err)
	}
	return nil
}

// LastReplay reports what the most recent Restore recovered.
func (w *WAL) LastReplay() ReplayInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replay
}

// ShouldCompact reports whether the log has grown to the size of the
// snapshot it extends, and to at least the compaction threshold in records.
func (w *WAL) ShouldCompact() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.threshold > 0 && w.appended >= w.threshold && w.logBytes >= w.snapBytes
}

// Compact publishes state as the snapshot of the next generation (streamed
// to a temp file, fsynced, renamed into place) and resets the log to that
// generation. The caller supplies the full live state; a durable Local calls
// this under its own store lock so the snapshot is a consistent cut.
func (w *WAL) Compact(state map[Key]any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return errors.New("dht: wal closed")
	}
	tmp := filepath.Join(w.dir, snapshotFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("dht: wal snapshot tmp: %w", err)
	}
	size, err := w.writeSnapshot(f, w.gen+1, state)
	if err != nil {
		f.Close() //lint:allow droppederr the write error already reports the failure
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dht: wal snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotFileName)); err != nil {
		return fmt.Errorf("dht: wal snapshot publish: %w", err)
	}
	w.gen, w.snapBytes = w.gen+1, size
	return w.resetLogLocked()
}

// writeSnapshot streams the snapshot of generation gen to f, one frame at a
// time through the scratch buffer, and fsyncs it; size is what it wrote.
func (w *WAL) writeSnapshot(f *os.File, gen uint64, state map[Key]any) (size int64, err error) {
	out := bufio.NewWriterSize(f, maxScratch)
	write := func(frame []byte) error {
		n, err := out.Write(frame)
		size += int64(n)
		if err != nil {
			return fmt.Errorf("dht: wal snapshot write: %w", err)
		}
		return nil
	}
	frame := appendGeneration(w.scratch[:0], gen)
	if err := write(frame); err != nil {
		return 0, err
	}
	for k, v := range state {
		if frame, _, err = w.appendRecord(frame[:0], &WALRecord{Op: WALPut, Key: k, Value: v}); err != nil {
			return 0, err
		}
		if err := write(frame); err != nil {
			return 0, err
		}
	}
	if cap(frame) <= maxScratch {
		w.scratch = frame
	}
	if err := out.Flush(); err != nil {
		return 0, fmt.Errorf("dht: wal snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("dht: wal snapshot sync: %w", err)
	}
	return size, nil
}

// LogRecords returns the number of records appended since the last
// compaction (or Restore), for tests and compaction diagnostics.
func (w *WAL) LogRecords() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Close releases the log file handle. The WAL is unusable afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil
	}
	err := w.log.Close()
	w.log = nil
	if err != nil {
		return fmt.Errorf("dht: wal close: %w", err)
	}
	return nil
}
