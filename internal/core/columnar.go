package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// This file implements the Bucket's columnar record storage. A bucket at
// the 10M-record scale target cannot afford one slice header (24B), one
// string header (16B), and two heap objects per record: the records live in
// three flat arenas instead — a coordinate block, a payload byte block, and
// an offset table — so per-record overhead is 4 bytes (the offset) and a
// range scan walks contiguous memory.
//
//	coords: [x0 y0 x1 y1 x2 y2 ...]           len = n·dims
//	data:   "payload0payload1payload2..."
//	offs:   [0, end0, end1, end2, ...]        len = n+1
//
// Accessors materialize spatial views without copying: KeyAt returns a
// capacity-clamped subslice of the coordinate block and DataAt an
// unsafe.String over the payload block. Both are safe under the index's
// copy-on-write discipline: arenas are append-only — a mutation (Delete, a
// split) packs fresh arenas rather than editing these — so a view taken
// from any Bucket value stays valid forever, exactly like the old
// []spatial.Record sharing. Append beyond len is invisible to readers
// holding shorter headers (the argument the insert path has always made).

// recs is one bucket's columnar record store. The zero value is an empty
// store. recs values are copied freely (four slice headers + an int);
// the arenas themselves are shared and append-only.
type recs struct {
	dims   int
	coords []float64
	offs   []uint32
	data   []byte
}

func (r recs) len() int {
	if len(r.offs) == 0 {
		return 0
	}
	return len(r.offs) - 1
}

func (r recs) keyAt(i int) spatial.Point {
	lo := i * r.dims
	hi := lo + r.dims
	return spatial.Point(r.coords[lo:hi:hi])
}

func (r recs) dataAt(i int) string {
	lo, hi := r.offs[i], r.offs[i+1]
	if lo == hi {
		return ""
	}
	// Zero-copy view: the payload arena is append-only (never edited in
	// place) so the string stays valid for the life of the arena.
	return unsafe.String(&r.data[lo], int(hi-lo))
}

// append extends the arenas by one record. Amortized allocation-free:
// the only heap move the compiler sees is the first-append offset-arena
// seed, waived below.
//
//lint:hotpath
func (r recs) append(rec spatial.Record) recs {
	if r.len() == 0 {
		r.dims = rec.Key.Dim()
	}
	if r.offs == nil {
		r.offs = make([]uint32, 1, 9) //lint:allow hotpath one-time arena seed on first append
	}
	r.coords = append(r.coords, rec.Key...)
	r.data = append(r.data, rec.Data...)
	r.offs = append(r.offs, uint32(len(r.data)))
	return r
}

// packRecs builds arenas sized exactly for the given records.
func packRecs(records []spatial.Record) recs {
	if len(records) == 0 {
		return recs{}
	}
	nd := 0
	for _, rec := range records {
		nd += len(rec.Data)
	}
	d := records[0].Key.Dim()
	r := recs{
		dims:   d,
		coords: make([]float64, 0, len(records)*d),
		offs:   make([]uint32, 1, len(records)+1),
		data:   make([]byte, 0, nd),
	}
	for _, rec := range records {
		r.coords = append(r.coords, rec.Key...)
		r.data = append(r.data, rec.Data...)
		r.offs = append(r.offs, uint32(len(r.data)))
	}
	return r
}

// NewBucket builds a bucket over the given records, packing them into
// columnar storage sized exactly for the set. The records slice is not
// retained; its Points and Data are copied into the arenas.
func NewBucket(label bitlabel.Label, records []spatial.Record) Bucket {
	return Bucket{Label: label, rs: packRecs(records)}
}

// NewBucketColumns builds a bucket over columnar arenas the caller has
// already packed, and takes ownership of them: len(offs)-1 records of dims
// coordinates each, record i's key at coords[i*dims:(i+1)*dims] and its
// payload at data[offs[i]:offs[i+1]]. It is the decoder's constructor
// (UnmarshalBucket): NewBucket wants a Point and a string per record
// first, only to copy them into exactly these arenas. Arenas that do not
// describe each other are a bug in the caller, and panic — DataAt reads
// payloads through unsafe.String, so an offset table is never taken on
// trust.
func NewBucketColumns(label bitlabel.Label, dims int, coords []float64, offs []uint32, data []byte) Bucket {
	n := len(offs) - 1
	if n < 1 || offs[0] != 0 || int(offs[n]) != len(data) || len(coords) != n*dims {
		panic("core: NewBucketColumns: arenas disagree")
	}
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			panic("core: NewBucketColumns: offsets decrease")
		}
	}
	return Bucket{Label: label, rs: recs{dims: dims, coords: coords, offs: offs, data: data}}
}

// Load returns the number of records stored in the bucket (§4.1 load).
func (b Bucket) Load() int { return b.rs.len() }

// KeyAt returns record i's key as a zero-copy view into the coordinate
// arena. The view must not be mutated.
func (b Bucket) KeyAt(i int) spatial.Point { return b.rs.keyAt(i) }

// DataAt returns record i's payload as a zero-copy view into the payload
// arena.
func (b Bucket) DataAt(i int) string { return b.rs.dataAt(i) }

// RecordAt returns record i with zero-copy key and payload views.
func (b Bucket) RecordAt(i int) spatial.Record {
	return spatial.Record{Key: b.rs.keyAt(i), Data: b.rs.dataAt(i)}
}

// Records materializes the record set. The returned slice is freshly
// allocated (one allocation — the element headers), but keys and payloads
// are views into the bucket's arenas, not copies.
func (b Bucket) Records() []spatial.Record {
	n := b.rs.len()
	if n == 0 {
		return nil
	}
	out := make([]spatial.Record, n)
	for i := range out {
		out[i] = spatial.Record{Key: b.rs.keyAt(i), Data: b.rs.dataAt(i)}
	}
	return out
}

// Append returns the bucket extended by one record, sharing arena capacity
// with the receiver (amortized O(1), zero allocations when capacity
// suffices). Readers holding the previous Bucket value see their own
// shorter arenas and never index past them — the copy-on-write argument
// the insert path has always relied on.
//
//lint:hotpath
func (b Bucket) Append(rec spatial.Record) Bucket {
	b.rs = b.rs.append(rec) //lint:allow hotpath inlined copy of recs.append first-append arena seed
	return b
}

// The bucket byte format — what crosses a byte-oriented DHT, what the WAL
// journals and what a snapshot frames (all integers little-endian; lengths as
// uvarint):
//
//	record  = uvarint dims, dims × float64 bits, uvarint len(data), data bytes
//	bucket  = byte labelLen, uint64 labelBits, uvarint count, count × record

// ErrEncoding reports bytes that are not a bucket.
var ErrEncoding = errors.New("core: malformed bucket encoding")

// AppendRecord appends the encoding of rec to buf. Allocation-free when buf
// has capacity (the codec fast path — callers reuse scratch buffers).
//
//lint:hotpath
func AppendRecord(buf []byte, rec spatial.Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	for _, c := range rec.Key {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Data)))
	return append(buf, rec.Data...)
}

// Marshal encodes the bucket.
func (b Bucket) Marshal() []byte {
	n := b.Load()
	buf := make([]byte, 0, 16+n*40)
	buf = append(buf, byte(b.Label.Len()))
	buf = binary.LittleEndian.AppendUint64(buf, b.Label.Bits())
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = AppendRecord(buf, b.RecordAt(i))
	}
	return buf
}

// UnmarshalBucket decodes a bucket straight into its columnar form. A first
// pass checks every record's framing — the bytes come from a daemon, a log or
// a file, so lengths are claims — and adds up what the arenas must hold; a
// second fills them. That is three allocations at any record count, and no
// Point or string per record on the way. It checks the encoding only: whether
// the label is a leaf of some index and the records lie in its cell is the
// caller's to judge.
func UnmarshalBucket(buf []byte) (Bucket, error) {
	if len(buf) < 9 {
		return Bucket{}, fmt.Errorf("%w: bucket header", ErrEncoding)
	}
	labelLen := int(buf[0])
	if labelLen > bitlabel.MaxLen {
		return Bucket{}, fmt.Errorf("%w: label length %d", ErrEncoding, labelLen)
	}
	label := bitlabel.New(binary.LittleEndian.Uint64(buf[1:9]), labelLen)
	rest := buf[9:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return Bucket{}, fmt.Errorf("%w: record count", ErrEncoding)
	}
	rest = rest[n:]
	// A record encodes to at least two bytes, so a count beyond len(rest)/2
	// cannot be satisfied — reject it up front rather than trusting an
	// attacker-controlled length for allocation (found by fuzzing).
	if count > uint64(len(rest)/2)+1 {
		return Bucket{}, fmt.Errorf("%w: record count %d exceeds payload", ErrEncoding, count)
	}

	var dims, dataLen uint64
	p := rest
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(p)
		if n <= 0 || d > 1<<16 {
			return Bucket{}, fmt.Errorf("record %d: %w: point dims", i, ErrEncoding)
		}
		// The arenas hold one dimensionality. A bucket whose records
		// disagree used to decode, and read the odd record's missing
		// coordinates out of its neighbour's.
		if i == 0 {
			dims = d
		} else if d != dims {
			return Bucket{}, fmt.Errorf("record %d: %w: %d dims in a bucket of %d", i, ErrEncoding, d, dims)
		}
		p = p[n:]
		if uint64(len(p)) < dims*8 {
			return Bucket{}, fmt.Errorf("record %d: %w: point truncated", i, ErrEncoding)
		}
		p = p[dims*8:]
		size, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < size {
			return Bucket{}, fmt.Errorf("record %d: %w: record data", i, ErrEncoding)
		}
		p = p[uint64(n)+size:]
		dataLen += size
	}
	if len(p) != 0 {
		return Bucket{}, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(p))
	}
	if count == 0 {
		return Bucket{Label: label}, nil
	}
	if dataLen > math.MaxUint32 {
		return Bucket{}, fmt.Errorf("%w: %d payload bytes", ErrEncoding, dataLen)
	}

	coords := make([]float64, 0, count*dims)
	offs := make([]uint32, 1, count+1)
	data := make([]byte, 0, dataLen)
	p = rest
	for i := uint64(0); i < count; i++ {
		_, n := binary.Uvarint(p)
		p = p[n:]
		for j := uint64(0); j < dims; j++ {
			coords = append(coords, math.Float64frombits(binary.LittleEndian.Uint64(p[j*8:])))
		}
		p = p[dims*8:]
		size, n := binary.Uvarint(p)
		p = p[n:]
		data = append(data, p[:size]...)
		p = p[size:]
		offs = append(offs, uint32(len(data)))
	}
	return NewBucketColumns(label, int(dims), coords, offs, data), nil
}
