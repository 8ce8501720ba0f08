package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
//	delta   = uvarint from, uvarint count, count × record
//
// A delta is what a bucket holds beyond its first from records — what an
// append added, which is all the journal has to keep of one.

// ErrEncoding reports bytes that are not a bucket, or not a delta.
var ErrEncoding = errors.New("core: malformed bucket encoding")

// ErrDeltaBase reports a well-formed delta applied to a bucket it was not cut
// from: the bucket's load is not the delta's from.
var ErrDeltaBase = errors.New("core: delta does not extend this bucket")

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

// uvarintLen returns how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// encodedLen returns how many bytes the records' encodings take.
func (r recs) encodedLen() int {
	n := r.len()
	if n == 0 {
		return 0
	}
	size := n*(uvarintLen(uint64(r.dims))+8*r.dims) + int(r.offs[n])
	for i := 0; i < n; i++ {
		size += uvarintLen(uint64(r.offs[i+1] - r.offs[i]))
	}
	return size
}

// Marshal encodes the bucket, into a buffer of exactly its size: an owner
// keeps what this returns for as long as it keeps the bucket.
func (b Bucket) Marshal() []byte {
	n := b.Load()
	buf := make([]byte, 0, 9+uvarintLen(uint64(n))+b.rs.encodedLen())
	buf = appendLabel(buf, b.Label)
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = AppendRecord(buf, b.RecordAt(i))
	}
	return buf
}

// appendLabel appends a label as the bucket format writes it: its length in a
// byte, its bits in a little-endian uint64.
func appendLabel(buf []byte, l bitlabel.Label) []byte {
	buf = append(buf, byte(l.Len()))
	return binary.LittleEndian.AppendUint64(buf, l.Bits())
}

// checkRecords walks the framing of exactly count encoded records filling p,
// all of one dimensionality — dims when fixed, the first record's otherwise —
// and returns that dimensionality and the payload bytes they carry.
func checkRecords(p []byte, count, dims uint64, fixed bool) (uint64, uint64, error) {
	// A record encodes to at least two bytes, so a count beyond len(p)/2
	// cannot be satisfied — reject it up front rather than trusting an
	// attacker-controlled length for allocation (found by fuzzing).
	if count > uint64(len(p)/2)+1 {
		return 0, 0, fmt.Errorf("%w: record count %d exceeds payload", ErrEncoding, count)
	}
	var dataLen uint64
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(p)
		if n <= 0 || d > 1<<16 {
			return 0, 0, fmt.Errorf("record %d: %w: point dims", i, ErrEncoding)
		}
		// The arenas hold one dimensionality. A bucket whose records
		// disagree used to decode, and read the odd record's missing
		// coordinates out of its neighbour's.
		if i == 0 && !fixed {
			dims = d
		} else if d != dims {
			return 0, 0, fmt.Errorf("record %d: %w: %d dims in a bucket of %d", i, ErrEncoding, d, dims)
		}
		p = p[n:]
		if uint64(len(p)) < dims*8 {
			return 0, 0, fmt.Errorf("record %d: %w: point truncated", i, ErrEncoding)
		}
		p = p[dims*8:]
		size, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < size {
			return 0, 0, fmt.Errorf("record %d: %w: record data", i, ErrEncoding)
		}
		p = p[uint64(n)+size:]
		dataLen += size
	}
	if len(p) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(p))
	}
	return dims, dataLen, nil
}

// fill appends to the arenas the count records checkRecords passed in p.
func (r recs) fill(p []byte, count uint64) recs {
	dims := uint64(r.dims)
	for i := uint64(0); i < count; i++ {
		_, n := binary.Uvarint(p)
		p = p[n:]
		for j := uint64(0); j < dims; j++ {
			r.coords = append(r.coords, math.Float64frombits(binary.LittleEndian.Uint64(p[j*8:])))
		}
		p = p[dims*8:]
		size, n := binary.Uvarint(p)
		p = p[n:]
		r.data = append(r.data, p[:size]...)
		p = p[size:]
		r.offs = append(r.offs, uint32(len(r.data)))
	}
	return r
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
	dims, dataLen, err := checkRecords(rest, count, 0, false)
	if err != nil {
		return Bucket{}, err
	}
	if count == 0 {
		return Bucket{Label: label}, nil
	}
	if dataLen > math.MaxUint32 {
		return Bucket{}, fmt.Errorf("%w: %d payload bytes", ErrEncoding, dataLen)
	}
	rs := recs{
		dims:   int(dims),
		coords: make([]float64, 0, count*dims),
		offs:   make([]uint32, 1, count+1),
		data:   make([]byte, 0, dataLen),
	}.fill(rest, count)
	return NewBucketColumns(label, rs.dims, rs.coords, rs.offs, rs.data), nil
}

// extends reports whether p's records are r's first p.len(). An append shares
// the arenas it extends, so the usual answer is one pointer comparison an
// arena; one that outgrew its capacity moved, and is compared by content
// (coordinates by their bits: -0 is not +0 on disk).
func (r recs) extends(p recs) bool {
	n := p.len()
	if n == 0 {
		return true
	}
	if r.len() < n || r.dims != p.dims {
		return false
	}
	if &r.offs[0] != &p.offs[0] && !slices.Equal(r.offs[:n+1], p.offs[:n+1]) {
		return false
	}
	if nd := p.offs[n]; nd > 0 && &r.data[0] != &p.data[0] && !bytes.Equal(r.data[:nd], p.data[:nd]) {
		return false
	}
	if nc := n * p.dims; nc > 0 && &r.coords[0] != &p.coords[0] {
		for i, c := range p.coords[:nc] {
			if math.Float64bits(r.coords[i]) != math.Float64bits(c) {
				return false
			}
		}
	}
	return true
}

// AppendDelta reports whether b is prev extended — the same label, prev's
// records and then zero or more — and if so appends to buf the delta that
// takes prev to b: nothing at all when b holds what prev holds. It is how the
// journal tells an append from a split or a removal without being told, and
// allocation-free when buf has capacity.
//
//lint:hotpath
func (b Bucket) AppendDelta(buf []byte, prev Bucket) ([]byte, bool) {
	from, n := prev.Load(), b.Load()
	if b.Label != prev.Label || !b.rs.extends(prev.rs) {
		return buf, false
	}
	if n == from {
		return buf, true
	}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(n-from))
	for i := from; i < n; i++ {
		buf = AppendRecord(buf, b.RecordAt(i))
	}
	return buf, true
}

// Extend returns the bucket with a delta's records appended. The delta is
// checked as UnmarshalBucket checks a bucket, and must have been cut at b's
// load (ErrDeltaBase otherwise): replaying one twice, or over the wrong
// bucket, is refused rather than stored. Like Append it shares arena capacity
// with the receiver.
func (b Bucket) Extend(delta []byte) (Bucket, error) {
	from, n := binary.Uvarint(delta)
	if n <= 0 {
		return Bucket{}, fmt.Errorf("%w: delta base", ErrEncoding)
	}
	delta = delta[n:]
	count, n := binary.Uvarint(delta)
	if n <= 0 || count == 0 {
		return Bucket{}, fmt.Errorf("%w: delta record count", ErrEncoding)
	}
	delta = delta[n:]
	if from != uint64(b.Load()) {
		return Bucket{}, fmt.Errorf("%w: cut at %d records, bucket %v holds %d", ErrDeltaBase, from, b.Label, b.Load())
	}
	dims, dataLen, err := checkRecords(delta, count, uint64(b.rs.dims), from > 0)
	if err != nil {
		return Bucket{}, err
	}
	if dataLen+uint64(len(b.rs.data)) > math.MaxUint32 {
		return Bucket{}, fmt.Errorf("%w: %d payload bytes", ErrEncoding, dataLen+uint64(len(b.rs.data)))
	}
	b.rs.dims = int(dims)
	if b.rs.offs == nil {
		b.rs.offs = make([]uint32, 1, count+1)
	}
	b.rs = b.rs.fill(delta, count)
	return b, nil
}
