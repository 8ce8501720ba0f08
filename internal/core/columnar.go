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

// This file is the bucket's record store, which is its byte format. A bucket
// holds its records' encodings back to back in one byte slice, exactly as
// Marshal writes them after the label and the count, so what an in-process
// store keeps, what a daemon keeps, what crosses a socket and what the
// journal and a snapshot write are one thing. A record costs its coordinates'
// eight bytes each, a byte for the dimension count and one or two for the
// payload length: no slice header, string header or heap object.
//
// The slice is never written inside its length. Append writes past it, into
// spare capacity, so a reader holding a shorter Bucket value never sees the
// record (the copy-on-write argument the insert path has always made); every
// other change — a removal, a split, a replayed delta — builds a new slice.
// So DataAt hands out a zero-copy string over the payload bytes. Coordinates
// are not aligned float64s: a scan reads them in place
// (math.Float64frombits), and whatever hands a key out — KeyAt, Records, a
// query's answer — copies it.
//
// The bucket byte format (all integers little-endian; lengths as uvarint):
//
//	record  = uvarint dims, dims × float64 bits, uvarint len(data), data bytes
//	bucket  = byte labelLen, uint64 labelBits, uvarint count, count × record
//	delta   = uvarint from, uvarint count, count × record   (count > 0)
//	        | uvarint from, 0, uvarint i                    (i < from)
//
// A bucket's records share one dimensionality. A delta takes a bucket of from
// records to the next one, in one of two forms: the records an append added
// after the first from, or — count 0 — the index of the one record a removal
// took out. Either is all the journal has to keep of the write: an insert
// costs the log its record and a delete a few bytes, not the whole bucket
// (about 1.6 kB). CutDelta cuts one and ReplayDelta replays it, for a store
// of Bucket values (wire.BucketCodec) and for a daemon's store of encodings
// (wire.DaemonCodec) alike.

// ErrEncoding reports bytes that are not a bucket, or not a delta.
var ErrEncoding = errors.New("core: malformed bucket encoding")

// ErrDeltaBase reports a well-formed delta applied to a bucket it was not cut
// from: the bucket's load is not the delta's from.
var ErrDeltaBase = errors.New("core: delta does not fit this bucket")

// NewBucket builds a bucket over the given records, encoded into a slice of
// exactly their size. The records slice is not retained.
func NewBucket(label bitlabel.Label, records []spatial.Record) Bucket {
	b := Bucket{Label: label, n: len(records)}
	if len(records) == 0 {
		return b
	}
	size := 0
	for _, rec := range records {
		size += recordLen(len(rec.Key), len(rec.Data))
	}
	b.enc = make([]byte, 0, size)
	for _, rec := range records {
		b.enc = AppendRecord(b.enc, rec)
	}
	return b
}

// newBucketOf is NewBucket of the records at the given positions, in order.
func newBucketOf(label bitlabel.Label, records []spatial.Record, at []int32) Bucket {
	b := Bucket{Label: label, n: len(at)}
	if len(at) == 0 {
		return b
	}
	size := 0
	for _, i := range at {
		size += recordLen(len(records[i].Key), len(records[i].Data))
	}
	b.enc = make([]byte, 0, size)
	for _, i := range at {
		b.enc = AppendRecord(b.enc, records[i])
	}
	return b
}

// Load returns the number of records stored in the bucket (§4.1 load).
func (b Bucket) Load() int { return b.n }

// dims returns the records' dimensionality, 0 for an empty bucket.
func (b Bucket) dims() int { return recordDims(b.enc) }

// recordDims returns the dimensionality of the records encoded in enc, 0 for
// none.
func recordDims(enc []byte) int {
	d, _ := binary.Uvarint(enc)
	return int(d)
}

// fields returns where the record encoded at enc[off:], of dims coordinates,
// has its coordinates and its payload, and where it ends.
func fields(enc []byte, off, dims int) (key, data, end int) {
	key = off + uvarintLen(uint64(dims))
	data = key + 8*dims
	size, n := uint64(enc[data]), 1
	if size >= 0x80 {
		size, n = binary.Uvarint(enc[data:])
	}
	return key, data + n, data + n + int(size)
}

// payload returns enc[lo:hi] as a zero-copy string: no byte inside a
// bucket's length is written again.
func payload(enc []byte, lo, hi int) string {
	if lo == hi {
		return ""
	}
	return unsafe.String(&enc[lo], hi-lo)
}

// appendKey appends to dst the dims coordinates encoded at enc[key:].
func appendKey(dst []float64, enc []byte, key, dims int) []float64 {
	for j := 0; j < dims; j++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(enc[key+8*j:])))
	}
	return dst
}

// offsets returns where each record starts in enc. The table is built on the
// first call and kept in b, so a loop of KeyAt or DataAt over a bucket walks
// its records once.
func (b *Bucket) offsets() []int {
	if b.at == nil {
		d := b.dims()
		b.at = make([]int, b.n)
		for i, off := 0, 0; i < b.n; i++ {
			b.at[i] = off
			_, _, off = fields(b.enc, off, d)
		}
	}
	return b.at
}

// KeyAt returns a copy of record i's key.
func (b *Bucket) KeyAt(i int) spatial.Point {
	d := b.dims()
	key, _, _ := fields(b.enc, b.offsets()[i], d)
	return appendKey(make(spatial.Point, 0, d), b.enc, key, d)
}

// DataAt returns record i's payload as a zero-copy view of the bucket's bytes.
func (b *Bucket) DataAt(i int) string {
	_, data, end := fields(b.enc, b.offsets()[i], b.dims())
	return payload(b.enc, data, end)
}

// RecordAt returns record i: a copy of its key, a view of its payload.
func (b *Bucket) RecordAt(i int) spatial.Record {
	return spatial.Record{Key: b.KeyAt(i), Data: b.DataAt(i)}
}

// Records materializes the record set: one slice of records, their keys
// copied into one block, their payloads zero-copy views.
func (b Bucket) Records() []spatial.Record {
	if b.n == 0 {
		return nil
	}
	d := b.dims()
	out := make([]spatial.Record, b.n)
	keys := make([]float64, 0, b.n*d)
	for i, off := 0, 0; i < b.n; i++ {
		key, data, end := fields(b.enc, off, d)
		keys = appendKey(keys, b.enc, key, d)
		out[i] = spatial.Record{Key: keys[i*d : (i+1)*d : (i+1)*d], Data: payload(b.enc, data, end)}
		off = end
	}
	return out
}

// within appends to hits the offsets of the records inside q, in bucket
// order. It makes one pass over the encodings with q's bounds hoisted,
// reading coordinates in place (scan).
func (b Bucket) within(q spatial.Rect, hits []int32) []int32 {
	d := b.dims()
	if b.n == 0 || len(q.Lo) != d || len(q.Hi) != d {
		return hits
	}
	if cap(hits)-len(hits) < b.n {
		hits = slices.Grow(hits, b.n)
	}
	return scan(b.enc, uvarintLen(uint64(d)), q.Lo, q.Hi, hits)
}

// scan is within's loop over encodings whose dimension counts take head
// bytes, apart from the Bucket and with room in hits for every record, so
// that it calls nothing on its common path and its variables stay in
// registers.
//
//lint:hotpath
func scan(enc []byte, head int, lo, hi []float64, hits []int32) []int32 {
	width, hi, n := 8*len(lo), hi[:len(lo)], len(hits)
	hits = hits[:cap(hits)]
next:
	for off := 0; off < len(enc); {
		at, k := off, off+head
		off = k + width
		if size := enc[off]; size < 0x80 {
			off += 1 + int(size)
		} else {
			off = skipPayload(enc, off)
		}
		for j, l := range lo {
			c := math.Float64frombits(binary.LittleEndian.Uint64(enc[k : k+8]))
			if c < l || c > hi[j] {
				continue next
			}
			k += 8
		}
		hits[n] = int32(at)
		n++
	}
	return hits[:n]
}

// skipPayload returns where the payload whose length is encoded at off ends.
func skipPayload(enc []byte, off int) int {
	size, n := binary.Uvarint(enc[off:])
	return off + n + int(size)
}

// match is one bucket's part of an answer: the bucket's encodings, where in
// them the records inside the query's rectangle start, and the shape they
// must also lie in, when one is given.
type match struct {
	enc   []byte
	at    []int32
	shape spatial.Shape
}

// appendTo appends m's records to out and their keys to keys, each key a
// capacity-clamped view of the block; the payloads are views of the bucket's
// bytes. The shape is asked about each key's copy in the block, and a record
// outside it is dropped again. With room in both, it allocates nothing.
func (m match) appendTo(out []spatial.Record, keys []float64) ([]spatial.Record, []float64) {
	d := recordDims(m.enc)
	keys = slices.Grow(keys, len(m.at)*d)
	for _, at := range m.at {
		k, data, end := fields(m.enc, int(at), d)
		n := len(keys)
		keys = keys[:n+d]
		key := spatial.Point(keys[n : n+d : n+d])
		for j := range key {
			key[j] = math.Float64frombits(binary.LittleEndian.Uint64(m.enc[k+8*j:]))
		}
		if m.shape != nil && !m.shape.ContainsPoint(key) {
			keys = keys[:n]
			continue
		}
		out = append(out, spatial.Record{Key: key, Data: payload(m.enc, data, end)})
	}
	return out, keys
}

// records returns m's records in one slice, their keys copied into one block.
func (m match) records() []spatial.Record {
	if len(m.at) == 0 {
		return nil
	}
	out, _ := m.appendTo(make([]spatial.Record, 0, len(m.at)), make([]float64, 0, len(m.at)*recordDims(m.enc)))
	if len(out) == 0 {
		return nil
	}
	return out
}

// Append returns the bucket extended by one record, encoded into the spare
// capacity past the receiver's length (amortized O(1), zero allocations when
// capacity suffices). Readers holding the previous Bucket value never read
// past their own length.
//
//lint:hotpath
func (b Bucket) Append(rec spatial.Record) Bucket {
	b.enc = AppendRecord(b.enc, rec)
	b.n++
	b.at = nil
	return b
}

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

// recordLen returns how many bytes AppendRecord writes for a record of dims
// coordinates and data payload bytes.
func recordLen(dims, data int) int {
	return uvarintLen(uint64(dims)) + 8*dims + uvarintLen(uint64(data)) + data
}

// Marshal encodes the bucket, into a buffer of exactly its size: an owner
// keeps what this returns for as long as it keeps the bucket.
func (b Bucket) Marshal() []byte {
	return b.AppendMarshal(make([]byte, 0, b.MarshalSize()))
}

// MarshalSize is the size of the bucket's encoding.
func (b Bucket) MarshalSize() int { return b.headSize(b.n) + len(b.enc) }

// AppendMarshal appends the bucket's encoding to buf.
func (b Bucket) AppendMarshal(buf []byte) []byte {
	return append(b.appendHead(buf, b.n), b.enc...)
}

// appendHead appends what precedes n records in the bucket's encoding: its
// label, its extension when it has one (move.go), and the count.
func (b Bucket) appendHead(buf []byte, n int) []byte {
	at := len(buf)
	buf = appendLabel(buf, b.Label)
	if b.extended() {
		buf[at] |= extFlag
		buf = b.appendExt(buf)
	}
	return binary.AppendUvarint(buf, uint64(n))
}

// headSize is the size of appendHead's bytes for n records.
func (b Bucket) headSize(n int) int {
	return 9 + b.extSize() + uvarintLen(uint64(n))
}

// appendLabel appends a label as the bucket format writes it: its length in a
// byte, its bits in a little-endian uint64.
func appendLabel(buf []byte, l bitlabel.Label) []byte {
	buf = append(buf, byte(l.Len()))
	return binary.LittleEndian.AppendUint64(buf, l.Bits())
}

// checkRecords walks the framing of exactly count encoded records filling p,
// all of one dimensionality — dims when fixed, the first record's otherwise —
// and returns that dimensionality and the bytes they take encoded the one way
// AppendRecord encodes them: len(p) unless a uvarint in p is padded.
func checkRecords(p []byte, count, dims uint64, fixed bool) (uint64, int, error) {
	// A record encodes to at least two bytes, so a count beyond len(p)/2
	// cannot be satisfied — reject it up front rather than trusting an
	// attacker-controlled length for allocation (found by fuzzing).
	if count > uint64(len(p)/2)+1 {
		return 0, 0, fmt.Errorf("%w: record count %d exceeds payload", ErrEncoding, count)
	}
	size, off := len(p), 0
	for i := uint64(0); i < count; i++ {
		// Every dimension count and most payload lengths are one byte.
		d, n := uint64(0), 0
		if off < len(p) && p[off] < 0x80 {
			d, n = uint64(p[off]), 1
		} else {
			d, n = binary.Uvarint(p[off:])
		}
		if n <= 0 || d > 1<<16 {
			return 0, 0, fmt.Errorf("record %d: %w: point dims", i, ErrEncoding)
		}
		// A bucket holds one dimensionality. One whose records disagree
		// would scan the odd record's coordinates with its neighbours' count.
		if i == 0 && !fixed {
			dims = d
		} else if d != dims {
			return 0, 0, fmt.Errorf("record %d: %w: %d dims in a bucket of %d", i, ErrEncoding, d, dims)
		}
		size -= n - uvarintLen(d)
		off += n
		if uint64(len(p)-off) < dims*8 {
			return 0, 0, fmt.Errorf("record %d: %w: point truncated", i, ErrEncoding)
		}
		off += int(dims) * 8
		data := uint64(0)
		if off < len(p) && p[off] < 0x80 {
			data, n = uint64(p[off]), 1
		} else {
			data, n = binary.Uvarint(p[off:])
		}
		if n <= 0 || uint64(len(p)-off-n) < data {
			return 0, 0, fmt.Errorf("record %d: %w: record data", i, ErrEncoding)
		}
		size -= n - uvarintLen(data)
		off += n + int(data)
	}
	if off != len(p) {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(p)-off)
	}
	return dims, size, nil
}

// appendRecords appends to dst the count records encoded in p, whose framing
// checkRecords passed and found size bytes long when encoded as AppendRecord
// encodes them: p itself when it is that long, else each record re-encoded (a
// padded uvarint decodes, and is written shortest).
func appendRecords(dst, p []byte, count, size int) []byte {
	if len(p) == size {
		return append(dst, p...)
	}
	for ; count > 0; count-- {
		d, n := binary.Uvarint(p)
		dst = append(binary.AppendUvarint(dst, d), p[n:n+8*int(d)]...)
		p = p[n+8*int(d):]
		data, n := binary.Uvarint(p)
		dst = append(binary.AppendUvarint(dst, data), p[n:n+int(data)]...)
		p = p[n+int(data):]
	}
	return dst
}

// readBucket reads the bucket encoded in buf without copying: its records'
// encodings are buf's tail, capped at its length so that an Append never
// writes into whatever follows. size is what they take encoded as Marshal
// encodes them.
func readBucket(buf []byte) (b Bucket, size int, err error) {
	if len(buf) < 9 {
		return Bucket{}, 0, fmt.Errorf("%w: bucket header", ErrEncoding)
	}
	labelLen, head := int(buf[0]&^extFlag), 9
	if labelLen > bitlabel.MaxLen {
		return Bucket{}, 0, fmt.Errorf("%w: label length %d", ErrEncoding, labelLen)
	}
	var x *extension
	if buf[0]&extFlag != 0 {
		var n int
		if x, n, err = readExt(buf[9:]); err != nil {
			return Bucket{}, 0, err
		}
		head += n
	}
	count, n := binary.Uvarint(buf[head:])
	if n <= 0 {
		return Bucket{}, 0, fmt.Errorf("%w: record count", ErrEncoding)
	}
	rest := buf[head+n:]
	if _, size, err = checkRecords(rest, count, 0, false); err != nil {
		return Bucket{}, 0, err
	}
	b = Bucket{Label: bitlabel.New(binary.LittleEndian.Uint64(buf[1:9]), labelLen), n: int(count), x: x}
	if count > 0 {
		b.enc = rest[:len(rest):len(rest)]
	}
	return b, size, nil
}

// UnmarshalBucket decodes a bucket into one copy of its records' encodings,
// of exactly their size. The bytes come from a socket, a log or a file, so
// every length in them is a claim and is checked, and the bucket never
// aliases them: a restored bucket pins no read buffer, and a caller may reuse
// its own. It checks the encoding only: whether the label is a leaf of some
// index and the records lie in its cell is the caller's to judge.
func UnmarshalBucket(buf []byte) (Bucket, error) {
	b, size, err := readBucket(buf)
	if err != nil || b.n == 0 {
		return b, err
	}
	b.enc = appendRecords(make([]byte, 0, size), b.enc, b.n, size)
	return b, nil
}

// ViewBucket returns the bucket buf encodes as a view of buf, with no copy,
// when buf is exactly what Marshal writes for it; ok is false for anything
// else. It is for a store's own values: the caller must not change buf while
// it uses the bucket.
func ViewBucket(buf []byte) (b Bucket, ok bool) {
	b, size, err := readBucket(buf)
	return b, err == nil && len(buf) == b.headSize(b.n)+size && binary.LittleEndian.Uint64(buf[1:9]) == b.Label.Bits()
}

// cut returns b without the record encoded at enc[lo:hi], over the tail of
// marshalCut's bytes: a slice of exactly the survivors' size.
func (b Bucket) cut(lo, hi int) Bucket {
	buf := b.marshalCut(lo, hi)
	b.n, b.enc, b.at = b.n-1, buf[len(buf)-(len(b.enc)-(hi-lo)):], nil
	return b
}

// marshalCut is the encoding of b without the record encoded at enc[lo:hi],
// in a buffer of exactly its size, as Marshal of cut(lo, hi) writes it.
func (b Bucket) marshalCut(lo, hi int) []byte {
	buf := make([]byte, 0, b.headSize(b.n-1)+len(b.enc)-(hi-lo))
	buf = b.appendHead(buf, b.n-1)
	return append(append(buf, b.enc[:lo]...), b.enc[hi:]...)
}

// marshalGrown is the encoding of b with records appended, in a buffer of
// exactly its size, as Marshal of b.Append of each record writes it.
func (b Bucket) marshalGrown(records []spatial.Record) []byte {
	n, size := b.n+len(records), len(b.enc)
	for _, rec := range records {
		size += recordLen(len(rec.Key), len(rec.Data))
	}
	buf := make([]byte, 0, b.headSize(n)+size)
	buf = append(b.appendHead(buf, n), b.enc...)
	for _, rec := range records {
		buf = AppendRecord(buf, rec)
	}
	return buf
}

// end returns where the record encoded at off, of dims coordinates, ends.
func (b Bucket) end(off, dims int) int {
	_, _, end := fields(b.enc, off, dims)
	return end
}

// mismatch returns the length of the longest common prefix of a and b: 64
// bytes a step while they agree, then eight.
func mismatch(a, b []byte) int {
	n, k := min(len(a), len(b)), 0
	for k+64 <= n && bytes.Equal(a[k:k+64], b[k:k+64]) {
		k += 64
	}
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(a[k:]) ^ binary.LittleEndian.Uint64(b[k:]); x != 0 {
			return k + bits.TrailingZeros64(x)/8
		}
	}
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}

// CutDelta reports whether next is prev with one write applied — the same
// label and merge count, neither in a move nor a tombstone (move.go), and
// prev's records followed by zero or more, or prev's records but one — and if
// so appends to buf the delta that takes prev to next: nothing
// at all when next holds what prev holds. It is how the journal tells an
// append or a removal from a split without being told. An append that wrote
// into prev's spare capacity shares its bytes, and is told by one pointer
// comparison; a cut record is found in one pass, since the first byte at
// which the two differ lies in it, or in the last of a run of equal records,
// any of which gives next. Allocation-free when buf has capacity.
//
//lint:hotpath
func CutDelta(buf []byte, prev, next Bucket) ([]byte, bool) {
	p, q := prev.enc, next.enc
	switch {
	case next.Label != prev.Label || next.merges() != prev.merges() || prev.mark() != nil || next.mark() != nil || prev.tombstone() || next.tombstone():
		return buf, false
	case next.n == prev.n:
		return buf, bytes.Equal(p, q)
	case next.n > prev.n && bytes.HasPrefix(q, p):
		buf = binary.AppendUvarint(buf, uint64(prev.n))
		buf = binary.AppendUvarint(buf, uint64(next.n-prev.n))
		return append(buf, q[len(p):]...), true
	case next.n == prev.n-1:
		k, d := mismatch(p, q), prev.dims()
		if k >= len(p) {
			return buf, false
		}
		i, lo, hi := 0, 0, prev.end(0, d)
		for hi <= k {
			i, lo, hi = i+1, hi, prev.end(hi, d)
		}
		if !bytes.Equal(q[lo:], p[hi:]) {
			return buf, false
		}
		buf = binary.AppendUvarint(buf, uint64(prev.n))
		buf = append(buf, 0)
		return binary.AppendUvarint(buf, uint64(i)), true
	}
	return buf, false
}

// ReplayDelta returns the bucket a delta takes b to, in a new slice of
// exactly its size that aliases neither b nor the delta. The delta is checked
// as UnmarshalBucket checks a bucket, and must have been cut at b's load
// (ErrDeltaBase otherwise): replaying one twice, or over the wrong bucket, is
// refused rather than stored.
func ReplayDelta(b Bucket, delta []byte) (Bucket, error) {
	from, n := binary.Uvarint(delta)
	if n <= 0 {
		return Bucket{}, fmt.Errorf("%w: delta base", ErrEncoding)
	}
	delta = delta[n:]
	count, n := binary.Uvarint(delta)
	if n <= 0 {
		return Bucket{}, fmt.Errorf("%w: delta record count", ErrEncoding)
	}
	delta = delta[n:]
	if from != uint64(b.n) || b.mark() != nil || b.tombstone() {
		return Bucket{}, fmt.Errorf("%w: cut at %d records, bucket %v holds %d", ErrDeltaBase, from, b.Label, b.n)
	}
	if count == 0 {
		i, n := binary.Uvarint(delta)
		if n <= 0 || i >= from {
			return Bucket{}, fmt.Errorf("%w: removal of record %d of %d", ErrEncoding, i, from)
		}
		if n != len(delta) {
			return Bucket{}, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(delta)-n)
		}
		lo, d := 0, b.dims()
		for ; i > 0; i-- {
			lo = b.end(lo, d)
		}
		return b.cut(lo, b.end(lo, d)), nil
	}
	_, size, err := checkRecords(delta, count, uint64(b.dims()), b.n > 0)
	if err != nil {
		return Bucket{}, err
	}
	enc := make([]byte, 0, len(b.enc)+size)
	enc = appendRecords(append(enc, b.enc...), delta, int(count), size)
	return Bucket{Label: b.Label, n: b.n + int(count), enc: enc, x: b.x}, nil
}
