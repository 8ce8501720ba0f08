package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mlight/internal/bitlabel"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// This file gives the maintenance transform (commit.go) the form that can
// travel: the two transforms every insert and delete sends to a leaf's owner,
// as plain values. Their Run is the closure body the drivers used to build
// around SplitRule.Append and Remove — nothing of §4 is decided here — and has
// the shape of a dht.Op, so a substrate that can execute an op at the key's
// owner is sent the record instead of fetching, rewriting and returning the
// bucket, and every other substrate runs Run as the ApplyFunc it always took.
//
// The byte forms below are what crosses a byte-oriented DHT (wire.Op carries
// them; wire.ByteDHT is where an op changes form), written down beside the
// bucket format they extend (columnar.go; integers as there, a label as in a
// bucket: byte length, uint64 bits):
//
//	append   = 1, 5 × uvarint (dims, max depth, strategy, θsplit, ε), label,
//	           uvarint count, count × record
//	remove   = 2, label, uvarint θmerge, record (the key, and the data to match)
//	commit   = flags (1 gone, 2 failed), 3 × uvarint (accepted, splits, records
//	           moved), uvarint stale count, stale × uvarint, label, uvarint load,
//	           uvarint moved count, moved × (uvarint length, bucket),
//	           failed: uvarint length, message
//	removal  = flags (1 removed, 2 gone, 4 bucket follows), label, uvarint load,
//	           bucket follows: bucket
//
// An op's label is the leaf its sender expects under the key, and the owner
// decides nothing by it: it runs the op if the stored leaf's cell covers the
// record(s). A reply says what was decided, not what is stored: the kept
// bucket travels as its label and load, and whole only after a removal that
// left it under θmerge — the one case in which the driver reads its records
// (mergeUpwards). A gone reply's label is the stored leaf's, the empty label
// (length 0) when the key holds nothing: all that a bucket read of the key
// would have told a §5 search, which therefore goes on from it.

// Op is the vocabulary: the transforms of this package that have a byte form.
type Op interface {
	// Run is the transform, in the shape of a dht.Op: result is a Commit for
	// an AppendOp and a Removal for a RemoveOp.
	Run(cur any, exists bool) (next any, write bool, result any, err error)
	// RunBytes is Run at an owner that stores buckets in their byte form:
	// cur is the stored bucket's encoding, next the encoding to store and
	// result the byte form of Run's result.
	RunBytes(cur []byte, exists bool) (next []byte, write bool, result []byte, err error)
	// DecodeResult reads the byte form of a result back.
	DecodeResult(data []byte) (any, error)
	encode(buf []byte) []byte
	encodeResult(result any) []byte
}

// AppendOp is SplitRule.Append as data: replay Records into the bucket stored
// under the key if its cell covers them. Leaf is the label the sender
// expects there — the key is fmd(Leaf) — and decides nothing: whatever leaf
// is stored covers the records or does not.
type AppendOp struct {
	Rule    SplitRule
	Leaf    bitlabel.Label
	Records []spatial.Record
}

// RemoveOp is Remove as data: take one record matching Key (and Data, when
// non-empty) out of the bucket stored under the key if its cell covers Key;
// Leaf is as in AppendOp. MergeThreshold is the index's θmerge: a reply that
// crosses a socket carries the kept bucket's records only when fewer are
// left.
type RemoveOp struct {
	Leaf           bitlabel.Label
	Key            spatial.Point
	Data           string
	MergeThreshold int
}

var (
	_ Op = AppendOp{}
	_ Op = RemoveOp{}
)

// Run stores the commit's kept bucket when a record was accepted. A commit
// that accepted nothing — the leaf is gone, every record is stale, the split
// machinery failed — writes nothing.
func (op AppendOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	c := op.Rule.Append(stored, op.Records)
	if c.Gone || c.Err != nil || c.Accepted == 0 {
		return nil, false, c, nil
	}
	return c.Keep, true, c, nil
}

// Run stores the bucket without the record when one was removed.
func (op RemoveOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	out := Remove(stored, op.Key, op.Data)
	if !out.Removed {
		return nil, false, out, nil
	}
	return out.Keep, true, out, nil
}

// RunBytes implements Op. Two outcomes are decided on the bytes, from the
// label and the count the encoding starts with, and no arena is built to find
// them out: a stored cell that covers none of the records — the answer to
// most probes of a search (Index.write) — is Gone with the label, and records
// that only extend the bucket (SplitRule.extends, the same test Append opens
// with) make the old encoding with the count raised and the records'
// encodings behind it. Everything else — a stale record, a split, bytes whose
// framing does not check — takes the decoded path.
func (op AppendOp) RunBytes(cur []byte, exists bool) ([]byte, bool, []byte, error) {
	if leaf, load, recs, ok := storedLeaf(cur, op.Rule.Dims); exists && ok {
		region, err := spatial.RegionOf(leaf, op.Rule.Dims)
		switch {
		case err != nil || !coversAny(region, op.Records):
			return nil, false, op.encodeResult(Commit{Keep: Bucket{Label: leaf}, Gone: true}), nil
		case op.Rule.extends(region, leaf, load, op.Records):
			next := op.extendEncoded(leaf, load, recs)
			c := Commit{Keep: Bucket{Label: leaf}, Load: load + len(op.Records), Accepted: len(op.Records)}
			return next, true, op.encodeResult(c), nil
		}
	}
	return runDecoded(op, cur, exists)
}

// extendEncoded returns the encoding of leaf's bucket, load records encoded
// in recs, with the op's records appended.
func (op AppendOp) extendEncoded(leaf bitlabel.Label, load int, recs []byte) []byte {
	load += len(op.Records)
	size := 9 + uvarintLen(uint64(load)) + len(recs)
	for _, rec := range op.Records {
		size += uvarintLen(uint64(len(rec.Key))) + 8*len(rec.Key) + uvarintLen(uint64(len(rec.Data))) + len(rec.Data)
	}
	next := appendLabel(make([]byte, 0, size), leaf)
	next = append(binary.AppendUvarint(next, uint64(load)), recs...)
	for _, rec := range op.Records {
		next = AppendRecord(next, rec)
	}
	return next
}

// storedLeaf reads the bucket encoded in cur without decoding its records:
// its label, its load, and its records' bytes. ok is false unless those are
// load records of dims coordinates each, encoded the one way Marshal encodes
// them (canonicalRecords), and the op then takes the decoded path — which
// refuses what does not decode — so that what an op stores and reports never
// depends on which path it took.
func storedLeaf(cur []byte, dims int) (leaf bitlabel.Label, load int, recs []byte, ok bool) {
	r := reader{p: cur}
	leaf, load = r.label(), r.int()
	if r.bad || !canonicalRecords(r.p, load, dims) {
		return leaf, load, nil, false
	}
	return leaf, load, r.p, true
}

// canonicalRecords reports whether p is exactly count records of dims
// coordinates each, encoded the one way Marshal encodes them. What is stored
// came from some client's Put: bytes that do not check, and bytes that decode
// but are not what re-encoding them gives (a padded uvarint), take the
// decoded path.
func canonicalRecords(p []byte, count, dims int) bool {
	var dataLen uint64
	for i := 0; i < count; i++ {
		d, n := binary.Uvarint(p)
		if n != uvarintLen(d) || d != uint64(dims) || len(p)-n < 8*dims {
			return false
		}
		p = p[n+8*dims:]
		size, n := binary.Uvarint(p)
		if n != uvarintLen(size) || uint64(len(p)-n) < size {
			return false
		}
		p = p[uint64(n)+size:]
		dataLen += size
	}
	return len(p) == 0 && dataLen <= math.MaxUint32
}

// RunBytes implements Op. A stored cell that does not cover the key is Gone
// with the label, decided on the bytes as AppendOp.RunBytes decides it; a
// removal rebuilds the bucket, so everything else takes the decoded path.
func (op RemoveOp) RunBytes(cur []byte, exists bool) ([]byte, bool, []byte, error) {
	if leaf, _, _, ok := storedLeaf(cur, len(op.Key)); exists && ok && !covers(leaf, op.Key) {
		return nil, false, op.encodeResult(Removal{Keep: Bucket{Label: leaf}, Gone: true}), nil
	}
	return runDecoded(op, cur, exists)
}

// runDecoded is RunBytes in general: decode the stored bucket, Run, encode
// what it stores and what it reports.
func runDecoded(op Op, cur []byte, exists bool) ([]byte, bool, []byte, error) {
	var stored any
	if exists {
		b, err := UnmarshalBucket(cur)
		if err != nil {
			return nil, false, nil, err
		}
		stored = b
	}
	next, write, result, err := op.Run(stored, exists)
	if err != nil || !write {
		return nil, false, op.encodeResult(result), err
	}
	return next.(Bucket).Marshal(), true, op.encodeResult(result), nil
}

const (
	opAppend = 1
	opRemove = 2

	commitGone   = 1
	commitFailed = 2

	removalRemoved = 1
	removalGone    = 2
	removalBucket  = 4
)

// ErrOp reports bytes that are not an op of the vocabulary, or one whose
// parameters no index would send.
var ErrOp = errors.New("core: malformed op")

// EncodeOp returns op's byte form.
func EncodeOp(op Op) []byte { return op.encode(nil) }

func (op AppendOp) encode(buf []byte) []byte {
	buf = append(buf, opAppend)
	r := op.Rule
	for _, v := range [...]int{r.Dims, r.MaxDepth, int(r.Strategy), r.ThetaSplit, r.Epsilon} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = appendLabel(buf, op.Leaf)
	buf = binary.AppendUvarint(buf, uint64(len(op.Records)))
	for _, rec := range op.Records {
		buf = AppendRecord(buf, rec)
	}
	return buf
}

func (op RemoveOp) encode(buf []byte) []byte {
	buf = append(buf, opRemove)
	buf = appendLabel(buf, op.Leaf)
	buf = binary.AppendUvarint(buf, uint64(op.MergeThreshold))
	return AppendRecord(buf, spatial.Record{Key: op.Key, Data: op.Data})
}

// reader consumes a byte form front to back; the first short or oversized
// field latches bad and every later read returns zero.
type reader struct {
	p   []byte
	bad bool
}

// int reads a uvarint that fits a non-negative int32 — no count, bound or
// threshold of an index is larger, and a bigger one would overflow int
// arithmetic further in.
func (r *reader) int() int {
	v, n := binary.Uvarint(r.p)
	if n <= 0 || v > math.MaxInt32 {
		r.bad = true
		return 0
	}
	r.p = r.p[n:]
	return int(v)
}

func (r *reader) byte() byte {
	if len(r.p) < 1 {
		r.bad = true
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *reader) label() bitlabel.Label {
	if len(r.p) < 9 || int(r.p[0]) > bitlabel.MaxLen {
		r.bad = true
		return bitlabel.Label{}
	}
	l := bitlabel.New(binary.LittleEndian.Uint64(r.p[1:9]), int(r.p[0]))
	r.p = r.p[9:]
	return l
}

// chunk reads a uvarint length and that many bytes.
func (r *reader) chunk() []byte {
	n := r.int()
	if r.bad || n > len(r.p) {
		r.bad = true
		return nil
	}
	c := r.p[:n]
	r.p = r.p[n:]
	return c
}

// records decodes exactly count records of dims coordinates each filling the
// rest of the input, every key inside the unit cube. They are views into three
// arenas of their own, as a decoded bucket's are.
func (r *reader) records(count, dims int) ([]spatial.Record, error) {
	_, dataLen, err := checkRecords(r.p, uint64(count), uint64(dims), true)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if dataLen > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d payload bytes", ErrEncoding, dataLen)
	}
	rs := recs{
		dims:   dims,
		coords: make([]float64, 0, count*dims),
		offs:   make([]uint32, 1, count+1),
		data:   make([]byte, 0, dataLen),
	}.fill(r.p, uint64(count))
	r.p = nil
	records := Bucket{rs: rs}.Records()
	for i, rec := range records {
		if !rec.Key.Valid() {
			return nil, fmt.Errorf("record %d: key %v outside the unit cube", i, rec.Key)
		}
	}
	return records, nil
}

// check rejects a rule no index is configured with: the bounds are
// index.Tuning.Normalize's and core.New's.
func (r SplitRule) check() error {
	switch {
	case r.Dims < 1 || r.MaxDepth < 1 || r.Dims+1+r.MaxDepth > bitlabel.MaxLen:
		return fmt.Errorf("%d dimensions at depth %d", r.Dims, r.MaxDepth)
	case r.ThetaSplit < 1:
		return fmt.Errorf("θsplit %d", r.ThetaSplit)
	case r.Strategy != SplitThreshold && r.Strategy != SplitDataAware:
		return fmt.Errorf("unknown split strategy %d", int(r.Strategy))
	case r.Strategy == SplitDataAware && r.Epsilon < 1:
		return fmt.Errorf("ε %d", r.Epsilon)
	}
	return nil
}

// DecodeOp reads an op's byte form. The bytes come off a socket, so nothing in
// them is taken on trust: the op returned is one an index could have sent — a
// rule inside the configuration bounds, a leaf label no longer than that rule's
// tree is deep, records of the rule's dimensionality inside the unit cube, no
// more of them than the bytes can hold — or the error wraps ErrOp.
func DecodeOp(body []byte) (Op, error) {
	op, err := decodeOp(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrOp, err)
	}
	return op, nil
}

func decodeOp(body []byte) (Op, error) {
	r := reader{p: body}
	switch kind := r.byte(); kind {
	case opAppend:
		rule := SplitRule{Dims: r.int(), MaxDepth: r.int(), Strategy: SplitStrategy(r.int()), ThetaSplit: r.int(), Epsilon: r.int()}
		leaf := r.label()
		count := r.int()
		if r.bad {
			return nil, errors.New("append: truncated")
		}
		if err := rule.check(); err != nil {
			return nil, fmt.Errorf("append: rule: %w", err)
		}
		if leaf.Len() > rule.Dims+1+rule.MaxDepth {
			return nil, fmt.Errorf("append: a %d-bit leaf label under depth bound %d", leaf.Len(), rule.MaxDepth)
		}
		records, err := r.records(count, rule.Dims)
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		return AppendOp{Rule: rule, Leaf: leaf, Records: records}, nil
	case opRemove:
		leaf := r.label()
		theta := r.int()
		if r.bad {
			return nil, errors.New("remove: truncated")
		}
		dims, n := binary.Uvarint(r.p)
		if n <= 0 || dims < 1 || dims > uint64(bitlabel.MaxLen) {
			return nil, errors.New("remove: key dimensions")
		}
		records, err := r.records(1, int(dims))
		if err != nil {
			return nil, fmt.Errorf("remove: %w", err)
		}
		return RemoveOp{Leaf: leaf, Key: records[0].Key, Data: records[0].Data, MergeThreshold: theta}, nil
	default:
		return nil, fmt.Errorf("unknown op kind %d", kind)
	}
}

// encodeResult implements Op.
func (op AppendOp) encodeResult(result any) []byte {
	c, _ := result.(Commit)
	var flags byte
	if c.Gone {
		flags |= commitGone
	}
	if c.Err != nil {
		flags |= commitFailed
	}
	buf := append(make([]byte, 0, 32), flags)
	buf = binary.AppendUvarint(buf, uint64(c.Accepted))
	buf = binary.AppendUvarint(buf, uint64(c.Splits))
	buf = binary.AppendUvarint(buf, uint64(c.RecordsMoved))
	buf = binary.AppendUvarint(buf, uint64(len(c.Stale)))
	for _, i := range c.Stale {
		buf = binary.AppendUvarint(buf, uint64(i))
	}
	buf = appendLabel(buf, c.Keep.Label)
	buf = binary.AppendUvarint(buf, uint64(c.Load))
	buf = binary.AppendUvarint(buf, uint64(len(c.Moved)))
	for _, cell := range c.Moved {
		b := NewBucket(cell.Label, cell.Records).Marshal()
		buf = append(binary.AppendUvarint(buf, uint64(len(b))), b...)
	}
	if c.Err != nil {
		msg := c.Err.Error()
		buf = append(binary.AppendUvarint(buf, uint64(len(msg))), msg...)
	}
	return buf
}

// DecodeResult implements Op: the Commit an owner reported, its Keep the kept
// bucket's label alone.
func (op AppendOp) DecodeResult(data []byte) (any, error) {
	r := reader{p: data}
	flags := r.byte()
	c := Commit{Gone: flags&commitGone != 0, Accepted: r.int(), Splits: int64(r.int()), RecordsMoved: int64(r.int())}
	// Every count below sizes an allocation: each element it announces
	// takes at least a byte of what is left.
	if n := r.int(); n > len(r.p) {
		r.bad = true
	} else if n > 0 {
		c.Stale = make([]int, n)
		for i := range c.Stale {
			c.Stale[i] = r.int()
		}
	}
	c.Keep.Label = r.label()
	c.Load = r.int()
	if n := r.int(); n > len(r.p) {
		r.bad = true
	} else if n > 0 {
		c.Moved = make([]kdtree.Cell, n)
		for i := range c.Moved {
			b, err := UnmarshalBucket(r.chunk())
			if r.bad || err != nil {
				return nil, fmt.Errorf("%w: commit: moved cell %d", ErrEncoding, i)
			}
			region, err := spatial.RegionOf(b.Label, op.Rule.Dims)
			if err != nil {
				return nil, fmt.Errorf("%w: commit: moved cell %d: %w", ErrEncoding, i, err)
			}
			c.Moved[i] = kdtree.Cell{Label: b.Label, Region: region, Records: b.Records()}
		}
	}
	if flags&commitFailed != 0 {
		c.Err = errors.New(string(r.chunk()))
	}
	if r.bad || len(r.p) != 0 || flags&^(commitGone|commitFailed) != 0 {
		return nil, fmt.Errorf("%w: commit", ErrEncoding)
	}
	return c, nil
}

// encodeResult implements Op.
func (op RemoveOp) encodeResult(result any) []byte {
	out, _ := result.(Removal)
	var flags byte
	if out.Removed {
		flags |= removalRemoved
	}
	if out.Gone {
		flags |= removalGone
	}
	whole := out.Removed && out.Load < op.MergeThreshold
	if whole {
		flags |= removalBucket
	}
	buf := append(make([]byte, 0, 16), flags)
	buf = appendLabel(buf, out.Keep.Label)
	buf = binary.AppendUvarint(buf, uint64(out.Load))
	if whole {
		buf = append(buf, out.Keep.Marshal()...)
	}
	return buf
}

// DecodeResult implements Op: the Removal an owner reported. Its Keep holds
// records only when Load is under the op's MergeThreshold.
func (op RemoveOp) DecodeResult(data []byte) (any, error) {
	r := reader{p: data}
	flags := r.byte()
	out := Removal{Removed: flags&removalRemoved != 0, Gone: flags&removalGone != 0}
	out.Keep.Label = r.label()
	out.Load = r.int()
	if r.bad || flags&^(removalRemoved|removalGone|removalBucket) != 0 {
		return nil, fmt.Errorf("%w: removal", ErrEncoding)
	}
	if flags&removalBucket == 0 {
		if len(r.p) != 0 {
			return nil, fmt.Errorf("%w: removal: %d trailing bytes", ErrEncoding, len(r.p))
		}
		return out, nil
	}
	b, err := UnmarshalBucket(r.p)
	if err != nil || b.Label != out.Keep.Label || b.Load() != out.Load {
		return nil, fmt.Errorf("%w: removal: kept bucket", ErrEncoding)
	}
	out.Keep = b
	return out, nil
}
