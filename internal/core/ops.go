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
//	append   = 1, rule, uvarint count, count × record
//	rule     = 5 × uvarint (dims, max depth, strategy, θsplit, ε)
//	remove   = 2, uvarint θmerge, record (the key, and the data to match)
//	install  = 3, rule, flags (1 absorb), bucket (the piece)
//	retire   = 4, label
//	clear    = 5, flags (1 restore), uvarint count, count × label
//	commit   = flags (1 gone, 2 failed, 4 hop), 3 × uvarint (accepted, splits,
//	           records moved), uvarint stale count, stale × uvarint, label,
//	           uvarint load, uvarint moved count, moved × (uvarint length,
//	           bucket), failed: uvarint length, message, hop: hop
//	removal  = flags (1 removed, 2 gone, 4 bucket follows, 8 hop), label,
//	           uvarint load, hop: hop, bucket follows: bucket
//	hop      = flags (1 absorb), uvarint length, bucket (the frozen piece)
//	retired  = 0, label | 1, bucket
//	cleared  = nothing
//
// A bucket in the middle of a move carries it in its own encoding (move.go),
// so a stored bucket is still one value, which the ops below read whole.
//
// An op names no leaf: the owner runs it if the cell of whatever leaf is
// stored under the key covers the record(s). A reply says what was decided,
// not what is stored: the kept bucket travels as its label and load, and
// whole only after a removal that left it under θmerge — the one case in
// which the driver reads its records (mergeUpwards). A gone reply's label is
// the stored leaf's, the empty label (length 0) when the key holds nothing:
// all that a bucket read of the key would have told a §5 search, which
// therefore goes on from it.

// Op is the vocabulary: the transforms of this package that have a byte form.
type Op interface {
	// Run is the transform, in the shape of a dht.Op: result is a Commit for
	// an AppendOp and a Removal for a RemoveOp.
	Run(cur any, exists bool) (next any, write bool, result any, err error)
	// RunEncoded is Run at an owner that stores buckets as bytes, on a view
	// of the stored one (ViewBucket; the zero Bucket when the key holds
	// none): next is the encoding to store and result the byte form of Run's
	// result.
	RunEncoded(stored Bucket) (next []byte, write bool, result []byte)
	// DecodeResult reads the byte form of a result back.
	DecodeResult(data []byte) (any, error)
	encode(buf []byte) []byte
	encodeResult(result any) []byte
}

// AppendOp is SplitRule.Append as data: replay Records into the bucket stored
// under the key if its cell covers them.
type AppendOp struct {
	Rule    SplitRule
	Records []spatial.Record
}

// RemoveOp is Remove as data: take one record matching Key (and Data, when
// non-empty) out of the bucket stored under the key if its cell covers Key.
// MergeThreshold is the index's θmerge: a reply that crosses a socket carries
// the kept bucket's records only when fewer are left.
type RemoveOp struct {
	Key            spatial.Point
	Data           string
	MergeThreshold int
}

var (
	_ Op = AppendOp{}
	_ Op = RemoveOp{}
)

// commit is the op's decision on the stored bucket. It writes the kept bucket
// when a record was accepted. A commit that accepted nothing — the leaf is
// gone, every record is stale, the split machinery failed, the stored records
// are not of the rule's dimensionality — writes nothing.
//
// A split keeps the stayer marked with the pieces that leave it (move.go). A
// bucket in the middle of a move takes records into what stays (a split's
// stayer, marked pieces and all, its own split adding to them); records that
// only a frozen piece covers are stale, and when no record stays the commit
// is gone with the hop of the first record's piece.
func (op AppendOp) commit(stored Bucket) (c Commit, write bool) {
	if d := stored.dims(); stored.Load() > 0 && d != op.Rule.Dims {
		// Bytes a client stored: their records cannot share a bucket with
		// the rule's, nor be split by its dimensions.
		err := fmt.Errorf("core: leaf %v holds %d-dimensional records, the index %d", stored.Label, d, op.Rule.Dims)
		return Commit{Err: err}, false
	}
	if stored.tombstone() {
		return Commit{Gone: true}, false
	}
	if stored.mark() != nil && stored.mark().retire {
		return op.hopped(stored), false
	}
	c = op.Rule.Append(stored.unmarked(), op.Records)
	if c.Gone && stored.mark() != nil {
		return op.hopped(stored), false
	}
	if c.Err == nil {
		c.Keep.x, c.Gen = stored.x, stored.merges()
		if len(c.Moved) > 0 {
			c.Keep = c.Keep.withPieces(c.Moved)
		}
	}
	return c, !c.Gone && c.Err == nil && c.Accepted > 0
}

// hopped is the commit of an append that lands in no stayer of a moving
// bucket: gone, with the reported label, and the hop of the first record a
// frozen piece covers.
func (op AppendOp) hopped(stored Bucket) Commit {
	c := Commit{Keep: Bucket{Label: stored.reported()}, Gone: true}
	for _, rec := range op.Records {
		if h, ok := stored.hopFor(rec.Key); ok {
			c.Hop = &h
			break
		}
	}
	return c
}

// extends reports whether commit would take Append's first way, the stored
// bucket only extended by every record: the records are of the rule's
// dimensionality, its cell covers them all, and they keep it under the split
// bound.
func (op AppendOp) extends(stored Bucket) bool {
	if len(op.Records) == 0 || stored.extended() || stored.Load() > 0 && stored.dims() != op.Rule.Dims {
		return false
	}
	var s spatial.Scratch
	region, err := s.Cell(stored.Label, op.Rule.Dims)
	return err == nil && op.Rule.extends(region, stored.Label, stored.Load(), op.Records)
}

// Run implements Op.
func (op AppendOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	c, write := op.commit(stored)
	if !write {
		return nil, false, c, nil
	}
	return c.Keep, true, c, nil
}

// RunEncoded implements Op. Records that only extend the stored bucket are
// encoded once, behind the stored ones, into the kept bucket's encoding
// (marshalGrown); a split, a stale record or a refusal takes Append's way.
func (op AppendOp) RunEncoded(stored Bucket) ([]byte, bool, []byte) {
	if op.extends(stored) {
		n := len(op.Records)
		c := Commit{Keep: Bucket{Label: stored.Label}, Load: stored.Load() + n, Accepted: n}
		return stored.marshalGrown(op.Records), true, op.encodeResult(c)
	}
	c, write := op.commit(stored)
	if !write {
		return nil, false, op.encodeResult(c)
	}
	return c.Keep.Marshal(), true, op.encodeResult(c)
}

// Run implements Op: it stores the bucket without the record when one was
// removed.
func (op RemoveOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	out := Remove(stored, op.Key, op.Data)
	if !out.Removed {
		return nil, false, out, nil
	}
	return out.Keep, true, out, nil
}

// RunEncoded implements Op: Remove's decision, and the encoding of the
// bucket it keeps built straight from the stored one's (marshalCut). A reply
// that carries the kept bucket carries those bytes.
func (op RemoveOp) RunEncoded(stored Bucket) ([]byte, bool, []byte) {
	if stored.mark() != nil || stored.tombstone() {
		out := Remove(stored, op.Key, op.Data)
		if !out.Removed {
			return nil, false, op.removal(out, nil)
		}
		next := out.Keep.Marshal()
		return next, true, op.removal(out, out.Keep.unmarked().Marshal())
	}
	out, lo, hi := remove(stored, op.Key, op.Data)
	if !out.Removed {
		return nil, false, op.removal(out, nil)
	}
	next := stored.marshalCut(lo, hi)
	return next, true, op.removal(out, next)
}

const (
	opAppend = 1
	opRemove = 2

	commitGone   = 1
	commitFailed = 2
	commitHop    = 4
	commitGen    = 8

	removalRemoved = 1
	removalGone    = 2
	removalBucket  = 4
	removalHop     = 8
	removalGen     = 16
)

// ErrOp reports bytes that are not an op of the vocabulary, or one whose
// parameters no index would send.
var ErrOp = errors.New("core: malformed op")

// EncodeOp returns op's byte form.
func EncodeOp(op Op) []byte { return op.encode(nil) }

func (op AppendOp) encode(buf []byte) []byte {
	buf = op.Rule.appendTo(append(buf, opAppend))
	buf = binary.AppendUvarint(buf, uint64(len(op.Records)))
	for _, rec := range op.Records {
		buf = AppendRecord(buf, rec)
	}
	return buf
}

// appendTo appends the rule's byte form.
func (r SplitRule) appendTo(buf []byte) []byte {
	for _, v := range [...]int{r.Dims, r.MaxDepth, int(r.Strategy), r.ThetaSplit, r.Epsilon} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func (op RemoveOp) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(append(buf, opRemove), uint64(op.MergeThreshold))
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

// rule reads a SplitRule's byte form.
func (r *reader) rule() SplitRule {
	return SplitRule{Dims: r.int(), MaxDepth: r.int(), Strategy: SplitStrategy(r.int()), ThetaSplit: r.int(), Epsilon: r.int()}
}

// uint reads a uvarint.
func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p = r.p[n:]
	return v
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
// rest of the input, every key inside the unit cube. They are views into one
// copy of their encodings, as a decoded bucket's are.
func (r *reader) records(count, dims int) ([]spatial.Record, error) {
	_, size, err := checkRecords(r.p, uint64(count), uint64(dims), true)
	if err != nil {
		return nil, err
	}
	b := Bucket{n: count, enc: appendRecords(make([]byte, 0, size), r.p, count, size)}
	r.p = nil
	records := b.Records()
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
// rule inside the configuration bounds, records of the rule's dimensionality
// inside the unit cube, no more of them than the bytes can hold — or the error
// wraps ErrOp.
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
		rule := r.rule()
		count := r.int()
		if r.bad {
			return nil, errors.New("append: truncated")
		}
		if err := rule.check(); err != nil {
			return nil, fmt.Errorf("append: rule: %w", err)
		}
		records, err := r.records(count, rule.Dims)
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		return AppendOp{Rule: rule, Records: records}, nil
	case opRemove:
		theta := r.int()
		if r.bad {
			return nil, errors.New("remove: truncated")
		}
		dims, n := binary.Uvarint(r.p)
		if n <= 0 || dims < 1 || dims > uint64(bitlabel.MaxLen) {
			return nil, errors.New("remove: key dimensions")
		}
		// The one record is read straight into the op, past the framing
		// check every decoded record passes.
		if _, _, err := checkRecords(r.p, 1, dims, true); err != nil {
			return nil, fmt.Errorf("remove: %w", err)
		}
		p := r.p[n:]
		key := make(spatial.Point, dims)
		for j := range key {
			key[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*j:]))
		}
		p = p[8*dims:]
		if !key.Valid() {
			return nil, fmt.Errorf("remove: key %v outside the unit cube", key)
		}
		size, n := binary.Uvarint(p)
		return RemoveOp{Key: key, Data: string(p[n : n+int(size)]), MergeThreshold: theta}, nil
	case opInstall:
		return decodeInstall(&r)
	case opRetire:
		return decodeRetire(&r)
	case opClear:
		return decodeClear(&r)
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
	if c.Hop != nil {
		flags |= commitHop
	}
	if c.Gen != 0 {
		flags |= commitGen
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
	if c.Hop != nil {
		buf = appendHop(buf, c.Hop)
	}
	if c.Gen != 0 {
		buf = binary.AppendUvarint(buf, c.Gen)
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
	if flags&commitHop != 0 {
		c.Hop = r.hop()
	}
	if flags&commitGen != 0 {
		c.Gen = r.uint()
	}
	if r.bad || len(r.p) != 0 || flags&^(commitGone|commitFailed|commitHop|commitGen) != 0 {
		return nil, fmt.Errorf("%w: commit", ErrEncoding)
	}
	return c, nil
}

// encodeResult implements Op.
func (op RemoveOp) encodeResult(result any) []byte {
	out, _ := result.(Removal)
	var kept []byte
	if out.Removed && out.Load < op.MergeThreshold {
		kept = out.Keep.Marshal()
	}
	return op.removal(out, kept)
}

// removal is out's byte form, kept the encoding of its kept bucket — read
// only when the reply carries the bucket, which it does when Load is under
// θmerge.
func (op RemoveOp) removal(out Removal, kept []byte) []byte {
	var flags byte
	if out.Removed {
		flags |= removalRemoved
	}
	if out.Gone {
		flags |= removalGone
	}
	if out.Hop != nil {
		flags |= removalHop
	}
	if out.Keep.merges() != 0 {
		flags |= removalGen
	}
	if out.Removed && out.Load < op.MergeThreshold {
		flags |= removalBucket
	} else {
		kept = nil
	}
	buf := append(make([]byte, 0, 10+uvarintLen(uint64(out.Load))+len(kept)), flags)
	buf = appendLabel(buf, out.Keep.Label)
	buf = binary.AppendUvarint(buf, uint64(out.Load))
	if out.Hop != nil {
		buf = appendHop(buf, out.Hop)
	}
	if out.Keep.merges() != 0 {
		buf = binary.AppendUvarint(buf, out.Keep.merges())
	}
	return append(buf, kept...)
}

// DecodeResult implements Op: the Removal an owner reported. Its Keep holds
// records only when Load is under the op's MergeThreshold.
func (op RemoveOp) DecodeResult(data []byte) (any, error) {
	r := reader{p: data}
	flags := r.byte()
	out := Removal{Removed: flags&removalRemoved != 0, Gone: flags&removalGone != 0}
	out.Keep.Label = r.label()
	out.Load = r.int()
	if flags&removalHop != 0 {
		out.Hop = r.hop()
	}
	if flags&removalGen != 0 {
		out.Keep = out.Keep.withGen(r.uint())
	}
	if r.bad || flags&^(removalRemoved|removalGone|removalBucket|removalHop|removalGen) != 0 {
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
