package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// This file makes a bucket move look atomic to every other client. A split
// (§4.1, Theorem 5) keeps one piece under the old key and puts the others
// under theirs; a merge writes the merged bucket under one child's key and
// retires the other's. Each is several DHT operations, and between them
// another client must still find every record, and must not write one where
// the move will drop it. So the first operation of a move leaves a mark in
// the bucket it starts from: the pieces that leave it, frozen as they left.
//
//	split  AppendOp at fmd(λ) keeps the stayer and marks the moved pieces;
//	       InstallOp of each piece at fmd(piece), into the empty key;
//	       ClearOp at fmd(λ) drops the mark.
//	merge  RetireOp at the key of the child x named by the parent marks x
//	       whole; InstallOp of x at fmd(parent) absorbs it into the sibling
//	       stored there; ClearOp at x's key leaves a tombstone in its place.
//
// A marked bucket answers a §5 probe as the leaf it was before the move
// (reported), so a search that reaches it ends there. A frozen piece is read
// where it was going (hop.target) when a bucket there covers the point — the
// piece, or what it has become since — and from the mark otherwise, since no
// write reaches a piece before it is installed: an op that meets a frozen
// piece answers with a hop instead of writing, and the writer installs the
// piece (the same InstallOp the mover sends; it writes only into an empty key,
// or into the sibling it absorbs) and runs its write at the target. Every op
// checks the label it finds, so no step of a move is a blind Put or Remove,
// and a step that finds it has been done already does nothing.
//
// A move costs the ops the paper charges (the split's op and one install a
// moved piece; the merge's sibling read, write and retirement) plus one: the
// split's clear, and the merge's retirement, now two ops where a Remove was.
// The ops at the key the move starts from are the owner's own rewrites,
// uncounted as §4.1's local rewrites are.

// extFlag marks a bucket encoding that carries an extension — a move, a
// merge count, a tombstone: the high bit of the label length byte, which no
// label reaches (bitlabel.MaxLen is 64). A bucket without one encodes as it
// always has.
const extFlag = 0x80

// move is what a marked bucket hands over. A split's stays beside the
// stayer's records until every piece is installed; a retiring bucket's is the
// bucket itself, bound for its parent, to be absorbed by the sibling of merge
// count expect.
type move struct {
	retire bool
	expect uint64
	pieces []Bucket
}

// extension is what a bucket carries beyond its label and records: the move
// it is in, the merges behind it (gen), whether it is a tombstone.
type extension struct {
	move *move
	gen  uint64
	tomb bool
}

// mark returns the move the bucket is in, nil for none.
func (b Bucket) mark() *move {
	if b.x == nil {
		return nil
	}
	return b.x.move
}

// merges returns the bucket's merge count.
func (b Bucket) merges() uint64 {
	if b.x == nil {
		return 0
	}
	return b.x.gen
}

// tombstone reports whether the bucket is a merge's tombstone.
func (b Bucket) tombstone() bool { return b.x != nil && b.x.tomb }

// withExt returns b with the given extension, nil when it is empty.
func (b Bucket) withExt(mv *move, gen uint64, tomb bool) Bucket {
	if mv == nil && gen == 0 && !tomb {
		b.x = nil
	} else {
		b.x = &extension{move: mv, gen: gen, tomb: tomb}
	}
	return b
}

// withMove returns b in the move mv (none for nil), its count kept.
func (b Bucket) withMove(mv *move) Bucket { return b.withExt(mv, b.merges(), b.tombstone()) }

// withGen returns b counting gen merges.
func (b Bucket) withGen(gen uint64) Bucket { return b.withExt(b.mark(), gen, b.tombstone()) }

// Merge counts keep a late step of an old move off a key that has moved on
// since. A merge's bucket counts one more merge than either child, and the
// key it retires keeps a tombstone counting as many: a bucket every probe and
// op reads as nothing, except an install, which it admits only for a piece
// counting at least as many merges — a piece of a split of the merged bucket
// or of what it became, never a piece of the move the merge undid. An absorb
// admits only the sibling the merge read. A tree that never merged counts
// none, and no bucket of it carries an extension.

// hop is one frozen piece of a move and the way it goes: put under its own
// name, or absorbed into its sibling, of merge count expect, under its
// parent's.
type hop struct {
	piece  Bucket
	absorb bool
	expect uint64
}

// target is the label of the key the piece goes to.
func (h hop) target(m int) bitlabel.Label {
	if h.absorb {
		return bitlabel.Name(h.piece.Label.Parent(), m)
	}
	return bitlabel.Name(h.piece.Label, m)
}

// arrived reports whether a bucket read at the hop's target holds the piece's
// records: its label is the piece's, or an ancestor's after an absorb.
func (h hop) arrived(at Bucket) bool {
	return at.reported().IsPrefixOf(h.piece.Label) && !h.supersedes(at)
}

// gone reports whether the piece arrived and has moved on since: its target
// holds the tombstone of a merge that took it in, which counts more merges.
// A tombstone counting no more is older than the piece, and reads as nothing.
func (h hop) gone(at Bucket) bool { return at.tombstone() && at.merges() > h.piece.merges() }

// supersedes reports whether the piece is newer than what its target holds:
// a bucket retiring under the piece's own label that was absorbed since, into
// the bucket whose split the piece comes from — it counts fewer merges.
func (h hop) supersedes(at Bucket) bool {
	return at.mark() != nil && at.mark().retire && at.Label == h.piece.Label && at.merges() < h.piece.merges()
}

// extended reports whether the bucket's encoding carries an extension.
func (b Bucket) extended() bool { return b.x != nil }

// exists reports whether b is a stored bucket rather than the zero Bucket an
// owner that stores bytes passes RunEncoded for a key that holds none, or a
// tombstone, which reads as none: every stored bucket has a label.
func (b Bucket) exists() bool { return !b.Label.IsEmpty() && !b.tombstone() }

// unmarked returns the bucket without its mark: the stayer of a split, the
// retiring bucket itself.
func (b Bucket) unmarked() Bucket { return b.withMove(nil) }

// reported is the label a bucket answers a probe with: its own, or while it
// splits the leaf that split — the longest common prefix of what stays and
// what moves.
func (b Bucket) reported() bitlabel.Label {
	l := b.Label
	if b.mark() != nil {
		for _, p := range b.mark().pieces {
			l = l.CommonPrefix(p.Label)
		}
	}
	return l
}

// hops returns the frozen pieces of the bucket's move.
func (b Bucket) hops() []hop {
	switch {
	case b.mark() == nil:
		return nil
	case b.mark().retire:
		return []hop{{piece: b.unmarked(), absorb: true, expect: b.mark().expect}}
	}
	hs := make([]hop, len(b.mark().pieces))
	for i, p := range b.mark().pieces {
		hs[i] = hop{piece: p}
	}
	return hs
}

// hopFor returns the frozen piece whose cell covers key, if any.
func (b Bucket) hopFor(key spatial.Point) (hop, bool) {
	for _, h := range b.hops() {
		if covers(h.piece.Label, key) {
			return h, true
		}
	}
	return hop{}, false
}

// withPieces returns b marked with the pieces of a split added to its move;
// the pieces count b's merges.
func (b Bucket) withPieces(cells []kdtree.Cell) Bucket {
	mv := &move{}
	if old := b.mark(); old != nil {
		mv.pieces = append(mv.pieces, old.pieces...)
	}
	for _, c := range cells {
		mv.pieces = append(mv.pieces, NewBucket(c.Label, c.Records).withGen(b.merges()))
	}
	return b.withMove(mv)
}

const (
	extMove   = 1
	extTomb   = 2
	extRetire = 4
)

// extSize is the size of the bucket's extension: a flags byte, the merge
// count, and a move — a retiring bucket's sibling count, the piece count,
// each piece as a length and a bucket. Zero for none.
func (b Bucket) extSize() int {
	if !b.extended() {
		return 0
	}
	n := 1 + uvarintLen(b.x.gen)
	if mv := b.x.move; mv != nil {
		if mv.retire {
			n += uvarintLen(mv.expect)
		}
		n += uvarintLen(uint64(len(mv.pieces)))
		for _, p := range mv.pieces {
			s := p.MarshalSize()
			n += uvarintLen(uint64(s)) + s
		}
	}
	return n
}

// appendExt appends the bucket's extension.
func (b Bucket) appendExt(buf []byte) []byte {
	var flags byte
	if b.x.tomb {
		flags |= extTomb
	}
	mv := b.x.move
	if mv != nil {
		flags |= extMove
		if mv.retire {
			flags |= extRetire
		}
	}
	buf = binary.AppendUvarint(append(buf, flags), b.x.gen)
	if mv == nil {
		return buf
	}
	if mv.retire {
		buf = binary.AppendUvarint(buf, mv.expect)
	}
	buf = binary.AppendUvarint(buf, uint64(len(mv.pieces)))
	for _, p := range mv.pieces {
		buf = p.AppendMarshal(binary.AppendUvarint(buf, uint64(p.MarshalSize())))
	}
	return buf
}

// readExt decodes an extension at the front of buf and reports how many bytes
// it took. The pieces are copies, and carry no move.
func readExt(buf []byte) (*extension, int, error) {
	r := reader{p: buf}
	flags := r.byte()
	gen, n := binary.Uvarint(r.p)
	// An extension that carries nothing is not written (Bucket.withExt), so
	// it is not read either: a bucket has one encoding.
	if r.bad || n <= 0 || flags&^(extMove|extTomb|extRetire) != 0 || flags&extRetire != 0 && flags&extMove == 0 || flags == 0 && gen == 0 {
		return nil, 0, fmt.Errorf("%w: extension", ErrEncoding)
	}
	r.p = r.p[n:]
	x := &extension{gen: gen, tomb: flags&extTomb != 0}
	if flags&extMove == 0 {
		return x, len(buf) - len(r.p), nil
	}
	x.move = &move{retire: flags&extRetire != 0}
	if x.move.retire {
		expect, n := binary.Uvarint(r.p)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: extension", ErrEncoding)
		}
		x.move.expect, r.p = expect, r.p[n:]
	}
	count := r.int()
	if r.bad || count > len(r.p) || x.move.retire && count > 0 {
		return nil, 0, fmt.Errorf("%w: move", ErrEncoding)
	}
	for i := 0; i < count; i++ {
		p, err := UnmarshalBucket(r.chunk())
		if r.bad || err != nil || p.mark() != nil || p.tombstone() {
			return nil, 0, fmt.Errorf("%w: move piece %d", ErrEncoding, i)
		}
		x.move.pieces = append(x.move.pieces, p)
	}
	return x, len(buf) - len(r.p), nil
}

// InstallOp takes a frozen piece of a move to its target: into the key when
// it is empty, or, when Absorb is set, merged with the sibling leaf stored
// there into their parent — split again by Rule should the pair have grown
// past the split bound since the merge was decided. Its result is a Commit:
// Keep's label is what the key holds afterwards, Gone that the piece did not
// arrive (the key holds something else), Moved the pieces of such a split.
//
// A key that holds a tombstone admits a piece only when the piece counts at
// least the tombstone's merges, and an absorb takes only a sibling of merge
// count Expect: a late step of a move that others finished, and undid since,
// finds the key moved on and does nothing.
type InstallOp struct {
	Rule   SplitRule
	Piece  Bucket
	Absorb bool
	Expect uint64
}

// RetireOp starts a merge at the retired child's key: it marks the bucket
// labeled Label whole and answers with it; any other bucket, or a bucket
// already moving, is left alone and answered with its label.
type RetireOp struct {
	Label bitlabel.Label
	// Expect is the merge count of the sibling that is to absorb it.
	Expect uint64
}

// Retired is what a RetireOp found: the bucket it marked, or, when Done is
// false, the reported label of what the key holds.
type Retired struct {
	Bucket Bucket
	Done   bool
}

// ClearOp ends a move at the bucket it started from: a split's mark loses
// the pieces labeled Labels; a retiring bucket labeled one of them leaves a
// tombstone, or is kept unmarked again when Restore is set (the merge was
// given up).
type ClearOp struct {
	Labels  []bitlabel.Label
	Restore bool
}

var (
	_ Op = InstallOp{}
	_ Op = RetireOp{}
	_ Op = ClearOp{}
)

// install decides what an InstallOp does to the stored bucket: the commit it
// reports and, when write is set, the bucket to store.
func (op InstallOp) install(stored Bucket, exists bool) (c Commit, next Bucket, write bool) {
	p := op.Piece
	exists = exists && !stored.tombstone()
	switch {
	case !op.Absorb && (hop{piece: p}).supersedes(stored):
		// The bucket retiring here was absorbed, and what absorbed it has
		// split again since: the piece replaces it.
		return Commit{Keep: Bucket{Label: p.Label}, Load: p.Load(), Gen: p.merges()}, p, true
	case exists && stored.reported().IsPrefixOf(p.Label):
		return Commit{Keep: Bucket{Label: stored.reported()}, Load: stored.Load(), Gen: stored.merges()}, Bucket{}, false
	case !op.Absorb && !exists && (!stored.tombstone() || p.merges() >= stored.merges()):
		return Commit{Keep: Bucket{Label: p.Label}, Load: p.Load(), Gen: p.merges()}, p, true
	case op.Absorb && exists && stored.mark() == nil && stored.Label == p.Label.Sibling() && stored.merges() == op.Expect:
		parent := p.Label.Parent()
		records := append(stored.Records(), p.Records()...)
		gen := max(stored.merges(), p.merges()) + 1
		if op.Rule.underSplitBound(len(records), parent) {
			merged := NewBucket(parent, records).withGen(gen)
			return Commit{Keep: Bucket{Label: parent}, Load: len(records), Gen: gen}, merged, true
		}
		c := op.Rule.Append(Bucket{Label: parent}, records)
		if c.Err != nil {
			return Commit{Err: c.Err}, Bucket{}, false
		}
		// The pieces are the maintenance of this move, not of an insert.
		keep := c.Keep.withGen(gen)
		if len(c.Moved) > 0 {
			keep = keep.withPieces(c.Moved)
		}
		return Commit{Keep: Bucket{Label: keep.Label}, Load: keep.Load(), Moved: c.Moved, Gen: gen}, keep, true
	}
	label := bitlabel.Label{}
	if exists {
		label = stored.reported()
	}
	return Commit{Keep: Bucket{Label: label}, Gone: true}, Bucket{}, false
}

// Run implements Op.
func (op InstallOp) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	c, b, write := op.install(stored, exists)
	if !write {
		return nil, false, c, nil
	}
	return b, true, c, nil
}

// RunEncoded implements Op.
func (op InstallOp) RunEncoded(stored Bucket) ([]byte, bool, []byte) {
	c, b, write := op.install(stored, stored.exists())
	if !write {
		return nil, false, op.encodeResult(c)
	}
	return b.Marshal(), true, op.encodeResult(c)
}

// retire decides a RetireOp.
func (op RetireOp) retire(stored Bucket, exists bool) (Retired, bool) {
	if !exists || stored.tombstone() || stored.mark() != nil || stored.Label != op.Label {
		return Retired{Bucket: Bucket{Label: stored.reported()}}, false
	}
	return Retired{Bucket: stored, Done: true}, true
}

// Run implements Op.
func (op RetireOp) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	r, write := op.retire(stored, exists)
	if !write {
		return nil, false, r, nil
	}
	return stored.withMove(&move{retire: true, expect: op.Expect}), true, r, nil
}

// RunEncoded implements Op.
func (op RetireOp) RunEncoded(stored Bucket) ([]byte, bool, []byte) {
	r, write := op.retire(stored, stored.exists())
	if !write {
		return nil, false, op.encodeResult(r)
	}
	return stored.withMove(&move{retire: true, expect: op.Expect}).Marshal(), true, op.encodeResult(r)
}

// clear decides a ClearOp: whether to write, and what. A retired bucket
// leaves a tombstone one merge past it (move.go).
func (op ClearOp) clear(stored Bucket, exists bool) (next Bucket, write bool) {
	if !exists || stored.mark() == nil {
		return Bucket{}, false
	}
	named := func(l bitlabel.Label) bool {
		for _, c := range op.Labels {
			if c == l {
				return true
			}
		}
		return false
	}
	if stored.mark().retire {
		switch {
		case !named(stored.Label):
			return Bucket{}, false
		case op.Restore:
			return stored.unmarked(), true
		}
		return Bucket{Label: stored.Label}.withExt(nil, stored.merges()+1, true), true
	}
	var left []Bucket
	for _, p := range stored.mark().pieces {
		if !named(p.Label) {
			left = append(left, p)
		}
	}
	if len(left) == len(stored.mark().pieces) {
		return Bucket{}, false
	}
	next = stored.unmarked()
	if len(left) > 0 {
		next = next.withMove(&move{pieces: left})
	}
	return next, true
}

// Run implements Op.
func (op ClearOp) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	stored, _ := cur.(Bucket)
	b, write := op.clear(stored, exists)
	if !write {
		return nil, false, nil, nil
	}
	return b, true, nil, nil
}

// RunEncoded implements Op.
func (op ClearOp) RunEncoded(stored Bucket) ([]byte, bool, []byte) {
	b, write := op.clear(stored, stored.exists() || stored.tombstone())
	if !write {
		return nil, false, nil
	}
	return b.Marshal(), true, nil
}

const (
	opInstall = 3
	opRetire  = 4
	opClear   = 5
)

func (op InstallOp) encode(buf []byte) []byte {
	buf = op.Rule.appendTo(append(buf, opInstall))
	var flags byte
	if op.Absorb {
		flags = 1
	}
	buf = binary.AppendUvarint(append(buf, flags), op.Expect)
	return op.Piece.AppendMarshal(buf)
}

func (op RetireOp) encode(buf []byte) []byte {
	return binary.AppendUvarint(appendLabel(append(buf, opRetire), op.Label), op.Expect)
}

func (op ClearOp) encode(buf []byte) []byte {
	var flags byte
	if op.Restore {
		flags = 1
	}
	buf = binary.AppendUvarint(append(buf, opClear, flags), uint64(len(op.Labels)))
	for _, l := range op.Labels {
		buf = appendLabel(buf, l)
	}
	return buf
}

// decodeInstall reads an InstallOp's byte form after its kind byte.
func decodeInstall(r *reader) (Op, error) {
	rule := r.rule()
	flags := r.byte()
	expect := r.uint()
	if r.bad || flags > 1 {
		return nil, errors.New("install: truncated")
	}
	if err := rule.check(); err != nil {
		return nil, fmt.Errorf("install: rule: %w", err)
	}
	p, err := UnmarshalBucket(r.p)
	if err != nil {
		return nil, fmt.Errorf("install: piece: %w", err)
	}
	if err := rule.checkPiece(p); err != nil {
		return nil, fmt.Errorf("install: %w", err)
	}
	return InstallOp{Rule: rule, Piece: p, Absorb: flags == 1, Expect: expect}, nil
}

// decodeRetire reads a RetireOp's byte form after its kind byte.
func decodeRetire(r *reader) (Op, error) {
	l := r.label()
	expect := r.uint()
	if r.bad || len(r.p) != 0 {
		return nil, errors.New("retire: label")
	}
	return RetireOp{Label: l, Expect: expect}, nil
}

// decodeClear reads a ClearOp's byte form after its kind byte.
func decodeClear(r *reader) (Op, error) {
	flags := r.byte()
	n := r.int()
	if r.bad || flags > 1 || n > len(r.p)/9 {
		return nil, errors.New("clear: truncated")
	}
	op := ClearOp{Restore: flags == 1, Labels: make([]bitlabel.Label, n)}
	for i := range op.Labels {
		op.Labels[i] = r.label()
	}
	if r.bad || len(r.p) != 0 {
		return nil, errors.New("clear: labels")
	}
	return op, nil
}

// checkPiece rejects a piece no index would move: an unmarked bucket whose
// label lies within the rule's depth and whose records are of the rule's
// dimensionality, inside its cell.
func (r SplitRule) checkPiece(p Bucket) error {
	if p.mark() != nil || p.tombstone() || p.Label.Len() < r.Dims+1 || r.remainingDepth(p.Label) < 0 {
		return fmt.Errorf("piece %v", p.Label)
	}
	cell, err := spatial.RegionOf(p.Label, r.Dims)
	if err != nil {
		return fmt.Errorf("piece %v: %w", p.Label, err)
	}
	if p.Load() > 0 && p.dims() != r.Dims {
		return fmt.Errorf("piece %v holds %d-dimensional records", p.Label, p.dims())
	}
	for i := 0; i < p.Load(); i++ {
		if !cell.Contains(p.KeyAt(i)) {
			return fmt.Errorf("piece %v: record %d outside its cell", p.Label, i)
		}
	}
	return nil
}

// encodeResult implements Op: an install's result is a Commit, written as an
// append's is.
func (op InstallOp) encodeResult(result any) []byte {
	return AppendOp{Rule: op.Rule}.encodeResult(result)
}

// DecodeResult implements Op.
func (op InstallOp) DecodeResult(data []byte) (any, error) {
	return AppendOp{Rule: op.Rule}.DecodeResult(data)
}

// encodeResult implements Op: a flags byte (1 done), then the marked bucket
// when done and the label found otherwise.
func (op RetireOp) encodeResult(result any) []byte {
	r, _ := result.(Retired)
	if !r.Done {
		return appendLabel([]byte{0}, r.Bucket.Label)
	}
	return r.Bucket.unmarked().AppendMarshal([]byte{1})
}

// DecodeResult implements Op.
func (op RetireOp) DecodeResult(data []byte) (any, error) {
	if len(data) == 0 || data[0] > 1 {
		return nil, fmt.Errorf("%w: retired", ErrEncoding)
	}
	if data[0] == 0 {
		r := reader{p: data[1:]}
		l := r.label()
		if r.bad || len(r.p) != 0 {
			return nil, fmt.Errorf("%w: retired", ErrEncoding)
		}
		return Retired{Bucket: Bucket{Label: l}}, nil
	}
	b, err := UnmarshalBucket(data[1:])
	if err != nil || b.mark() != nil || b.Label != op.Label {
		return nil, fmt.Errorf("%w: retired bucket", ErrEncoding)
	}
	return Retired{Bucket: b, Done: true}, nil
}

// encodeResult implements Op: a clear answers nothing.
func (op ClearOp) encodeResult(any) []byte { return nil }

// DecodeResult implements Op.
func (op ClearOp) DecodeResult(data []byte) (any, error) {
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: clear result", ErrEncoding)
	}
	return nil, nil
}

// appendHop appends a hop's byte form: a flags byte (1 absorb) and the piece
// as a length and a bucket.
func appendHop(buf []byte, h *hop) []byte {
	var flags byte
	if h.absorb {
		flags = 1
	}
	buf = binary.AppendUvarint(append(buf, flags), h.expect)
	buf = binary.AppendUvarint(buf, uint64(h.piece.MarshalSize()))
	return h.piece.AppendMarshal(buf)
}

// hop reads a hop's byte form.
func (r *reader) hop() *hop {
	flags := r.byte()
	expect := r.uint()
	p, err := UnmarshalBucket(r.chunk())
	if r.bad || err != nil || flags > 1 || p.mark() != nil || p.tombstone() {
		r.bad = true
		return nil
	}
	return &hop{piece: p, absorb: flags == 1, expect: expect}
}

// install sends the piece of a hop to its target, as the mover does, and
// returns the target's label. An absorb the target refuses — the sibling is
// no longer the leaf stored there — gives the merge up: the retiring bucket
// is restored, and its own key is returned.
func (ix *Index) install(h hop) (bitlabel.Label, error) {
	m := ix.opts.Dims
	target := h.target(m)
	res, err := dht.Do(ix.d, labelKey(target), InstallOp{Rule: ix.splitRule(), Piece: h.piece, Absorb: h.absorb, Expect: h.expect})
	if err != nil {
		return bitlabel.Label{}, fmt.Errorf("core: install %v at %v: %w", h.piece.Label, target, err)
	}
	c, _ := res.(Commit)
	switch {
	case c.Err != nil:
		return bitlabel.Label{}, fmt.Errorf("core: install %v at %v: %w", h.piece.Label, target, c.Err)
	case len(c.Moved) > 0:
		return target, ix.finishMove(target, c.Moved, c.Gen)
	case c.Gone && h.absorb:
		own := bitlabel.Name(h.piece.Label, m)
		if _, err := dht.Do(ix.d, labelKey(own), ClearOp{Labels: []bitlabel.Label{h.piece.Label}, Restore: true}); err != nil {
			return bitlabel.Label{}, fmt.Errorf("core: restore %v: %w", h.piece.Label, err)
		}
		return own, nil
	}
	return target, nil
}

// finishMove ends a split that left key: the moved pieces — counting gen
// merges, as the bucket they left does — are installed in one batch round,
// independent keys, so the transfers overlap up to Tuning.MaxInFlight,
// charged as the Puts they replace were; then the mark at key is cleared.
// Each installed piece is one DHT operation; the records it carries were
// charged where the split was decided.
func (ix *Index) finishMove(key bitlabel.Label, cells []kdtree.Cell, gen uint64) error {
	if len(cells) == 0 {
		return nil
	}
	if err := errors.Join(ix.installPieces(pieces(cells, gen))...); err != nil {
		return err
	}
	return ix.clearMove(key, cells)
}

// pieces returns the buckets of a split's moved cells.
func pieces(cells []kdtree.Cell, gen uint64) []Bucket {
	out := make([]Bucket, len(cells))
	for i, c := range cells {
		out[i] = NewBucket(c.Label, c.Records).withGen(gen)
	}
	return out
}

// clearMove drops the pieces of a split from the mark at key. It is the
// owner's own rewrite of its bucket, uncounted as §4.1's local rewrites are.
func (ix *Index) clearMove(key bitlabel.Label, cells []kdtree.Cell) error {
	labels := make([]bitlabel.Label, len(cells))
	for i, c := range cells {
		labels[i] = c.Label
	}
	if _, err := dht.Do(ix.raw, labelKey(key), ClearOp{Labels: labels}); err != nil {
		return fmt.Errorf("core: clear move at %v: %w", key, err)
	}
	return nil
}

// installPieces installs split pieces under their own names in one metered
// batch round; the errors are positional.
func (ix *Index) installPieces(pieces []Bucket) []error {
	if len(pieces) == 0 {
		return nil
	}
	rule, m := ix.splitRule(), ix.opts.Dims
	errs := make([]error, len(pieces))
	ix.stats.BatchProbes.Add(int64(len(pieces)))
	ix.stats.BatchRounds.Inc()
	inFlight := len(pieces)
	if ix.opts.MaxInFlight >= 1 && ix.opts.MaxInFlight < inFlight {
		inFlight = ix.opts.MaxInFlight
	}
	ix.stats.MaxInFlight.Observe(int64(inFlight))
	dht.Fan(len(pieces), ix.opts.MaxInFlight, func(i int) {
		p := pieces[i]
		res, err := dht.Do(ix.d, labelKey(bitlabel.Name(p.Label, m)), InstallOp{Rule: rule, Piece: p})
		if c, _ := res.(Commit); err == nil && c.Err != nil {
			err = c.Err
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: install %v: %w", p.Label, err)
		}
	})
	return errs
}
