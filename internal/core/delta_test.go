package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// TestBucketDeltaRecognisesExtensions: AppendDelta finds "prev, then more" by
// arena identity when the append shared the arenas, by content when it moved
// them or when the two buckets were packed separately, and finds nothing else.
func TestBucketDeltaRecognisesExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	records := randomRecords(rng, 40, 2)
	label := bitlabel.MustParse("0011011")
	exact := NewBucket(label, records[:30]) // exact-size arenas: the next append moves all three
	moved := exact.Append(records[30])      // …and leaves room, so this one's successors share
	shared := moved.Append(records[31]).Append(records[32])

	for name, tc := range map[string]struct {
		prev, next Bucket
		added      int
	}{
		"shared arenas":     {moved, shared, 2},
		"moved arenas":      {exact, moved, 1},
		"moved then shared": {exact, shared, 3},
		"packed separately": {NewBucket(label, records[:30]), NewBucket(label, records[:35]), 5},
		"onto empty":        {Bucket{Label: label}, NewBucket(label, records[:3]), 3},
		"nothing added":     {shared, shared, 0},
		"equal content":     {exact, NewBucket(label, records[:30]), 0},
		"both empty":        {Bucket{Label: label}, Bucket{Label: label}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			head := []byte("head")
			buf, ok := tc.next.AppendDelta(head, tc.prev)
			if !ok {
				t.Fatal("not recognised as an extension")
			}
			delta := buf[len(head):]
			if !bytes.Equal(buf[:len(head)], head) || (tc.added == 0) != (len(delta) == 0) {
				t.Fatalf("appended % x for %d added records", delta, tc.added)
			}
			if tc.added == 0 {
				return
			}
			// Replayed onto a decoded copy of prev — what a log replay holds.
			base, err := UnmarshalBucket(tc.prev.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			got, err := base.Extend(delta)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), tc.next.Marshal()) {
				t.Fatal("prev extended by the delta is not next")
			}
			if !bytes.Equal(base.Marshal(), tc.prev.Marshal()) {
				t.Fatal("Extend changed its receiver")
			}
		})
	}

	negZero := append([]spatial.Record(nil), records[:31]...)
	negZero[3] = spatial.Record{Key: spatial.Point{math.Copysign(0, -1), 0.5}, Data: negZero[3].Data}
	posZero := append([]spatial.Record(nil), negZero[:30]...)
	posZero[3] = spatial.Record{Key: spatial.Point{0, 0.5}, Data: negZero[3].Data}
	otherData := append([]spatial.Record(nil), records[:31]...)
	otherData[7].Data += "!"
	for name, tc := range map[string]struct{ prev, next Bucket }{
		"shorter":            {shared, moved},
		"another label":      {exact, NewBucket(label.Sibling(), records[:31])},
		"another coordinate": {exact, NewBucket(label, append(append([]spatial.Record(nil), records[1:30]...), records[0], records[30]))},
		"-0 is not +0":       {NewBucket(label, posZero), NewBucket(label, negZero)},
		"another payload":    {exact, NewBucket(label, otherData)},
		"other dims":         {NewBucket(label, randomRecords(rng, 2, 3)), NewBucket(label, records[:3])},
	} {
		t.Run(name, func(t *testing.T) {
			if buf, ok := tc.next.AppendDelta([]byte("head"), tc.prev); ok || string(buf) != "head" {
				t.Fatalf("AppendDelta = % x, %v; want the buffer untouched and false", buf, ok)
			}
		})
	}
}

// TestBucketExtendRefusesWhatDoesNotFit: a delta cut at another load is
// ErrDeltaBase, a malformed one ErrEncoding, and neither leaves anything
// behind.
func TestBucketExtendRefusesWhatDoesNotFit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	records := randomRecords(rng, 12, 2)
	label := bitlabel.Root(2)
	base := NewBucket(label, records[:10])
	delta, ok := NewBucket(label, records).AppendDelta(nil, base)
	if !ok {
		t.Fatal("no delta")
	}
	for name, tc := range map[string]struct {
		onto  Bucket
		delta []byte
		want  error
	}{
		"base too short":  {NewBucket(label, records[:9]), delta, ErrDeltaBase},
		"base too long":   {NewBucket(label, records[:11]), delta, ErrDeltaBase},
		"applied twice":   {NewBucket(label, records), delta, ErrDeltaBase},
		"truncated":       {base, delta[:len(delta)-3], ErrEncoding},
		"trailing bytes":  {base, append(append([]byte(nil), delta...), 0), ErrEncoding},
		"empty":           {base, nil, ErrEncoding},
		"other dims":      {NewBucket(label, randomRecords(rng, 10, 3)), delta, ErrEncoding},
		"count of a lie":  {base, []byte{10, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0}, ErrEncoding},
		"count of zero":   {base, []byte{10, 0}, ErrEncoding},
		"payload too big": {base, append([]byte{10, 1, 2}, make([]byte, 16)...), ErrEncoding}, // no payload length follows the point
	} {
		t.Run(name, func(t *testing.T) {
			before := tc.onto.Marshal()
			got, err := tc.onto.Extend(tc.delta)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Extend = %v, want %v", err, tc.want)
			}
			if got.Load() != 0 || !bytes.Equal(tc.onto.Marshal(), before) {
				t.Fatal("a refused delta left records behind")
			}
		})
	}
}
