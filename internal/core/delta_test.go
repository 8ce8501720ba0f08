package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// TestBucketDeltaRecognisesExtensions: CutDelta finds "prev, then more" by
// identity when the append wrote into prev's spare capacity, by content when
// it moved the bytes or when the two buckets were packed separately, and finds
// nothing else.
func TestBucketDeltaRecognisesExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	records := randomRecords(rng, 40, 2)
	label := bitlabel.MustParse("0011011")
	exact := NewBucket(label, records[:30]) // exact size: the next append moves the bytes
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
			buf, ok := CutDelta(head, tc.prev, tc.next)
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
			got, err := ReplayDelta(base, delta)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), tc.next.Marshal()) {
				t.Fatal("prev extended by the delta is not next")
			}
			if !bytes.Equal(base.Marshal(), tc.prev.Marshal()) {
				t.Fatal("ReplayDelta changed its base")
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
			if buf, ok := CutDelta([]byte("head"), tc.prev, tc.next); ok || string(buf) != "head" {
				t.Fatalf("CutDelta = % x, %v; want the buffer untouched and false", buf, ok)
			}
		})
	}
}

// TestBucketDeltaRecognisesRemovals: a bucket that is prev without one record
// — cut by Remove, or packed separately — is a removal delta of a few bytes
// naming a record whose removal gives it back, and replayed onto a decoded
// copy of prev it is that bucket, byte for byte. Among equal records the delta
// may name another than the one removed; the bucket it gives is the same.
func TestBucketDeltaRecognisesRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	records := randomRecords(rng, 30, 2)
	label := bitlabel.Root(2) // covers every record, so Remove finds them
	twins := append(append([]spatial.Record(nil), records[:5]...), records[4], records[4], records[5])
	for name, tc := range map[string]struct {
		prev Bucket
		i    int
	}{
		"first":           {NewBucket(label, records), 0},
		"middle":          {NewBucket(label, records), 13},
		"last":            {NewBucket(label, records), 29},
		"only":            {NewBucket(label, records[:1]), 0},
		"first of twins":  {NewBucket(label, twins), 4},
		"middle of twins": {NewBucket(label, twins), 5},
	} {
		t.Run(name, func(t *testing.T) {
			rec := tc.prev.RecordAt(tc.i)
			for how, next := range map[string]Bucket{
				"removed": Remove(tc.prev, rec.Key, rec.Data).Keep,
				"packed":  NewBucket(label, slices.Delete(tc.prev.Records(), tc.i, tc.i+1)),
			} {
				head := []byte("head")
				buf, ok := CutDelta(head, tc.prev, next)
				if !ok || !bytes.Equal(buf[:len(head)], head) {
					t.Fatalf("%s: not recognised as a removal: % x, %v", how, buf, ok)
				}
				delta := buf[len(head):]
				from, n := binary.Uvarint(delta)
				count, m := binary.Uvarint(delta[n:])
				i, k := binary.Uvarint(delta[n+m:])
				if from != uint64(tc.prev.Load()) || count != 0 || k <= 0 || n+m+k != len(delta) || len(delta) > 6 {
					t.Fatalf("%s: delta % x for record %d of %d", how, delta, tc.i, tc.prev.Load())
				}
				if got := tc.prev.RecordAt(int(i)); !slices.Equal(got.Key, rec.Key) || got.Data != rec.Data {
					t.Fatalf("%s: delta names record %d, %v; %d, %v was removed", how, i, got, tc.i, rec)
				}
				base, err := UnmarshalBucket(tc.prev.Marshal())
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReplayDelta(base, delta)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Marshal(), next.Marshal()) {
					t.Fatalf("%s: prev replayed through the delta is not next", how)
				}
				if !bytes.Equal(base.Marshal(), tc.prev.Marshal()) {
					t.Fatalf("%s: ReplayDelta changed its base", how)
				}
			}
		})
	}

	full := NewBucket(label, records)
	swapped := append(append([]spatial.Record(nil), records[:10]...), records[11:]...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	edited := append(append([]spatial.Record(nil), records[:10]...), records[11:]...)
	edited[20].Data += "!"
	for name, tc := range map[string]struct{ prev, next Bucket }{
		"two fewer":       {full, NewBucket(label, records[2:])},
		"another order":   {full, NewBucket(label, swapped)},
		"another payload": {full, NewBucket(label, edited)},
		"another label":   {full, NewBucket(bitlabel.MustParse("0011011"), records[1:])},
		"other dims":      {NewBucket(label, randomRecords(rng, 3, 3)), NewBucket(label, records[:2])},
	} {
		t.Run(name, func(t *testing.T) {
			if buf, ok := CutDelta([]byte("head"), tc.prev, tc.next); ok || string(buf) != "head" {
				t.Fatalf("CutDelta = % x, %v; want the buffer untouched and false", buf, ok)
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
	delta, ok := CutDelta(nil, base, NewBucket(label, records))
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
		"count of zero":   {base, []byte{10, 0}, ErrEncoding}, // a removal with no index
		"index = from":    {base, []byte{10, 0, 10}, ErrEncoding},
		"index past from": {base, []byte{10, 0, 0xff, 0x7f}, ErrEncoding},
		"removal, twice":  {NewBucket(label, records[:9]), []byte{10, 0, 3}, ErrDeltaBase},
		"removal, empty":  {Bucket{Label: label}, []byte{0, 0, 0}, ErrEncoding},
		"removal, tail":   {base, []byte{10, 0, 3, 0}, ErrEncoding},
		"payload too big": {base, append([]byte{10, 1, 2}, make([]byte, 16)...), ErrEncoding}, // no payload length follows the point
	} {
		t.Run(name, func(t *testing.T) {
			before := tc.onto.Marshal()
			got, err := ReplayDelta(tc.onto, tc.delta)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReplayDelta = %v, want %v", err, tc.want)
			}
			if got.Load() != 0 || !bytes.Equal(tc.onto.Marshal(), before) {
				t.Fatal("a refused delta left records behind")
			}
		})
	}
}
