package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestDecodingNeverAliasesItsInput: a decoded bucket is one copy of what it
// needs. Every input — the bytes of a bucket, of a delta, of a daemon's stored
// value — is overwritten after decoding, and every record of the result is
// still what it was: a restored bucket pins no read buffer, and a caller that
// reuses its own sees nothing change.
func TestDecodingNeverAliasesItsInput(t *testing.T) {
	label := bitlabel.Root(2)
	recs := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "first"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.9, 0.1}, Data: "third"},
		{Key: spatial.Point{0.3, 0.6}, Data: "appended"},
	}
	base, three, four := core.NewBucket(label, recs[:2]), core.NewBucket(label, recs[:3]), core.NewBucket(label, recs)
	appendDelta, ok := core.CutDelta(nil, base, four)
	if !ok {
		t.Fatal("no append delta")
	}
	removalDelta, ok := core.CutDelta(nil, three, base)
	if !ok {
		t.Fatal("no removal delta")
	}
	// A decoder is handed fresh copies of the inputs, which are overwritten
	// once it returns.
	type decoder func(in [][]byte) (any, error)
	for name, tc := range map[string]struct {
		in     [][]byte
		decode decoder
		want   core.Bucket
	}{
		"UnmarshalBucket": {[][]byte{four.Marshal()}, func(in [][]byte) (any, error) { return UnmarshalBucket(in[0]) }, four},
		"BucketCodec.Unmarshal": {[][]byte{four.Marshal()}, func(in [][]byte) (any, error) {
			return BucketCodec{}.Unmarshal(in[0])
		}, four},
		"BucketCodec.ApplyDelta append": {[][]byte{base.Marshal(), appendDelta}, func(in [][]byte) (any, error) {
			b, err := UnmarshalBucket(in[0])
			if err != nil {
				return nil, err
			}
			return BucketCodec{}.ApplyDelta(b, in[1])
		}, four},
		"BucketCodec.ApplyDelta removal": {[][]byte{three.Marshal(), removalDelta}, func(in [][]byte) (any, error) {
			b, err := UnmarshalBucket(in[0])
			if err != nil {
				return nil, err
			}
			return BucketCodec{}.ApplyDelta(b, in[1])
		}, base},
		"DaemonCodec.ApplyDelta append": {[][]byte{base.Marshal(), appendDelta}, func(in [][]byte) (any, error) {
			return DaemonCodec{}.ApplyDelta(in[0], in[1])
		}, four},
		"DaemonCodec.ApplyDelta removal": {[][]byte{three.Marshal(), removalDelta}, func(in [][]byte) (any, error) {
			return DaemonCodec{}.ApplyDelta(in[0], in[1])
		}, base},
	} {
		t.Run(name, func(t *testing.T) {
			in := make([][]byte, len(tc.in))
			for i := range in {
				in[i] = bytes.Clone(tc.in[i])
			}
			got, err := tc.decode(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range in {
				for i := range b {
					b[i] = 0xa5
				}
			}
			var b core.Bucket
			switch v := got.(type) {
			case core.Bucket:
				b = v
			case []byte:
				if b, err = UnmarshalBucket(v); err != nil {
					t.Fatalf("the decoded encoding no longer decodes: %v", err)
				}
			default:
				t.Fatalf("decoded %T", got)
			}
			if b.Label != tc.want.Label || b.Load() != tc.want.Load() {
				t.Fatalf("decoded %v with %d records, want %v with %d", b.Label, b.Load(), tc.want.Label, tc.want.Load())
			}
			want := tc.want.Records()
			for i, rec := range b.Records() {
				if !sameRecord(rec, want[i]) {
					t.Fatalf("record %d = %v %q after the input was overwritten, want %v %q", i, rec.Key, rec.Data, want[i].Key, want[i].Data)
				}
			}
		})
	}
}

// TestReplayParentFixtures replays journals and a snapshot written by an
// earlier build (testdata/replay, made before buckets became views of their
// encodings): a daemon's WAL directory (DaemonCodec over a store of bucket
// encodings), a durable store's (BucketCodec over Bucket values) and an index
// snapshot, each of a few hundred records inserted and deleted with splits
// and merges. Every bucket restored must encode to the bytes that build held,
// listed key by key in each fixture's want.txt: the bucket format, the delta
// format and the snapshot frames may not move under the logs already on disk.
func TestReplayParentFixtures(t *testing.T) {
	for name, codec := range map[string]dht.Codec{"daemon-wal": DaemonCodec{}, "durable-wal": BucketCodec{}} {
		t.Run(name, func(t *testing.T) {
			dir := copyFixture(t, name)
			w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			state, err := w.Restore()
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[dht.Key][]byte, len(state))
			for k, v := range state {
				switch v := v.(type) {
				case core.Bucket:
					got[k] = v.Marshal()
				case []byte:
					b, err := UnmarshalBucket(v)
					if err != nil || !bytes.Equal(b.Marshal(), v) {
						t.Fatalf("key %q restored as %x, which is no bucket's encoding: %v", k, v, err)
					}
					got[k] = v
				default:
					t.Fatalf("key %q restored as %T", k, v)
				}
			}
			sameFixture(t, name, got)
		})
	}
	t.Run("snapshot", func(t *testing.T) {
		f, err := os.Open(filepath.Join(copyFixture(t, "snapshot"), "index.snap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ix, err := core.RestoreInto(dht.MustNewLocal(16), f, index.Tuning{Capacity: 8, MergeThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		buckets, err := ix.Buckets()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[dht.Key][]byte, len(buckets))
		for _, b := range buckets {
			got[b.Key(2)] = b.Marshal()
		}
		sameFixture(t, "snapshot", got)
	})
}

// copyFixture copies testdata/replay/name into a fresh directory: a WAL
// opens its directory for writing.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join("testdata", "replay", name), t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sameFixture holds got, key by key, to the fixture's want.txt: lines of the
// key's hex, a tab and the hex of the bucket's encoding.
func sameFixture(t *testing.T, name string, got map[dht.Key][]byte) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "replay", name, "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[dht.Key][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		hexKey, enc, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("want line without a tab: %q", sc.Text())
		}
		key, err := hex.DecodeString(hexKey)
		if err != nil {
			t.Fatal(err)
		}
		if want[dht.Key(key)], err = hex.DecodeString(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) < 20 || len(got) != len(want) {
		t.Fatalf("restored %d buckets, the fixture lists %d", len(got), len(want))
	}
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Errorf("key %q:\n got %x\nwant %x", k, got[k], w)
		}
	}
}
