package dht_test

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/wire"
)

// BenchmarkWALAppend measures the group-commit journal write: one Append
// call carrying a batch of records, encode + CRC + one copy into the mapped
// log, no fsync (SyncEveryAppend off, as in the durable Local's default
// configuration) except in batch-1-sync, which pays SyncEveryAppend's fsync
// on every Append. The delta and full pairs journal the steady state
// of an insert over the bucket codec — a 50-record leaf replaced by itself
// plus one record — as the append record the journal writes when it is told
// what the put replaces, and as the whole bucket it writes when it is not;
// their MB/s is log bytes, so the ratio of the two is the write amplification
// the append record removes. The removal pair does the same for a delete: a
// 51-record leaf replaced by itself without one record. The daemon cases are
// the same puts on a daemon's journal, whose values are the buckets'
// encodings (wire.DaemonCodec): the delta is cut from the bytes. bulk-1000
// is a bulk load's group of whole buckets.
func BenchmarkWALAppend(b *testing.B) {
	prev, next := bucket50()
	leaf, removed := removal50()
	for _, tc := range []struct {
		name       string
		codec      dht.Codec
		prev, next any
	}{
		{"delta", wire.BucketCodec{}, prev, next},
		{"full", wire.BucketCodec{}, nil, next},
		{"removal-delta", wire.BucketCodec{}, leaf, removed},
		{"removal-full", wire.BucketCodec{}, nil, removed},
		{"daemon-delta", wire.DaemonCodec{}, prev.Marshal(), next.Marshal()},
		{"daemon-full", wire.DaemonCodec{}, nil, next.Marshal()},
		{"daemon-removal-delta", wire.DaemonCodec{}, leaf.Marshal(), removed.Marshal()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := openWAL(b, tc.codec)
			recs := []dht.WALRecord{{Op: dht.WALPut, Key: "mlight/0011011", Value: tc.next, Prev: tc.prev}}
			if err := w.Append(recs); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(w.LogBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("bulk-1000", func(b *testing.B) {
		// A bulk load's group commit: a thousand fresh buckets, each put
		// whole. The log is reset between appends, off the clock.
		w := openWAL(b, wire.BucketCodec{})
		recs := make([]dht.WALRecord, 1000)
		for i := range recs {
			recs[i] = dht.WALRecord{Op: dht.WALPut, Key: dht.Key(fmt.Sprintf("mlight/%b", i)), Value: next}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.Append(recs); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := w.Compact(nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	for _, tc := range []struct {
		batch int
		sync  bool
	}{{1, false}, {16, false}, {256, false}, {1, true}} {
		name := fmt.Sprintf("batch-%d", tc.batch)
		if tc.sync {
			name += "-sync"
		}
		b.Run(name, func(b *testing.B) {
			w, err := dht.OpenWAL(dht.WALOptions{Dir: b.TempDir(), Codec: scalarCodec{}, CompactThreshold: -1, SyncEveryAppend: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			recs := make([]dht.WALRecord, tc.batch)
			for i := range recs {
				recs[i] = dht.WALRecord{Op: dht.WALPut, Key: dht.Key(fmt.Sprintf("bench-%d", i)), Value: i}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures Restore over a journal of the given
// size: the crash-recovery cost a durable Local pays in NewDurableLocal /
// Recover. The log-only variant replays every mutation; the compacted
// variant loads the snapshot plus an empty log tail.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, tc := range []struct {
		name    string
		records int
		compact bool
	}{
		{"log-1k", 1000, false},
		{"log-10k", 10000, false},
		{"snapshot-10k", 10000, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := dht.OpenWAL(dht.WALOptions{Dir: b.TempDir(), Codec: scalarCodec{}, CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			recs := make([]dht.WALRecord, tc.records)
			for i := range recs {
				recs[i] = dht.WALRecord{Op: dht.WALPut, Key: dht.Key(fmt.Sprintf("bench-%d", i)), Value: i}
			}
			if err := w.Append(recs); err != nil {
				b.Fatal(err)
			}
			if tc.compact {
				state, err := w.Restore()
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Compact(state); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state, err := w.Restore()
				if err != nil {
					b.Fatal(err)
				}
				if len(state) != tc.records {
					b.Fatalf("restored %d records, want %d", len(state), tc.records)
				}
			}
		})
	}
}
