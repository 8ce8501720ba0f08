package dht_test

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
)

// BenchmarkWALAppend measures the group-commit journal write: one Append
// call carrying a batch of records, encode + CRC + single write, no
// per-record fsync (SyncEveryAppend off, as in the durable Local's
// default configuration). The delta and full pairs journal the steady state
// of an insert over the bucket codec — a 50-record leaf replaced by itself
// plus one record — as the append record the journal writes when it is told
// what the put replaces, and as the whole bucket it writes when it is not;
// their MB/s is log bytes, so the ratio of the two is the write amplification
// the append record removes.
func BenchmarkWALAppend(b *testing.B) {
	prev, next := bucket50()
	for _, tc := range []struct {
		name string
		prev any
	}{{"delta", prev}, {"full", nil}} {
		b.Run(tc.name, func(b *testing.B) {
			_, w, logPath := openBucketStore(b, -1)
			recs := []dht.WALRecord{{Op: dht.WALPut, Key: "mlight/0011011", Value: next, Prev: tc.prev}}
			if err := w.Append(recs); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fileSize(b, logPath))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			w, err := dht.OpenWAL(dht.WALOptions{Dir: b.TempDir(), Codec: scalarCodec{}, CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			recs := make([]dht.WALRecord, batch)
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
