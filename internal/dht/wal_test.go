package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testCodec round-trips the ints and strings the tests store.
type testCodec struct{}

func (testCodec) Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case int:
		return append([]byte{'i'}, strconv.Itoa(x)...), nil
	case string:
		return append([]byte{'s'}, x...), nil
	default:
		return nil, fmt.Errorf("testCodec: cannot encode %T", v)
	}
}

func (testCodec) Unmarshal(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("testCodec: empty payload")
	}
	switch data[0] {
	case 'i':
		return strconv.Atoi(string(data[1:]))
	case 's':
		return string(data[1:]), nil
	default:
		return nil, fmt.Errorf("testCodec: unknown tag %q", data[0])
	}
}

// deltaTestCodec is testCodec with deltas over its strings: a string that
// starts with the one it replaces journals as the suffix, behind the length
// it was cut at.
type deltaTestCodec struct{ testCodec }

func (deltaTestCodec) AppendDelta(buf []byte, prev, next any) ([]byte, bool) {
	p, ok1 := prev.(string)
	n, ok2 := next.(string)
	if !ok1 || !ok2 || !strings.HasPrefix(n, p) {
		return buf, false
	}
	if n == p {
		return buf, true
	}
	return append(binary.AppendUvarint(buf, uint64(len(p))), n[len(p):]...), true
}

var errTestDeltaBase = errors.New("deltaTestCodec: delta cut at another length")

func (deltaTestCodec) ApplyDelta(base any, delta []byte) (any, error) {
	b, ok := base.(string)
	from, n := binary.Uvarint(delta)
	if !ok || n <= 0 {
		return nil, fmt.Errorf("deltaTestCodec: delta over %T", base)
	}
	if from != uint64(len(b)) {
		return nil, errTestDeltaBase
	}
	return b + string(delta[n:]), nil
}

func openTestWAL(t *testing.T, dir string, threshold int) *WAL {
	t.Helper()
	return openCodecWAL(t, dir, threshold, testCodec{})
}

func openCodecWAL(t *testing.T, dir string, threshold int, codec Codec) *WAL {
	t.Helper()
	w, err := OpenWAL(WALOptions{Dir: dir, Codec: codec, CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("wal close: %v", err)
		}
	})
	return w
}

// closeWAL closes w before its test ends: the directory is then free for
// another WAL.
func closeWAL(t *testing.T, w *WAL) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// dropWAL abandons w as a process that dies does: the window is unmapped and
// the file closed, which releases the directory's lock, but the zero tail is
// not cut.
func dropWAL(t *testing.T, w *WAL) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.unmapLocked()
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	w.log = nil
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALSecondOpenRefused: a WAL locks its directory's log, so a second WAL
// opened on the directory fails, and the first one's mapped window is never
// cut under it. Once the first is closed the directory opens again, with
// everything the first journaled.
func TestWALSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	put := func(k Key) {
		if err := w.Append([]WALRecord{{Op: WALPut, Key: k, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	put("before")
	if second, err := OpenWAL(WALOptions{Dir: dir, Codec: testCodec{}}); err == nil {
		//lint:allow droppederr the open itself is the failure reported
		second.Close()
		t.Fatal("a second WAL opened on a directory in use")
	}
	put("after")
	closeWAL(t, w)
	state, err := openTestWAL(t, dir, 0).Restore()
	if err != nil || len(state) != 2 {
		t.Fatalf("reopened after close: %v, %v; want both records", state, err)
	}
}

func TestDurableLocalCrashRecover(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Durable() {
		t.Fatal("durable Local reports not durable")
	}
	if err := l.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("b", "two"); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("gone", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := l.Apply("a", func(cur any, ok bool) (any, bool) {
		return cur.(int) + 10, true
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Apply("b", func(cur any, ok bool) (any, bool) {
		return nil, false // delete via apply
	}); err != nil {
		t.Fatal(err)
	}

	l.CrashVolatile()
	if l.Len() != 0 {
		t.Fatalf("crash left %d entries in memory", l.Len())
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	want := map[Key]any{"a": 11}
	got := dump(t, l)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestDurableLocalBatchPathsJournal(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	puts := []PutOp{{Key: "p0", Value: 0}, {Key: "p1", Value: 1}, {Key: "p2", Value: 2}}
	for _, e := range l.PutBatch(puts, 4) {
		if e != nil {
			t.Fatal(e)
		}
	}
	applies := []struct {
		Key Key
		Fn  ApplyFunc
	}{
		{Key: "p0", Fn: func(cur any, ok bool) (any, bool) { return cur.(int) + 100, true }},
		{Key: "p1", Fn: func(cur any, ok bool) (any, bool) { return nil, false }},
		{Key: "fresh", Fn: func(cur any, ok bool) (any, bool) {
			if ok {
				t.Errorf("fresh key claims to exist: %v", cur)
			}
			return "new", true
		}},
	}
	for _, a := range applies {
		if err := l.Apply(a.Key, a.Fn); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, l)
	if want[Key("p0")] != 100 {
		t.Fatalf("p0 = %v, want 100", want[Key("p0")])
	}
	l.CrashVolatile()
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := dump(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestWALReopenReplays(t *testing.T) {
	dir := t.TempDir()
	func() {
		w := openTestWAL(t, dir, 0)
		defer dropWAL(t, w)
		l, err := NewDurableLocal(4, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := l.Put(Key(fmt.Sprintf("k%d", i)), i); err != nil {
				t.Fatal(err)
			}
		}
	}()
	w := openTestWAL(t, dir, 0)
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 50 {
		t.Fatalf("reopen recovered %d entries, want 50", l.Len())
	}
	info := w.LastReplay()
	if info.LogRecords != 50 || info.TornTail {
		t.Fatalf("replay info = %+v, want 50 log records, no torn tail", info)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	func() {
		w := openTestWAL(t, dir, 0)
		defer dropWAL(t, w)
		l, err := NewDurableLocal(4, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := l.Put(Key(fmt.Sprintf("k%d", i)), i); err != nil {
				t.Fatal(err)
			}
		}
	}()
	// Tear the tail: a process died mid-append.
	logPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 'g', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w := openTestWAL(t, dir, 0)
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 10 {
		t.Fatalf("recovered %d entries, want 10", l.Len())
	}
	if info := w.LastReplay(); !info.TornTail || info.LogRecords != 10 {
		t.Fatalf("replay info = %+v, want torn tail with 10 records", info)
	}
	// The torn bytes are gone: new appends extend a clean log.
	if err := l.Put("after", 99); err != nil {
		t.Fatal(err)
	}
	l.CrashVolatile()
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := l.Get("after"); err != nil || !ok || v != 99 {
		t.Fatalf("append after torn-tail truncation lost: %v %v %v", v, ok, err)
	}
	if info := w.LastReplay(); info.TornTail {
		t.Fatalf("second replay still sees a torn tail: %+v", info)
	}
}

// TestWALZeroTailIsACleanEnd: a log left open runs past its records into the
// zero-filled room of the mapped window. Reopened, that tail is a clean end —
// cut away, not reported torn — while a partial frame at the same place, or
// a nonzero byte anywhere in the tail, is torn; a byte flipped inside a
// record stops replay there either way.
func TestWALZeroTailIsACleanEnd(t *testing.T) {
	var records []WALRecord
	for i := 0; i < 20; i++ {
		records = append(records, WALRecord{Op: WALPut, Key: Key(fmt.Sprintf("key-%02d", i)), Value: i})
	}
	// open is a log holding records, left open (its Cleanup closes it after
	// the test); its bytes are what a process killed now would leave.
	open := func(t *testing.T) (data []byte, end int) {
		dir := t.TempDir()
		w := openTestWAL(t, dir, -1)
		if err := w.Append(records); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) <= w.LogBytes() || !allZero(data[w.LogBytes():]) {
			t.Fatalf("an open log of %d bytes in a %d-byte file, want a zero tail behind it", w.LogBytes(), len(data))
		}
		return data, int(w.LogBytes())
	}
	for _, tc := range []struct {
		name    string
		damage  func(data []byte, end int)
		torn    bool
		records int
	}{
		{"zero tail", func([]byte, int) {}, false, 20},
		{"partial frame", func(data []byte, end int) { copy(data[end:], []byte{0x17, 'P', 3}) }, true, 20},
		{"byte in the tail", func(data []byte, _ int) { data[len(data)-1] = 1 }, true, 20},
		{"flip in a record", func(data []byte, end int) { data[end/2] ^= 0xff }, true, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, end := open(t)
			tc.damage(data, end)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			w := openTestWAL(t, dir, -1)
			state, err := w.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if info := w.LastReplay(); info.TornTail != tc.torn || info.LogRecords != tc.records || len(state) != tc.records {
				t.Fatalf("replay = %+v with %d keys, want torn=%t and %d records", info, len(state), tc.torn, tc.records)
			}
			if got := logSize(t, dir); got != w.LogBytes() || (tc.records == 20 && got != int64(end)) {
				t.Fatalf("log file cut to %d bytes, %d of records", got, w.LogBytes())
			}
		})
	}
}

func TestWALCorruptMidLogStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	const written = 20
	logBytes := func() int64 {
		w := openTestWAL(t, dir, 0)
		defer closeWAL(t, w)
		l, err := NewDurableLocal(4, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < written; i++ {
			if err := l.Put(Key(fmt.Sprintf("key-%02d", i)), i); err != nil {
				t.Fatal(err)
			}
		}
		return w.LogBytes()
	}()
	logPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte halfway into the records: the checksum of that record
	// must fail and replay must keep everything before it, never panic, never
	// invent data.
	mutated := append([]byte(nil), data...)
	mutated[logBytes/2] ^= 0xff
	if err := os.WriteFile(logPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir, 0)
	state, err := w.Restore()
	if err != nil {
		t.Fatal(err)
	}
	info := w.LastReplay()
	if !info.TornTail {
		t.Fatalf("corrupt record not reported as torn tail: %+v", info)
	}
	if info.LogRecords >= written {
		t.Fatalf("replay kept %d of the %d records written, past the corrupt one", info.LogRecords, written)
	}
	if len(state) != info.LogRecords {
		t.Fatalf("state has %d entries but %d records replayed", len(state), info.LogRecords)
	}
	for k, v := range state {
		var i int
		if _, err := fmt.Sscanf(string(k), "key-%02d", &i); err != nil || v != i {
			t.Fatalf("replayed entry %q=%v is not one we wrote", k, v)
		}
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 8)
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		// Overwrite a small key set so compaction actually shrinks state.
		if err := l.Put(Key(fmt.Sprintf("k%d", i%4)), i); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.LogRecords(); got >= 8 {
		t.Fatalf("log carries %d records, compaction threshold 8 never fired", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	before := dump(t, l)
	l.CrashVolatile()
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := dump(t, l); !reflect.DeepEqual(got, before) {
		t.Fatalf("post-compaction recovery %v, want %v", got, before)
	}
}

func TestWALCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	func() {
		w := openTestWAL(t, dir, 2)
		defer closeWAL(t, w)
		l, err := NewDurableLocal(4, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := l.Put(Key(fmt.Sprintf("k%d", i)), i); err != nil {
				t.Fatal(err)
			}
		}
	}()
	snapPath := filepath.Join(dir, snapshotFileName)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir, 0)
	if _, err := w.Restore(); err == nil {
		t.Fatal("corrupt snapshot replayed without error")
	}
}

func TestWALClosedErrors(t *testing.T) {
	w, err := OpenWAL(WALOptions{Dir: t.TempDir(), Codec: testCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := w.Append([]WALRecord{{Op: WALPut, Key: "k", Value: 1}}); err == nil {
		t.Error("Append on closed WAL succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Error("Sync on closed WAL succeeded")
	}
	if _, err := w.Restore(); err == nil {
		t.Error("Restore on closed WAL succeeded")
	}
}

func TestWALSyncAndSyncEveryAppend(t *testing.T) {
	w, err := OpenWAL(WALOptions{Dir: t.TempDir(), Codec: testCodec{}, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]WALRecord{{Op: WALPut, Key: "k", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALRestore: an arbitrary log file must never panic Restore nor fail it
// with anything but ErrWALInconsistent (an intact append record that fits
// nothing, a generation with no snapshot), and whatever state it yields must
// be exactly re-journalable: writing the recovered state through a fresh WAL
// and restoring again reproduces it.
func FuzzWALRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x17, 'g', 'a', 'r'})
	// A well-formed two-record log, built by the real writer.
	seedDir, err := os.MkdirTemp("", "walfuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(seedDir)
	sw, err := OpenWAL(WALOptions{Dir: seedDir, Codec: testCodec{}})
	if err != nil {
		f.Fatal(err)
	}
	if err := sw.Append([]WALRecord{
		{Op: WALPut, Key: "a", Value: 7},
		{Op: WALRemove, Key: "b"},
	}); err != nil {
		f.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, walFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), 0xff, 0x00, 0x17))
	// Append records: one that fits, one cut at another length, one for a key
	// that is not there; and a log that claims a generation.
	base := legacyFrame(nil, WALPut, "k", "sbase")
	f.Add(legacyFrame(base, walAppend, "k", "\x04+tail"))
	f.Add(legacyFrame(base, walAppend, "k", "\x07+tail"))
	f.Add(legacyFrame(nil, walAppend, "k", "\x00tail"))
	f.Add(appendGeneration(nil, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(WALOptions{Dir: dir, Codec: deltaTestCodec{}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		state, err := w.Restore()
		if errors.Is(err, ErrWALInconsistent) {
			return
		}
		if err != nil {
			t.Fatalf("log-only restore must tolerate arbitrary bytes, got %v", err)
		}
		// Round-trip: recovered state re-journals to the same state.
		dir2 := t.TempDir()
		w2, err := OpenWAL(WALOptions{Dir: dir2, Codec: deltaTestCodec{}})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		recs := make([]WALRecord, 0, len(state))
		for k, v := range state {
			recs = append(recs, WALRecord{Op: WALPut, Key: k, Value: v})
		}
		if err := w2.Append(recs); err != nil {
			t.Fatalf("recovered state failed to re-journal: %v", err)
		}
		again, err := w2.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, state) {
			t.Fatalf("round-trip differs: %v vs %v", again, state)
		}
	})
}

func dump(t *testing.T, l *Local) map[Key]any {
	t.Helper()
	out := make(map[Key]any)
	if err := l.Range(func(k Key, v any) bool {
		out[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// extend is the transform that appends tail to the stored string.
func extend(tail string) ApplyFunc {
	return func(cur any, _ bool) (any, bool) {
		s, _ := cur.(string)
		return s + tail, true
	}
}

// extendOp is extend as an Op; the empty tail writes nothing.
type extendOp string

func (op extendOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	s, _ := cur.(string)
	return s + string(op), op != "", nil, nil
}

// logSize is the size of dir's log file: the logical size (LogBytes) once
// Restore or Close has cut the zero tail behind the records.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// mustRecover crashes l and replays its journal.
func mustRecover(t *testing.T, l *Local) map[Key]any {
	t.Helper()
	l.CrashVolatile()
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	return dump(t, l)
}

// TestDurableLocalJournalsExtensionsAsDeltas: with a DeltaCodec an Apply or a
// Do that extends the stored value costs the log its tail, not the value;
// everything else is still a full put; replay rebuilds the same state either
// way.
func TestDurableLocalJournalsExtensionsAsDeltas(t *testing.T) {
	w := openCodecWAL(t, t.TempDir(), -1, deltaTestCodec{})
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 4000)
	if err := l.Put("k", big); err != nil {
		t.Fatal(err)
	}
	before := w.LogBytes()
	if err := l.Apply("k", extend("tail")); err != nil {
		t.Fatal(err)
	}
	if grew := w.LogBytes() - before; grew > 32 {
		t.Fatalf("a 4-byte extension of a 4000-byte value grew the log by %d bytes", grew)
	}
	// An op that extends the value journals as a delta too, cut against the
	// value the closure before it left.
	before = w.LogBytes()
	if err := l.Apply("k", extend("-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Do("k", extendOp("-b")); err != nil {
		t.Fatal(err)
	}
	if grew := w.LogBytes() - before; grew > 64 {
		t.Fatalf("two 2-byte extensions, by Apply and by Do, grew the log by %d bytes", grew)
	}
	// Not an extension: journaled whole.
	before = w.LogBytes()
	if err := l.Apply("k", func(cur any, _ bool) (any, bool) { return cur.(string)[1:], true }); err != nil {
		t.Fatal(err)
	}
	if grew := w.LogBytes() - before; grew < 4000 {
		t.Fatalf("a value that is not its predecessor extended grew the log by only %d bytes", grew)
	}
	want := map[Key]any{"k": (big + "tail-a-b")[1:]}
	if got := mustRecover(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered a %d-byte value, want %d bytes", len(got["k"].(string)), len(want["k"].(string)))
	}
}

// TestDurableLocalUnchangedApplyJournalsNothing: a transform that hands back
// what it was given — the stored value, or the absence of one — and an op that
// writes nothing leave no record, under either kind of codec.
func TestDurableLocalUnchangedApplyJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	w := openCodecWAL(t, dir, -1, deltaTestCodec{})
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("k", "value"); err != nil {
		t.Fatal(err)
	}
	records, size := w.LogRecords(), w.LogBytes()
	same := func(cur any, exists bool) (any, bool) { return cur, exists }
	if err := l.Apply("k", same); err != nil {
		t.Fatal(err)
	}
	if err := l.Apply("absent", same); err != nil {
		t.Fatal(err)
	}
	for _, key := range []Key{"k", "absent"} {
		if _, err := l.Do(key, extendOp("")); err != nil {
			t.Fatal(err)
		}
	}
	if got, gotSize := w.LogRecords(), w.LogBytes(); got != records || gotSize != size {
		t.Fatalf("no-op transforms took the log from %d records / %d bytes to %d / %d", records, size, got, gotSize)
	}
	if got := dump(t, l); !reflect.DeepEqual(got, map[Key]any{"k": "value"}) {
		t.Fatalf("no-op transforms left %v", got)
	}
}

// TestWALStaleLogDiscarded is the crash between a compaction's two steps: the
// snapshot of the next generation is published and the log still holds the
// records it was cut from. Replaying them would apply every delta a second
// time; Restore must recognise the log as older than the snapshot and drop it.
func TestWALStaleLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	w := openCodecWAL(t, dir, -1, deltaTestCodec{})
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds, so the log that is put back has a generation of its own
	// and is compared by it, not by having none.
	for round := 0; round < 2; round++ {
		if err := l.Put(Key(fmt.Sprintf("k%d", round)), "base"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := l.Apply("k0", extend(fmt.Sprintf("+%d.%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		want := dump(t, l)
		logPath := filepath.Join(dir, walFileName)
		saved, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Compact(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := mustRecover(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recovered %v, want %v", round, got, want)
		}
		if info := w.LastReplay(); !info.StaleLog || info.LogRecords != 0 || info.SnapshotRecords != len(want) {
			t.Fatalf("round %d: replay info = %+v, want a stale log and %d snapshot records", round, info, len(want))
		}
		// The discarded log was reset to the snapshot's generation: what is
		// appended now is replayed, once.
		if err := l.Apply("k0", extend("!")); err != nil {
			t.Fatal(err)
		}
		want = dump(t, l)
		if got := mustRecover(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: after the reset recovered %v, want %v", round, got, want)
		}
		if info := w.LastReplay(); info.StaleLog || info.LogRecords != 1 {
			t.Fatalf("round %d: replay info after the reset = %+v, want one log record", round, info)
		}
	}
}

// TestWALLogNewerThanSnapshotRefused: a log whose generation the snapshot has
// not reached extends a state that is not there.
func TestWALLogNewerThanSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	w := openCodecWAL(t, dir, -1, deltaTestCodec{})
	if err := w.Compact(map[Key]any{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Restore(); !errors.Is(err, ErrWALInconsistent) {
		t.Fatalf("Restore of a generation-1 log without its snapshot: %v, want ErrWALInconsistent", err)
	}
}

// TestWALDeltaThatDoesNotFitIsRefused: an intact append record whose base is
// absent, or is not the value it was cut from, fails Restore with the typed
// error — it is never skipped, and never cut away as a torn tail.
func TestWALDeltaThatDoesNotFitIsRefused(t *testing.T) {
	for name, base := range map[string][]WALRecord{
		"absent":  nil,
		"shorter": {{Op: WALPut, Key: "k", Value: "bas"}},
		"longer":  {{Op: WALPut, Key: "k", Value: "base+"}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openCodecWAL(t, dir, -1, deltaTestCodec{})
			// A delta cut at "base", journaled after a base that is not it.
			if err := w.Append(append(base, WALRecord{Op: WALPut, Key: "k", Value: "base+tail", Prev: "base"})); err != nil {
				t.Fatal(err)
			}
			size := logSize(t, dir)
			if _, err := w.Restore(); !errors.Is(err, ErrWALInconsistent) {
				t.Fatalf("Restore = %v, want ErrWALInconsistent", err)
			}
			if name != "absent" {
				if _, err := w.Restore(); !errors.Is(err, errTestDeltaBase) {
					t.Fatalf("Restore = %v, want the codec's own error wrapped", err)
				}
			}
			if got := logSize(t, dir); got != size {
				t.Fatalf("a refused Restore cut the log from %d to %d bytes", size, got)
			}
		})
	}
	t.Run("codec without deltas", func(t *testing.T) {
		dir := t.TempDir()
		w := openCodecWAL(t, dir, -1, deltaTestCodec{})
		if err := w.Append([]WALRecord{{Op: WALPut, Key: "k", Value: "base"}, {Op: WALPut, Key: "k", Value: "base+tail", Prev: "base"}}); err != nil {
			t.Fatal(err)
		}
		dropWAL(t, w)
		if _, err := openTestWAL(t, dir, -1).Restore(); !errors.Is(err, ErrWALInconsistent) {
			t.Fatalf("Restore through a codec without deltas = %v, want ErrWALInconsistent", err)
		}
	})
}

// TestWALTornDeltaFrameTruncated cuts the log inside an append record at
// every byte: replay keeps exactly the records before it, and what is
// appended afterwards extends them.
func TestWALTornDeltaFrameTruncated(t *testing.T) {
	src := t.TempDir()
	w := openCodecWAL(t, src, -1, deltaTestCodec{})
	if err := w.Append([]WALRecord{{Op: WALPut, Key: "k", Value: "base"}, {Op: WALPut, Key: "k", Value: "base+one", Prev: "base"}}); err != nil {
		t.Fatal(err)
	}
	intact := w.LogBytes()
	if err := w.Append([]WALRecord{{Op: WALPut, Key: "k", Value: "base+one+two", Prev: "base+one"}}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	log = log[:w.LogBytes()] // the records, without the open log's zero tail
	for cut := int(intact) + 1; cut < len(log); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w := openCodecWAL(t, dir, -1, deltaTestCodec{})
		l, err := NewDurableLocal(4, w)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if info := w.LastReplay(); !info.TornTail || info.LogRecords != 2 {
			t.Fatalf("cut at %d: replay info = %+v, want a torn tail behind 2 records", cut, info)
		}
		if got := logSize(t, dir); got != intact {
			t.Fatalf("cut at %d: log truncated to %d bytes, the intact records end at %d", cut, got, intact)
		}
		if err := l.Apply("k", extend("+again")); err != nil {
			t.Fatal(err)
		}
		if got, want := mustRecover(t, l), (map[Key]any{"k": "base+one+again"}); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: recovered %v, want %v", cut, got, want)
		}
	}
}

// legacyFrame frames body the way every version of this file has.
func legacyFrame(buf []byte, op WALOp, key string, payload string) []byte {
	body := append([]byte{byte(op), byte(len(key))}, key...)
	body = append(body, payload...)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// TestWALRestoresFilesWithoutGenerations: a directory written before
// generations and append records existed — frames of puts and deletes, no
// generation frame in either file — restores to what it always did, and the
// first compaction moves it to generation 1.
func TestWALRestoresFilesWithoutGenerations(t *testing.T) {
	dir := t.TempDir()
	snap := legacyFrame(nil, WALPut, "a", "i1")
	snap = legacyFrame(snap, WALPut, "b", "sbee")
	snap = legacyFrame(snap, WALPut, "gone", "i3")
	log := legacyFrame(nil, WALRemove, "gone", "")
	log = legacyFrame(log, WALPut, "a", "i11")
	log = legacyFrame(log, WALPut, "c", "ssea")
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openCodecWAL(t, dir, -1, deltaTestCodec{})
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]any{"a": 11, "b": "bee", "c": "sea"}
	if got := dump(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v, want %v", got, want)
	}
	if info := w.LastReplay(); info != (ReplayInfo{SnapshotRecords: 3, LogRecords: 3}) {
		t.Fatalf("replay info = %+v", info)
	}
	// The old log takes new records, append records included.
	if err := l.Apply("b", extend("s")); err != nil {
		t.Fatal(err)
	}
	want["b"] = "bees"
	if got := mustRecover(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("after an append recovered %v, want %v", got, want)
	}
	if err := w.Compact(want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapshotFileName, walFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if gen, _ := readGeneration(data); gen != 1 {
			t.Fatalf("%s opens with generation %d after the first compaction, want 1", name, gen)
		}
	}
	if got := mustRecover(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction recovered %v, want %v", got, want)
	}
}

// TestWALCompactsInProportionToTheLog: past the record threshold, compaction
// waits until the log weighs what the snapshot it would rewrite does.
func TestWALCompactsInProportionToTheLog(t *testing.T) {
	dir := t.TempDir()
	w := openCodecWAL(t, dir, 4, deltaTestCodec{})
	l, err := NewDurableLocal(4, w)
	if err != nil {
		t.Fatal(err)
	}
	// Four records reach the threshold over an empty snapshot: compacted.
	for i := 0; i < 4; i++ {
		if err := l.Put(Key(fmt.Sprintf("k%d", i)), strings.Repeat("v", 1000)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.Stat(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatalf("no snapshot after %d records over an empty one: %v", 4, err)
	}
	if w.LogRecords() != 0 {
		t.Fatalf("log holds %d records after compaction", w.LogRecords())
	}
	// Small records now pass the threshold many times over before their
	// bytes add up to the snapshot's.
	appends := 0
	for ; w.LogRecords() == appends; appends++ {
		if appends > 4000 {
			t.Fatal("compaction never fired")
		}
		if w.LogBytes() >= snap.Size()+64 {
			t.Fatalf("log at %d bytes outweighs the %d-byte snapshot and was not compacted", w.LogBytes(), snap.Size())
		}
		if err := l.Apply("k0", extend("+")); err != nil {
			t.Fatal(err)
		}
	}
	if appends < 40 {
		t.Fatalf("compaction fired after %d small records; the log was nowhere near the snapshot's %d bytes", appends, snap.Size())
	}
	if got := mustRecover(t, l)["k0"]; got != strings.Repeat("v", 1000)+strings.Repeat("+", appends) {
		t.Fatalf("recovered k0 of %d bytes, want %d", len(got.(string)), 1000+appends)
	}
}
