package dht

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptDHT is a scripted in-memory substrate implementing Batcher: each key
// fails its next failures[key] operations with a retryable error, and every
// native batch call's key set is recorded, so tests can observe sub-batch
// re-issue.
type scriptDHT struct {
	mu         sync.Mutex
	data       map[Key]any
	failures   map[Key]int
	batchCalls [][]Key
}

func newScriptDHT() *scriptDHT {
	return &scriptDHT{data: make(map[Key]any), failures: make(map[Key]int)}
}

var errScripted = Retryable(errors.New("script: transient failure"))

func (s *scriptDHT) step(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failures[key] != 0 {
		if s.failures[key] > 0 {
			s.failures[key]--
		}
		return fmt.Errorf("op on %q: %w", key, errScripted)
	}
	return nil
}

func (s *scriptDHT) Put(key Key, value any) error {
	if err := s.step(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = value
	return nil
}

func (s *scriptDHT) Get(key Key) (any, bool, error) {
	if err := s.step(key); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok, nil
}

func (s *scriptDHT) Remove(key Key) error {
	if err := s.step(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	return nil
}

func (s *scriptDHT) Apply(key Key, fn ApplyFunc) error {
	if err := s.step(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.data[key]
	next, keep := fn(cur, ok)
	if keep {
		s.data[key] = next
	} else {
		delete(s.data, key)
	}
	return nil
}

func (s *scriptDHT) Owner(key Key) (string, error) {
	if err := s.step(key); err != nil {
		return "", err
	}
	return "script-owner", nil
}

func (s *scriptDHT) GetBatch(keys []Key, maxInFlight int) []BatchResult {
	s.mu.Lock()
	s.batchCalls = append(s.batchCalls, append([]Key(nil), keys...))
	s.mu.Unlock()
	out := make([]BatchResult, len(keys))
	for i, k := range keys {
		out[i].Value, out[i].Found, out[i].Err = s.Get(k)
	}
	return out
}

func (s *scriptDHT) PutBatch(ops []PutOp, maxInFlight int) []error {
	keys := make([]Key, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	s.mu.Lock()
	s.batchCalls = append(s.batchCalls, keys)
	s.mu.Unlock()
	out := make([]error, len(ops))
	for i, op := range ops {
		out[i] = s.Put(op.Key, op.Value)
	}
	return out
}

func noBreaker() RetryPolicy {
	return RetryPolicy{BreakerThreshold: -1, Sleep: NoSleep}
}

func TestDefaultClassify(t *testing.T) {
	sentinel := errors.New("lookup failed")
	marked := Retryable(sentinel)
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"marked", marked, true},
		{"wrapped marked", fmt.Errorf("ctx: %w", marked), true},
		{"breaker open", fmt.Errorf("%w: owner x", ErrBreakerOpen), false},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("DefaultClassify(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if !errors.Is(marked, sentinel) {
		t.Error("Retryable broke errors.Is identity")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	policy := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 42}
	a := NewRetrier(policy, nil)
	b := NewRetrier(policy, nil)
	for attempt := 1; attempt <= 10; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		nominal := time.Millisecond << (attempt - 1)
		if nominal > policy.MaxDelay || nominal <= 0 {
			nominal = policy.MaxDelay
		}
		if da < nominal/2 || da > nominal {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, da, nominal/2, nominal)
		}
	}
	c := NewRetrier(RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 7}, nil)
	diverged := false
	for attempt := 1; attempt <= 10; attempt++ {
		if a.backoff(attempt) != c.backoff(attempt) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical jitter sequences")
	}
}

func TestDoRecoversAndExhausts(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BreakerThreshold: -1, Sleep: NoSleep}, nil)
	fails := 2
	if err := r.Do("o", func() error {
		if fails > 0 {
			fails--
			return errScripted
		}
		return nil
	}); err != nil {
		t.Fatalf("Do with 2 transient failures = %v, want success on attempt 3", err)
	}
	if s := r.Stats().Snapshot(); s.Recovered != 1 || s.Retries != 2 || s.Attempts != 3 {
		t.Errorf("stats = %+v, want recovered 1, retries 2, attempts 3", s)
	}
	err := r.Do("o", func() error { return errScripted })
	if !errors.Is(err, errScripted) {
		t.Fatalf("exhausted Do = %v, want wrapped scripted error", err)
	}
	if s := r.Stats().Snapshot(); s.Exhausted != 1 || s.Attempts != 6 {
		t.Errorf("stats = %+v, want exhausted 1, attempts 6", s)
	}
}

func TestDoTerminalAbortsImmediately(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 5, Sleep: NoSleep}, nil)
	fatal := errors.New("bad response type")
	calls := 0
	err := r.Do("o", func() error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("terminal Do = %v after %d calls, want the error after exactly 1", err, calls)
	}
	if s := r.Stats().Snapshot(); s.Terminal != 1 || s.Retries != 0 {
		t.Errorf("stats = %+v, want terminal 1, retries 0", s)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	r := NewRetrier(RetryPolicy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  2,
		Sleep:            NoSleep,
	}, nil)
	failing := func() error { return errScripted }
	// Three consecutive failed attempts trip the breaker.
	for i := 0; i < 3; i++ {
		if err := r.Do("peer", failing); err == nil {
			t.Fatal("failing op succeeded")
		}
	}
	if st := r.BreakerState("peer"); st != "open" {
		t.Fatalf("after threshold: state %q, want open", st)
	}
	// Cooldown ops are shed without running the op.
	for i := 0; i < 2; i++ {
		calls := 0
		err := r.Do("peer", func() error { calls++; return nil })
		if !errors.Is(err, ErrBreakerOpen) || calls != 0 {
			t.Fatalf("shed op %d: err %v calls %d, want ErrBreakerOpen and 0", i, err, calls)
		}
	}
	// A failing half-open trial re-opens with a fresh cooldown.
	if err := r.Do("peer", failing); err == nil {
		t.Fatal("failing trial succeeded")
	}
	if st := r.BreakerState("peer"); st != "open" {
		t.Fatalf("after failed trial: state %q, want open", st)
	}
	// Spend the new cooldown, then a successful trial closes it.
	for i := 0; i < 2; i++ {
		if err := r.Do("peer", func() error { return nil }); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("cooldown spend %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if err := r.Do("peer", func() error { return nil }); err != nil {
		t.Fatalf("successful trial = %v", err)
	}
	if st := r.BreakerState("peer"); st != "closed" {
		t.Fatalf("after successful trial: state %q, want closed", st)
	}
	if s := r.Stats().Snapshot(); s.BreakerTrips != 2 || s.BreakerResets != 1 || s.BreakerFastFails != 4 {
		t.Errorf("stats = %+v, want trips 2, resets 1, fastfails 4", s)
	}
	if st := r.BreakerState("unknown-peer"); st != "closed" {
		t.Errorf("untouched owner state %q, want closed", st)
	}
}

func TestResilientGetBatchSubBatchReissue(t *testing.T) {
	script := newScriptDHT()
	res := NewResilient(script, noBreaker(), nil)
	keys := []Key{"a", "b", "c", "d"}
	for i, k := range keys {
		if err := res.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	script.mu.Lock()
	script.batchCalls = nil
	script.failures["b"] = 1
	script.failures["d"] = 2
	script.mu.Unlock()

	results := res.GetBatch(keys, 4)
	for i, r := range results {
		if r.Err != nil || !r.Found || r.Value != i {
			t.Errorf("key %q = %v, %v, %v; want %d", keys[i], r.Value, r.Found, r.Err, i)
		}
	}
	// Wave 1 probes all four keys natively; wave 2 re-issues only {b, d};
	// wave 3 only {d}.
	script.mu.Lock()
	calls := script.batchCalls
	script.mu.Unlock()
	want := [][]Key{{"a", "b", "c", "d"}, {"b", "d"}, {"d"}}
	if len(calls) != len(want) {
		t.Fatalf("native batch called %d times (%v), want %d", len(calls), calls, len(want))
	}
	for i := range want {
		if fmt.Sprint(calls[i]) != fmt.Sprint(want[i]) {
			t.Errorf("wave %d keys = %v, want %v", i+1, calls[i], want[i])
		}
	}
	if s := res.Stats().Snapshot(); s.Recovered != 2 || s.Retries != 3 {
		t.Errorf("stats = %+v, want recovered 2, retries 3", s)
	}
}

func TestResilientPutBatchSubBatchReissue(t *testing.T) {
	script := newScriptDHT()
	res := NewResilient(script, noBreaker(), nil)
	script.mu.Lock()
	script.failures["b"] = 1
	script.failures["d"] = 2
	script.mu.Unlock()

	ops := []PutOp{{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}}
	for i, err := range res.PutBatch(ops, 4) {
		if err != nil {
			t.Errorf("op %d (%q) = %v, want recovery", i, ops[i].Key, err)
		}
	}
	// Wave 1 issues all four ops natively; wave 2 re-issues only {b, d};
	// wave 3 only {d}.
	script.mu.Lock()
	calls := script.batchCalls
	script.mu.Unlock()
	want := [][]Key{{"a", "b", "c", "d"}, {"b", "d"}, {"d"}}
	if len(calls) != len(want) {
		t.Fatalf("native batch called %d times (%v), want %d", len(calls), calls, len(want))
	}
	for i := range want {
		if fmt.Sprint(calls[i]) != fmt.Sprint(want[i]) {
			t.Errorf("wave %d keys = %v, want %v", i+1, calls[i], want[i])
		}
	}
	for i, k := range []Key{"a", "b", "c", "d"} {
		if v, ok, err := script.Get(k); err != nil || !ok || v != i {
			t.Errorf("after recovery, %q = %v, %v, %v; want %d", k, v, ok, err, i)
		}
	}
	if s := res.Stats().Snapshot(); s.Recovered != 2 || s.Retries != 3 {
		t.Errorf("stats = %+v, want recovered 2, retries 3", s)
	}
}

// TestResilientApplyBatchOutcomesPositional: the per-key pool (ApplyBatch) over
// a Resilient retries each transform on its own — a transient failure
// recovers, a persistent one exhausts its budget — and reports each outcome in
// its own slot.
func TestResilientApplyBatchOutcomesPositional(t *testing.T) {
	script := newScriptDHT()
	res := NewResilient(script, RetryPolicy{MaxAttempts: 2, BreakerThreshold: -1, Sleep: NoSleep}, nil)
	script.mu.Lock()
	script.failures["recovers"] = 1  // transient once, then fine
	script.failures["exhausts"] = -1 // fails forever
	script.mu.Unlock()

	incr := func(cur any, exists bool) (any, bool) {
		n, _ := cur.(int)
		return n + 1, true
	}
	calls := 0
	ops := []ApplyOp{
		{Key: "clean", Fn: incr},
		{Key: "recovers", Fn: incr},
		{Key: "exhausts", Fn: incr},
		{Key: "once", Fn: func(cur any, exists bool) (any, bool) {
			// A closure on a healthy key must run exactly once: a successful
			// operation is never re-issued.
			calls++
			return nil, false
		}},
	}
	errs := ApplyBatch(res, ops, 4)
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("clean/recovers = %v, %v; want nil, nil", errs[0], errs[1])
	}
	if !errors.Is(errs[2], errScripted) {
		t.Errorf("exhausts = %v, want the scripted transient error after budget", errs[2])
	}
	if errs[3] != nil || calls != 1 {
		t.Errorf("once slot: err %v after %d closure runs, want nil after exactly 1", errs[3], calls)
	}
	if v, ok, err := script.Get("recovers"); err != nil || !ok || v != 1 {
		t.Errorf("recovers holds %v, %v, %v; want 1 applied once", v, ok, err)
	}
	if s := res.Stats().Snapshot(); s.Exhausted != 1 || s.Recovered != 1 {
		t.Errorf("stats = %+v, want exhausted 1, recovered 1", s)
	}
}

// keepOp is an op that writes nothing and returns nothing.
type keepOp struct{}

func (keepOp) Run(cur any, exists bool) (any, bool, any, error) { return cur, false, nil, nil }

// TestResilientBatchExhaustionMatchesDo: a key that fails every attempt ends
// with one error whichever path carried it — a batch slot is settled exactly
// like a single operation, budget wrapping included.
func TestResilientBatchExhaustionMatchesDo(t *testing.T) {
	script := newScriptDHT()
	res := NewResilient(script, RetryPolicy{MaxAttempts: 3, BreakerThreshold: -1, Sleep: NoSleep}, nil)
	script.mu.Lock()
	script.failures["down"] = -1
	script.mu.Unlock()

	_, doErr := res.Do("down", keepOp{})
	getErr := res.GetBatch([]Key{"up", "down"}, 2)[1].Err
	putErr := res.PutBatch([]PutOp{{"up", 1}, {"down", 2}}, 2)[1]
	for _, c := range []struct {
		path string
		err  error
	}{{"Do", doErr}, {"GetBatch", getErr}, {"PutBatch", putErr}} {
		if !errors.Is(c.err, errScripted) {
			t.Errorf("%s = %v, want the scripted cause in its chain", c.path, c.err)
		}
		if c.err == nil || c.err.Error() != doErr.Error() {
			t.Errorf("%s = %v, want Do's %v", c.path, c.err, doErr)
		}
	}
	if s := res.Stats().Snapshot(); s.Exhausted != 3 || s.Attempts != 11 {
		t.Errorf("stats = %+v, want exhausted 3, attempts 11 (3 a failing key, 1 a healthy one)", s)
	}
}

func TestResilientBatchWriteBreakerPrecheck(t *testing.T) {
	script := newScriptDHT()
	res := NewResilient(script, RetryPolicy{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  100,
		Sleep:            NoSleep,
		OwnerOf:          func(k Key) string { return string(k) }, // per-key breakers
	}, nil)
	script.mu.Lock()
	script.failures["shed"] = -1
	script.mu.Unlock()
	// Trip the breaker for "shed".
	if err := res.Put("shed", 0); err == nil {
		t.Fatal("tripping Put succeeded")
	}
	script.mu.Lock()
	script.batchCalls = nil
	script.mu.Unlock()
	errs := res.PutBatch([]PutOp{{"ok", 1}, {"shed", 2}}, 2)
	if errs[0] != nil {
		t.Errorf("healthy op = %v, want nil", errs[0])
	}
	if !errors.Is(errs[1], ErrBreakerOpen) {
		t.Errorf("shed op = %v, want ErrBreakerOpen", errs[1])
	}
	script.mu.Lock()
	calls := script.batchCalls
	script.mu.Unlock()
	if len(calls) != 1 || fmt.Sprint(calls[0]) != fmt.Sprint([]Key{"ok"}) {
		t.Errorf("issued batches = %v, want one batch of just {ok}", calls)
	}
}

func TestResilientRangeForwarding(t *testing.T) {
	local := MustNewLocal(4)
	res := NewResilient(local, noBreaker(), nil)
	if err := res.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := res.Range(func(Key, any) bool { seen++; return true }); err != nil || seen != 1 {
		t.Errorf("Range over enumerable inner = %v after %d entries, want nil and 1", err, seen)
	}
	opaque := NewResilient(newScriptDHT(), noBreaker(), nil)
	if err := opaque.Range(func(Key, any) bool { return true }); !errors.Is(err, ErrNotEnumerable) {
		t.Errorf("Range over opaque inner = %v, want ErrNotEnumerable", err)
	}
}

// TestResetOwnerClearsBreaker: a peer restart invalidates the failure
// evidence its breaker accumulated, so ResetOwner must return the owner to
// closed immediately — without it, a restarted-and-healthy peer stays
// fenced off for the whole cooldown, turning recovery time into shed
// operations.
func TestResetOwnerClearsBreaker(t *testing.T) {
	r := NewRetrier(RetryPolicy{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  1000, // long enough that only ResetOwner can help
		Sleep:            NoSleep,
	}, nil)
	failing := func() error { return errScripted }
	for i := 0; i < 2; i++ {
		if err := r.Do("peer", failing); err == nil {
			t.Fatal("failing op succeeded")
		}
	}
	if st := r.BreakerState("peer"); st != "open" {
		t.Fatalf("after threshold: state %q, want open", st)
	}
	if err := r.Do("peer", func() error { return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("pre-reset op = %v, want ErrBreakerOpen", err)
	}

	r.ResetOwner("peer")
	if st := r.BreakerState("peer"); st != "closed" {
		t.Fatalf("after ResetOwner: state %q, want closed", st)
	}
	calls := 0
	if err := r.Do("peer", func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("post-reset op: err %v calls %d, want nil and 1", err, calls)
	}
	// Resetting an unknown owner is a harmless no-op.
	r.ResetOwner("never-seen")
	if st := r.BreakerState("never-seen"); st != "closed" {
		t.Errorf("unknown owner state %q, want closed", st)
	}
}
