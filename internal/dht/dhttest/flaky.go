package dhttest

import (
	"errors"
	"os"
	"strconv"
	"sync"

	"mlight/internal/dht"
)

// ErrInjected is the transient error Flaky injects by default. It is marked
// retryable, so dht.DefaultClassify treats an injected fault exactly like a
// dropped simnet message.
var ErrInjected = dht.Retryable(errors.New("dhttest: injected fault"))

// Flaky wraps a substrate and injects failures on demand, so fault-tolerance
// behaviour can be tested deterministically over any dht.DHT — including
// overlays whose own loss would be probabilistic. Flaky deliberately implements
// NEITHER dht.Batcher NOR dht.BatchWriter: batched reads and writes issued
// through it decompose into pooled per-key operations, so per-key injection
// (and per-key retries above it) are exercised on the batch paths too.
//
// RerunNext injects the other thing a failed attempt does to an Apply or a Do:
// the transform runs once against a view of the key that is no longer current,
// its result thrown away, then again for real — what dht.RemoteApply does when
// a CAS loses and dht.Resilient when an attempt fails. A transform that lets
// anything but its last run's verdict out shows.
//
//lint:allow decoratorcomplete Flaky is deliberately free of the batch and span capabilities so those paths decompose into per-key ops that fault injection can hit individually
type Flaky struct {
	inner dht.DHT

	mu       sync.Mutex
	err      error            // injected error; nil means ErrInjected
	perKey   map[dht.Key]int  // remaining injected failures per key; -1 = always
	all      int              // remaining injected failures on every key; -1 = always
	rerun    map[dht.Key]view // discarded runs armed per key
	attempts int              // operations that reached the wrapper
	injected int              // operations that were failed by injection
}

// view is what one discarded run of a transform is shown.
type view struct {
	cur    any
	exists bool
}

var (
	_ dht.DHT  = (*Flaky)(nil)
	_ dht.Doer = (*Flaky)(nil)
)

// NewFlaky wraps inner with no faults armed.
func NewFlaky(inner dht.DHT) *Flaky {
	return &Flaky{inner: inner, perKey: make(map[dht.Key]int), rerun: make(map[dht.Key]view)}
}

// Inner returns the wrapped DHT.
func (f *Flaky) Inner() dht.DHT { return f.inner }

// FailNext arms n injected failures on key; the n+1-th operation passes
// through. n < 0 makes the key fail permanently until ClearFaults.
func (f *Flaky) FailNext(key dht.Key, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perKey[key] = n
}

// RerunNext arms one discarded run: the next Apply on key first runs its
// transform against (cur, exists) and drops what it returns.
func (f *Flaky) RerunNext(key dht.Key, cur any, exists bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rerun[key] = view{cur: cur, exists: exists}
}

// FailAll arms n injected failures affecting every key (on top of any
// per-key arming). n < 0 fails everything until ClearFaults.
func (f *Flaky) FailAll(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.all = n
}

// SetErr overrides the injected error; nil restores ErrInjected. Inject a
// non-retryable error here to test terminal-error handling.
func (f *Flaky) SetErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

// ClearFaults disarms all injection.
func (f *Flaky) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perKey = make(map[dht.Key]int)
	f.all = 0
}

// Attempts returns how many operations reached the wrapper; Injected how
// many of them were failed by injection. The difference is what the inner
// substrate actually served.
func (f *Flaky) Attempts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

// Injected returns the number of operations failed by injection.
func (f *Flaky) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// inject decides one operation's fate: the armed error, or nil to pass
// through to the inner substrate.
func (f *Flaky) inject(key dht.Key) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	fail := false
	if n, ok := f.perKey[key]; ok && n != 0 {
		fail = true
		if n > 0 {
			f.perKey[key] = n - 1
		}
	}
	if !fail && f.all != 0 {
		fail = true
		if f.all > 0 {
			f.all--
		}
	}
	if !fail {
		return nil
	}
	f.injected++
	if f.err != nil {
		return f.err
	}
	return ErrInjected
}

// Put implements dht.DHT.
func (f *Flaky) Put(key dht.Key, value any) error {
	if err := f.inject(key); err != nil {
		return err
	}
	return f.inner.Put(key, value)
}

// Get implements dht.DHT.
func (f *Flaky) Get(key dht.Key) (any, bool, error) {
	if err := f.inject(key); err != nil {
		return nil, false, err
	}
	return f.inner.Get(key)
}

// Remove implements dht.DHT.
func (f *Flaky) Remove(key dht.Key) error {
	if err := f.inject(key); err != nil {
		return err
	}
	return f.inner.Remove(key)
}

// takeRerun disarms and returns the discarded run armed on key.
func (f *Flaky) takeRerun(key dht.Key) (view, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	stale, armed := f.rerun[key]
	delete(f.rerun, key)
	return stale, armed
}

// Apply implements dht.DHT.
func (f *Flaky) Apply(key dht.Key, fn dht.ApplyFunc) error {
	if err := f.inject(key); err != nil {
		return err
	}
	if stale, armed := f.takeRerun(key); armed {
		fn(stale.cur, stale.exists)
	}
	return f.inner.Apply(key, fn)
}

// Do implements dht.Doer — the one capability Flaky forwards, because an op is
// a per-key operation like Apply and takes the same injections — so an op
// reaches an inner substrate that executes ops as an op.
func (f *Flaky) Do(key dht.Key, op dht.Op) (any, error) {
	if err := f.inject(key); err != nil {
		return nil, err
	}
	if stale, armed := f.takeRerun(key); armed {
		op.Run(stale.cur, stale.exists) // discarded: its verdict is what is thrown away
	}
	return dht.Do(f.inner, key, op)
}

// Owner implements dht.DHT.
func (f *Flaky) Owner(key dht.Key) (string, error) {
	if err := f.inject(key); err != nil {
		return "", err
	}
	return f.inner.Owner(key)
}

// Range forwards to the inner Enumerator when present; enumeration is a
// measurement aid and is never failure-injected.
func (f *Flaky) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := f.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	return e.Range(fn)
}

// SeedFromEnv returns the seed the CI matrix sets via MLIGHT_TEST_SEED, or
// def when the variable is unset or malformed. Seed-sensitive tests thread
// it into their RNGs and retry policies so one workflow can sweep seeds
// without code changes.
func SeedFromEnv(def int64) int64 {
	s := os.Getenv("MLIGHT_TEST_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return def
	}
	return v
}
