package dht

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"mlight/internal/metrics"
	"mlight/internal/trace"
)

// This file implements the retry engine beneath the Resilient decorator: an
// error taxonomy (transient vs terminal), capped exponential backoff with
// deterministic seeded jitter, per-operation attempt budgets, and per-owner
// circuit breakers that shed load from repeatedly failing peers. The engine
// is exposed as a standalone Retrier so non-DHT call sites (e.g. the
// overlays' replication RPCs) reuse the exact same policy machinery.

// ErrBreakerOpen is returned, wrapped, by operations shed because the
// destination owner's circuit breaker is open. It is deliberately terminal:
// retrying a shed operation immediately would defeat the load shedding.
var ErrBreakerOpen = errors.New("dht: circuit breaker open")

// retryableError marks an error as transient for DefaultClassify.
type retryableError struct{ err error }

func (e retryableError) Error() string   { return e.err.Error() }
func (e retryableError) Unwrap() error   { return e.err }
func (e retryableError) Temporary() bool { return true }

// Retryable marks err as transient: DefaultClassify will treat any error
// whose chain contains the returned error as retryable. Identity is
// preserved, so errors.Is(wrapped, Retryable(sentinel)) keeps working.
func Retryable(err error) error { return retryableError{err} }

// DefaultClassify is the retry engine's error taxonomy: an error is
// retryable iff something in its chain declares itself transient via a
// `Temporary() bool` method (the net.Error convention, also implemented by
// simnet's unreachable/drop errors and the overlays' lookup failures).
// Everything else — bad response types, dimension errors, ErrNoPeers — is
// terminal: retrying cannot fix it.
func DefaultClassify(err error) bool {
	if err == nil {
		return false
	}
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return false
}

// OwnerShard is the default breaker keying: the top byte of the key's
// position on the identifier ring. Peers own contiguous arcs of the ring,
// so the 256 shards approximate per-owner granularity without issuing the
// DHT lookup an exact Owner resolution would cost on a routed overlay.
func OwnerShard(key Key) string {
	id := HashKey(key)
	return fmt.Sprintf("shard-%02x", id[0])
}

// NoSleep is a Sleep implementation that returns immediately — for tests
// and simulations where backoff delays are accounted, not paid.
func NoSleep(time.Duration) {}

// RetryPolicy configures a Retrier (and therefore a Resilient decorator).
// The zero value of each field selects the listed default.
type RetryPolicy struct {
	// MaxAttempts is the per-operation attempt budget (first try included).
	// Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. Default 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Default 100ms.
	MaxDelay time.Duration
	// Seed seeds the jitter generator, keeping sequential runs
	// reproducible. Backoff delays are drawn from [delay/2, delay] ("equal
	// jitter"), so retries from many clients decorrelate without ever
	// halving below half the nominal delay.
	Seed int64
	// BreakerThreshold is the number of consecutive failed attempts against
	// one owner that opens its circuit breaker. Default 8; negative
	// disables the breaker entirely.
	BreakerThreshold int
	// BreakerCooldown is how many operations an open breaker sheds before
	// letting one half-open trial through. Counting shed operations instead
	// of wall-clock time keeps fault-injection tests deterministic.
	// Default 4.
	BreakerCooldown int
	// OwnerOf maps a key to its breaker owner. Default OwnerShard;
	// substrates with cheap exact ownership can supply their own.
	OwnerOf func(Key) string
	// Sleep performs the backoff wait. Default time.Sleep; use NoSleep in
	// tests and logical-time simulations.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 8
	}
	if p.BreakerCooldown < 1 {
		p.BreakerCooldown = 4
	}
	if p.OwnerOf == nil {
		p.OwnerOf = OwnerShard
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-owner circuit state. All transitions happen under the
// Retrier's mutex.
type breaker struct {
	state         int
	consecutive   int // failed attempts since the last success (closed state)
	shedRemaining int // operations still to shed before a half-open trial
}

// Retrier executes operations under a RetryPolicy. It is safe for
// concurrent use; the jitter generator and breaker table are shared.
type Retrier struct {
	policy RetryPolicy
	stats  *metrics.ResilienceStats

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*breaker
}

// NewRetrier creates a retry executor with the given policy. A nil stats
// allocates a private counter set, retrievable via Stats.
func NewRetrier(policy RetryPolicy, stats *metrics.ResilienceStats) *Retrier {
	if stats == nil {
		stats = &metrics.ResilienceStats{}
	}
	p := policy.withDefaults()
	return &Retrier{
		policy: p,
		stats:  stats,
		// Backoff jitter draws from a private source seeded by the policy,
		// never the global rand — the determinism invariant mlight-lint
		// enforces: same policy, same jitter sequence, replayable runs.
		rng:      rand.New(rand.NewSource(p.Seed)),
		breakers: make(map[string]*breaker),
	}
}

// Stats returns the counter set this retrier charges.
func (r *Retrier) Stats() *metrics.ResilienceStats { return r.stats }

// Do runs op under the retry policy, charging failures against owner's
// circuit breaker. Retryable errors are retried with backoff up to the
// attempt budget; terminal errors abort immediately. A shed operation
// returns an error wrapping ErrBreakerOpen without touching op at all.
func (r *Retrier) Do(owner string, op func() error) error {
	return r.DoTraced(owner, nil, 0, op)
}

// DoTraced is Do recording physical attempts into tc as KindAttempt spans
// under parent. With a parent span every attempt is recorded (the caller
// asked for this operation's full physical timeline); without one — bulk
// maintenance traffic — only retries (attempt ≥ 2) are recorded, so an
// attached collector is not flooded with one span per successful first
// try. A nil tc records nothing.
func (r *Retrier) DoTraced(owner string, tc *trace.Collector, parent trace.SpanID, op func() error) error {
	r.stats.Ops.Inc()
	if err := r.precheck(owner); err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		var err error
		if tc != nil && (parent != 0 || attempt > 1) {
			span := tc.Begin(parent, trace.KindAttempt, fmt.Sprintf("%d", attempt),
				trace.Str("owner", owner))
			err = op()
			if err != nil {
				tc.End(span, trace.Str("error", err.Error()))
			} else {
				tc.End(span)
			}
		} else {
			err = op()
		}
		final, again := r.settle(owner, attempt, err)
		if !again {
			return final
		}
		r.policy.Sleep(r.backoff(attempt))
	}
}

// waves is DoTraced for a batch: each of the n operations (the i-th keyed by
// key(i)) consults its owner's breaker once, the admitted ones go to run
// together, and only those whose attempt failed retryably are re-issued, as
// progressively smaller waves with one backoff between them. run executes
// the operations at the given indexes and returns their errors positionally;
// waves returns each operation's final error, settled as DoTraced settles
// it. Retry waves (attempt ≥ 2) are recorded in tc as flat KindAttempt
// spans: like DoTraced's flat case, a successful first wave stays silent.
func (r *Retrier) waves(n int, key func(int) Key, tc *trace.Collector, run func(idx []int) []error) []error {
	errs := make([]error, n)
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		r.stats.Ops.Inc()
		if errs[i] = r.precheck(r.policy.OwnerOf(key(i))); errs[i] == nil {
			pending = append(pending, i)
		}
	}
	for attempt := 1; len(pending) > 0; attempt++ {
		var wave trace.SpanID
		if tc != nil && attempt > 1 {
			wave = tc.Begin(0, trace.KindAttempt, "wave "+strconv.Itoa(attempt),
				trace.Int("keys", int64(len(pending))))
		}
		got := run(pending)
		if wave != 0 {
			tc.End(wave)
		}
		next := pending[:0]
		for j, i := range pending {
			var again bool
			if errs[i], again = r.settle(r.policy.OwnerOf(key(i)), attempt, got[j]); again {
				next = append(next, i)
			}
		}
		pending = next
		if len(pending) > 0 {
			r.policy.Sleep(r.backoff(attempt))
		}
	}
	return errs
}

// settle books one finished attempt against owner and decides what follows
// it: the operation's final error (nil on success) when it is over, or again
// when a retryable failure still has budget left. Retryable errors count
// against owner's breaker; terminal ones abort at once; an exhausted budget
// wraps the last error.
func (r *Retrier) settle(owner string, attempt int, err error) (final error, again bool) {
	r.stats.Attempts.Inc()
	switch {
	case err == nil:
		r.onSuccess(owner)
		if attempt > 1 {
			r.stats.Recovered.Inc()
		}
		return nil, false
	case !DefaultClassify(err):
		r.stats.Terminal.Inc()
		return err, false
	}
	r.onFailure(owner)
	if attempt >= r.policy.MaxAttempts {
		r.stats.Exhausted.Inc()
		return fmt.Errorf("dht: giving up after %d attempts: %w", attempt, err), false
	}
	r.stats.Retries.Inc()
	return nil, true
}

// precheck consults owner's breaker before an operation starts. It returns
// a fast-fail error while the breaker is shedding, and silently admits a
// half-open trial once the cooldown is spent.
func (r *Retrier) precheck(owner string) error {
	if r.policy.BreakerThreshold < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[owner]
	if b == nil {
		return nil
	}
	switch b.state {
	case breakerOpen:
		if b.shedRemaining > 0 {
			b.shedRemaining--
			r.stats.BreakerFastFails.Inc()
			return fmt.Errorf("%w: owner %q", ErrBreakerOpen, owner)
		}
		b.state = breakerHalfOpen // this operation is the trial
		return nil
	case breakerHalfOpen:
		// A trial is already in flight; keep shedding until it resolves.
		r.stats.BreakerFastFails.Inc()
		return fmt.Errorf("%w: owner %q (half-open trial pending)", ErrBreakerOpen, owner)
	default:
		return nil
	}
}

// onSuccess records a successful attempt: any breaker state collapses back
// to closed.
func (r *Retrier) onSuccess(owner string) {
	if r.policy.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[owner]
	if b == nil {
		return
	}
	if b.state == breakerHalfOpen {
		r.stats.BreakerResets.Inc()
	}
	b.state = breakerClosed
	b.consecutive = 0
	b.shedRemaining = 0
}

// onFailure records a retryable failed attempt against owner, opening the
// breaker after BreakerThreshold consecutive failures (and re-opening it
// when a half-open trial fails).
func (r *Retrier) onFailure(owner string) {
	if r.policy.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[owner]
	if b == nil {
		b = &breaker{}
		r.breakers[owner] = b
	}
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.shedRemaining = r.policy.BreakerCooldown
		r.stats.BreakerTrips.Inc()
	case breakerClosed:
		b.consecutive++
		if b.consecutive >= r.policy.BreakerThreshold {
			b.state = breakerOpen
			b.shedRemaining = r.policy.BreakerCooldown
			r.stats.BreakerTrips.Inc()
		}
	}
}

// backoff returns the jittered delay before retry number `attempt` (1 for
// the first retry): min(MaxDelay, BaseDelay·2^(attempt-1)) scaled into
// [delay/2, delay].
func (r *Retrier) backoff(attempt int) time.Duration {
	delay := r.policy.BaseDelay
	for i := 1; i < attempt && delay < r.policy.MaxDelay; i++ {
		delay *= 2
	}
	if delay > r.policy.MaxDelay {
		delay = r.policy.MaxDelay
	}
	if delay <= 0 {
		return 0
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	half := delay / 2
	return half + time.Duration(f*float64(delay-half))
}

// ResetOwner discards owner's breaker state entirely, as if the peer had
// never failed. Call it when a peer is known to have restarted: breaker
// state is evidence about a process that no longer exists, and without the
// reset a recovered peer keeps shedding load (open state) or serving
// repeated failure counts (closed-with-history) until a half-open trial
// happens to land — indefinitely long under the operation-counted cooldown
// if traffic to that owner is sparse.
func (r *Retrier) ResetOwner(owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.breakers, owner)
}

// BreakerState reports owner's breaker state for tests and diagnostics:
// "closed", "open", or "half-open".
func (r *Retrier) BreakerState(owner string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[owner]
	if b == nil {
		return "closed"
	}
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
