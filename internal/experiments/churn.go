package experiments

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
)

// churnParams is the section's configuration (ExtChurn): the shared knobs,
// the per-node per-round crash-probability sweep (each rate also drives
// proportional graceful leaves, rate/2, and fresh joins, rate), the churn
// rounds per sweep point, and the point reads attempted per round.
type churnParams struct {
	Config
	churnRates      []float64
	rounds          int
	queriesPerRound int
}

// The deployment is fixed: the ring's copy count, the retry layer's
// per-operation attempt budget, and the cap on the post-churn reconvergence
// measurement.
const (
	churnReplication       = 3
	churnMaxAttempts       = 6
	churnMaxRecoveryRounds = 12
)

// churnAt is the section's preset at scale under what cfg already sets. Same
// design point as the resilience section: a small ring keeps maintenance cost
// per round bounded (each churn round runs full-ring maintenance) and
// replication — not routing depth — the variable under test. 0.12 is the
// acceptance point of the sweep (≥ 95% success with retries).
func churnAt(cfg Config, scale Scale) (churnParams, error) {
	p := churnParams{
		Config:          Config{Peers: 12, DataSize: 1500},
		churnRates:      []float64{0, 0.06, 0.12, 0.24},
		rounds:          10,
		queriesPerRound: 40,
	}
	if scale == Quick {
		p.DataSize = 600
	}
	var err error
	p.Config, err = cfg.at(scale, p.Config)
	return p, err
}

func churnReport(res ChurnResult) Report {
	rep := Report{Tables: []Table{res.Table()}, Summary: res}
	for _, pt := range res.Points {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"churn %.2f: success %.1f%% with retry vs %.1f%% bare (%dc/%dl/%dr/%dj, reconverged in %d rounds, intact=%v)",
			pt.ChurnRate, 100*pt.SuccessWithRetry, 100*pt.SuccessWithoutRetry,
			pt.Crashes, pt.Leaves, pt.Restarts, pt.Joins, pt.RecoveryRounds, pt.FinalIntact))
	}
	for _, rp := range res.Recovery {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"crash recovery (wal=%v): %d/%d records back in %.2fms, intact=%v",
			rp.WAL, rp.RecoveredRecords, rp.Records, rp.ReplayMS, rp.Intact))
	}
	return rep
}

// ChurnPoint is one churn-rate sample of the sweep.
type ChurnPoint struct {
	ChurnRate float64 `json:"churn_rate"`
	// SuccessWithRetry / SuccessWithoutRetry are the fractions of point
	// reads during the churn schedule that returned the correct value on
	// the retry-wrapped and bare substrates.
	SuccessWithRetry    float64 `json:"success_with_retry"`
	SuccessWithoutRetry float64 `json:"success_without_retry"`
	// Schedule composition actually drawn at this rate.
	Crashes  int `json:"crashes"`
	Leaves   int `json:"leaves"`
	Restarts int `json:"restarts"`
	Joins    int `json:"joins"`
	// RecoveryRounds is how many maintenance rounds after the schedule
	// stopped until a full scan matched the ground-truth record set
	// (capped at churnMaxRecoveryRounds).
	RecoveryRounds int `json:"recovery_rounds"`
	// FinalIntact reports that the full scan matched ground truth exactly
	// within the recovery cap — nothing lost, nothing resurrected.
	FinalIntact bool `json:"final_intact"`
}

// ChurnRecoveryPoint is one crash/recovery measurement of the durable
// bucket store.
type ChurnRecoveryPoint struct {
	WAL     bool `json:"wal"`
	Records int  `json:"records"`
	// RecoveredRecords is how many records the post-crash store holds
	// after Recover: journal replay with the WAL, zero without.
	RecoveredRecords int `json:"recovered_records"`
	// ReplayMS is the wall-clock cost of Recover.
	ReplayMS float64 `json:"replay_ms"`
	// Intact reports the recovered state equals the pre-crash state.
	Intact bool `json:"intact"`
}

// ChurnResult is the machine-readable outcome of the churn experiment
// (written to BENCH_churn.json by cmd/mlight-bench).
type ChurnResult struct {
	DataSize    int   `json:"data_size"`
	Peers       int   `json:"peers"`
	Replication int   `json:"replication"`
	Rounds      int   `json:"rounds"`
	MaxAttempts int   `json:"max_attempts"`
	Seed        int64 `json:"seed"`

	Points   []ChurnPoint         `json:"points"`
	Recovery []ChurnRecoveryPoint `json:"recovery"`
}

// Table renders the sweep as availability curves plus the recovery cost.
func (r ChurnResult) Table() Table {
	with := Series{Name: "point-read success + retry"}
	without := Series{Name: "point-read success bare"}
	recovery := Series{Name: "recovery rounds after churn"}
	for _, p := range r.Points {
		with.Points = append(with.Points, Point{X: p.ChurnRate, Y: p.SuccessWithRetry})
		without.Points = append(without.Points, Point{X: p.ChurnRate, Y: p.SuccessWithoutRetry})
		recovery.Points = append(recovery.Points, Point{X: p.ChurnRate, Y: float64(p.RecoveryRounds)})
	}
	return Table{
		ID:     "ExtChurn",
		Title:  "Availability and recovery under sustained churn",
		XLabel: "per-node per-round crash rate",
		YLabel: "point-read success rate / recovery rounds",
		Series: []Series{with, without, recovery},
	}
}

// churnIntCodec journals the experiment's integer values. The durable
// bucket store in production journals wire-encoded buckets with
// wire.BucketCodec; the recovery measurement only needs stable payloads.
type churnIntCodec struct{}

func (churnIntCodec) Marshal(v any) ([]byte, error) {
	n, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("experiments: churn codec cannot encode %T", v)
	}
	return []byte(strconv.Itoa(n)), nil
}

func (churnIntCodec) Unmarshal(data []byte) (any, error) {
	return strconv.Atoi(string(data))
}

// churn measures what replication, repair, and the retry layer buy under
// sustained membership churn: a replicated Chord ring is driven through a
// deterministic schedule of crashes, graceful leaves, restarts, and joins
// while point reads run against both a retry-wrapped and a bare handle;
// after each schedule the experiment counts the maintenance rounds until a
// full scan matches ground truth again. A separate pass measures the
// durable bucket store's crash recovery with and without its write-ahead
// log.
func churn(cfg churnParams) (ChurnResult, error) {
	res := ChurnResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		Replication: churnReplication,
		Rounds:      cfg.rounds,
		MaxAttempts: churnMaxAttempts,
		Seed:        cfg.Seed,
	}

	for _, rate := range cfg.churnRates {
		p, err := churnSweepPoint(cfg, rate)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
	}

	for _, wal := range []bool{false, true} {
		p, err := churnRecoveryPoint(cfg.Config, wal)
		if err != nil {
			return res, err
		}
		res.Recovery = append(res.Recovery, p)
	}
	return res, nil
}

// churnSweepPoint runs one churn-rate sample on a fresh ring.
func churnSweepPoint(cfg churnParams, rate float64) (ChurnPoint, error) {
	p := ChurnPoint{ChurnRate: rate}
	net := simnet.New(simnet.Options{Seed: cfg.Seed})
	ring, err := substrate.Cluster("chord", net, cfg.Peers, overlay.Config{Seed: cfg.Seed, Replication: churnReplication})
	if err != nil {
		return p, fmt.Errorf("experiments: churn: %w", err)
	}

	key := func(i int) dht.Key { return dht.Key(fmt.Sprintf("rk%d", i)) }
	truth := make(map[dht.Key]int, cfg.DataSize)
	for i := 0; i < cfg.DataSize; i++ {
		if err := ring.Put(key(i), i); err != nil {
			return p, fmt.Errorf("experiments: churn seed: %w", err)
		}
		truth[key(i)] = i
	}
	ring.Stabilize(2)

	// The backoff wait between attempts is modeled as one maintenance
	// round: in a deployment the sleep is wall-clock time during which
	// stabilization keeps running, and that healing — not re-sending the
	// identical request into the identical routing state — is what makes
	// retries effective against crashed holders.
	retried := dht.NewResilient(ring, dht.RetryPolicy{
		MaxAttempts: churnMaxAttempts,
		Seed:        cfg.Seed,
		Sleep:       func(time.Duration) { ring.Stabilize(1) },
	}, nil)

	sched := simnet.NewChurnScheduler(simnet.ChurnConfig{
		Seed:        cfg.Seed,
		CrashRate:   rate,
		LeaveRate:   rate / 2,
		RestartRate: 0.5,
		JoinRate:    rate,
		MinLive:     cfg.Peers / 2,
		// Replication r tolerates r-1 failures between maintenance rounds.
		MaxDeparturesPerRound: churnReplication - 1,
	})

	joins := 0
	attempted, okRetry, okBare := 0, 0, 0
	for round := 0; round < cfg.rounds; round++ {
		for _, ev := range sched.Step(ring.Nodes(), ring.CrashedNodes()) {
			var err error
			switch ev.Kind {
			case simnet.EventCrash:
				p.Crashes++
				err = ring.CrashNode(ev.Node)
			case simnet.EventLeave:
				p.Leaves++
				err = ring.RemoveNode(ev.Node)
			case simnet.EventRestart:
				p.Restarts++
				_, err = ring.RestartNode(ev.Node)
			case simnet.EventJoin:
				p.Joins++
				joins++
				_, err = ring.AddNode(simnet.NodeID(fmt.Sprintf("churn-join-%d", joins)))
			}
			if err != nil {
				return p, fmt.Errorf("experiments: churn %s %q: %w", ev.Kind, ev.Node, err)
			}
		}
		// Queries run against the raw post-event state — the window before
		// this round's maintenance — because that race is what the sweep
		// measures. Bare reads go first so the healing the retry layer
		// performs (its backoff runs stabilization) cannot flatter them.
		for i := 0; i < cfg.queriesPerRound; i++ {
			k := key((round*61 + i*17) % cfg.DataSize)
			attempted++
			if v, found, err := ring.Get(k); err == nil && found && v == truth[k] {
				okBare++
			}
		}
		for i := 0; i < cfg.queriesPerRound; i++ {
			k := key((round*61 + i*17) % cfg.DataSize)
			if v, found, err := retried.Get(k); err == nil && found && v == truth[k] {
				okRetry++
			}
		}
		// One baseline maintenance round per churn round: repair runs, but
		// never fully ahead of the failure rate at the top of the sweep.
		ring.Stabilize(1)
	}
	if attempted > 0 {
		p.SuccessWithRetry = float64(okRetry) / float64(attempted)
		p.SuccessWithoutRetry = float64(okBare) / float64(attempted)
	}

	// Recovery: maintenance rounds after the schedule stops until a full
	// scan equals ground truth.
	matches := func() bool {
		got := make(map[dht.Key]int, len(truth))
		if err := ring.Range(func(k dht.Key, v any) bool {
			n, _ := v.(int)
			got[k] = n
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(truth) {
			return false
		}
		for k, v := range truth {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	for p.RecoveryRounds = 0; p.RecoveryRounds < churnMaxRecoveryRounds; p.RecoveryRounds++ {
		if matches() {
			p.FinalIntact = true
			break
		}
		ring.Stabilize(1)
	}
	if !p.FinalIntact {
		p.FinalIntact = matches()
	}
	return p, nil
}

// churnRecoveryPoint measures one crash/recover cycle of the local bucket
// substrate, journaled or not.
func churnRecoveryPoint(cfg Config, withWAL bool) (ChurnRecoveryPoint, error) {
	p := ChurnRecoveryPoint{WAL: withWAL, Records: cfg.DataSize}
	var local *dht.Local
	if withWAL {
		dir, err := os.MkdirTemp("", "mlight-churn-wal-")
		if err != nil {
			return p, err
		}
		defer os.RemoveAll(dir)
		w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: churnIntCodec{}})
		if err != nil {
			return p, err
		}
		defer w.Close()
		local, err = dht.NewDurableLocal(cfg.Peers, w)
		if err != nil {
			return p, err
		}
	} else {
		var err error
		local, err = dht.NewLocal(cfg.Peers)
		if err != nil {
			return p, err
		}
	}

	for i := 0; i < cfg.DataSize; i++ {
		if err := local.Put(dht.Key(fmt.Sprintf("bk%d", i)), i); err != nil {
			return p, err
		}
	}

	local.CrashVolatile()
	start := time.Now()
	if err := local.Recover(); err != nil {
		return p, err
	}
	p.ReplayMS = float64(time.Since(start).Microseconds()) / 1000
	p.RecoveredRecords = local.Len()

	p.Intact = p.RecoveredRecords == cfg.DataSize
	if p.Intact {
		for i := 0; i < cfg.DataSize; i++ {
			v, ok, err := local.Get(dht.Key(fmt.Sprintf("bk%d", i)))
			if err != nil || !ok || v != i {
				p.Intact = false
				break
			}
		}
	}
	return p, nil
}
