package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mlight"
	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/simnet"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// The floor probes time the layers' public functions directly, a fixed
// number of iterations each, and report medians. They bound from below
// what the rpc seam cannot see from outside — daemon-side handler, store
// and journal time — and give the two overlays without a workload numbers
// of their own.

// probeNS runs fn in `batches` batches of `per` calls and returns the
// median per-call time in nanoseconds.
func probeNS(batches, per int, fn func() error) (float64, error) {
	times := make([]float64, batches)
	for b := range times {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		times[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(times), nil
}

// probeBucket builds a bucket of n clustered records at the root label.
func probeBucket(n int) core.Bucket {
	return core.NewBucket(bitlabel.Root(2), dataset.Generate(n, 1))
}

type echoReq struct{ N int }

type echoHandler struct{}

func (echoHandler) HandleRPC(_ transport.NodeID, req any) (any, error) { return req, nil }

func init() { transport.RegisterType(echoReq{}) }

// nopDHT answers every call at once; the decorator probe subtracts it.
type nopDHT struct{}

func (nopDHT) Put(dht.Key, any) error             { return nil }
func (nopDHT) Get(dht.Key) (any, bool, error)     { return nil, false, nil }
func (nopDHT) Remove(dht.Key) error               { return nil }
func (nopDHT) Apply(dht.Key, dht.ApplyFunc) error { return nil }
func (nopDHT) Owner(dht.Key) (string, error)      { return "", nil }

var probeSink any

var probed struct {
	once sync.Once
	out  metricSet
	err  error
}

// probes runs the floor probes once per process: they do not depend on the
// workload, so a run over several workloads reports the same measurement.
func probes() (metricSet, error) {
	probed.once.Do(func() {
		probed.out = metricSet{}
		probed.err = runProbes(probed.out)
	})
	return probed.out, probed.err
}

// prober runs timed probes into a metric set; the first error sticks and
// turns the remaining probes into no-ops.
type prober struct {
	out metricSet
	err error
}

// time reports the median per-call time of fn under name, in unit (ns
// multiplied by scale).
func (p *prober) time(name, unit string, scale float64, batches, per int, fn func() error) {
	if p.err != nil {
		return
	}
	ns, err := probeNS(batches, per, fn)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	p.out.set(name, unit, ns*scale)
}

// runProbes measures every probe-sourced per-layer metric.
func runProbes(out metricSet) error {
	p := &prober{out: out}
	b50, b100 := probeBucket(50), probeBucket(100)
	extra := dataset.Generate(51, 2)[50]

	// wire: the bucket codec.
	enc50, enc100 := wire.MarshalBucket(b50), wire.MarshalBucket(b100)
	out.set("wire.bytes_per_record", "B", float64(len(enc50))/50)
	for _, c := range []struct {
		suffix string
		b      core.Bucket
		enc    []byte
	}{{"bucket_ns", b50, enc50}, {"bucket100_ns", b100, enc100}} {
		p.time("wire.marshal_"+c.suffix, "ns", 1, 41, 200, func() error {
			probeSink = wire.MarshalBucket(c.b)
			return nil
		})
		p.time("wire.unmarshal_"+c.suffix, "ns", 1, 41, 200, func() error {
			v, err := wire.UnmarshalBucket(c.enc)
			probeSink = v
			return err
		})
	}

	// transport: the reflection codec on the message a remote insert ships.
	cas := dht.CASReq{Key: "mlight/probe", Ver: 7, Value: enc50, Keep: true}
	casBytes, err := transport.Marshal(cas)
	if err != nil {
		return err
	}
	p.time("transport.marshal_ns", "ns", 1, 41, 200, func() error {
		v, err := transport.Marshal(cas)
		probeSink = v
		return err
	})
	p.time("transport.unmarshal_ns", "ns", 1, 41, 200, func() error {
		v, err := transport.Unmarshal(casBytes)
		probeSink = v
		return err
	})

	// transport: a framed echo round trip over loopback TCP.
	tcp := transport.NewTCP(transport.TCPOptions{})
	echoID, err := tcp.Reserve()
	if err == nil {
		err = tcp.Register(echoID, echoHandler{})
	}
	if err == nil {
		p.time("transport.echo_p50_us", "us", 1e-3, 2001, 1, func() error {
			_, err := tcp.Call("probe-client", echoID, echoReq{N: 1})
			return err
		})
	}
	if cerr := tcp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe echo: %w", err)
	}

	// simnet: the same echo, delivered inline.
	sim := simnet.New(simnet.Options{})
	if err := sim.Register("echo", echoHandler{}); err != nil {
		return err
	}
	p.time("simnet.call_ns", "ns", 1, 41, 2000, func() error {
		_, err := sim.Call("probe-client", "echo", echoReq{N: 1})
		return err
	})

	// dht stores: one Apply that appends to a 50-record bucket.
	appendFn := func(cur any, _ bool) (any, bool) {
		probeSink = cur.(core.Bucket).Append(extra)
		return cur, true
	}
	for _, c := range []struct {
		name string
		d    dht.DHT
	}{{"dht.local_apply_ns", dht.MustNewLocal(128)}, {"dht.sharded_apply_ns", dht.MustNewSharded(128)}} {
		if err := c.d.Put("mlight/probe", b50); err != nil {
			return err
		}
		p.time(c.name, "ns", 1, 41, 500, func() error { return c.d.Apply("mlight/probe", appendFn) })
	}

	// dht decorators: what core.New stacks over the substrate, minus the
	// substrate.
	get := func(d dht.DHT) func() error {
		return func() error { _, _, err := d.Get("mlight/probe"); return err }
	}
	p.time("dht.decorator_overhead_ns", "ns", 1, 41, 5000, get(dht.NewCounting(dht.NewResilient(nopDHT{}, dht.RetryPolicy{}, nil), nil)))
	bare, err := probeNS(41, 5000, get(nopDHT{}))
	if err != nil {
		return err
	}
	out.set("dht.decorator_overhead_ns", "ns", out["dht.decorator_overhead_ns"].Value-bare)

	// wal: journaling that bucket, and the log bytes one append adds.
	dir, err := os.MkdirTemp("", "mlight-perf-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: wire.BucketCodec{}, CompactThreshold: -1})
	if err != nil {
		return err
	}
	const batches, per = 41, 100
	p.time("wal.append_us", "us", 1e-3, batches, per, func() error {
		return w.Append([]dht.WALRecord{{Op: dht.WALPut, Key: "mlight/probe", Value: b50}})
	})
	if info, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		out.set("wal.log_bytes_per_record", "B", float64(info.Size())/(batches*per)/50)
	} else if p.err == nil {
		p.err = err
	}
	if err := w.Close(); err != nil && p.err == nil {
		p.err = err
	}
	if p.err != nil {
		return p.err
	}
	return probeOverlays(out)
}

// probeOverlays times a 5k-Get script against 128-peer pastry and kademlia
// overlays on a zero-latency simnet and reads their hop counters.
func probeOverlays(out metricSet) error {
	const keys, gets = 500, 5000
	p, _, err := mlight.NewPastryCluster(simChordPeers, 1)
	if err != nil {
		return err
	}
	k, _, err := mlight.NewKademliaCluster(simChordPeers, 1)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name          string
		d             dht.DHT
		lookups, hops *metrics.Counter
	}{{"pastry", p, &p.Lookups, &p.Hops}, {"kademlia", k, &k.Lookups, &k.Hops}} {
		for i := 0; i < keys; i++ {
			if err := c.d.Put(dht.Key("probe/"+strconv.Itoa(i)), i); err != nil {
				return fmt.Errorf("probe %s: put: %w", c.name, err)
			}
		}
		lookups0, hops0 := c.lookups.Load(), c.hops.Load()
		i := 0
		ns, err := probeNS(gets/100, 100, func() error {
			i++
			_, found, err := c.d.Get(dht.Key("probe/" + strconv.Itoa(i*7919%keys)))
			if err == nil && !found {
				err = fmt.Errorf("key %d lost", i*7919%keys)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", c.name, err)
		}
		out.set(c.name+".get_us", "us", ns/1e3)
		out.set(c.name+".hops_mean", "count", ratio(float64(c.hops.Load()-hops0), float64(c.lookups.Load()-lookups0)))
	}
	return nil
}
