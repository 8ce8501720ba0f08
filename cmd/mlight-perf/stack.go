package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"mlight"
	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/daemon"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/simnet"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// stack is one built workload substrate with the index on top.
type stack struct {
	ix *core.Index
	// walDirs are the journal directories the stack writes (for the
	// space-amplification metric); close removes them.
	walDirs []string
	closers []func() error
}

// close tears the stack down in reverse build order and reports the first
// error; it always runs every closer, so temp dirs and daemons never
// outlive a run.
func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

func (s *stack) onClose(fn func() error) { s.closers = append(s.closers, fn) }

// diskBytes is the size of everything under the stack's journal dirs.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	for _, dir := range s.walDirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// tempDir creates a journal directory that close removes.
func (s *stack) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "mlight-perf-")
	if err != nil {
		return "", err
	}
	s.walDirs = append(s.walDirs, dir)
	s.onClose(func() error { return os.RemoveAll(dir) })
	return dir, nil
}

// dhtSeam interposes the dht seam when the run is traced.
func dhtSeam(d dht.DHT, rec *recorder) dht.DHT {
	if rec == nil {
		return d
	}
	return newTimedDHT(d, rec, levelDHT, levelFn)
}

func buildEngineLocal(seed int64, rec *recorder) (*stack, error) {
	d, err := dht.NewSharded(128)
	if err != nil {
		return nil, err
	}
	ix, err := mlight.New(dhtSeam(d, rec), mlight.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return &stack{ix: ix}, nil
}

func buildDurableLocal(seed int64, rec *recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	dir, err := st.tempDir()
	if err != nil {
		return nil, err
	}
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: wire.BucketCodec{}})
	if err != nil {
		return nil, err
	}
	st.onClose(w.Close)
	d, err := dht.NewDurableLocal(128, w)
	if err != nil {
		return nil, err
	}
	st.ix, err = mlight.New(dhtSeam(d, rec), mlight.WithSeed(seed))
	return st, err
}

// simChordPeers is the overlay size of sim-chord and of the pastry and
// kademlia probes.
const simChordPeers = 128

// buildSimChord is mlight.NewReplicatedChordCluster written out, so that
// the rpc seam can sit between the ring and its network.
func buildSimChord(seed int64, rec *recorder) (*stack, error) {
	var net transport.Interface = simnet.New(simnet.Options{})
	if rec != nil {
		net = newTimedTransport(net, rec)
	}
	ring := chord.NewRing(net, chord.Config{Seed: seed, Replication: 2})
	for i := 0; i < simChordPeers; i++ {
		if _, err := ring.AddNode(transport.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			return nil, fmt.Errorf("sim-chord: %w", err)
		}
	}
	ring.Stabilize(2)
	ix, err := mlight.New(dhtSeam(ring, rec), mlight.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return &stack{ix: ix}, nil
}

const tcpDaemons = 4

// daemonAddrs lists, for each daemon of tcp-cluster, the loopback addresses
// to try in order. A chord node's place on the ring is the SHA-1 of its
// address, and four places drawn by ephemeral ports gave four different key
// shares and hop counts in every round: lookup_p50_us moved by a third
// between rounds of one run. Each daemon instead takes the port, from a range
// below the kernel's ephemeral ports, that hashes closest to its quarter
// point of the ring — the even split consistent hashing tends to — and every
// round of every run routes over the same ring. The next closest ports are
// the fallback where one is taken.
var daemonAddrs = sync.OnceValue(func() [tcpDaemons][]string {
	const firstPort, ports, keep = 20000, 10000, 8
	place := make([]uint64, ports)
	for j := range place {
		id := dht.HashString(fmt.Sprintf("127.0.0.1:%d", firstPort+j))
		place[j] = binary.BigEndian.Uint64(id[:8])
	}
	var out [tcpDaemons][]string
	for i := range out {
		target := uint64(i) << 62
		distance := func(j int) uint64 {
			d := place[j] - target
			return min(d, -d)
		}
		byDistance := make([]int, ports)
		for j := range byDistance {
			byDistance[j] = j
		}
		slices.SortFunc(byDistance, func(a, b int) int { return cmp.Compare(distance(a), distance(b)) })
		for _, j := range byDistance[:keep] {
			out[i] = append(out[i], fmt.Sprintf("127.0.0.1:%d", firstPort+j))
		}
	}
	return out
})

// freeAddr returns the first of addrs that can be bound now.
func freeAddr(addrs []string) (string, error) {
	var first error
	for _, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return addr, ln.Close()
		}
		if first == nil {
			first = err
		}
	}
	return "", first
}

func buildTCPCluster(seed int64, rec *recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	var addrs []string
	var rings []*chord.Ring
	for i := 0; i < tcpDaemons; i++ {
		dir, err := st.tempDir()
		if err != nil {
			return nil, err
		}
		listen, err := freeAddr(daemonAddrs()[i])
		if err != nil {
			return nil, fmt.Errorf("tcp-cluster: daemon %d: %w", i, err)
		}
		d, err := daemon.Start(daemon.Config{
			Listen:         listen,
			Seeds:          addrs,
			Replication:    2,
			WALDir:         dir,
			StabilizeEvery: 250 * time.Millisecond,
			Seed:           seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("tcp-cluster: daemon %d: %w", i, err)
		}
		st.onClose(func() error {
			// A leaving node hands its shard to its successor, and a
			// neighbour's background stabilize can re-install a successor
			// that has just left; the handoff then fails. The cluster is
			// being discarded, so nothing is lost: report it, and do not
			// fail the run. Close releases the daemon's resources either way.
			if err := d.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mlight-perf: tcp-cluster: teardown: %v\n", err)
			}
			return nil
		})
		addrs = append(addrs, d.Addr())
		rings = append(rings, d.DHT().(*chord.Ring))
	}
	// Converge successor and finger pointers now, so the preload is routed
	// on a stable ring instead of whatever the background loops reached.
	for round := 0; round < 3; round++ {
		for _, r := range rings {
			r.Stabilize(1)
		}
	}

	opts := []mlight.Option{
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6, Seed: seed}),
		mlight.WithCache(256),
		mlight.WithSeed(seed),
	}
	if rec == nil {
		client, err := mlight.Dial(addrs, opts...)
		if err != nil {
			return nil, err
		}
		st.onClose(client.Close)
		st.ix = client.Index
		return st, nil
	}

	// The traced client is mlight.Dial's stack rebuilt by hand so that the
	// seams fit between its layers; a test pins the two to identical
	// paper-cost counts.
	tcp := transport.NewTCP(transport.TCPOptions{})
	st.onClose(tcp.Close)
	seeds := make([]transport.NodeID, len(addrs))
	for i, a := range addrs {
		seeds[i] = transport.NodeID(a)
	}
	ring := chord.NewRing(newTimedTransport(tcp, rec), chord.Config{Seed: seed, Seeds: seeds})
	bytes := wire.NewByteDHT(newTimedDHT(ring, rec, levelSubstrate, levelFnSub), wire.BucketCodec{})
	st.ix, err = core.New(dhtSeam(bytes, rec), core.FromTuning(index.Resolve(opts...)))
	return st, err
}
