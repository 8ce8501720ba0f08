package chord

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
)

// ringEdgeIDs are the identifiers the word arithmetic is checked on: both
// ends of the space, the words' borders, one either side of each, and a
// few random ones.
func ringEdgeIDs(rng *rand.Rand) []dht.ID {
	one := dht.ID{}.AddPowerOfTwo(0)
	var top dht.ID
	for i := range top {
		top[i] = 0xff
	}
	out := []dht.ID{{}, one, top, top.Sub(one)}
	for _, bit := range []int{31, 32, 33, 63, 64, 95, 96, 97, 127, 128, 159} {
		p := dht.ID{}.AddPowerOfTwo(bit)
		out = append(out, p, p.Sub(one), p.AddPowerOfTwo(0))
	}
	for range 12 {
		var id dht.ID
		rng.Read(id[:])
		out = append(out, id)
	}
	return out
}

// idOfDist turns a dist back into the identifier it holds.
func idOfDist(d dist) dht.ID {
	var id dht.ID
	for i := range 8 {
		id[i] = byte(d[0] >> (56 - 8*i))
		id[8+i] = byte(d[1] >> (56 - 8*i))
	}
	for i := range 4 {
		id[16+i] = byte(d[2] >> (56 - 8*i))
	}
	return id
}

// TestDistMatchesBigInt holds the routing table's word arithmetic to
// math/big, and its two one-compare tests to dht.ID's Between and
// BetweenOpen: for a node n and identifiers x, y drawn from both ends of the
// space, the words' borders and random points — so also x or y equal to n,
// intervals that wrap past zero, and all-zero and all-0xff identifiers:
//   - distOf(x).minus(distOf(y)) is x − y modulo 2^160, and its low 32 bits
//     stay zero; less is big.Int's order;
//   - with keys taken from n + 1, target x is Done at successor y exactly
//     when x.Between(n, y), and y is a candidate hop towards x exactly when
//     y.BetweenOpen(n, x).
func TestDistMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	ids := ringEdgeIDs(rng)
	mod := new(big.Int).Lsh(big.NewInt(1), dht.IDBits)
	for _, x := range ids {
		for _, y := range ids {
			d := distOf(x).minus(distOf(y))
			want := new(big.Int).Sub(x.BigInt(), y.BigInt())
			want.Mod(want, mod)
			if got := idOfDist(d).BigInt(); got.Cmp(want) != 0 || uint32(d[2]) != 0 {
				t.Fatalf("%x − %x = %x (%x), want %x", x[:], y[:], got, d, want)
			}
			if got, want := distOf(x).less(distOf(y)), x.BigInt().Cmp(y.BigInt()) < 0; got != want {
				t.Fatalf("%x < %x: words say %v, big.Int %v", x[:], y[:], got, want)
			}
		}
	}
	// ahead's top-word shortcut, where the words lie a few apart.
	for range 20000 {
		var n, x, target dht.ID
		rng.Read(n[:])
		rng.Read(x[:])
		rng.Read(target[:])
		top := binary.BigEndian.Uint64(n[:8])
		binary.BigEndian.PutUint64(x[:8], top+uint64(rng.Intn(5))-1)
		binary.BigEndian.PutUint64(target[:8], top+uint64(rng.Intn(7))-1)
		if got, want := ahead(&n, &x, &target), x.BetweenOpen(n, target); got != want {
			t.Fatalf("n %x, target %x, node %x: ahead %v, BetweenOpen %v", n[:], target[:], x[:], got, want)
		}
	}
	if got := idOfDist(farthest); got != ids[2] {
		t.Fatalf("farthest = %x, want all 0xff", got[:])
	}
	for _, n := range ids {
		base := distOf(n.AddPowerOfTwo(0))
		key := func(id dht.ID) dist { return distOf(id).minus(base) }
		if key(n) != farthest {
			t.Fatalf("key of n = %x itself is %x, want farthest", n[:], key(n))
		}
		for _, x := range ids {
			for _, y := range ids {
				if done, want := !key(y).less(key(x)), x.Between(n, y); done != want {
					t.Fatalf("n %x, target %x, successor %x: Done %v, Between %v", n[:], x[:], y[:], done, want)
				}
				if hop, want := key(y).less(key(x)), y.BetweenOpen(n, x); hop != want {
					t.Fatalf("n %x, target %x, node %x: a hop %v, BetweenOpen %v", n[:], x[:], y[:], hop, want)
				}
				if got, want := ahead(&n, &y, &x), y.BetweenOpen(n, x); got != want {
					t.Fatalf("n %x, target %x, node %x: ahead %v, BetweenOpen %v", n[:], x[:], y[:], got, want)
				}
			}
		}
	}
}

// TestTableMatchesFullScanUnderWrites writes fingers and successor lists at
// random — the ring's own nodes, the node itself, empty slots, in any order,
// so tables no maintenance round would leave — and after every write holds
// each finger to a plain array written alongside, and the step reply towards
// every interesting target to the full scan.
func TestTableMatchesFullScanUnderWrites(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	for _, size := range []int{2, 5, 16} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			_, ring := buildRing(t, size)
			addrs := ring.Nodes()
			n := routing(t, ring, addrs[rng.Intn(len(addrs))])
			pool := []ref{{}, n.Ref()}
			for _, a := range addrs {
				pool = append(pool, routing(t, ring, a).Ref())
			}
			pick := func() ref { return pool[rng.Intn(len(pool))] }
			want := stateOf(n).fingers
			for w := range 600 {
				what := fmt.Sprintf("write %d", w)
				switch r := rng.Intn(10); {
				case r == 0:
					succs := make([]ref, rng.Intn(SuccessorListLen+1))
					for i := range succs {
						succs[i] = pick()
					}
					n.mu.Lock()
					n.setSuccsLocked(succs)
					n.mu.Unlock()
				case r < 4:
					// A run of equal fingers, as fixFingers writes them.
					lo, f := rng.Intn(dht.IDBits), pick()
					for i := lo; i < min(dht.IDBits, lo+1+rng.Intn(24)); i++ {
						n.setFinger(i, f)
						want[i] = f
					}
				default:
					i, f := rng.Intn(dht.IDBits), pick()
					n.setFinger(i, f)
					want[i] = f
				}
				if got := stateOf(n).fingers; got != want {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: finger[%d] = %q, want %q", what, i, got[i].Addr, want[i].Addr)
						}
					}
				}
				assertStep(t, n, jumpTargets(rng, ring, n), what)
			}
		})
	}
}
