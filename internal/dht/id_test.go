package dht

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomID(rng *rand.Rand) ID {
	var id ID
	rng.Read(id[:])
	return id
}

func TestCmp(t *testing.T) {
	var zero, one ID
	one[len(one)-1] = 1
	if zero.Cmp(one) != -1 || one.Cmp(zero) != 1 || zero.Cmp(zero) != 0 {
		t.Error("Cmp ordering wrong on simple values")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomID(rng), randomID(rng)
		want := a.BigInt().Cmp(b.BigInt())
		if got := a.Cmp(b); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

// bigBetween is the big.Int oracle for the half-open ring interval (a, b].
func bigBetween(x, a, b ID) bool {
	ax, bx, xx := a.BigInt(), b.BigInt(), x.BigInt()
	switch ax.Cmp(bx) {
	case -1:
		return ax.Cmp(xx) < 0 && xx.Cmp(bx) <= 0
	case 1:
		return ax.Cmp(xx) < 0 || xx.Cmp(bx) <= 0
	default:
		return true
	}
}

func TestBetweenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x, a, b := randomID(rng), randomID(rng), randomID(rng)
		if got, want := x.Between(a, b), bigBetween(x, a, b); got != want {
			t.Fatalf("Between(%v; %v, %v) = %v, want %v", x, a, b, got, want)
		}
	}
	// Endpoint conventions.
	a, b := randomID(rng), randomID(rng)
	if a.Between(a, b) {
		t.Error("a should be excluded from (a, b]")
	}
	if !b.Between(a, b) {
		t.Error("b should be included in (a, b]")
	}
	if b.BetweenOpen(a, b) {
		t.Error("b should be excluded from (a, b)")
	}
}

func TestAddPowerOfTwo(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), IDBits)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := randomID(rng)
		k := rng.Intn(IDBits)
		got := a.AddPowerOfTwo(k).BigInt()
		want := new(big.Int).Add(a.BigInt(), new(big.Int).Lsh(big.NewInt(1), uint(k)))
		want.Mod(want, mod)
		if got.Cmp(want) != 0 {
			t.Fatalf("AddPowerOfTwo(%v, %d) = %v, want %v", a, k, got, want)
		}
	}
}

// TestBitLen holds ID.BitLen to big.Int's BitLen on random identifiers, on
// zero and on every power of two.
func TestBitLen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := []ID{{}}
	for k := 0; k < IDBits; k++ {
		ids = append(ids, ID{}.AddPowerOfTwo(k))
	}
	for i := 0; i < 500; i++ {
		id := randomID(rng)
		for j := 0; j < i%len(id); j++ {
			id[j] = 0 // shorter lengths too
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if got, want := id.BitLen(), id.BigInt().BitLen(); got != want {
			t.Fatalf("%x.BitLen() = %d, want %d", id[:], got, want)
		}
	}
}

func TestAddPowerOfTwoWraps(t *testing.T) {
	var all ID
	for i := range all {
		all[i] = 0xFF
	}
	got := all.AddPowerOfTwo(0)
	var zero ID
	if got != zero {
		t.Errorf("max+1 = %v, want zero (wraparound)", got)
	}
}

func TestDigit(t *testing.T) {
	var id ID
	id[0] = 0xAB // digits base-16: A, B
	id[1] = 0xCD
	for _, c := range []struct{ i, b, want int }{
		{0, 4, 0xA}, {1, 4, 0xB}, {2, 4, 0xC}, {3, 4, 0xD},
		{0, 8, 0xAB}, {1, 8, 0xCD},
		{0, 1, 1}, {1, 1, 0}, {2, 1, 1},
		{0, 2, 2}, {1, 2, 2},
	} {
		if got := id.Digit(c.i, c.b); got != c.want {
			t.Errorf("Digit(%d, base 2^%d) = %#x, want %#x", c.i, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixDigits(t *testing.T) {
	a := HashString("x")
	if got := a.CommonPrefixDigits(a, 4); got != NumDigits(4) {
		t.Errorf("self prefix = %d, want %d", got, NumDigits(4))
	}
	b := a
	b[0] ^= 0x01 // differs in the second base-16 digit
	if got := a.CommonPrefixDigits(b, 4); got != 1 {
		t.Errorf("prefix after low-nibble flip = %d, want 1", got)
	}
	b = a
	b[3] ^= 0xF0 // differs in digit 6
	if got := a.CommonPrefixDigits(b, 4); got != 6 {
		t.Errorf("prefix = %d, want 6", got)
	}
}

func TestHashKeyDeterministicQuick(t *testing.T) {
	f := func(s string) bool {
		return HashKey(Key(s)) == HashKey(Key(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubAndCircularDistance(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), IDBits)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := randomID(rng), randomID(rng)
		got := a.Sub(b).BigInt()
		want := new(big.Int).Sub(a.BigInt(), b.BigInt())
		want.Mod(want, mod)
		if got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v, %v) = %v, want %v", a, b, got, want)
		}
		// Circular distance is symmetric and at most half the ring.
		d1, d2 := CircularDistance(a, b), CircularDistance(b, a)
		if d1 != d2 {
			t.Fatalf("CircularDistance not symmetric for %v, %v", a, b)
		}
		half := new(big.Int).Rsh(mod, 1)
		if d1.BigInt().Cmp(half) > 0 {
			t.Fatalf("CircularDistance(%v, %v) exceeds half ring", a, b)
		}
	}
	var x ID
	if CircularDistance(x, x) != x {
		t.Error("distance to self not zero")
	}
}
