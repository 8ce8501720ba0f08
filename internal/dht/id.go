package dht

import (
	"crypto/sha1"
	"encoding/hex"
	"math/big"
	"math/bits"
)

// IDBits is the width of the identifier space (SHA-1, as in Chord and
// Bamboo/Pastry).
const IDBits = 160

// ID is a point on the 160-bit identifier ring, big-endian.
type ID [IDBits / 8]byte

// HashKey maps an application key onto the ring.
func HashKey(k Key) ID {
	return ID(sha1.Sum([]byte(k)))
}

// HashString maps an arbitrary string (e.g. a peer address) onto the ring.
func HashString(s string) ID {
	return ID(sha1.Sum([]byte(s)))
}

// Cmp compares two identifiers as unsigned big-endian integers, returning
// -1, 0, or +1.
func (a ID) Cmp(b ID) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Between reports whether x lies in the half-open ring interval (a, b].
// When a == b the interval is the full ring (every x qualifies), matching
// Chord's conventions for a ring with a single node.
func (x ID) Between(a, b ID) bool {
	switch a.Cmp(b) {
	case -1: // no wraparound
		return a.Cmp(x) < 0 && x.Cmp(b) <= 0
	case 1: // wraps past zero
		return a.Cmp(x) < 0 || x.Cmp(b) <= 0
	default: // a == b: full ring
		return true
	}
}

// BetweenOpen reports whether x lies in the open ring interval (a, b).
func (x ID) BetweenOpen(a, b ID) bool {
	if x == b {
		return false
	}
	return x.Between(a, b)
}

// AddPowerOfTwo returns a + 2^k on the ring (mod 2^160); used to compute
// Chord finger starts. It panics if k is outside [0, IDBits).
func (a ID) AddPowerOfTwo(k int) ID {
	if k < 0 || k >= IDBits {
		panic("dht: power-of-two exponent out of range")
	}
	out := a
	byteIdx := len(out) - 1 - k/8
	carry := uint16(1) << (k % 8)
	for i := byteIdx; i >= 0 && carry > 0; i-- {
		sum := uint16(out[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// BitLen returns the length of a in bits as an unsigned integer: the index
// of its top set bit plus one, and 0 for the zero identifier.
func (a ID) BitLen() int {
	for i, b := range a {
		if b != 0 {
			return (len(a)-i)*8 - bits.LeadingZeros8(b)
		}
	}
	return 0
}

// Sub returns a - b modulo 2^160 — the clockwise ring distance from b to a.
func (a ID) Sub(b ID) ID {
	var out ID
	borrow := 0
	for i := len(a) - 1; i >= 0; i-- {
		d := int(a[i]) - int(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// CircularDistance returns the shorter way around the ring between a and b:
// min(a-b, b-a) mod 2^160.
func CircularDistance(a, b ID) ID {
	d1 := a.Sub(b)
	d2 := b.Sub(a)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

// BigInt returns the identifier as a big integer (for tests and debug
// output).
func (a ID) BigInt() *big.Int {
	return new(big.Int).SetBytes(a[:])
}

// Digit returns the i-th base-2^b digit of the identifier, counting from
// the most significant digit — the prefix digits used by Pastry routing.
// It panics unless b divides 8 evenly into the identifier (b ∈ {1,2,4,8}).
func (a ID) Digit(i, b int) int {
	switch b {
	case 1, 2, 4, 8:
	default:
		panic("dht: digit width must be 1, 2, 4, or 8")
	}
	perByte := 8 / b
	byteIdx := i / perByte
	if byteIdx >= len(a) {
		panic("dht: digit index out of range")
	}
	shift := uint(8 - b*(i%perByte+1))
	return int(a[byteIdx]>>shift) & ((1 << b) - 1)
}

// NumDigits returns how many base-2^b digits an identifier has.
func NumDigits(b int) int { return IDBits / b }

// CommonPrefixDigits returns the number of leading base-2^b digits shared
// by a and other.
func (a ID) CommonPrefixDigits(other ID, b int) int {
	n := 0
	for i := 0; i < NumDigits(b); i++ {
		if a.Digit(i, b) != other.Digit(i, b) {
			return n
		}
		n++
	}
	return n
}

// String renders the identifier as its first 8 hex digits, enough to tell
// peers apart in logs.
func (a ID) String() string {
	return hex.EncodeToString(a[:4])
}
