// Package bitlabel implements the bit-string labels that identify nodes of
// the space kd-tree, together with the m-dimensional naming function fmd of
// the m-LIGHT paper (ICDCS 2009, Definitions 1 and 2).
//
// Every node of the space kd-tree carries a label: the virtual root is
// labelled with m consecutive zero bits, the ordinary root "#" with m zeros
// followed by a one, and every edge appends one bit (0 for the left child,
// 1 for the right child). A label is therefore a bit string of length at
// least m. Labels double as DHT keys: the bucket of leaf λ is stored at the
// peer responsible for hash(fmd(λ)).
//
// Labels are value types packed into a uint64, which bounds their length at
// 64 bits. With dimensionality m the root prefix consumes m+1 bits, leaving
// 63-m bits of tree depth — far beyond the D=28 used in the paper's
// evaluation.
package bitlabel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// MaxLen is the maximum number of bits a Label can hold.
const MaxLen = 64

// ErrTooLong is returned when an operation would grow a label past MaxLen.
var ErrTooLong = errors.New("bitlabel: label exceeds 64 bits")

// Label is an immutable bit string of up to MaxLen bits. Bit 0 is the most
// significant (first) bit. The zero value is the empty label.
//
// Internally the bits occupy the low end of v: bit i of a label of length n
// is (v >> (n-1-i)) & 1. Two labels are equal (==) iff they have the same
// bits and length, so Label is directly usable as a map key.
type Label struct {
	v uint64
	n uint8
}

// Empty is the empty label (length 0).
var Empty = Label{}

// New builds a label from the low n bits of v (most significant of those
// bits first). It panics if n exceeds MaxLen; use this only with trusted
// constants or lengths already validated.
func New(v uint64, n int) Label {
	if n < 0 || n > MaxLen {
		panic(fmt.Sprintf("bitlabel: invalid length %d", n))
	}
	if n < MaxLen {
		v &= (1 << uint(n)) - 1
	}
	return Label{v: v, n: uint8(n)}
}

// Parse converts a string of '0' and '1' runes into a Label.
func Parse(s string) (Label, error) {
	if len(s) > MaxLen {
		return Label{}, ErrTooLong
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		v <<= 1
		switch s[i] {
		case '0':
		case '1':
			v |= 1
		default:
			return Label{}, fmt.Errorf("bitlabel: invalid character %q at %d", s[i], i)
		}
	}
	return Label{v: v, n: uint8(len(s))}, nil
}

// MustParse is Parse for trusted constants; it panics on error.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// VirtualRoot returns the label of the virtual root for dimensionality m:
// m consecutive zeros.
func VirtualRoot(m int) Label {
	return New(0, m)
}

// Root returns the label of the ordinary root "#" for dimensionality m:
// m zeros followed by a one (m+1 bits).
func Root(m int) Label {
	return New(1, m+1)
}

// Len reports the number of bits in the label.
func (l Label) Len() int { return int(l.n) }

// IsEmpty reports whether the label has zero bits.
func (l Label) IsEmpty() bool { return l.n == 0 }

// Bits returns the label's bits right-aligned in a uint64.
func (l Label) Bits() uint64 { return l.v }

// At returns bit i (0-indexed from the first, most significant bit).
// It panics if i is out of range.
func (l Label) At(i int) byte {
	if i < 0 || i >= int(l.n) {
		panic(fmt.Sprintf("bitlabel: bit index %d out of range [0,%d)", i, l.n))
	}
	return byte((l.v >> (uint(l.n) - 1 - uint(i))) & 1)
}

// Last returns the final bit of the label. It panics on the empty label.
func (l Label) Last() byte { return l.At(int(l.n) - 1) }

// Append returns the label extended by one bit (0 or 1).
func (l Label) Append(bit byte) (Label, error) {
	if l.n >= MaxLen {
		return Label{}, ErrTooLong
	}
	return Label{v: l.v<<1 | uint64(bit&1), n: l.n + 1}, nil
}

// MustAppend is Append for callers that have already bounded the depth.
// It panics if the label is full.
func (l Label) MustAppend(bit byte) Label {
	out, err := l.Append(bit)
	if err != nil {
		panic(err)
	}
	return out
}

// Left returns the label of the left child (append 0).
func (l Label) Left() (Label, error) { return l.Append(0) }

// Right returns the label of the right child (append 1).
func (l Label) Right() (Label, error) { return l.Append(1) }

// Parent returns the label with the last bit removed. It panics on the
// empty label.
func (l Label) Parent() Label {
	if l.n == 0 {
		panic("bitlabel: Parent of empty label")
	}
	return Label{v: l.v >> 1, n: l.n - 1}
}

// Sibling returns the label with the last bit inverted — the "branch node"
// construction of the paper's local trees. It panics on the empty label.
func (l Label) Sibling() Label {
	if l.n == 0 {
		panic("bitlabel: Sibling of empty label")
	}
	return Label{v: l.v ^ 1, n: l.n}
}

// Prefix returns the first n bits of the label. It panics if n exceeds the
// label length.
func (l Label) Prefix(n int) Label {
	if n < 0 || n > int(l.n) {
		panic(fmt.Sprintf("bitlabel: prefix length %d out of range [0,%d]", n, l.n))
	}
	return Label{v: l.v >> (uint(l.n) - uint(n)), n: uint8(n)}
}

// IsPrefixOf reports whether l is a (not necessarily proper) prefix of
// other.
func (l Label) IsPrefixOf(other Label) bool {
	if l.n > other.n {
		return false
	}
	return other.v>>(uint(other.n)-uint(l.n)) == l.v
}

// CommonPrefixLen returns the length of the longest common prefix of l and
// other.
func (l Label) CommonPrefixLen(other Label) int {
	n := min(int(l.n), int(other.n))
	a := l.Prefix(n)
	b := other.Prefix(n)
	x := a.v ^ b.v
	if x == 0 {
		return n
	}
	return n - (bits.Len64(x))
}

// CommonPrefix returns the longest common prefix of l and other.
func (l Label) CommonPrefix(other Label) Label {
	return l.Prefix(l.CommonPrefixLen(other))
}

// Compare orders labels first lexicographically by bits, with a prefix
// ordering before any of its extensions. It returns -1, 0, or +1.
func (l Label) Compare(other Label) int {
	n := min(int(l.n), int(other.n))
	a, b := l.Prefix(n).v, other.Prefix(n).v
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case l.n < other.n:
		return -1
	case l.n > other.n:
		return 1
	default:
		return 0
	}
}

// String renders the label as a string of '0' and '1'. Empty labels render
// as "ε".
func (l Label) String() string {
	if l.n == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(int(l.n))
	for i := 0; i < int(l.n); i++ {
		if l.At(i) == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Pretty renders the label in the paper's "#suffix" notation for
// dimensionality m: if the label extends the ordinary root, the root prefix
// is abbreviated to '#'. Other labels render as raw bits.
func (l Label) Pretty(m int) string {
	root := Root(m)
	if root.IsPrefixOf(l) {
		return "#" + l.suffixString(root.Len())
	}
	return l.String()
}

func (l Label) suffixString(from int) string {
	var sb strings.Builder
	for i := from; i < int(l.n); i++ {
		if l.At(i) == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key serializes the label into a compact string suitable for use as a DHT
// key. The encoding is the length byte followed by the big-endian bits; it
// is injective over all labels.
func (l Label) Key() string {
	var buf [9]byte
	return string(l.AppendKey(buf[:0]))
}

// AppendKey appends Key's nine bytes to dst, for a caller that frames the key
// in bytes of its own without a second allocation.
func (l Label) AppendKey(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(append(dst, l.n), l.v)
}

// FromKey reverses Key.
func FromKey(key string) (Label, error) {
	if len(key) != 9 {
		return Label{}, fmt.Errorf("bitlabel: malformed key of length %d", len(key))
	}
	n := key[0]
	if n > MaxLen {
		return Label{}, ErrTooLong
	}
	var v uint64
	for i := 1; i <= 8; i++ {
		v = v<<8 | uint64(key[i])
	}
	return New(v, int(n)), nil
}
