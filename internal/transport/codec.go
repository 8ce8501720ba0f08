package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the value codec of the wire transport: a binary encoding
// with an explicit type registry, following the codec conventions of
// internal/wire (uvarint lengths, little-endian fixed-width scalars,
// attack-resistant bounds checks on every length read).
//
// Why not gob or JSON: gob refuses struct types with zero exported fields,
// and the overlay protocols are full of them (pingReq struct{}, struct{}{}
// acks); JSON decodes every number to float64, breaking the int round-trips
// the dhttest conformance suite pins. A hand-rolled codec also keeps the
// encoding deterministic (map entries are sorted by encoded key), which the
// repository's determinism lint cares about.
//
// A value crosses the wire type-tagged: the dynamic type's name (as printed
// by reflect.Type.String, e.g. "chord.storeReq") followed by the value
// encoded structurally. Only types that travel *as dynamic values* — the
// request/response structs themselves, and anything stored in an `any`
// field — need registering (RegisterType, called from each overlay's init).
// Field types are recovered structurally from the registered struct type,
// so refs, dht.IDs, and maps need no registration of their own.
//
// Reflection is paid once per type, not once per value: RegisterType
// compiles the type into a plan — a tree of encode/decode functions, one
// node per field, element or key type, with the struct field indexes and
// the kind dispatch already resolved — and a value is then encoded by
// walking its plan and decoded *in place* into one addressable destination
// (a struct's fields are set where they live; nothing is allocated per
// scalar). The encoding itself is that of the reflection walk this
// replaced, byte for byte (golden_test.go).

// plan is the compiled codec of one type.
type plan struct {
	t    reflect.Type
	name string // wire tag; set on the plans RegisterType publishes
	// enc appends v's structural encoding (no type tag).
	enc func(buf []byte, v reflect.Value) ([]byte, error)
	// dec decodes one structural value into dst, which must be settable,
	// overwriting every exported part of it, and returns the rest of data.
	dec func(data []byte, dst reflect.Value) ([]byte, error)
	// box decodes one structural value into a fresh dynamic value.
	box func(data []byte) (any, []byte, error)
}

// registry is one immutable snapshot of the registered types. Readers load
// the current snapshot with one atomic read and take no lock; RegisterType
// (init-time, rare) publishes a copy.
type registry struct {
	byName map[string]*plan
	byType map[reflect.Type]*plan
}

var (
	registered atomic.Pointer[registry]

	// registerMu serialises RegisterType; compiled (every plan built so far,
	// registered or reached as a field type) is only touched under it.
	registerMu sync.Mutex
	compiled   = make(map[reflect.Type]*plan)
)

// RegisterType makes v's dynamic type decodable when received as a
// type-tagged wire value. Registration is idempotent for the same type;
// registering a *different* type under an already-taken name panics (the
// name is the wire identity, so a collision is a programming error caught
// at init time).
func RegisterType(v any) {
	t := reflect.TypeOf(v)
	if t == nil {
		return
	}
	name := t.String()
	registerMu.Lock()
	defer registerMu.Unlock()
	old := registered.Load()
	if prev, ok := old.byName[name]; ok {
		if prev.t != t {
			panic(fmt.Sprintf("transport: wire name %q already registered to %v", name, prev.t))
		}
		return
	}
	p := compile(t)
	p.name = name
	next := &registry{
		byName: make(map[string]*plan, len(old.byName)+1),
		byType: make(map[reflect.Type]*plan, len(old.byType)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	next.byName[name] = p
	next.byType[t] = p
	registered.Store(next)
}

func init() {
	// Every package that registers a type imports this one, so this runs
	// before the first RegisterType: readers never find a nil snapshot.
	registered.Store(&registry{})
	// Builtin dynamic types every substrate exchanges: stored values of the
	// conformance suites and the empty-struct acks of the overlay protocols.
	for _, v := range []any{
		false, "", int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), []byte(nil), struct{}{},
	} {
		RegisterType(v)
	}
}

// Marshal encodes v type-tagged. v's dynamic type (and the dynamic type of
// every value reached through an interface field) must be registered.
func Marshal(v any) ([]byte, error) {
	return appendAny(nil, v)
}

func appendAny(buf []byte, v any) ([]byte, error) {
	if v == nil {
		return appendString(buf, ""), nil
	}
	p, ok := registered.Load().byType[reflect.TypeOf(v)]
	if !ok {
		return nil, fmt.Errorf("transport: marshal of unregistered type %T", v)
	}
	return p.enc(appendString(buf, p.name), reflect.ValueOf(v))
}

// Unmarshal decodes one type-tagged value, rejecting trailing garbage.
func Unmarshal(data []byte) (any, error) {
	v, rest, err := consumeAny(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

func consumeAny(data []byte) (any, []byte, error) {
	name, rest, err := consumeRaw(data, "type name")
	if err != nil {
		return nil, nil, err
	}
	if len(name) == 0 {
		return nil, rest, nil
	}
	p, ok := registered.Load().byName[string(name)] // no allocation: a map index by converted bytes
	if !ok {
		return nil, nil, fmt.Errorf("transport: unmarshal of unregistered type %q", name)
	}
	v, rest, err := p.box(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: unmarshal %s: %w", p.name, err)
	}
	return v, rest, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func consumeString(data []byte) (string, []byte, error) {
	b, rest, err := consumeRaw(data, "string")
	return string(b), rest, err
}

// consumeRaw reads one length-prefixed run of bytes as a view into data,
// checking the declared length against what is left before anything is
// allocated for it.
func consumeRaw(data []byte, what string) (raw, rest []byte, err error) {
	n, rest, err := consumeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("transport: %s length %d exceeds %d remaining bytes", what, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func consumeUvarint(data []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("transport: truncated or malformed uvarint")
	}
	return n, data[w:], nil
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func consumeBool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, fmt.Errorf("transport: truncated bool")
	}
	switch data[0] {
	case 0:
		return false, data[1:], nil
	case 1:
		return true, data[1:], nil
	default:
		return false, nil, fmt.Errorf("transport: bad bool byte %#x", data[0])
	}
}

// consumeLen reads the presence byte and element count every slice and map
// opens with. One encoded element costs at least a byte, so a count the
// remaining payload cannot possibly hold is rejected before it sizes an
// allocation.
func consumeLen(data []byte, what string) (n int, present bool, rest []byte, err error) {
	present, rest, err = consumeBool(data)
	if err != nil || !present {
		return 0, false, rest, err
	}
	count, rest, err := consumeUvarint(rest)
	if err != nil {
		return 0, false, nil, err
	}
	if count > uint64(len(rest)) {
		return 0, false, nil, fmt.Errorf("transport: %s length %d exceeds %d remaining bytes", what, count, len(rest))
	}
	return int(count), true, rest, nil
}

// compile returns t's plan, building it (and the plans of every type t
// reaches) on first use. The plan is entered into compiled before its
// children are built, so a recursive type finds itself. Callers hold
// registerMu.
func compile(t reflect.Type) *plan {
	if p, ok := compiled[t]; ok {
		return p
	}
	p := &plan{t: t}
	compiled[t] = p
	p.box = func(data []byte) (any, []byte, error) {
		dst := reflect.New(t).Elem()
		rest, err := p.dec(data, dst)
		if err != nil {
			return nil, nil, err
		}
		return dst.Interface(), rest, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) { return appendBool(buf, v.Bool()), nil }
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			b, rest, err := consumeBool(data)
			if err != nil {
				return nil, err
			}
			dst.SetBool(b)
			return rest, nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) { return binary.AppendVarint(buf, v.Int()), nil }
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			n, w := binary.Varint(data)
			if w <= 0 {
				return nil, fmt.Errorf("transport: truncated varint")
			}
			if dst.OverflowInt(n) {
				return nil, fmt.Errorf("transport: %d overflows %s", n, t)
			}
			dst.SetInt(n)
			return data[w:], nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) { return binary.AppendUvarint(buf, v.Uint()), nil }
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			n, rest, err := consumeUvarint(data)
			if err != nil {
				return nil, err
			}
			if dst.OverflowUint(n) {
				return nil, fmt.Errorf("transport: %d overflows %s", n, t)
			}
			dst.SetUint(n)
			return rest, nil
		}
	case reflect.Float32:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
			return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v.Float()))), nil
		}
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			if len(data) < 4 {
				return nil, fmt.Errorf("transport: truncated float32")
			}
			dst.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
			return data[4:], nil
		}
	case reflect.Float64:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
		}
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			if len(data) < 8 {
				return nil, fmt.Errorf("transport: truncated float64")
			}
			dst.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			return data[8:], nil
		}
	case reflect.String:
		p.enc = func(buf []byte, v reflect.Value) ([]byte, error) { return appendString(buf, v.String()), nil }
		p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
			s, rest, err := consumeString(data)
			if err != nil {
				return nil, err
			}
			dst.SetString(s)
			return rest, nil
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			compileBytes(p)
		} else {
			compileSlice(p, compile(t.Elem()))
		}
	case reflect.Array:
		compileArray(p, compile(t.Elem()))
	case reflect.Map:
		compileMap(p, compile(t.Key()), compile(t.Elem()))
	case reflect.Struct:
		compileStruct(p)
	case reflect.Pointer:
		compilePointer(p, compile(t.Elem()))
	case reflect.Interface:
		compileInterface(p)
	default:
		// Not a programming error until a value of the type is actually sent:
		// the type may sit in a field no message ever fills.
		p.enc = func([]byte, reflect.Value) ([]byte, error) {
			return nil, fmt.Errorf("transport: cannot marshal %s value", t)
		}
		p.dec = func([]byte, reflect.Value) ([]byte, error) {
			return nil, fmt.Errorf("transport: cannot unmarshal %s value", t)
		}
	}
	if box, ok := directBox[t]; ok {
		p.box = box
	}
	return p
}

// consumeBytes decodes a byte slice. The result is always a copy: what a
// daemon decodes it may store, and a stored value must never pin (or be
// overwritten through) the frame buffer it arrived in.
func consumeBytes(data []byte) ([]byte, []byte, error) {
	n, present, rest, err := consumeLen(data, "byte slice")
	if err != nil || !present {
		return nil, rest, err
	}
	b := make([]byte, n)
	copy(b, rest)
	return b, rest[n:], nil
}

func compileBytes(p *plan) {
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		b := v.Bytes()
		buf = binary.AppendUvarint(append(buf, 1), uint64(len(b)))
		return append(buf, b...), nil
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		b, rest, err := consumeBytes(data)
		if err != nil {
			return nil, err
		}
		if b == nil {
			dst.SetZero()
		} else {
			dst.SetBytes(b)
		}
		return rest, nil
	}
}

func compileSlice(p, elem *plan) {
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		n := v.Len()
		buf = binary.AppendUvarint(append(buf, 1), uint64(n))
		var err error
		for i := 0; i < n; i++ {
			if buf, err = elem.enc(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		n, present, rest, err := consumeLen(data, "slice")
		if err != nil {
			return nil, err
		}
		if !present {
			dst.SetZero()
			return rest, nil
		}
		// Grown where it lives: MakeSlice would allocate a header to hand
		// over besides the elements. Zeroed first, because a destination may
		// be reused (a map's one element slot) and must not share elements
		// with the value decoded before; an empty slice is present, not nil.
		dst.SetZero()
		if n == 0 {
			dst.Set(reflect.MakeSlice(p.t, 0, 0))
		}
		dst.Grow(n)
		dst.SetLen(n)
		for i := 0; i < n; i++ {
			if rest, err = elem.dec(rest, dst.Index(i)); err != nil {
				return nil, err
			}
		}
		return rest, nil
	}
}

func compileArray(p, elem *plan) {
	n := p.t.Len()
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n; i++ {
			if buf, err = elem.enc(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n; i++ {
			if data, err = elem.dec(data, dst.Index(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
}

// compileMap encodes entries sorted by encoded key bytes, so the wire form
// of a given map is deterministic regardless of iteration order.
func compileMap(p, key, elem *plan) {
	type span struct{ start, mid, end int }
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		buf = binary.AppendUvarint(append(buf, 1), uint64(v.Len()))
		// Entries are encoded in place in iteration order; only if that
		// turns out not to be key order (never for the one-entry maps of a
		// replicated write) are they copied aside and laid down again.
		var (
			first  = len(buf)
			stack  [4]span
			spans  = stack[:0]
			k      = reflect.New(key.t).Elem()
			e      = reflect.New(elem.t).Elem()
			sorted = true
			err    error
		)
		keyOf := func(b []byte, s span) []byte { return b[s.start:s.mid] }
		for iter := v.MapRange(); iter.Next(); {
			k.SetIterKey(iter)
			e.SetIterValue(iter)
			s := span{start: len(buf)}
			if buf, err = key.enc(buf, k); err != nil {
				return nil, err
			}
			s.mid = len(buf)
			if buf, err = elem.enc(buf, e); err != nil {
				return nil, err
			}
			s.end = len(buf)
			if n := len(spans); n > 0 && bytes.Compare(keyOf(buf, spans[n-1]), keyOf(buf, s)) > 0 {
				sorted = false
			}
			spans = append(spans, s)
		}
		if sorted {
			return buf, nil
		}
		slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(keyOf(buf, a), keyOf(buf, b)) })
		unsorted := bytes.Clone(buf[first:])
		buf = buf[:first]
		for _, s := range spans {
			buf = append(buf, unsorted[s.start-first:s.end-first]...)
		}
		return buf, nil
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		n, present, rest, err := consumeLen(data, "map")
		if err != nil {
			return nil, err
		}
		if !present {
			dst.SetZero()
			return rest, nil
		}
		m := reflect.MakeMapWithSize(p.t, n)
		// One key and one element destination serve every entry: each decode
		// overwrites them whole and SetMapIndex copies them into the map.
		k := reflect.New(key.t).Elem()
		e := reflect.New(elem.t).Elem()
		for i := 0; i < n; i++ {
			if rest, err = key.dec(rest, k); err != nil {
				return nil, err
			}
			if rest, err = elem.dec(rest, e); err != nil {
				return nil, err
			}
			m.SetMapIndex(k, e)
		}
		dst.Set(m)
		return rest, nil
	}
}

func compileStruct(p *plan) {
	type field struct {
		index int
		p     *plan
	}
	var fields []field
	for i := 0; i < p.t.NumField(); i++ {
		if f := p.t.Field(i); f.IsExported() { // unexported: not part of the wire shape
			fields = append(fields, field{i, compile(f.Type)})
		}
	}
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		var err error
		for _, f := range fields {
			if buf, err = f.p.enc(buf, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		var err error
		for _, f := range fields {
			if data, err = f.p.dec(data, dst.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
}

func compilePointer(p, elem *plan) {
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return elem.enc(append(buf, 1), v.Elem())
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		present, rest, err := consumeBool(data)
		if err != nil {
			return nil, err
		}
		if !present {
			dst.SetZero()
			return rest, nil
		}
		ptr := reflect.New(elem.t)
		if rest, err = elem.dec(rest, ptr.Elem()); err != nil {
			return nil, err
		}
		dst.Set(ptr)
		return rest, nil
	}
}

func compileInterface(p *plan) {
	p.enc = func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return appendAny(append(buf, 1), v.Elem().Interface())
	}
	p.dec = func(data []byte, dst reflect.Value) ([]byte, error) {
		present, rest, err := consumeBool(data)
		if err != nil {
			return nil, err
		}
		dst.SetZero()
		if !present {
			return rest, nil
		}
		inner, rest, err := consumeAny(rest)
		if err != nil {
			return nil, err
		}
		if inner != nil {
			iv := reflect.ValueOf(inner)
			if !iv.Type().AssignableTo(p.t) {
				return nil, fmt.Errorf("transport: %s not assignable to %s", iv.Type(), p.t)
			}
			dst.Set(iv)
		}
		return rest, nil
	}
}

// directBox decodes the builtin dynamic types — what an index stores in a
// DHT is bytes, and the conformance suites store scalars — straight into an
// interface value, without a reflect.Value in between.
var directBox = map[reflect.Type]func(data []byte) (any, []byte, error){
	reflect.TypeOf([]byte(nil)): func(data []byte) (any, []byte, error) {
		b, rest, err := consumeBytes(data)
		return b, rest, err
	},
	reflect.TypeOf(""): func(data []byte) (any, []byte, error) {
		s, rest, err := consumeString(data)
		return s, rest, err
	},
	reflect.TypeOf(false): func(data []byte) (any, []byte, error) {
		b, rest, err := consumeBool(data)
		return b, rest, err
	},
	reflect.TypeOf(int(0)):    boxInt[int],
	reflect.TypeOf(int8(0)):   boxInt[int8],
	reflect.TypeOf(int16(0)):  boxInt[int16],
	reflect.TypeOf(int32(0)):  boxInt[int32],
	reflect.TypeOf(int64(0)):  boxInt[int64],
	reflect.TypeOf(uint(0)):   boxUint[uint],
	reflect.TypeOf(uint8(0)):  boxUint[uint8],
	reflect.TypeOf(uint16(0)): boxUint[uint16],
	reflect.TypeOf(uint32(0)): boxUint[uint32],
	reflect.TypeOf(uint64(0)): boxUint[uint64],
}

func boxInt[T int | int8 | int16 | int32 | int64](data []byte) (any, []byte, error) {
	n, w := binary.Varint(data)
	if w <= 0 {
		return nil, nil, fmt.Errorf("transport: truncated varint")
	}
	if int64(T(n)) != n {
		return nil, nil, fmt.Errorf("transport: %d overflows %T", n, T(0))
	}
	return T(n), data[w:], nil
}

func boxUint[T uint | uint8 | uint16 | uint32 | uint64](data []byte) (any, []byte, error) {
	n, rest, err := consumeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if uint64(T(n)) != n {
		return nil, nil, fmt.Errorf("transport: %d overflows %T", n, T(0))
	}
	return T(n), rest, nil
}

// Codec adapts Marshal/Unmarshal to the structural codec interface shared
// by wire.Codec and dht.Codec, so a daemon can journal overlay store values
// (opaque bytes, or any registered wire type) through the WAL machinery.
type Codec struct{}

// Marshal implements the codec interface.
func (Codec) Marshal(v any) ([]byte, error) { return Marshal(v) }

// Unmarshal implements the codec interface.
func (Codec) Unmarshal(data []byte) (any, error) { return Unmarshal(data) }
