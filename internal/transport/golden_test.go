// Wire compatibility of the value codec: testdata/golden_v2.txt holds the
// bytes the envelope-version-2 codec produced, at the commit before the
// compiled codec replaced the reflection walk, for one value of every message
// shape the overlays and the remote-apply protocol register. The codec is
// structural (no field names, no counts), so a peer running the older binary
// decodes exactly these bytes: reproducing them bit for bit, and decoding
// them to equal values, is what keeping envelopeVersion at 2 promises.
package transport_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	_ "mlight/internal/substrate" // registers the chord, pastry and kademlia routing messages
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// handWritten are the golden values spelled out: the cases a structural
// codec gets wrong quietly (nil against empty, a []byte inside an any inside
// an any, the extremes of the integer kinds), on the builtin types and the
// exported messages of the remote-apply protocol.
var handWritten = map[string]any{
	"nil":            nil,
	"bool/true":      true,
	"string/empty":   "",
	"string/hello":   "hello",
	"int/neg":        int(-42),
	"int8/neg":       int8(-7),
	"int16":          int16(300),
	"int32/neg":      int32(-70000),
	"int64/min":      int64(-1 << 63),
	"uint":           uint(9),
	"uint8":          uint8(255),
	"uint16":         uint16(65535),
	"uint32":         uint32(1 << 30),
	"uint64/max":     ^uint64(0),
	"float32":        float32(3.5),
	"float64/neg":    float64(-2.25),
	"bytes/nil":      []byte(nil),
	"bytes/empty":    []byte{},
	"bytes/three":    []byte{1, 2, 3},
	"struct{}":       struct{}{},
	"refs/nil":       []overlay.Ref(nil),
	"refs/empty":     []overlay.Ref{},
	"cas/bytes":      dht.CASReq{Key: "bucket/0110", Ver: 7, Value: []byte("a stored bucket"), Keep: true},
	"cas/delete":     dht.CASReq{Key: "bucket/0110", Ver: 8},
	"casresp/lost":   dht.CASResp{Value: []byte{}, Found: true, Ver: 9},
	"getver/absent":  dht.GetVerResp{},
	"getver/int":     dht.GetVerResp{Value: -17, Found: true, Ver: 1 << 40},
	"apply/nested":   overlay.ApplyResp{Value: dht.GetVerResp{Value: []byte("inner"), Found: true}, Keep: true},
	"apply/nilbytes": overlay.ApplyResp{Value: []byte(nil)},
}

// goldenValue returns the value a golden line pins. The hand-written ones
// are looked up. Every other line is named "<wire type>/<filling>" and was
// generated, at the parent commit, for every type the store plane, the three
// routers and the remote-apply protocol register (most are unexported, so
// this package cannot spell them): its value is rebuilt here from the type
// alone — which the decoded golden bytes supply — by the same deterministic
// filler, and must equal what those bytes decode to.
func goldenValue(name string, decoded any) (any, bool) {
	if v, ok := handWritten[name]; ok {
		return v, true
	}
	i := strings.LastIndexByte(name, '/')
	if i < 0 || decoded == nil || reflect.TypeOf(decoded).String() != name[:i] {
		return nil, false
	}
	v := reflect.New(reflect.TypeOf(decoded)).Elem()
	n := 0
	fillValue(v, name[i+1:], &n)
	return v.Interface(), true
}

// fillValue sets every exported field reachable from v, deterministically:
// "zero" leaves the zero value (nil slices, maps and interfaces), "empty"
// makes every slice and map empty but present, and "filled" gives every
// scalar a distinct value (integers negative where the type allows), every
// slice and map two elements, and every interface, in rotation, a []byte, a
// negative int, a string and a uint64 — but for a dht.Op field, which takes the
// one registered op type, a wire.Op.
func fillValue(v reflect.Value, filling string, n *int) {
	if filling == "zero" {
		return
	}
	*n++
	k := *n
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillValue(v.Field(i), filling, n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 0, 2))
		if filling == "filled" {
			for i := 0; i < 2; i++ {
				e := reflect.New(v.Type().Elem()).Elem()
				fillValue(e, filling, n)
				v.Set(reflect.Append(v, e))
			}
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		if filling == "filled" {
			for i := 0; i < 2; i++ {
				key := reflect.New(v.Type().Key()).Elem()
				fillValue(key, filling, n)
				elem := reflect.New(v.Type().Elem()).Elem()
				fillValue(elem, filling, n)
				v.SetMapIndex(key, elem)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i), filling, n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), filling, n)
	}
	if filling != "filled" {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-(k%100 + 1)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := uint64(k) * 1000003
		if v.OverflowUint(x) {
			x = uint64(k % 256)
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(k) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", k))
	case reflect.Interface:
		var x any
		if v.Type() == reflect.TypeOf((*dht.Op)(nil)).Elem() {
			v.Set(reflect.ValueOf(wire.Op{Body: []byte{byte(k), 0, 0xFF}}))
			return
		}
		switch k % 4 {
		case 0:
			x = []byte{byte(k), 0, 0xFF}
		case 1:
			x = -k
		case 2:
			x = fmt.Sprintf("any%d", k)
		case 3:
			x = uint64(k) << 33
		}
		v.Set(reflect.ValueOf(x))
	}
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/golden_v2.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("golden line without a tab: %q", line)
		}
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		golden[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestGoldenWireBytes(t *testing.T) {
	golden := readGolden(t)
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := golden[name]
		decoded, err := transport.Unmarshal(want)
		if err != nil {
			t.Errorf("%s: Unmarshal of the golden bytes: %v", name, err)
			continue
		}
		v, ok := goldenValue(name, decoded)
		if !ok {
			t.Errorf("%s: golden bytes decode to a %T, which the name does not say", name, decoded)
			continue
		}
		if !reflect.DeepEqual(decoded, v) {
			t.Errorf("%s: golden bytes decode to\n     %#v\nwant %#v", name, decoded, v)
		}
		got, err := transport.Marshal(v)
		if err != nil {
			t.Errorf("%s: Marshal: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Marshal\n got %x\nwant %x", name, got, want)
		}
	}
	for name := range handWritten {
		if _, ok := golden[name]; !ok {
			t.Errorf("no golden bytes for %s", name)
		}
	}
}
