package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	kinds := []byte{frameCall, frameResp, frameErr}
	var buf []byte
	for i, p := range payloads {
		buf = appendFrame(buf, kinds[i%len(kinds)], uint64(i*7), p)
	}
	rest := buf
	for i, p := range payloads {
		kind, seq, payload, r, err := decodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != kinds[i%len(kinds)] || seq != uint64(i*7) || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: kind=%d seq=%d payload=%d bytes", i, kind, seq, len(payload))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}
}

func TestFrameReaderMatchesDecoder(t *testing.T) {
	frame := appendFrame(nil, frameResp, 42, []byte("payload"))
	kind, seq, payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameResp || seq != 42 || string(payload) != "payload" {
		t.Fatalf("readFrame = %d/%d/%q", kind, seq, payload)
	}
}

func TestFrameRejectsBadVersion(t *testing.T) {
	// Version 1 is the wire before the store-plane requests carried the
	// Direct mark: the codec would decode its frames into the wrong fields,
	// so a peer that still speaks it must be refused, by name.
	for _, ver := range []byte{1, 9} {
		frame := appendFrame(nil, frameCall, 1, []byte("x"))
		frame[0] = ver
		want := fmt.Sprintf("version %d", ver)
		if _, _, _, _, err := decodeFrame(frame); !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("decodeFrame of a version-%d frame: err = %v, want the bad-version error", ver, err)
		}
		if _, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil); !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("readFrame of a version-%d frame: err = %v, want the bad-version error", ver, err)
		}
	}
}

func TestFrameRejectsBadCRC(t *testing.T) {
	frame := appendFrame(nil, frameCall, 1, []byte("payload"))
	frame[len(frame)-1] ^= 0xFF
	if _, _, _, _, err := decodeFrame(frame); !errors.Is(err, errBadFrame) {
		t.Errorf("bad crc: err = %v", err)
	}
	// Body corruption must also fail the checksum.
	frame = appendFrame(nil, frameCall, 1, []byte("payload"))
	frame[len(frame)-6] ^= 0x01
	if _, _, _, _, err := decodeFrame(frame); !errors.Is(err, errBadFrame) {
		t.Errorf("corrupt body: err = %v", err)
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	frame := appendFrame(nil, frameErr, 3, []byte("some payload"))
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, _, err := decodeFrame(frame[:cut]); err == nil {
			t.Errorf("decodeFrame accepted %d/%d-byte prefix", cut, len(frame))
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// Declare a body just over the limit; the guard must fire before any
	// attempt to read (or allocate) the body.
	hdr := []byte{envelopeVersion}
	hdr = binary.AppendUvarint(hdr, MaxFrameSize+1)
	if _, _, _, _, err := decodeFrame(hdr); !errors.Is(err, errBadFrame) {
		t.Errorf("oversized decodeFrame err = %v", err)
	}
	if _, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), nil); !errors.Is(err, errBadFrame) {
		t.Errorf("oversized readFrame err = %v", err)
	}
}

func TestFrameRejectsUnknownKind(t *testing.T) {
	body := []byte{77} // unknown kind
	body = binary.AppendUvarint(body, 1)
	frame := []byte{envelopeVersion}
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	if _, _, _, _, err := decodeFrame(frame); !errors.Is(err, errBadFrame) {
		t.Errorf("unknown kind err = %v", err)
	}
}

func TestErrPayloadPreservesTransience(t *testing.T) {
	cases := []struct {
		err       error
		temporary bool
	}{
		{fmt.Errorf("wrapped: %w", ErrUnreachable), true},
		{errors.New("permanent failure"), false},
	}
	for _, tc := range cases {
		decoded, err := decodeErrPayload(encodeErrPayload(tc.err))
		if err != nil {
			t.Fatal(err)
		}
		var tmp interface{ Temporary() bool }
		got := errors.As(decoded, &tmp) && tmp.Temporary()
		if got != tc.temporary {
			t.Errorf("transience of %q = %v, want %v", tc.err, got, tc.temporary)
		}
		if decoded.Error() != tc.err.Error() {
			t.Errorf("message %q != %q", decoded.Error(), tc.err.Error())
		}
	}
}

// TestGoldenFrames pins two whole frames, produced by appendFrame at the
// commit before frames were built in place: same bytes now, from both
// builders, and both readers take them apart the same way.
func TestGoldenFrames(t *testing.T) {
	call, err := appendCallPayload(nil, "127.0.0.1:7401", codecRef{Addr: "peer", ID: [4]byte{9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		kind    byte
		seq     uint64
		payload []byte
		golden  string
	}{
		{"call", frameCall, 300, call,
			"022e01ac020e3132372e302e302e313a37343031127472616e73706f72742e636f646563526566047065657209080706e04ebd6c"},
		{"err", frameErr, 1 << 40, encodeErrPayload(fmt.Errorf("busy: %w", ErrUnreachable)),
			"022a038080808080200121627573793a207472616e73706f72743a207065657220756e726561636861626c651995d4d3"},
	} {
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFrame(nil, tc.kind, tc.seq, tc.payload); !bytes.Equal(got, want) {
			t.Errorf("%s: appendFrame\n got %x\nwant %x", tc.name, got, want)
		}
		_, got := closeFrame(append(openFrame(nil, tc.kind, tc.seq), tc.payload...))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: openFrame/closeFrame\n got %x\nwant %x", tc.name, got, want)
		}
		kind, seq, payload, rest, err := decodeFrame(want)
		if err != nil || kind != tc.kind || seq != tc.seq || !bytes.Equal(payload, tc.payload) || len(rest) != 0 {
			t.Errorf("%s: decodeFrame of the golden frame = %d/%d/%x/%d left, %v", tc.name, kind, seq, payload, len(rest), err)
		}
		kind, seq, payload, _, err = readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
		if err != nil || kind != tc.kind || seq != tc.seq || !bytes.Equal(payload, tc.payload) {
			t.Errorf("%s: readFrame of the golden frame = %d/%d/%x, %v", tc.name, kind, seq, payload, err)
		}
	}
}

func TestCallPayloadRoundTrip(t *testing.T) {
	payload, err := appendCallPayload(nil, "127.0.0.1:7401", codecRef{Addr: "peer", ID: [4]byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	from, req, err := decodeCallPayload(payload, "")
	if err != nil {
		t.Fatal(err)
	}
	if from != "127.0.0.1:7401" {
		t.Errorf("from = %q", from)
	}
	if r, ok := req.(codecRef); !ok || r.Addr != "peer" {
		t.Errorf("req = %#v", req)
	}
}

// FuzzFrame throws arbitrary bytes at the frame decoder. The decoder must
// never panic, never hand back more bytes than it was given, and anything it
// does accept must re-encode to a decodable frame.
func FuzzFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameCall, 1, []byte("seed call")))
	f.Add(appendFrame(nil, frameResp, 1<<40, []byte{}))
	f.Add(appendFrame(nil, frameErr, 0, encodeErrPayload(ErrUnreachable)))
	long := appendFrame(nil, frameResp, 7, bytes.Repeat([]byte{1}, 1000))
	f.Add(long)
	f.Add(long[:len(long)-3])            // truncated
	f.Add([]byte{envelopeVersion, 0xFF}) // hostile length
	f.Add([]byte{})
	old := appendFrame(nil, frameCall, 1, []byte("version-1 peer"))
	old[0] = 1
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, seq, payload, rest, err := decodeFrame(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		reencoded := appendFrame(nil, kind, seq, payload)
		k2, s2, p2, r2, err := decodeFrame(reencoded)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if k2 != kind || s2 != seq || !bytes.Equal(p2, payload) || len(r2) != 0 {
			t.Fatalf("re-encode mismatch: kind %d→%d seq %d→%d", kind, k2, seq, s2)
		}
	})
}

// FuzzReadFrame runs the same property through the streaming reader, which
// has its own allocation guard.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameCall, 5, []byte("stream seed")))
	hostile := []byte{envelopeVersion}
	hostile = binary.AppendUvarint(hostile, MaxFrameSize+1)
	f.Add(hostile)
	old := appendFrame(nil, frameCall, 5, []byte("version-1 peer"))
	old[0] = 1
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(io.LimitReader(bytes.NewReader(data), int64(len(data))))
		kind, seq, payload, _, err := readFrame(br, nil)
		if err != nil {
			return
		}
		reencoded := appendFrame(nil, kind, seq, payload)
		if _, _, _, _, err := decodeFrame(reencoded); err != nil {
			t.Fatalf("re-encode of streamed frame failed: %v", err)
		}
	})
}

// FuzzUnmarshal throws arbitrary bytes at the value codec: no panics, no
// unbounded allocations (enforced by the testing runtime's memory limits on
// pathological inputs), and whatever decodes re-encodes to bytes that decode
// to an equal value. (Not to the same bytes: the format admits non-minimal
// varints, so only the encoder's own output is canonical — golden_test.go
// holds that to the byte.)
func FuzzUnmarshal(f *testing.F) {
	seed, _ := Marshal(codecStruct{Name: "seed", Entries: map[string]any{"k": 1}})
	f.Add(seed)
	seedRefs, _ := Marshal([]codecRef{{Addr: "a"}})
	f.Add(seedRefs)
	seedNested, _ := Marshal(codecStruct{B: []byte{}, Nested: &codecStruct{N: -1}, Any: []byte("in an any")})
	f.Add(seedNested)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Marshal(v)
		if err != nil {
			t.Fatalf("re-marshal of accepted value %#v failed: %v", v, err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoding of %#v does not decode: %v", v, err)
		}
		// Equal is judged on the canonical bytes: the encoder writes every
		// part of a value that crosses the wire, nil-versus-empty included,
		// so two values encode alike exactly when they are equal on the wire
		// — and unlike DeepEqual that holds for a NaN too.
		if canon, err := Marshal(back); err != nil || !bytes.Equal(canon, again) {
			t.Fatalf("round trip changed the value (%v):\n got %#v\nwant %#v", err, back, v)
		}
	})
}
