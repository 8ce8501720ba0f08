package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
	kind, seq, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
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
		if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), want) {
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
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, errBadFrame) {
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

func TestCallPayloadRoundTrip(t *testing.T) {
	payload, err := encodeCallPayload("127.0.0.1:7401", codecRef{Addr: "peer", ID: [4]byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	from, req, err := decodeCallPayload(payload)
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
		kind, seq, payload, err := readFrame(br)
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
// pathological inputs).
func FuzzUnmarshal(f *testing.F) {
	seed, _ := Marshal(codecStruct{Name: "seed", Entries: map[string]any{"k": 1}})
	f.Add(seed)
	seedRefs, _ := Marshal([]codecRef{{Addr: "a"}})
	f.Add(seedRefs)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Anything accepted must re-marshal (closure under round-trips).
		if _, err := Marshal(v); err != nil {
			t.Fatalf("re-marshal of accepted value %#v failed: %v", v, err)
		}
	})
}
