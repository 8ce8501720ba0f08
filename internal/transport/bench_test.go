// Price of one dialed round trip, both ends in this process: a client
// transport calls a server transport over a loopback socket, so a benchmark
// iteration — and an allocation count — is the whole path: encode, write,
// read loop, decode, worker, handler, encode, write, read loop, decode,
// wake the caller.
package transport_test

import (
	"bytes"
	"testing"

	"mlight/internal/dht/dhttest"
	"mlight/internal/transport"
)

type benchEchoReq struct{ Msg string }

type benchGetReq struct{ Key string }

type benchGetResp struct {
	Value any
	Found bool
}

func init() {
	transport.RegisterType(benchEchoReq{})
	transport.RegisterType(benchGetReq{})
	transport.RegisterType(benchGetResp{})
}

// bucket1200 is the size of a stored bucket on the tcp-cluster workload.
var bucket1200 = bytes.Repeat([]byte{0xB5}, 1200)

func benchHandler(_ transport.NodeID, req any) (any, error) {
	if _, ok := req.(benchGetReq); ok {
		return benchGetResp{Value: bucket1200, Found: true}, nil
	}
	return req, nil
}

// newBenchPair starts a server and a client transport and returns a
// function that makes one call.
func newBenchPair(tb testing.TB, req any) (call func()) {
	tb.Helper()
	server := transport.NewTCP(transport.TCPOptions{})
	client := transport.NewTCP(transport.TCPOptions{})
	tb.Cleanup(func() {
		if err := client.Close(); err != nil {
			tb.Errorf("client close: %v", err)
		}
		if err := server.Close(); err != nil {
			tb.Errorf("server close: %v", err)
		}
	})
	id, err := server.Reserve()
	if err != nil {
		tb.Fatal(err)
	}
	if err := server.Register(id, transport.HandlerFunc(benchHandler)); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := client.Call("bench-client", id, req); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkTCPEcho(b *testing.B) {
	call := newBenchPair(b, benchEchoReq{Msg: "0123456789abcdef"})
	call() // dial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

func BenchmarkTCPGet1200(b *testing.B) {
	call := newBenchPair(b, benchGetReq{Key: "bucket/0110"})
	call() // dial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// TestRoundTripAllocs pins the allocations of one round trip, counted
// across every goroutine of both transports. What is left is what the
// values cost — boxing the request, the decoded request and reply and their
// strings and bytes — plus the handler's own; frames, pending calls, timers
// and goroutines are reused.
func TestRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  any
		max  float64
	}{
		{"echo", benchEchoReq{Msg: "0123456789abcdef"}, 6},
		{"get1200", benchGetReq{Key: "bucket/0110"}, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := newBenchPair(t, tc.req)
			call() // dial, start the worker, fill the pools
			allocs := testing.AllocsPerRun(500, call)
			t.Logf("%s: %.1f allocs per round trip", tc.name, allocs)
			if dhttest.RaceEnabled() {
				return
			}
			if allocs > tc.max {
				t.Errorf("%s: %.1f allocs per round trip, want <= %v", tc.name, allocs, tc.max)
			}
		})
	}
}
