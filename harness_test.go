package mlight_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestPerfHarnessBuilds vets and compiles cmd/mlight-perf, the BENCHMARK.json
// harness. It is a module of its own (replace mlight => ../..), so `go build
// ./...` and `go test ./...` here never see it: without this test a change to
// an API it calls — dht.OpenWAL, chord.NewRing — passes tier-1 and breaks the
// benchmark the next time that builds. The harness imports the standard
// library and this module only, so neither command needs the network.
func TestPerfHarnessBuilds(t *testing.T) {
	for _, args := range [][]string{
		{"vet", "."},
		{"build", "-buildvcs=false", "-o", os.DevNull, "."},
	} {
		// `go test` puts its own GOROOT/bin first in PATH: this is the
		// toolchain that compiled the test, held there by GOTOOLCHAIN.
		cmd := exec.Command("go", args...)
		cmd.Dir = "cmd/mlight-perf"
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in cmd/mlight-perf: %v\n%s", args, err, out)
		}
	}
}
