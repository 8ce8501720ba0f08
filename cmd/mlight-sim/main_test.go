package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunChordWithChurn(t *testing.T) {
	err := run([]string{
		"-overlay", "chord", "-peers", "16", "-n", "1500",
		"-queries", "5", "-churn", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCrashWithReplication: -replication reaches every overlay, so two
// crashes with three copies lose nothing on any of them.
func TestRunCrashWithReplication(t *testing.T) {
	for _, overlay := range []string{"chord", "pastry", "kademlia"} {
		var out strings.Builder
		err := run([]string{
			"-overlay", overlay, "-peers", "16", "-n", "1500",
			"-queries", "5", "-crash", "2", "-replication", "3",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", overlay, err)
		}
		if !strings.Contains(out.String(), "replication factor 3 absorbed the crashes") {
			t.Errorf("%s: queries failed after crashes despite -replication 3:\n%s", overlay, out.String())
		}
	}
}

func TestRunPastry(t *testing.T) {
	err := run([]string{
		"-overlay", "pastry", "-peers", "12", "-n", "1000", "-queries", "4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-overlay", "dummy"}, io.Discard); err == nil {
		t.Error("unknown overlay accepted")
	}
	if err := run([]string{"-bad-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-peers", "4", "-n", "100", "-churn", "4"}, io.Discard); err == nil {
		t.Error("churn emptying the overlay accepted")
	}
}

func TestRunKademlia(t *testing.T) {
	err := run([]string{
		"-overlay", "kademlia", "-peers", "12", "-n", "800", "-queries", "3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunPeerQuery: -peerquery runs on every overlay.
func TestRunPeerQuery(t *testing.T) {
	for _, overlay := range []string{"chord", "pastry", "kademlia"} {
		var out strings.Builder
		err := run([]string{
			"-overlay", overlay, "-peers", "12", "-n", "1200",
			"-queries", "4", "-peerquery",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", overlay, err)
		}
		if !strings.Contains(out.String(), "peer-executed: 4 ok") {
			t.Errorf("%s: peer-executed queries did not all succeed:\n%s", overlay, out.String())
		}
	}
}
