package dht

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// killChildEnv, when set, makes TestWALSurvivesKill the child it re-executes:
// "seed start restore dir".
const killChildEnv = "MLIGHT_WAL_KILL_CHILD"

// killRecord is record i of the child's sequence at seed: key i, under a value
// whose length the seed and i decide.
func killRecord(seed int64, i int) WALRecord {
	n := 1 + int((uint64(i)*2654435761^uint64(seed)*40503)%300)
	return WALRecord{Op: WALPut, Key: Key(fmt.Sprintf("k%07d", i)), Value: strings.Repeat(string(rune('a'+i%26)), n)}
}

// TestWALSurvivesKill kills a process that is appending to a WAL with
// SIGKILL, at a seeded number of acknowledged appends, and requires the
// reopened log to restore a prefix of what the process wrote that holds every
// record it acknowledged: an Append that returned is in the page cache, and
// the page cache outlives the process. The last case kills a second process
// that opened the same log and appended to it with no Restore first.
func TestWALSurvivesKill(t *testing.T) {
	if v := os.Getenv(killChildEnv); v != "" {
		killChild(v)
		return
	}
	for _, tc := range []struct {
		seed      int64
		noRestore bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {5, false}, {6, true}} {
		t.Run(fmt.Sprintf("seed=%d/no-restore=%t", tc.seed, tc.noRestore), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			dir := t.TempDir()
			acked := runKilled(t, tc.seed, 0, true, dir, 1+rng.Intn(5000))
			if tc.noRestore {
				// Where the first process stopped is what a copy restores.
				written := checkKillPrefix(t, tc.seed, copyLog(t, dir), acked)
				acked = runKilled(t, tc.seed, written, false, dir, 1+rng.Intn(5000))
			}
			checkKillPrefix(t, tc.seed, dir, acked)
		})
	}
}

// killChild appends the seeded record sequence from start, a group of one to
// eight records at a time, and prints "ack n" after each Append returns, n
// being the records written so far; it never exits by itself.
func killChild(arg string) {
	f := strings.SplitN(arg, " ", 4)
	seed, _ := strconv.ParseInt(f[0], 10, 64)
	next, _ := strconv.Atoi(f[1])
	w, err := OpenWAL(WALOptions{Dir: f[3], Codec: testCodec{}, CompactThreshold: -1})
	if err == nil && f[2] == "true" {
		_, err = w.Restore()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(seed + int64(next)))
	for {
		group := make([]WALRecord, 1+rng.Intn(8))
		for i := range group {
			group[i] = killRecord(seed, next+i)
		}
		if err := w.Append(group); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		next += len(group)
		fmt.Fprintf(os.Stdout, "ack %d\n", next)
	}
}

// runKilled runs the child over dir from record start, sends it SIGKILL once
// it has acknowledged acks appends, and returns how many records the last
// acknowledgement it printed covers.
func runKilled(t *testing.T, seed int64, start int, restore bool, dir string, acks int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALSurvivesKill$")
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d %d %t %s", killChildEnv, seed, start, restore, dir))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A child that never acknowledges enough is killed anyway, and reported.
	killer := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer killer.Stop()
	acked, seen := start, 0
	lines := bufio.NewScanner(out)
	for seen < acks && lines.Scan() {
		if n, err := strconv.Atoi(strings.TrimPrefix(lines.Text(), "ack ")); err == nil {
			acked, seen = n, seen+1
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
	}
	cmd.Wait() // a killed child's exit error; its status is checked next
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); seen < acks || !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child (seed %d from %d) stopped after %d of %d acks, not by SIGKILL: %v\n%s", seed, start, seen, acks, cmd.ProcessState, stderr.String())
	}
	return acked
}

// copyLog copies dir's log into a fresh directory.
func copyLog(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := os.WriteFile(filepath.Join(out, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkKillPrefix restores dir and requires records 0 to n-1 of the seed's
// sequence, exactly, for some n ≥ acked; it returns n.
func checkKillPrefix(t *testing.T, seed int64, dir string, acked int) int {
	t.Helper()
	w, err := OpenWAL(WALOptions{Dir: dir, Codec: testCodec{}, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	state, err := w.Restore()
	if err != nil {
		t.Fatal(err)
	}
	n := len(state)
	if n < acked {
		t.Fatalf("seed %d: restored %d records, %d were acknowledged (%+v)", seed, n, acked, w.LastReplay())
	}
	for i := 0; i < n; i++ {
		want := killRecord(seed, i)
		if got, ok := state[want.Key]; !ok || got != want.Value {
			t.Fatalf("seed %d: restored %d records but not record %d as written (%+v)", seed, n, i, w.LastReplay())
		}
	}
	t.Logf("%d acknowledged, %d restored (%+v)", acked, n, w.LastReplay())
	return n
}
