// Package main is golden-test input loaded under the import path
// "example.com/cmd/demo": the "cmd" fragment of DeterminismAllow exempts
// driver packages, so the wall-clock read and global rand draw below carry
// no want expectations.
package main

import (
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	_ = rand.Intn(10)
	_ = time.Since(start)
}

func waived() {
	// A waiver naming a pass the analyzer does not have is reported
	// whatever passes ran: a misspelt name, or one left behind by a
	// deleted pass, would otherwise sit in the tree forever.
	//lint:allow droppederror the error is counted elsewhere
	// want:prev `\[allow\] unknown pass "droppederror"`
	//lint:allow lockorder shard locks nest in ascending index order
	// want:prev `\[allow\] unknown pass "lockorder"`
}
