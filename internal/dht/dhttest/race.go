package dhttest

import "runtime/debug"

// RaceEnabled reports whether the test binary was built with -race, read
// from the build settings the toolchain stamps into it. Tests that pin an
// exact allocation count skip the count under the race detector (which
// makes sync.Pool drop a share of what it is given, on purpose) and still
// run their body there for memory safety.
func RaceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
