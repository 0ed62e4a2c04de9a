//go:build race

// Package race reports whether the race detector is compiled in, for the
// allocation-count tests: under the detector the instrumentation
// allocates and sync.Pool drops items on purpose, so their counts mean
// nothing.
package race

// Enabled is true when the build has the race detector.
const Enabled = true
