//go:build !race

package race

// Enabled is true when the build has the race detector.
const Enabled = false
