//go:build race

package progs_test

// The race detector's instrumentation allocates, so the exact allocation
// pins do not hold under it.
func init() { raceEnabled = true }
