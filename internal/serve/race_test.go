//go:build race

package serve

// The race detector's instrumentation allocates, so the exact allocation
// pins do not hold under it.
func init() { raceEnabled = true }
