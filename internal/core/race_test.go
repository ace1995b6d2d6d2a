//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation makes the
// numeric grids slow and adds allocations of its own.
const raceEnabled = true
