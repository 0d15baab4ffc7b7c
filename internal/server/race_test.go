//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation moves values
// a normal build keeps on the stack to the heap.
const raceEnabled = true
