package olapdim

import "olapdim/internal/core"

// CompiledSchema is the compiled form of a dimension schema: category
// names interned to dense integers, the hierarchy graph and its
// reachability closure packed into bitsets, and the constraints
// pre-analyzed per root category. Every DIMSAT search runs on one. An
// entry point given Options.Compiled = nil compiles the schema for that
// call; compiling once and passing the result in Options.Compiled shares
// that work across every call on the schema.
//
// A CompiledSchema is immutable and safe for concurrent use; one
// instance can serve every request and goroutine touching its schema.
type CompiledSchema = core.Compiled

// CompiledStats snapshots a CompiledSchema: shape counts plus compile
// counters. Its Derive* fields always read 0; derived schemas are not
// cached.
type CompiledStats = core.CompiledStats

// ErrCompiledMismatch reports Options.Compiled built from a different
// schema than the one passed to the call; test with errors.Is.
var ErrCompiledMismatch = core.ErrCompiledMismatch

// Compile validates ds and builds its compiled form. The work is
// proportional to the schema size (categories × edges plus constraint
// analysis) and is repaid after a handful of searches; long-lived
// callers should compile once per schema and reuse the result.
//
//	cs, err := olapdim.Compile(ds)
//	res, err := olapdim.SatisfiableContext(ctx, ds, "Store", olapdim.Options{Compiled: cs})
func Compile(ds *DimensionSchema) (*CompiledSchema, error) {
	return core.Compile(ds)
}
