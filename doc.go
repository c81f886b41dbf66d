// Package symmerge reproduces "Efficient State Merging in Symbolic
// Execution" (Kuznetsov, Kinder, Bucur, Candea; PLDI 2012) as a
// self-contained Go library.
//
// The public API lives in symmerge/symx (compile MiniC programs, explore
// them symbolically with configurable state merging). The evaluation
// harness regenerating the paper's figures lives in cmd/paperbench; the
// performance benchmark is cmd/symbench, and the Go benchmark entry points
// are in bench_test.go at the module root.
//
// See README.md for the package tour and the architecture notes on the
// incremental solver sessions that back the engine's feasibility queries
// and on crash-safe exploration (symx.Config.CheckpointDir), which
// snapshots the one engine of a run without changing what it explores.
package symmerge
