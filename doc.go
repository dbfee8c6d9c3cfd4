// Package rcnvm is a from-scratch Go reproduction of "RC-NVM: Enabling
// Symmetric Row and Column Memory Accesses for In-Memory Databases"
// (HPCA 2018): a dual-addressable crossbar-NVM main memory architecture,
// the full-system simulator it is evaluated on, the in-memory-database
// storage and query layers that exploit it, and a benchmark harness that
// regenerates every table and figure of the paper's evaluation.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); the runnable entry points are:
//
//   - cmd/rcnvm-bench — regenerate the paper's tables and figures
//   - cmd/rcnvm-sim   — run synthetic access patterns through the simulator
//   - cmd/rcnvm-area  — the circuit-level area/latency models
//   - examples/...    — quickstart, OLXP, group caching, storage layout
//
// rcnvm-bench runs each experiment at a reduced scale, the opt-in
// ablations and per-bank telemetry included:
//
//	go run ./cmd/rcnvm-bench -scale small
//	go run ./cmd/rcnvm-bench -scale small -run ablation
//	go run ./cmd/rcnvm-bench -scale small -run telemetry
package rcnvm
