// Package server exposes the engine over the network, turning the
// reproduction into the long-running multi-user service the paper's
// recycler is designed for: many clients' queries sharing one recycle
// pool (the SkyServer setting of §8).
//
// Two protocols front one shared Engine, and both are codecs over
// Engine.ExecSQL — the one place a statement is parsed and run:
//
//   - HTTP/JSON: POST /query executes a SELECT and returns rows plus
//     per-query recycler statistics; POST /exec runs an INSERT or
//     DELETE for effect, exercising the update synchronisation path
//     (§6) over the wire (each endpoint refuses the other's statements
//     with a 400 before they run); GET /stats returns the engine-wide
//     EngineStats snapshot as JSON; GET /metrics renders the same
//     counters in Prometheus text format; GET /healthz is a liveness
//     probe.
//   - A line-oriented TCP protocol: one repro.Session per connection,
//     one SQL statement per line, results as tab-separated ROW lines
//     terminated by an OK or ERR line (see tcp.go for the grammar).
//
// Every statement passes a configurable max-concurrency admission
// gate, so a flood of clients queues at the door instead of piling
// onto the interpreter. Identical SELECT texts are served from the
// engine's exact-text statement cache, which skips the SQL front end
// entirely — repeated traffic reaches the recycler's matcher with
// minimal overhead; /stats and /metrics report it as the prepared_*
// counters.
//
// Shutdown drains: new statements are refused, in-flight ones run to
// completion (releasing their recycler pins via Engine.Exec's paired
// BeginQuery/EndQuery), and only then are connections closed. After a
// clean Shutdown the recycler's active-query set is empty, so no pool
// entry stays pinned by a query that will never finish.
package server
