// Package sqlfe implements the engine's SQL front end for a focused
// statement subset: single-table SELECT with conjunctive predicates,
// grouping, aggregates and LIMIT, plus INSERT ... VALUES and
// DELETE ... WHERE col = literal. Its defining feature is the paper's
// template extraction (§2.2): every literal constant in a query is
// factored out into a template parameter, so textually different
// queries that share a shape compile to the *same* cached template —
// which is what gives the recycler its inter-query reuse surface.
//
// Shapes are taken over the NORMALIZED query (see Normalize): the
// WHERE conjunction in canonical order, >=/<= pairs merged into
// BETWEEN, literal forms collapsed. Semantically equal texts that
// merely render differently therefore share one template too, and
// their parameter vectors align with the normalized predicate order.
//
// INSERT and DELETE share the lexer, the literal grammar and the
// literal typing (a VALUES literal is typed to its column exactly as a
// predicate literal becomes a parameter); Insert.Bind and Delete.Bind
// resolve them against the catalog, and repro.Engine commits them.
package sqlfe
