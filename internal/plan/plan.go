// Package plan defines the one structured semantic identity of a plan
// instruction instance — plan.Signature — shared by every layer that
// needs to decide "are these two computations the same?": the
// recycler's exact-match pool index, the pool image's durable keys,
// and (through the SQL front end's normalized shapes upstream)
// the template and prepared-statement caches.
//
// Before this package existed the repo had three disjoint identity
// notions: the front end's literal-stripped shape string, the
// recycler's ad-hoc render()/signature() strings, and the disk tier's
// hand-rolled canonical signatures. They have been unified: every
// matching key in the system is now a *derivation* of one Signature
// value, so a normalization improvement upstream (canonical conjunct
// order, merged common subexpressions, normalized literals) propagates
// to every cache at once.
//
// A Signature has two encodings:
//
//   - Key() — the run-time exact-match key. BAT operands are named by
//     the recycle pool entry id of their producer ("e12"), scalars by
//     their typed literal key ("i7", "f0.5", "s3:foo"). Entry ids die
//     with the process (and with evictions), so this key is only
//     meaningful while the producers are pooled.
//   - Canonical() — the durable, provenance-free key. Each BAT operand
//     is replaced by its producer's own canonical signature,
//     recursively, so the key survives eviction of the producers and
//     process restarts. The pool image names operands by it, and
//     RuntimeKey rebuilds a fresh run-time key from it at prewarm.
package plan

import (
	"strings"
	"unicode/utf8"

	"repro/internal/mal"
)

// Signature is the structured semantic identity of one instruction
// instance: the operation plus its operand values, BAT operands
// standing for the pool entry that produced them (their Prov). Build
// it with Sign; derive string keys with Key and Canonical.
type Signature struct {
	Op string
	// Args aliases the instance's argument values: a Signature is a
	// transient view and must not outlive the slice it was signed over.
	Args []mal.Value
}

// Sign derives the signature of an instruction instance from its
// operation name and runtime argument values. ok=false reports a BAT
// argument with unknown provenance (lineage cut, e.g. by an exhausted
// admission credit): such an instance has no semantic identity the
// pool could match, so neither matching nor admission is possible.
func Sign(op string, args []mal.Value) (Signature, bool) {
	for _, a := range args {
		if a.IsBat() && a.Prov == 0 {
			return Signature{}, false
		}
	}
	return Signature{Op: op, Args: args}, true
}

// AppendKey appends the run-time exact-match key of op over args to
// dst — operation plus the provenance id of every BAT operand and the
// literal key (mal.Value.AppendKey) of every scalar — without
// allocating beyond dst's growth. Two instances with equal keys compute
// the same result — the recycler's matching criterion (paper §3.2) —
// and, literals being length-prefixed where they could contain a
// separator, unequal operand lists never share a key. ok=false reports
// a BAT operand without provenance (see Sign). It is the one key
// encoder: Signature.Key is its string form, and the recycler's
// exact-match probe encodes into a stack buffer with it.
func AppendKey(dst []byte, op string, args []mal.Value) ([]byte, bool) {
	dst = append(append(dst, op...), '(')
	for i, a := range args {
		if a.IsBat() && a.Prov == 0 {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = a.AppendKey(dst)
	}
	return append(dst, ')'), true
}

// Key renders the run-time exact-match key (AppendKey as a string).
func (s Signature) Key() string {
	var buf [128]byte
	key, _ := AppendKey(buf[:0], s.Op, s.Args)
	return string(key)
}

// renderMaxConst bounds the rendered length of one scalar constant in
// RenderInstr output (pool dumps stay one line per entry).
const renderMaxConst = 24

// RenderInstr renders the human-readable listing form of an
// instruction instance (Table I style pool dumps): BAT operands as
// entry references, scalar constants in display form, truncated on
// rune boundaries. Total over any operand, including degenerate
// zero-provenance BATs.
func RenderInstr(op string, args []mal.Value) string {
	var sb strings.Builder
	sb.WriteString(op)
	sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if a.IsBat() {
			sb.WriteByte('e')
			if a.Prov != 0 {
				writeUint(&sb, a.Prov)
			}
		} else {
			sb.WriteString(TruncateRunes(a.String(), renderMaxConst))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// CanonArg is one operand in canonical (provenance-free) form: a BAT
// operand carries its producer's canonical signature, a scalar its
// literal key. This is the per-argument shape the pool image persists.
type CanonArg struct {
	Bat   bool
	Canon string // canonical signature of the producing entry (Bat)
	Key   string // literal matching key (scalar)
}

// Canonical derives the durable form of the signature: every BAT
// operand's producer is resolved through resolve (entry id → that
// entry's own canonical signature) and substituted in place of the
// transient entry id. ok=false when a producer cannot be resolved (at
// drain, a producer left out of the pool image); the instance then has
// no durable identity. The returned canon string equals
// CanonKey(s.Op, args).
func (s Signature) Canonical(resolve func(uint64) (string, bool)) (canon string, args []CanonArg, ok bool) {
	args = make([]CanonArg, len(s.Args))
	for i, a := range s.Args {
		if a.IsBat() {
			c, found := resolve(a.Prov)
			if !found {
				return "", nil, false
			}
			args[i] = CanonArg{Bat: true, Canon: c}
		} else {
			args[i] = CanonArg{Key: a.Key()}
		}
	}
	return CanonKey(s.Op, args), args, true
}

// CanonKey renders the canonical key of an operation over canonical
// operands. BAT operands are bracketed so nested signatures cannot
// collide with literal keys.
func CanonKey(op string, args []CanonArg) string {
	var sb strings.Builder
	sb.WriteString(op)
	sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if a.Bat {
			sb.WriteByte('[')
			sb.WriteString(a.Canon)
			sb.WriteByte(']')
		} else {
			sb.WriteString(a.Key)
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// RuntimeKey rebuilds the run-time exact-match key of a canonical
// signature by resolving every BAT operand's canonical signature to a
// live pool entry id, and returns the distinct entry ids in operand
// order (the lineage edges of the rebuilt entry). ok=false when an
// operand's producer cannot be resolved — at prewarm, a producer that
// did not load, so neither does the record.
func RuntimeKey(op string, args []CanonArg, resolve func(string) (uint64, bool)) (key string, deps []uint64, ok bool) {
	var sb strings.Builder
	sb.WriteString(op)
	sb.WriteByte('(')
	seen := map[uint64]bool{}
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if a.Bat {
			id, found := resolve(a.Canon)
			if !found {
				return "", nil, false
			}
			sb.WriteByte('e')
			writeUint(&sb, id)
			if !seen[id] {
				seen[id] = true
				deps = append(deps, id)
			}
		} else {
			sb.WriteString(a.Key)
		}
	}
	sb.WriteByte(')')
	return sb.String(), deps, true
}

// TruncateRunes shortens s to at most max bytes without splitting a
// multi-byte rune, appending an ellipsis when it cut anything.
func TruncateRunes(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}

// writeUint appends the decimal form of v without allocating.
func writeUint(sb *strings.Builder, v uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	sb.Write(buf[i:])
}
