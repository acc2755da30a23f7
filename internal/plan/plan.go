// Package plan defines the one identity of a plan instruction
// instance: AppendKey encodes an operation over its operand values,
// and the recycler keys its pool with it on the hit path and at
// admission alike (paper §3.2: exact match on the operation and its
// operands). RenderInstr is the display form of the same instance, and
// the delta classes (deltaclass.go) name what a commit can do to its
// result.
//
// A key names a BAT operand by the recycle pool entry id of its
// producer ("e12") and a scalar by its typed literal key ("i7",
// "f0.5", "s3:foo"). Entry ids die with the process (and with
// evictions), so a key is only meaningful while its producers are
// pooled: the pool image (internal/recycler) keeps recipes, not keys,
// and a boot recomputes them.
package plan

import (
	"strings"
	"unicode/utf8"

	"repro/internal/mal"
)

// AppendKey appends the run-time exact-match key of op over args to
// dst — operation plus the provenance id of every BAT operand and the
// literal key (mal.Value.AppendKey) of every scalar — without
// allocating beyond dst's growth. Two instances with equal keys compute
// the same result — the recycler's matching criterion (paper §3.2) —
// and, literals being length-prefixed where they could contain a
// separator, unequal operand lists never share a key. ok=false reports
// a BAT operand without provenance (lineage cut, e.g. by an exhausted
// admission credit): such an instance has no identity the pool could
// match, so neither matching nor admission is possible. It is the one
// key encoder: the recycler's exact-match probe and its admission both
// encode with it.
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
