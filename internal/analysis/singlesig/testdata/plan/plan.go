// Fixture package for singlesig, typechecked as
// "repro/internal/plan": the canonical identity implementation, which
// the analyzer exempts wholesale.
package plan

// AppendKey is canonical identity: the op and its operands.
func AppendKey(dst []byte, op string, args []string) ([]byte, bool) {
	dst = append(dst, op...)
	for _, a := range args {
		dst = append(append(dst, ','), a...)
	}
	return dst, true
}

// RenderInstr produces display text; internal/plan may build it from
// parts, and nothing outside may key on it.
func RenderInstr(module, op string, args []string) string {
	out := module + "." + op
	for _, a := range args {
		out += " " + a
	}
	return out
}
