// Fixture package for singlesig, typechecked as
// "repro/internal/fixture": consumers of instruction and plan
// identity, flagged and allowed shapes.
package fixture

import (
	"fmt"

	"repro/internal/mal"
	"repro/internal/plan"
)

// badConcatKey builds an ad-hoc identity from instruction fields.
func badConcatKey(in *mal.Instr, seen map[string]int) {
	seen[in.Module+"."+in.Op]++ // want "ad-hoc identity string used as a map key"
}

// badSprintfVar taints a local and then keys a map with it.
func badSprintfVar(in *mal.Instr, seen map[string]bool) {
	k := fmt.Sprintf("%s|%d", in.Name(), 3)
	seen[k] = true // want "ad-hoc identity string used as a map key"
}

// badLitKey uses a derived identity as a composite-literal key.
func badLitKey(in *mal.Instr) map[string]int {
	return map[string]int{
		in.Module + in.Op: 1, // want "ad-hoc identity string used as a map key"
	}
}

// badRenderKey keys a cache on render output (display text).
func badRenderKey(in *mal.Instr, cache map[string]int) {
	r := plan.RenderInstr(in.Module, in.Op, in.Args)
	cache[r] = 1 // want "ad-hoc identity string used as a map key"
}

// goodDirectKey uses identity-function results directly: that IS the
// identity, not a derivation.
func goodDirectKey(in *mal.Instr, seen map[string]int) {
	seen[in.StaticSig()]++
	seen[in.Name()] = 1
	key, _ := plan.AppendKey(nil, in.Name(), in.Args)
	seen[string(key)] = 2
}

// goodLogLine derives a string for logging only — never a key.
func goodLogLine(in *mal.Instr) string {
	return fmt.Sprintf("exec %s.%s", in.Module, in.Op)
}

// goodPlainKey concatenates non-identity strings.
func goodPlainKey(name string, m map[string]int) {
	m[name+"-suffix"]++
}
