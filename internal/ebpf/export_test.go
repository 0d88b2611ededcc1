package ebpf

import "testing"

// UseRawReference makes rt run every fire through the raw reference
// interpreter over rt's fd table instead of the installed form. A fault,
// which the verifier rules out, panics.
func UseRawReference(rt *Runtime) {
	raw := &rawVM{maps: rt.maps}
	rt.reference = func(p *Program, ctx *ExecContext) ExecResult {
		res, err := raw.RunInterpreted(p, ctx)
		if err != nil {
			panic(err)
		}
		return res
	}
}

// CheckInstalled runs checkInstalled for the external test package.
func CheckInstalled(t testing.TB, p *Program) { checkInstalled(t, p) }

// AttachedPrograms returns every distinct program attached to rt, in no
// particular order.
func AttachedPrograms(rt *Runtime) []*Program {
	seen := make(map[*Program]bool)
	var out []*Program
	add := func(list []attachment) {
		for _, at := range list {
			if !seen[at.prog] {
				seen[at.prog] = true
				out = append(out, at.prog)
			}
		}
	}
	for _, list := range rt.uprobes {
		add(list)
	}
	for _, list := range rt.uretprobes {
		add(list)
	}
	for _, list := range rt.tracepoints {
		add(list)
	}
	return out
}

// Keys returns the map's live keys in slot order, for tests that compare
// map state.
func (h *HashMap) Keys() []uint64 {
	out := make([]uint64, 0, h.n)
	for i, m := range h.meta {
		if m == slotLive {
			out = append(out, h.keys[i])
		}
	}
	return out
}
