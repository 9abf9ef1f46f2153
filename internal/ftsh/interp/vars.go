package interp

import (
	"math/bits"
	"slices"

	"repro/internal/ftsh/token"
)

// varTable is an interpreter's variables: an open-addressed hash table
// keyed by symbol. It holds only the names this interpreter has set, so
// its size does not depend on how many names the process has interned,
// and a lookup is a multiply, a shift and, almost always, one compare —
// no string is hashed. No variable is ever removed (`x=` sets it to ""),
// so probing needs no tombstones: an empty slot ends every probe.
type varTable struct {
	slots []varSlot // len is zero or a power of two, at most half full
	shift uint8     // 32 - log2(len(slots))
	n     int       // occupied slots
}

type varSlot struct {
	sym token.Sym // zero: empty
	val string
}

// home is where sym's probe starts: Fibonacci hashing, whose top bits
// spread the consecutive symbols one script interns over the table.
func (t *varTable) home(sym token.Sym) uint32 {
	return uint32(sym) * 0x9E3779B9 >> t.shift
}

// get returns sym's value, "" if it was never set.
func (t *varTable) get(sym token.Sym) string {
	if len(t.slots) == 0 {
		return ""
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(sym); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.sym {
		case sym:
			return s.val
		case 0:
			return ""
		}
	}
}

// set gives sym, which is not the zero Sym, the value val.
func (t *varTable) set(sym token.Sym, val string) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(sym); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.sym {
		case sym:
			s.val = val
			return
		case 0:
			*s = varSlot{sym, val}
			t.n++
			return
		}
	}
}

// grow doubles the table (from 8 slots) and re-files every variable.
func (t *varTable) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]varSlot, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.sym != 0 {
			t.set(s.sym, s.val)
		}
	}
}

// clone returns a copy that shares nothing with t: a forall branch's.
func (t *varTable) clone() varTable {
	return varTable{slots: slices.Clone(t.slots), shift: t.shift, n: t.n}
}
