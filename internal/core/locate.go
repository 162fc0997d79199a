package core

import (
	"fmt"
	"math/big"

	"meetpoly/internal/labels"
	"meetpoly/internal/trajectory"
)

// Location identifies where a given edge traversal falls within the
// master schedule of Algorithm RV-asynch-poly: which piece, which bit's
// segment, which component, and the offset inside that component. It is
// the analytical tool behind statements like "agent a is inside the last
// atom of its j-th piece" that the synchronization lemmas reason about.
type Location struct {
	Component Component
	// AtomIndex is 0 or 1 for segment atoms, 0 otherwise.
	AtomIndex int
	// Offset is the traversal index within the component (0-based).
	Offset *big.Int
	// ComponentLen is the component's exact length.
	ComponentLen *big.Int
}

// String renders the location compactly.
func (l Location) String() string {
	switch l.Component.Kind {
	case CompAtomA, CompAtomB:
		return fmt.Sprintf("piece %d, segment S_%d, atom %d of %s(%d), move %v/%v",
			l.Component.K, l.Component.I, l.AtomIndex+1,
			l.Component.Kind, l.Component.Arg, l.Offset, l.ComponentLen)
	case CompK:
		return fmt.Sprintf("piece %d, border K_{%d,%d}(%d), move %v/%v",
			l.Component.K, l.Component.I, l.Component.I+1,
			l.Component.Arg, l.Offset, l.ComponentLen)
	default:
		return fmt.Sprintf("fence Ω(%d) after piece %d, move %v/%v",
			l.Component.Arg, l.Component.K, l.Offset, l.ComponentLen)
	}
}

// componentLen returns the exact length of a schedule component.
func componentLen(env *trajectory.Env, c Component) *big.Int {
	switch c.Kind {
	case CompAtomB:
		return env.LenB(c.Arg)
	case CompAtomA:
		return env.LenA(c.Arg)
	case CompK:
		return env.LenK(c.Arg)
	case CompOmega:
		return env.LenOmega(c.Arg)
	default:
		panic("core: unknown component kind " + string(c.Kind))
	}
}

// Locate maps the index-th edge traversal (0-based) of the master
// trajectory of label l to its schedule location. It walks the flattened
// component sequence subtracting exact lengths; the walk visits O(k·s)
// components to reach piece k, never materializing any trajectory.
func Locate(l labels.Label, env *trajectory.Env, index *big.Int) Location {
	if index.Sign() < 0 {
		panic("core: Locate needs a non-negative index")
	}
	bits := l.Modified()
	s := len(bits)
	rem := new(big.Int).Set(index)
	for k := 1; ; k++ {
		m := min(k, s)
		for i := 1; i <= m; i++ {
			var atom Component
			if bits[i-1] == 1 {
				atom = Component{CompAtomB, k, i, 2 * k}
			} else {
				atom = Component{CompAtomA, k, i, 4 * k}
			}
			alen := componentLen(env, atom)
			for a := 0; a < 2; a++ {
				if rem.Cmp(alen) < 0 {
					return Location{Component: atom, AtomIndex: a,
						Offset: rem, ComponentLen: alen}
				}
				rem.Sub(rem, alen)
			}
			var sep Component
			if i < m {
				sep = Component{CompK, k, i, k}
			} else {
				sep = Component{CompOmega, k, i, k}
			}
			slen := componentLen(env, sep)
			if rem.Cmp(slen) < 0 {
				return Location{Component: sep, Offset: rem, ComponentLen: slen}
			}
			rem.Sub(rem, slen)
		}
	}
}

// PieceLen returns the exact length of piece k (segments and borders,
// excluding the trailing fence) for the given label.
func PieceLen(l labels.Label, env *trajectory.Env, k int) *big.Int {
	bits := l.Modified()
	m := min(k, len(bits))
	total := new(big.Int)
	for i := 1; i <= m; i++ {
		addSegment(total, env, k, bits[i-1])
		if i < m {
			total.Add(total, env.LenK(k))
		}
	}
	return total
}

// addSegment adds the length of one segment of piece k to total: two
// atoms B(2k) for a 1 bit, two atoms A(4k) for a 0 bit.
func addSegment(total *big.Int, env *trajectory.Env, k int, bit byte) {
	atom := env.LenA(4 * k)
	if bit == 1 {
		atom = env.LenB(2 * k)
	}
	total.Add(total, atom)
	total.Add(total, atom)
}

// SymmetryHorizon returns D, the exact traversal index at which segment
// S_{i*} of piece i* begins, where i* is the first bit (1-based) at
// which the modified labels of l1 and l2 differ. Before D the two
// master trajectories run the same component sequence: the pieces
// 1..i*−1 with their fences, then the first i*−1 segments of piece i*
// and the borders after them. Every length depends only on the catalog,
// so two agents whose starts are related by a port-preserving
// automorphism emit the same ports for their first D traversals. D is
// HorizonLen(i*−1) plus those segments and borders. The labels must
// differ.
func SymmetryHorizon(l1, l2 labels.Label, env *trajectory.Env) *big.Int {
	if l1 == l2 {
		panic("core: SymmetryHorizon needs distinct labels")
	}
	bits := l1.Modified()
	i := labels.FirstDiff(bits, l2.Modified()) + 1
	d := HorizonLen(l1, env, i-1)
	for j := 1; j < i; j++ {
		addSegment(d, env, i, bits[j-1])
		d.Add(d, env.LenK(i))
	}
	return d
}

// Opening returns the period L and the length H of the opening every
// master trajectory shares. Every modified label begins 11, so piece 1
// is the single segment S_1 = B(2)B(2), and each atom B(2) repeats the
// closed walk Y(2), each copy a fresh stepper from the agent's start.
// An agent's ports therefore repeat with period L = |Y(2)|, and it
// stands at its start after every multiple of L, until traversal
// H = |S_1(1)| = 2|B(2)|, where the fence Ω(1) begins. Both values are
// fresh copies and depend only on the catalog.
func Opening(env *trajectory.Env) (period, length *big.Int) {
	return new(big.Int).Set(env.LenY(2)), new(big.Int).Lsh(env.LenB(2), 1)
}

// HorizonLen returns the exact number of traversals from the start of
// the schedule through the fence of piece kMax: sum of pieces plus
// fences. Tests pin it against materialized executions.
func HorizonLen(l labels.Label, env *trajectory.Env, kMax int) *big.Int {
	total := new(big.Int)
	for k := 1; k <= kMax; k++ {
		total.Add(total, PieceLen(l, env, k))
		total.Add(total, env.LenOmega(k))
	}
	return total
}
