package trajectory

import (
	"math/big"
	"testing"

	"meetpoly/internal/graph"
	"meetpoly/internal/uxs"
)

// envLengths lists every memoized length of e for k = 1..kMax.
func envLengths(e *Env, kMax int) []*big.Int {
	var out []*big.Int
	for k := 1; k <= kMax; k++ {
		out = append(out, e.LenX(k), e.LenQ(k), e.LenYPrime(k), e.LenY(k), e.LenZ(k),
			e.LenAPrime(k), e.LenA(k), e.LenB(k), e.LenK(k), e.LenOmega(k))
	}
	return out
}

// TestLengthsExpireWithCatalog pins the length memo to the catalog's
// generation: after a verified catalog extends with 7-node graphs,
// which changes P(7), every Len* of an Env that memoized lengths before
// the extension must equal a fresh Env's over the extended catalog.
func TestLengthsExpireWithCatalog(t *testing.T) {
	const kMax = 7
	cat := uxs.NewVerified(uxs.DefaultFamily(4), 1)
	env := NewEnv(cat)
	before := envLengths(env, kMax)
	p7 := cat.P(7)
	cat.Extend(graph.Ring(7), graph.Path(7), graph.Star(7))
	if cat.P(7) == p7 {
		t.Fatalf("extension left P(7) at %d: the test needs a length that moves", p7)
	}
	after, fresh := envLengths(env, kMax), envLengths(NewEnv(cat), kMax)
	moved := 0
	for i := range fresh {
		if after[i].Cmp(fresh[i]) != 0 {
			t.Fatalf("length %d (k = %d) reads %v after the extension, a fresh Env %v", i%10, 1+i/10, after[i], fresh[i])
		}
		if before[i].Cmp(fresh[i]) != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no length moved with the extension")
	}
	if got, want := env.LenX(7), new(big.Int).Lsh(big.NewInt(int64(cat.P(7))), 1); got.Cmp(want) != 0 {
		t.Errorf("LenX(7) = %v, want 2·P(7) = %v", got, want)
	}
}
