package campaign

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"meetpoly/internal/lazyrand"
	"meetpoly/internal/registry"
)

// This file keeps the expander that formats every string with fmt and
// keys its draw memos by the formatted key string. It is the reference
// the expander's append-built strings and (axis label, sp, lp) memo
// keys are compared against (TestWalkMatchesReference,
// FuzzWalkMatchesReference): every Cell field must agree.

func referenceAxisLabel(p registry.GraphSpec) string {
	var sb strings.Builder
	sb.WriteString(p.Kind)
	switch {
	case p.Rows != 0 || p.Cols != 0:
		fmt.Fprintf(&sb, "-%dx%d", p.Rows, p.Cols)
	case p.N != 0:
		fmt.Fprintf(&sb, "-%d", p.N)
	}
	if p.Shuffle {
		sb.WriteString("-shuf")
	}
	return sb.String()
}

func referenceHash64(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64() & (1<<63 - 1))
}

func referenceCellSeed(master string, index int) string {
	return fmt.Sprintf("%s#%d", master, index)
}

type referenceExpander struct {
	spec  Spec
	index int

	rng       *rand.Rand
	startMemo map[string][2]int
	labelMemo map[string][2]uint64
}

func (x *referenceExpander) starts(gp graphCell, sp int) [2]int {
	key := fmt.Sprintf("%s/%s/start%d", x.spec.Seed, referenceAxisLabel(gp.spec), sp)
	if s, ok := x.startMemo[key]; ok {
		return s
	}
	x.rng.Seed(referenceHash64(key))
	s1 := x.rng.Intn(gp.nodes)
	s2 := x.rng.Intn(gp.nodes - 1)
	if s2 >= s1 {
		s2++
	}
	out := [2]int{s1, s2}
	x.startMemo[key] = out
	return out
}

func (x *referenceExpander) labels(gp graphCell, sp, lp int) [2]uint64 {
	key := fmt.Sprintf("%s/%s/start%d/label%d", x.spec.Seed, referenceAxisLabel(gp.spec), sp, lp)
	if l, ok := x.labelMemo[key]; ok {
		return l
	}
	x.rng.Seed(referenceHash64(key))
	l1 := uint64(1 + x.rng.Intn(64))
	l2 := uint64(1 + x.rng.Intn(63))
	if l2 >= l1 {
		l2++
	}
	out := [2]uint64{l1, l2}
	x.labelMemo[key] = out
	return out
}

func (x *referenceExpander) cell(meta registry.KindMeta, gp graphCell, sp, lp int, adversary string) Cell {
	idx := x.index
	x.index++
	seed := referenceCellSeed(x.spec.Seed, idx)
	c := Cell{
		Index: idx,
		Seed:  seed,
		Kind:  meta.Name,
		Graph: gp.spec,
	}
	s := x.starts(gp, sp)
	c.Starts = []int{s[0], s[1]}
	if meta.Labeled {
		l := x.labels(gp, sp, lp)
		c.Labels = []uint64{l[0], l[1]}
	}
	if meta.UsesBudget {
		c.Budget = x.spec.Budget
	}
	if meta.UsesMoves {
		c.Moves = x.spec.Moves
	}
	if name, hasParams := splitAdversary(adversary); !hasParams && name != "" {
		if am, ok := registry.LookupAdversaryMeta(name); ok && am.PerCellSeed {
			adversary = fmt.Sprintf("%s:%d", name, referenceHash64(seed+"/adv"))
		}
	}
	c.Adversary = adversary
	advLabel := adversary
	if advLabel == "" {
		advLabel = "roundrobin"
	}
	c.ID = fmt.Sprintf("%s/%s/s%d/l%d/%s", meta.Name, referenceAxisLabel(gp.spec), sp, lp, advLabel)
	return c
}

// referenceWalkRange is WalkRange over the reference expander.
func referenceWalkRange(spec Spec, lo, hi int, yield func(Cell) bool) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi < lo {
		return fmt.Errorf("campaign: invalid cell range [%d, %d)", lo, hi)
	}
	spec = spec.normalized()
	x := &referenceExpander{
		spec:      spec,
		rng:       rand.New(lazyrand.New(0)),
		startMemo: make(map[string][2]int),
		labelMemo: make(map[string][2]uint64),
	}
	emit := func(meta registry.KindMeta, gp graphCell, sp, lp int, adv string) bool {
		if x.index >= hi {
			return false
		}
		if x.index < lo {
			x.index++
			return true
		}
		return yield(x.cell(meta, gp, sp, lp, adv))
	}
	for _, kind := range spec.Kinds {
		meta := kindMeta(kind)
		for _, ga := range spec.Graphs {
			gps, err := ga.cells()
			if err != nil {
				return err
			}
			for _, gp := range gps {
				for sp := 0; sp < spec.StartPairs; sp++ {
					labelPairs := spec.LabelPairs
					if !meta.Labeled {
						labelPairs = 1
					}
					for lp := 0; lp < labelPairs; lp++ {
						if !meta.UsesAdversary {
							if !emit(meta, gp, sp, lp, "") {
								return nil
							}
							continue
						}
						for _, adv := range spec.Adversaries {
							if !emit(meta, gp, sp, lp, adv) {
								return nil
							}
						}
					}
				}
			}
		}
	}
	return nil
}
