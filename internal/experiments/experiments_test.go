package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"meetpoly"
	"meetpoly/internal/costmodel"
	"meetpoly/internal/graph"
	"meetpoly/internal/trajectory"
	"meetpoly/internal/uxs"
)

func testEnv(t testing.TB) *trajectory.Env {
	t.Helper()
	return trajectory.NewEnv(uxs.NewVerified(uxs.DefaultFamily(6), 1))
}

func render(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	tab.Render(&sb)
	return sb.String()
}

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// checkGolden compares a measured table's rendering byte for byte with
// testdata/<name>.golden. The shape checks beside it only catch a table
// that breaks outright; the golden file also catches a change in the
// rendezvous, ESST or SGL meeting semantics that moves a cost.
// Regenerate with: go test ./internal/experiments -run <test> -update
func checkGolden(t *testing.T, name string, tab *Table) {
	t.Helper()
	got := render(t, tab)
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestE1E2Shapes(t *testing.T) {
	m := costmodel.New(costmodel.PLinear(1))
	e1 := E1PiVsN(m, []int{4, 8, 16, 32}, 1)
	if len(e1.Rows) != 4 {
		t.Fatalf("E1 rows = %d", len(e1.Rows))
	}
	out := render(t, e1)
	if !strings.Contains(out, "E1") || !strings.Contains(out, "delta-per-doubling") {
		t.Errorf("E1 render missing headers:\n%s", out)
	}
	e2 := E2PiVsLabelLen(m, 4, []int{1, 2, 4, 8})
	if len(e2.Rows) != 4 {
		t.Fatalf("E2 rows = %d", len(e2.Rows))
	}
}

func TestE3WinnerFlips(t *testing.T) {
	m := costmodel.New(costmodel.PLinear(1))
	e3 := E3BaselineVsPi(m, 4, []int{1, 2, 4, 8, 16, 32})
	sawBaseline, sawPoly := false, false
	for _, r := range e3.Rows {
		switch r[len(r)-1] {
		case "baseline":
			sawBaseline = true
		case "RV-asynch-poly":
			sawPoly = true
			if sawBaseline && r[0] == e3.Rows[0][0] {
				t.Error("winner order inconsistent")
			}
		}
	}
	if !sawPoly {
		t.Error("RV-asynch-poly never wins in E3; the headline result is missing")
	}
	// The crossover table must find a finite crossover for every n.
	e3x := E3Crossover(m, []int{2, 4, 8}, 512)
	for _, r := range e3x.Rows {
		if strings.Contains(r[1], "none") {
			t.Errorf("no crossover found for n=%s within 512 bits", r[0])
		}
	}
	_ = sawBaseline
}

func TestE7AllHold(t *testing.T) {
	m := costmodel.New(costmodel.PLinear(2))
	tab := E7Lemmas(m, [][2]int{{2, 4}, {5, 8}})
	if len(tab.Rows) == 0 {
		t.Fatal("no inequality rows")
	}
	for _, r := range tab.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("inequality %q fails", r[0])
		}
	}
}

func TestE4AndE6Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	eng := meetpoly.NewEngine()
	instances := DefaultRVInstances()[:4]
	e4 := E4Measured(eng, instances, 300_000)
	met := 0
	for _, r := range e4.Rows {
		if r[4] == "yes" {
			met++
		}
	}
	if met == 0 {
		t.Error("no instance met under any strategy in E4")
	}
	checkGolden(t, "e4-measured", e4)
	e6 := E6Certified(eng, instances[:2], 3000)
	forced := 0
	for _, r := range e6.Rows {
		if r[1] == "yes" {
			forced++
		}
	}
	if forced == 0 {
		t.Error("no instance certified forced in E6")
	}
	checkGolden(t, "e6-certified", e6)
}

// TestE4AllInstances pins the whole E4 table at rvsim -table E4's
// defaults: catalog family 8, budget 2,000,000.
func TestE4AllInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	checkGolden(t, "e4-measured-all", E4Measured(meetpoly.NewEngine(meetpoly.WithMaxN(8)), DefaultRVInstances(), 2_000_000))
}

// TestE6AllInstances pins the whole E6 table at the 4,000-move prefix
// rvsim renders, including the instances whose meeting is not forced
// within it, and checks the table's own note on every forced row: the
// avoider met, at a cost no greater than the certified worst case.
func TestE6AllInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	tab := E6Certified(meetpoly.NewEngine(), DefaultRVInstances(), 4000)
	for _, r := range tab.Rows {
		if r[1] != "yes" {
			continue
		}
		worst, werr := strconv.Atoi(r[2])
		measured, merr := strconv.Atoi(r[4])
		if werr != nil || merr != nil || measured > worst {
			t.Errorf("%s: avoider-measured %q vs certified-worst-cost %q", r[0], r[4], r[2])
		}
	}
	checkGolden(t, "e6-certified-all", tab)
}

func TestE4SymmetryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	tab := E4Symmetry(meetpoly.NewEngine(), 100_000)
	var orientedMet, shuffledMet bool
	for _, r := range tab.Rows {
		if r[1] == "oriented" && r[3] == "yes" {
			orientedMet = true
		}
		if r[1] == "shuffled" && r[3] == "yes" {
			shuffledMet = true
		}
	}
	if orientedMet {
		t.Error("oriented ring met within budget; symmetry analysis invalid")
	}
	if !shuffledMet {
		t.Error("shuffled ring never met; port shuffling should break the symmetry")
	}
	checkGolden(t, "e4-symmetry", tab)
}

func TestE5Table(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	tab := E5ESST(meetpoly.NewEngine(meetpoly.WithMaxN(8)), DefaultESSTInstances(), 50_000_000)
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[3], "error") || r[3] == "no-term" {
			t.Errorf("instance %s: %s", r[0], r[3])
		}
		if len(r) > 8 && r[8] != "true" {
			t.Errorf("instance %s: coverage %s", r[0], r[8])
		}
	}
	checkGolden(t, "e5-esst", tab)
}

// TestMeasuredTablesCoverStructurally: E5 and E8 leave coverage to
// the engine, which extends its verified catalog only for a graph with
// no structurally equal family member. So after each table runs, every
// instance graph is covered and no graph the engine appended is
// structurally equal to another family member (rebuilt members are not
// appended again). The families are the ones esstsim -table and sglsim
// -table use.
func TestMeasuredTablesCoverStructurally(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	check := func(name string, eng *meetpoly.Engine, table func(), specs []meetpoly.GraphSpec) {
		t.Helper()
		v := eng.Env().Catalog().(*uxs.Verified)
		base := len(v.Family())
		table()
		for _, spec := range specs {
			g, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !v.CoversEqual(g) {
				t.Errorf("%s: instance graph %s not covered", name, g)
			}
		}
		fam := v.Family()
		for i := base; i < len(fam); i++ {
			for j := range fam {
				if j != i && graph.Equal(fam[i], fam[j]) {
					t.Errorf("%s: appended %s is structurally equal to family member %s", name, fam[i], fam[j])
					break
				}
			}
		}
	}
	var specs []meetpoly.GraphSpec
	for _, in := range DefaultESSTInstances() {
		specs = append(specs, in.Graph)
	}
	e5 := meetpoly.NewEngine(meetpoly.WithMaxN(8))
	check("E5", e5, func() { E5ESST(e5, DefaultESSTInstances(), 50_000_000) }, specs)

	specs = nil
	for _, in := range DefaultSGLInstances() {
		specs = append(specs, in.Graph)
	}
	e8 := meetpoly.NewEngine()
	check("E8", e8, func() { E8SGL(e8, DefaultSGLInstances(), 40_000_000) }, specs)
}

func TestE8Table(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	tab := E8SGL(meetpoly.NewEngine(), DefaultSGLInstances()[:3], 40_000_000)
	for _, r := range tab.Rows {
		if r[3] != "yes" {
			t.Errorf("instance %s: all-output = %s", r[0], r[3])
		}
	}
	checkGolden(t, "e8-sgl", tab)
}

// TestE8AllInstances pins the whole E8 table at sglsim -table's
// defaults: catalog family 6, budget 40,000,000. Its last instance,
// rtree6/k4, is the only one whose graph extends the family.
func TestE8AllInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	checkGolden(t, "e8-sgl-all", E8SGL(meetpoly.NewEngine(), DefaultSGLInstances(), 40_000_000))
}

func TestF1to4Renders(t *testing.T) {
	env := testEnv(t)
	out := F1to4(env, 3)
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Q(3,v)", "Y'(3,v)", "Z(3,v)", "A'(3,v)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
}

func TestE10CoverageRamp(t *testing.T) {
	verified := testEnv(t)
	cubic := trajectory.NewEnv(uxs.NewFormula(1, 1))
	graphs := verified.Catalog().(*uxs.Verified).Family()[:4]
	tab := E10CoverageRamp(graphs, verified, cubic)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[2] == "-1" {
			t.Errorf("%s: verified catalog never reached integrality", r[0])
		}
	}
}

func TestE9SGLBoundTable(t *testing.T) {
	m := costmodel.New(costmodel.PLinear(1))
	tab := E9SGLBound(m, []int{2, 3}, 2, 3)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestPModelsAblation(t *testing.T) {
	for name, m := range PModels() {
		pi := PiExact(m, 3, 1)
		if pi.Sign() <= 0 {
			t.Errorf("%s: non-positive Pi", name)
		}
	}
}
