package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
)

func newHC(t *testing.T, geo dram.Geometry, shape []int) *Hypercube {
	t.Helper()
	sys, err := dram.NewSystem(geo)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHypercube(sys, shape)
	if err != nil {
		t.Fatal(err)
	}
	return hc
}

func TestNewHypercubeValidation(t *testing.T) {
	sys, _ := dram.NewSystem(geo64)
	bad := [][]int{
		{},        // empty
		{32},      // wrong product
		{3, 8, 8}, // non-pow2 in non-last dim (and wrong product)
		{6, 8},    // non-pow2 non-last (48 != 64 anyway)
		{0, 64},   // zero length
		{-4, 16},  // negative
		{8, 8, 8}, // too many PEs
	}
	for _, shape := range bad {
		if _, err := NewHypercube(sys, shape); err == nil {
			t.Errorf("shape %v accepted", shape)
		}
	}
	good := [][]int{{64}, {8, 8}, {4, 2, 8}, {2, 2, 2, 8}, {16, 4}, {4, 16}, {32, 2}}
	for _, shape := range good {
		if _, err := NewHypercube(sys, shape); err != nil {
			t.Errorf("shape %v rejected: %v", shape, err)
		}
	}
	// Non-power-of-two allowed only in the last dimension.
	sys24, _ := dram.NewSystem(geo24)
	if _, err := NewHypercube(sys24, []int{8, 3}); err != nil {
		t.Errorf("[8,3] rejected: %v", err)
	}
	if _, err := NewHypercube(sys24, []int{3, 8}); err == nil {
		t.Error("[3,8] accepted (non-pow2 not in last dim)")
	}
}

func TestNodePECoordRoundTrip(t *testing.T) {
	hc := newHC(t, geo64, []int{4, 2, 8})
	for pe := 0; pe < 64; pe++ {
		coord := hc.PECoord(pe)
		if got := hc.NodePE(coord); got != pe {
			t.Fatalf("round trip %d -> %v -> %d", pe, coord, got)
		}
	}
}

func TestNodePEOrderXFastest(t *testing.T) {
	hc := newHC(t, geo64, []int{4, 2, 8})
	if hc.NodePE([]int{1, 0, 0}) != 1 {
		t.Error("x stride should be 1")
	}
	if hc.NodePE([]int{0, 1, 0}) != 4 {
		t.Error("y stride should be |x|")
	}
	if hc.NodePE([]int{0, 0, 1}) != 8 {
		t.Error("z stride should be |x||y|")
	}
}

// The paper's mapping property (§ IV-C): an entangled group occupies 8
// consecutive hypercube nodes, so the low dimensions of any shape align
// with chips first.
func TestMappingFillsEntangledGroupsFirst(t *testing.T) {
	hc := newHC(t, geo64, []int{8, 8})
	sys := hc.System()
	for node := 0; node < 8; node++ {
		id := sys.PEFromLinear(hc.NodePE([]int{node, 0}))
		if id.Chip != node || id.Bank != 0 || id.Rank != 0 || id.Channel != 0 {
			t.Errorf("x=%d maps to %+v, want chip %d of EG 0", node, id, node)
		}
	}
	// Figure 6's example: x of length 8 occupies two entangled groups of 4
	// chips in the 4-chip toy; in our 8-chip system, x=8 is exactly one EG
	// and y advances banks.
	idY := sys.PEFromLinear(hc.NodePE([]int{0, 1}))
	if idY.Bank != 1 || idY.Chip != 0 {
		t.Errorf("y=1 maps to %+v, want bank 1 chip 0", idY)
	}
}

func TestParseDims(t *testing.T) {
	hc := newHC(t, geo64, []int{4, 2, 8})
	sel, err := hc.ParseDims("101")
	if err != nil {
		t.Fatal(err)
	}
	if !sel[0] || sel[1] || !sel[2] {
		t.Errorf("ParseDims(101) = %v", sel)
	}
	for _, bad := range []string{"", "1", "1010", "abc", "000"} {
		if _, err := hc.ParseDims(bad); err == nil {
			t.Errorf("ParseDims(%q) accepted", bad)
		}
	}
}

func TestGroupsPartitionAllPEs(t *testing.T) {
	hc := newHC(t, geo64, []int{4, 2, 8})
	for _, dims := range []string{"100", "010", "001", "110", "101", "011", "111"} {
		groups, err := hc.Groups(dims)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, pe := range g {
				if seen[pe] {
					t.Fatalf("dims %s: PE %d in two groups", dims, pe)
				}
				seen[pe] = true
			}
		}
		if len(seen) != 64 {
			t.Fatalf("dims %s: %d PEs covered, want 64", dims, len(seen))
		}
		// All groups same size = product of selected dims.
		n := len(groups[0])
		for _, g := range groups {
			if len(g) != n {
				t.Fatalf("dims %s: unequal group sizes", dims)
			}
		}
	}
}

func TestGroupSizesMatchFigure5(t *testing.T) {
	// Figure 5: 4x2x4 cube; "100" gives 8 groups of 4; "101" gives 2
	// groups of 16. Build the same shape on a 32-PE system.
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1024}
	hc := newHC(t, geo, []int{4, 2, 4})
	g100, _ := hc.Groups("100")
	if len(g100) != 8 || len(g100[0]) != 4 {
		t.Errorf("100: %d groups of %d, want 8 of 4", len(g100), len(g100[0]))
	}
	g101, _ := hc.Groups("101")
	if len(g101) != 2 || len(g101[0]) != 16 {
		t.Errorf("101: %d groups of %d, want 2 of 16", len(g101), len(g101[0]))
	}
}

// Property: group membership is consistent with rank enumeration order
// (lowest selected dim varies fastest).
func TestGroupRankOrderProperty(t *testing.T) {
	hc := newHC(t, geo64, []int{4, 2, 8})
	f := func(dimPick uint8) bool {
		dims := []string{"100", "010", "001", "110", "101", "011", "111"}[int(dimPick)%7]
		p, err := hc.buildPlan(dims)
		if err != nil {
			return false
		}
		for _, grp := range p.groups {
			prev := -1
			for r, pe := range grp {
				if int(p.rankOf[pe]) != r {
					return false
				}
				// Rank order must be ascending in PE linear order restricted
				// to the group's coordinate pattern: lower selected dims vary
				// fastest, which for our identity mapping means PE index is
				// monotonically increasing only when the selected dims are a
				// prefix; in general just check bijectivity.
				if pe == prev {
					return false
				}
				prev = pe
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDimsString(t *testing.T) {
	if got := DimsString(3, 0, 2); got != "101" {
		t.Errorf("DimsString = %q, want 101", got)
	}
	if got := DimsString(2, 1); got != "01" {
		t.Errorf("DimsString = %q, want 01", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range dim")
		}
	}()
	DimsString(2, 5)
}

// TestEffectiveLevelMatrix pins EffectiveLevel on every primitive at
// every requestable level against Table II, written out here rather than
// read off the shape table. Columns: Auto, Baseline, PR, IM, CM.
func TestEffectiveLevelMatrix(t *testing.T) {
	const B = Baseline
	want := map[Primitive][5]Level{
		AlltoAll:      {B, B, PR, IM, CM},
		ReduceScatter: {B, B, PR, IM, IM},
		AllReduce:     {B, B, PR, IM, IM},
		AllGather:     {B, B, PR, IM, CM},
		Scatter:       {B, B, B, IM, IM},
		Gather:        {B, B, B, IM, IM},
		Reduce:        {B, B, PR, IM, IM},
		Broadcast:     {B, B, B, B, B},
	}
	if len(want) != len(Primitives()) {
		t.Fatalf("matrix has %d rows for %d primitives", len(want), len(Primitives()))
	}
	for _, p := range Primitives() {
		for i, req := range []Level{Auto, Baseline, PR, IM, CM} {
			if got := EffectiveLevel(p, req); got != want[p][i] {
				t.Errorf("EffectiveLevel(%v, %v) = %v, want %v", p, req, got, want[p][i])
			}
		}
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	// UPMEM SDK: Sc, Ga, Br only (3 checks). SimplePIM: 5 checks.
	// PID-Comm: all 8.
	count := func(f Framework) int {
		n := 0
		for _, p := range Primitives() {
			if f.Supports(p) {
				n++
			}
		}
		return n
	}
	if count(UPMEMSDK) != 3 || count(SimplePIM) != 5 || count(PIDComm) != 8 {
		t.Errorf("support counts = %d/%d/%d, want 3/5/8",
			count(UPMEMSDK), count(SimplePIM), count(PIDComm))
	}
	if UPMEMSDK.Supports(AlltoAll) || SimplePIM.Supports(AlltoAll) {
		t.Error("only PID-Comm supports AlltoAll")
	}
	if !SimplePIM.Supports(AllReduce) || !SimplePIM.Supports(AllGather) {
		t.Error("SimplePIM supports AR and AG per Table I")
	}
	if UPMEMSDK.MultiInstance() || SimplePIM.MultiInstance() || !PIDComm.MultiInstance() {
		t.Error("multi-instance column wrong")
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	// Row check counts: PR=5, IM=7, CM=2.
	count := func(l Level) int {
		n := 0
		for _, p := range Primitives() {
			if TechniqueApplies(p, l) {
				n++
			}
		}
		return n
	}
	if count(PR) != 5 || count(IM) != 7 || count(CM) != 2 {
		t.Errorf("technique counts = PR:%d IM:%d CM:%d, want 5/7/2", count(PR), count(IM), count(CM))
	}
	if TechniqueApplies(Broadcast, PR) || TechniqueApplies(Broadcast, IM) || TechniqueApplies(Broadcast, CM) {
		t.Error("Broadcast gains no technique")
	}
}

func TestTableRenderings(t *testing.T) {
	const tableI = "Framework    Multi-Instance  Performance   AA  RS  AR  AG  Sc  Ga  Re  Br \n" +
		"UPMEM SDK    Not Supported   Not Optimized                 v   v       v  \n" +
		"SimplePIM    Not Supported   Not Optimized         v   v   v   v       v  \n" +
		"PID-Comm     Supported       Optimized     v   v   v   v   v   v   v   v  \n"
	const tableII = "Technique                  AA  RS  AR  AG  Sc  Ga  Re  Br \n" +
		"PE-assisted reordering     v   v   v   v           v      \n" +
		"In-register modulation     v   v   v   v   v   v   v      \n" +
		"Cross-domain modulation    v           v                  \n"
	if got := TableI(); got != tableI {
		t.Errorf("TableI:\n%s\nwant:\n%s", got, tableI)
	}
	if got := TableII(); got != tableII {
		t.Errorf("TableII:\n%s\nwant:\n%s", got, tableII)
	}
	var names []string
	for _, p := range Primitives() {
		names = append(names, p.String()+"="+p.LongName())
	}
	if got, want := strings.Join(names, " "), "AA=AlltoAll RS=ReduceScatter AR=AllReduce AG=AllGather "+
		"Sc=Scatter Ga=Gather Re=Reduce Br=Broadcast"; got != want {
		t.Errorf("primitive names %q, want %q", got, want)
	}
	if got := fmt.Sprint(Auto, Baseline, PR, IM, CM); got != "Auto Base +PR +IM +CM" {
		t.Errorf("level names %q", got)
	}
	// Out of range renders its number: String must not reach shapeOf,
	// whose error formats the primitive with %v.
	for _, tc := range []struct {
		v    fmt.Stringer
		want string
	}{
		{Primitive(-1), "Primitive(-1)"}, {Primitive(8), "Primitive(8)"}, {Level(-1), "Level(-1)"}, {Level(5), "Level(5)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if got := Primitive(8).LongName(); got != "Primitive(8)" {
		t.Errorf("Primitive(8).LongName() = %q", got)
	}
	if fmt.Sprint(Framework(9)) == "" {
		t.Error("unknown framework should still render")
	}
}
