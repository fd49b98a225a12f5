package appcore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/appcore"
	"repro/internal/apps/gnn"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/elem"
)

// render is a run's output digest and its profile, every float as its bits.
func render(out any, p *appcore.Profile) string {
	h := sha256.New()
	var b [8]byte
	switch v := out.(type) {
	case []int32:
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	case []int64:
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	default:
		panic(fmt.Sprintf("an app result of type %T", out))
	}
	bits := func(s cost.Seconds) string { return fmt.Sprintf("%x", math.Float64bits(float64(s))) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "out=%x kernel=%s", h.Sum(nil)[:8], bits(p.KernelTime))
	for _, prim := range core.Primitives() {
		if t, ok := p.ByPrimitive[prim]; ok {
			fmt.Fprintf(&sb, " %v=%s", prim, bits(t))
		}
	}
	sb.WriteString(" bd=")
	for i, c := range cost.Categories() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(bits(p.CommBreakdown.Get(c)))
	}
	return sb.String()
}

// goldenApps are appRuns' five apps plus the GNN at its other variant and
// narrower feature widths. an MLP whose weight rows exceed 2 KiB.
func goldenApps(lvl core.Level) map[string]func() (any, *appcore.Profile, error) {
	runs := appRuns(lvl, 1)
	gnnIn := data.GNNInput{Name: "golden", Graph: data.RMAT(256, 1024, 3), F: 16}
	runs["gnn-arag-i8"] = func() (any, *appcore.Profile, error) {
		return gnn.RunPIM(gnn.Config{Input: &gnnIn, Rows: 4, Cols: 4, Layers: 2, Elem: elem.I8, Seed: 2}, gnn.ARAG, lvl)
	}
	runs["gnn-rsar-i16"] = func() (any, *appcore.Profile, error) {
		return gnn.RunPIM(gnn.Config{Input: &gnnIn, Rows: 4, Cols: 4, Layers: 2, Elem: elem.I16, Seed: 3}, gnn.RSAR, lvl)
	}
	return runs
}

// Every app's RunPIM returns the output and the profile it always has, bit
// for bit. The PIM == CPU tests cannot see a change to code both sides
// share (DLRM's top MLP, the weight draws); this pin can. The values were
// taken before the kernels, draws and packers were restructured.
func TestAppRunsMatchGolden(t *testing.T) {
	golden := map[string]string{
		"bfs/Base":          "out=342068d4f5ce8eef kernel=3f317526b083d411 AR=3f1f1d5d29c3381f Sc=3f06fbacfa988eb8 Ga=3f1fbcd7e3e17948 Br=3f05b8a57cd8f8b8 bd=3ed2244a92d10341,3edbb34b70d20400,3ef172c417c771ef,3ef24ee21055e38d,0,0,0,3f32599ed7c6fbd3",
		"cc/Base":           "out=2a11bd9fb8018106 kernel=3f354d57ddd6b06e AR=3f305aad3814faae Sc=3f043b8d35c9fd51 Ga=3f1fa17faa876eaa Br=3efaf835288fe726 bd=3ef079a86b213ec7,3f0b7635f126cf3e,3f064e96a908d438,3f10beea0b211b59,0,0,0,3f310a137f38c544",
		"dlrm/Base":         "out=75caebc7b0ecd5e5 kernel=3f37ae4266f9b26a AA=3f22e8f202bd6c51 RS=3f1dffd32549298a Sc=3f19fbb156a1c83c Ga=3f05d37753b3bde2 Br=3ef5ea2919c6d6c2 bd=3ef75c06b092ceef,3f1043f2f854874c,3f11aa99be79f028,3f173c879abe87ba,0,0,0,3f2797cc39ffd60f",
		"gnn/Base":          "out=24675aa3a978eb9c kernel=3f2abfb036f069c4 RS=3f1616e8fdca7b96 AR=3f1a2aaec0219117 Sc=3f03af690fdc86e6 Ga=3ef863bcb424bcb3 Br=3f068251aac104e7 bd=3ee7451ea0b29b26,3f056bace815460d,3f00b411c6d0293b,3f0712ec15e849ac,0,0,0,3f24f8b588e368f1",
		"gnn-arag-i8/Base":  "out=ed7c1ae297b644a2 kernel=3f29edc5756ffee7 AR=3f0ccfdf86bb5740 AG=3f084a2880483e9c Sc=3efd1dbc9df51286 Ga=3ef5d37753b3bde2 Br=3f055b1c915acfee bd=3eca3d542f9351bd,3ed6f8b8a5ee1cfa,3ee444520bddd124,3ee9db9e4bdaf4d9,0,0,0,3f24f8b588e368f1",
		"gnn-rsar-i16/Base": "out=d25681f788325bc4 kernel=3f2a0920b7af1dc4 RS=3f1049a1e11e1807 AR=3f125384c249a2c8 Sc=3f004461e49b3324 Ga=3ef6ae391e8412d2 Br=3f05bd8399d236ec bd=3ed84285d052d804,3ef56bace815460d,3ef1e427332a0bde,3ef8007cd28e82ba,0,0,0,3f24f8b588e368f1",
		"mlp/Base":          "out=270676f550c42df3 kernel=3f36abdcdf11d511 RS=3f27977c43178ae1 Sc=3f2c6d1b338a4338 Ga=3f052f65fb977e2d bd=3ef5b2d309e10dac,3eff3c72bd5de33c,3f176177678b41a2,3f1457a5d942fcd6,0,0,0,3f2cd5f99c38b04b",
		"bfs/+CM":           "out=342068d4f5ce8eef kernel=3f317526b083d411 AR=3f34ae0626e48fdd Sc=3f044753b459a4bc Ga=3f1faacdf0fa83b4 Br=3f05b8a57cd8f8b8 bd=3ec5f78b3981a907,3ec048fb4964d0bd,3eda5c40ab686474,3ef24ee21055e38d,3ee1190967734a24,0,0,3f3f75104d551d69",
		"cc/+CM":            "out=2a11bd9fb8018106 kernel=3f354d57ddd6b06e AR=3f3c462676ac2940 Sc=3f021f942a378df2 Ga=3f1f9654ef96ef05 Br=3efaf835288fe726 bd=3ee314cf398322fe,3ee304958399a8fc,3ed4b924c33ba60b,3f10beea0b211b59,3f11190967734a24,0,0,3f3e2584f4c6e6da",
		"dlrm/+CM":          "out=75caebc7b0ecd5e5 kernel=3f37ae4266f9b26a AA=3f35961bd039b8a8 RS=3f24870ba8ceddee Sc=3f171cf3c3883778 Ga=3f059c7d94000e66 Br=3ef530ad571e4f36 bd=3eed8a0178fec74a,3ee15bdc07e73e26,3eeda9808ed30e7d,3f173c879abe87ba,3f21190967734a24,0,0,3f38e757928e0c9e",
		"gnn/+CM":           "out=24675aa3a978eb9c kernel=3f2abfb036f069c4 RS=3f20542564f85fec AR=3f2a1df88184f6be Sc=3f01b1c3ca5ffe38 Ga=3ef787d5b555fec6 Br=3f068251aac104e7 bd=3ee2f99ba6a8e580,3eda6e01514fbfc7,3ed65c5518f5c016,3f0712ec15e849ac,3f148471af5725c5,0,0,3f32599ed7c6fbd3",
		"gnn-arag-i8/+CM":   "out=ed7c1ae297b644a2 kernel=3f29edc5756ffee7 AR=3f2236c22988e7fc AG=3f17946ea196096c Sc=3efb5a86cfe76bd0 Ga=3ef59c7d94000e66 Br=3f055b1c915acfee bd=3eae831d25a4fa71,3eb6aecbb8834750,3ec24eab16962fde,3ee9db9e4bdaf4d9,3ef48471af5725c5,0,0,3f32599ed7c6fbd3",
		"gnn-rsar-i16/+CM":  "out=d25681f788325bc4 kernel=3f2a0920b7af1dc4 RS=3f1ad080296a1465 AR=3f24ec405417c2b9 Sc=3efe0831bc2f9c06 Ga=3ef640459f1cb3db Br=3f05bd8399d236ec bd=3ed3f702d649225e,3ecb16f0c6653db0,3ecb1caaca5d4aa1,3ef8007cd28e82ba,3f048471af5725c5,0,0,3f32599ed7c6fbd3",
		"mlp/+CM":           "out=270676f550c42df3 kernel=3f36abdcdf11d511 RS=3f328cb1a29d3b83 Sc=3f27f9fc48b7895c Ga=3f0521a78baa924e bd=3ef5b2d309e10dac,3ee2a42f961f79b9,3f04b924c33ba608,3f1457a5d942fcd5,3ef48471af5725c5,0,0,3f364840e1719f80",
	}
	for _, lvl := range []core.Level{core.Baseline, core.CM} {
		runs := goldenApps(lvl)
		for _, app := range slices.Sorted(maps.Keys(runs)) {
			out, prof, err := runs[app]()
			if err != nil {
				t.Fatalf("%s/%v: %v", app, lvl, err)
			}
			key := fmt.Sprintf("%s/%v", app, lvl)
			if got := render(out, prof); got != golden[key] {
				t.Errorf("%s:\n got %s\nwant %s", key, got, golden[key])
			}
		}
	}
}
