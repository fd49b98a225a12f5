package host

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
)

func testHost(t *testing.T) *Host {
	t.Helper()
	sys, err := dram.NewSystem(dram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 2, MramPerBank: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return New(sys, cost.DefaultParams())
}

// inEpoch runs fn on the host's first shard inside one transfer epoch,
// merging its tallies before the epoch closes.
func inEpoch(h *Host, fn func(sh *Shard)) {
	h.BeginXfer()
	fn(h.Shards(1)[0])
	h.MergeShards()
	h.EndXfer()
}

// A shard tally outside a transfer epoch panics: the column stream books
// a run's bursts before it moves the run, so a run outside an epoch moves
// nothing.
func TestBurstOutsideEpochPanics(t *testing.T) {
	h := testHost(t)
	sh := h.Shards(1)[0]
	defer func() {
		if recover() == nil {
			t.Fatal("a shard tally outside an epoch did not panic")
		}
	}()
	sh.TallyBursts(0, 1)
}

func TestEndXferWithoutBeginPanics(t *testing.T) {
	h := testHost(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.EndXfer()
}

func TestChannelsTransferInParallel(t *testing.T) {
	h := testHost(t)
	geo := h.System().Geometry()
	groupsPerChannel := geo.NumGroups() / geo.Channels

	// Same byte volume: all on channel 0 vs spread over both channels.
	timeFor := func(groups []int) cost.Seconds {
		hh := New(h.System(), h.Params())
		hh.BeginXfer()
		for _, g := range groups {
			hh.TallyBursts(g, 2)
		}
		hh.EndXfer()
		return hh.Meter().Get(cost.PEMem)
	}
	sameChannel := timeFor([]int{0, 1, 2, 3})                              // all channel 0
	spread := timeFor([]int{0, 1, groupsPerChannel, groupsPerChannel + 1}) // 2+2
	if math.Abs(float64(sameChannel)/float64(spread)-2.0) > 1e-9 {
		t.Errorf("same-channel %v vs spread %v: want 2x", sameChannel, spread)
	}
}

func TestRankParallelAblation(t *testing.T) {
	h := testHost(t)
	p := h.Params()
	p.RankParallel = false
	slow := New(h.System(), p)

	run := func(hh *Host) cost.Seconds {
		hh.BeginXfer()
		hh.TallyBursts(0, 1)
		hh.EndXfer()
		return hh.Meter().Get(cost.PEMem)
	}
	if fast, s := run(h), run(slow); s <= fast {
		t.Errorf("serialized ranks (%v) should be slower than parallel (%v)", s, fast)
	}
}

func TestNestedEpochsChargeOnce(t *testing.T) {
	h := testHost(t)
	h.BeginXfer()
	h.BeginXfer()
	h.TallyBursts(0, 1)
	h.EndXfer()
	mid := h.Meter().Get(cost.PEMem)
	if mid != 0 {
		t.Error("inner EndXfer charged early")
	}
	h.EndXfer()
	if h.Meter().Get(cost.PEMem) <= 0 {
		t.Error("outer EndXfer did not charge")
	}
}

func TestDomainTransferIsInvolution(t *testing.T) {
	h := testHost(t)
	buf := make([]byte, 256)
	rng := rand.New(rand.NewSource(3))
	rng.Read(buf)
	orig := append([]byte(nil), buf...)
	h.DomainTransfer(buf)
	if bytes.Equal(buf, orig) {
		t.Error("DT did not change buffer")
	}
	h.DomainTransfer(buf)
	if !bytes.Equal(buf, orig) {
		t.Error("DT twice != identity")
	}
	if h.Meter().Get(cost.DomainTransfer) <= 0 {
		t.Error("DT not charged")
	}
}

func TestDomainTransferAlignmentPanics(t *testing.T) {
	h := testHost(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.DomainTransfer(make([]byte, 100))
}

// The critical domain-transfer semantics (§ II-B): writing a domain-
// transferred host buffer as bursts puts each full 8-byte element into a
// single bank.
func TestDTThenWritePlacesElementsInBanks(t *testing.T) {
	h := testHost(t)
	// Host-domain data: 8 elements of 8 bytes; element e = [e0 e1 ... e7]
	// with value byte e in all positions, distinguishable per element.
	hostData := make([]byte, 64)
	for e := 0; e < 8; e++ {
		for b := 0; b < 8; b++ {
			hostData[8*e+b] = byte(16*e + b)
		}
	}
	dt := append([]byte(nil), hostData...)
	h.DomainTransfer(dt)
	h.System().WriteBurst(0, 0, (*[dram.BurstBytes]byte)(dt))
	// Bank c must now hold element c contiguously.
	for c := 0; c < dram.ChipsPerRank; c++ {
		bank := h.System().BankBytes(0*dram.ChipsPerRank + c)[:8]
		want := hostData[8*c : 8*c+8]
		if !bytes.Equal(bank, want) {
			t.Fatalf("bank %d holds %v, want element %d = %v", c, bank, c, want)
		}
	}
}

func TestBulkReadWriteRoundTrip(t *testing.T) {
	h := testHost(t)
	groups := []int{0, 3}
	perPE := 64
	data := make([]byte, len(groups)*dram.ChipsPerRank*perPE)
	rng := rand.New(rand.NewSource(11))
	rng.Read(data)

	h.BulkWrite(groups, 128, data)
	got := h.BulkRead(groups, 128, perPE)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk round trip mismatch")
	}
	// All cost categories of the conventional path must be charged.
	for _, c := range []cost.Category{cost.PEMem, cost.DomainTransfer, cost.HostMem} {
		if h.Meter().Get(c) <= 0 {
			t.Errorf("category %v not charged", c)
		}
	}
}

func TestBulkWritePerPELayout(t *testing.T) {
	h := testHost(t)
	perPE := 8
	n := dram.ChipsPerRank
	data := make([]byte, n*perPE)
	for pe := 0; pe < n; pe++ {
		for i := 0; i < perPE; i++ {
			data[pe*perPE+i] = byte(pe*10 + i)
		}
	}
	h.BulkWrite([]int{0}, 0, data)
	// PE c (chip c of group 0) must hold its own 8 bytes contiguously.
	for c := 0; c < n; c++ {
		bank := h.System().BankBytes(c)[:perPE]
		if !bytes.Equal(bank, data[c*perPE:(c+1)*perPE]) {
			t.Fatalf("PE %d holds %v, want %v", c, bank, data[c*perPE:(c+1)*perPE])
		}
	}
}

func TestBulkAlignmentPanics(t *testing.T) {
	h := testHost(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.BulkRead([]int{0}, 0, 12)
}

// A bulk transfer checks each group's span before it moves a byte: a
// misaligned offset, a span past MRAM and a phantom system all panic
// with dram's message, with MRAM untouched.
func TestBulkSpanPanics(t *testing.T) {
	geo := dram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 2, MramPerBank: 2048}
	for _, tc := range []struct {
		name    string
		phantom bool
		off     int
	}{
		{"misaligned offset", false, 4},
		{"span past MRAM", false, 2048 - 64},
		{"negative offset", false, -8},
		{"phantom system", true, 0},
	} {
		for _, read := range []bool{true, false} {
			sys, _ := dram.NewSystem(geo)
			if tc.phantom {
				sys, _ = dram.NewPhantomSystem(geo)
			}
			h := New(sys, cost.DefaultParams())
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "dram: ") {
						t.Errorf("%s (read %v): want a dram panic, got %q", tc.name, read, msg)
					}
				}()
				if read {
					h.BulkRead([]int{0, 1}, tc.off, 128)
				} else {
					h.BulkWrite([]int{0, 1}, tc.off, bytes.Repeat([]byte{0xFF}, 2*dram.ChipsPerRank*128))
				}
			}()
			for pe := 0; !tc.phantom && pe < geo.NumPEs(); pe++ {
				if !bytes.Equal(sys.BankBytes(pe), make([]byte, geo.MramPerBank)) {
					t.Fatalf("%s: PE %d written by a refused bulk write", tc.name, pe)
				}
			}
		}
	}
}

// Every Work adds exactly one meter entry, in its category, equal bit for
// bit to the formula of the Params field it names — with the DSA what-if
// off and on. The fields hold distinct defaults, so a row of the table
// that points at the wrong one fails here.
func TestChargeHelpers(t *testing.T) {
	type rec struct {
		cat cost.Category
		t   cost.Seconds
	}
	rows := []struct {
		w     Work
		cat   cost.Category
		field func(cost.Params) float64
	}{
		{DT, cost.DomainTransfer, func(p cost.Params) float64 { return p.DTBPC }},
		{ScalarMod, cost.HostMod, func(p cost.Params) float64 { return p.ScalarModBPC }},
		{LocalMod, cost.HostMod, func(p cost.Params) float64 { return p.LocalModBPC }},
		{SIMD, cost.HostMod, func(p cost.Params) float64 { return p.SIMDModBPC }},
		{Reduce, cost.HostMod, func(p cost.Params) float64 { return p.ReduceBPC }},
		{ScalarReduce, cost.HostMod, func(p cost.Params) float64 { return p.ScalarRedBPC }},
		{LocalReduce, cost.HostMod, func(p cost.Params) float64 { return p.LocalRedBPC }},
		{HostMem, cost.HostMem, nil}, // bytes/second, not bytes/cycle
	}
	if len(rows) != len(works) {
		t.Fatalf("%d rows for %d kinds of host work", len(rows), len(works))
	}
	seen := map[float64]Work{}
	for _, r := range rows {
		if r.field == nil {
			continue
		}
		v := r.field(cost.DefaultParams())
		if w, dup := seen[v]; dup {
			t.Fatalf("%v and %v read equal defaults (%v): the table test cannot tell them apart", w, r.w, v)
		}
		seen[v] = r.w
	}
	const n = 1000
	for _, dsa := range []bool{false, true} {
		p := cost.DefaultParams()
		p.DSAOffload = dsa
		factor := 1.0
		if dsa {
			factor = p.DSAFactor
		}
		for _, r := range rows {
			h := testHost(t)
			h.params = p
			var got []rec
			h.Meter().SetRecorder(func(c cost.Category, s cost.Seconds) { got = append(got, rec{c, s}) })
			h.Charge(r.w, n)
			want := rec{r.cat, cost.Seconds(float64(n) / p.HostMemBW)}
			if r.field != nil {
				want.t = p.HostBytesAt(n, r.field(p)*factor)
			}
			if len(got) != 1 || got[0] != want {
				t.Errorf("DSA %v: Charge(%v, %d) added %v, want one entry %v", dsa, r.w, n, got, want)
			}
			if e := h.Price(r.w, n); e != (cost.TraceEntry{Cat: want.cat, N: 1, T: want.t}) {
				t.Errorf("DSA %v: Price(%v, %d) = %v, want %v once", dsa, r.w, n, e, want)
			}
		}
	}
	h := testHost(t)
	h.ChargeSync()
	if got, want := h.Meter().Get(cost.Other), h.Params().KernelLaunch; got != want {
		t.Errorf("ChargeSync charged %v to Other, want %v", got, want)
	}
	// Scalar modulation must be slower than local, which is slower than SIMD.
	p := h.Params()
	if !(p.ScalarModBPC < p.LocalModBPC && p.LocalModBPC < p.SIMDModBPC) {
		t.Error("modulation throughput ordering violated in defaults")
	}
}

// HostMem is priced at main-memory bandwidth in bytes/second: 1000 B at
// 500 B/s is 2 s, to the bit, through Price and through Charge.
func TestPriceHostMem(t *testing.T) {
	h := testHost(t)
	h.params.HostMemBW = 500
	if e := h.Price(HostMem, 1000); e != (cost.TraceEntry{Cat: cost.HostMem, N: 1, T: 2}) {
		t.Errorf("Price(HostMem, 1000) at 500 B/s = %v, want 2 s of HostMem", e)
	}
	h.Charge(HostMem, 1000)
	if got := h.Meter().Get(cost.HostMem); got != 2 {
		t.Errorf("Charge(HostMem, 1000) at 500 B/s added %v, want 2 s", got)
	}
}

// Pricing HostMem at zero bandwidth panics rather than charge +Inf.
func TestPriceHostMemBadBW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero bandwidth")
		}
	}()
	h := testHost(t)
	h.params.HostMemBW = 0
	h.Price(HostMem, 1)
}

// The functional bulk transfers over every group and their cost-only
// twins, which always cover the whole machine, charge the same meter
// entries in the same order and count the same traffic, at one worker
// and at several.
func TestBulkMatchesChargeBulk(t *testing.T) {
	geo := dram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 2, MramPerBank: 2048}
	groups := []int{5, 0, 3, 6, 1, 7, 2, 4}
	const off, perPE = 256, 128
	type rec struct {
		cat cost.Category
		t   cost.Seconds
	}
	recorded := func(h *Host) *[]rec {
		var got []rec
		h.Meter().SetRecorder(func(c cost.Category, s cost.Seconds) { got = append(got, rec{c, s}) })
		return &got
	}
	data := make([]byte, len(groups)*dram.ChipsPerRank*perPE)
	rand.New(rand.NewSource(5)).Read(data)
	for _, workers := range []int{1, 4} {
		sys, err := dram.NewSystem(geo)
		if err != nil {
			t.Fatal(err)
		}
		phantom, err := dram.NewPhantomSystem(geo)
		if err != nil {
			t.Fatal(err)
		}
		fn, cf := New(sys, cost.DefaultParams()), New(phantom, cost.DefaultParams())
		fn.SetWorkers(workers)
		for _, op := range []struct {
			name        string
			move, tally func()
		}{
			{"BulkWrite", func() { fn.BulkWrite(groups, off, data) }, func() { cf.ChargeBulkWrite(perPE) }},
			{"BulkRead", func() { fn.BulkRead(groups, off, perPE) }, func() { cf.ChargeBulkRead(perPE) }},
		} {
			gotFn, gotCf := recorded(fn), recorded(cf)
			fn.ResetStats()
			cf.ResetStats()
			op.move()
			op.tally()
			if !slices.Equal(*gotFn, *gotCf) {
				t.Errorf("%d workers: %s charged %v, its cost-only twin %v", workers, op.name, *gotFn, *gotCf)
			}
			if len(*gotFn) != 3 {
				t.Errorf("%d workers: %s charged %d entries, want 3 (bus, DT, staging)", workers, op.name, len(*gotFn))
			}
			if a, b := fn.Stats(), cf.Stats(); a.Bursts != b.Bursts || !slices.Equal(a.BytesPerChannel, b.BytesPerChannel) {
				t.Errorf("%d workers: %s counted %+v, its cost-only twin %+v", workers, op.name, a, b)
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := testHost(t)
	if h.Stats().TotalBytes() != 0 || h.Stats().Bursts != 0 {
		t.Error("fresh host has traffic")
	}
	inEpoch(h, func(sh *Shard) {
		sh.TallyBursts(0, 2)
		sh.TallyBursts(0, 1)
	})
	st := h.Stats()
	if st.Bursts != 3 {
		t.Errorf("bursts = %d, want 3", st.Bursts)
	}
	if st.TotalBytes() != 3*dram.BurstBytes {
		t.Errorf("bytes = %d, want %d", st.TotalBytes(), 3*dram.BurstBytes)
	}
	// Stats snapshots are independent copies.
	st.BytesPerChannel[0] = 999
	if h.Stats().BytesPerChannel[0] == 999 {
		t.Error("Stats exposed internal slice")
	}
}

// The optimized AlltoAll engine must move exactly what it claims: a
// traffic-accounting cross-check at the transfer layer.
func TestStatsMatchExpectedTraffic(t *testing.T) {
	h := testHost(t)
	perPE := 128
	groups := []int{0, 1}
	data := make([]byte, len(groups)*dram.ChipsPerRank*perPE)
	h.BulkWrite(groups, 0, data)
	want := int64(len(data))
	if got := h.Stats().TotalBytes(); got != want {
		t.Errorf("bulk write moved %d bytes, want %d", got, want)
	}
}

// A whole-machine tally books what a TallyBursts loop over every group
// books, on the host or on a shard: the same Stats, the same per-channel
// epoch bytes and the same float bits of EndXfer's PEMem charge, inside
// nested epochs, on the paper's four channels and on one.
func TestTallyAllGroupsMatchesPerGroupLoop(t *testing.T) {
	counts := []int64{3, 0, 1024, 1}
	for _, geo := range []dram.Geometry{
		dram.PaperGeometry(1 << 20),
		{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 2048},
	} {
		sys, err := dram.NewPhantomSystem(geo)
		if err != nil {
			t.Fatal(err)
		}
		type booked struct {
			stats XferStats
			epoch []int64
			pemem uint64
		}
		run := func(tally func(h *Host, count int64)) booked {
			h := New(sys, cost.DefaultParams())
			h.BeginXfer()
			h.BeginXfer()
			for _, n := range counts {
				tally(h, n)
			}
			h.MergeShards()
			h.EndXfer()
			epoch := slices.Clone(h.chanBytes)
			h.EndXfer()
			return booked{h.Stats(), epoch, math.Float64bits(float64(h.Meter().Get(cost.PEMem)))}
		}
		want := run(func(h *Host, n int64) {
			for g := range geo.NumGroups() {
				h.TallyBursts(g, n)
			}
		})
		for _, c := range []struct {
			name  string
			tally func(h *Host, count int64)
		}{
			{"Host.TallyAllGroups", (*Host).TallyAllGroups},
			{"Shard.TallyBursts loop", func(h *Host, n int64) {
				for g := range geo.NumGroups() {
					h.Shards(1)[0].TallyBursts(g, n)
				}
			}},
		} {
			got := run(c.tally)
			if got.stats.Bursts != want.stats.Bursts || !slices.Equal(got.stats.BytesPerChannel, want.stats.BytesPerChannel) ||
				!slices.Equal(got.epoch, want.epoch) || got.pemem != want.pemem {
				t.Errorf("%d channels: %s booked %+v, the per-group loop %+v", geo.Channels, c.name, got, want)
			}
		}
	}
}
