package lpa

import (
	"math"
	"slices"
	"testing"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// propagateAllRounds is the round loop propagate replaced, kept verbatim as
// its reference: every round walks the full adjacency, and nothing but the αt
// test ends the loop before βt.
func propagateAllRounds(c *graph.CSR, comp, order []int32, threshold float64, opts Options, labels []int32) int {
	for _, u := range comp {
		labels[u] = -1
	}
	nextLabel := int32(0)
	total := len(comp)
	rounds := 0
	for round := 0; round < opts.MaxRounds; round++ {
		updates := 0
		for _, u := range order {
			lu := labels[u]
			if lu < 0 {
				lu = nextLabel
				nextLabel++
				labels[u] = lu
				updates++
			}
			tgt, w := c.Adj(u)
			for k, v := range tgt {
				lv := labels[v]
				if w[k] > threshold {
					if lv != lu {
						labels[v] = lu
						updates++
					}
				} else if lv < 0 {
					labels[v] = nextLabel
					nextLabel++
					updates++
				}
			}
		}
		rounds = round + 1
		if float64(updates)/float64(total) <= opts.MinUpdateRate {
			break
		}
	}
	return rounds
}

// compressAllRounds is compressBlock over the reference loop.
func compressAllRounds(c *graph.CSR, comp []int32, opts Options, s *compressScratch) *Block {
	threshold, order := s.prepare(c, comp, opts)
	rounds := propagateAllRounds(c, comp, order, threshold, opts, s.clusterOf)
	b := s.contract(c, comp)
	b.Rounds, b.Threshold = rounds, threshold
	return b
}

// compressCSRWith is a serial cold CompressCSR whose per-component step is
// compress, on scratch s (nil: a fresh one).
func compressCSRWith(t testing.TB, c *graph.CSR, opts Options, s *compressScratch,
	compress func(*graph.CSR, []int32, Options, *compressScratch) *Block) *CSRResult {
	t.Helper()
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	if s == nil {
		s = new(compressScratch)
	}
	comps := c.Components()
	blocks := make([]*Block, len(comps))
	s.ensure(c.NumNodes())
	for i, comp := range comps {
		blocks[i] = compress(c, comp, opts, s)
	}
	return flatten(c, opts, blocks)
}

// tableIGraph is Table I's largest row, n=5000.
func tableIGraph(t testing.TB, seed int64) *graph.Graph { return tableIRowGraph(t, 4, seed) }

func tableIRowGraph(t testing.TB, row int, seed int64) *graph.Graph {
	t.Helper()
	cfg, err := netgen.TableIConfig(row, seed)
	if err != nil {
		t.Fatal(err)
	}
	return generate(t, cfg)
}

// sparseGraph is the sparse n=2100 shape whose compressed components
// straddle the eigensolver's dense cutoff.
func sparseGraph(t testing.TB, seed int64) *graph.Graph {
	return generate(t, netgen.Config{Nodes: 2100, Edges: 10080, Components: 6, Seed: seed})
}

func generate(t testing.TB, cfg netgen.Config) *graph.Graph {
	t.Helper()
	g, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPropagateCyclePeriods pins the finding the early stop rests on: the
// label vector of a Table I component enters a cycle within a few rounds,
// usually of period 1. The four components below are the ones the
// equivalence test leans on for periods 1, 2, 3 and 5.
func TestPropagateCyclePeriods(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		comp   int
		period int
	}{{1, 0, 1}, {1, 2, 2}, {1, 5, 3}, {2, 2, 5}} {
		c := tableIGraph(t, tc.seed).Compile()
		comp := c.Components()[tc.comp]
		s := new(compressScratch)
		s.ensure(c.NumNodes())
		threshold, order := s.prepare(c, comp, Options{})
		const last = 20
		after := make([][]int32, last+1)
		for r := 1; r <= last; r++ {
			labels := make([]int32, c.NumNodes())
			propagateAllRounds(c, comp, order, threshold, Options{MaxRounds: r}, labels)
			after[r] = labels
		}
		period := 1
		for !slices.Equal(after[last], after[last-period]) {
			period++
		}
		if period != tc.period {
			t.Errorf("seed %d component %d: label vector cycles with period %d, want %d",
				tc.seed, tc.comp, period, tc.period)
		}
	}
}

// TestCompressMatchesAllRoundsReference holds the packed-schedule loop with
// its fixed-point stop to the loop it replaced: Labels, SuperOf, Rounds,
// Thresholds and every contracted array, bit for bit.
func TestCompressMatchesAllRoundsReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		// Components cycling with period 1, 2 and 3 (seed 1) and 5 (seed 2).
		{"table1 seed 1", tableIGraph(t, 1)},
		{"table1 seed 2", tableIGraph(t, 2)},
		// α settles near 0.7–0.85 here, so a rate in that band trips mid-run.
		{"n=100", func() *graph.Graph {
			g, err := netgen.Generate(netgen.Config{Nodes: 100, Edges: 400, Components: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}()},
		// NaN compares light and +Inf heavy under any threshold; the 1.5 edges
		// sit exactly on the explicit-threshold row's threshold (light).
		{"NaN, +Inf and on-threshold weights", build(t, 9, []graph.Edge{
			{U: 0, V: 1, Weight: nan}, {U: 1, V: 2, Weight: inf}, {U: 2, V: 3, Weight: 1.5},
			{U: 3, V: 4, Weight: 1.5}, {U: 4, V: 5, Weight: 3}, {U: 5, V: 0, Weight: 1},
			{U: 1, V: 4, Weight: 2}, {U: 0, V: 3, Weight: inf}, {U: 2, V: 5, Weight: 0.5},
			// Node 6 is a single-node component; 7–8 an all-light one.
			{U: 7, V: 8, Weight: 1},
		})},
		{"all-light path", build(t, 6, []graph.Edge{
			{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1},
			{U: 3, V: 4, Weight: 1}, {U: 4, V: 5, Weight: 1},
		})},
	}
	options := []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"max rounds 1", Options{MaxRounds: 1}},
		{"max rounds 2", Options{MaxRounds: 2}},
		{"max rounds 3", Options{MaxRounds: 3}},
		{"min update rate 1", Options{MinUpdateRate: 1}},
		{"min update rate 0.73", Options{MinUpdateRate: 0.73}},
		{"explicit threshold", Options{WeightThreshold: 1.5}},
		{"workers 4", Options{Workers: 4}},
	}
	for _, gr := range graphs {
		c := gr.g.Compile()
		for _, o := range options {
			opts := o.opts
			if opts.Workers == 0 {
				opts.Workers = 1
			}
			got, err := CompressCSR(c, opts)
			if err != nil {
				t.Fatalf("%s / %s: %v", gr.name, o.name, err)
			}
			want := compressCSRWith(t, c, opts, nil, compressAllRounds)
			if !csrResultsIdentical(t, got, want) {
				t.Errorf("%s / %s: compression differs from the all-rounds reference", gr.name, o.name)
			}
		}
	}

	// The option rows above must reach the exits they are named for.
	rounds := func(g *graph.Graph, opts Options) []int {
		opts.Workers = 1
		cr, err := CompressCSR(g.Compile(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return cr.Rounds
	}
	if r := rounds(graphs[4].g, Options{MinUpdateRate: 1}); !slices.Equal(r, []int{1}) {
		t.Errorf("all-light path at αt = 1: rounds %v, want exit after round 1", r)
	}
	if r := rounds(graphs[2].g, Options{MinUpdateRate: 0.73}); r[0] <= 1 || r[0] >= 20 {
		t.Errorf("n=100 at αt = 0.73: rounds %v, want component 0 to trip mid-run", r)
	}
	if r := rounds(graphs[0].g, Options{}); slices.Min(r) != 20 {
		t.Errorf("table1 seed 1: rounds %v, want βt = 20 on every component", r)
	}
}

// TestScratchEpochWrap seeds the pooled epoch counter just below the int32
// limit over a mark array holding what a wrapped counter would count up
// from, and holds the compression to a fresh scratch's.
func TestScratchEpochWrap(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 120, Edges: 300, Components: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Compile()
	want := compressCSRWith(t, c, Options{}, nil, compressBlock)

	s := new(compressScratch)
	s.ensure(c.NumNodes())
	for i := range s.seen {
		s.seen[i] = math.MinInt32 + int32(i%4)
	}
	s.epoch = math.MaxInt32 - 1
	got := compressCSRWith(t, c, Options{}, s, compressBlock)
	if !csrResultsIdentical(t, got, want) {
		t.Error("compression on a scratch whose epoch wrapped differs from a fresh scratch's")
	}
	if s.epoch <= 0 {
		t.Errorf("epoch after the wrap: %d; want restarted positive", s.epoch)
	}
}

// BenchmarkLPARoundsSpeedup times the component compression of a Table I
// n=5000 graph over the packed-schedule loop against the same compression
// over the all-rounds reference loop, interleaved in one process, and
// reports the ratio. scripts/perf_gate.sh holds a floor under it.
func BenchmarkLPARoundsSpeedup(b *testing.B) {
	c := tableIGraph(b, 1).Compile()
	s := new(compressScratch)
	var newT, refT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		compressCSRWith(b, c, Options{}, s, compressBlock)
		t1 := time.Now()
		compressCSRWith(b, c, Options{}, s, compressAllRounds)
		newT += t1.Sub(t0)
		refT += time.Since(t1)
	}
	b.ReportMetric(float64(refT)/float64(newT), "speedup_x")
	b.ReportMetric(float64(newT.Nanoseconds())/float64(b.N), "new_ns")
	b.ReportMetric(float64(refT.Nanoseconds())/float64(b.N), "ref_ns")
}
