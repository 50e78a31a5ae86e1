package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

// Small sizes keep the unit tests quick; the full paper scales run in the
// benchmarks and cmd/experiments.
var (
	testSizes = []int{60, 120}
	testUsers = []int{5, 20}
)

func TestTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("table I runs the 5000-node compression")
	}
	rows, err := TableI(context.Background(), 7)
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	wantNodes := []int{250, 500, 1000, 2000, 5000}
	for i, r := range rows {
		if r.Nodes != wantNodes[i] {
			t.Errorf("row %d nodes = %d, want %d", i, r.Nodes, wantNodes[i])
		}
		if r.NodesAfter >= r.Nodes {
			t.Errorf("row %d: no compression (%d → %d)", i, r.Nodes, r.NodesAfter)
		}
		if r.NodeReduction <= 0 || r.NodeReduction >= 1 {
			t.Errorf("row %d reduction = %v", i, r.NodeReduction)
		}
	}
	// The paper's trend: the reduction grows with graph size.
	if rows[4].NodeReduction <= rows[0].NodeReduction {
		t.Errorf("reduction not growing: %v → %v", rows[0].NodeReduction, rows[4].NodeReduction)
	}
	text := RenderTableI(rows)
	if !strings.Contains(text, "Network1") || !strings.Contains(text, "5000") {
		t.Errorf("render missing content:\n%s", text)
	}
	// The committed table (cmd/experiments at its default seed 7) is the
	// golden: compression counts are exact, so the CSV is byte-stable.
	var csv bytes.Buffer
	if err := WriteTableICSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../results/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), golden) {
		t.Errorf("table I CSV differs from results/table1.csv:\n%s", csv.Bytes())
	}
}

func TestSingleUserEnergySmall(t *testing.T) {
	res, err := SingleUserEnergy(context.Background(), 3, testSizes)
	if err != nil {
		t.Fatalf("SingleUserEnergy: %v", err)
	}
	if len(res.Engines) != 3 {
		t.Fatalf("engines = %v", res.Engines)
	}
	for _, eng := range res.Engines {
		cells := res.Cells[eng]
		if len(cells) != len(testSizes) {
			t.Fatalf("%s cells = %d, want %d", eng, len(cells), len(testSizes))
		}
		for i, c := range cells {
			if c.Local < 0 || c.Transmission < 0 || c.Total < c.Local {
				t.Errorf("%s@%d bad cell %+v", eng, testSizes[i], c)
			}
			// Total = local + transmission by construction.
			if diff := c.Total - c.Local - c.Transmission; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s@%d total mismatch: %+v", eng, testSizes[i], c)
			}
		}
	}
	// Normalisation: max across everything is exactly 1.
	for _, m := range []Metric{LocalEnergy, TransmissionEnergy, TotalEnergy} {
		norm := res.Normalized(m)
		var maxV float64
		for _, vals := range norm {
			for _, v := range vals {
				if v < 0 || v > 1+1e-12 {
					t.Errorf("metric %v: normalized value %v outside [0,1]", m, v)
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		if maxV < 1-1e-12 && maxV > 0 {
			t.Errorf("metric %v: max normalized = %v, want 1", m, maxV)
		}
	}
}

func TestMultiUserEnergySmall(t *testing.T) {
	res, err := MultiUserEnergy(context.Background(), 5, testUsers, 80)
	if err != nil {
		t.Fatalf("MultiUserEnergy: %v", err)
	}
	if res.XLabel != "user size" {
		t.Errorf("XLabel = %q", res.XLabel)
	}
	for _, eng := range res.Engines {
		if len(res.Cells[eng]) != len(testUsers) {
			t.Fatalf("%s cells = %d", eng, len(res.Cells[eng]))
		}
		// Total energy grows with the user count for every engine.
		cells := res.Cells[eng]
		for i := 1; i < len(cells); i++ {
			if cells[i].Total < cells[i-1].Total {
				t.Errorf("%s: total energy shrank from %v to %v as users grew",
					eng, cells[i-1].Total, cells[i].Total)
			}
		}
	}
	text := RenderEnergy(res, TotalEnergy)
	if !strings.Contains(text, "user size") {
		t.Errorf("render missing label:\n%s", text)
	}
}

func TestRuntimeSmall(t *testing.T) {
	res, err := Runtime(context.Background(), 11, testSizes)
	if err != nil {
		t.Fatalf("Runtime: %v", err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %v", res.Series)
	}
	for _, s := range res.Series {
		vals := res.Seconds[s]
		if len(vals) != len(testSizes) {
			t.Fatalf("%s values = %d", s, len(vals))
		}
		for _, v := range vals {
			if v <= 0 {
				t.Errorf("%s nonpositive runtime %v", s, v)
			}
		}
	}
	text := RenderRuntime(res)
	if !strings.Contains(text, SeriesSpectralParallel) {
		t.Errorf("render missing series:\n%s", text)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := SingleUserEnergy(context.Background(), 1, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty sizes error = %v", err)
	}
	if _, err := MultiUserEnergy(context.Background(), 1, nil, 100); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty users error = %v", err)
	}
	if _, err := MultiUserEnergy(context.Background(), 1, []int{3}, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero graph size error = %v", err)
	}
	if _, err := Runtime(context.Background(), 1, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty runtime sizes error = %v", err)
	}
	if _, err := engineByName("nope"); !errors.Is(err, ErrBadInput) {
		t.Errorf("unknown engine error = %v", err)
	}
}

func TestCSVWriters(t *testing.T) {
	rows := []TableIRow{{Name: "NetworkX", Nodes: 10, Edges: 20, NodesAfter: 3, EdgesAfter: 5, NodeReduction: 0.7}}
	var buf bytes.Buffer
	if err := WriteTableICSV(&buf, rows); err != nil {
		t.Fatalf("WriteTableICSV: %v", err)
	}
	if !strings.Contains(buf.String(), "NetworkX,10,20,3,5,0.7") {
		t.Errorf("table csv:\n%s", buf.String())
	}

	res, err := SingleUserEnergy(context.Background(), 3, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteEnergyCSV(&buf, res); err != nil {
		t.Fatalf("WriteEnergyCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 { // header + 3 engines × 1 size
		t.Errorf("energy csv lines = %d:\n%s", len(lines), buf.String())
	}

	rt := &RuntimeResult{Xs: []int{40}, Series: []string{"a"}, Seconds: map[string][]float64{"a": {0.5}}}
	buf.Reset()
	if err := WriteRuntimeCSV(&buf, rt); err != nil {
		t.Fatalf("WriteRuntimeCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "a,40,0.5") {
		t.Errorf("runtime csv:\n%s", buf.String())
	}
}

func TestGraphForSizePaperRow(t *testing.T) {
	g, err := graphForSize(250, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 250 || g.NumEdges() != 1214 {
		t.Errorf("paper row graph = %v, want 250/1214", g)
	}
	g2, err := graphForSize(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 300 {
		t.Errorf("custom size graph = %v", g2)
	}
}

func TestAblationsSmall(t *testing.T) {
	rows, err := Ablations(context.Background(), 3, 120, 8)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	byKey := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		if r.Seconds <= 0 || r.Objective < 0 {
			t.Errorf("bad row %+v", r)
		}
		byKey[r.Study+"/"+r.Config] = r
	}
	// Greedy never hurts; sweep never transmits more than sign-only;
	// 4-way never worse than bisect.
	if byKey["greedy/on"].Objective > byKey["greedy/off"].Objective+1e-9 {
		t.Errorf("greedy on %v worse than off %v",
			byKey["greedy/on"].Objective, byKey["greedy/off"].Objective)
	}
	if byKey["sweep-cut/sweep"].TransmissionEnergy > byKey["sweep-cut/sign-only"].TransmissionEnergy+1e-9 {
		t.Errorf("sweep transmits %v > sign-only %v",
			byKey["sweep-cut/sweep"].TransmissionEnergy,
			byKey["sweep-cut/sign-only"].TransmissionEnergy)
	}
	// 4-way is not dominated by bisect in general (the one-directional
	// greedy starts from a different initial split), but both must land in
	// the same ballpark on this deterministic instance.
	if byKey["partitioning/4-way"].Objective > byKey["partitioning/bisect"].Objective*1.5 {
		t.Errorf("4-way %v far above bisect %v",
			byKey["partitioning/4-way"].Objective, byKey["partitioning/bisect"].Objective)
	}
	text := RenderAblations(rows)
	if !strings.Contains(text, "sweep-cut") {
		t.Errorf("render missing study:\n%s", text)
	}
	if _, err := Ablations(context.Background(), 3, 0, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad input error = %v", err)
	}
}

func TestModelValidationSmall(t *testing.T) {
	rows, err := ModelValidation(context.Background(), 3, []int{4, 12}, 100)
	if err != nil {
		t.Fatalf("ModelValidation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// With equal apps offloaded simultaneously, the analytic PS model
		// matches the simulated PS waiting closely (uploads are staggered
		// only by transmission time, which is tiny next to service time).
		if r.ModelWait < 0 || r.SimPSWait < 0 || r.SimFIFOWait < 0 {
			t.Errorf("negative waits: %+v", r)
		}
		diff := r.ModelWait - r.SimPSWait
		if diff < 0 {
			diff = -diff
		}
		if r.ModelWait > 0 && diff > 0.25*r.ModelWait {
			t.Errorf("users=%d: model wait %v vs sim %v diverge >25%%", r.Users, r.ModelWait, r.SimPSWait)
		}
	}
	text := RenderValidation(rows)
	if !strings.Contains(text, "sim PS wait") {
		t.Errorf("render missing header:\n%s", text)
	}
	if _, err := ModelValidation(context.Background(), 3, nil, 100); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad input error = %v", err)
	}
}

func TestThresholdSweepSmall(t *testing.T) {
	rows, err := ThresholdSweep(context.Background(), 3, 120, 4, []float64{0.1, 0.75, 0.99})
	if err != nil {
		t.Fatalf("ThresholdSweep: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower quantiles merge more: compressed size is non-decreasing in q.
	for i := 1; i < len(rows); i++ {
		if rows[i].NodesAfter < rows[i-1].NodesAfter {
			t.Errorf("nodes after shrank as threshold rose: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.Reduction < 0 || r.Reduction > 1 || r.Objective <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	text := RenderThresholdSweep(rows)
	if !strings.Contains(text, "quantile") {
		t.Errorf("render missing header:\n%s", text)
	}
	if _, err := ThresholdSweep(context.Background(), 3, 120, 4, []float64{2}); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad quantile error = %v", err)
	}
	if _, err := ThresholdSweep(context.Background(), 3, 0, 4, []float64{0.5}); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad size error = %v", err)
	}
}
