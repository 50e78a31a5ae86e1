package callgraph

import (
	"errors"
	"strings"
	"testing"
)

// fig1 is the paper's Figure 1 example program.
const fig1 = `
app fig1
func f1 5
  calls f2 10
  calls f3 8
func f2 4
  calls f4 12
  calls f5 7
func f3 3
func f4 2
func f5 1
`

func parseFig1(t *testing.T) *App {
	t.Helper()
	app, err := Parse(strings.NewReader(fig1))
	if err != nil {
		t.Fatalf("Parse(fig1): %v", err)
	}
	return app
}

func TestParseFig1(t *testing.T) {
	app := parseFig1(t)
	if app.Name != "fig1" {
		t.Errorf("Name = %q, want fig1", app.Name)
	}
	if len(app.Functions) != 5 {
		t.Fatalf("functions = %d, want 5", len(app.Functions))
	}
	f1 := app.Functions[0]
	if f1.Name != "f1" || f1.Work != 5 || len(f1.Calls) != 2 {
		t.Errorf("f1 = %+v", f1)
	}
	if f1.Calls[0].Callee != "f2" || f1.Calls[0].Data != 10 {
		t.Errorf("f1 first call = %+v", f1.Calls[0])
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	src := "# header\n\napp x\n# note\nfunc a 1\n"
	app, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if app.Name != "x" || len(app.Functions) != 1 {
		t.Errorf("app = %+v", app)
	}
}

func TestParseLocalModifier(t *testing.T) {
	src := "app x\nfunc sensor 2 local\nfunc compute 9\n"
	app, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !app.Functions[0].Local || app.Functions[1].Local {
		t.Errorf("local flags wrong: %+v", app.Functions)
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad directive", "zap x\n"},
		{"app arity", "app a b\n"},
		{"func arity", "func a\n"},
		{"func bad work", "func a xyz\n"},
		{"bad modifier", "func a 1 remote\n"},
		{"calls before func", "app x\ncalls a 1\n"},
		{"calls arity", "app x\nfunc a 1\ncalls b\n"},
		{"calls bad data", "app x\nfunc a 1\ncalls a xy\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.src)); !errors.Is(err, ErrSyntax) {
				t.Errorf("Parse error = %v, want ErrSyntax", err)
			}
		})
	}
}

func TestParseValidates(t *testing.T) {
	src := "app x\nfunc a 1\ncalls ghost 5\n"
	if _, err := Parse(strings.NewReader(src)); !errors.Is(err, ErrUnknownCallee) {
		t.Errorf("Parse error = %v, want ErrUnknownCallee", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		app  App
		want error
	}{
		{"empty", App{Name: "e"}, ErrNoFunctions},
		{"dup", App{Functions: []Function{{Name: "a"}, {Name: "a"}}}, ErrDuplicateFunction},
		{"neg work", App{Functions: []Function{{Name: "a", Work: -1}}}, ErrBadValue},
		{"neg data", App{Functions: []Function{
			{Name: "a", Calls: []Call{{Callee: "b", Data: -2}}}, {Name: "b"},
		}}, ErrBadValue},
		{"unknown callee", App{Functions: []Function{
			{Name: "a", Calls: []Call{{Callee: "zz", Data: 1}}},
		}}, ErrUnknownCallee},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.app.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestExtractFig1(t *testing.T) {
	app := parseFig1(t)
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	g := ex.Graph
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("graph = %v, want 5 nodes 4 edges", g)
	}
	// Edge weights match the paper's data sizes.
	pairs := []struct {
		a, b string
		w    float64
	}{
		{"f1", "f2", 10}, {"f1", "f3", 8}, {"f2", "f4", 12}, {"f2", "f5", 7},
	}
	for _, p := range pairs {
		w, ok := g.EdgeWeight(ex.NodeOf[p.a], ex.NodeOf[p.b])
		if !ok || w != p.w {
			t.Errorf("edge %s-%s = %v,%v; want %v,true", p.a, p.b, w, ok, p.w)
		}
	}
	// Node weights match function work.
	if w, _ := g.NodeWeight(ex.NodeOf["f1"]); w != 5 {
		t.Errorf("f1 weight = %v, want 5", w)
	}
	// NameOf inverts NodeOf.
	for name, id := range ex.NodeOf {
		if ex.NameOf[id] != name {
			t.Errorf("NameOf[%d] = %q, want %q", id, ex.NameOf[id], name)
		}
	}
}

func TestExtractRemovesLocal(t *testing.T) {
	app := parseFig1(t)
	// Pin f2 locally: f2 and all its edges vanish from the graph.
	for i := range app.Functions {
		if app.Functions[i].Name == "f2" {
			app.Functions[i].Local = true
		}
	}
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if ex.Graph.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", ex.Graph.NumNodes())
	}
	if ex.Graph.NumEdges() != 1 { // only f1-f3 remains
		t.Errorf("edges = %d, want 1", ex.Graph.NumEdges())
	}
	if len(ex.LocalFunctions) != 1 || ex.LocalFunctions[0] != "f2" {
		t.Errorf("LocalFunctions = %v, want [f2]", ex.LocalFunctions)
	}
	if ex.LocalWork != 4 {
		t.Errorf("LocalWork = %v, want 4", ex.LocalWork)
	}
	if _, ok := ex.NodeOf["f2"]; ok {
		t.Error("local function present in NodeOf")
	}
}

func TestExtractCoalescesBidirectionalCalls(t *testing.T) {
	app := &App{Functions: []Function{
		{Name: "a", Work: 1, Calls: []Call{{Callee: "b", Data: 3}}},
		{Name: "b", Work: 1, Calls: []Call{{Callee: "a", Data: 4}}},
	}}
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	w, ok := ex.Graph.EdgeWeight(ex.NodeOf["a"], ex.NodeOf["b"])
	if !ok || w != 7 {
		t.Errorf("a-b weight = %v,%v; want 7,true", w, ok)
	}
}

func TestExtractDropsRecursionAndZeroData(t *testing.T) {
	app := &App{Functions: []Function{
		{Name: "a", Work: 1, Calls: []Call{
			{Callee: "a", Data: 9},
			{Callee: "b", Data: 0},
		}},
		{Name: "b", Work: 1},
	}}
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if ex.Graph.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", ex.Graph.NumEdges())
	}
}

func TestExtractInvalidApp(t *testing.T) {
	app := &App{}
	if _, err := Extract(app); !errors.Is(err, ErrNoFunctions) {
		t.Errorf("Extract error = %v, want ErrNoFunctions", err)
	}
}

func TestSynthesize(t *testing.T) {
	cfg := SynthConfig{Pipelines: 3, StagesPerPipeline: 4, HelpersPerStage: 2, LocalFraction: 1, Seed: 11}
	app, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	// 3 pipelines × (4 stages × (1 + 2 helpers)) + main = 37 functions.
	if len(app.Functions) != 37 {
		t.Errorf("functions = %d, want 37", len(app.Functions))
	}
	if err := app.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	locals := 0
	for _, f := range app.Functions {
		if f.Local {
			locals++
		}
	}
	// main + every first stage (LocalFraction 1).
	if locals != 4 {
		t.Errorf("local functions = %d, want 4", locals)
	}
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract(synth): %v", err)
	}
	if ex.Graph.NumNodes() != 33 {
		t.Errorf("graph nodes = %d, want 33", ex.Graph.NumNodes())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{Pipelines: 2, StagesPerPipeline: 3, HelpersPerStage: 1, Seed: 5}
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Extract(b)
	if err != nil {
		t.Fatal(err)
	}
	if !ea.Graph.Equal(eb.Graph) {
		t.Error("same seed produced different synthetic graphs")
	}
}

func TestSynthesizeBadConfig(t *testing.T) {
	if _, err := Synthesize(SynthConfig{Pipelines: 0, StagesPerPipeline: 1}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Synthesize error = %v, want ErrBadValue", err)
	}
	if _, err := Synthesize(SynthConfig{Pipelines: 1, StagesPerPipeline: 1, HelpersPerStage: -1}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Synthesize error = %v, want ErrBadValue", err)
	}
}
