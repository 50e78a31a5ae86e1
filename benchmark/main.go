// Command benchmark is the repository's one committed benchmark: seven named
// workloads, five end-to-end metrics, and per-layer attribution timed from
// outside the layers. README.md in this directory says what each workload
// and metric is for and how they are expected to interact.
//
// Run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload serve_hit --seed 1 --seconds 15 --trace 0
//
// prints, as its last line, one JSON object with the workload's end-to-end
// metrics (--trace 1: its per-layer metrics, and writes out/trace.json).
// Without --workload it runs all seven and prints one document; --repeat N
// runs that N times and prints each metric's spread against its bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"copmecs/internal/netgen"
)

// How many times a run sets the system up; setup_s is the median, so one
// slow boot does not decide it. A library set-up takes a few hundredths of a
// second and scatters more, a serving one up to half a second.
const (
	librarySetups = 15
	servingSetups = 5
)

// warmup is the unmeasured lead-in before a window: caches fill and lazy
// set-up finishes. One second, less only for the sub-second smoke windows.
func warmup(window time.Duration) time.Duration {
	if window < time.Second {
		return window
	}
	return time.Second
}

// env is what a workload run is given.
type env struct {
	seed   int64
	window time.Duration
	traced bool
	outDir string
}

// outcome is what a workload run found.
type outcome struct {
	attempted, failed int
	correct           bool
	digest            string // SHA-256 of the verified decisions
	note              string // first failure or mismatch, if any
	samples           int
	thinTail          bool // fewer than minTail samples beyond p90_ms
	// As measured, before calibration: the median and 90th percentile
	// latency in ms, the median calibration kernel run in µs, and the share
	// of the callers' waiting that was computing.
	rawP50, rawP90, kernelUs, computing float64
	values                              map[string]float64
	spans                               []span
	dropped                             int
}

// endToEnd fills in the five end-to-end metrics from the window's ascending
// latencies in ms. Every time handed in is at reference speed (calib.go).
func (out *outcome) endToEnd(sortedMs []float64, opsPerS, allocKB float64, setups []float64) {
	var tail bool
	out.values["p50_ms"], _ = percentile(sortedMs, 0.50)
	out.values["p90_ms"], tail = percentile(sortedMs, 0.90)
	out.thinTail = !tail
	out.values["ops_per_s"] = opsPerS
	out.values["alloc_kb_per_op"] = allocKB
	out.values["setup_s"] = median(setups)
}

// raw keeps the window's latencies as measured, for the diagnostics line.
func (out *outcome) raw(sortedMs []float64, cals ...*calibrator) {
	out.rawP50, _ = percentile(sortedMs, 0.50)
	out.rawP90, _ = percentile(sortedMs, 0.90)
	var kernels []float64
	for _, c := range cals {
		kernels = append(kernels, c.medianKernelUs())
	}
	out.kernelUs = median(kernels)
}

// clientDiagnostics fills in the ungated figures of the traced pass, which
// are as measured: tails, sample count and the calibration kernel.
func (out *outcome) clientDiagnostics(sortedMs []float64) {
	out.values["client.calib_kernel_us"] = out.kernelUs
	out.values["client.p99_ms"], _ = percentile(sortedMs, 0.99)
	if n := len(sortedMs); n > 0 {
		out.values["client.max_ms"] = sortedMs[n-1]
	}
	out.values["client.samples"] = float64(len(sortedMs))
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(ctx context.Context, env env) (*outcome, error)
}

func library(sp libSpec) func(context.Context, env) (*outcome, error) {
	return func(ctx context.Context, e env) (*outcome, error) { return runLibrary(ctx, sp, e) }
}

func serving(sp servSpec) func(context.Context, env) (*outcome, error) {
	return func(ctx context.Context, e env) (*outcome, error) { return runServing(ctx, sp, e) }
}

// workloads lists the seven, in the order "all" runs them. BENCHMARK.json
// says why each was chosen.
var workloads = []workload{
	{"cold_table1", library(libSpec{round: 1, verifyRound: 4, config: func(s int64) netgen.Config {
		// Table I's largest row: 5000 nodes, 40 243 edges, 12 components.
		cfg, err := netgen.TableIConfig(4, s)
		if err != nil {
			panic(err) // row 4 exists
		}
		return cfg
	}})},
	{"cold_sparse", library(libSpec{round: 1, verifyRound: 4, config: func(s int64) netgen.Config {
		// Sparse enough that compressed components straddle eigen's
		// DenseCutoff of 96; small enough for 100 solves in a window
		// on a slow day.
		return netgen.Config{Nodes: 2100, Edges: 10080, Components: 6, Seed: s}
	}})},
	{"batch_small", library(libSpec{round: 64, verifyRound: 64, config: smallConfig})},
	{"serve_hit", serving(servSpec{newTraffic: newHitTraffic})},
	{"serve_miss", serving(servSpec{newTraffic: newMissTraffic})},
	{"mutate_chain", serving(servSpec{newTraffic: newMutateTraffic})},
	{"fleet_hit", serving(servSpec{fleet: true, newTraffic: newHitTraffic})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload and renders the contract's result object.
func runOne(ctx context.Context, w workload, e env, diag io.Writer) (result, error) {
	out, err := w.run(ctx, e)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		if err := writeTrace(e.outDir, traceFile{Workload: w.name, Seed: e.seed, Dropped: out.dropped, Spans: out.spans}); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(diag, "%s: seed %d samples %d attempted %d failed %d decision_digest %s\n",
		w.name, e.seed, out.samples, out.attempted, out.failed, out.digest)
	fmt.Fprintf(diag, "%s: as measured p50 %.4g ms p90 %.4g ms; calibration kernel %.1f us (reference %d), computing share %.2f\n",
		w.name, out.rawP50, out.rawP90, out.kernelUs, calibRef.Microseconds(), out.computing)
	if out.thinTail {
		fmt.Fprintf(diag, "%s: fewer than %d samples beyond p90_ms; read it as a diagnostic\n", w.name, minTail)
	}
	if c, ok := out.values["trace.coverage"]; ok && c > 0 && (c < 0.90 || c > 1.10) {
		fmt.Fprintf(diag, "%s: trace.coverage %.3f is outside 0.90-1.10\n", w.name, c)
	}
	if out.note != "" {
		fmt.Fprintf(diag, "%s: %s\n", w.name, out.note)
	}
	return result{
		Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: withUnits(defs, out.values),
	}, nil
}

// suite is the document a run of every workload prints.
type suite struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	EndToEnd  map[string]result `json:"end_to_end"`
	PerLayer  map[string]result `json:"per_layer,omitempty"`
	AllPassed bool              `json:"correct"`
}

func runSuite(ctx context.Context, e env, traced bool, diag io.Writer) (suite, error) {
	s := suite{Seed: e.seed, Seconds: e.window.Seconds(), EndToEnd: map[string]result{}, AllPassed: true}
	if traced {
		s.PerLayer = map[string]result{}
	}
	for _, w := range workloads {
		e.traced = false
		r, err := runOne(ctx, w, e, diag)
		if err != nil {
			return s, err
		}
		s.EndToEnd[w.name] = r
		s.AllPassed = s.AllPassed && r.Correct
		if !traced {
			continue
		}
		// The per-layer numbers come from a separate traced pass.
		e.traced = true
		if r, err = runOne(ctx, w, e, diag); err != nil {
			return s, err
		}
		s.PerLayer[w.name] = r
		s.AllPassed = s.AllPassed && r.Correct
	}
	return s, nil
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

var errIncorrect = errors.New("a verification or a measured operation failed")

func run(ctx context.Context, args []string, stdout, diag io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(diag)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 15, "measured window per workload, in seconds")
		trace    = fs.Int("trace", 0, "1: the traced pass, printing per-layer metrics and writing trace.json")
		repeat   = fs.Int("repeat", 0, "run every workload this many times and print each metric's spread")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace.json and scratch files")
		manifest = fs.String("manifest", "BENCHMARK.json", "the file -repeat reads the bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: must be positive", *seconds)
	}
	e := env{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace != 0, outDir: *outDir}
	// Scratch directories of a run that was killed must not pile up.
	defer os.RemoveAll(filepath.Join(e.outDir, "tmp"))

	switch {
	case *repeat > 0:
		return runRepeat(ctx, e, *repeat, *manifest, stdout, diag)
	case *name == "all":
		s, err := runSuite(ctx, e, e.traced, diag)
		if err != nil {
			return err
		}
		if err := printJSON(stdout, s); err != nil {
			return err
		}
		if !s.AllPassed {
			return errIncorrect
		}
		return nil
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	r, err := runOne(ctx, w, e, diag)
	if err != nil {
		return err
	}
	if err := printJSON(stdout, r); err != nil {
		return err
	}
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
