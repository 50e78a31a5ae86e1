// Command experiments regenerates every table and figure of the paper's
// evaluation section: Table I (compression), Figures 3–5 (single-user
// energy), Figures 6–8 (multi-user energy) and Figure 9 (running time).
// Results are printed as aligned text and optionally written as CSV files.
//
// Usage:
//
//	experiments                 # full paper scales (takes a minute or two)
//	experiments -quick          # reduced scales for a fast sanity pass
//	experiments -outdir results # also write CSVs
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"copmecs/internal/experiments"
)

func main() {
	// Ctrl-C / SIGTERM cancels in-flight solves cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run buffers stdout so report writes share one latched error, surfaced by
// the final Flush.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	bw := bufio.NewWriter(stdout)
	err := runBuffered(ctx, args, bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

func runBuffered(ctx context.Context, args []string, stdout *bufio.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 7, "deterministic workload seed")
		quick     = fs.Bool("quick", false, "reduced scales (fast sanity pass)")
		outdir    = fs.String("outdir", "", "directory for CSV output (empty = none)")
		graphSize = fs.Int("graphsize", 1000, "per-user graph size for Figures 6-8")
		ablations = fs.Bool("ablations", false, "also run the design-choice ablation studies")
		validate  = fs.Bool("validate", false, "also cross-check the analytic server model against the discrete-event simulator")
		sweep     = fs.Bool("sweep", false, "also run the compression-threshold sensitivity sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sizes := experiments.PaperSizes()
	userCounts := experiments.PaperUserCounts()
	if *quick {
		sizes = []int{100, 250, 500}
		userCounts = []int{10, 50, 100}
		*graphSize = 200
	}

	csv := func(name string, write func(io.Writer) error) error {
		if *outdir == "" {
			return nil
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return fmt.Errorf("mkdir %s: %w", *outdir, err)
		}
		path := filepath.Join(*outdir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		err = write(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
		return err
	}

	// Table I.
	fmt.Fprintln(stdout, "=== Table I: graph compression results ===")
	rows, err := experiments.TableI(ctx, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.RenderTableI(rows))
	if err := csv("table1.csv", func(w io.Writer) error {
		return experiments.WriteTableICSV(w, rows)
	}); err != nil {
		return err
	}

	// Figures 3–5.
	fmt.Fprintln(stdout, "\n=== Figures 3-5: single-user energy by graph size ===")
	single, err := experiments.SingleUserEnergy(ctx, *seed, sizes)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.RenderEnergy(single, experiments.LocalEnergy))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiments.RenderEnergy(single, experiments.TransmissionEnergy))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiments.RenderEnergy(single, experiments.TotalEnergy))
	if err := csv("fig3-5_single_user.csv", func(w io.Writer) error {
		return experiments.WriteEnergyCSV(w, single)
	}); err != nil {
		return err
	}

	// Figures 6–8.
	fmt.Fprintln(stdout, "\n=== Figures 6-8: multi-user energy by user count ===")
	multi, err := experiments.MultiUserEnergy(ctx, *seed, userCounts, *graphSize)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.RenderEnergy(multi, experiments.LocalEnergy))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiments.RenderEnergy(multi, experiments.TransmissionEnergy))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiments.RenderEnergy(multi, experiments.TotalEnergy))
	if err := csv("fig6-8_multi_user.csv", func(w io.Writer) error {
		return experiments.WriteEnergyCSV(w, multi)
	}); err != nil {
		return err
	}

	// Figure 9.
	fmt.Fprintln(stdout, "\n=== Figure 9: running time by graph size ===")
	rt, err := experiments.Runtime(ctx, *seed, sizes)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.RenderRuntime(rt))
	if err := csv("fig9_runtime.csv", func(w io.Writer) error {
		return experiments.WriteRuntimeCSV(w, rt)
	}); err != nil {
		return err
	}

	if *ablations {
		fmt.Fprintln(stdout, "\n=== Ablations: design-choice studies ===")
		size, users := 1000, 64
		if *quick {
			size, users = 200, 16
		}
		rows, err := experiments.Ablations(ctx, *seed, size, users)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderAblations(rows))
	}

	if *validate {
		fmt.Fprintln(stdout, "\n=== Model validation: analytic vs discrete-event simulation ===")
		counts, size := []int{8, 32, 128}, 400
		if *quick {
			counts, size = []int{4, 16}, 120
		}
		rows, err := experiments.ModelValidation(ctx, *seed, counts, size)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderValidation(rows))
	}

	if *sweep {
		fmt.Fprintln(stdout, "\n=== Threshold sweep: compression sensitivity to w ===")
		size, users := 1000, 32
		if *quick {
			size, users = 200, 8
		}
		quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
		rows, err := experiments.ThresholdSweep(ctx, *seed, size, users, quantiles)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderThresholdSweep(rows))
	}
	return nil
}
