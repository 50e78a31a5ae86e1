package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestDoc is the part of BENCHMARK.json -repeat and the tests read.
type manifestDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readManifest(path string) (manifestDoc, error) {
	var m manifestDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// spreadRow is one workload × end-to-end metric over the repeated runs.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3 − Q1) ÷ median, the figure the bound is set from.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

// runRepeat runs the untraced suite n times, each time with the next seed
// (so the spread covers both the machine's noise and the inputs'), and
// prints every end-to-end metric's median, quartiles and relative spread
// beside its bound.
func runRepeat(ctx context.Context, e env, n int, manifestPath string, stdout, diag io.Writer) error {
	if n < 3 {
		return fmt.Errorf("-repeat %d: quartiles need at least 3 runs", n)
	}
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, d := range m.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	values := make(map[string][]float64) // "workload metric" → one value per run
	for i := 0; i < n; i++ {
		re := e
		re.seed = e.seed + int64(i)
		s, err := runSuite(ctx, re, false, diag)
		if err != nil {
			return err
		}
		if !s.AllPassed {
			return errIncorrect
		}
		for name, r := range s.EndToEnd {
			for metric, v := range r.Metrics {
				key := name + " " + metric
				values[key] = append(values[key], v.Value)
			}
		}
	}
	var rows []spreadRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			vals := values[w.name+" "+d.name]
			q1, q2, q3 := quartiles(vals)
			row := spreadRow{Workload: w.name, Metric: d.name, Unit: d.unit, Values: vals,
				Q1: q1, Median: q2, Q3: q3, Spread: ratio(q3-q1, q2), Bound: bounds[d.name]}
			row.Within = row.Spread <= row.Bound
			rows = append(rows, row)
			fmt.Fprintf(diag, "%-13s %-16s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %6.3f bound %5.2f\n",
				row.Workload, row.Metric, row.Median, row.Unit, row.Q1, row.Q3, row.Spread, row.Bound)
		}
	}
	return printJSON(stdout, rows)
}
