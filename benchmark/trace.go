package main

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copmecs/internal/durable"
	"copmecs/internal/serve"
)

// Span names. A span is timed from the benchmark's own files, around a call
// into a layer's public function or around a public interface it wraps;
// layer names are the module names.
const (
	spanClient   = "client.request"
	spanRouter   = "router.handler"
	spanServe    = "serve.handler"
	spanAppend   = "durable.append"
	spanSolve    = "core.solve"
	spanCompile  = "graph.compile"
	spanFuse     = "graph.fuse"
	spanFP       = "graph.fingerprint"
	spanCompress = "lpa.compress"
	spanBisect   = "spectral.bisect"
	spanFiedler  = "eigen.fiedler"
	spanEvaluate = "mec.evaluate"
)

// maxSpans bounds the in-memory trace (~50 MB); spans beyond it are counted
// in Dropped and left out of the per-layer means.
const maxSpans = 400_000

// span is one timed interval. Req groups the spans of one operation;
// Parent indexes the tightest enclosing span of the same operation in the
// recorder's slice (-1 for a root) and is filled in by link.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. The traced pass drives
// one operation at a time, so every span recorded while an operation is in
// flight belongs to it: the client publishes the operation id in req before
// it calls into the system and handlers read it back.
type recorder struct {
	epoch time.Time
	// on gates recording per operation, so traced and untraced requests
	// interleave in one pass and their latencies can be compared.
	on  atomic.Bool
	req atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		Name: name, Req: r.req.Load(), Parent: -1,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)),
	})
}

// timed records fn as one span and returns its duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end)
	return end.Sub(start)
}

// wrap times a layer's http.Handler from outside. Only POSTs are spans:
// health probes and stats fetches are not operations.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if !r.on.Load() || q.Method != http.MethodPost {
			h.ServeHTTP(w, q)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, q)
		r.add(name, start, time.Now())
	})
}

// tracedJournal decorates the serve.Journal a server appends to.
type tracedJournal struct {
	serve.Journal
	rec *recorder
}

func (j tracedJournal) Append(payload []byte) (uint64, error) {
	if !j.rec.on.Load() {
		return j.Journal.Append(payload)
	}
	start := time.Now()
	tok, err := j.Journal.Append(payload)
	j.rec.add(spanAppend, start, time.Now())
	return tok, err
}

// countingFS counts the fsyncs a durable.Store issues; the store's own
// Stats report only the time of the last one.
type countingFS struct {
	durable.OS
	syncs *atomic.Int64
}

type countingFile struct {
	durable.File
	syncs *atomic.Int64
}

func (f countingFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	file, err := f.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, syncs: f.syncs}, nil
}

func (f countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// link fills in each span's Parent: the tightest span of the same operation
// whose interval contains it.
func link(spans []span) {
	byReq := make(map[int64][]int)
	for i := range spans {
		spans[i].Parent = -1
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		// Outer spans first: earlier start, then later end.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.StartNs != sb.StartNs {
				return sa.StartNs < sb.StartNs
			}
			return sa.EndNs > sb.EndNs
		})
		var open []int // stack of enclosing spans
		for _, i := range idx {
			for len(open) > 0 && spans[open[len(open)-1]].EndNs < spans[i].EndNs {
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				spans[i].Parent = open[len(open)-1]
			}
			open = append(open, i)
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover (overlapping children, such as a hedged pair of
// backend calls, are counted once). Spans must be linked.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanMeans averages duration and self time per span name, in microseconds.
func spanMeans(spans []span) (durUs, selfUs map[string]float64) {
	self := selfTimes(spans)
	n := make(map[string]float64)
	durUs, selfUs = make(map[string]float64), make(map[string]float64)
	for i, s := range spans {
		n[s.Name]++
		durUs[s.Name] += us(s.dur())
		selfUs[s.Name] += us(self[i])
	}
	for name, c := range n {
		durUs[name] /= c
		selfUs[name] /= c
	}
	return durUs, selfUs
}

// traceFile is the layout of out/trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
