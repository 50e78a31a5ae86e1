// Command copmecsd is the online offloading service: a long-running daemon
// that accepts per-user function data-flow graphs over HTTP/JSON, coalesces
// concurrent arrivals into multi-user solve rounds (so the paper's
// shared-server contention reflects live load), caches decisions by graph
// fingerprint, and sheds load when the accept queue fills.
//
// Endpoints (service address):
//
//	POST /v1/solve    {"graph": {...}, "params": {...}} → offloading decision
//	POST /v1/mutate   {"base": "<fp>", "delta": {...}} → incremental re-solve
//	GET  /v1/health   200 ready / 503 draining, with identity and uptime
//	GET  /v1/stats    counters, cache/batch stats, latency histogram
//
// In a fleet behind copmecs-router, give each backend an -id; the router
// probes /v1/health for quarantine/re-admission.
//
// A separate debug address (optional, -debug-addr) serves net/http/pprof;
// -mutex-profile and -block-profile additionally enable the runtime's
// contention profilers so /debug/pprof/mutex and /debug/pprof/block carry
// data. SIGINT/SIGTERM triggers graceful drain: new work is rejected,
// every accepted request completes, then the process exits.
//
// With -data-dir the daemon is crash-durable: solve rounds and mutations
// are journaled write-ahead, the caches are snapshotted on -snapshot-interval
// (and at drain), and a restart on the same directory recovers the
// snapshot, replays the journal tail and resumes with warm caches — a
// kill -9 loses no accepted request. An empty -data-dir (the default)
// keeps today's purely in-memory behaviour.
//
// Usage:
//
//	copmecsd -addr :8080 -debug-addr 127.0.0.1:6060 -engine spectral
//	copmecsd -addr :8080 -data-dir /var/lib/copmecs -fsync-interval 100ms
//	curl -s -X POST -d @request.json http://localhost:8080/v1/solve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/durable"
	"copmecs/internal/mec"
	"copmecs/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copmecsd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a stop signal arrives and the
// graceful drain completes. It is main minus process concerns, so tests
// can drive it with a fake signal channel and an in-memory writer.
func run(args []string, stop <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("copmecsd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "service listen address")
		id         = fs.String("id", "", "backend identity reported by /v1/health (empty = anonymous)")
		debugAddr  = fs.String("debug-addr", "", "pprof debug listen address (empty = disabled)")
		engineName = fs.String("engine", "spectral", "cut engine: spectral, maxflow, kernighan-lin, stoer-wagner")
		capacity   = fs.Float64("capacity", 0, "edge server capacity (0 = default)")
		device     = fs.Float64("device", 0, "device compute (0 = default)")
		bandwidth  = fs.Float64("bandwidth", 0, "wireless bandwidth (0 = default)")
		workers    = fs.Int("workers", 0, "per-round solver parallelism (0 = all cores)")
		maxBatch   = fs.Int("max-batch", serve.DefaultMaxBatch, "max users per solve round")
		batchWait  = fs.Duration("batch-wait", serve.DefaultBatchWait, "upper bound on a round waiting for a request already at the server")
		queueDepth = fs.Int("queue", serve.DefaultQueueDepth, "accept queue depth (beyond it: 429)")
		cacheSize  = fs.Int("cache", serve.DefaultCacheSize, "solution cache entries")
		graphCache = fs.Int("graph-cache", serve.DefaultGraphCacheSize, "interned graphs with warm solver pipelines")
		reqTimeout = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline")
		maxNodes   = fs.Int("max-nodes", serve.DefaultMaxNodes, "max graph nodes per request")
		maxEdges   = fs.Int("max-edges", serve.DefaultMaxEdges, "max graph edges per request")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "graceful drain deadline")
		dataDir    = fs.String("data-dir", "", "durability directory: journal + snapshots (empty = in-memory only)")
		fsyncEvery = fs.Duration("fsync-interval", durable.DefaultFsyncInterval, "journal group-commit interval (<= 0 = fsync every append)")
		snapEvery  = fs.Duration("snapshot-interval", time.Minute, "cache snapshot interval (0 = only after replay and at drain)")
		mutexFrac  = fs.Int("mutex-profile", 0, "runtime mutex profile fraction (0 = off; served at /debug/pprof/mutex)")
		blockRate  = fs.Int("block-profile", 0, "runtime block profile rate in ns (0 = off; served at /debug/pprof/block)")
		quiet      = fs.Bool("q", false, "suppress serving diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := core.EngineByName(*engineName)
	if err != nil {
		return err
	}
	// Non-zero overrides are applied verbatim; serve.New validates the
	// result, so an explicitly negative flag fails loudly instead of being
	// silently ignored.
	params := mec.Defaults()
	if *capacity != 0 {
		params.ServerCapacity = *capacity
	}
	if *device != 0 {
		params.DeviceCompute = *device
	}
	if *bandwidth != 0 {
		params.Bandwidth = *bandwidth
	}
	// Contention profiling is opt-in: both profilers tax the hot path, so
	// they stay off unless explicitly requested for an investigation. The
	// profiles are served by the debug listener's pprof mux.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	logf := func(format string, fargs ...any) {
		logln(out, format, fargs...)
	}
	if *quiet {
		logf = nil
	}

	// Durability is opt-in by directory: open the store (recovering any
	// previous run's state) before the server exists, wire its journal and
	// stats into the serving config, and replay the recovered records into
	// the caches before traffic starts.
	var store *durable.Store
	var recovered *durable.Recovery
	cfg := serve.Config{
		ID:             *id,
		Engine:         engine,
		Params:         params,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		BatchWait:      *batchWait,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		GraphCacheSize: *graphCache,
		RequestTimeout: *reqTimeout,
		Limits:         serve.DecodeLimits{MaxNodes: *maxNodes, MaxEdges: *maxEdges},
		Logf:           logf,
	}
	if *dataDir != "" {
		interval := *fsyncEvery
		if interval <= 0 {
			interval = -1 // strict mode: fsync inline on every append
		}
		store, recovered, err = durable.Open(durable.Options{
			Dir:           *dataDir,
			FsyncInterval: interval,
			Logf:          logf,
		})
		if err != nil {
			return err
		}
		defer func() { _ = store.Close() }()
		cfg.Journal = store
		cfg.DurabilityStats = func() serve.DurabilityStats { return durabilityStats(store) }
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	// Root context of the solve spine: cancelled only after drain, so
	// in-flight rounds finish during graceful shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Warm the caches from the recovered state, then compact: a snapshot
	// right after replay folds the replayed journal tail into one file, so
	// repeated crash/restart cycles never accumulate segments.
	snapStop := make(chan struct{})
	var snapDone chan struct{}
	if store != nil {
		rs := srv.Recover(ctx, recovered.SnapshotRecords, recovered.JournalRecords)
		logln(out, "copmecsd: recovered %s: snapshot seq %d (%d decisions, %d graphs), journal %d records (%d warm, %d solved, %d errors, %d undecodable), %d bytes dropped",
			*dataDir, recovered.SnapshotSeq, rs.SnapshotDecisions, rs.SnapshotGraphs,
			rs.JournalRecords, rs.ReplayWarm, rs.ReplaySolved, rs.ReplayErrors, rs.DecodeErrors,
			recovered.DroppedBytes)
		if err := store.Snapshot(srv.WriteSnapshotRecords); err != nil {
			logln(out, "copmecsd: post-recovery snapshot: %v", err)
		}
		if *snapEvery > 0 {
			snapDone = make(chan struct{})
			go func() {
				defer close(snapDone)
				t := time.NewTicker(*snapEvery)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						if err := store.Snapshot(srv.WriteSnapshotRecords); err != nil {
							logln(out, "copmecsd: snapshot: %v", err)
						}
					case <-snapStop:
						return
					}
				}
			}()
		}
	}
	srv.Start(ctx)

	// The debug listener is bound before the service banner: whoever waits
	// for "listening on" may use the debug port at once.
	var dln net.Listener
	if *debugAddr != "" {
		if dln, err = net.Listen("tcp", *debugAddr); err != nil {
			return fmt.Errorf("debug listen %s: %w", *debugAddr, err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if dln != nil {
			_ = dln.Close()
		}
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	var debugSrv *http.Server
	if dln != nil {
		debugSrv = &http.Server{Handler: debugMux()}
		go func() { _ = debugSrv.Serve(dln) }()
		logln(out, "copmecsd: pprof on %s/debug/pprof/", dln.Addr())
	}
	httpSrv := serve.HTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logln(out, "copmecsd: listening on %s (engine %s, max-batch %d, queue %d)",
		ln.Addr(), *engineName, *maxBatch, *queueDepth)

	select {
	case sig := <-stop:
		logln(out, "copmecsd: %v: draining (deadline %v)", sig, *drainWait)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainWait)
	defer drainCancel()
	drainErr := srv.Drain(drainCtx)
	shutErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(shutErr, context.DeadlineExceeded) {
		_ = httpSrv.Close()
	}
	cancel() // release any round still running after a missed deadline
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if store != nil {
		// The caches are settled after drain: one final snapshot captures
		// every decision and truncates the journal, so the next boot
		// restores without replaying.
		close(snapStop)
		if snapDone != nil {
			<-snapDone
		}
		if err := store.Snapshot(srv.WriteSnapshotRecords); err != nil {
			logln(out, "copmecsd: final snapshot: %v", err)
		}
		drainErr = errors.Join(drainErr, store.Close())
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		drainErr = errors.Join(drainErr, err)
	}
	st := srv.Stats()
	logln(out, "copmecsd: drained: %d requests, %d solved, %d shed, %d cache hits, %d deduped, %d rounds",
		st.Requests, st.Solved, st.Shed, st.Cache.Hits, st.Deduped, st.Batch.Rounds)
	return errors.Join(drainErr, shutErr)
}

// durabilityStats projects the durable store's counters into the
// /v1/stats durability section (ages rendered relative to now; -1 marks
// "never this run").
func durabilityStats(store *durable.Store) serve.DurabilityStats {
	st := store.Stats()
	d := serve.DurabilityStats{
		JournalSegments:   st.JournalSegments,
		JournalRecords:    st.JournalRecords,
		JournalBytes:      st.JournalBytes,
		WriteErrors:       st.WriteErrors,
		FsyncErrors:       st.FsyncErrors,
		LastFsyncAgeMs:    -1,
		SnapshotSeq:       st.SnapshotSeq,
		SnapshotsWritten:  st.SnapshotsWritten,
		SnapshotErrors:    st.SnapshotErrors,
		LastSnapshotAgeMs: -1,
	}
	if !st.LastFsync.IsZero() {
		d.LastFsyncAgeMs = time.Since(st.LastFsync).Milliseconds()
	}
	if !st.LastSnapshot.IsZero() {
		d.LastSnapshotAgeMs = time.Since(st.LastSnapshot).Milliseconds()
	}
	return d
}

// logln writes one diagnostic line to the daemon's output stream; a
// failed write to a dying stdout has nowhere better to be reported.
func logln(out io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(out, format+"\n", args...)
}

// debugMux builds the pprof-only mux for the debug listener; registering
// explicitly (rather than importing for DefaultServeMux's side effect)
// keeps pprof off the service port.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
