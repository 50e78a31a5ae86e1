// Command copmecs-router is the horizontal serving tier: a stateless
// reverse proxy that spreads solve traffic over a fleet of copmecsd
// backends by consistent-hashing each request's graph fingerprint, so
// every repeat of a graph lands on the backend whose caches already know
// it. Crashed backends are quarantined (health probes plus proxy error
// reports) and their keys flow to ring neighbours; recovered backends are
// re-admitted automatically. Tail-slow attempts are hedged to the next
// ring replica once they outlive a p99-derived budget.
//
// The ring, retry, timeout and hedge tuning are constants of
// internal/router (its Default* values). The flags set the listen address,
// the backends, the probe cadence and thresholds (-probe-interval,
// -quarantine-after, -readmit-after), -no-hedge, the decode limits
// (-max-nodes, -max-edges), the identity-cache size (-ident-cache), the
// drain deadline (-drain-timeout) and -q.
//
// Endpoints:
//
//	POST /v1/solve    proxied to the fingerprint's backend (failover + hedging)
//	POST /v1/mutate   proxied to the backend holding the base graph
//	GET  /v1/stats    fleet-wide aggregate + per-backend drill-down + routing state
//	GET  /v1/health   200 ready / 503 draining, with uptime
//
// Backends are named so ring placement survives address changes: a backend
// restarted on a new port keeps its keyspace arcs (and its warm cache
// stays relevant) as long as its name is stable.
//
// Usage:
//
//	copmecsd -addr :8081 -id be-0 &
//	copmecsd -addr :8082 -id be-1 &
//	copmecs-router -addr :8080 -backends be-0=http://127.0.0.1:8081,be-1=http://127.0.0.1:8082
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"copmecs/internal/router"
	"copmecs/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copmecs-router:", err)
		os.Exit(1)
	}
}

// run starts the router and blocks until a stop signal arrives and the
// graceful drain completes. It is main minus process concerns, so tests
// can drive it with a fake signal channel and an in-memory writer.
func run(args []string, stop <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("copmecs-router", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "router listen address")
		backends   = fs.String("backends", "", "comma-separated fleet members, each name=url or a bare url (required)")
		probeEvery = fs.Duration("probe-interval", router.DefaultProbeInterval, "health probe sweep period")
		quarAfter  = fs.Int("quarantine-after", router.DefaultQuarantineAfter, "consecutive failures before a backend leaves the ring")
		readmit    = fs.Int("readmit-after", router.DefaultReadmitAfter, "consecutive probe successes before re-admission")
		noHedge    = fs.Bool("no-hedge", false, "disable speculative hedging (failover on hard errors still applies)")
		maxNodes   = fs.Int("max-nodes", serve.DefaultMaxNodes, "max graph nodes per request")
		maxEdges   = fs.Int("max-edges", serve.DefaultMaxEdges, "max graph edges per request")
		identCache = fs.Int("ident-cache", 0, "body-key identity cache entries (0 = default)")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "graceful drain deadline")
		quiet      = fs.Bool("q", false, "suppress routing diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	members, err := parseBackends(*backends)
	if err != nil {
		return err
	}
	logf := func(format string, fargs ...any) {
		_, _ = fmt.Fprintf(out, format+"\n", fargs...)
	}
	quietable := logf
	if *quiet {
		quietable = nil
	}
	rt, err := router.New(router.Config{
		Backends:        members,
		ProbeInterval:   *probeEvery,
		QuarantineAfter: *quarAfter,
		ReadmitAfter:    *readmit,
		DisableHedge:    *noHedge,
		Limits:          serve.DecodeLimits{MaxNodes: *maxNodes, MaxEdges: *maxEdges},
		IdentCacheSize:  *identCache,
		Logf:            quietable,
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := serve.HTTPServer(rt.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	logf("copmecs-router: listening on %s (%d backends: %s)",
		ln.Addr(), len(members), strings.Join(names, " "))

	select {
	case sig := <-stop:
		logf("copmecs-router: %v: draining (deadline %v)", sig, *drainWait)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainWait)
	defer drainCancel()
	drainErr := rt.Drain(drainCtx)
	shutErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(shutErr, context.DeadlineExceeded) {
		_ = httpSrv.Close()
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		drainErr = errors.Join(drainErr, err)
	}
	logf("copmecs-router: drained")
	return errors.Join(drainErr, shutErr)
}

// parseBackends splits the -backends flag: comma-separated members, each
// "name=url" or a bare URL (named by its host:port). Naming matters: ring
// placement hashes the name, so stable names keep keyspace arcs stable
// across backend address changes.
func parseBackends(spec string) ([]router.BackendConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no backends: pass -backends name=url[,name=url...]")
	}
	var members []router.BackendConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, found := strings.Cut(part, "=")
		if !found {
			url = part
			name = strings.TrimPrefix(strings.TrimPrefix(part, "http://"), "https://")
			name = strings.TrimRight(name, "/")
		}
		members = append(members, router.BackendConfig{Name: name, URL: url})
	}
	return members, nil
}
