package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"copmecs/internal/durable"
	"copmecs/internal/graph"
)

// mapGraphRecord is the recGraph snapshot payload of g as the server wrote it
// while it held map Graphs: the fingerprint, then g.AppendBinary.
func mapGraphRecord(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte(recGraph)
	putString(&buf, fingerprintOf(t, g))
	return g.AppendBinary(buf.Bytes())
}

// TestRecoverMapEncodedDataDir: a data directory whose graph records were
// written from map Graphs (Graph.AppendBinary) — a snapshot of interned
// graphs and their cached decisions, then a journal tail of accepted rounds
// — recovers under the record path to the same fingerprints, views
// byte-equal to the Graphs' own, and the decisions a live server gives the
// same requests; every request is then a hit, and the recovered server
// snapshots the graph records it was given, byte for byte.
func TestRecoverMapEncodedDataDir(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	params := defaultTestParams()
	graphs := []*graph.Graph{testGraph(t, 0), chainGraph(t, 40), testGraph(t, 5), chainGraph(t, 70)}

	// The decisions a live server gives the requests, one round each.
	live := newTestServer(t, Config{})
	live.Start(ctx)
	w := &nopResponseWriter{}
	decisions := make([]*Decision, len(graphs))
	keys := make([]string, len(graphs))
	for i, g := range graphs {
		if st := postDirect(live, solveBody(t, g), w, ctx); st != http.StatusOK {
			t.Fatalf("live solve %d: status %d", i, st)
		}
		key, _, err := oracleKey(&SolveRequest{Graph: g}, params)
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := live.cache.Get(key)
		if !ok {
			t.Fatalf("live solve %d left no decision", i)
		}
		keys[i], decisions[i] = key, ent.dec
	}

	// The data directory: the first two graphs and their decisions in a
	// snapshot, the other two as journaled rounds of one.
	dir := t.TempDir()
	store, _, err := durable.Open(durable.Options{Dir: dir, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := map[string][]byte{}
	if err := store.Snapshot(func(add func([]byte) error) error {
		for i, g := range graphs[:2] {
			rec := mapGraphRecord(t, g)
			snapshot[fingerprintOf(t, g)] = rec
			dec, err := encodeDecisionRecord(keys[i], decisions[i])
			if err == nil {
				err = add(rec)
			}
			if err == nil {
				err = add(dec)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs[2:] {
		if _, err := store.Append(roundOf(t, oracleRecord(g, params, UserOverrides{}))); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, rec, err := durable.Open(durable.Options{Dir: dir, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := newTestServer(t, Config{})
	rs := s.Recover(ctx, rec.SnapshotRecords, rec.JournalRecords)
	if rs.SnapshotGraphs != 2 || rs.SnapshotDecisions != 2 || rs.ReplaySolved != 2 || rs.DecodeErrors != 0 || rs.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v, want 2 snapshot graphs and decisions, 2 replayed solves", rs)
	}
	for i, g := range graphs {
		fp := fingerprintOf(t, g)
		v, ok := s.graphs.Get(fp)
		if !ok {
			t.Fatalf("graph %d: %s not interned", i, fp)
		}
		if !bytes.Equal(v.AppendBinary(nil), g.AppendBinary(nil)) {
			t.Fatalf("graph %d: recovered view encodes differently from its Graph", i)
		}
		if vfp, err := v.Fingerprint(); err != nil || vfp != fp {
			t.Fatalf("graph %d: recovered view fingerprint %s (%v), want %s", i, vfp, err, fp)
		}
		ent, ok := s.cache.Get(keys[i])
		if !ok || !reflect.DeepEqual(ent.dec, decisions[i]) {
			t.Fatalf("graph %d: recovered decision %+v, live %+v", i, ent.dec, decisions[i])
		}
	}

	s.Start(ctx)
	for i, g := range graphs {
		rec := postRecorded(s, solveBody(t, g), ctx)
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || !resp.Cached {
			t.Fatalf("graph %d after recovery: status %d, cached %v (%v)", i, rec.Code, resp.Cached, err)
		}
	}
	if err := s.WriteSnapshotRecords(func(p []byte) error {
		if p[0] != recGraph {
			return nil
		}
		fp, _, _ := readChunk(p[1:])
		if want, ok := snapshot[string(fp)]; ok && !bytes.Equal(p, want) {
			t.Errorf("graph %s snapshots as %x, was written as %x", fp, p, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
