package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"copmecs/internal/serve"
)

// TestReadBodySizedAndUnsized: a declared Content-Length sizes the read to
// exactly the body, an undeclared one (chunked upload) still reads it all, and
// the cap holds on both paths whatever the declaration says.
func TestReadBodySizedAndUnsized(t *testing.T) {
	body := []byte(makeBody(7))
	post := func(r io.Reader, declared int64) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", r)
		req.ContentLength = declared
		return readBody(httptest.NewRecorder(), req)
	}
	got, err := post(bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("sized read = %q, %v", got, err)
	}
	if cap(got) != len(body) {
		t.Errorf("sized read allocated %d bytes for a %d-byte body", cap(got), len(body))
	}
	if got, err = post(bytes.NewReader(body), -1); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("unsized read = %q, %v", got, err)
	}
	if _, err = post(bytes.NewReader(body[:10]), int64(len(body))); err == nil {
		t.Error("a body shorter than its Content-Length read without error")
	}
	huge := strings.NewReader(strings.Repeat(" ", serve.DefaultMaxBodyBytes+1))
	if _, err = post(huge, -1); err == nil {
		t.Error("unsized body over the cap read without error")
	}
	huge.Seek(0, io.SeekStart)
	if _, err = post(huge, serve.DefaultMaxBodyBytes+1); err == nil {
		t.Error("sized body over the cap read without error")
	}
}

// TestReplicasForNeverEmpty: with every backend quarantined the ready ring
// is swapped to an empty one, and replicasFor still hands forward at least
// one candidate, in full-membership ring order — there is no "no backend"
// outcome for proxy to report.
func TestReplicasForNeverEmpty(t *testing.T) {
	rt, err := New(Config{
		Backends: []BackendConfig{
			{Name: "a", URL: "http://127.0.0.1:1"},
			{Name: "b", URL: "http://127.0.0.1:2"},
			{Name: "c", URL: "http://127.0.0.1:3"},
		},
		QuarantineAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rt.backends {
		rt.prober.noteFailure(b, "down")
	}
	for i := 0; i < 32; i++ {
		fp := fingerprintOf(t, makeBody(i))
		if ready := rt.ring.Load().Replicas(fp, maxAttempts); len(ready) != 0 {
			t.Fatalf("ready ring still routes to %v with every backend quarantined", ready)
		}
		want := rt.fullRing.Replicas(fp, maxAttempts)
		reps := rt.replicasFor(fp)
		if len(reps) == 0 || len(reps) != len(want) {
			t.Fatalf("replicasFor(%s) = %d candidates, want %d", fp, len(reps), len(want))
		}
		for j, b := range reps {
			if b.name != want[j] {
				t.Fatalf("replicasFor(%s)[%d] = %s, want %s (full-ring order)", fp, j, b.name, want[j])
			}
		}
	}
}
